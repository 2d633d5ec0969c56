"""Fixed-topology feedforward controller network.

One hidden layer, sigmoid activations throughout, bias on every unit. A
genome is the flat weight vector; see genome_layout for the packing order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..engine import ActuatorCommand, SensorReading
from ..errors import LengthMismatch, SchemaError


@dataclass(frozen=True)
class NetworkSpec:
    n_inputs: int = 4
    n_hidden: int = 6
    n_outputs: int = 3

    @property
    def genome_length(self) -> int:
        return (self.n_inputs + 1) * self.n_hidden + (self.n_hidden + 1) * self.n_outputs


DEFAULT_NETWORK = NetworkSpec()


@dataclass(eq=False)
class Genome:
    genes: np.ndarray
    fitness: float | None = None


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def split_genome(spec: NetworkSpec, genes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unpack the flat vector into (hidden, output) weight matrices.

    Each matrix row holds one unit's input weights followed by its bias.
    """
    genes = np.asarray(genes, dtype=float)
    if genes.ndim != 1 or genes.size != spec.genome_length:
        raise LengthMismatch(
            f"genome has {genes.size} genes, "
            f"expected {spec.genome_length} for {spec.n_inputs}-"
            f"{spec.n_hidden}-{spec.n_outputs}"
        )
    cut = (spec.n_inputs + 1) * spec.n_hidden
    w_hidden = genes[:cut].reshape(spec.n_hidden, spec.n_inputs + 1)
    w_output = genes[cut:].reshape(spec.n_outputs, spec.n_hidden + 1)
    return w_hidden, w_output


def reading_to_inputs(reading: SensorReading) -> np.ndarray:
    """Sensor vector fed to the network, all components in [0, 1].

    Deliberately the minimal set (ambient, motion, signal, own light); the
    rule language additionally sees ticks_since_motion and tick.
    """
    return np.array(
        [
            reading.ambient,
            1.0 if reading.motion else 0.0,
            reading.signal,
            reading.current_light,
        ],
        dtype=float,
    )


class NetworkController:
    """Engine adapter: outputs are (light, listen, broadcast)."""

    def __init__(self, genes: np.ndarray, spec: NetworkSpec = DEFAULT_NETWORK):
        # Split once up front; per-tick work is two small matmuls.
        self._w_hidden, self._w_output = split_genome(spec, genes)

    def act(self, reading: SensorReading) -> ActuatorCommand:
        x = np.append(reading_to_inputs(reading), 1.0)
        hidden = sigmoid(self._w_hidden @ x)
        y = sigmoid(self._w_output @ np.append(hidden, 1.0))
        return ActuatorCommand(
            light=float(y[0]), listen=bool(y[1] >= 0.5), broadcast=float(y[2])
        )


def genome_document(
    genome: Genome, spec: NetworkSpec = DEFAULT_NETWORK
) -> dict:
    return {
        "network": {
            "n_inputs": spec.n_inputs,
            "n_hidden": spec.n_hidden,
            "n_outputs": spec.n_outputs,
        },
        "genes": [float(g) for g in np.asarray(genome.genes, dtype=float)],
        "fitness": genome.fitness,
    }


def save_genome(
    path: str | Path, genome: Genome, spec: NetworkSpec = DEFAULT_NETWORK
) -> None:
    Path(path).write_text(
        json.dumps(genome_document(genome, spec), indent=2) + "\n", encoding="utf-8"
    )


def parse_genome_document(doc: dict) -> tuple[NetworkSpec, Genome]:
    if not isinstance(doc, dict) or "genes" not in doc:
        raise SchemaError("genome document must be an object with a 'genes' list")
    net = doc.get("network", {})
    if not isinstance(net, dict):
        raise SchemaError("'network' must be an object")
    try:
        spec = NetworkSpec(
            n_inputs=int(net.get("n_inputs", DEFAULT_NETWORK.n_inputs)),
            n_hidden=int(net.get("n_hidden", DEFAULT_NETWORK.n_hidden)),
            n_outputs=int(net.get("n_outputs", DEFAULT_NETWORK.n_outputs)),
        )
        genes = np.asarray([float(g) for g in doc["genes"]], dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed genome document: {exc}") from exc
    if genes.size != spec.genome_length:
        raise LengthMismatch(
            f"genome has {genes.size} genes, expected {spec.genome_length}"
        )
    fitness = doc.get("fitness")
    if fitness is not None:
        fitness = float(fitness)
    return spec, Genome(genes=genes, fitness=fitness)


def load_genome(path: str | Path) -> tuple[NetworkSpec, Genome]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"genome file is not valid JSON: {exc}") from exc
    return parse_genome_document(doc)
