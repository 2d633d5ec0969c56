"""Fixed-topology feedforward controller network.

One hidden layer, sigmoid activations throughout, bias on every unit. A
genome is the flat weight vector; see split_genome for the packing order.
``forward`` is the one implementation of the network: ``NetworkController``
calls it for one pole, ``network_batch_step`` for every pole of a whole
population, with bit-identical results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..engine import ActuatorCommand, BatchStep, SensorReading
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
    """Unpack flat genomes into (hidden, output) weight matrices.

    Each matrix row holds one unit's input weights followed by its bias.
    ``genes`` is one genome or a (k, genome_length) stack of them; a stack
    gives (k, units, inputs + 1) arrays.
    """
    genes = np.asarray(genes, dtype=float)
    if genes.ndim not in (1, 2) or genes.shape[-1] != spec.genome_length:
        raise LengthMismatch(
            f"genome has {genes.shape[-1] if genes.ndim else 1} genes, "
            f"expected {spec.genome_length} for {spec.n_inputs}-"
            f"{spec.n_hidden}-{spec.n_outputs}"
        )
    lead = genes.shape[:-1]
    cut = (spec.n_inputs + 1) * spec.n_hidden
    w_hidden = genes[..., :cut].reshape(*lead, spec.n_hidden, spec.n_inputs + 1)
    w_output = genes[..., cut:].reshape(*lead, spec.n_outputs, spec.n_hidden + 1)
    return w_hidden, w_output


def _layer(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    if w.shape[-1] != x.shape[-1] + 1:
        raise ValueError(
            f"layer takes {w.shape[-1] - 1} inputs, got {x.shape[-1]}"
        )
    # bias, then + w[i] * x[i] for each input in order: the products are
    # elementwise and each sum is one numpy operation, so no summation
    # order is left to a BLAS kernel
    products = w[..., :-1] * x[..., None, :]
    acc = w[..., -1]
    for i in range(x.shape[-1]):
        acc = acc + products[..., i]
    return sigmoid(acc)


def forward(w_hidden: np.ndarray, w_output: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Network outputs for inputs ``x[..., i]``, in a fixed operation order.

    ``w_hidden`` and ``w_output`` come from split_genome, with extra
    leading axes that broadcast against the leading axes of ``x``. Each
    output element goes through the same operations in the same order
    however many genomes and poles are computed together, so the result for
    one (genome, inputs) pair never depends on the rest of the batch.
    """
    return _layer(w_output, _layer(w_hidden, x))


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
        # Split once up front; per-tick work is one forward pass.
        self._w_hidden, self._w_output = split_genome(spec, genes)

    def act(self, reading: SensorReading) -> ActuatorCommand:
        y = forward(self._w_hidden, self._w_output, reading_to_inputs(reading))
        return ActuatorCommand(
            light=float(y[0]), listen=bool(y[1] >= 0.5), broadcast=float(y[2])
        )


def network_batch_step(genes: np.ndarray, spec: NetworkSpec = DEFAULT_NETWORK) -> BatchStep:
    """``engine.run_batch`` step in which lane i runs NetworkController(genes[i]).

    ``genes`` is a (lanes, genome_length) stack. Inputs are laid out as in
    reading_to_inputs, so every pole of lane i gets the same outputs as the
    scalar controller, bit for bit.
    """
    w_hidden, w_output = split_genome(spec, genes)
    # a pole axis between the lane axis and the weight rows
    w_hidden, w_output = w_hidden[:, None], w_output[:, None]

    def step(ambient, motion, signal, light):
        x = np.empty(light.shape + (4,))
        x[..., 0] = ambient
        x[..., 1] = motion
        x[..., 2] = signal
        x[..., 3] = light
        y = forward(w_hidden, w_output, x)
        return y[..., 0], y[..., 1] >= 0.5, y[..., 2]

    return step


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
    if not np.isfinite(genes).all():
        raise SchemaError("genome genes must be finite numbers, not NaN or Infinity")
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
