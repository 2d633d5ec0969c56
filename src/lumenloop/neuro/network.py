"""Fixed-topology feedforward controller network.

One hidden layer, sigmoid activations throughout, bias on every unit. A
genome is the flat weight vector; see split_genome for the packing order.
``forward`` is the one implementation of the network, and
``network_batch_step`` runs it for every pole of a whole population at
once, laying the weights out with ``per_pole_rows``: one contiguous row
per (input, unit) with a column per pole, so each layer is a few
elementwise operations on long rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..documents import as_int, as_number, parse_json, read_text
from ..engine import BatchStep
from ..errors import LengthMismatch, SchemaError


# a BatchStep's four sensors (ambient, motion, signal, own light; not a rule
# program's ticks_since_motion or tick) and its three actuators
N_INPUTS = 4
N_OUTPUTS = 3


@dataclass(frozen=True)
class NetworkSpec:
    n_hidden: int = 6

    @property
    def genome_length(self) -> int:
        return (N_INPUTS + 1) * self.n_hidden + (self.n_hidden + 1) * N_OUTPUTS


DEFAULT_NETWORK = NetworkSpec()


@dataclass(frozen=True, eq=False)
class Genome:
    """A genome file's value: the flat genes, the fitness they scored and
    the network they weight. It is its own controller factory
    (``engine.ControllerFactory``), one that offers only ``batch_step``: a
    genome runs on a whole lane, never pole by pole."""

    genes: np.ndarray
    fitness: float | None = None
    spec: NetworkSpec = DEFAULT_NETWORK

    def batch_step(self) -> BatchStep:
        return network_batch_step(np.asarray(self.genes, dtype=float)[None], self.spec)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: exp(min(x, 0)) / (1 + exp(-|x|)),
    so exp never overflows.

    Where x >= 0 the numerator is exp(0), exactly 1, and where x < 0 both
    exps take the same float, so this is 1 / (1 + exp(-x)) for x >= 0 and
    exp(x) / (1 + exp(x)) elsewhere. ±inf map to exactly 1 and 0. Both
    terms are computed in place in the two arrays the call allocates."""
    x = np.asarray(x, dtype=float)
    if not x.ndim:  # a ufunc gives a 0-d input's result as a scalar, not in place
        return sigmoid(x.reshape(1))[0]
    denominator = np.abs(x)
    np.negative(denominator, out=denominator)
    np.exp(denominator, out=denominator)
    denominator += 1.0
    numerator = np.minimum(x, 0.0)
    np.exp(numerator, out=numerator)
    numerator /= denominator
    return numerator


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
            f"expected {spec.genome_length} for {N_INPUTS}-"
            f"{spec.n_hidden}-{N_OUTPUTS}"
        )
    lead = genes.shape[:-1]
    cut = (N_INPUTS + 1) * spec.n_hidden
    w_hidden = genes[..., :cut].reshape(*lead, spec.n_hidden, N_INPUTS + 1)
    w_output = genes[..., cut:].reshape(*lead, N_OUTPUTS, spec.n_hidden + 1)
    return w_hidden, w_output


def per_pole_rows(w: np.ndarray, poles: int) -> np.ndarray:
    """Weight rows laid out for ``forward``: (inputs + 1, units, lanes * poles).

    ``w`` is a (lanes, units, inputs + 1) stack from split_genome. Row i
    holds every unit's weight on input i, and the last row the biases,
    each repeated for the ``poles`` poles of its lane: column
    ``lane * poles + pole`` belongs to that pole, as in a flattened
    (lanes, poles) array.
    """
    return np.repeat(w.transpose(2, 1, 0), poles, axis=-1)


def hidden_sums(w_hidden: np.ndarray, x, acc: np.ndarray | None = None,
                first: int = 0) -> np.ndarray:
    """The hidden units' sums before the sigmoid: the bias, then
    + w_hidden[i] * x[i] for each input i in N_INPUTS order.

    Each product is elementwise and each sum one numpy addition, so no
    summation order is left to a BLAS kernel. A call may stop short of the
    last input and a later one go on from its result: ``acc`` is then the
    sums over the inputs before ``first``, and ``x`` holds the inputs from
    ``first`` on. The floats are those of one call over all the inputs.
    Returns a new array.
    """
    acc = w_hidden[-1] if acc is None else acc
    for w, row in zip(w_hidden[first:-1], x):
        product = w * row
        acc = np.add(acc, product, out=product)
    return acc


def forward(w_hidden: np.ndarray, w_output: np.ndarray, x, acc: np.ndarray | None = None,
            first: int = 0) -> np.ndarray:
    """Network outputs as an (N_OUTPUTS, columns) array, a row per output.

    ``w_hidden`` and ``w_output`` come from per_pole_rows, and ``x`` holds
    the sensors in N_INPUTS order, each a row with a column per pole (an
    (N_INPUTS, columns) array, say) or one number for every pole. With
    ``acc`` and ``first``, ``x`` holds only the inputs from ``first`` on,
    and ``acc`` the hidden sums over those before it (hidden_sums). Every array
    operation runs along contiguous rows of columns. Each output element
    goes through the same operations in the same order however many
    genomes and poles are computed together, so the result for one
    (genome, inputs) pair never depends on the rest of the batch. A sum
    past the float range is ±inf, which sigmoid maps to exactly 1 or 0:
    the defined result, so call this with overflow warnings off, as
    ``engine.run_batch`` runs every step.
    """
    hidden = sigmoid(hidden_sums(w_hidden, x, acc, first))
    # the output layer's sums in the same order, its products in one call
    products = w_output[:-1] * hidden[:, None]
    acc = w_output[-1].copy()
    for product in products:
        acc += product
    return sigmoid(acc)


def network_batch_step(genes: np.ndarray, spec: NetworkSpec = DEFAULT_NETWORK) -> BatchStep:
    """``engine.run_batch`` step in which every pole of lane i runs genome
    ``genes[i]`` (``forward``; listen is output 1 >= 0.5).

    ``genes`` is a (lanes, genome_length) stack. The step lays the weights
    out per pole (per_pole_rows) at its first call, when the pole count is
    known, so it serves one ``run_batch``. Between ticks it keeps the
    first terms of the hidden sums: bias + w0·ambient while the same
    ambient object comes, and + w1·motion on top while the same motion
    object comes too, which ``run_batch`` passes on through every tick on
    which no one moves or starts. Only the signal and light terms are
    then added, in the order ``forward`` states, so the outputs are the
    floats of a whole pass. This rests on the BatchStep contract that the
    loop never writes into an array it has handed over. The step is
    ``stateless`` (see ``engine.BatchStep``): a tick's outputs depend on
    that tick's sensors alone.
    """
    w_hidden, w_output = split_genome(spec, genes)
    rows = None
    seen_ambient = seen_motion = with_ambient = with_motion = None

    def step(ambient, motion, signal, light):
        nonlocal rows, seen_ambient, seen_motion, with_ambient, with_motion
        if rows is None:
            poles = light.shape[-1]
            rows = (per_pole_rows(w_hidden, poles), per_pole_rows(w_output, poles))
        if ambient is not seen_ambient:
            seen_ambient, seen_motion = ambient, None
            with_ambient = hidden_sums(rows[0], (ambient,))
        if motion is not seen_motion:
            seen_motion = motion
            with_motion = hidden_sums(rows[0], (motion.reshape(-1),), with_ambient, 1)
        y = forward(*rows, (signal.reshape(-1), light.reshape(-1)), with_motion, 2)
        light, listen, broadcast = y.reshape((N_OUTPUTS,) + light.shape)
        return light, listen >= 0.5, broadcast

    # the kept sums are a cache of this tick's, not memory: forward maps
    # == sensors to == outputs, as a sum of +0.0 or -0.0 terms is a zero,
    # of which sigmoid gives 0.5 either way, and it never returns -0.0
    step.stateless = True
    return step


def genome_document(genome: Genome) -> dict:
    return {
        "network": {
            "n_inputs": N_INPUTS,
            "n_hidden": genome.spec.n_hidden,
            "n_outputs": N_OUTPUTS,
        },
        "genes": [float(g) for g in np.asarray(genome.genes, dtype=float)],
        "fitness": genome.fitness,
    }


def save_genome(path: str | Path, genome: Genome) -> None:
    """Write the genome document, which ``load_genome`` reads back. A gene
    or fitness that is not finite raises SchemaError, and nothing is written."""
    doc = genome_document(genome)
    parse_genome_document(doc)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def parse_genome_document(doc: dict) -> Genome:
    if not isinstance(doc, dict) or not isinstance(doc.get("genes"), list):
        raise SchemaError("genome document must be an object with a 'genes' list")
    net = doc.get("network", {})
    if not isinstance(net, dict):
        raise SchemaError("'network' must be an object")
    n_inputs = as_int(net.get("n_inputs", N_INPUTS), "network.n_inputs")
    n_hidden = as_int(net.get("n_hidden", DEFAULT_NETWORK.n_hidden), "network.n_hidden")
    n_outputs = as_int(net.get("n_outputs", N_OUTPUTS), "network.n_outputs")
    if n_hidden < 0:  # the rule of evolve --hidden
        raise SchemaError(f"network.n_hidden: expected an integer >= 0, got {n_hidden}")
    if (n_inputs, n_outputs) != (N_INPUTS, N_OUTPUTS):
        raise SchemaError(f"genome network must take {N_INPUTS} inputs and give "
                          f"{N_OUTPUTS} outputs, got {n_inputs}-{n_hidden}-{n_outputs}")
    spec = NetworkSpec(n_hidden)
    genes = np.array([as_number(g, f"genes[{i}]") for i, g in enumerate(doc["genes"])])
    if genes.size != spec.genome_length:
        raise LengthMismatch(
            f"genome has {genes.size} genes, expected {spec.genome_length}"
        )
    fitness = doc.get("fitness")
    if fitness is not None:
        fitness = as_number(fitness, "fitness")
    return Genome(genes=genes, fitness=fitness, spec=spec)


def load_genome(path: str | Path) -> Genome:
    return parse_genome_document(parse_json(read_text(path), path))
