"""A genome's network on one pole: the per-pole reference that
``lumenloop.neuro.network.network_batch_step`` is tested against.

The package runs genomes only as batch steps over (lanes, poles) arrays.
``NetworkController`` runs the same ``forward`` pass on one pole's
SensorReading, as one column of the batch layout (``per_pole_rows`` with
one lane of one pole), so ``tests/scalar_engine.py`` can step a genome
pole by pole and the batch step must match it bit for bit.
"""

from __future__ import annotations

import numpy as np

from lumenloop.engine import ActuatorCommand, SensorReading
from lumenloop.neuro.network import (
    DEFAULT_NETWORK,
    NetworkSpec,
    forward,
    per_pole_rows,
    split_genome,
)


def reading_to_inputs(reading: SensorReading) -> np.ndarray:
    """The network's inputs in order (ambient, motion, signal, own light),
    each in [0, 1]: the batch step's four sensors for one pole."""
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
    """One pole's controller: outputs are (light, listen, broadcast)."""

    def __init__(self, genes: np.ndarray, spec: NetworkSpec = DEFAULT_NETWORK):
        self._w_hidden, self._w_output = (
            per_pole_rows(w[None], 1) for w in split_genome(spec, genes)
        )

    def act(self, reading: SensorReading) -> ActuatorCommand:
        # forward leaves the warnings to its caller: a sum past the float
        # range is ±inf, which sigmoid maps to exactly 1 or 0
        with np.errstate(over="ignore"):
            (light,), (listen,), (broadcast,) = forward(
                self._w_hidden, self._w_output, reading_to_inputs(reading)[:, None]
            )
        return ActuatorCommand(
            light=float(light), listen=bool(listen >= 0.5), broadcast=float(broadcast)
        )
