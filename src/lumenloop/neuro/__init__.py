"""Feedforward controller networks and the generational GA that tunes them."""

from .network import (
    Genome,
    NetworkSpec,
    load_genome,
    save_genome,
    sigmoid,
)

# Running a network needs no GA, so the GA's names are imported from
# lumenloop.neuro.evolution: controllers, simulate and compare load without it.
__all__ = [
    "Genome",
    "load_genome",
    "NetworkSpec",
    "save_genome",
    "sigmoid",
]
