"""Imitation objective: score a genome by how often its thresholded lamp
output equals the motion flag ("light = motion") over a fixed probe set.

The objective takes a (k, genome_length) batch and scores each row on its
own, so a genome's value does not depend on the rest of the batch."""

import numpy as np

from lumenloop.neuro.network import DEFAULT_NETWORK, sigmoid, split_genome


def imitation_objective(spec=DEFAULT_NETWORK, n_samples=200, probe_seed=2024):
    rng = np.random.default_rng(probe_seed)
    inputs = np.column_stack([
        rng.random(n_samples),                        # ambient
        rng.integers(0, 2, n_samples).astype(float),  # motion
        rng.random(n_samples),                        # signal
        rng.random(n_samples),                        # current light
        np.ones(n_samples),                           # bias column
    ])
    target = inputs[:, 1] >= 0.5

    def score(genes):
        w_hidden, w_output = split_genome(spec, genes)
        hidden = sigmoid(inputs @ w_hidden.T)
        hidden = np.column_stack([hidden, np.ones(len(hidden))])
        out = sigmoid(hidden @ w_output.T)
        return 100.0 * float(np.mean((out[:, 0] >= 0.5) == target))

    def objective(genes):
        return [score(g) for g in genes]

    return objective
