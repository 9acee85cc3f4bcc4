"""Helpers for tests that need every array of a sample batch at once, which
no command does: a SampleBatch hands out its spectra and traces a block at a
time and keeps neither."""

from typing import NamedTuple

import numpy as np


class Collected(NamedTuple):
    spectra: np.ndarray  # (N, m)
    thetas: np.ndarray  # (N,)
    entropies: np.ndarray  # (N,)
    chain_index: np.ndarray  # (N,)
    step_index: np.ndarray  # (N,)
    provenance: object


def collect(batch) -> Collected:
    """Read every block of `batch` and join its rows."""
    blocks = list(batch)
    spectra = np.concatenate([b.spectra for b in blocks])
    thetas = np.concatenate([b.thetas for b in blocks])
    return Collected(spectra, thetas, batch.entropies, batch.chain_index, batch.step_index,
                     batch.provenance)


def entropies_T(thetas: np.ndarray, entropies: np.ndarray) -> np.ndarray:
    """Unconstrained entropies T = sum x ln x = theta ln theta - theta S."""
    return thetas * np.log(thetas) - thetas * entropies
