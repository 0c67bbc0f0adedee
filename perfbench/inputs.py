"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` built from the workload
seed, so one seed always yields the same models. Shapes (state count,
alphabet size, bond dimension) are fixed by the callers; the seed only
chooses the entries, so the amount of work does not depend on the seed.
"""

from __future__ import annotations

import math

import numpy as np

from hqmm.classical import HmmModel
from hqmm.cluster import MeasurementBasis
from hqmm.mps import MpsModel


def random_hmm(rng: np.random.Generator, d: int, n_symbols: int) -> HmmModel:
    """Dense generator: every column's (symbol, target) mass is a Dirichlet
    draw, so the sum of the transition matrices is column-stochastic."""
    alphabet = tuple(str(k) for k in range(n_symbols))
    mats = {s: np.zeros((d, d)) for s in alphabet}
    for j in range(d):
        w = rng.dirichlet(np.ones(n_symbols * d)).reshape(n_symbols, d)
        for k, s in enumerate(alphabet):
            mats[s][:, j] = w[k]
    return HmmModel(alphabet=alphabet, transitions=mats)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian with the phases fixed."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_mps(rng: np.random.Generator, bond_dim: int, phys_dim: int) -> MpsModel:
    """Isometric site tensors from a QR factorization, read out projectively
    in a Haar-random basis of the physical space. No initial bond state, so
    the readout starts from its stationary state."""
    a = rng.normal(size=(phys_dim * bond_dim, bond_dim)) + 1j * rng.normal(
        size=(phys_dim * bond_dim, bond_dim)
    )
    q, _ = np.linalg.qr(a)
    tensors = tuple(q[i * bond_dim : (i + 1) * bond_dim, :] for i in range(phys_dim))
    basis = random_unitary(rng, phys_dim)
    alphabet = tuple(str(k) for k in range(phys_dim))
    projectors = {
        s: np.outer(basis[:, k], basis[:, k].conj()) for k, s in enumerate(alphabet)
    }
    return MpsModel(
        alphabet=alphabet,
        bond_dim=bond_dim,
        phys_dim=phys_dim,
        tensors=tensors,
        projectors=projectors,
    )


def random_basis(rng: np.random.Generator) -> MeasurementBasis:
    """Cluster readout angles, uniform over phi in [0, pi) and xi in [0, 2 pi)."""
    return MeasurementBasis(
        phi=float(rng.uniform(0.0, math.pi)), xi=float(rng.uniform(0.0, 2 * math.pi))
    )
