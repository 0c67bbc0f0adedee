import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from hqmm import cluster, modelfile, quantum
from hqmm.classical import HmmModel
from hqmm.mps import MpsModel, mps_to_hqmm

# every property test draws the same examples on each run, keeps no example
# database and has no per-example deadline, since timings vary with load;
# each test's own ``settings`` gives only its example count and any
# suppressed health check
settings.register_profile("hqmm", deadline=None, derandomize=True, database=None)
settings.load_profile("hqmm")

@pytest.fixture(scope="session")
def even():
    return modelfile.load_bundled("even_process")


@pytest.fixture(scope="session")
def even_vn():
    return modelfile.load_bundled("even_process_vn")


@pytest.fixture(scope="session")
def four_state():
    return modelfile.load_bundled("four_state")


@pytest.fixture(scope="session")
def four_symbol():
    return modelfile.load_bundled("four_symbol_hqmm")


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hmm(rng, d, n_symbols, with_prior=False) -> HmmModel:
    """Dense random generator: every column's (symbol, target) mass is a
    Dirichlet draw, so the sum of the transition matrices is stochastic."""
    alphabet = tuple(str(k) for k in range(n_symbols))
    mats = {s: np.zeros((d, d)) for s in alphabet}
    for j in range(d):
        w = rng.dirichlet(np.ones(n_symbols * d)).reshape(n_symbols, d)
        for k, s in enumerate(alphabet):
            mats[s][:, j] = w[k]
    prior = rng.dirichlet(np.ones(d)) if with_prior else None
    return HmmModel(alphabet=alphabet, transitions=mats, prior=prior)


def random_mps(rng, bond_dim, phys_dim) -> MpsModel:
    """Isometric tensors from a QR factorization; projective readout in a
    Haar-random basis of the physical space."""
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
        initial=random_density(rng, bond_dim),
    )


@st.composite
def kraus_models(draw):
    """An MPS readout (D = 2-8), an embedded random HMM (1-6 states) or the
    cluster readout at generated angles, as an ``HqmmModel``."""
    kind = draw(st.sampled_from(("mps", "embedded", "cluster")))
    if kind == "cluster":
        phi = draw(st.floats(0.0, math.pi, exclude_max=True))
        xi = draw(st.floats(0.0, 2 * math.pi, exclude_max=True))
        return cluster.cluster_kraus(cluster.MeasurementBasis(phi, xi))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "mps":
        return mps_to_hqmm(random_mps(rng, draw(st.integers(2, 8)), draw(st.integers(2, 3))))
    return quantum.embed_classical(
        random_hmm(rng, draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    )
