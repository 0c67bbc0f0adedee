import numpy as np
import pytest
from hypothesis import settings

from hqmm import modelfile
from hqmm.classical import HmmModel
from hqmm.mps import MpsModel

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
