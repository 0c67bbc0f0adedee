import functools
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hqmm import analysis, cli, modelfile, quantum
from hqmm.cluster import MeasurementBasis, build_cluster, cluster_kraus, oracle_word_probability
from hqmm.mps import MpsModel, cluster_mps, mps_to_hqmm, validate_mps

from conftest import random_mps

PLUS = np.full((2, 2), 0.5, dtype=complex)


def trivial_mps() -> MpsModel:
    return MpsModel(
        alphabet=("0",),
        bond_dim=1,
        phys_dim=1,
        tensors=(np.array([[1.0]]),),
        projectors={"0": np.array([[1.0]])},
    )


def test_validate_trivial():
    assert validate_mps(trivial_mps()) == []


def test_validate_random_isometries():
    rng = np.random.default_rng(21)
    for bond, phys in ((1, 2), (2, 2), (3, 2), (2, 3)):
        assert validate_mps(random_mps(rng, bond, phys)) == []


def test_validate_rejects_non_isometry():
    m = MpsModel(
        alphabet=("0", "1"),
        bond_dim=2,
        phys_dim=2,
        tensors=(np.eye(2) / math.sqrt(3), np.eye(2) / math.sqrt(3)),
        projectors={"0": np.diag([1.0, 0.0]), "1": np.diag([0.0, 1.0])},
    )
    assert any(v.check == "isometry" for v in validate_mps(m))


def test_validate_rejects_incomplete_projectors():
    m = MpsModel(
        alphabet=("0", "1"),
        bond_dim=1,
        phys_dim=2,
        tensors=(np.array([[1.0]]) / math.sqrt(2), np.array([[1.0]]) / math.sqrt(2)),
        projectors={"0": np.diag([1.0, 0.0]), "1": np.diag([0.0, 0.0])},
    )
    assert any(v.check == "complete" for v in validate_mps(m))


def test_trivial_model_emits_constant_symbol():
    model = mps_to_hqmm(trivial_mps())
    assert model.dim == 1
    assert quantum.word_probability(model, ("0",) * 4) == pytest.approx(1.0, abs=1e-14)


def test_mps_to_hqmm_rejects_invalid():
    m = MpsModel(
        alphabet=("0", "1"),
        bond_dim=2,
        phys_dim=2,
        tensors=(np.eye(2), np.eye(2)),
        projectors={"0": np.diag([1.0, 0.0]), "1": np.diag([0.0, 1.0])},
    )
    with pytest.raises(ValueError, match="isometry"):
        mps_to_hqmm(m)


def test_reduction_is_complete_and_normalized():
    rng = np.random.default_rng(22)
    for bond, phys in ((3, 2), (2, 2), (3, 3)):
        m = random_mps(rng, bond, phys)
        model = mps_to_hqmm(m)
        assert model.dim == m.bond_dim
        assert all(len(model.operations[s]) == m.phys_dim for s in m.alphabet)
        assert quantum.validate_hqmm(model) == []
        for n in range(1, 6):
            dist = analysis.enumerate_distribution(model, n)
            assert abs(dist.total() - 1.0) < 1e-10


def _direct_step(m: MpsModel, rho: np.ndarray, symbol: str) -> np.ndarray:
    """Independent route: attach |0>, entangle by the isometry, project, trace."""
    bond, phys = m.bond_dim, m.phys_dim
    w = np.zeros((bond * phys, bond), dtype=complex)
    for i in range(phys):
        for a in range(bond):
            for b in range(bond):
                w[a * phys + i, b] = m.tensors[i][a, b]
    big = w @ rho @ w.conj().T
    proj = np.kron(np.eye(bond), m.projectors[symbol])
    big = proj @ big @ proj
    return np.trace(big.reshape(bond, phys, bond, phys), axis1=1, axis2=3)


def test_reduction_matches_direct_simulation():
    rng = np.random.default_rng(23)
    for bond, phys in ((2, 2), (3, 2), (2, 3)):
        m = random_mps(rng, bond, phys)
        model = mps_to_hqmm(m)
        for word in itertools.product(m.alphabet, repeat=3):
            rho = m.initial
            for s in word:
                rho = _direct_step(m, rho, s)
            direct = float(np.trace(rho).real)
            reduced = quantum.word_probability(model, word)
            assert abs(direct - reduced) < 1e-10


def test_cluster_mps_is_valid():
    m = cluster_mps(MeasurementBasis(0.9, 1.7))
    assert validate_mps(m) == []
    assert m.bond_dim == 2 and m.phys_dim == 2


def test_cluster_mps_reproduces_readout_statistics():
    for phi, xi in ((math.pi / 8, 0.0), (math.pi / 4, math.pi / 3), (1.3, 2.2)):
        basis = MeasurementBasis(phi, xi)
        reduced = mps_to_hqmm(cluster_mps(basis))
        reference = cluster_kraus(basis)
        for n in range(1, 6):
            got = analysis.enumerate_distribution(reduced, n)
            want = analysis.enumerate_distribution(reference, n, initial=PLUS)
            for w, p in want.probabilities.items():
                assert abs(got.probabilities[w] - p) < 1e-10


_oracle = functools.cache(build_cluster)


@settings(max_examples=30)
@given(
    phi=st.floats(0.0, math.pi),
    xi=st.floats(0.0, 2 * math.pi),
    n_qubits=st.integers(12, 14),
)
def test_cluster_mps_matches_the_oracle_at_generated_angles(phi, xi, n_qubits):
    """The reduced readout, started at its own |+>, gives every word up to
    length 4 the probability of the brute-force chain of 12 to 14 qubits."""
    basis = MeasurementBasis(phi, xi)
    reduced = mps_to_hqmm(cluster_mps(basis))
    for n in range(1, 5):
        dist = analysis.enumerate_distribution(reduced, n)
        for word, p in dist.probabilities.items():
            brute = oracle_word_probability(_oracle(n_qubits), basis, word)
            assert abs(brute - p) <= 1e-12, (word, brute, p)


def _many_body_distribution(m: MpsModel, rho0: np.ndarray, n: int) -> dict:
    """Every length-``n`` word's probability from the chain's statevector,
    without the reduced Kraus operators: purify ``rho0`` with an ancilla,
    grow the chain by the isometry ``sum_i |i> (x) V^i`` one site at a time,
    project each physical leg with its symbol's ``P_s`` and take the squared
    norm. Axes run site 1 .. site n, bond, ancilla."""
    weights, vectors = np.linalg.eigh(rho0)
    psi = vectors * np.sqrt(np.clip(weights, 0.0, None))
    isometry = np.stack(m.tensors)
    for _ in range(n):
        psi = np.einsum("iab,...bc->...iac", isometry, psi)
    out = {}
    for word in itertools.product(m.alphabet, repeat=n):
        phi = psi
        for site, s in enumerate(word):
            phi = np.moveaxis(np.tensordot(m.projectors[s], phi, axes=(1, site)), 0, site)
        out[word] = float(np.vdot(phi, phi).real)
    return out


def _coarse_grained(m: MpsModel) -> MpsModel:
    """The readout of a 3-level physical space merged into two outcomes: the
    rank-2 projector onto the first two basis states and its complement."""
    p = m.projectors
    return MpsModel(
        alphabet=("a", "b"),
        bond_dim=m.bond_dim,
        phys_dim=m.phys_dim,
        tensors=m.tensors,
        projectors={"a": p["0"] + p["1"], "b": p["2"]},
        initial=m.initial,
    )


@settings(max_examples=20)
@given(
    seed=st.integers(0, 2**32 - 1),
    bond=st.integers(1, 3),
    phys=st.integers(2, 3),
    coarse=st.booleans(),
    stationary=st.booleans(),
)
@example(seed=1, bond=2, phys=3, coarse=True, stationary=False)
@example(seed=2, bond=3, phys=3, coarse=True, stationary=True)
def test_generated_readouts_match_the_many_body_state(seed, bond, phys, coarse, stationary):
    """The reduced readout gives every word up to length 5 the probability of
    the chain's statevector, from the readout's own start and from its
    stationary one; a coarse-grained readout has a rank-2 projector."""
    m = random_mps(np.random.default_rng(seed), bond, phys)
    if coarse and phys == 3:
        m = _coarse_grained(m)
    reduced = mps_to_hqmm(m)
    rho0 = quantum.steady_state(reduced)[0] if stationary else m.initial
    for n in range(1, 6):
        dist = analysis.enumerate_distribution(reduced, n, initial=rho0)
        for word, p in _many_body_distribution(m, rho0, n).items():
            assert abs(dist.probabilities[word] - p) <= 1e-12, (word, p)


SPIN = ("+", "0", "-")


def _aklt(projectors=None) -> MpsModel:
    """The spin-1 AKLT chain, ``V+ = sqrt(2/3) s+``, ``V0 = -sqrt(1/3) sz``,
    ``V- = -sqrt(2/3) s-``, read out by the given projectors on the levels
    ``+1, 0, -1``; by default the z basis."""
    raising = np.array([[0.0, 1.0], [0.0, 0.0]])
    tensors = (
        math.sqrt(2 / 3) * raising,
        -math.sqrt(1 / 3) * np.diag([1.0, -1.0]),
        -math.sqrt(2 / 3) * raising.T,
    )
    if projectors is None:
        projectors = {s: np.diag(np.eye(3)[k]) for k, s in enumerate(SPIN)}
    return MpsModel(alphabet=SPIN, bond_dim=2, phys_dim=3, tensors=tensors, projectors=projectors)


def _alternates(word) -> bool:
    signs = [s for s in word if s != "0"]
    return all(a != b for a, b in zip(signs, signs[1:]))


def test_aklt_forbids_exactly_the_words_whose_signs_do_not_alternate():
    """Hidden string order: from the stationary state, a word has probability
    exactly zero when two nonzero outcomes in a row have the same sign, and
    at least (1/3)**6 otherwise, at every length up to 6."""
    m = _aklt()
    assert validate_mps(m) == []
    reduced = mps_to_hqmm(m)
    forbidden_counts = []
    for n in range(1, 7):
        probabilities = analysis.enumerate_distribution(reduced, n).probabilities
        forbidden = [p for w, p in probabilities.items() if not _alternates(w)]
        assert all(p == 0.0 for p in forbidden)
        assert min(p for w, p in probabilities.items() if _alternates(w)) >= 1.37e-3
        forbidden_counts.append(len(forbidden))
    assert forbidden_counts == [0, 2, 12, 50, 180, 602]


@pytest.mark.parametrize("theta", [math.pi / 8, math.pi / 4, math.pi / 2, 1.234])
def test_aklt_reads_out_the_same_along_every_spin_axis(theta):
    """SU(2) symmetry: projectors rotated by ``exp(-i theta S_y)`` give the z
    readout's distribution at every length up to 5."""
    raising = math.sqrt(2) * np.diag([1.0, 1.0], 1)
    levels, vectors = np.linalg.eigh((raising - raising.T) / 2j)
    rotation = (vectors * np.exp(-1j * theta * levels)) @ vectors.conj().T
    z = _aklt()
    rotated = _aklt({s: rotation @ p @ rotation.conj().T for s, p in z.projectors.items()})
    assert validate_mps(rotated) == []
    for n in range(1, 6):
        want = analysis.enumerate_distribution(mps_to_hqmm(z), n).probabilities.array
        got = analysis.enumerate_distribution(mps_to_hqmm(rotated), n).probabilities.array
        assert np.max(np.abs(got - want)) <= 1e-14


def test_words_that_start_with_a_minus_sign_go_after_a_double_dash_or_an_equals(tmp_path):
    path = tmp_path / "aklt.json"
    path.write_text(modelfile.serialize_model(_aklt()))
    for argv, tail in (
        (["wordprob", str(path), "--", "-0+"], "0.074074074074\n"),
        (["hankel", str(path), "--rows=-;+", "--cols", ";0"], "rank = 1\n"),
    ):
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(argv, out=out, err=err) == 0
        assert err.getvalue() == "" and out.getvalue().endswith(tail)
