import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hqmm import analysis, cluster, quantum
from hqmm.cluster import (
    MeasurementBasis,
    basis_vectors,
    build_cluster,
    cluster_kraus,
    h3_closed_form,
    length3_closed_form,
    oracle_word_probability,
)

GRID = [
    (phi, xi)
    for phi in (math.pi / 8, math.pi / 4, 3 * math.pi / 8)
    for xi in (0.0, math.pi / 3, math.pi / 2)
]

PLUS = np.full((2, 2), 0.5, dtype=complex)


def brute_force_cluster(n):
    """Independent construction: literal phase-gate products on |+>^n."""
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    state = plus
    for _ in range(n - 1):
        state = np.kron(plus, state)
    cz = np.diag([1.0, 1.0, 1.0, -1.0])
    for k in range(n - 1):
        # acts on qubits k+1, k+2 (bits k, k+1)
        gate = np.kron(np.kron(np.eye(2 ** (n - k - 2)), cz), np.eye(2**k))
        state = gate @ state
    return state


def test_basis_canonical_range():
    b = MeasurementBasis(phi=-0.5, xi=7.0)
    assert 0.0 <= b.phi < math.pi
    assert 0.0 <= b.xi < 2 * math.pi


def test_basis_vectors_orthonormal():
    for phi, xi in GRID:
        e0, e1 = basis_vectors(MeasurementBasis(phi, xi))
        assert abs(np.vdot(e0, e0) - 1) < 1e-14
        assert abs(np.vdot(e1, e1) - 1) < 1e-14
        assert abs(np.vdot(e0, e1)) < 1e-14


def test_cluster_kraus_hadamard_point():
    model = cluster_kraus(MeasurementBasis(math.pi / 4, 0.0))
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    assert_allclose(model.operations["0"][0], hadamard / math.sqrt(2), atol=1e-15)


@pytest.mark.parametrize("phi,xi", GRID)
def test_cluster_kraus_complete(phi, xi):
    assert quantum.validate_hqmm(cluster_kraus(MeasurementBasis(phi, xi))) == []


def test_cluster_kraus_image_states():
    phi, xi = 1.05, 2.3
    model = cluster_kraus(MeasurementBasis(phi, xi))
    alpha, beta = 0.6, complex(0.48, -0.64)
    psi = np.array([alpha, beta])
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    k0, k1 = model.operations["0"][0], model.operations["1"][0]
    assert_allclose(
        k0 @ psi,
        alpha * math.cos(phi) * plus + beta * np.exp(-1j * xi) * math.sin(phi) * minus,
        atol=1e-14,
    )
    assert_allclose(
        k1 @ psi,
        alpha * math.sin(phi) * plus - beta * np.exp(-1j * xi) * math.cos(phi) * minus,
        atol=1e-14,
    )


def test_build_cluster_two_qubits():
    oracle = build_cluster(2)
    assert_allclose(oracle.state, [0.5, 0.5, 0.5, -0.5], atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_build_cluster_matches_literal_gates(n):
    assert_allclose(build_cluster(n).state, brute_force_cluster(n), atol=1e-13)


def test_build_cluster_amplitudes_and_norm():
    for n in (3, 6):
        state = build_cluster(n).state
        assert_allclose(np.abs(state), 2 ** (-n / 2), atol=1e-15)
        assert abs(np.vdot(state, state).real - 1.0) < 1e-12


def test_build_cluster_range():
    with pytest.raises(ValueError):
        build_cluster(1)
    with pytest.raises(ValueError):
        build_cluster(15)


def test_build_cluster_takes_integers_only():
    with pytest.raises(ValueError, match="chain length must be an integer, got 2.5"):
        build_cluster(2.5)
    oracle = build_cluster(np.int64(3))
    assert type(oracle.n_qubits) is int
    assert oracle.state.shape == (8,)


def test_oracle_rejects_unnormalized_state():
    from hqmm.cluster import ClusterOracle

    with pytest.raises(ValueError, match="norm"):
        ClusterOracle(n_qubits=2, state=np.ones(4))
    with pytest.raises(ValueError, match="amplitudes"):
        ClusterOracle(n_qubits=3, state=np.ones(4) / 2)


def test_oracle_single_symbol_half():
    oracle = build_cluster(4)
    for phi, xi in GRID:
        b = MeasurementBasis(phi, xi)
        assert oracle_word_probability(oracle, b, "0") == pytest.approx(0.5, abs=1e-12)


def test_oracle_empty_word():
    oracle = build_cluster(3)
    assert oracle_word_probability(oracle, MeasurementBasis(1.0, 1.0), "") == pytest.approx(1.0)


def test_oracle_computational_basis_point():
    # phi = 0 reads out each qubit in the computational basis; the readout
    # process is then an unbiased coin
    oracle = build_cluster(6)
    b = MeasurementBasis(0.0, 0.0)
    for word in ("000000", "010101", "111111"):
        assert oracle_word_probability(oracle, b, word) == pytest.approx(
            2.0 ** -len(word), abs=1e-12
        )


def test_oracle_word_too_long():
    with pytest.raises(ValueError, match="exceeds"):
        oracle_word_probability(build_cluster(2), MeasurementBasis(1.0, 0.0), "000")


def test_oracle_unknown_symbol():
    message = "unknown symbol '2'; cluster alphabet is ('0', '1')"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        oracle_word_probability(build_cluster(3), MeasurementBasis(1.0, 0.0), "02")


def test_oracle_matches_hqmm_small():
    oracle = build_cluster(6)
    for phi, xi in ((math.pi / 8, 0.0), (1.2, 2.0)):
        b = MeasurementBasis(phi, xi)
        model = cluster_kraus(b)
        for word in itertools.product("01", repeat=4):
            assert oracle_word_probability(oracle, b, word) == pytest.approx(
                quantum.word_probability(model, word, initial=PLUS), abs=1e-12
            )


@pytest.mark.parametrize("phi,xi", GRID)
def test_stationary_state_is_maximally_mixed(phi, xi):
    rho, unique = quantum.steady_state(cluster_kraus(MeasurementBasis(phi, xi)))
    assert unique
    assert np.max(np.abs(rho - np.eye(2) / 2)) < 1e-10


@pytest.mark.parametrize("phi,xi", GRID)
def test_short_words_uniform_from_stationary_state(phi, xi):
    model = cluster_kraus(MeasurementBasis(phi, xi))
    rho = np.eye(2) / 2
    for s in "01":
        assert quantum.word_probability(model, s, initial=rho) == pytest.approx(
            0.5, abs=1e-12
        )
    for word in itertools.product("01", repeat=2):
        assert quantum.word_probability(model, word, initial=rho) == pytest.approx(
            0.25, abs=1e-12
        )


def test_length3_closed_form_uniform_point():
    dist = length3_closed_form(MeasurementBasis(math.pi / 4, 0.0))
    for p in dist.values():
        assert p == pytest.approx(1 / 8, abs=1e-15)


def test_length3_closed_form_pi_eighth():
    dist = length3_closed_form(MeasurementBasis(math.pi / 8, 0.0))
    assert dist[("0", "0", "0")] == pytest.approx(1 / 8 + math.sqrt(2) / 32, abs=1e-15)
    # parity classes
    assert dist[("0", "1", "1")] == dist[("0", "0", "0")]
    assert dist[("1", "0", "1")] == dist[("0", "0", "0")]
    assert dist[("0", "0", "1")] == dist[("1", "1", "1")]


def test_length3_closed_form_normalized():
    rng = np.random.default_rng(17)
    for _ in range(10):
        dist = length3_closed_form(
            MeasurementBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        )
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-14)
        assert min(dist.values()) >= 0.0


def test_length3_enumeration_matches_closed_form():
    for phi, xi in GRID:
        model = cluster_kraus(MeasurementBasis(phi, xi))
        dist = analysis.enumerate_distribution(model, 3, initial=np.eye(2) / 2)
        closed = length3_closed_form(MeasurementBasis(phi, xi))
        for w, p in closed.items():
            assert abs(dist.probabilities[w] - p) < 1e-12


def test_h3_maximum_points():
    assert h3_closed_form(MeasurementBasis(math.pi / 4, 0.0)) == pytest.approx(3.0, abs=1e-12)
    for phi in (0.3, 1.0, 2.0):
        assert h3_closed_form(MeasurementBasis(phi, math.pi / 2)) == pytest.approx(
            3.0, abs=1e-12
        )


def test_h3_matches_direct_entropy():
    for phi, xi in GRID + [(0.77, 1.9)]:
        b = MeasurementBasis(phi, xi)
        direct = -sum(
            p * math.log2(p) for p in length3_closed_form(b).values() if p > 0
        )
        assert h3_closed_form(b) == pytest.approx(direct, abs=1e-9)


def test_h3_below_max_off_grid():
    assert h3_closed_form(MeasurementBasis(math.pi / 8, 0.0)) < 3.0 - 1e-3


@settings(max_examples=40)
@given(
    phi=st.floats(0.0, math.pi, exclude_max=True),
    xi=st.floats(0.0, 2 * math.pi, exclude_max=True),
)
@example(phi=math.pi / 8, xi=0.0)
def test_memory_is_hidden_from_one_and_two_point_statistics(phi, xi):
    """From the stationary state, with Z = +1 for 0 and -1 for 1, <Z_0> and
    <Z_0 Z_t> vanish for t = 1 ... 4, and the memory first shows in the
    three-point <Z_0 Z_1 Z_2> = c / 4 of the parity bias c."""
    basis = MeasurementBasis(phi, xi)
    dist = analysis.enumerate_distribution(cluster_kraus(basis), 5)

    def correlation(*sites):
        return sum(
            p * math.prod(1 - 2 * int(word[i]) for i in sites)
            for word, p in dist.probabilities.items()
        )

    assert abs(correlation(0)) <= 1e-14
    for t in range(1, 5):
        assert abs(correlation(0, t)) <= 1e-14
    assert abs(correlation(0, 1, 2) - cluster._parity_bias(basis) / 4) <= 1e-14
