import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hqmm import cluster, quantum
from hqmm.linalg import (
    check_density_matrix,
    check_projector_set,
    check_prob_vector,
    check_unitary,
    fixed_point,
    hermitian_basis,
    numerical_rank,
    transfer_matrix,
    unvec,
    vec,
)

from conftest import random_density, random_unitary


def apply_kraus(kraus, rho):
    """Operator-sum application through ``quantum.apply_symbol`` on a
    one-symbol model whose operation is ``kraus``."""
    d = np.asarray(kraus[0]).shape[0]
    model = quantum.HqmmModel(alphabet=("x",), dim=d, operations={"x": list(kraus)})
    return quantum.apply_symbol(model, "x", rho)


def test_apply_kraus_identity_channel():
    rng = np.random.default_rng(1)
    rho = random_density(rng, 3)
    assert_allclose(apply_kraus([np.eye(3)], rho), rho, atol=1e-15)


def test_apply_kraus_dephasing_kills_coherence():
    plus = np.full((2, 2), 0.5, dtype=complex)
    kraus = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    assert_allclose(apply_kraus(kraus, plus), np.eye(2) / 2, atol=1e-15)


def test_apply_kraus_cluster_pair_fixes_maximally_mixed():
    model = cluster.cluster_kraus(cluster.MeasurementBasis(math.pi / 4, 0.0))
    kraus = model.operations["0"] + model.operations["1"]
    assert_allclose(apply_kraus(kraus, np.eye(2) / 2), np.eye(2) / 2, atol=1e-14)


def test_apply_kraus_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_kraus([np.eye(3)], np.eye(2))


def test_apply_kraus_trace_preserving_conserves_trace():
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        u = random_unitary(rng, 2 * d)
        # Stinespring cut of a random unitary: columns of the first block
        kraus = [u[i * d : (i + 1) * d, :d] for i in range(2)]
        rho = random_density(rng, d)
        out = apply_kraus(kraus, rho)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hermitian_basis_is_unitary_with_real_coordinates(d):
    rng = np.random.default_rng(d)
    c = hermitian_basis(d)
    assert_allclose(c @ c.conj().T, np.eye(d * d), atol=1e-15)
    rho = random_density(rng, d)
    x = c @ vec(rho)
    assert np.max(np.abs(x.imag)) < 1e-15
    assert_allclose(x[:d].real, np.diag(rho).real, atol=1e-15)
    assert_allclose(unvec(c.conj().T @ x.real), rho, atol=1e-15)
    u = random_unitary(rng, d)
    real = c @ transfer_matrix([u]) @ c.conj().T
    assert np.max(np.abs(real.imag)) < 1e-14


def test_check_unitary():
    rng = np.random.default_rng(7)
    assert check_unitary(random_unitary(rng, 3)) == []
    (v,) = check_unitary(np.diag([1.0, 0.5]).astype(complex))
    assert v.check == "unitary"


def test_transfer_matrix_identity():
    assert_allclose(transfer_matrix({"a": [np.eye(3)]}), np.eye(9))


def test_transfer_matrix_unitary_is_conj_kron():
    rng = np.random.default_rng(3)
    u = random_unitary(rng, 3)
    l = transfer_matrix([u])
    assert_allclose(l, np.kron(u.conj(), u), atol=1e-15)
    rho = random_density(rng, 3)
    assert_allclose(unvec(l @ vec(rho)), u @ rho @ u.conj().T, atol=1e-13)


def test_transfer_matrix_agrees_with_apply_kraus():
    rng = np.random.default_rng(4)
    model = cluster.cluster_kraus(cluster.MeasurementBasis(0.9, 2.1))
    kraus = model.operations["0"] + model.operations["1"]
    l = transfer_matrix(kraus)
    for _ in range(5):
        rho = random_density(rng, 2)
        assert np.max(np.abs(unvec(l @ vec(rho)) - apply_kraus(kraus, rho))) < 1e-12


def test_transfer_matrix_cluster_fixes_maximally_mixed():
    for phi in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
        for xi in (0.0, math.pi / 3, math.pi / 2):
            model = cluster.cluster_kraus(cluster.MeasurementBasis(phi, xi))
            l = model.transfer()
            v = vec(np.eye(2) / 2)
            assert np.max(np.abs(l @ v - v)) < 1e-14


def test_transfer_matrix_mixed_dimensions():
    with pytest.raises(ValueError):
        transfer_matrix([np.eye(2), np.eye(3)])


def test_fixed_point_identity_channel_not_unique():
    rho, unique = fixed_point(transfer_matrix([np.eye(2)]))
    assert not unique
    assert_allclose(rho, np.eye(2) / 2, atol=1e-12)


@pytest.mark.parametrize("phi", np.linspace(0.1, math.pi - 0.1, 5))
@pytest.mark.parametrize("xi", np.linspace(0.0, 2 * math.pi, 5))
def test_fixed_point_cluster_channel(phi, xi):
    model = cluster.cluster_kraus(cluster.MeasurementBasis(phi, xi))
    rho, unique = fixed_point(model.transfer())
    assert unique
    assert np.max(np.abs(rho - np.eye(2) / 2)) < 1e-10


def test_fixed_point_embedded_even_process(even):
    embedded = quantum.embed_classical(even)
    rho, unique = fixed_point(embedded.transfer())
    assert unique
    assert_allclose(rho, np.diag([2 / 3, 1 / 3]), atol=1e-12)


def test_fixed_point_rejects_trace_decreasing_map():
    with pytest.raises(ValueError, match="trace-preserving"):
        fixed_point(transfer_matrix([0.5 * np.eye(2)]))


def test_fixed_point_output_is_valid_density():
    model = cluster.cluster_kraus(cluster.MeasurementBasis(1.0, 0.4))
    l = model.transfer()
    rho, _ = fixed_point(l)
    assert check_density_matrix(rho) == []
    assert np.max(np.abs(unvec(l @ vec(rho)) - rho)) < 1e-10


def test_numerical_rank_zero_matrix():
    assert numerical_rank(np.zeros((5, 5))) == 0


def test_numerical_rank_empty_matrix():
    assert numerical_rank(np.zeros((0, 3))) == 0


def test_numerical_rank_paper_hankel_block():
    h = np.array(
        [
            [1, 1 / 4, 1 / 4, 1 / 4, 1 / 4],
            [1 / 4, 1 / 8, 0, 1 / 16, 1 / 16],
            [1 / 4, 0, 1 / 8, 1 / 16, 1 / 16],
            [1 / 4, 1 / 16, 1 / 16, 1 / 8, 0],
            [1 / 4, 1 / 16, 1 / 16, 0, 1 / 8],
        ]
    )
    assert numerical_rank(h) == 3


def test_numerical_rank_outer_product():
    rng = np.random.default_rng(5)
    a = rng.normal(size=6) + 1j * rng.normal(size=6)
    b = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert numerical_rank(np.outer(a, b)) == 1


def test_numerical_rank_invariant_under_permutation_and_unitary():
    rng = np.random.default_rng(6)
    for _ in range(5):
        m = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        r = numerical_rank(m)
        assert numerical_rank(m[rng.permutation(5)]) == r
        assert numerical_rank(m[:, rng.permutation(7)]) == r
        u = random_unitary(rng, 5)
        v = random_unitary(rng, 7)
        assert numerical_rank(u @ m @ v) == r


def test_check_density_matrix_diagnostics():
    assert check_density_matrix(np.eye(2) / 2) == []
    bad_trace = np.eye(2)
    assert any(v.check == "trace" for v in check_density_matrix(bad_trace))
    not_herm = np.array([[0.5, 0.1], [0.3, 0.5]])
    assert any(v.check == "hermitian" for v in check_density_matrix(not_herm))
    not_psd = np.diag([1.5, -0.5])
    assert any(v.check == "positive" for v in check_density_matrix(not_psd))


def test_check_prob_vector_diagnostics():
    assert check_prob_vector(np.array([0.25, 0.75])) == []
    assert any(v.check == "negative" for v in check_prob_vector(np.array([1.2, -0.2])))
    assert any(
        v.check == "normalization" for v in check_prob_vector(np.array([0.5, 0.1]))
    )


def test_check_projector_set_rejects_non_orthogonal():
    # both sum with identity-completing partner but overlap each other
    p = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    problems = check_projector_set([p, np.eye(2) - p, np.zeros((2, 2))])
    assert problems == []
    q = np.diag([1.0, 0.0]).astype(complex)
    problems = check_projector_set([p, q])
    assert any(v.check == "orthogonal" for v in problems)
