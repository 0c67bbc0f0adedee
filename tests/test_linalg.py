import logging
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hqmm import analysis, cluster, linalg, mps, quantum
from hqmm.config import TOL
from hqmm.linalg import (
    _certified_fixed_vector,
    _dense_fixed_vector,
    _fixed_vector,
    _hermitian_order,
    as_matrix,
    check_density_matrix,
    check_projector_set,
    check_prob_vector,
    check_unitary,
    fixed_point,
    hermitian_basis,
    hermitian_coordinates,
    hermitian_real_form,
    numerical_rank,
    transfer_matrix,
    unvec,
    vec,
)

from conftest import kraus_models, random_density, random_hmm, random_mps, random_unitary


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


# The one-inverse certificate of a unique fixed point, checked against the
# dense eigenvalue count and SVD as an oracle.

CERTIFICATE_SETTINGS = settings(max_examples=40)


def _channel_case(transfer):
    d = math.isqrt(transfer.shape[0])
    unit = vec(np.eye(d, dtype=complex))
    return transfer, unit, unit / d


def _stochastic_case(total):
    ones = np.ones(total.shape[0], dtype=complex)
    return total.astype(complex), ones, ones / total.shape[0]


def _assert_matches_dense(matrix, unit, target):
    """``_fixed_vector`` gives the dense helper's verdict and, normalized by
    the unit functional, its state; returns whether the certificate settled it."""
    v, unique = _fixed_vector(matrix, unit, target)
    w, count = _dense_fixed_vector(matrix, target)
    assert unique == (count == 1)
    assert_allclose(v / (unit @ v), w / (unit @ w), rtol=0, atol=1e-12)
    return _certified_fixed_vector(matrix, unit, target) is not None


def _amplitude_damping(gamma):
    return transfer_matrix(
        [np.diag([1.0, math.sqrt(1 - gamma)]), np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])]
    )


@CERTIFICATE_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    bond_dim=st.integers(2, 8),
    phys_dim=st.integers(2, 3),
)
def test_certificate_matches_dense_on_mps_readouts(seed, bond_dim, phys_dim):
    model = mps.mps_to_hqmm(random_mps(np.random.default_rng(seed), bond_dim, phys_dim))
    assert _assert_matches_dense(*_channel_case(transfer_matrix(model.operations)))


@CERTIFICATE_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_states=st.integers(1, 6),
    n_symbols=st.integers(1, 3),
)
def test_certificate_matches_dense_on_hmms_and_embeddings(seed, n_states, n_symbols):
    model = random_hmm(np.random.default_rng(seed), n_states, n_symbols)
    assert _assert_matches_dense(*_stochastic_case(model.total()))
    assert _assert_matches_dense(*_channel_case(quantum.embed_classical(model).transfer()))


@CERTIFICATE_SETTINGS
@given(
    phi=st.floats(0.0, math.pi, exclude_max=True),
    xi=st.floats(0.0, 2 * math.pi, exclude_max=True),
)
def test_certificate_matches_dense_on_cluster_angles(phi, xi):
    model = cluster.cluster_kraus(cluster.MeasurementBasis(phi, xi))
    assert _assert_matches_dense(*_channel_case(model.transfer()))


@pytest.mark.parametrize(
    "transfer",
    [transfer_matrix([np.eye(2)]), transfer_matrix([np.eye(3)])],
    ids=["identity-2", "identity-3"],
)
def test_certificate_abstains_on_degenerate_channels(transfer):
    case = _channel_case(transfer)
    assert _certified_fixed_vector(*case) is None
    assert not _assert_matches_dense(*case)
    rho, unique = fixed_point(transfer)
    assert not unique
    d = rho.shape[0]
    assert_allclose(rho, np.eye(d) / d, atol=1e-12)


def test_certificate_abstains_on_block_diagonal_channel():
    a = random_unitary(np.random.default_rng(5), 2)
    transfer = transfer_matrix([np.block([[a, np.zeros((2, 1))], [np.zeros((1, 2)), np.eye(1)]])])
    transfer, unit, target = _channel_case(transfer)
    assert _certified_fixed_vector(transfer, unit, target) is None
    assert not _assert_matches_dense(transfer, unit, target)
    rho, unique = fixed_point(transfer)
    assert not unique
    w, count = _dense_fixed_vector(transfer, target)
    assert count > 1
    expected = unvec(w) / np.trace(unvec(w))
    assert_allclose(rho, expected, atol=1e-12)
    assert check_density_matrix(rho) == []


@pytest.mark.parametrize(
    "gamma, certified, unique",
    [(1e-9, False, False), (3e-8, False, True), (1e-7, True, True), (1e-3, True, True)],
)
def test_certificate_on_amplitude_damping(gamma, certified, unique):
    """Eigenvalues 1, 1 - gamma and sqrt(1 - gamma) (twice), and an inverse
    norm of about 2 / gamma. At 1e-9 all four lie in the 1e-8 window, so the
    dense count reports a four-dimensional fixed space and the canonical
    state I/2. At 3e-8 the nearest one is 1.5e-8 away, outside the window
    but inside the certificate's margin of twice the window, so the dense
    count decides. At 1e-7 the bound (about 2e7) certifies the decay to
    |0><0|."""
    case = _channel_case(_amplitude_damping(gamma))
    assert (_certified_fixed_vector(*case) is not None) == certified
    assert _assert_matches_dense(*case) == certified
    rho, found_unique = fixed_point(case[0])
    assert found_unique == unique
    assert_allclose(rho, np.diag([1.0, 0.0]) if unique else np.eye(2) / 2, atol=1e-12)


def test_certificate_skips_trace_decreasing_map_with_unit_eigenvalue():
    transfer = transfer_matrix([np.diag([1.0, 0.5])])
    case = _channel_case(transfer)
    assert _certified_fixed_vector(*case) is None
    rho, unique = fixed_point(transfer)
    assert unique
    assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-15)


def test_certificate_skips_scaled_identity():
    case = _channel_case(transfer_matrix([0.5 * np.eye(2)]))
    assert _certified_fixed_vector(*case) is None
    with pytest.raises(ValueError, match="not trace-preserving"):
        _fixed_vector(*case)


def test_certificate_solves_bordered_system():
    model = mps.mps_to_hqmm(random_mps(np.random.default_rng(8), 6, 2))
    transfer, unit, target = _channel_case(transfer_matrix(model.operations))
    v, bound = _certified_fixed_vector(transfer, unit, target)
    assert unit @ v == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(transfer @ v - v)) < 1e-13
    assert 1.0 <= bound < 1.0 / (2 * TOL.eigenvalue_one)


def _fixed_vector_records(caplog, transfer):
    caplog.set_level(logging.DEBUG, logger="hqmm")
    caplog.clear()
    fixed_point(transfer)
    return [r for r in caplog.records if r.name == "hqmm.linalg"]


def test_fixed_vector_logs_certificate(caplog):
    model = cluster.cluster_kraus(cluster.MeasurementBasis(1.0, 0.4))
    (record,) = _fixed_vector_records(caplog, model.transfer())
    assert record.levelno == logging.DEBUG
    message = record.getMessage()
    assert "order 4 by certificate, inverse-norm bound" in message
    residual = float(re.search(r"residual (\S+)$", message).group(1))
    assert residual < 1e-14


def test_fixed_vector_logs_eigen_count(caplog):
    (record,) = _fixed_vector_records(caplog, transfer_matrix([np.eye(3)]))
    message = record.getMessage()
    assert "order 9 by eigen-count, fixed-space dimension 9" in message
    assert float(re.search(r"residual (\S+)$", message).group(1)) < 1e-14


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


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
def test_numerical_rank_rejects_meaningless_cutoff(tol):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        numerical_rank(np.eye(3), tol=tol)


@pytest.mark.parametrize(
    "m, message",
    [
        # an infinite entry made the automatic cutoff infinite: rank 0
        ([[math.inf, 1.0]], "rank needs finite entries"),
        # a NaN entry ended in LinAlgError: SVD did not converge
        ([[math.nan, 1.0]], "rank needs finite entries"),
        (np.ones(3), r"rank needs a matrix, got shape \(3,\)"),
        (np.ones((2, 2, 2)), r"rank needs a matrix, got shape \(2, 2, 2\)"),
    ],
    ids=["inf", "nan", "vector", "stack"],
)
def test_numerical_rank_refuses_what_is_not_a_finite_matrix(m, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        numerical_rank(m)


def test_numerical_rank_zero_cutoff_counts_nonzero_singular_values():
    assert numerical_rank(np.diag([1.0, 1e-300, 0.0]), tol=0.0) == 2


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


def test_non_finite_entries_are_named_violations():
    # every comparison with NaN is false, so the other checks pass it by
    for bad in (math.nan, math.inf, -math.inf):
        rho = np.eye(2) / 2
        rho[1, 0] = bad
        assert [v.check for v in check_density_matrix(rho)] == ["finite"]
        found = check_prob_vector(np.array([0.5, bad, 0.5]))
        assert [(v.check, v.index) for v in found] == [("finite", 1)]


def test_check_prob_vector_diagnostics():
    assert check_prob_vector(np.array([0.25, 0.75])) == []
    assert any(v.check == "negative" for v in check_prob_vector(np.array([1.2, -0.2])))
    assert any(
        v.check == "normalization" for v in check_prob_vector(np.array([0.5, 0.1]))
    )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: transfer_matrix([]), "at least one Kraus operator is required"),
        (lambda: unvec(np.ones(3)), "vector of length 3 is not a vectorized square matrix"),
        (
            lambda: as_matrix(np.zeros((2, 2, 2))),
            "matrix must be 2-dimensional, got shape (2, 2, 2)",
        ),
    ],
    ids=["transfer-matrix-of-nothing", "unvec-length-3", "as-matrix-3d"],
)
def test_malformed_arguments_are_named_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "check, argument, problems",
    [
        (check_projector_set, [], ["[projectors]: no projectors given"]),
        (check_density_matrix, np.ones(3) / 3, ["[shape]: state must be square, got shape (3,)"]),
        (check_prob_vector, np.eye(2) / 2, ["[shape]: probability vector must be 1-d, got (2, 2)"]),
    ],
    ids=["no-projectors", "state-vector", "prob-matrix"],
)
def test_malformed_inputs_are_the_only_violation(check, argument, problems):
    assert [str(v) for v in check(argument)] == problems


def test_check_projector_set_rejects_non_orthogonal():
    # both sum with identity-completing partner but overlap each other
    p = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    problems = check_projector_set([p, np.eye(2) - p, np.zeros((2, 2))])
    assert problems == []
    q = np.diag([1.0, 0.0]).astype(complex)
    problems = check_projector_set([p, q])
    assert any(v.check == "orthogonal" for v in problems)


# The real Hermitian-basis form against its definition, and the solve in
# real coordinates against the dense oracle on the complex transfer matrix.

KRAUS_SETTINGS = settings(max_examples=40)


def kraus_maps():
    """The flat Kraus list of a ``kraus_models`` model."""
    return kraus_models().map(lambda m: [k for s in m.alphabet for k in m.operations[s]])


@KRAUS_SETTINGS
@given(kraus=kraus_maps())
def test_transfer_matrix_sums_krons_in_operator_order(kraus):
    expected = np.zeros((kraus[0].size,) * 2, dtype=complex)
    for k in kraus:
        expected += np.kron(k.conj(), k)
    got = transfer_matrix(kraus)
    assert np.array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()


@KRAUS_SETTINGS
@given(kraus=kraus_maps())
def test_hermitian_real_form_matches_basis_product(kraus):
    transfer = transfer_matrix(kraus)
    d = kraus[0].shape[0]
    c = hermitian_basis(d)
    expected = (c @ transfer @ c.conj().T).real
    assert_allclose(hermitian_real_form(transfer), expected, rtol=0, atol=1e-15)
    rho = quantum.apply_symbol(
        quantum.HqmmModel(alphabet=("x",), dim=d, operations={"x": kraus}), "x", np.eye(d) / d
    )
    assert_allclose(hermitian_coordinates(rho), (c @ vec(rho)).real, rtol=0, atol=1e-15)


@settings(max_examples=60)
@given(w=st.lists(st.floats(0.0, 1e308), min_size=1, max_size=8))
def test_hermitian_coordinates_of_a_diagonal_are_its_entries_then_zeros(w):
    """The weights of a diagonal start state are then the first d
    coordinates of a quantum model's ``v0``, as they are of a classical
    model's; ``wordprob --initial`` relies on it."""
    w = np.array(w)
    expected = np.concatenate([w, np.zeros(w.size * w.size - w.size)])
    assert hermitian_coordinates(np.diag(w).astype(complex)).tobytes() == expected.tobytes()


def test_representation_probability_names_an_unknown_symbol(even, four_symbol):
    for model in (even, four_symbol):
        rep = analysis.linear_representation(model)
        message = f"unknown symbol 'x'; alphabet is {model.alphabet}"
        with pytest.raises(ValueError, match=re.escape(message)):
            rep.probability("01x", model.alphabet)


@KRAUS_SETTINGS
@given(kraus=kraus_maps())
def test_fixed_point_in_real_coordinates_matches_dense_oracle(kraus):
    transfer, _, target = _channel_case(transfer_matrix(kraus))
    rho, unique = fixed_point(transfer)
    w, count = _dense_fixed_vector(transfer, target)
    assert unique == (count == 1)
    expected = unvec(w) / np.trace(unvec(w))
    assert_allclose(rho, expected, rtol=0, atol=1e-12)


def test_fixed_point_names_a_map_that_does_not_preserve_hermiticity():
    """``L vec(X) = tr(X) vec(sigma)`` preserves the trace, and its only
    fixed point is the non-Hermitian ``sigma``, which has no real Hermitian
    coordinates. Symmetrizing it would give ``(sigma + sigma^dagger) / 2``,
    which ``L`` does not fix."""
    sigma = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    transfer = np.outer(vec(sigma), vec(np.eye(2)))
    with pytest.raises(ValueError, match="does not preserve Hermiticity"):
        fixed_point(transfer)
    with pytest.raises(ValueError, match="Hermiticity"):
        hermitian_real_form(transfer)


@pytest.mark.parametrize("shape", [(4, 3), (3, 3), (0, 0)])
def test_transfer_matrix_shape_is_named_error(shape):
    for solve in (fixed_point, hermitian_real_form):
        with pytest.raises(ValueError, match=r"must be d\^2 x d\^2"):
            solve(np.zeros(shape))


# The d^4 kernels work through blocks of rows (``linalg._BLOCK_BYTES``). Every
# bundled model fits in one block, so these tests shrink the block until an
# input takes several, and check the results byte for byte.


def _two_gather_real_form(transfer):
    """``hermitian_real_form`` in one pass: both full gathers of ``transfer``,
    pair-mixed in place, and the real part copied out."""
    d = math.isqrt(transfer.shape[0])
    order = _hermitian_order(d)
    m = transfer.take(order, 0).take(order, 1)
    r = math.sqrt(0.5)
    for x, y, phase in ((m[d::2], m[d + 1 :: 2], 1j), (m[:, d::2], m[:, d + 1 :: 2], -1j)):
        total = x + y
        y -= x
        y *= phase * r
        np.multiply(total, r, out=x)
    return m.real.copy()


def _kron_sum(kraus):
    expected = np.zeros((kraus[0].size,) * 2, dtype=complex)
    for k in kraus:
        expected += np.kron(k.conj(), k)
    return expected


def _assert_blocked_kernels_match(kraus, rows):
    """With blocks of ``rows`` rows of the real form (``2 rows // d``
    leading indices, at least one, in ``transfer_matrix``), every kernel
    gives the bytes of one pass, and ``fixed_point`` its verdict."""
    one_pass = fixed_point(transfer_matrix(kraus))
    n = kraus[0].size
    with mock.patch.object(linalg, "_BLOCK_BYTES", rows * 2 * n * 16):
        transfer = transfer_matrix(kraus)
        assert transfer.tobytes() == _kron_sum(kraus).tobytes()
        assert hermitian_real_form(transfer).tobytes() == _two_gather_real_form(transfer).tobytes()
        rho, unique = fixed_point(transfer)
    assert (rho.tobytes(), unique) == (one_pass[0].tobytes(), one_pass[1])


@pytest.mark.parametrize(
    "d, rows",
    [(3, 2), (4, 3), (1, 1), (8, 5)],
    ids=["pair-straddles-a-boundary", "short-last-block", "d-1", "d-8"],
)
def test_blocked_kernels_match_one_pass_at_block_edges(d, rows):
    """d = 3 in blocks of two rows would end its first block between rows 3
    and 4, one pair; d = 4 in blocks of three ends on a block of two rows."""
    model = mps.mps_to_hqmm(random_mps(np.random.default_rng(d), d, 2))
    _assert_blocked_kernels_match([k for s in model.alphabet for k in model.operations[s]], rows)


@KRAUS_SETTINGS
@given(kraus=kraus_maps(), rows=st.integers(1, 12))
def test_blocked_kernels_match_one_pass(kraus, rows):
    _assert_blocked_kernels_match(kraus, rows)


def test_real_form_of_a_d16_readout_holds_one_block_beyond_its_output():
    """The transfer matrix (1 MiB) and the real form (0.5 MiB) of a D = 16
    readout take two and four blocks. One pass gathered two full complex
    copies of the transfer matrix, 2 MiB."""
    model = mps.mps_to_hqmm(random_mps(np.random.default_rng(16), 16, 2))
    tracemalloc.start()
    try:
        transfer = transfer_matrix(model.operations)
        real = hermitian_real_form(transfer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < transfer.nbytes + real.nbytes + 2 * linalg._BLOCK_BYTES


def test_fixed_point_of_a_d16_readout_holds_one_real_array_beyond_the_inverse():
    """The solve borders the real form (0.5 MiB) in place, so ``fixed_point``
    traces at most the real form, the output of ``np.linalg.inv`` and one
    block (the real form's gathers, or the solve's scan for -0.0). Bordering
    a copy traced the copy and an outer product of the same size as well.
    LAPACK's own work copies inside ``inv`` are not allocated through NumPy,
    so tracemalloc does not see them."""
    model = mps.mps_to_hqmm(random_mps(np.random.default_rng(16), 16, 2))
    transfer = transfer_matrix(model.operations)
    real_bytes = transfer.nbytes // 2
    tracemalloc.start()
    try:
        fixed_point(transfer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * real_bytes + linalg._BLOCK_BYTES


# A matrix of more than half a block is bordered in place and put back. The
# reference is the certificate that bordered a copy; a block of 0 bytes
# borders every matrix in place.


def _copying_certified_fixed_vector(matrix, unit, target):
    """``_certified_fixed_vector`` as it bordered a copy of ``matrix``."""
    n = matrix.shape[0]
    bordered = matrix.copy()
    bordered.flat[:: n + 1] -= 1.0
    if np.max(np.abs(unit @ bordered)) > TOL.completeness:
        return None
    bordered += np.outer(target, unit)
    try:
        inv = np.linalg.inv(bordered)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(all="ignore"):
        v = inv @ target
    magnitude = np.abs(inv, out=inv if np.isrealobj(inv) else None)
    bound = float(min(magnitude.sum(axis=0).max(), magnitude.sum(axis=1).max()))
    if not math.isfinite(bound) or 2.0 * bound * TOL.eigenvalue_one >= 1.0:
        return None
    return v, bound


def _certificate_outcome(certify, matrix, unit, target):
    """The bytes of the bordered matrix that ``np.linalg.inv`` is given, if
    any, and the result: the bytes of ``v`` and of the bound, ``None``, or
    the error raised."""
    inverted = []
    inv = np.linalg.inv

    def recorded_inv(m):
        inverted.append(m.tobytes())
        return inv(m)

    with mock.patch.object(np.linalg, "inv", recorded_inv):
        try:
            found = certify(matrix, unit, target)
        except Exception as e:  # a warning made an error stops both alike
            return inverted, (type(e), str(e))
    if found is None:
        return inverted, None
    v, bound = found
    return inverted, (v.dtype, v.tobytes(), np.float64(bound).tobytes())


def _assert_certificate_matches_copying_reference(matrix, unit, target):
    """In a copy (the default block) and in place (a block of 0 bytes),
    ``_certified_fixed_vector`` inverts the reference's bordered matrix and
    gives its result, byte for byte, and leaves the bytes of ``matrix`` as
    they were; returns the reference's result."""
    before = matrix.tobytes()
    expected = _certificate_outcome(_copying_certified_fixed_vector, matrix, unit, target)
    for block in (linalg._BLOCK_BYTES, 0):
        with mock.patch.object(linalg, "_BLOCK_BYTES", block):
            assert _certificate_outcome(_certified_fixed_vector, matrix, unit, target) == expected
        assert matrix.tobytes() == before
    return expected[1]


def _real_form_case(transfer):
    """The real form, unit and target that ``fixed_point`` certifies."""
    real = hermitian_real_form(transfer)
    d = math.isqrt(real.shape[0])
    unit = np.zeros(real.shape[0])
    unit[:d] = 1.0
    return real, unit, unit / d


def _sparse_total(rng, n):
    """A column-stochastic n x n matrix with about half its entries 0.0."""
    total = rng.random((n, n)) * (rng.random((n, n)) < 0.5) + np.eye(n)
    return total / total.sum(axis=0)


@st.composite
def certificate_cases(draw):
    """A matrix, unit and target as the certificate's callers pass them: a
    generated channel (MPS readout, embedded HMM or cluster readout) as its
    complex transfer matrix or as its real form, or an HMM's summed
    transitions, dense or sparse, real (as ``classical.steady_state`` passes
    them) or complex. Then some of the zero parts of the matrix, real or
    imaginary, are made -0.0."""
    kind = draw(st.sampled_from(("channel", "real-form", "hmm", "hmm-complex")))
    if kind in ("channel", "real-form"):
        transfer = transfer_matrix(draw(kraus_models()).operations)
        case = _channel_case(transfer) if kind == "channel" else _real_form_case(transfer)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.integers(1, 8))
        if draw(st.booleans()):
            total = _sparse_total(rng, n)
        else:
            total = random_hmm(rng, n, draw(st.integers(1, 3))).total()
        unit = np.ones(n)
        case = (total, unit, unit / n) if kind == "hmm" else _stochastic_case(total)
    parts = case[0].view(np.float64).reshape(-1)
    zeros = np.flatnonzero(parts == 0.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from((0.0, 0.5, 1.0)))
    parts[zeros[rng.random(zeros.size) < share]] = -0.0
    return case


@CERTIFICATE_SETTINGS
@given(case=certificate_cases())
def test_certificate_in_place_matches_the_copying_reference(case):
    _assert_certificate_matches_copying_reference(*case)


def _with_entry(case, index, value):
    matrix = case[0].copy()
    matrix[index] = value
    return (matrix, *case[1:])


_MPS_CASE = _real_form_case(
    transfer_matrix(mps.mps_to_hqmm(random_mps(np.random.default_rng(3), 3, 2)).operations)
)


@pytest.mark.parametrize(
    "case",
    [
        _real_form_case(transfer_matrix([np.diag([1.0, 0.5])])),
        _channel_case(transfer_matrix([np.diag([1.0, 0.5])])),
        _real_form_case(transfer_matrix([np.eye(3)])),
        _channel_case(transfer_matrix([np.eye(2)])),
        _real_form_case(_amplitude_damping(3e-8)),
        _channel_case(_amplitude_damping(3e-8)),
        _with_entry(_MPS_CASE, (0, 0), math.nan),
        _with_entry(_MPS_CASE, (5, 7), math.nan),
        _with_entry(_MPS_CASE, (0, 1), math.inf),
        _with_entry(_MPS_CASE, (5, 7), -math.inf),
    ],
    ids=[
        "trace-leak-real",
        "trace-leak-complex",
        "singular-real",
        "singular-complex",
        "bound-too-large-real",
        "bound-too-large-complex",
        "nan-in-support",
        "nan-off-support",
        "infinity-in-support",
        "infinity-off-support",
    ],
)
def test_certificate_in_place_refuses_as_the_copying_reference(case):
    """Each refusal is ``None``, or for an infinite entry off the support the
    ``invalid value`` warning of ``unit @ (matrix - I)``; in place, the
    matrix is put back on that path too."""
    outcome = _assert_certificate_matches_copying_reference(*case)
    assert outcome is None or outcome[0] is RuntimeWarning


def test_non_finite_transfer_matrix_is_named():
    """A direct call used to return NaN coordinates for a NaN entry."""
    transfer = transfer_matrix([np.eye(3)])
    transfer[7, 2] = np.nan
    for solve in (fixed_point, hermitian_real_form):
        with pytest.raises(ValueError, match="^transfer matrix contains non-finite entries$"):
            solve(transfer)
    with mock.patch.object(linalg, "_BLOCK_BYTES", 2 * 9 * 16):
        with pytest.raises(ValueError, match="^transfer matrix contains non-finite entries$"):
            hermitian_real_form(transfer)
    # a matrix of the wrong shape is named for its non-finite entry first
    with pytest.raises(ValueError, match="^transfer matrix contains non-finite entries$"):
        fixed_point(np.full((4, 3), np.nan))
