import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hqmm import analysis, classical, cluster
from hqmm.classical import HmmModel
from hqmm.linalg import transfer_matrix, vec
from hqmm.quantum import (
    HqmmModel,
    coherence_check,
    conditional_update,
    embed_classical,
    pure_from_reversible,
    steady_state,
    symbol_probability,
    validate_hqmm,
    vn_generator,
    word_probability,
)

from conftest import random_density, random_hmm, random_unitary


def test_validate_cluster_pair():
    for phi, xi in ((0.3, 0.0), (math.pi / 4, 1.1), (2.5, 5.0)):
        model = cluster.cluster_kraus(cluster.MeasurementBasis(phi, xi))
        assert validate_hqmm(model) == []


def test_validate_four_symbol(four_symbol):
    assert validate_hqmm(four_symbol) == []


def test_validate_overcomplete_fails():
    m = HqmmModel(
        alphabet=("0", "1"),
        dim=2,
        operations={"0": [np.eye(2)], "1": [np.eye(2)]},
    )
    problems = validate_hqmm(m)
    assert any(v.check == "completeness" for v in problems)


def test_validate_trace_increasing_symbol_fails():
    m = HqmmModel(
        alphabet=("0", "1"),
        dim=2,
        operations={"0": [math.sqrt(2) * np.eye(2)], "1": [np.eye(2)]},
    )
    problems = validate_hqmm(m)
    assert any(
        v.check == "trace-nonincreasing" and v.symbol == "0" for v in problems
    )


def test_symbol_probability_cluster_is_half():
    model = cluster.cluster_kraus(cluster.MeasurementBasis(0.7, 0.2))
    rho = np.eye(2) / 2
    assert symbol_probability(model, "0", rho) == pytest.approx(0.5, abs=1e-14)
    assert symbol_probability(model, "1", rho) == pytest.approx(0.5, abs=1e-14)


def test_symbol_probability_four_symbol(four_symbol):
    rho = np.eye(2) / 2
    for s in four_symbol.alphabet:
        assert symbol_probability(four_symbol, s, rho) == pytest.approx(0.25, abs=1e-14)


def test_symbol_probabilities_sum_to_one(four_symbol):
    rng = np.random.default_rng(11)
    for _ in range(5):
        rho = random_density(rng, 2)
        total = sum(symbol_probability(four_symbol, s, rho) for s in four_symbol.alphabet)
        assert abs(total - 1.0) < 1e-10


def test_conditional_update_projective_collapse(four_symbol):
    rho = conditional_update(four_symbol, "0", np.eye(2) / 2)
    assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-14)


def test_conditional_update_matches_cluster_image():
    phi, xi = 0.6, 1.3
    model = cluster.cluster_kraus(cluster.MeasurementBasis(phi, xi))
    alpha, beta = 0.8, complex(0.36, 0.48)  # |alpha|^2 + |beta|^2 = 1
    psi = np.array([alpha, beta])
    rho = np.outer(psi, psi.conj())
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    target = alpha * math.cos(phi) * plus + beta * np.exp(-1j * xi) * math.sin(phi) * minus
    target = target / np.linalg.norm(target)
    assert_allclose(
        conditional_update(model, "0", rho), np.outer(target, target.conj()), atol=1e-12
    )


def test_conditional_update_unitary_channel():
    rng = np.random.default_rng(12)
    u = random_unitary(rng, 3)
    m = HqmmModel(alphabet=("a",), dim=3, operations={"a": [u]})
    rho = random_density(rng, 3)
    assert symbol_probability(m, "a", rho) == pytest.approx(1.0, abs=1e-12)
    assert_allclose(conditional_update(m, "a", rho), u @ rho @ u.conj().T, atol=1e-12)


def test_conditional_update_impossible_outcome(four_symbol):
    up = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="condition"):
        conditional_update(four_symbol, "1", up)


def test_wrong_state_shape_is_named_error(four_symbol):
    rho = np.eye(3) / 3
    for fn in (symbol_probability, conditional_update):
        with pytest.raises(ValueError, match=r"state must have shape \(2, 2\), got \(3, 3\)"):
            fn(four_symbol, "0", rho)


def test_word_probability_cluster_length2_uniform():
    model = cluster.cluster_kraus(cluster.MeasurementBasis(1.1, 0.4))
    rho = np.eye(2) / 2
    for word in itertools.product("01", repeat=2):
        assert word_probability(model, word, initial=rho) == pytest.approx(0.25, abs=1e-12)


def test_word_probability_four_symbol_block_entries(four_symbol):
    assert word_probability(four_symbol, ("0", "0")) == pytest.approx(1 / 8, abs=1e-14)
    assert word_probability(four_symbol, ("1", "0")) == pytest.approx(0.0, abs=1e-14)
    assert word_probability(four_symbol, ("2", "0")) == pytest.approx(1 / 16, abs=1e-14)


def test_word_probability_empty_word(four_symbol):
    assert word_probability(four_symbol, ()) == pytest.approx(1.0, abs=1e-14)


def test_word_probability_negative_initial(four_symbol):
    # tr[K_0 rho] = rho_00 / 2 for K_0 = |0><0| / sqrt(2)
    with pytest.raises(ValueError, match="negative beyond numerical noise"):
        word_probability(four_symbol, "0", initial=np.diag([-1.0, 2.0]))
    assert word_probability(four_symbol, "0", initial=np.diag([-1e-12, 1.0])) == 0.0


def test_vn_generator_even_language(even, even_vn):
    model = even_vn.to_hqmm()
    assert model.dim == 3
    assert word_probability(model, "010") == pytest.approx(0.0, abs=1e-14)
    for n in range(1, 7):
        dq = analysis.enumerate_distribution(model, n)
        dc = analysis.enumerate_distribution(even, n)
        for w, p in dc.probabilities.items():
            assert abs(dq.probabilities[w] - p) < 1e-10


def test_vn_generator_fixed_emitter():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    model = vn_generator([p0, p1], np.eye(2), ("0", "1"), initial=p0)
    for n in (1, 3, 6):
        assert word_probability(model, ("0",) * n) == pytest.approx(1.0, abs=1e-14)


def test_vn_generator_rejects_bad_projectors():
    smeared = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)  # not idempotent
    with pytest.raises(ValueError, match="idempotent"):
        vn_generator([smeared, np.eye(2) - smeared], np.eye(2), ("0", "1"))


def test_vn_generator_rejects_non_unitary():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ValueError, match="unitary"):
        vn_generator([p0, p1], 0.5 * np.eye(2), ("0", "1"))


def test_embed_classical_even(even):
    embedded = embed_classical(even)
    assert embedded.dim == 2
    assert word_probability(embedded, "010") == pytest.approx(0.0, abs=1e-14)
    assert word_probability(embedded, "0110") > 0.0
    for n in range(1, 7):
        dq = analysis.enumerate_distribution(embedded, n)
        dc = analysis.enumerate_distribution(even, n)
        for w, p in dc.probabilities.items():
            assert abs(dq.probabilities[w] - p) < 1e-12


def test_embed_classical_four_state_hankel(four_state):
    embedded = embed_classical(four_state)
    classical_block = analysis.hankel_block(four_state)
    quantum_block = analysis.hankel_block(embedded)
    assert np.max(np.abs(classical_block.matrix - quantum_block.matrix)) < 1e-12


def test_embed_classical_single_state():
    m = HmmModel(
        alphabet=("0", "1"),
        transitions={"0": np.array([[0.3]]), "1": np.array([[0.7]])},
    )
    embedded = embed_classical(m)
    for s, p in (("0", 0.3), ("1", 0.7)):
        (k,) = embedded.operations[s]
        assert_allclose(k, [[math.sqrt(p)]])


def test_embed_classical_never_emitted_symbol_roundtrips():
    from hqmm import modelfile

    m = HmmModel(
        alphabet=("0", "1", "2"),
        transitions={
            "0": np.array([[0.5]]),
            "1": np.array([[0.5]]),
            "2": np.array([[0.0]]),
        },
    )
    embedded = embed_classical(m)
    assert embedded.operations["2"] == []
    assert validate_hqmm(embedded) == []
    again = modelfile.parse_model(modelfile.serialize_model(embedded))
    assert word_probability(again, "2") == 0.0
    assert word_probability(again, "01") == pytest.approx(0.25, abs=1e-14)


def test_embedding_equivalence_random_models():
    rng = np.random.default_rng(13)
    for _ in range(5):
        m = random_hmm(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
        embedded = embed_classical(m)
        assert validate_hqmm(embedded) == []
        for n in (1, 2, 3):
            dq = analysis.enumerate_distribution(embedded, n)
            dc = analysis.enumerate_distribution(m, n)
            for w, p in dc.probabilities.items():
                assert abs(dq.probabilities[w] - p) < 1e-12


def test_pure_from_reversible_even(even, even_vn):
    pure = pure_from_reversible(even)
    assert pure.dim == 2
    assert all(len(pure.operations[s]) == 1 for s in pure.alphabet)
    # two states suffice where the projective generator needs three
    assert pure.dim < even_vn.to_hqmm().dim
    for n in range(1, 7):
        dq = analysis.enumerate_distribution(pure, n)
        dc = analysis.enumerate_distribution(even, n)
        for w, p in dc.probabilities.items():
            assert abs(dq.probabilities[w] - p) < 1e-12


def test_pure_from_reversible_permutation_cycle():
    cycle = np.roll(np.eye(3), 1, axis=0)
    m = HmmModel(
        alphabet=("0", "1"),
        transitions={"0": 0.5 * cycle, "1": 0.5 * cycle},
    )
    pure = pure_from_reversible(m)
    for s in m.alphabet:
        (k,) = pure.operations[s]
        assert_allclose(k, math.sqrt(0.5) * cycle, atol=1e-15)


def test_pure_from_reversible_rejects_four_state(four_state):
    with pytest.raises(ValueError, match="not reversible"):
        pure_from_reversible(four_state)


def test_coherence_check_embedded_models(even, four_state):
    words4 = list(itertools.product(even.alphabet, repeat=4))
    assert coherence_check(embed_classical(even), words4) <= 1e-12
    words3 = list(itertools.product(four_state.alphabet, repeat=3))
    assert coherence_check(embed_classical(four_state), words3) <= 1e-12


def test_coherence_check_embedded_from_coherent_start(even):
    # the embedding wipes off-diagonals after a single step, from any state
    plus = np.full((2, 2), 0.5, dtype=complex)
    embedded = embed_classical(even)
    words = [w for w in itertools.product(even.alphabet, repeat=2)]
    cleaned = [
        conditional_update(embedded, w[0], plus)
        for w in words
        if symbol_probability(embedded, w[0], plus) > 1e-12
    ]
    assert max(np.max(np.abs(r - np.diag(np.diag(r)))) for r in cleaned) <= 1e-12


def test_pure_model_keeps_coherence(even):
    # contrast with the embedding: a pure-operation model propagates
    # off-diagonal structure instead of erasing it
    pure = pure_from_reversible(even)
    plus = np.full((2, 2), 0.5, dtype=complex)
    words = list(itertools.product(even.alphabet, repeat=3))
    assert coherence_check(pure, words, initial=plus) > 0.1


def test_forgetting_outcome_preserves_trace(four_symbol):
    rng = np.random.default_rng(14)
    rho = random_density(rng, 2)
    total = sum(
        np.trace(
            sum(k @ rho @ k.conj().T for k in four_symbol.operations[s])
        ).real
        for s in four_symbol.alphabet
    )
    assert abs(total - 1.0) < 1e-12


def test_two_path_consistency(four_symbol):
    model = cluster.cluster_kraus(cluster.MeasurementBasis(0.9, 0.5))
    for m in (model, four_symbol):
        rho0, _ = steady_state(m)
        for word in itertools.product(m.alphabet, repeat=3):
            direct = word_probability(m, word, initial=rho0)
            chained = 1.0
            rho = rho0
            for s in word:
                p = symbol_probability(m, s, rho)
                chained *= p
                if p <= 1e-14:
                    break
                rho = conditional_update(m, s, rho)
            assert abs(direct - chained) < 1e-10


def test_hilbert_schmidt_form_matches_classical(four_state):
    # <1|T_w|pi> against (I|K_w|rho*) computed through superoperator matrices
    embedded = embed_classical(four_state)
    links = {s: transfer_matrix({s: embedded.operations[s]}) for s in embedded.alphabet}
    rho0, _ = steady_state(embedded)
    pi = classical.steady_state(four_state)[0]
    iv = vec(np.eye(4))
    for word in itertools.product(four_state.alphabet, repeat=2):
        v = vec(rho0)
        for s in word:
            v = links[s] @ v
        hs = float(np.real(iv.conj() @ v))
        classical_p = classical.word_probability(four_state, word, initial=pi)
        assert abs(hs - classical_p) < 1e-12


def test_steady_state_four_symbol_unique(four_symbol):
    rho, unique = steady_state(four_symbol)
    assert unique
    assert_allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_model_without_kraus_operators_is_refused_before_any_gram():
    # the d x d grams would need 14.6 TiB here
    with pytest.raises(ValueError, match="operations: expected at least one Kraus operator"):
        HqmmModel(alphabet=("0",), dim=10**6, operations={"0": []})
