import dataclasses
import itertools
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hqmm import analysis, classical, cluster, quantum
from hqmm.classical import HmmModel
from hqmm.config import TOL
from hqmm.linalg import transfer_matrix, vec
from hqmm.mps import MpsModel, mps_to_hqmm
from hqmm.quantum import (
    HqmmModel,
    VnModel,
    apply_symbol,
    coherence_check,
    conditional_update,
    embed_classical,
    pure_from_reversible,
    steady_state,
    symbol_probability,
    validate_hqmm,
    validate_vn,
    vn_generator,
    word_probability,
)

from conftest import kraus_models, random_density, random_hmm, random_mps, random_unitary


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


def test_probabilities_refuse_a_non_finite_value():
    """A Kraus entry of 1e200 overflows the state; the probabilities were ``nan``."""
    m = HqmmModel(("0", "1"), 1, {"0": [np.array([[1e200 + 0j]])], "1": [np.eye(1) / 2]})
    rho = np.eye(1, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^word probability = \S+ is not finite$"):
            word_probability(m, "0", initial=rho)
        with pytest.raises(ValueError, match=r"^P\(0\) = \S+ is not finite$"):
            symbol_probability(m, "0", rho)


@pytest.mark.parametrize(
    "evaluate, message",
    [
        (lambda m, rho: word_probability(m, "0", initial=rho), r"word probability"),
        (lambda m, rho: symbol_probability(m, "0", rho), r"P\(0\)"),
        (lambda m, rho: conditional_update(m, "0", rho), r"P\(0\)"),
        (lambda m, rho: coherence_check(m, [("1", "0")], initial=rho), r"P\(0\)"),
    ],
    ids=["word_probability", "symbol_probability", "conditional_update", "coherence_check"],
)
def test_an_overflowing_operation_is_named_without_a_warning(evaluate, message):
    """With overflow warnings errors, every call raised ``RuntimeWarning``;
    without, ``conditional_update`` returned a ``nan`` state and
    ``coherence_check`` returned 0."""
    m = HqmmModel(("0", "1"), 1, {"0": [np.array([[1e200 + 0j]])], "1": [np.eye(1) / 2]})
    with pytest.raises(ValueError, match=rf"^{message} = \S+ is not finite$"):
        evaluate(m, np.eye(1, dtype=complex))


def test_a_callers_later_change_to_its_kraus_arrays_does_not_reach_the_model():
    """The model kept the caller's arrays for ``transfer`` and serialization
    but copies made at construction for ``apply_symbol`` and validation, so
    a later change reached some results and not others."""
    source = cluster.cluster_kraus(cluster.MeasurementBasis(1.1, 0.4))
    mine = {s: [k.copy() for k in source.operations[s]] for s in source.alphabet}
    m = HqmmModel(source.alphabet, 2, mine)
    untouched = HqmmModel(source.alphabet, 2, source.operations)
    mine["0"][0] *= 0.5
    rho = np.diag([0.7, 0.3]).astype(complex)
    rep, plain = (analysis.linear_representation(x, initial=rho) for x in (m, untouched))
    for word in ["0", "1", "01", "110"]:
        p = word_probability(untouched, word, initial=rho)
        assert word_probability(m, word, initial=rho) == p
        assert rep.probability(word, m.alphabet) == plain.probability(word, m.alphabet)
    assert validate_hqmm(m) == validate_hqmm(untouched) == []
    state, unique = steady_state(m)
    assert unique and np.array_equal(state, steady_state(untouched)[0])


def test_kraus_operators_are_read_only_views_of_one_stack_per_symbol():
    m = HqmmModel(("a", "b"), 2, {"a": [np.eye(2) / 2, np.eye(2) / 2], "b": [np.eye(2) / 2]})
    for s in m.alphabet:
        assert all(not k.flags.writeable for k in m.operations[s])
        assert all(k.base is m.operations[s][0].base for k in m.operations[s])
    with pytest.raises(ValueError, match="read-only"):
        m.operations["a"][0][0, 0] = 1.0


@settings(max_examples=40)
@given(model=kraus_models(), seed=st.integers(0, 2**32 - 1))
def test_one_symbol_step_agrees_with_the_word_walk(model, seed):
    """``symbol_probability`` is the one-symbol ``word_probability`` bit for
    bit, and ``conditional_update`` returns a unit-trace state for every
    symbol that can be conditioned on."""
    rho = random_density(np.random.default_rng(seed), model.dim)
    for s in model.alphabet:
        p = symbol_probability(model, s, rho)
        assert p == word_probability(model, (s,), initial=rho)
        if p > TOL.impossible:
            assert abs(np.trace(conditional_update(model, s, rho)).real - 1.0) <= 1e-12


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


def test_vn_generator_refuses_more_projectors_than_symbols():
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    with pytest.raises(ValueError, match="^need exactly one projector per symbol$"):
        vn_generator([p0, p1, p0], np.eye(2), ("0", "1"))


def test_apply_symbol_refuses_an_unknown_symbol(four_symbol):
    message = f"unknown symbol 'x'; alphabet is {four_symbol.alphabet}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        apply_symbol(four_symbol, "x", np.eye(2) / 2)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda m: word_probability(m, [["0"]]),
        lambda m: apply_symbol(m, ["0"], np.eye(2) / 2),
    ],
    ids=["word_probability", "apply_symbol"],
)
def test_an_unhashable_symbol_is_named(four_symbol, evaluate):
    """A list symbol raised ``TypeError: unhashable type`` from the dict lookup."""
    message = f"unknown symbol ['0']; alphabet is {four_symbol.alphabet}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evaluate(four_symbol)


def test_vn_generator_rejects_non_unitary():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ValueError, match="unitary"):
        vn_generator([p0, p1], 0.5 * np.eye(2), ("0", "1"))


_P0, _P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])


@pytest.mark.parametrize(
    "projectors, unitary, problems",
    [
        (
            {"0": _P0, "1": _P1},
            np.eye(3),
            ["[shape]: projector/unitary dimensions disagree"],
        ),
        (
            {"0": _P0, "1": np.diag([0.0, 1.0, 0.0])},
            np.eye(2),
            ["[shape] symbol='1': projector is (3, 3), expected (2, 2)"],
        ),
        (
            # idempotent, mutually orthogonal and complete, but not Hermitian
            {"0": np.array([[1.0, 1.0], [0.0, 0.0]]), "1": np.array([[0.0, -1.0], [0.0, 1.0]])},
            np.eye(2),
            [
                "[hermitian] symbol='0': projector is not Hermitian",
                "[hermitian] symbol='1': projector is not Hermitian",
            ],
        ),
    ],
    ids=["unitary-3x3", "projector-3x3", "not-hermitian"],
)
def test_validate_vn_names_shape_and_hermiticity(projectors, unitary, problems):
    m = VnModel(alphabet=("0", "1"), projectors=projectors, unitary=unitary)
    assert [str(v) for v in validate_vn(m)] == problems
    with pytest.raises(ValueError, match="^invalid projective generator: "):
        m.to_hqmm()


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


def test_both_conversions_refuse_an_invalid_hmm_alike():
    # deterministic and reversible, but its columns sum to 0.9 and 0.5;
    # pure_from_reversible used to return a model that fails validate_hqmm
    m = HmmModel(alphabet=("0",), transitions={"0": np.array([[0.0, 0.5], [0.9, 0.0]])})
    assert classical.is_reversible(m) == (True, None)
    message = (
        "invalid HMM: [column-stochastic] index=0: column 0 of sum_s T_s sums to 0.9; "
        "[column-stochastic] index=1: column 1 of sum_s T_s sums to 0.5"
    )
    for convert in (embed_classical, pure_from_reversible):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            convert(m)


def test_pure_from_reversible_drops_a_tolerated_negative_entry():
    # a valid HMM may hold entries down to -TOL.stochastic; the pure form took
    # the square root of this one, and so held nan where the embedding drops it
    m = HmmModel(
        alphabet=("0", "1"),
        transitions={
            "0": np.array([[0.0, 0.0], [-1e-13, 0.0]]),
            "1": np.array([[1.0000000000001, 0.0], [0.0, 1.0]]),
        },
    )
    pure = pure_from_reversible(m)
    assert validate_hqmm(pure) == []
    embedded = embed_classical(m)
    for n in range(1, 5):
        got = analysis.enumerate_distribution(pure, n).probabilities.array
        want = analysis.enumerate_distribution(embedded, n).probabilities.array
        assert np.max(np.abs(got - want)) <= 1e-14


def _reversible_hmm(seed, n_states, n_symbols):
    """Per symbol a random permutation times column weights; each column's
    weights sum to 1 over the symbols, and some of them are zero."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_symbols), size=n_states).T
    weights *= (rng.random(weights.shape) > 0.25) | (weights == weights.max(axis=0))
    weights /= weights.sum(axis=0)
    alphabet = tuple(str(k) for k in range(n_symbols))
    transitions = {
        s: np.eye(n_states)[rng.permutation(n_states)] * weights[k]
        for k, s in enumerate(alphabet)
    }
    return HmmModel(alphabet=alphabet, transitions=transitions), rng.dirichlet(np.ones(n_states))


def _plain_rank_one_terms(t):
    """The per-entry loop whose operators the embedding must equal bit for bit."""
    d = t.shape[0]
    terms = []
    for i in range(d):
        for j in range(d):
            if t[i, j] > 0.0:
                k = np.zeros((d, d), dtype=complex)
                k[i, j] = math.sqrt(t[i, j])
                terms.append(k)
    return terms


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 4), n_symbols=st.integers(1, 3))
def test_generated_reversible_hmms_convert_to_both_quantum_forms(seed, n_states, n_symbols):
    """The embedding equals the per-entry loop and the pure form its sum, bit
    for bit. Both are valid and reproduce the source's word distributions up
    to length 5, from a generated prior and from the stationary state, which
    the classical and quantum solves reach by different arithmetic; the
    embedding carries no coherence."""
    m, prior = _reversible_hmm(seed, n_states, n_symbols)
    embedded, pure = embed_classical(m), pure_from_reversible(m)
    for s, t in m.transitions.items():
        plain = _plain_rank_one_terms(t)
        assert len(embedded.operations[s]) == len(plain)
        assert all(np.array_equal(k, p) for k, p in zip(embedded.operations[s], plain))
        assert np.array_equal(pure.operations[s][0], sum(plain, np.zeros(t.shape)))
    starts = ((prior, np.diag(prior), 1e-14), (None, None, 1e-12))
    for model in (embedded, pure):
        assert validate_hqmm(model) == []
        for classical_start, quantum_start, tol in starts:
            for n in range(1, 6):
                want = analysis.enumerate_distribution(m, n, classical_start)
                got = analysis.enumerate_distribution(model, n, quantum_start)
                assert np.max(np.abs(got.probabilities.array - want.probabilities.array)) <= tol
    words = list(itertools.product(m.alphabet, repeat=4))
    assert coherence_check(embedded, words) <= 1e-12


def _coordinate_vn(seed, n_states, n_symbols):
    """A permutation times unit phases, read out by coordinate projectors:
    each basis state belongs to one symbol, and a symbol may own none. Also
    its classical shadow ``T_s = |P_s U|**2``, a reversible HMM."""
    rng = np.random.default_rng(seed)
    alphabet = tuple(str(k) for k in range(n_symbols))
    u = np.eye(n_states)[rng.permutation(n_states)] * np.exp(2j * np.pi * rng.random(n_states))
    owner = rng.integers(0, n_symbols, size=n_states)
    projectors = {s: np.diag((owner == k).astype(float)) for k, s in enumerate(alphabet)}
    shadow = HmmModel(
        alphabet=alphabet,
        transitions={s: np.abs(p @ u) ** 2 for s, p in projectors.items()},
    )
    vn = VnModel(alphabet=alphabet, projectors=projectors, unitary=u)
    return vn, shadow, rng.dirichlet(np.ones(n_states))


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 4), n_symbols=st.integers(1, 3))
def test_generated_vn_models_agree_with_both_forms_of_their_shadow(seed, n_states, n_symbols):
    """The ``vn`` realization, the embedding and the pure form of its shadow
    all give the shadow's word distributions up to length 5 (4 for three
    symbols), from a generated diagonal start and from the stationary state."""
    vn, shadow, prior = _coordinate_vn(seed, n_states, n_symbols)
    models = (vn.to_hqmm(), embed_classical(shadow), pure_from_reversible(shadow))
    for classical_start, quantum_start in ((prior, np.diag(prior)), (None, None)):
        for n in range(1, 6 if n_symbols < 3 else 5):
            want = analysis.enumerate_distribution(shadow, n, classical_start).probabilities
            for model in models:
                got = analysis.enumerate_distribution(model, n, quantum_start).probabilities
                assert np.max(np.abs(got.array - want.array)) <= 1e-14


def test_pure_from_reversible_rejects_four_state(four_state):
    with pytest.raises(ValueError, match="not reversible"):
        pure_from_reversible(four_state)


def test_coherence_check_embedded_models(even, four_state):
    words4 = list(itertools.product(even.alphabet, repeat=4))
    assert coherence_check(embed_classical(even), words4) <= 1e-12
    words3 = list(itertools.product(four_state.alphabet, repeat=3))
    assert coherence_check(embed_classical(four_state), words3) <= 1e-12


def test_coherence_check_walks_the_words_of_a_one_level_model():
    # a 1-level model has no off-diagonal entries, and its words used to go
    # unread, so an unknown symbol returned 0.0
    m = HqmmModel(alphabet=("a",), dim=1, operations={"a": [np.eye(1)]})
    assert coherence_check(m, [("a", "a")]) == 0.0
    with pytest.raises(ValueError, match="unknown symbol 'x'"):
        coherence_check(m, [("a", "x")])


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: HmmModel(alphabet=(), transitions={}),
        lambda: HqmmModel(alphabet=(), dim=1, operations={}),
        lambda: VnModel(alphabet=(), projectors={}, unitary=np.eye(1)),
        lambda: MpsModel(
            alphabet=(), bond_dim=1, phys_dim=1, tensors=(np.eye(1),), projectors={}
        ),
    ],
    ids=["hmm", "hqmm", "vn", "mps"],
)
def test_empty_alphabet_is_refused_by_every_kind(build):
    with pytest.raises(ValueError, match="^alphabet is empty$"):
        build()


@pytest.mark.parametrize(
    "build,message",
    [
        (
            lambda: HqmmModel(alphabet=("0",), dim=0, operations={"0": [np.zeros((0, 0))]}),
            "dimension must be positive, got 0",
        ),
        (
            lambda: VnModel(("0",), {"0": np.zeros((0, 0))}, np.zeros((0, 0))),
            r"unitary is empty, shape \(0, 0\)",
        ),
        (
            lambda: MpsModel(
                alphabet=("0",),
                bond_dim=0,
                phys_dim=1,
                tensors=(np.zeros((0, 0)),),
                projectors={"0": np.eye(1)},
            ),
            "dimensions must be positive, got bond 0, physical 1",
        ),
        (
            lambda: HmmModel(("0",), {"0": np.zeros((0, 0))}),
            r"transition matrices are empty, shape \(0, 0\)",
        ),
    ],
    ids=["hqmm", "vn", "mps", "hmm"],
)
def test_zero_size_state_space_is_refused(build, message):
    # before, each built and then failed in NumPy: "zero-size array to
    # reduction operation maximum which has no identity"
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def _qubit_mps(bond_dim, phys_dim):
    v = np.eye(2) / math.sqrt(2)
    return MpsModel(
        alphabet=("0", "1"),
        bond_dim=bond_dim,
        phys_dim=phys_dim,
        tensors=(v, v),
        projectors={"0": np.diag([1.0, 0.0]), "1": np.diag([0.0, 1.0])},
    )


@pytest.mark.parametrize(
    "build,message",
    [
        (
            lambda: HqmmModel(alphabet=("0", "1"), dim=2.0, operations={"0": [np.eye(2)], "1": []}),
            "dimension must be an integer, got 2.0",
        ),
        (
            lambda: HqmmModel(alphabet=("0", "1"), dim=1.5, operations={"0": [np.eye(2)], "1": []}),
            "dimension must be an integer, got 1.5",
        ),
        (
            lambda: _qubit_mps(2.0, 2),
            "dimensions must be integers, got bond 2.0, physical 2",
        ),
        (
            lambda: _qubit_mps(2, 2.0),
            "dimensions must be integers, got bond 2, physical 2.0",
        ),
    ],
    ids=["hqmm-2.0", "hqmm-1.5", "mps-bond", "mps-physical"],
)
def test_non_integer_dimension_is_refused(build, message):
    # before, HqmmModel failed in np.stack ("'float' object cannot be
    # interpreted as an integer") or named the shape (1.5, 1.5), and
    # MpsModel built and then failed the same way in validate_mps
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "build,message",
    [
        (
            lambda: HqmmModel(alphabet=("0",), dim=2, operations={"0": [np.eye(2), np.eye(3)]}),
            "Kraus operator for '0' has shape (3, 3), expected (2, 2)",
        ),
        (
            lambda: dataclasses.replace(_qubit_mps(2, 2), tensors=(np.eye(2), np.eye(3))),
            "tensor V^1 has shape (3, 3), expected (2, 2)",
        ),
        (
            lambda: dataclasses.replace(
                _qubit_mps(2, 2), projectors={"0": np.eye(3), "1": np.eye(2)}
            ),
            "projector '0' has shape (3, 3), expected (2, 2)",
        ),
    ],
    ids=["kraus", "tensor", "projector"],
)
def test_wrong_shaped_matrix_is_named(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_numpy_integer_dimensions_are_accepted():
    model = HqmmModel(alphabet=("0", "1"), dim=np.int64(2), operations={"0": [np.eye(2)], "1": []})
    assert model.dim == 2 and type(model.dim) is int
    readout = _qubit_mps(np.int32(2), np.int64(2))
    assert (type(readout.bond_dim), type(readout.phys_dim)) == (int, int)
    assert mps_to_hqmm(readout).dim == 2


def _startless_readout(bond_dim: int, seed: int = 5) -> HqmmModel:
    """A random MPS readout without a start state of its own."""
    model = random_mps(np.random.default_rng(seed), bond_dim, 2)
    return mps_to_hqmm(dataclasses.replace(model, initial=None))


def _counting(monkeypatch, *names) -> dict:
    """Count the calls to each of ``quantum``'s functions ``names``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(quantum, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(quantum, name, counted)
    return calls


def test_a_second_steady_state_or_operators_call_solves_and_builds_nothing(monkeypatch):
    fresh = _startless_readout(3)
    state, unique = steady_state(fresh)
    stack = quantum.operators(fresh)
    m = HqmmModel(fresh.alphabet, fresh.dim, fresh.operations)
    calls = _counting(monkeypatch, "fixed_point", "transfer_matrix")
    first = steady_state(m), quantum.operators(m)
    # one transfer matrix for the forgetful channel and one per symbol
    assert calls == {"fixed_point": 1, "transfer_matrix": 1 + len(m.alphabet)}
    second = steady_state(m), quantum.operators(m)
    assert calls == {"fixed_point": 1, "transfer_matrix": 1 + len(m.alphabet)}
    assert second[0] is first[0] and second[1] is first[1]
    for (s, u), ops in (first, second):
        assert u == unique
        assert s.tobytes() == state.tobytes() and ops.tobytes() == stack.tobytes()


def test_the_kept_state_and_operators_refuse_writes():
    m = _startless_readout(3)
    for array in (steady_state(m)[0], quantum.operators(m), analysis.linear_representation(m).mats):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0


@pytest.mark.parametrize(
    "operations, compute, message",
    [
        # half the identity loses trace: no eigenvalue near 1
        ({"a": [0.5 * np.eye(2)]}, steady_state, "eigenvalue"),
        ({"a": [np.array([[1e200, 0], [0, 1]])]}, quantum.operators, "non-finite entries"),
    ],
    ids=["steady_state", "operators"],
)
def test_a_call_that_raises_keeps_nothing_and_raises_again(monkeypatch, operations, compute, message):
    m = HqmmModel(("a",), 2, operations)
    calls = _counting(monkeypatch, "transfer_matrix")
    raised = []
    for _ in range(2):
        # the Kraus entry 1e200 overflows in the transfer matrix
        with pytest.raises(ValueError, match=message) as info, np.errstate(over="ignore"):
            compute(m)
        raised.append(str(info.value))
    assert raised[0] == raised[1]
    assert calls["transfer_matrix"] == 2


def test_word_probabilities_of_a_startless_readout_solve_once(monkeypatch):
    """``word_probability`` without a start solved the stationary state again
    on every word."""
    m = _startless_readout(8)
    # solved on another model with the same operators, so not read from m's memo
    rho = steady_state(_startless_readout(8))[0]
    calls = _counting(monkeypatch, "fixed_point")
    for n in range(4):
        for word in itertools.product(m.alphabet, repeat=n):
            expected = word_probability(m, word, initial=rho)
            assert word_probability(m, word) == expected
    assert calls["fixed_point"] == 1


def test_threads_sharing_one_fresh_model_get_the_serial_results():
    """Eight threads ask one new model for its steady state, operators and
    word probabilities at once; each gets the bytes of a serial run."""
    words = [w for n in range(3) for w in itertools.product("01", repeat=n)]

    def results(model):
        state, unique = steady_state(model)
        probs = [word_probability(model, w) for w in words]
        return state.tobytes(), unique, quantum.operators(model).tobytes(), probs

    serial = results(_startless_readout(4))
    shared = _startless_readout(4)
    start = threading.Barrier(8)
    got = [None] * 8

    def work(i):
        start.wait(timeout=30)
        got[i] = results(shared)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert got == [serial] * 8
