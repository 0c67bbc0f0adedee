import dataclasses
import itertools
import logging
import math
import re
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hqmm import analysis, classical, cluster, modelfile, mps, quantum
from hqmm.analysis import (
    WordDistribution,
    Xorshift64Star,
    block_entropy,
    enumerate_distribution,
    hankel_block,
    linear_representation,
    sample_trajectory,
    state_count_lower_bound,
)
from hqmm.classical import HmmModel

from conftest import random_density, random_hmm, random_mps

FAIR_COIN = HmmModel(
    alphabet=("0", "1"),
    transitions={"0": np.array([[0.5]]), "1": np.array([[0.5]])},
)


def test_enumerate_length_zero(even):
    dist = enumerate_distribution(even, 0)
    assert dist.probabilities == {(): 1.0}


def test_enumerate_budget():
    with pytest.raises(ValueError, match="budget"):
        enumerate_distribution(FAIR_COIN, 30)


def test_enumerate_budget_counts_representation_size(monkeypatch):
    """A D = 8 readout has 64 real coordinates. At 2^21 words its table
    exceeds the budget while a one-coordinate model's table fits, and at 2^23
    the call is refused before any level is built. A budget shrunk to a small
    table checks at length 10 that the call site passes the coordinate count."""
    model = mps.mps_to_hqmm(random_mps(np.random.default_rng(2), 8, 2))
    budget = analysis.ENUMERATION_BUDGET_BYTES
    assert analysis._enumeration_bytes(2, 21, 1) <= budget < analysis._enumeration_bytes(2, 21, 64)
    with pytest.raises(ValueError, match="budget"):
        enumerate_distribution(model, 23)
    monkeypatch.setattr(
        analysis, "ENUMERATION_BUDGET_BYTES", 2 * analysis._enumeration_bytes(2, 10, 1)
    )
    with pytest.raises(ValueError, match="budget"):
        enumerate_distribution(model, 10)
    assert enumerate_distribution(FAIR_COIN, 10).total() == pytest.approx(1.0)


@pytest.mark.parametrize("bond_dim, phys_dim, n", [(1, 2, 14), (4, 2, 10), (3, 3, 7)])
def test_enumeration_bytes_bounds_traced_peak(bond_dim, phys_dim, n):
    model = mps.mps_to_hqmm(random_mps(np.random.default_rng(bond_dim), bond_dim, phys_dim))
    tracemalloc.start()
    try:
        enumerate_distribution(model, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= analysis._enumeration_bytes(phys_dim, n, bond_dim**2)


def test_enumerate_negative_length():
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_distribution(FAIR_COIN, -1)


def test_sample_negative_length():
    with pytest.raises(ValueError, match="nonnegative"):
        sample_trajectory(FAIR_COIN, -5, seed=1)


def test_sample_budget_is_checked_before_the_representation(monkeypatch):
    """An over-budget length is refused without a stationary solve or the
    d^4 real forms of a readout."""
    readout = mps.mps_to_hqmm(random_mps(np.random.default_rng(2), 4, 2))
    readout = quantum.HqmmModel(readout.alphabet, readout.dim, readout.operations)

    def unbuilt(*args, **kwargs):
        raise AssertionError("the representation was built")

    monkeypatch.setattr(analysis, "linear_representation", unbuilt)
    with pytest.raises(ValueError, match="a trajectory of 1000000000000 symbols needs .* budget"):
        sample_trajectory(readout, 10**12, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda m: sample_trajectory(m, 3, seed=1.5), "seed must be an integer, got 1.5"),
        (lambda m: sample_trajectory(m, 3, seed="7"), "seed must be an integer, got '7'"),
        (lambda m: sample_trajectory(m, 2.0, 1), "trajectory length must be an integer, got 2.0"),
        (lambda m: enumerate_distribution(m, 2.0), "word length must be an integer, got 2.0"),
        (lambda m: Xorshift64Star(None), "seed must be an integer, got None"),
    ],
    ids=["float-seed", "str-seed", "float-length", "float-word-length", "generator-none-seed"],
)
def test_non_integer_length_or_seed_is_named_error(even, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(even)


def test_numpy_integer_length_and_seed_are_accepted(even):
    assert sample_trajectory(even, np.int64(20), np.uint64(42)) == list("11111100011011011011")
    top = sample_trajectory(even, np.uint8(30), np.uint64(2**64 - 1))
    assert top == sample_trajectory(even, 30, 2**64 - 1)
    assert enumerate_distribution(even, np.int32(3)) == enumerate_distribution(even, 3)


def test_linear_representation_reproduces_word_probability(even, four_state, four_symbol):
    rng = np.random.default_rng(11)
    hmm = random_hmm(rng, 3, 2)
    cases = [
        (even, classical, None),
        (hmm, classical, np.array([0.2, 0.5, 0.3])),
        (four_symbol, quantum, None),
        (quantum.embed_classical(four_state), quantum, None),
        (mps.mps_to_hqmm(random_mps(rng, 3, 2)), quantum, random_density(rng, 3)),
    ]
    for model, kind, initial in cases:
        mats, v0, d = linear_representation(model, initial)
        index = {s: i for i, s in enumerate(model.alphabet)}
        assert mats.dtype == v0.dtype == np.float64
        assert mats.shape[1:] == (v0.size, v0.size)
        for n in range(4):
            for word in itertools.product(model.alphabet, repeat=n):
                v = v0
                for s in word:
                    v = mats[index[s]] @ v
                p = kind.word_probability(model, word, initial)
                assert abs(v[:d].sum() - p) < 1e-14, (model.alphabet, word)


def test_enumeration_and_hankel_match_word_probability(even, four_state, four_symbol):
    # the batched enumeration and the factorized Hankel block against the
    # per-word matrix products and Kraus applications
    rng = np.random.default_rng(12)
    cases = [
        (even, classical),
        (four_state, classical),
        (four_symbol, quantum),
        (quantum.embed_classical(random_hmm(rng, 3, 2)), quantum),
        (mps.mps_to_hqmm(random_mps(rng, 3, 2)), quantum),
    ]
    for model, kind in cases:
        dist = enumerate_distribution(model, 4)
        assert list(dist.probabilities) == list(itertools.product(model.alphabet, repeat=4))
        for word, p in dist.probabilities.items():
            assert abs(p - kind.word_probability(model, word)) < 1e-14
        words = [w for n in range(3) for w in itertools.product(model.alphabet, repeat=n)]
        block = hankel_block(model, words, words)
        for i, u in enumerate(words):
            for j, v in enumerate(words):
                assert abs(block.matrix[i, j] - kind.word_probability(model, v + u)) < 1e-14


def test_linear_representation_rejects_other_types():
    with pytest.raises(TypeError, match="unsupported model type"):
        linear_representation(object())


def test_enumerate_cluster_length2_uniform():
    model = cluster.cluster_kraus(cluster.MeasurementBasis(0.5, 1.0))
    dist = enumerate_distribution(model, 2, initial=np.eye(2) / 2)
    for p in dist.probabilities.values():
        assert p == pytest.approx(0.25, abs=1e-12)


def test_enumerate_even_forbidden_mass(even):
    dist = enumerate_distribution(even, 3)
    assert dist.probabilities[("0", "1", "0")] == 0.0
    assert abs(dist.total() - 1.0) < 1e-12


def test_marginal_consistency(even, four_state, four_symbol):
    for model in (even, four_state, four_symbol):
        for n in (1, 2, 3):
            longer = enumerate_distribution(model, n + 1)
            shorter = enumerate_distribution(model, n)
            reduced = longer.marginalize_last()
            for w, p in shorter.probabilities.items():
                assert abs(reduced.probabilities[w] - p) < 1e-10


def test_marginalize_the_empty_word_distribution(even):
    with pytest.raises(ValueError, match="^cannot marginalize the empty-word distribution$"):
        enumerate_distribution(even, 0).marginalize_last()


def test_block_entropy_uniform_and_deterministic():
    model = cluster.cluster_kraus(cluster.MeasurementBasis(math.pi / 4, 0.0))
    dist = enumerate_distribution(model, 3, initial=np.eye(2) / 2)
    assert block_entropy(dist) == pytest.approx(3.0, abs=1e-12)
    from hqmm.analysis import WordDistribution

    point = WordDistribution(2, ("0", "1"), {("0", "0"): 1.0, ("0", "1"): 0.0,
                                             ("1", "0"): 0.0, ("1", "1"): 0.0})
    assert block_entropy(point) == 0.0


@pytest.mark.parametrize("k", [2, 4, 8, 16])
def test_block_entropy_uniform_exact(k):
    from hqmm.analysis import WordDistribution

    n = int(math.log2(k))
    words = list(itertools.product(("0", "1"), repeat=n))
    dist = WordDistribution(n, ("0", "1"), {w: 1.0 / k for w in words})
    assert block_entropy(dist) == math.log2(k)


def test_word_distribution_accepts_a_hand_built_table_in_any_order():
    words = list(itertools.product(("0", "1"), repeat=2))
    table = {w: 0.1 * (i + 1) for i, w in enumerate(words)}
    shuffled = dict(reversed(table.items()))
    dist = WordDistribution(2, ("0", "1"), shuffled)
    assert dist.probabilities == shuffled and dist.probabilities == table
    assert list(dist.probabilities) == words
    assert list(dist.probabilities.items()) == list(table.items())
    assert list(dist.probabilities.values()) == list(table.values())
    assert list(dist.probabilities.keys()) == words
    assert len(dist.probabilities) == 4
    assert ("0", "1") in dist.probabilities
    for missing in (("0", "2"), ("0",), ("0", "1", "0"), "01", ["0", "1"], 7):
        assert missing not in dist.probabilities
        with pytest.raises(KeyError):
            dist.probabilities[missing]
    assert dist.probabilities.get(("1",)) is None
    assert dist.probabilities[("1", "0")] == table[("1", "0")]
    assert type(dist.probabilities[("1", "0")]) is float
    assert all(type(p) is float for p in dist.probabilities.values())


def test_word_distribution_names_an_incomplete_or_foreign_table():
    words = list(itertools.product(("0", "1"), repeat=2))
    table = {w: 0.25 for w in words}
    with pytest.raises(ValueError, match=r"missing word \('1', '0'\)"):
        WordDistribution(2, ("0", "1"), {w: p for w, p in table.items() if w != ("1", "0")})
    with pytest.raises(ValueError, match=r"unknown symbol '2' in word \('0', '2'\)"):
        WordDistribution(2, ("0", "1"), {**table, ("0", "2"): 0.0})
    with pytest.raises(ValueError, match=r"word \('0',\) is not a tuple of 2 symbols"):
        WordDistribution(2, ("0", "1"), {**table, ("0",): 0.0})
    with pytest.raises(ValueError, match=r"word '01' is not a tuple of 2 symbols"):
        WordDistribution(2, ("0", "1"), {**table, "01": 0.0})
    with pytest.raises(ValueError, match="nonnegative"):
        WordDistribution(-1, ("0", "1"), {})
    with pytest.raises(ValueError, match="needs 4 float64 entries"):
        analysis.WordTable(("0", "1"), 2, np.zeros(3))


def test_word_table_prints_its_size_where_python_can():
    # 3**9000 has 4295 digits, under the 4300 that Python prints
    message = (
        f"a length-9000 table over 3 symbols needs {3**9000} float64 entries, got float64 (1,)"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        analysis.WordTable(("a", "b", "c"), 9000, np.zeros(1))


@pytest.mark.parametrize("length", [10**6, 10**7])
def test_word_table_of_a_huge_length_is_refused_fast(length):
    """Both built ``3**length`` (seconds at 10**7). Then the table raised
    Python's limit on the digits of an integer's text, and ``from_mapping``
    NumPy's ``Maximum allowed dimension exceeded``, in place of a message of
    their own."""
    start = time.perf_counter()
    table = f"a length-{length} table over 3 symbols needs 3^{length} float64 entries, got"
    table += " float64 (1,)"
    with pytest.raises(ValueError, match=f"^{re.escape(table)}$"):
        analysis.WordTable(("a", "b", "c"), length, np.zeros(1))
    mapping = f"a table of 3^{length} words needs more than 1e308 GiB, over the 2 GiB budget"
    with pytest.raises(ValueError, match=f"^{re.escape(mapping)}$"):
        analysis.WordTable.from_mapping(("a", "b", "c"), length, {("a",) * 3: 1.0})
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: analysis.WordTable(("0", "1"), 2.0, np.zeros(4)), "must be an integer, got 2.0"),
        (lambda: analysis.WordTable(("0", "1"), -1, np.zeros(1)), "must be nonnegative, got -1"),
        (lambda: WordDistribution(2.0, ("0", "1"), {}), "must be an integer, got 2.0"),
        (lambda: WordDistribution("2", ("0", "1"), {}), "must be an integer, got '2'"),
        (
            lambda: analysis.WordTable.from_mapping(("0", "1"), 1.5, {}),
            "must be an integer, got 1.5",
        ),
    ],
    ids=["table-float", "table-negative", "distribution-float", "distribution-str", "mapping"],
)
def test_word_table_length_must_be_a_nonnegative_integer(call, message):
    with pytest.raises(ValueError, match=f"^word length {re.escape(message)}$"):
        call()


def test_word_distribution_takes_a_numpy_integer_length_as_int(even):
    table = enumerate_distribution(even, 2).probabilities
    dist = WordDistribution(np.int64(2), even.alphabet, table)
    assert type(dist.length) is int and dist.probabilities is table


def test_word_table_is_read_only(even):
    dist = enumerate_distribution(even, 2)
    with pytest.raises(TypeError):
        dist.probabilities[("0", "0")] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        dist.probabilities.array[0] = 0.5


def test_block_entropy_matches_closed_form():
    b = cluster.MeasurementBasis(math.pi / 8, 0.0)
    dist = enumerate_distribution(cluster.cluster_kraus(b), 3, initial=np.eye(2) / 2)
    assert block_entropy(dist) == pytest.approx(cluster.h3_closed_form(b), abs=1e-9)


PAPER_BLOCK = np.array(
    [
        [1, 1 / 4, 1 / 4, 1 / 4, 1 / 4],
        [1 / 4, 1 / 8, 0, 1 / 16, 1 / 16],
        [1 / 4, 0, 1 / 8, 1 / 16, 1 / 16],
        [1 / 4, 1 / 16, 1 / 16, 1 / 8, 0],
        [1 / 4, 1 / 16, 1 / 16, 0, 1 / 8],
    ]
)


def test_hankel_block_four_state_exact(four_state):
    block = hankel_block(four_state)
    assert np.array_equal(block.matrix, PAPER_BLOCK)


def test_hankel_block_four_symbol_hqmm(four_symbol):
    block = hankel_block(four_symbol)
    assert np.max(np.abs(block.matrix - PAPER_BLOCK)) < 1e-12


def test_hankel_block_fair_coin():
    block = hankel_block(FAIR_COIN)
    expect = np.array([[1, 0.5, 0.5], [0.5, 0.25, 0.25], [0.5, 0.25, 0.25]])
    assert np.allclose(block.matrix, expect, atol=1e-14)


def test_hankel_block_takes_the_stationary_state(even, four_symbol, monkeypatch):
    # a caller that already holds the stationary state gets the same bytes
    # without a second solve
    readout = mps.mps_to_hqmm(random_mps(np.random.default_rng(4), 3, 2))
    quantum_models = [
        quantum.HqmmModel(alphabet=m.alphabet, dim=m.dim, operations=m.operations)
        for m in (four_symbol, readout)
    ]
    for model, kind in [(even, classical)] + [(m, quantum) for m in quantum_models]:
        assert getattr(model, "prior", None) is None and getattr(model, "initial", None) is None
        words = [w for n in range(3) for w in itertools.product(model.alphabet, repeat=n)]
        state, _ = kind.steady_state(model)
        expected = [hankel_block(model).matrix, hankel_block(model, words, words).matrix]
        with monkeypatch.context() as m:
            m.setattr(kind, "steady_state", None)
            got = [
                hankel_block(model, initial=state).matrix,
                hankel_block(model, words, words, initial=state).matrix,
            ]
        assert [h.tobytes() for h in got] == [h.tobytes() for h in expected]


def test_hankel_block_unknown_symbol(even):
    with pytest.raises(ValueError, match="unknown symbol"):
        hankel_block(even, row_words=[("2",)])


def test_hankel_block_convention(four_state):
    # entry (row u, col v) is P(v . u): column word happens first
    block = hankel_block(four_state)
    i = block.row_words.index(("0",))
    j = block.col_words.index(("1",))
    from hqmm.classical import word_probability

    assert block.matrix[i, j] == word_probability(four_state, ("1", "0"))


def test_rank_bounds(four_state, even):
    assert state_count_lower_bound(four_state) == 3
    assert state_count_lower_bound(FAIR_COIN) == 1
    words = [()] + [w for n in (1, 2) for w in itertools.product(("0", "1"), repeat=n)]
    assert state_count_lower_bound(even, words, words) == 2


def test_rank_bound_below_state_count_random():
    rng = np.random.default_rng(31)
    for _ in range(30):
        d = int(rng.integers(1, 5))
        m = random_hmm(rng, d, int(rng.integers(2, 4)))
        words = [()] + [(s,) for s in m.alphabet]
        assert state_count_lower_bound(m) <= d
        deeper = words + [
            w for w in itertools.product(m.alphabet, repeat=2)
        ]
        assert state_count_lower_bound(m, deeper, deeper) <= d


def _exact(x: float) -> Fraction:
    """The fraction of small denominator that the float ``x`` rounds."""
    f = Fraction(x).limit_denominator(1000)
    assert abs(float(f) - x) <= 1e-15
    return f


def _echelon(vectors, ops=()) -> list:
    """An echelon basis, in exact arithmetic, of the span of ``vectors``
    closed under the matrices ``ops``: the Krylov span."""
    basis, queue = [], list(vectors)
    while queue:
        v = queue.pop()
        for pivot, b in basis:
            c = v[pivot] / b[pivot]
            v = [x - c * y for x, y in zip(v, b)]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is not None:
            basis.append((pivot, v))
            queue += [[sum(a * x for a, x in zip(row, v)) for row in op] for op in ops]
    return [b for _, b in basis]


def _rational_hankel_rank(model) -> int:
    """Rank of the whole Hankel matrix ``P(v . u) = <1| A_u A_v v0>``, exactly:
    the pairing of the span reachable from ``v0`` under the ``A_s`` with the
    span observable from ``<1|`` under the ``A_s^T``."""
    mats, v0, d = linear_representation(model)
    ops = [[[_exact(x) for x in row] for row in a] for a in mats]
    reachable = _echelon([[_exact(x) for x in v0]], ops)
    unit = [Fraction(int(i < d)) for i in range(v0.size)]
    observable = _echelon([unit], [list(map(list, zip(*op))) for op in ops])
    pairing = [[sum(o * r for o, r in zip(b, f)) for f in reachable] for b in observable]
    return len(_echelon(pairing))


@pytest.mark.parametrize("name, rank", [("even_process", 2), ("four_state", 3)])
def test_rank_bound_matches_an_exact_rational_rank(name, rank):
    """On the bundled models whose representations are exactly rational, the
    numerical rank over all words up to length D is the exact rank."""
    model = modelfile.load_bundled(name)
    assert _rational_hankel_rank(model) == rank
    size = linear_representation(model).v0.size
    words = [w for n in range(size + 1) for w in itertools.product(model.alphabet, repeat=n)]
    assert state_count_lower_bound(model, words, words) == rank


def test_xorshift_reference_stream():
    # first outputs of the documented algorithm for seed 1
    gen = Xorshift64Star(1)
    assert [gen.next_u64() for _ in range(3)] == [
        5180492295206395165,
        12380297144915551517,
        13389498078930870103,
    ]
    gen = Xorshift64Star(123)
    for _ in range(100):
        u = gen.next_float()
        assert 0.0 <= u < 1.0


def test_xorshift_zero_seed_usable():
    a = [Xorshift64Star(0).next_u64() for _ in range(4)]
    b = [Xorshift64Star(0).next_u64() for _ in range(4)]
    assert a == b and any(a)


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**64 - 1),
    count=st.sampled_from(
        [0, 1, analysis._JUMP - 1, analysis._JUMP, analysis._JUMP + 1, 3 * analysis._JUMP + 7]
    ),
)
@example(seed=0, count=3 * analysis._JUMP + 7)
@example(seed=2**64 - 1, count=analysis._JUMP + 1)
def test_xorshift_blocks_chain_into_the_reference_stream(seed, count):
    """Blocks of at most ``_JUMP`` draws, each seeded by the last state of
    the one before, as the sampler chains them, give the reference floats
    and end in the reference state."""
    reference = Xorshift64Star(seed)
    expected = [reference.next_float() for _ in range(count)]
    x, draws = Xorshift64Star(seed).state, []
    for start in range(0, count, analysis._JUMP):
        states, block = analysis._xorshift_block(x, min(analysis._JUMP, count - start))
        assert states.dtype == np.uint64 and len(block) == len(states)
        x = int(states[-1])
        draws += block
    assert draws == expected
    assert x == reference.state


@settings(max_examples=30)
@given(seed=st.integers(0, 2**64 - 1), dying=st.sampled_from([0.5, 2.0**-9, 2.0**-11]))
@example(seed=1, dying=2.0**-9)
def test_generator_state_after_vanished_mass_is_past_the_raising_draw(seed, dying):
    """From state 0, symbol b (probability ``dying``) moves to state 1,
    which has no outgoing mass, so the step after the first b raises. The
    generator has then made exactly one draw more than the steps before."""
    model = HmmModel(
        alphabet=("a", "b"),
        transitions={"a": [[1.0 - dying, 0.0], [0.0, 0.0]], "b": [[0.0, 0.0], [dying, 0.0]]},
    )
    reference = Xorshift64Star(seed)
    steps = 1
    while reference.next_float() < 1.0 - dying:
        steps += 1
    reference.next_u64()
    mats, v0, d = linear_representation(model, [1.0, 0.0])
    rng = Xorshift64Star(seed)
    with pytest.raises(ValueError, match="all next-symbol probabilities vanished"):
        analysis._sample_linear(mats, v0, d, steps + 3 * analysis._JUMP, rng, model.alphabet)
    assert rng.state == reference.state


def test_sample_trajectory_reproducible(even):
    assert sample_trajectory(even, 20, seed=42) == list("11111100011011011011")
    assert sample_trajectory(even, 200, seed=7) == sample_trajectory(even, 200, seed=7)
    assert sample_trajectory(even, 0, seed=1) == []


def test_sample_trajectory_forbidden_factor(even):
    text = "".join(sample_trajectory(even, 10**5, seed=5))
    assert "010" not in text


def test_sample_trajectory_cluster_frequency():
    model = cluster.cluster_kraus(cluster.MeasurementBasis(math.pi / 4, 0.0))
    seq = sample_trajectory(model, 10**5, seed=9)
    assert abs(seq.count("0") / 1e5 - 0.5) < 0.01


def test_sample_vanished_mass(even):
    with pytest.raises(ValueError, match="all next-symbol probabilities vanished"):
        sample_trajectory(even, 5, seed=1, initial=[0.0, 0.0])


def test_non_finite_model_is_named_error(even):
    bad = dict(even.transitions)
    bad["0"] = bad["0"].copy()
    bad["0"][0, 0] = math.nan
    model = HmmModel(alphabet=even.alphabet, transitions=bad, prior=[0.5, 0.5])
    with pytest.raises(ValueError, match="non-finite entries in the transition matrices"):
        sample_trajectory(model, 5, seed=1, initial=[0.5, 0.5])
    with pytest.raises(ValueError, match="non-finite entries in the transition matrices"):
        enumerate_distribution(model, 2, initial=[0.5, 0.5])
    with pytest.raises(ValueError, match="non-finite entries in the transition matrices"):
        hankel_block(model)
    with pytest.raises(ValueError, match="non-finite entries in the initial distribution"):
        sample_trajectory(even, 5, seed=1, initial=[math.inf, 0.0])


def _plain_dot(row, v):
    total = 0.0
    for c, x in zip(row, v):
        total += c * x
    return total


def test_compiled_sums_round_like_plain_loop():
    # 12 symbols over 16 coordinates, the largest compiled kernels: each row
    # is one expression; entries span 20 decades and a third are exact zeros
    rng = np.random.default_rng(3)
    shape, d = (12, 16, 16), 4
    mats = rng.normal(size=shape) * 10.0 ** rng.uniform(-20, 0, shape)
    mats *= rng.random(shape) < 0.67
    mats[5] = 0.0
    v = rng.normal(size=16).tolist()
    entry_of, successors, _ = analysis._compiled_kernels(mats.tobytes(), shape, d)
    units = [[_plain_dot([1.0] * d, col) for col in a[:d].T.tolist()] for a in mats]
    assert entry_of(tuple(v))[-2] == tuple(_plain_dot(unit, v) for unit in units)
    for successor, a in zip(successors, mats.tolist()):
        assert successor(tuple(v), 3.0) == tuple(_plain_dot(row, v) / 3.0 for row in a)


def _plain_sample(model, length, seed, initial=None):
    """Uncached per-step loop with the clamped, renormalized draw that
    ``sample_trajectory`` must reproduce bit for bit."""
    mats, v0, d = linear_representation(model, initial)
    return _plain_sample_linear(mats, v0, d, length, seed, model.alphabet)


def _plain_sample_linear(mats, v0, d, length, seed, alphabet):
    """``_plain_sample`` on a linear representation."""
    rows = mats.tolist()
    units = [[_plain_dot([1.0] * d, col) for col in a[:d].T.tolist()] for a in mats]
    rng = Xorshift64Star(seed)
    v = v0.tolist()
    out = []
    for _ in range(length):
        masses = [_plain_dot(u, v) for u in units]
        total = 0.0
        for w in masses:
            if w > 0.0:
                total += w
        u = rng.next_float() * total
        acc = 0.0
        for k, w in enumerate(masses):
            if w > 0.0:
                acc += w
                choice = k
                if u < acc:
                    break
        v = [_plain_dot(row, v) / masses[choice] for row in rows[choice]]
        out.append(alphabet[choice])
    return out


def test_sampler_matches_plain_loop():
    rng = np.random.default_rng(8)
    # exact zeros drop out of the compiled sums; the matrices no longer sum
    # to a stochastic one, so this model starts from an explicit state
    sparse = random_hmm(rng, 5, 3)
    for s in sparse.alphabet:
        sparse.transitions[s][rng.random((5, 5)) < 0.4] = 0.0
    models = [
        sparse,
        mps.mps_to_hqmm(random_mps(rng, 3, 2)),
        # D = 81: 6561 terms per symbol, over _COMPILED_TERMS, so its
        # kernels accumulate with NumPy instead of compiling
        mps.mps_to_hqmm(random_mps(rng, 9, 2)),
    ]
    for seed, model in enumerate(models, start=1):
        initial = np.full(5, 0.2) if isinstance(model, HmmModel) else model.initial
        expected = _plain_sample(model, 1500, seed, initial)
        assert sample_trajectory(model, 1500, seed, initial) == expected


def _sparse_hmm(model_seed, n_states, n_symbols):
    """A random HMM with about 40 % exact zeros, started from the uniform
    distribution. The first symbol keeps its diagonal, so every state keeps
    some outgoing mass and no draw can vanish."""
    rng = np.random.default_rng(model_seed)
    model = random_hmm(rng, n_states, n_symbols)
    for k, s in enumerate(model.alphabet):
        zero = rng.random((n_states, n_states)) < 0.4
        if k == 0:
            np.fill_diagonal(zero, False)
        model.transitions[s][zero] = 0.0
    return model, np.full(n_states, 1.0 / n_states)


def _unifilar_hmm(model_seed, n_states, n_symbols):
    """A random HMM in which each symbol moves each state to one state: the
    column's mass goes to its largest entry. Started from a point mass, its
    conditional states stay point masses and recur, so the sampler's cache
    hits; the other generated models miss it on almost every step."""
    rng = np.random.default_rng(model_seed)
    model = random_hmm(rng, n_states, n_symbols)
    for s in model.alphabet:
        t = model.transitions[s]
        top = t.argmax(axis=0)
        mass = t.sum(axis=0)
        t[...] = 0.0
        t[top, range(n_states)] = mass
    start = rng.integers(n_states)
    return model, np.eye(n_states)[start]


def _mps_readout(model_seed, bond_dim, phys_dim=2):
    model = mps.mps_to_hqmm(random_mps(np.random.default_rng(model_seed), bond_dim, phys_dim))
    return model, model.initial


def _cluster(phi, xi):
    return cluster.cluster_kraus(cluster.MeasurementBasis(phi, xi)), None


GENERATED_MODELS = st.one_of(
    st.builds(_sparse_hmm, st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 3)),
    st.builds(_unifilar_hmm, st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 3)),
    st.builds(_mps_readout, st.integers(0, 2**32 - 1), st.integers(2, 4)),
    st.builds(
        _cluster,
        st.floats(0.0, math.pi, exclude_max=True),
        st.floats(0.0, 2 * math.pi, exclude_max=True),
    ),
)


@settings(max_examples=40)
@given(case=GENERATED_MODELS, seed=st.integers(0, 2**64 - 1))
@example(case=_sparse_hmm(0, 4, 3), seed=0)
@example(case=_unifilar_hmm(0, 4, 3), seed=0)
@example(case=_mps_readout(0, 3), seed=0)
@example(case=_cluster(math.pi / 8, 0.0), seed=0)
def test_sampler_matches_plain_loop_on_generated_models(case, seed):
    model, initial = case
    expected = _plain_sample(model, 300, seed, initial)
    assert sample_trajectory(model, 300, seed, initial) == expected


@settings(max_examples=30)
@given(case=GENERATED_MODELS, seed=st.integers(0, 2**64 - 1), cap=st.sampled_from([0, 1, 3]))
@example(case=_unifilar_hmm(0, 4, 3), seed=0, cap=3)
def test_sampler_matches_plain_loop_past_the_cache_cap(case, seed, cap):
    """A cap this small is reached within a few steps, so a draw mixes
    linked, admitted-but-unlinked and unadmitted entries; the unifilar
    example recurs on more states than it admits and follows links."""
    model, initial = case
    expected = _plain_sample(model, 200, seed, initial)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_STATE_CACHE_CAP", cap)
        assert sample_trajectory(model, 200, seed, initial) == expected


def _stochastic(case):
    """A generated case whose HMM columns are rescaled so that the matrices
    sum to a column-stochastic one: a sparse HMM loses the mass of the
    entries it zeroes, so its tables do not sum to 1."""
    model, initial = case
    if isinstance(model, HmmModel):
        mass = model.total().sum(axis=0)
        model = HmmModel(model.alphabet, {s: t / mass for s, t in model.transitions.items()})
    return model, initial


@settings(max_examples=40)
@given(case=GENERATED_MODELS.map(_stochastic), n=st.integers(1, 6))
@example(case=_stochastic(_sparse_hmm(0, 5, 3)), n=6)
@example(case=_mps_readout(0, 4), n=6)
def test_generated_distributions_are_normalized_and_consistent(case, n):
    """Each table sums to 1 and sums out its last symbol to the shorter
    table. From the stationary state (``initial=None``, with an MPS
    readout's own start dropped) it also sums out its first symbol to it."""
    model, initial = case
    dist = enumerate_distribution(model, n, initial)
    shorter = enumerate_distribution(model, n - 1, initial).probabilities.array
    assert abs(dist.total() - 1.0) <= 1e-12
    assert np.max(np.abs(dist.marginalize_last().probabilities.array - shorter)) <= 1e-12
    if getattr(model, "initial", None) is not None:
        model = dataclasses.replace(model, initial=None)
    table = enumerate_distribution(model, n).probabilities.array
    shorter = enumerate_distribution(model, n - 1).probabilities.array
    first_out = table.reshape(len(model.alphabet), -1).sum(axis=0)
    assert np.max(np.abs(first_out - shorter)) <= 1e-12


@settings(max_examples=30)
@given(case=GENERATED_MODELS.map(_stochastic))
@example(case=_stochastic(_sparse_hmm(0, 5, 3)))
@example(case=_mps_readout(0, 4))
def test_generated_hankel_rank_is_at_most_the_representation_size(case):
    """Over all words up to length 3, the Hankel rank is at most the size of
    the linear representation: d for an HMM, d^2 for a quantum model."""
    model, _ = case
    words = [w for n in range(4) for w in itertools.product(model.alphabet, repeat=n)]
    size = linear_representation(model)[1].size
    assert size == model.dim ** (1 if isinstance(model, HmmModel) else 2)
    assert state_count_lower_bound(model, words, words) <= size


def _bundled(name):
    model = modelfile.load_bundled(name)
    return modelfile.kind_of(model).operational(model), None


def _kernel_kinds(mats, d):
    """The compiled and the accumulated sampler kernels of one representation."""
    kinds = []
    for terms in (mats.shape[1] ** 2, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_COMPILED_TERMS", terms)
            kinds.append(analysis._kernels(mats, d)[:2])
    return kinds


@settings(max_examples=30)
@given(
    case=st.one_of(
        GENERATED_MODELS, st.builds(_bundled, st.sampled_from(modelfile.BUNDLED_MODELS))
    ),
    seed=st.integers(0, 2**64 - 1),
)
@example(case=_bundled("four_state"), seed=0)
@example(case=_sparse_hmm(0, 4, 3), seed=0)
@example(case=_mps_readout(0, 4), seed=0)
def test_accumulated_kernels_match_compiled_ones(case, seed):
    """With every representation accumulated, the sampler still draws the
    plain loop's sequence, and along it both kinds of kernel give the same
    entries and successors, float for float (a zero may differ in sign)."""
    model, initial = case
    expected = _plain_sample(model, 200, seed, initial)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_COMPILED_TERMS", 0)
        assert sample_trajectory(model, 200, seed, initial) == expected
    mats, v0, d = linear_representation(model, initial)
    (entry_of, successors), (accumulated_entry_of, accumulated_successors) = _kernel_kinds(mats, d)
    v = tuple(v0.tolist())
    for symbol in expected:
        entry = entry_of(v)
        assert accumulated_entry_of(v) == entry
        k = model.alphabet.index(symbol)
        v = successors[k](v, entry[-2][k])
        assert accumulated_successors[k](entry[-1], entry[-2][k]) == v


def test_sampler_memory_does_not_grow_past_the_cache_cap():
    # the cluster readout's states never recur, so entries past the cap must
    # be dropped, not kept alive by the cache or by the links of admitted ones
    model = modelfile.load_bundled("cluster_phi_pi8")
    peaks = []
    for length in (1000, 5000):
        tracemalloc.start()
        try:
            sample_trajectory(model, length, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 4000 more symbols cost about 9 bytes each in the returned list; an
    # entry kept alive would cost about 500
    assert peaks[1] - peaks[0] < 4000 * 64


def test_sampler_memory_holds_one_block_of_draws():
    # beyond the returned list (about 9 bytes a symbol), the draws may hold
    # one block, not memory that grows with the length; the first call
    # builds the jump table outside the measurement
    model = modelfile.load_bundled("four_state")
    sample_trajectory(model, 1, 1)
    peaks = []
    for length in (2 * 10**4, 2 * 10**5):
        tracemalloc.start()
        try:
            sample_trajectory(model, length, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 16 * (2 * 10**5 - 2 * 10**4)


def _sampler_counts(caplog, model, length, seed=1):
    caplog.set_level(logging.DEBUG, logger="hqmm")
    caplog.clear()
    sample_trajectory(model, length, seed)
    (record,) = [r for r in caplog.records if r.name == "hqmm.analysis"]
    assert record.levelno == logging.DEBUG
    message = record.getMessage()
    pattern = r"sampled (\d+) steps, (\d+) entries computed, (\d+) admitted, cap (\d+)$"
    return tuple(int(g) for g in re.fullmatch(pattern, message).groups())


def test_sampler_logs_its_cache_counts(caplog):
    cap = analysis._STATE_CACHE_CAP
    # the start and four conditional states recur: every later step hits
    four_state = modelfile.load_bundled("four_state")
    assert _sampler_counts(caplog, four_state, 1000) == (1000, 5, 5, cap)
    # the cluster readout's states never recur: one entry per step and the
    # start, and the cache fills to the cap
    pi8 = modelfile.load_bundled("cluster_phi_pi8")
    assert _sampler_counts(caplog, pi8, 2 * cap) == (2 * cap, 2 * cap + 1, cap, cap)


KERNEL_KINDS = pytest.mark.parametrize("kind", ["compiled", "accumulated"])


def _kind_terms(kind, mats):
    """The ``_COMPILED_TERMS`` that gives ``mats`` the kernels of ``kind``."""
    return mats.shape[1] ** 2 if kind == "compiled" else 0


def _clear_kernel_memo():
    analysis._compiled_kernels.cache_clear()


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**64 - 1),
    dying=st.sampled_from([0.5, 2.0**-9, 2.0**-11]),
    kind=st.sampled_from(["compiled", "accumulated"]),
)
@example(seed=1, dying=0.5, kind="compiled")
@example(seed=1, dying=2.0**-9, kind="accumulated")
def test_run_kernel_raises_vanished_mass_at_the_draw_that_meets_it(seed, dying, kind):
    """With no cache, the run kernel draws from the first step on. The steps
    up to the first b are drawn; the next one meets state 1, which has no
    outgoing mass, and raises, one draw past the steps before it."""
    model = HmmModel(
        alphabet=("a", "b"),
        transitions={"a": [[1.0 - dying, 0.0], [0.0, 0.0]], "b": [[0.0, 0.0], [dying, 0.0]]},
    )
    reference = Xorshift64Star(seed)
    steps = 1
    while reference.next_float() < 1.0 - dying:
        steps += 1
    reference.next_u64()
    mats, v0, d = linear_representation(model, [1.0, 0.0])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_STATE_CACHE_CAP", 0)
        patch.setattr(analysis, "_COMPILED_TERMS", _kind_terms(kind, mats))
        drawn = analysis._sample_linear(mats, v0, d, steps, Xorshift64Star(seed), model.alphabet)
        assert drawn == ["a"] * (steps - 1) + ["b"]
        rng = Xorshift64Star(seed)
        with pytest.raises(ValueError, match="all next-symbol probabilities vanished"):
            analysis._sample_linear(mats, v0, d, steps + 3 * analysis._JUMP, rng, model.alphabet)
    assert rng.state == reference.state


@KERNEL_KINDS
def test_run_kernel_takes_last_symbol_with_mass_at_a_subnormal_total(kind):
    # masses of one unit (5e-324) each for a and b: u * total rounds up to
    # the total whenever u >= 0.75, on every step, since the state stays 1.0;
    # the draw then takes b, not the massless c
    mats = np.array([[[5e-324]], [[5e-324]], [[0.0]]])
    v0 = np.array([1.0])
    seed, length = 3, 300
    rng = Xorshift64Star(seed)
    assert sum(rng.next_float() >= 0.75 for _ in range(length)) > 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_STATE_CACHE_CAP", 0)
        patch.setattr(analysis, "_COMPILED_TERMS", _kind_terms(kind, mats))
        drawn = analysis._sample_linear(mats, v0, 1, length, Xorshift64Star(seed), "abc")
    assert drawn == _plain_sample_linear(mats, v0, 1, length, seed, "abc")
    assert set(drawn) == {"a", "b"}


@KERNEL_KINDS
@pytest.mark.parametrize("cap", [analysis._JUMP - 1, analysis._JUMP, analysis._JUMP + 1])
def test_hand_over_at_the_edges_of_a_block(caplog, kind, cap):
    """The cluster readout misses on every step, so the cache fills at step
    ``cap`` and the run kernel takes the draws that follow it: the last one
    of the first block, none of it, or all but the first of the second."""
    model = modelfile.load_bundled("cluster_phi_pi8")
    mats, _, _ = linear_representation(model)
    length = 2 * analysis._JUMP + 100
    handed = []
    kernels = analysis._kernels

    def recording_kernels(mats, d):
        entry_of, successors, run = kernels(mats, d)

        def recording_run(v, draws, out, symbols):
            handed.append(len(draws))
            return run(v, draws, out, symbols)

        return entry_of, successors, recording_run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_STATE_CACHE_CAP", cap)
        patch.setattr(analysis, "_COMPILED_TERMS", _kind_terms(kind, mats))
        patch.setattr(analysis, "_kernels", recording_kernels)
        assert _sampler_counts(caplog, model, length) == (length, length + 1, cap, cap)
        assert sample_trajectory(model, length, 1) == _plain_sample(model, length, 1)
    assert handed[0] == -cap % analysis._JUMP
    assert sum(handed) == 2 * (length - cap)


@settings(max_examples=30)
@given(
    case=st.one_of(
        GENERATED_MODELS, st.builds(_bundled, st.sampled_from(modelfile.BUNDLED_MODELS))
    ),
    seed=st.integers(0, 2**64 - 1),
)
@example(case=_mps_readout(0, 4), seed=0)
@example(case=_cluster(math.pi / 8, 0.0), seed=0)
@example(case=_sparse_hmm(0, 4, 3), seed=0)
def test_compiled_and_accumulated_run_kernels_agree_after_every_step(case, seed):
    """Both kinds of run kernel, stepped one draw at a time, hold the same
    state float for float after every step (a zero may differ in sign)."""
    model, initial = case
    mats, v0, d = linear_representation(model, initial)
    runs = []
    for kind in ("compiled", "accumulated"):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_COMPILED_TERMS", _kind_terms(kind, mats))
            runs.append(analysis._kernels(mats, d)[2])
    rng = Xorshift64Star(seed)
    states, outs = [tuple(v0.tolist())] * 2, ([], [])
    for _ in range(150):
        draws = [rng.next_float()]
        states = [run(v, draws, out, model.alphabet) for run, v, out in zip(runs, states, outs)]
        assert states[0] == states[1]
        assert outs[0] == outs[1]
    assert outs[0] == _plain_sample(model, 150, seed, initial)


@pytest.mark.parametrize("cap", [0, analysis._STATE_CACHE_CAP])
def test_kernel_memo_tells_representations_one_ulp_apart(cap):
    """With a second uniform ``u >= 0.5``, symbol a of mass ``u`` and b of
    mass ``1 - u`` total exactly 1, so the second draw takes b; with a's
    mass one ulp up, the total still rounds to 1 and the draw takes a. The
    state stays 1.0, so with no cache that draw is the run kernel's. Each
    representation must draw its own sequence whichever is compiled first."""

    def second_uniform(seed):
        rng = Xorshift64Star(seed)
        rng.next_float()
        return rng.next_float()

    seed = next(s for s in itertools.count(1) if second_uniform(s) >= 0.5)
    u = second_uniform(seed)
    v0, length = np.array([1.0]), 600
    reps = [np.array([[[a]], [[1.0 - u]]]) for a in (u, np.nextafter(u, 1.0))]
    expected = [_plain_sample_linear(mats, v0, 1, length, seed, "ab") for mats in reps]
    assert expected[0][1] == "b" and expected[1][1] == "a"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_STATE_CACHE_CAP", cap)
        for order in ((0, 1), (1, 0)):
            _clear_kernel_memo()
            for i in order:
                rng = Xorshift64Star(seed)
                assert analysis._sample_linear(reps[i], v0, 1, length, rng, "ab") == expected[i]


def test_accumulated_draws_use_no_memoized_kernel():
    """A representation whose compiled kernels are memoized draws with the
    accumulated ones once ``_COMPILED_TERMS`` is below its size: the memo
    is not consulted, and the sequence is still the plain loop's."""
    model, initial = _mps_readout(0, 3)
    expected = _plain_sample(model, 300, 5, initial)
    memo = analysis._compiled_kernels
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_STATE_CACHE_CAP", 4)
        assert sample_trajectory(model, 300, 5, initial) == expected
        warm = memo.cache_info()
        assert warm.currsize > 0
        patch.setattr(analysis, "_COMPILED_TERMS", 0)
        assert sample_trajectory(model, 300, 5, initial) == expected
        assert memo.cache_info() == warm


def test_kernel_memo_memory_is_bounded():
    """Past the memo's size, compiling more representations evicts older
    ones: the memory held after three times as many as it keeps is about
    the memory held after as many as it keeps."""
    size = analysis._KERNEL_MEMO
    sample_trajectory(FAIR_COIN, 1, 1)  # the jump table, outside the measurement
    _clear_kernel_memo()
    held = []
    tracemalloc.start()
    try:
        for count in (size, 3 * size):
            for model_seed in range(len(held) * size, count):
                model, initial = _mps_readout(model_seed, 4)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(analysis, "_STATE_CACHE_CAP", 0)
                    sample_trajectory(model, 2, 1, initial)
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
        _clear_kernel_memo()
    assert analysis._compiled_kernels.cache_info().maxsize == size
    assert held[1] - held[0] < held[0] / 4


def _plain_marginalize(probabilities):
    """The per-word dict loop that ``marginalize_last`` must reproduce bit
    for bit."""
    probs = {}
    for word, p in probabilities.items():
        probs[word[:-1]] = probs.get(word[:-1], 0.0) + p
    return probs


def _bits(items):
    return [(w, float.hex(p)) for w, p in items]


def _embedded_hmm(model_seed, n_states, n_symbols):
    rng = np.random.default_rng(model_seed)
    return quantum.embed_classical(random_hmm(rng, n_states, n_symbols)), None


WORD_TABLE_MODELS = st.one_of(
    st.builds(_sparse_hmm, st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 4)),
    st.builds(_embedded_hmm, st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(2, 4)),
    st.builds(_mps_readout, st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 4)),
)


@settings(max_examples=60)
@given(
    case=WORD_TABLE_MODELS,
    n=st.integers(0, 6),
    zeros=st.lists(st.tuples(st.integers(0, 4095), st.sampled_from([0.0, -0.0])), max_size=6),
)
@example(case=_sparse_hmm(0, 3, 4), n=6, zeros=[(0, -0.0), (1, 0.0), (5, -0.0)])
def test_word_tables_match_the_plain_dict_loop_bit_for_bit(case, n, zeros):
    """Enumerated tables read as the dict of their clipped array, in product
    order, and every marginalization step adds like the per-word loop, also
    over a hand-built copy with exact signed zeros put in."""
    model, initial = case
    dist = enumerate_distribution(model, n, initial)
    words = list(itertools.product(model.alphabet, repeat=n))
    plain = dict(zip(words, dist.probabilities.array.tolist()))
    assert _bits(dist.probabilities.items()) == _bits(plain.items())
    values = list(plain.values())
    for i, zero in zeros:
        values[i % len(values)] = zero
    signed = dict(zip(words, values))
    hand = WordDistribution(n, tuple(model.alphabet), signed)
    assert _bits(hand.probabilities.items()) == _bits(signed.items())
    for table, expected in ((dist, plain), (hand, signed)):
        assert float.hex(table.total()) == float.hex(float(sum(expected.values())))
        while table.length > 0:
            table, expected = table.marginalize_last(), _plain_marginalize(expected)
            assert _bits(table.probabilities.items()) == _bits(expected.items())


def test_vanished_mass_is_raised_at_the_step_that_draws_from_it():
    # a draws 0 -> 1, and state 1 has no outgoing mass at all
    model = HmmModel(
        alphabet=("a", "b"),
        transitions={"a": [[0.0, 0.0], [1.0, 0.0]], "b": [[0.0, 0.0], [0.0, 0.0]]},
    )
    assert sample_trajectory(model, 1, seed=1, initial=[1.0, 0.0]) == ["a"]
    with pytest.raises(ValueError, match="all next-symbol probabilities vanished"):
        sample_trajectory(model, 2, seed=1, initial=[1.0, 0.0])
    assert sample_trajectory(model, 0, seed=1, initial=[0.0, 0.0]) == []


def test_draw_at_rounded_up_total_takes_last_symbol_with_mass():
    # with a subnormal total of two units, u * total rounds up to the total
    # whenever u >= 0.75; the draw then takes the last symbol with mass, not
    # the massless last symbol
    coin = HmmModel(
        alphabet=("a", "b", "c"),
        transitions={"a": [[0.5]], "b": [[0.5]], "c": [[0.0]]},
    )
    seeds = range(1, 41)
    assert any(Xorshift64Star(seed).next_float() >= 0.75 for seed in seeds)
    draws = [sample_trajectory(coin, 1, seed, initial=[1e-323])[0] for seed in seeds]
    assert draws == [_plain_sample(coin, 1, seed, [1e-323])[0] for seed in seeds]
    assert set(draws) == {"a", "b"}


def test_negative_masses_are_clamped():
    # from the quasi-distribution (1.5, -0.5) symbol b has mass -0.5: it is
    # never drawn, and a and c split the clamped total 1.5 evenly
    model = HmmModel(
        alphabet=("a", "b", "c"),
        transitions={
            "a": [[0.5, 0.0], [0.0, 0.0]],
            "b": [[0.0, 0.0], [0.0, 1.0]],
            "c": [[0.5, 0.0], [0.0, 0.0]],
        },
    )
    seeds = range(1, 41)
    draws = [sample_trajectory(model, 1, seed, initial=[1.5, -0.5])[0] for seed in seeds]
    assert draws == [_plain_sample(model, 1, seed, [1.5, -0.5])[0] for seed in seeds]
    assert set(draws) == {"a", "c"}


def test_sampled_pairs_match_enumeration_mps_readout():
    # a d = 3 readout whose conditional states carry coherences, unlike the
    # bundled d >= 3 models
    model = mps.mps_to_hqmm(random_mps(np.random.default_rng(21), 3, 2))
    n = 20_000
    seq = sample_trajectory(model, n + 1, seed=4)
    counts = Counter(zip(seq, seq[1:]))
    stationary = enumerate_distribution(model, 2, initial=quantum.steady_state(model)[0])
    for word, p in stationary.probabilities.items():
        # 6 binomial sigmas leave room for the correlation of neighbouring pairs
        assert abs(counts[word] / n - p) <= 6.0 * math.sqrt(p * (1.0 - p) / n), word


@pytest.mark.parametrize("name", modelfile.BUNDLED_MODELS)
def test_sampled_frequencies_match_enumeration(name):
    model = modelfile.load_bundled(name)
    if hasattr(model, "to_hqmm"):
        model = model.to_hqmm()
    n_windows = 10**6
    word_len = 3
    seq = sample_trajectory(model, n_windows + word_len - 1, seed=2026)
    counts = Counter(
        tuple(seq[i : i + word_len]) for i in range(n_windows)
    )
    dist = enumerate_distribution(model, word_len)
    for word, p in dist.probabilities.items():
        freq = counts.get(word, 0) / n_windows
        sigma = math.sqrt(p * (1.0 - p) / n_windows)
        assert abs(freq - p) <= 4.0 * sigma + 1e-12, (name, word, freq, p)
