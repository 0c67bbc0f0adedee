import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hqmm import analysis
from hqmm.classical import (
    HmmModel,
    is_deterministic,
    is_reversible,
    steady_state,
    validate_hmm,
    word_probability,
)

from conftest import random_hmm


def coin(p=0.5) -> HmmModel:
    return HmmModel(
        alphabet=("0", "1"),
        transitions={"0": np.array([[p]]), "1": np.array([[1 - p]])},
    )


def test_validate_even_process(even):
    assert validate_hmm(even) == []


def test_validate_four_state(four_state):
    assert validate_hmm(four_state) == []


def test_validate_reports_bad_column():
    m = HmmModel(
        alphabet=("0", "1"),
        transitions={
            "0": np.array([[1.0, 0.0], [0.5, 0.0]]),
            "1": np.array([[0.0, 0.5], [0.0, 0.5]]),
        },
    )
    problems = validate_hmm(m)
    assert any(v.check == "column-stochastic" and v.index == 0 for v in problems)


def test_validate_reports_entry_out_of_range():
    # the columns still sum to 1, so the range check is the only one that fails
    m = HmmModel(alphabet=("0",), transitions={"0": np.array([[1.2, 0.0], [-0.2, 1.0]])})
    assert [str(v) for v in validate_hmm(m)] == [
        "[entry-range] symbol='0': entry [1,0] = -0.2 outside [0, 1]"
    ]


def test_validate_reports_non_finite_entry():
    m = HmmModel(alphabet=("0", "1"), transitions={"0": [[math.nan]], "1": [[0.5]]})
    assert [str(v) for v in validate_hmm(m)] == ["[finite] symbol='0': non-finite entries"]


@pytest.mark.parametrize(
    "transitions, message",
    [
        ({"0": [[0.5, 0.5]]}, "transition matrix for '0' must be square"),
        ({"0": [0.5, 0.5]}, "transition matrix for '0' must be square"),
        ({"0": [[0.5]], "1": np.eye(2) / 2}, "transition matrices have mixed dimensions"),
    ],
    ids=["non-square", "vector", "mixed"],
)
def test_transition_matrices_must_be_square_and_of_one_size(transitions, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        HmmModel(alphabet=tuple(transitions), transitions=transitions)


def test_transition_matrices_missing_a_symbol_are_refused():
    with pytest.raises(ValueError, match="^transition matrices must cover exactly the alphabet$"):
        HmmModel(alphabet=("0", "1"), transitions={"0": np.eye(1)})


def test_steady_state_even(even):
    pi, unique = steady_state(even)
    assert unique
    assert_allclose(pi, [2 / 3, 1 / 3], atol=1e-12)


def test_steady_state_four_state(four_state):
    pi, unique = steady_state(four_state)
    assert unique
    assert_allclose(pi, np.full(4, 0.25), atol=1e-12)


def test_steady_state_single_state():
    pi, unique = steady_state(coin())
    assert unique
    assert_allclose(pi, [1.0])


def test_steady_state_non_unique_flagged():
    # two disconnected absorbing states
    m = HmmModel(
        alphabet=("0", "1"),
        transitions={"0": np.diag([1.0, 0.0]), "1": np.diag([0.0, 1.0])},
    )
    pi, unique = steady_state(m)
    assert not unique
    assert_allclose(pi, [0.5, 0.5], atol=1e-12)


def test_steady_state_refuses_a_fixed_vector_without_mass():
    # the only fixed vector, (1, -1), sums to 0; scaling it by its round-off
    # sum and clipping gave the distribution (0, 1), flagged unique
    m = HmmModel(alphabet=("0",), transitions={"0": 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])})
    with pytest.raises(ValueError, match="fixed-point candidate has vanishing trace"):
        steady_state(m)


def test_word_probability_forbidden_word(even):
    assert word_probability(even, "010") == 0.0


def test_word_probability_empty_word(even):
    assert word_probability(even, "") == pytest.approx(1.0, abs=1e-15)


def test_word_probability_frozen_values(even):
    # hand-evaluated from the transition matrices and pi* = (2/3, 1/3)
    assert word_probability(even, "11") == pytest.approx(0.5, abs=1e-14)
    assert word_probability(even, "0110") == pytest.approx(1 / 12, abs=1e-14)


def test_word_probability_unknown_symbol(even):
    with pytest.raises(ValueError, match="unknown symbol"):
        word_probability(even, "02")


def test_word_probability_names_an_unhashable_symbol(even):
    """A list symbol raised ``TypeError: unhashable type`` from the dict lookup."""
    with pytest.raises(ValueError, match=r"^unknown symbol \['0'\]; alphabet is \('0', '1'\)$"):
        word_probability(even, [["0"]])


def test_word_probability_explicit_initial(even):
    assert word_probability(even, "0", initial=[1.0, 0.0]) == pytest.approx(0.5)
    assert word_probability(even, "0", initial=[0.0, 1.0]) == 0.0


def test_word_probability_negative_beyond_noise_raises(even):
    # a negative initial weight makes P(0) = -0.5 under T_0 = diag(0.5, 0)
    with pytest.raises(ValueError, match="negative beyond numerical noise"):
        word_probability(even, "0", initial=[-1.0, 0.0])


@pytest.mark.parametrize("entry", [math.nan, math.inf])
def test_word_probability_refuses_a_non_finite_value(entry):
    """A non-finite entry of a model that fails validation gave ``nan`` or,
    clamped, ``1.0``."""
    m = HmmModel(("0", "1"), {"0": np.array([[entry]]), "1": np.array([[0.5]])})
    with pytest.raises(ValueError, match=rf"^word probability = {entry} is not finite$"):
        word_probability(m, "0", initial=[1.0])


def test_word_probability_tiny_negative_clamps_to_zero(even):
    assert word_probability(even, "0", initial=[-1e-12, 1.0]) == 0.0


def test_is_deterministic(even, four_state):
    assert is_deterministic(even) == (True, None)
    assert is_deterministic(four_state) == (True, None)


def test_is_deterministic_witness():
    m = HmmModel(
        alphabet=("0",),
        transitions={"0": np.array([[0.5, 0.0], [0.5, 1.0]])},
    )
    ok, witness = is_deterministic(m)
    assert not ok
    assert witness == ("0", 0)


def test_is_reversible(even):
    assert is_reversible(even) == (True, None)


def test_is_reversible_four_state(four_state):
    ok, witness = is_reversible(four_state)
    assert not ok
    assert witness == ("0", 0)


def test_is_reversible_single_state():
    assert is_reversible(coin()) == (True, None)


def test_is_reversible_rejects_non_deterministic():
    m = HmmModel(
        alphabet=("0",),
        transitions={"0": np.array([[0.5, 0.0], [0.5, 1.0]])},
    )
    with pytest.raises(ValueError, match="deterministic"):
        is_reversible(m)


@pytest.mark.parametrize("n", range(1, 7))
def test_length_n_distribution_normalized(even, four_state, n):
    for model in (even, four_state):
        dist = analysis.enumerate_distribution(model, n)
        assert abs(dist.total() - 1.0) < 1e-10


def test_suffix_consistency(even, four_state):
    for model in (even, four_state):
        for n in range(0, 4):
            for word in itertools.product(model.alphabet, repeat=n):
                p = word_probability(model, word)
                ext = sum(
                    word_probability(model, word + (s,)) for s in model.alphabet
                )
                assert abs(p - ext) < 1e-12


def test_prefix_stationarity_from_steady_state(even, four_state):
    for model in (even, four_state):
        pi = steady_state(model)[0]
        for n in range(0, 4):
            for word in itertools.product(model.alphabet, repeat=n):
                p = word_probability(model, word, initial=pi)
                ext = sum(
                    word_probability(model, (s,) + word, initial=pi)
                    for s in model.alphabet
                )
                assert abs(p - ext) < 1e-12


def test_even_process_parity_structure(even):
    for l in range(6):
        odd = ("0",) + ("1",) * (2 * l + 1) + ("0",)
        even_block = ("0",) + ("1",) * (2 * l) + ("0",)
        assert word_probability(even, odd) == 0.0
        assert word_probability(even, even_block) > 0.0


def test_random_models_validate_and_normalize():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = random_hmm(rng, rng.integers(1, 5), rng.integers(1, 4))
        assert validate_hmm(m) == []
        dist = analysis.enumerate_distribution(m, 3)
        assert abs(dist.total() - 1.0) < 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_initial_is_refused_before_any_probability(even, bad):
    """A model may hold a non-finite prior, so that ``validate_hmm`` can
    name it, but no probability is computed from it or from an explicit
    non-finite start."""
    named = "non-finite entries in the initial distribution"
    model = HmmModel(alphabet=even.alphabet, transitions=even.transitions, prior=[bad, 1.0])
    assert [v.check for v in validate_hmm(model)] == ["prior-finite"]
    for compute in (
        lambda: word_probability(model, ["0"]),
        lambda: analysis.enumerate_distribution(model, 1),
        lambda: word_probability(even, ["0"], initial=[bad, 1.0]),
    ):
        with pytest.raises(ValueError, match=named):
            compute()
    assert word_probability(model, ["0"], initial=[0.5, 0.5]) == pytest.approx(0.25)
