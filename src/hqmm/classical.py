"""Stochastic finite-state generators (Mealy-form hidden Markov models).

A model is a set of per-symbol substochastic matrices ``T_s`` whose sum is
column-stochastic; column vectors and left multiplication throughout, i.e.
``T_s[i, j]`` is the probability of emitting ``s`` and moving to state ``i``
given state ``j``. The probability of a word is
``<1| T_{s_n} ... T_{s_1} |pi>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .config import TOL
from .linalg import (
    Violation,
    _finite,
    _stationary_vector,
    _walk,
    check_prob_vector,
    checked_alphabet,
    checked_probability,
    checked_word,
)


@dataclass(frozen=True)
class HmmModel:
    """Alphabet plus per-symbol transition matrices, column convention."""

    alphabet: tuple[str, ...]
    transitions: dict[str, np.ndarray]
    prior: np.ndarray | None = None
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        alphabet = checked_alphabet(self.alphabet, self.transitions, "transition matrices")
        object.__setattr__(self, "alphabet", alphabet)
        mats = {}
        d = None
        for s in alphabet:
            t = np.asarray(self.transitions[s], dtype=float)
            if t.ndim != 2 or t.shape[0] != t.shape[1]:
                raise ValueError(f"transition matrix for {s!r} must be square")
            if d is None:
                d = t.shape[0]
            elif t.shape[0] != d:
                raise ValueError("transition matrices have mixed dimensions")
            mats[s] = t
        if d == 0:
            raise ValueError("transition matrices are empty, shape (0, 0)")
        object.__setattr__(self, "transitions", mats)
        if self.prior is not None:
            object.__setattr__(self, "prior", _distribution(self.prior, d, "prior"))

    @property
    def n_states(self) -> int:
        return self.transitions[self.alphabet[0]].shape[0]

    @property
    def dim(self) -> int:
        """``n_states``, under the name the quantum models give their state count."""
        return self.n_states

    def total(self) -> np.ndarray:
        """The forgetful transition matrix ``sum_s T_s``."""
        return sum(self.transitions[s] for s in self.alphabet)


def _distribution(p, d: int, name: str) -> np.ndarray:
    """``p`` as a float vector; raises ``ValueError`` unless it has length ``d``."""
    p = np.asarray(p, dtype=float)
    if p.shape != (d,):
        raise ValueError(f"{name} must have length {d}, got shape {p.shape}")
    return p


def validate_hmm(m: HmmModel) -> list[Violation]:
    """Entry bounds, column stochasticity of the sum, and prior normalization."""
    problems: list[Violation] = []
    for s in m.alphabet:
        t = m.transitions[s]
        if not np.all(np.isfinite(t)):
            problems.append(Violation("finite", "non-finite entries", symbol=s))
            continue
        if t.min() < -TOL.stochastic or t.max() > 1.0 + TOL.stochastic:
            i, j = np.unravel_index(
                np.argmax(np.abs(t - np.clip(t, 0.0, 1.0))), t.shape
            )
            problems.append(
                Violation(
                    "entry-range",
                    f"entry [{i},{j}] = {t[i, j]:.12g} outside [0, 1]",
                    symbol=s,
                )
            )
    col_sums = m.total().sum(axis=0)
    for j, cs in enumerate(col_sums):
        if abs(cs - 1.0) > TOL.stochastic:
            problems.append(
                Violation(
                    "column-stochastic",
                    f"column {j} of sum_s T_s sums to {cs:.12g}",
                    index=j,
                )
            )
    if m.prior is not None:
        for v in check_prob_vector(m.prior):
            problems.append(Violation("prior-" + v.check, v.message, index=v.index))
    return problems


def steady_state(m: HmmModel) -> tuple[np.ndarray, bool]:
    """Stationary distribution of ``sum_s T_s``.

    Returns ``(pi_star, unique)``. A degenerate eigenvalue-1 space is resolved
    by projecting the uniform distribution onto it (renormalized) and flagged
    ``unique=False``. It is the solve of ``linalg.fixed_point``, with all
    ``n_states`` coordinates as the mass.
    """
    pi, unique = _stationary_vector(m.total(), m.n_states)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum(), unique


def resolve_initial(m: HmmModel, initial=None) -> np.ndarray:
    """Explicit argument, else the model prior, else the steady state.

    Raises ``ValueError`` for an explicit argument or prior with a
    non-finite entry. A model may hold such a prior, so that validation can
    report it, but no probability is computed from it.
    """
    if initial is not None:
        p = _distribution(initial, m.n_states, "initial distribution")
    elif m.prior is not None:
        p = m.prior
    else:
        return steady_state(m)[0]
    return _finite(p, "initial distribution")


def operators(m: HmmModel) -> np.ndarray:
    """The ``T_s`` stacked in alphabet order; see ``analysis.linear_representation``."""
    return _finite(np.stack([m.transitions[s] for s in m.alphabet]), "transition matrices")


start_vector = resolve_initial


def word_probability(
    m: HmmModel, word: Iterable[str], initial=None
) -> float:
    """``<1| T_{s_n} ... T_{s_1} |pi>`` with ``s_1`` the earliest symbol,
    clamped to [0, 1]; see ``linalg.checked_probability``."""
    v = _walk(m.transitions, resolve_initial(m, initial), checked_word(word, m.alphabet))
    return checked_probability(float(v.sum()), "word probability")


def _first_crowded(m: HmmModel, axis: int) -> tuple[str, int] | None:
    """The first ``(symbol, column)`` (``axis=0``) or ``(symbol, row)``
    (``axis=1``) of the ``T_s`` with more than one entry of magnitude above
    ``TOL.zero_entry``, or None."""
    for s in m.alphabet:
        counts = (np.abs(m.transitions[s]) > TOL.zero_entry).sum(axis=axis)
        bad = np.nonzero(counts > 1)[0]
        if bad.size:
            return s, int(bad[0])
    return None


def is_deterministic(m: HmmModel) -> tuple[bool, tuple[str, int] | None]:
    """Whether every column of every ``T_s`` has at most one nonzero entry.

    Entries of magnitude at most ``TOL.zero_entry`` count as zero. The
    witness names the first offending ``(symbol, column)``.
    """
    witness = _first_crowded(m, axis=0)
    return witness is None, witness


def is_reversible(m: HmmModel) -> tuple[bool, tuple[str, int] | None]:
    """Whether a deterministic generator also has at most one nonzero per row.

    Raises ``ValueError`` for non-deterministic input; the witness names the
    first offending ``(symbol, row)``.
    """
    det, witness = is_deterministic(m)
    if not det:
        raise ValueError(
            f"reversibility is only defined for deterministic generators; "
            f"symbol {witness[0]!r} column {witness[1]} has multiple nonzero entries"
        )
    witness = _first_crowded(m, axis=1)
    return witness is None, witness
