"""Process-language analytics over classical and quantum models.

Every model is first compiled to one real linear representation (per-symbol
matrices, an initial vector and a unit functional), on which exhaustive word
distributions (batched level by level), finite Hankel blocks with their
rank-based lower bound on hidden-state counts, and reproducible trajectory
sampling all run. Block entropy works on the resulting distributions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import classical, quantum
from .classical import HmmModel
from .linalg import hermitian_basis, numerical_rank, transfer_matrix, vec
from .quantum import HqmmModel

ENUMERATION_BUDGET = 10**7

Word = tuple[str, ...]


def linear_representation(model, initial=None) -> tuple[np.ndarray, np.ndarray, int]:
    """Real ``(A, v0, d)`` with ``P(s_1 ... s_n) = <1| A_{s_n} ... A_{s_1} v0``.

    ``A`` stacks one D x D matrix per symbol in alphabet order and ``<1|`` is
    the sum of the first ``d`` coordinates. A classical model gives its
    ``T_s`` and resolved initial distribution (``D = d``). A quantum model
    gives its operations in the real Hermitian basis of
    ``linalg.hermitian_basis`` (``D = d^2``), whose first ``d`` coordinates
    are the diagonal, so ``<1|`` is the trace.
    """
    if isinstance(model, HmmModel):
        mats = np.stack([model.transitions[s] for s in model.alphabet])
        return mats, classical.resolve_initial(model, initial), model.n_states
    if isinstance(model, HqmmModel):
        d = model.dim
        c = hermitian_basis(d)
        mats = np.stack(
            [
                (c @ transfer_matrix(ops) @ c.conj().T).real
                if ops
                else np.zeros((d * d, d * d))
                for ops in (model.operations[s] for s in model.alphabet)
            ]
        )
        v0 = (c @ vec(quantum.resolve_initial(model, initial))).real
        return mats, v0, d
    raise TypeError(f"unsupported model type {type(model).__name__}")


@dataclass(frozen=True)
class WordDistribution:
    """Complete probability table over all words of one length."""

    length: int
    alphabet: tuple[str, ...]
    probabilities: dict[Word, float]

    def total(self) -> float:
        return float(sum(self.probabilities.values()))

    def marginalize_last(self) -> "WordDistribution":
        """Sum out the final symbol, giving the length-(n-1) table."""
        if self.length == 0:
            raise ValueError("cannot marginalize the empty-word distribution")
        probs: dict[Word, float] = {}
        for word, p in self.probabilities.items():
            probs[word[:-1]] = probs.get(word[:-1], 0.0) + p
        return WordDistribution(self.length - 1, self.alphabet, probs)


def enumerate_distribution(model, n: int, initial=None) -> WordDistribution:
    """All length-n word probabilities, evaluated level by level.

    Level m holds the unnormalized states of all k^m prefixes in
    ``itertools.product`` order, and one batched product per level extends
    every prefix by every symbol, so the whole table costs one matrix-vector
    product per prefix-tree node. Probabilities are clamped to [0, 1].
    Refuses alphabets/lengths beyond ``ENUMERATION_BUDGET`` words.
    """
    if n < 0:
        raise ValueError(f"word length must be nonnegative, got {n}")
    alphabet = model.alphabet
    if len(alphabet) ** n > ENUMERATION_BUDGET:
        raise ValueError(
            f"enumeration of {len(alphabet)}^{n} words exceeds the "
            f"{ENUMERATION_BUDGET} budget"
        )
    mats, v0, d = linear_representation(model, initial)
    states = v0[np.newaxis]
    for _ in range(n):
        states = np.einsum("sij,pj->psi", mats, states).reshape(-1, v0.size)
    probs = np.clip(states[:, :d].sum(axis=1), 0.0, 1.0)
    words = itertools.product(alphabet, repeat=n)
    return WordDistribution(
        length=n, alphabet=tuple(alphabet), probabilities=dict(zip(words, probs.tolist()))
    )


def block_entropy(dist: WordDistribution) -> float:
    """Shannon entropy in bits, with the 0 log 0 = 0 convention."""
    h = 0.0
    for p in dist.probabilities.values():
        if p > 0.0:
            h -= p * math.log2(p)
    return h


@dataclass(frozen=True)
class HankelBlock:
    """Finite sub-block of the word-probability Hankel matrix.

    Entry ``(u, v)`` is ``P(v . u)``: the column word happens first in time,
    the row word second, matching the factorization
    ``H[u, v] = <1| T_u T_v |pi>``.
    """

    row_words: tuple[Word, ...]
    col_words: tuple[Word, ...]
    matrix: np.ndarray


def _as_words(words, alphabet) -> tuple[Word, ...]:
    out = []
    for w in words:
        word = tuple(w)
        for s in word:
            if s not in alphabet:
                raise ValueError(f"unknown symbol {s!r}; alphabet is {tuple(alphabet)}")
        out.append(word)
    return tuple(out)


def hankel_block(
    model,
    row_words: Iterable[Iterable[str]] | None = None,
    col_words: Iterable[Iterable[str]] | None = None,
) -> HankelBlock:
    """Word-probability block; defaults to {empty word} union single symbols."""
    alphabet = tuple(model.alphabet)
    default = ((),) + tuple((s,) for s in alphabet)
    rows = _as_words(row_words, alphabet) if row_words is not None else default
    cols = _as_words(col_words, alphabet) if col_words is not None else default
    mats, v0, d = linear_representation(model)
    index = {s: i for i, s in enumerate(alphabet)}
    # H = B F: row u of B is <1| A_u, column v of F is A_v v0
    back = np.zeros((len(rows), v0.size))
    for i, u in enumerate(rows):
        b = np.zeros(v0.size)
        b[:d] = 1.0
        for s in reversed(u):
            b = b @ mats[index[s]]
        back[i] = b
    forward = np.zeros((v0.size, len(cols)))
    for j, v in enumerate(cols):
        f = v0
        for s in v:
            f = mats[index[s]] @ f
        forward[:, j] = f
    h = np.clip(back @ forward, 0.0, 1.0)
    return HankelBlock(row_words=rows, col_words=cols, matrix=h)


def state_count_lower_bound(
    model,
    row_words: Iterable[Iterable[str]] | None = None,
    col_words: Iterable[Iterable[str]] | None = None,
    tol: float | None = None,
) -> int:
    """Numerical rank of the Hankel block: no classical generator of the
    process can have fewer internal states."""
    return numerical_rank(hankel_block(model, row_words, col_words).matrix, tol)


class Xorshift64Star:
    """Marsaglia xorshift64* generator.

    Shift triple (12, 25, 27) with multiplier 2685821657736338717; uniform
    doubles take the top 53 bits of the output word. A zero seed (the one
    state the shift register cannot leave) is replaced by a fixed odd
    constant, so every seed is usable and every sequence is reproducible
    across implementations.
    """

    _MASK = (1 << 64) - 1
    _MULT = 2685821657736338717
    _ZERO_SEED = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.state = (int(seed) & self._MASK) or self._ZERO_SEED

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & self._MASK
        x ^= x >> 27
        self.state = x
        return (x * self._MULT) & self._MASK

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53


def _draw(masses: Sequence[float], rng: Xorshift64Star) -> int:
    """Index drawn from clamped, renormalized per-step masses."""
    total = 0.0
    for w in masses:
        if w > 0.0:
            total += w
    if total <= 0.0:
        raise ValueError("all next-symbol probabilities vanished while sampling")
    u = rng.next_float() * total
    acc = 0.0
    choice = -1
    for k, w in enumerate(masses):
        if w > 0.0:
            acc += w
            choice = k
            if u < acc:
                break
    return choice


_STATE_CACHE_CAP = 1 << 16


def _sample_loop(length, rng, alphabet, key0, masses_of, next_of) -> list[str]:
    """Shared sampling loop over hashable state keys.

    The per-step masses and conditional successors are pure functions of the
    state, so they are memoized on the exact state value; models whose
    conditional states form a finite set (the usual case for the bundled
    models) then run in amortized constant time per step. The cache is
    size-capped; overflow just recomputes.
    """
    cache: dict = {}
    key = key0
    out: list[str] = []
    for _ in range(length):
        entry = cache.get(key)
        if entry is None:
            entry = (masses_of(key), {})
            if len(cache) < _STATE_CACHE_CAP:
                cache[key] = entry
        masses, nexts = entry
        k = _draw(masses, rng)
        nxt = nexts.get(k)
        if nxt is None:
            nxt = next_of(key, k, masses[k])
            nexts[k] = nxt
        key = nxt
        out.append(alphabet[k])
    return out


def _sample_linear(mats, v0, d, length, rng, alphabet) -> list[str]:
    # plain-Python state tuples: the matrices are tiny and call overhead
    # dominates numpy at this size
    rows = [[list(map(float, row)) for row in a] for a in mats]
    units = [[sum(a[i][j] for i in range(d)) for j in range(len(a))] for a in rows]
    rng_n = range(len(v0))

    def masses_of(v):
        return [sum(u[j] * v[j] for j in rng_n) for u in units]

    def next_of(v, k, mass):
        t = rows[k]
        return tuple(sum(t[i][j] * v[j] for j in rng_n) / mass for i in rng_n)

    return _sample_loop(
        length, rng, alphabet, tuple(float(x) for x in v0), masses_of, next_of
    )


def _sample_hqmm2(model: HqmmModel, length, rng, rho0, alphabet) -> list[str]:
    # unrolled qubit case; the cluster models have aperiodic conditional
    # orbits, so the miss path is the hot path
    ops = [
        [
            (complex(k[0, 0]), complex(k[0, 1]), complex(k[1, 0]), complex(k[1, 1]))
            for k in model._stacks[s]
        ]
        for s in alphabet
    ]
    conj_ops = [[tuple(x.conjugate() for x in k) for k in sym] for sym in ops]
    grams = [
        (complex(g[0, 0]), complex(g[0, 1]), complex(g[1, 0]), complex(g[1, 1]))
        for g in (model._grams[s] for s in alphabet)
    ]

    def masses_of(key):
        r00, r01, r10, r11 = key
        return [
            (g00 * r00 + g01 * r10 + g10 * r01 + g11 * r11).real
            for g00, g01, g10, g11 in grams
        ]

    def next_of(key, k, mass):
        r00, r01, r10, r11 = key
        s00 = s01 = s10 = s11 = 0j
        for (k00, k01, k10, k11), (c00, c01, c10, c11) in zip(ops[k], conj_ops[k]):
            a00 = k00 * r00 + k01 * r10
            a01 = k00 * r01 + k01 * r11
            a10 = k10 * r00 + k11 * r10
            a11 = k10 * r01 + k11 * r11
            s00 += a00 * c00 + a01 * c01
            s01 += a00 * c10 + a01 * c11
            s10 += a10 * c00 + a11 * c01
            s11 += a10 * c10 + a11 * c11
        scale = 2.0 * mass
        return (
            (s00 + s00.conjugate()) / scale,
            (s01 + s10.conjugate()) / scale,
            (s10 + s01.conjugate()) / scale,
            (s11 + s11.conjugate()) / scale,
        )

    key0 = tuple(complex(x) for x in np.asarray(rho0, dtype=complex).ravel())
    return _sample_loop(length, rng, alphabet, key0, masses_of, next_of)


def sample_trajectory(
    model, length: int, seed: int, initial=None
) -> list[str]:
    """Draw a symbol sequence by iterated conditional update.

    Deterministic given (model, length, seed); the generator is the
    documented xorshift64* shift register, so sequences are reproducible.
    Per-step probabilities are clamped at zero and renormalized before
    drawing, so round-off noise cannot produce invalid draws.
    """
    if length < 0:
        raise ValueError(f"trajectory length must be nonnegative, got {length}")
    alphabet = tuple(model.alphabet)
    rng = Xorshift64Star(seed)
    if isinstance(model, HqmmModel) and model.dim == 2:
        # unrolled qubit kernel: half the time of the 4 x 4 real loop on the cluster miss path
        rho0 = quantum.resolve_initial(model, initial)
        return _sample_hqmm2(model, length, rng, rho0, alphabet)
    mats, v0, d = linear_representation(model, initial)
    return _sample_linear(mats, v0, d, length, rng, alphabet)
