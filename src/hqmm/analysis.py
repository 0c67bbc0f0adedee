"""Process-language analytics over classical and quantum models.

Every model is first compiled to one real ``Representation`` (per-symbol
matrices, an initial vector and a unit functional), on which word
probabilities, exhaustive word distributions, finite Hankel blocks with
their rank-based lower bound on hidden-state counts, and reproducible
trajectory sampling all run. Block entropy works on the distributions.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import logging
import math
import operator
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from . import modelfile
from .linalg import _walk, checked_integer, checked_probability, checked_word, numerical_rank

logger = logging.getLogger(__name__)

ENUMERATION_BUDGET_BYTES = 2 * 2**30
# per word, beyond its states: the clipped probability in the table's array,
# and for a caller that materializes the items (the CLI's sorted list) its
# Python float, key tuple header and list slots
_WORD_ENTRY_BYTES = 200

Word = tuple[str, ...]


class Representation(NamedTuple):
    """The real ``(mats, v0, d)`` of a model; see ``linear_representation``."""

    mats: np.ndarray
    v0: np.ndarray
    d: int

    def probability(self, word, alphabet) -> float:
        """``<1| A_w v0>`` of a word over the ``alphabet`` that orders ``mats``,
        clamped to [0, 1]; see ``linalg.checked_probability``."""
        v = _walk(dict(zip(alphabet, self.mats)), self.v0, checked_word(word, alphabet))
        return checked_probability(float(v[: self.d].sum()), "word probability")


def linear_representation(model, initial=None) -> Representation:
    """``(mats, v0, d)`` with ``P(s_1 ... s_n) = <1| A_{s_n} ... A_{s_1} v0``.

    The one join of a kind's ``core.operators`` (``mats``, one D x D ``A_s``
    per symbol in alphabet order) and ``core.start_vector`` (``v0``: the
    ``initial`` start, else the model's own, else the stationary state), with
    ``d = model.dim``; ``<1|`` sums the first ``d`` coordinates. A classical
    model gives its ``T_s`` and its distribution (``D = d``). A quantum model
    gives its operations in the real Hermitian basis of
    ``linalg.hermitian_basis`` (``D = d^2``), whose first ``d`` coordinates
    are the diagonal, so ``<1|`` is the trace: each ``A_s`` is
    ``linalg.hermitian_real_form`` of its transfer matrix, gathered in O(d^4)
    without forming the basis, and ``v0`` is ``linalg.hermitian_coordinates``
    of the state. Raises ``ValueError`` when an entry of either is not finite.
    """
    kind = modelfile.kind_of(model)
    if kind is None or kind.core is None:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    mats = kind.core.operators(model)
    return Representation(mats, kind.core.start_vector(model, initial), model.dim)


def _checked_length(length, what: str = "word length") -> int:
    """A length as a Python int; a non-integer or negative one is a
    ``ValueError`` naming ``what``."""
    length = checked_integer(length, what)
    if length < 0:
        raise ValueError(f"{what} must be nonnegative, got {length}")
    return length


class WordTable(Mapping):
    """Read-only word -> probability mapping over one float64 array.

    Entry ``i`` of ``array`` is the probability of the ``i``-th word of
    ``itertools.product(alphabet, repeat=length)``. Iteration generates the
    words in that order, a lookup finds its entry by index arithmetic, and
    values come back as Python floats. Words are tuples of symbols, as in a
    dict keyed by them: any other key is missing. The table takes ownership
    of ``array`` and makes it read-only.
    """

    __slots__ = ("alphabet", "length", "array", "_index")

    def __init__(self, alphabet, length: int, array: np.ndarray):
        self.alphabet = tuple(alphabet)
        self.length = length = _checked_length(length)
        k = len(self.alphabet)
        # k**length up to the 4300 digits Python prints; past them it can take seconds
        words = k**length if k < 2 or length * math.log10(k) < 4300 else f"{k}^{length}"
        if array.dtype != np.float64 or array.shape != (words,):
            raise ValueError(
                f"a length-{length} table over {k} symbols needs "
                f"{words} float64 entries, got {array.dtype} {array.shape}"
            )
        array.flags.writeable = False
        self.array = array
        self._index = {s: i for i, s in enumerate(self.alphabet)}

    @classmethod
    def from_mapping(cls, alphabet, length: int, table) -> "WordTable":
        """Copy a complete ``{word: probability}`` mapping, given in any
        order, into product order. Raises ``ValueError`` naming the first
        word that is not a length-``length`` tuple, has an unknown symbol or
        is missing."""
        length = _checked_length(length)
        alphabet = tuple(alphabet)
        k = len(alphabet)
        _require_budget(_enumeration_bytes(max(k, 1), length, 0), f"a table of {k}^{length} words")
        index = {s: i for i, s in enumerate(alphabet)}
        array = np.zeros(k**length)
        filled = np.zeros(k**length, dtype=bool)
        for word, p in table.items():
            if not isinstance(word, tuple) or len(word) != length:
                raise ValueError(f"word {word!r} is not a tuple of {length} symbols")
            i = 0
            for s in word:
                if s not in index:
                    raise ValueError(
                        f"unknown symbol {s!r} in word {word!r}; alphabet is {alphabet}"
                    )
                i = i * k + index[s]
            array[i] = p
            filled[i] = True
        if not filled.all():
            words = itertools.product(alphabet, repeat=length)
            missing = next(itertools.compress(words, (~filled).tolist()))
            raise ValueError(f"missing word {missing!r} in a complete length-{length} table")
        return cls(alphabet, length, array)

    def __getitem__(self, word) -> float:
        if not isinstance(word, tuple) or len(word) != self.length:
            raise KeyError(word)
        k, i = len(self.alphabet), 0
        try:
            for s in word:
                i = i * k + self._index[s]
        except (KeyError, TypeError):
            raise KeyError(word) from None
        return self.array.item(i)

    def __iter__(self):
        return itertools.product(self.alphabet, repeat=self.length)

    def __len__(self) -> int:
        return self.array.size

    def items(self):
        return _TableItems(self)

    def values(self):
        return _TableValues(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class _TableItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, self._mapping.array.tolist())


class _TableValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping.array.tolist())


@dataclass(frozen=True)
class WordDistribution:
    """Complete probability table over all words of one length.

    ``probabilities`` is a read-only ``WordTable``: a mapping from each word
    to its probability, in ``itertools.product`` order, backed by one
    float64 array. Any other complete mapping given here is copied into one
    once; a missing word, an unknown symbol or a wrong-length word raises
    ``ValueError``. ``total`` and ``block_entropy`` add Python floats one
    by one in product order: ``sum`` (compensated from Python 3.12 on) and
    ``math.log2`` fix the rounding of the reported totals and entropies,
    where a NumPy reduction would leave the order of its additions open.
    """

    length: int
    alphabet: tuple[str, ...]
    probabilities: Mapping[Word, float]

    def __post_init__(self):
        object.__setattr__(self, "length", _checked_length(self.length))
        table = self.probabilities
        if not (
            isinstance(table, WordTable)
            and table.alphabet == tuple(self.alphabet)
            and table.length == self.length
        ):
            table = WordTable.from_mapping(self.alphabet, self.length, table)
            object.__setattr__(self, "probabilities", table)

    def total(self) -> float:
        return float(sum(self.probabilities.values()))

    def marginalize_last(self) -> "WordDistribution":
        """Sum out the final symbol, giving the length-(n-1) table.

        Each prefix's mass is ``0.0 + p(prefix, a_1) + ... + p(prefix, a_k)``,
        added left to right in alphabet order: one vector ``+=`` per symbol,
        not a reduction, whose summation order NumPy leaves open.
        """
        if self.length == 0:
            raise ValueError("cannot marginalize the empty-word distribution")
        k = len(self.alphabet)
        words = self.probabilities.array.reshape(k ** (self.length - 1), k)
        probs = np.zeros(words.shape[0])
        for column in words.T:
            probs += column
        table = WordTable(self.alphabet, self.length - 1, probs)
        return WordDistribution(self.length - 1, self.alphabet, table)


def _require_budget(need: int, what: str) -> None:
    """Raise ``ValueError`` when ``need`` bytes pass ``ENUMERATION_BUDGET_BYTES``."""
    if need > ENUMERATION_BUDGET_BYTES:
        try:
            size = f"about {need / 2**30:.3g} GiB"
        except OverflowError:
            size = "more than 1e308 GiB"
        budget = ENUMERATION_BUDGET_BYTES / 2**30
        raise ValueError(f"{what} needs {size}, over the {budget:g} GiB budget")


def _enumeration_bytes(k: int, n: int, dim: int) -> int:
    """Peak memory estimate, in bytes, of a length-``n`` enumeration over
    ``k`` symbols of a representation with ``dim`` real coordinates.

    It counts the last level of states and the ``einsum`` output built from
    it (``8 dim`` bytes per prefix and per word), and per word one item of
    the table as a caller materializes it, such as the CLI's sorted list of
    items (``_WORD_ENTRY_BYTES`` plus 8 bytes per symbol of its key). The
    table itself holds only 8 bytes per word, but the printed and summed
    tables are the point of an enumeration, so neither that term nor
    ``ENUMERATION_BUDGET_BYTES`` was lowered when the table became an array.
    """
    if k > 1 and n > 1100:
        # past 2**1100 words, where building k**n would take minutes at a huge n
        return 2**1100
    words = k**n
    return 8 * dim * (words + words // k) + words * (_WORD_ENTRY_BYTES + 8 * n)


def enumerate_distribution(model, n: int, initial=None) -> WordDistribution:
    """All length-n word probabilities, evaluated level by level.

    Level m holds the unnormalized states of all k^m prefixes in
    ``itertools.product`` order, and one batched product per level extends
    every prefix by every symbol, so the whole table costs one matrix-vector
    product per prefix-tree node. Probabilities are clamped to [0, 1], and
    the clamped array becomes the ``WordTable`` of the result unchanged, in
    the same product order: no per-word dict is built. Refuses tables whose
    memory estimate (``_enumeration_bytes``) exceeds
    ``ENUMERATION_BUDGET_BYTES``, before any level is built.
    """
    n = _checked_length(n)
    alphabet = model.alphabet
    mats, v0, d = linear_representation(model, initial)
    need = _enumeration_bytes(len(alphabet), n, v0.size)
    _require_budget(need, f"enumeration of {len(alphabet)}^{n} words over {v0.size} coordinates")
    states = v0[np.newaxis]
    for _ in range(n):
        states = np.einsum("sij,pj->psi", mats, states).reshape(-1, v0.size)
    probs = np.clip(states[:, :d].sum(axis=1), 0.0, 1.0)
    table = WordTable(alphabet, n, probs)
    return WordDistribution(length=n, alphabet=table.alphabet, probabilities=table)


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


def hankel_block(
    model,
    row_words: Iterable[Iterable[str]] | None = None,
    col_words: Iterable[Iterable[str]] | None = None,
    initial=None,
) -> HankelBlock:
    """Word-probability block; defaults to {empty word} union single symbols.

    ``initial`` is the start state, as in ``linear_representation``; by
    default the model's own, else its stationary state. A quantum model
    keeps its stationary state and real-form operators once computed (see
    ``quantum.steady_state`` and ``quantum.operators``); a classical one
    solves again on each call, so a caller that already holds an ``hmm``
    model's state passes it to skip a second solve."""
    alphabet = tuple(model.alphabet)
    default = ((),) + tuple((s,) for s in alphabet)
    rows = default if row_words is None else tuple(checked_word(w, alphabet) for w in row_words)
    cols = default if col_words is None else tuple(checked_word(w, alphabet) for w in col_words)
    mats, v0, d = linear_representation(model, initial)
    # H = B F: row u of B is <1| A_u, walked back through the A_s^T; column v of F is A_v v0
    unit = np.zeros(v0.size)
    unit[:d] = 1.0
    step, back_step = dict(zip(alphabet, mats)), dict(zip(alphabet, mats.transpose(0, 2, 1)))
    back = np.zeros((len(rows), v0.size))
    for i, u in enumerate(rows):
        back[i] = _walk(back_step, unit, reversed(u))
    forward = np.zeros((v0.size, len(cols)))
    for j, v in enumerate(cols):
        forward[:, j] = _walk(step, v0, v)
    h = np.clip(back @ forward, 0.0, 1.0)
    return HankelBlock(row_words=rows, col_words=cols, matrix=h)


def state_count_lower_bound(
    model,
    row_words: Iterable[Iterable[str]] | None = None,
    col_words: Iterable[Iterable[str]] | None = None,
) -> int:
    """Numerical rank of the Hankel block: no classical generator of the
    process can have fewer internal states."""
    return numerical_rank(hankel_block(model, row_words, col_words).matrix)


class Xorshift64Star:
    """Marsaglia xorshift64* generator.

    Shift triple (12, 25, 27) with multiplier 2685821657736338717; uniform
    doubles take the top 53 bits of the output word. A zero seed (the one
    state the shift register cannot leave) is replaced by a fixed odd
    constant, so every seed is usable and every sequence is reproducible
    across implementations; a non-integer seed is a ``ValueError``. The
    sampler draws the same stream in blocks (``_xorshift_block``), so the
    two must change together.
    """

    _MASK = (1 << 64) - 1
    _MULT = 2685821657736338717
    _ZERO_SEED = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.state = (checked_integer(seed, "seed") & self._MASK) or self._ZERO_SEED

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


_JUMP = 512  # xorshift64* draws generated per block


@functools.lru_cache(maxsize=None)
def _jump_table() -> np.ndarray:
    """uint64 ``(64, _JUMP)`` table whose entry ``[i, s]`` is the xorshift64*
    state ``s + 1`` steps after ``1 << i``, built on first use by stepping
    the 64 unit states together (uint64 shifts drop the high bits)."""
    table = np.empty((64, _JUMP), dtype=np.uint64)
    x = np.uint64(1) << np.arange(64, dtype=np.uint64)
    for s in range(_JUMP):
        x ^= x >> np.uint64(12)
        x ^= x << np.uint64(25)
        x ^= x >> np.uint64(27)
        table[:, s] = x
    table.flags.writeable = False  # one table is shared by every call
    return table


def _xorshift_block(x: int, size: int) -> tuple[np.ndarray, list[float]]:
    """uint64 states and uniforms of the ``size <= _JUMP`` draws after state
    ``x``, equal to ``Xorshift64Star``'s. The step is linear over GF(2)
    (Marsaglia 2003), so each state is the XOR of the table rows of ``x``'s
    set bits (Haramoto et al. 2008)."""
    rows = [i for i in range(64) if x >> i & 1]
    states = np.bitwise_xor.reduce(_jump_table()[rows, :size], axis=0)
    words = (states * np.uint64(Xorshift64Star._MULT)) >> np.uint64(11)
    return states, (words * 2.0**-53).tolist()


_STATE_CACHE_CAP = 256
_COMPILED_TERMS = 256  # terms (D^2) of the largest successor kernel compiled
_KERNEL_MEMO = 16  # representations whose compiled kernels a process keeps


def _define(header, lines, namespace):
    """The function ``f`` defined by ``header`` and the body ``lines``, with
    ``namespace`` as its globals. ``f`` is taken out of them, so that it
    holds no reference cycle and is freed as soon as it is dropped."""
    exec(header + "\n" + "".join(f"    {line}\n" for line in lines), namespace)
    return namespace.pop("f")


def _units(mats, d):
    """Per symbol, the row ``<1| A_s``: each column's first ``d`` entries
    added left to right."""
    # reduce, not sum(): from Python 3.12 sum() of floats is compensated
    return [[functools.reduce(operator.add, col) for col in a[:d].T.tolist()] for a in mats]


def _last_with_mass(masses) -> int:
    """The symbol a draw takes when ``u * total`` rounded up to the total:
    the last one with positive mass. With none, the total is zero and the
    draw raises ``ValueError``."""
    k = max((i for i, w in enumerate(masses) if w > 0.0), default=None)
    if k is None:
        raise ValueError("all next-symbol probabilities vanished while sampling")
    return k


def _kernels(mats, d):
    """The sampler's ``(entry_of, successors, run)`` on state tuples ``v``.

    ``entry_of(v)`` is ``v``'s cache entry ``[None, ..., None, sums,
    masses, v]``: ``masses`` holds ``w_k = <1| A_k v`` per symbol and
    ``sums`` their clamped running sums ``c_k = max(w_0, 0) + ... +
    max(w_k, 0)``, added left to right, so that the first ``c_k`` beyond
    ``u * c_{n-1}`` draws symbol ``k``; slot ``k < n`` receives the entry of
    symbol ``k``'s successor once ``_sample_linear`` links the two.
    ``successors[k](v, m)`` is ``A_k v / m``. And
    ``run(v, draws, out, symbols) -> v`` draws one symbol per uniform of
    ``draws`` from state ``v``, appends it to ``out`` and returns the last
    state, keeping nothing: each step computes what the other two do, and
    where no ``c_k`` exceeds ``u c_{n-1}`` takes ``_last_with_mass``.

    Up to ``_COMPILED_TERMS`` terms per successor all three are compiled,
    once per process and representation (``_compiled_kernels``). Above it,
    where compiling costs more than it saves,
    ``np.add.accumulate(a * x, axis=1)[:, -1]`` adds each row left to right,
    also the exact-zero terms that the compiled sums drop, which can change
    at most the sign of a zero sum, and ``run`` loops over the other two;
    so both kinds give the same Python floats and draw the same sequences.
    """
    if mats.shape[1] ** 2 <= _COMPILED_TERMS:
        return _compiled_kernels(mats.tobytes(), mats.shape, d)
    n = len(mats)
    units = np.array(_units(mats, d))
    accumulate = np.add.accumulate  # np.cumsum without its wrapper's microseconds
    bisect_right = bisect.bisect_right

    def entry_of(v):
        masses = tuple(accumulate(units * v, axis=1)[:, -1].tolist())
        sums = itertools.accumulate(masses, lambda c, w: c + w if w > 0.0 else c, initial=0.0)
        return [*itertools.repeat(None, n), tuple(sums)[1:], masses, v]

    def successor(a):
        return lambda v, m: tuple((accumulate(a * v, axis=1)[:, -1] / m).tolist())

    successors = tuple(successor(a) for a in mats)

    def run(v, draws, out, symbols):
        for u in draws:
            entry = entry_of(v)
            sums, masses = entry[n], entry[n + 1]
            k = bisect_right(sums, u * sums[-1])
            if k == n:
                k = _last_with_mass(masses)
            v = successors[k](v, masses[k])
            out.append(symbols[k])
        return v

    return entry_of, successors, run


# The compiled kernels are memoized on the representation's content (its
# float64 bytes, shape and d), never on an object's identity, so that a
# process compiles each representation once however often it samples it; at
# most _KERNEL_MEMO representations are kept.


@functools.lru_cache(maxsize=_KERNEL_MEMO)
def _compiled_kernels(data: bytes, shape: tuple, d: int):
    """``_kernels``' compiled ``(entry_of, successors, run)`` of the float64
    matrices ``data``.

    Each sum is one expression over the nonzero terms, left to right:
    ``repr`` round-trips every float, so it rounds exactly like the plain
    loop over all terms, and an exact-zero term changes at most the sign of
    a zero sum. The masses, their clamped sums and every successor row are
    written once, and all three functions are built from those same
    strings, so they add the same terms in the same order and divide the
    same way. The coordinates are locals ``x0 ...``, unpacked from the state
    tuple ``v``: cheaper than spreading it into an argument tuple per call.
    ``run`` holds them across its steps, and at the rounding edge calls the
    compiled successor kernel.
    """
    mats = np.frombuffer(data).reshape(shape)
    n = shape[0]

    def names(prefix, count):
        return ", ".join(f"{prefix}{i}" for i in range(count)) + ","

    def dot(row):
        return " + ".join(f"{c!r}*x{j}" for j, c in enumerate(row) if c != 0.0) or "0.0"

    state, ys = names("x", shape[1]), names("y", n)
    masses = [f"y{k} = {dot(unit)}" for k, unit in enumerate(_units(mats, d))]
    masses += ["c0 = y0 if y0 > 0.0 else 0.0"]
    masses += [f"c{k} = c{k - 1} + y{k} if y{k} > 0.0 else c{k - 1}" for k in range(1, n)]
    rows = [[f"({dot(row)})" for row in a] for a in mats.tolist()]

    def divided(k, by):
        return ", ".join(f"{row} / {by}" for row in rows[k]) + ","

    entry = [f"{state} = v", *masses, f"return [{'None, ' * n}({names('c', n)}), ({ys}), v]"]
    successors = tuple(
        _define("def f(v, m):", [f"{state} = v", f"return ({divided(k, 'm')})"], {})
        for k in range(n)
    )
    step = [*masses, f"t = u * c{n - 1}"]
    for k in range(n):
        step += [f"{'elif' if k else 'if'} c{k} > t:", f"    {state} = {divided(k, f'y{k}')}"]
        step += [f"    append(s{k})"]
    step += ["else:", f"    k = last_with_mass(({ys}))"]
    step += [f"    {state} = successors[k](({state}), ({ys})[k])", "    append(symbols[k])"]
    loop = [f"{state} = v", f"{names('s', n)} = symbols", "append = out.append", "for u in draws:"]
    loop += [*(f"    {line}" for line in step), f"return ({state})"]
    namespace = {"last_with_mass": _last_with_mass, "successors": successors}
    run = _define("def f(v, draws, out, symbols):", loop, namespace)
    return _define("def f(v):", entry, {}), successors, run


def _sample_linear(mats, v0, d, length, rng, alphabet) -> list[str]:
    """Iterated conditional update ``v -> A_s v / <1| A_s v`` on plain floats,
    with the kernels of ``_kernels``.

    The first ``_STATE_CACHE_CAP`` entries are admitted to a cache keyed on
    the exact state, and an admitted successor is linked into its
    predecessor's slot, so recurring states (a unifilar generator's) step by
    following links, with no hashing. An empty slot computes the successor
    from the entry's state and looks it up. The states of a quantum readout
    almost never recur, so there the small cap just bounds the dead weight:
    the first miss once the cache is full hands the rest of the draw to the
    ``run`` kernel, which keeps no entries, and the loop does nothing else
    from then on. A zero total is raised at the step that draws from it.
    The draws come in blocks from ``_xorshift_block``, each seeded by the
    last state of the one before; ``rng.state`` ends as the state after the
    last draw, or after the draw that raised. One DEBUG record on the
    ``hqmm.analysis`` logger gives the steps, the entries computed (past the
    hand-over, one state per step) and admitted, and the cap; a step that
    computes no entry is a cache hit.
    """
    entry_of, successors, run = _kernels(mats, d)
    n = len(mats)
    bisect_right = bisect.bisect_right
    cache: dict = {}
    cap = _STATE_CACHE_CAP
    v = tuple(v0.tolist())
    entry, computed = entry_of(v), 1
    if len(cache) < cap:
        cache[v] = entry
    out: list[str] = []
    handed = False
    x = rng.state
    try:
        for start in range(0, length, _JUMP):
            states, draws = _xorshift_block(x, min(_JUMP, length - start))
            x = int(states[-1])
            if handed:
                v = run(v, draws, out, alphabet)
                continue
            for u in draws:
                sums = entry[n]
                k = bisect_right(sums, u * sums[-1])
                if k == n:
                    k = _last_with_mass(entry[n + 1])
                nxt = entry[k]
                if nxt is None:
                    v = successors[k](entry[n + 2], entry[n + 1][k])
                    nxt = cache.get(v)
                    if nxt is not None:
                        entry[k] = nxt
                    elif len(cache) < cap:
                        nxt = cache[v] = entry[k] = entry_of(v)
                        computed += 1
                    else:
                        # a miss with the cache full: the run kernel draws the rest
                        out.append(alphabet[k])
                        computed += 1 + length - len(out)
                        handed = True
                        v = run(v, draws[len(out) - start :], out, alphabet)
                        break
                entry = nxt
                out.append(alphabet[k])
    except ValueError:
        # a vanished mass: the raising draw is the one after the len(out) drawn
        x = int(states[len(out) - start])
        raise
    finally:
        rng.state = x
    if logger.isEnabledFor(logging.DEBUG):
        message = "sampled %d steps, %d entries computed, %d admitted, cap %d"
        logger.debug(message, length, computed, len(cache), cap)
    return out


def _trajectory_bytes(length: int, alphabet) -> int:
    """Peak memory estimate, in bytes, of a ``length``-symbol draw: per symbol a list slot
    (8 bytes, up to an eighth more as the list grows) and, in a printed line such as
    the CLI's, its characters and a separator at up to 4 bytes each."""
    return length * (9 + 4 * (1 + max(map(len, alphabet))))


def sample_trajectory(
    model, length: int, seed: int, initial=None
) -> list[str]:
    """Draw a symbol sequence by iterated conditional update.

    Every model runs the same memoized loop on its real linear
    representation (see ``linear_representation``). Deterministic given
    (model, length, seed); the generator is the documented xorshift64* shift
    register, so sequences are reproducible. Per-step probabilities are
    clamped at zero and renormalized before drawing, so round-off noise
    cannot produce invalid draws. Refuses lengths whose memory estimate
    (``_trajectory_bytes``) exceeds ``ENUMERATION_BUDGET_BYTES`` before building anything.
    """
    length = _checked_length(length, "trajectory length")
    _require_budget(_trajectory_bytes(length, model.alphabet), f"a trajectory of {length} symbols")
    mats, v0, d = linear_representation(model, initial)
    return _sample_linear(mats, v0, d, length, Xorshift64Star(seed), tuple(model.alphabet))
