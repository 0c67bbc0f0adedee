"""Process-language analytics over classical and quantum models.

Every model is first compiled to one real linear representation (per-symbol
matrices, an initial vector and a unit functional), on which exhaustive word
distributions (batched level by level), finite Hankel blocks with their
rank-based lower bound on hidden-state counts, and reproducible trajectory
sampling all run. Block entropy works on the resulting distributions.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import modelfile
from .linalg import numerical_rank

ENUMERATION_BUDGET_BYTES = 2 * 2**30
# per word, beyond its states: the clipped probability in the table's array,
# and for a caller that materializes the items (the CLI's sorted list) its
# Python float, key tuple header and list slots
_WORD_ENTRY_BYTES = 200

Word = tuple[str, ...]


def linear_representation(model, initial=None) -> tuple[np.ndarray, np.ndarray, int]:
    """Real ``(A, v0, d)`` with ``P(s_1 ... s_n) = <1| A_{s_n} ... A_{s_1} v0``.

    ``A`` stacks one D x D matrix per symbol in alphabet order and ``<1|`` is
    the sum of the first ``d`` coordinates. A classical model gives its
    ``T_s`` and resolved initial distribution (``D = d``). A quantum model
    gives its operations in the real Hermitian basis of
    ``linalg.hermitian_basis`` (``D = d^2``), whose first ``d`` coordinates
    are the diagonal, so ``<1|`` is the trace. Each operation's matrix is
    ``linalg.hermitian_real_form`` of its transfer matrix, gathered in
    O(d^4) without forming the basis, and ``v0`` is
    ``linalg.hermitian_coordinates`` of the resolved initial state. Raises
    ``ValueError`` when any entry of ``A`` or ``v0`` is not finite.
    """
    kind = modelfile.kind_of(model)
    if kind is None or kind.core is None:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    return kind.core.linear_representation(model, initial)


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
        self.length = length
        if array.dtype != np.float64 or array.shape != (len(self.alphabet) ** length,):
            raise ValueError(
                f"a length-{length} table over {len(self.alphabet)} symbols needs "
                f"{len(self.alphabet) ** length} float64 entries, got {array.dtype} {array.shape}"
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
        if length < 0:
            raise ValueError(f"word length must be nonnegative, got {length}")
        alphabet = tuple(alphabet)
        k = len(alphabet)
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
    if n < 0:
        raise ValueError(f"word length must be nonnegative, got {n}")
    alphabet = model.alphabet
    mats, v0, d = linear_representation(model, initial)
    need = _enumeration_bytes(len(alphabet), n, v0.size)
    if need > ENUMERATION_BUDGET_BYTES:
        raise ValueError(
            f"enumeration of {len(alphabet)}^{n} words over {v0.size} coordinates "
            f"needs about {need / 2**30:.3g} GiB, over the "
            f"{ENUMERATION_BUDGET_BYTES / 2**30:g} GiB budget"
        )
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
    initial=None,
) -> HankelBlock:
    """Word-probability block; defaults to {empty word} union single symbols.

    ``initial`` is the start state, as in ``linear_representation``; by
    default the model's own, else its stationary state. A caller that
    already holds that state passes it to skip a second solve."""
    alphabet = tuple(model.alphabet)
    default = ((),) + tuple((s,) for s in alphabet)
    rows = _as_words(row_words, alphabet) if row_words is not None else default
    cols = _as_words(col_words, alphabet) if col_words is not None else default
    mats, v0, d = linear_representation(model, initial)
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
    across implementations. ``_sample_linear`` repeats ``next_float``'s
    arithmetic inline, so the two must change together.
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


_STATE_CACHE_CAP = 1 << 16
_STATEMENT_TERMS = 256
_FUNCTION_TERMS = 4096


def _define(params, lines, result, namespace=None):
    """Compile ``def f(*params): <lines>; return <result>``; ``namespace``
    holds the other names its body reads."""
    namespace = dict(namespace or {})
    body = "".join(f"    {line}\n" for line in lines)
    exec(f"def f({', '.join(params)}):\n{body}    return {result}\n", namespace)
    return namespace["f"]


def _compile(rows, params, tail="", packed=0, after=(), result=None):
    """Straight-line function of ``params`` returning ``(row . x)tail`` per row.

    ``x`` is the first ``len(row)`` parameters. Each sum runs left to right
    over the row's nonzero entries: ``repr`` round-trips every float, and an
    exact-zero term changes at most the sign of a zero sum, so the result
    rounds exactly like the plain loop over all terms. Long sums continue in
    further statements (``y = y + ...``, still left to right) and long row
    lists in helper functions that the returned function calls in order,
    which bounds the compiler's recursion depth and memory for large D; a
    small model compiles to a single function.

    With ``packed = n`` the first ``n`` parameters arrive as one tuple, the
    argument ``v``, which the body unpacks: cheaper than spreading the state
    into a new argument tuple on every call. Row ``i``'s value is ``y{i}``;
    the statements ``after`` run once all are computed, and ``result``
    replaces the returned tuple of them.
    """
    args = ["v", *params[packed:]] if packed else list(params)
    unpack = [f"{', '.join(params[:packed])}, = v"] if packed else []
    chunks, lines, ys, size = [], [], [], 0
    for i, row in enumerate(rows):
        terms = [f"{c!r}*{x}" for c, x in zip(row, params) if c != 0.0] or ["0.0"]
        if ys and size + len(terms) > _FUNCTION_TERMS:
            chunks.append((lines, ys))
            lines, ys, size = [], [], 0
        parts = [
            " + ".join(terms[k : k + _STATEMENT_TERMS])
            for k in range(0, len(terms), _STATEMENT_TERMS)
        ]
        parts[1:] = [f"y{i} + {part}" for part in parts[1:]]
        if tail:
            parts[-1] = f"({parts[-1]}){tail}"
        lines += [f"y{i} = {part}" for part in parts]
        ys.append(f"y{i}")
        size += len(terms)
    chunks.append((lines, ys))
    if len(chunks) == 1:
        body, helpers = unpack + lines, None
    else:
        helpers = {
            f"g{j}": _define(args, unpack + chunk, f"({', '.join(out)},)")
            for j, (chunk, out) in enumerate(chunks)
        }
        call = ", ".join(args)
        body = [f"{', '.join(out)}, = g{j}({call})" for j, (_, out) in enumerate(chunks)]
    default = ", ".join(f"y{i}" for i in range(len(rows)))
    return _define(args, body + list(after), result or f"({default},)", helpers)


def _entry_kernel(units, params):
    """Straight-line ``v -> [None, ..., None, sums, masses]``, the cache
    entry of a state tuple ``v`` of the ``params`` coordinates.

    ``masses`` holds ``w_k = units[k] . v`` per symbol and ``sums`` their
    clamped running sums ``c_k = max(w_0, 0) + ... + max(w_k, 0)``, summed
    left to right, so that the first ``c_k`` beyond ``u * c_{n-1}`` draws
    symbol ``k``. Slot ``k < n`` receives symbol ``k``'s successor once it
    is computed. One list per visited state, holding tuples of floats, is
    the only object per state that the cyclic garbage collector tracks.
    """
    n = len(units)
    sums = ["c0 = y0 if y0 > 0.0 else 0.0"] + [
        f"c{k} = c{k - 1} + y{k} if y{k} > 0.0 else c{k - 1}" for k in range(1, n)
    ]
    ys = ", ".join(f"y{k}" for k in range(n))
    cs = ", ".join(f"c{k}" for k in range(n))
    result = f"[{'None, ' * n}({cs},), ({ys},)]"
    return _compile(units, params, packed=len(params), after=sums, result=result)


def _sample_linear(mats, v0, d, length, rng, alphabet) -> list[str]:
    """Iterated conditional update ``v -> A_s v / <1| A_s v`` on plain floats.

    The matrices are compiled once per call into straight-line functions of
    the state tuple: one that builds a state's cache entry (all symbol
    masses ``<1| A_s v``, their clamped running sums and empty successor
    slots; see ``_entry_kernel``) and one per symbol for its successor.
    Entries and successors are pure functions of the state, so they are
    memoized on the exact state tuple; models whose conditional states form
    a finite set then run in amortized constant time per step. The cache is
    size-capped; overflow just recomputes. Each draw is the arithmetic of
    ``Xorshift64Star.next_float``, done inline on a local integer that is
    written back to ``rng.state`` when the loop ends.
    """
    params = [f"x{j}" for j in range(len(v0))]
    # reduce, not sum(): from Python 3.12 sum() of floats is compensated
    units = [[functools.reduce(operator.add, col) for col in a[:d].T.tolist()] for a in mats]
    entry_of = _entry_kernel(units, params)
    successors = [_compile(a.tolist(), params + ["m"], " / m", packed=len(params)) for a in mats]
    n = len(mats)
    mask, mult = Xorshift64Star._MASK, Xorshift64Star._MULT
    bisect_right = bisect.bisect_right
    cache: dict = {}
    v = tuple(v0.tolist())
    out: list[str] = []
    x = rng.state
    try:
        for _ in range(length):
            entry = cache.get(v)
            if entry is None:
                entry = entry_of(v)
                if entry[n][-1] <= 0.0:
                    raise ValueError("all next-symbol probabilities vanished while sampling")
                if len(cache) < _STATE_CACHE_CAP:
                    cache[v] = entry
            sums = entry[n]
            # Xorshift64Star.next_float, inlined
            x ^= x >> 12
            x ^= (x << 25) & mask
            x ^= x >> 27
            k = bisect_right(sums, (((x * mult) & mask) >> 11) * 2.0**-53 * sums[-1])
            if k == n:
                # u * total rounded up to total: take the last symbol with mass
                k = max(i for i, w in enumerate(entry[n + 1]) if w > 0.0)
            nxt = entry[k]
            if nxt is None:
                nxt = entry[k] = successors[k](v, entry[n + 1][k])
            v = nxt
            out.append(alphabet[k])
    finally:
        rng.state = x
    return out


def sample_trajectory(
    model, length: int, seed: int, initial=None
) -> list[str]:
    """Draw a symbol sequence by iterated conditional update.

    Every model runs the same memoized loop on its real linear
    representation (see ``linear_representation``). Deterministic given
    (model, length, seed); the generator is the documented xorshift64* shift
    register, so sequences are reproducible. Per-step probabilities are
    clamped at zero and renormalized before drawing, so round-off noise
    cannot produce invalid draws.
    """
    if length < 0:
        raise ValueError(f"trajectory length must be nonnegative, got {length}")
    mats, v0, d = linear_representation(model, initial)
    return _sample_linear(mats, v0, d, length, Xorshift64Star(seed), tuple(model.alphabet))
