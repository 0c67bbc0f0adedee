"""Hidden quantum Markov models: symbol-keyed stochastic quantum operations.

A model is a d-level system together with one trace-non-increasing quantum
operation per symbol, the sum of which is trace-preserving. Each step emits
``s`` with probability ``tr[K_s rho]`` (operation applied in operator-sum
form) and conditions the state to ``K_s rho / P(s)``. Three constructors
connect to classical generators: projective-measurement generators
(projector-unitary products), the diagonal embedding of an arbitrary
generator, and the single-Kraus form available for reversible generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .config import TOL
from . import classical
from .linalg import (
    Violation,
    _finite,
    as_matrix,
    check_density_matrix,
    check_identity,
    check_projector_set,
    check_unitary,
    checked_alphabet,
    checked_integer,
    checked_probability,
    checked_square,
    checked_word,
    fixed_point,
    hermitian_coordinates,
    hermitian_real_form,
    hermitize,
    require_valid,
    transfer_matrix,
)


@dataclass(frozen=True)
class HqmmModel:
    """Alphabet plus per-symbol Kraus operator lists over a d-level system;
    ``operations[s]`` holds read-only views of the model's own copy of them."""

    alphabet: tuple[str, ...]
    dim: int
    operations: dict[str, list[np.ndarray]]
    initial: np.ndarray | None = None
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        alphabet = checked_alphabet(self.alphabet, self.operations, "operations")
        object.__setattr__(self, "alphabet", alphabet)
        d = checked_integer(self.dim, "dimension")
        if d < 1:
            raise ValueError(f"dimension must be positive, got {d}")
        object.__setattr__(self, "dim", d)
        ops = {
            s: [checked_square(k, d, f"Kraus operator for {s!r}") for k in self.operations[s]]
            for s in alphabet
        }
        # the d x d stacks come only after every shape is checked and an
        # operator is found, so that empty lists cannot allocate them for any d
        if not any(ops.values()):
            raise ValueError("operations: expected at least one Kraus operator")
        flats, adjoints = {}, {}
        for s, mats in ops.items():
            stack = np.stack(mats) if mats else np.zeros((0, d, d), dtype=complex)
            stack.flags.writeable = False
            k = stack.shape[0]
            ops[s] = list(stack)
            flats[s] = stack.transpose(1, 2, 0).reshape(d, d * k)
            adjoints[s] = stack.conj().transpose(2, 0, 1).reshape(d, k * d)
        object.__setattr__(self, "operations", ops)
        # private per-symbol Kraus stacks for ``apply_symbol``, read from the
        # same stack as ``operations``: ``_flats[s]`` holds K_i[c, a] at
        # [c, a k + i] and ``_adjoints[s]`` holds K_i^dag[e, b] at [e, i d + b]
        object.__setattr__(self, "_flats", flats)
        object.__setattr__(self, "_adjoints", adjoints)
        # results computed once from the Kraus operators, by name (``_memoized``)
        object.__setattr__(self, "_memo", {})
        if self.initial is not None:
            object.__setattr__(self, "initial", checked_initial(self.initial, d))

    def transfer(self) -> np.ndarray:
        """Transfer matrix of the forgetful channel ``sum_s K_s``."""
        return transfer_matrix(self.operations)


def checked_initial(rho, d: int) -> np.ndarray:
    """An initial state as a complex matrix (see ``linalg.as_matrix``);
    raises ``ValueError`` unless it is ``d x d``."""
    rho = as_matrix(rho, "initial state")
    if rho.shape != (d, d):
        raise ValueError(f"initial state must be {d} x {d}, got shape {rho.shape}")
    return rho


def initial_violations(m) -> list[Violation]:
    """``check_density_matrix`` on a model's initial state, if any, tagged ``initial-``."""
    if m.initial is None:
        return []
    return [Violation("initial-" + v.check, v.message) for v in check_density_matrix(m.initial)]


def apply_symbol(m: HqmmModel, symbol: str, rho: np.ndarray) -> np.ndarray:
    """Unnormalized operation output ``sum_i K_i(s) rho K_i(s)^dagger``.

    ``rho @ [K_1^dag | ... | K_k^dag]`` holds ``(rho K_i^dag)[a, b]`` at
    ``[a, i d + b]``, which reshapes to row ``a k + i``, so one more product
    with ``[K_i[c, a]]`` at ``[c, a k + i]`` sums over ``a`` and ``i`` at once.
    """
    if symbol not in m.alphabet:
        checked_word((symbol,), m.alphabet)
    d = m.dim
    if np.shape(rho) != (d, d):
        raise ValueError(f"state must have shape ({d}, {d}), got {np.shape(rho)}")
    flat = m._flats[symbol]
    out = flat @ (rho @ m._adjoints[symbol]).reshape(flat.shape[1], d)
    return hermitize(out)


def validate_hqmm(m: HqmmModel) -> list[Violation]:
    """Completeness and per-symbol trace-non-increase diagnostics."""
    problems: list[Violation] = []
    d = m.dim
    total = np.zeros((d, d), dtype=complex)
    for s in m.alphabet:
        stack = np.array(m.operations[s], dtype=complex).reshape(-1, d, d)
        gram = np.einsum("kba,kbc->ac", stack.conj(), stack)
        total = total + gram
        # finite Kraus entries past about 1e154 overflow the gram
        if not np.isfinite(gram).all():
            problems.append(
                Violation("finite", "sum_i K_i^dagger K_i has non-finite entries", symbol=s)
            )
            continue
        top = float(np.linalg.eigvalsh(hermitize(gram)).max())
        if top > 1.0 + TOL.completeness:
            problems.append(
                Violation(
                    "trace-nonincreasing",
                    f"sum_i K_i^dagger K_i has eigenvalue {top:.12g} > 1",
                    symbol=s,
                )
            )
    problems += check_identity(
        total, TOL.completeness, "completeness", "sum over all symbols of K^dagger K"
    )
    return problems + initial_violations(m)


def _memoized(m: HqmmModel, name: str, compute):
    """``m``'s result ``name``: ``compute(m)``, kept from the first call that
    does not raise. The model owns its Kraus operators and they are
    read-only, so the result holds for the model's life; ``compute`` makes
    its arrays read-only. ``setdefault`` keeps the first of concurrent
    results, so every caller returns the same object."""
    memo = m._memo
    if name not in memo:
        memo.setdefault(name, compute(m))
    return memo[name]


def steady_state(m: HqmmModel) -> tuple[np.ndarray, bool]:
    """Stationary density matrix of the forgetful channel; see ``linalg.fixed_point``.

    Solved once per model and kept on it (d^2 complex entries): every later
    call returns the same read-only state. Threads that ask a new model at
    once may each solve it; all of them get the one that is kept."""
    return _memoized(m, "steady_state", _solve_steady_state)


def _solve_steady_state(m: HqmmModel) -> tuple[np.ndarray, bool]:
    state, unique = fixed_point(m.transfer())
    state.flags.writeable = False
    return state, unique


def resolve_initial(m: HqmmModel, initial=None) -> np.ndarray:
    """Explicit argument, else the model's initial state, else the steady state."""
    if initial is not None:
        return checked_initial(initial, m.dim)
    if m.initial is not None:
        return m.initial
    return steady_state(m)[0]


def _outcome(m: HqmmModel, symbol: str, rho) -> tuple[np.ndarray, float]:
    """``K_s rho`` and its unclamped trace ``P(s)``; raises ``ValueError``
    ``P(s) = ... is not finite`` when the operation overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = apply_symbol(m, symbol, np.asarray(rho, dtype=complex))
        p = float(np.trace(sigma).real)
    if not np.isfinite(p):
        raise ValueError(f"P({symbol}) = {p} is not finite")
    return sigma, p


def symbol_probability(m: HqmmModel, symbol: str, rho) -> float:
    """``tr[K_s rho]``, clamped to [0, 1]; ``ValueError`` if negative or not finite."""
    return checked_probability(_outcome(m, symbol, rho)[1], f"P({symbol})")


def conditional_update(m: HqmmModel, symbol: str, rho) -> np.ndarray:
    """Post-measurement state ``K_s rho / tr[K_s rho]``; raises ``ValueError``
    when the outcome probability is not finite or at most ``TOL.impossible``."""
    sigma, p = _outcome(m, symbol, rho)
    if p <= TOL.impossible:
        raise ValueError(
            f"cannot condition on symbol {symbol!r}: outcome probability {p:.3e}"
        )
    return hermitize(sigma / p)


def operators(m: HqmmModel) -> np.ndarray:
    """Each operation in the real Hermitian basis, stacked in alphabet order.

    Built once per model and kept on it: every later call returns the same
    read-only stack of k d^4 float64 entries for k symbols, 1 MiB at d = 16
    and 16 MiB at d = 32 with two symbols. Threads that ask a new model at
    once may each build it; all of them get the one that is kept."""
    return _memoized(m, "operators", _build_operators)


def _build_operators(m: HqmmModel) -> np.ndarray:
    zero = np.zeros((m.dim**2, m.dim**2))
    forms = [
        hermitian_real_form(transfer_matrix(ops)) if ops else zero
        for ops in (m.operations[s] for s in m.alphabet)
    ]
    stack = _finite(np.stack(forms), "operation matrices")
    stack.flags.writeable = False
    return stack


def start_vector(m: HqmmModel, initial=None) -> np.ndarray:
    """The real Hermitian coordinates of the resolved initial state."""
    return _finite(hermitian_coordinates(resolve_initial(m, initial)), "initial state")


def word_probability(m: HqmmModel, word: Iterable[str], initial=None) -> float:
    """``tr[K_{s_n} ... K_{s_1} rho]`` with ``s_1`` the earliest symbol."""
    sigma = resolve_initial(m, initial)
    # an overflowing operation is refused by name below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for s in word:
            sigma = apply_symbol(m, s, sigma)
        p = float(np.trace(sigma).real)
    return checked_probability(p, "word probability")


def coherence_check(m: HqmmModel, words: Iterable[Iterable[str]], initial=None) -> float:
    """Largest off-diagonal magnitude among conditional states along ``words``.

    Walks every nonempty prefix of every word from the resolved initial
    state, pruning branches whose probability falls below the impossibility
    threshold. Diagonally embedded classical models return 0 up to round-off
    from any starting state; models with genuinely quantum dynamics generally
    do not. Raises ``ValueError`` when an outcome probability is not finite.
    """
    rho0 = resolve_initial(m, initial)
    off = ~np.eye(m.dim, dtype=bool)
    worst = 0.0
    for word in words:
        rho = rho0
        for s in word:
            sigma, p = _outcome(m, s, rho)
            if p <= TOL.impossible:
                break
            rho = hermitize(sigma / p)
            worst = max(worst, float(np.max(np.abs(rho[off]), initial=0.0)))
    return worst


def vn_generator(
    projectors: Sequence[np.ndarray],
    unitary: np.ndarray,
    alphabet: Sequence[str],
    initial=None,
) -> HqmmModel:
    """Projective-measurement generator: the ``VnModel`` of these parts, reduced."""
    labels = [str(s) for s in alphabet]
    projectors = list(projectors)
    if len(projectors) != len(labels):
        raise ValueError("need exactly one projector per symbol")
    return VnModel(labels, dict(zip(labels, projectors)), unitary, initial).to_hqmm()


def embed_classical(m: classical.HmmModel) -> HqmmModel:
    """Diagonal embedding of a stochastic generator.

    One Kraus operator ``sqrt(T_s[i, j]) |i><j|`` per positive transition
    entry; conditional states stay diagonal, so the embedded model carries no
    coherence while reproducing the classical word probabilities exactly.
    """
    require_valid(classical.validate_hmm(m), "HMM")
    ops = {s: list(_rank_one_terms(m.transitions[s], 0.0)) for s in m.alphabet}
    return _from_classical(m, ops)


def pure_from_reversible(m: classical.HmmModel) -> HqmmModel:
    """Single-Kraus (pure-operation) model for a reversible generator.

    ``K_s = sum_j sqrt(P(s|j)) |I_j(s)><j|``, the sum of the embedding's terms
    for ``s`` above ``TOL.zero_entry``; ``I_j(s)`` is the unique target state,
    and trace preservation follows from reversibility. Raises ``ValueError``
    for invalid or non-reversible input.
    """
    require_valid(classical.validate_hmm(m), "HMM")
    rev, witness = classical.is_reversible(m)
    if not rev:
        raise ValueError(
            f"model is not reversible: symbol {witness[0]!r} row {witness[1]} "
            "has multiple nonzero entries"
        )
    ops = {s: [_rank_one_terms(m.transitions[s], TOL.zero_entry).sum(0)] for s in m.alphabet}
    return _from_classical(m, ops)


def _rank_one_terms(t: np.ndarray, floor: float) -> np.ndarray:
    """``sqrt(t[i, j]) |i><j|`` for each entry of ``t`` above ``floor``, row by
    row, stacked along the first axis."""
    rows, cols = np.nonzero(t > floor)
    terms = np.zeros((rows.size, *t.shape), dtype=complex)
    terms[np.arange(rows.size), rows, cols] = np.sqrt(t[rows, cols])
    return terms


def _from_classical(m: classical.HmmModel, ops) -> HqmmModel:
    """The model of these Kraus lists on ``m``'s states, started from its prior."""
    initial = np.diag(m.prior).astype(complex) if m.prior is not None else None
    return HqmmModel(alphabet=m.alphabet, dim=m.n_states, operations=ops, initial=initial)


@dataclass(frozen=True)
class VnModel:
    """Raw projector/unitary description of a projective-measurement generator.

    Kept as its own kind so that model files round-trip without collapsing to
    Kraus form; ``to_hqmm`` performs the conversion.
    """

    alphabet: tuple[str, ...]
    projectors: dict[str, np.ndarray]
    unitary: np.ndarray
    initial: np.ndarray | None = None
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        alphabet = checked_alphabet(self.alphabet, self.projectors, "projectors")
        object.__setattr__(self, "alphabet", alphabet)
        projs = {s: as_matrix(self.projectors[s], f"projector {s!r}") for s in alphabet}
        object.__setattr__(self, "projectors", projs)
        object.__setattr__(self, "unitary", as_matrix(self.unitary, "unitary"))
        if self.unitary.size == 0:
            raise ValueError(f"unitary is empty, shape {self.unitary.shape}")
        if self.initial is not None:
            object.__setattr__(self, "initial", checked_initial(self.initial, self.dim))

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]

    def to_hqmm(self) -> HqmmModel:
        """One Kraus operator ``P_s U`` per symbol. The projectors must form a
        complete orthogonal set and ``U`` must be unitary; the raised
        ``ValueError`` names each check of ``validate_vn`` that fails."""
        require_valid(validate_vn(self), "projective generator")
        ops = {s: [self.projectors[s] @ self.unitary] for s in self.alphabet}
        return HqmmModel(alphabet=self.alphabet, dim=self.dim, operations=ops, initial=self.initial)


def validate_vn(m: VnModel) -> list[Violation]:
    problems = check_projector_set([m.projectors[s] for s in m.alphabet], list(m.alphabet))
    u = m.unitary
    d = u.shape[0]
    if u.shape != (d, d) or any(p.shape != (d, d) for p in m.projectors.values()):
        # a projector whose size differs from the others' is named already
        if not any(v.check == "shape" for v in problems):
            problems.append(Violation("shape", "projector/unitary dimensions disagree"))
    else:
        problems += check_unitary(u)
    return problems + initial_violations(m)
