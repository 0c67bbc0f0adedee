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
    check_projector_set,
    check_unitary,
    checked_alphabet,
    checked_probability,
    fixed_point,
    hermitian_coordinates,
    hermitian_real_form,
    hermitize,
    transfer_matrix,
)


@dataclass(frozen=True)
class HqmmModel:
    """Alphabet plus per-symbol Kraus operator lists over a d-level system."""

    alphabet: tuple[str, ...]
    dim: int
    operations: dict[str, list[np.ndarray]]
    initial: np.ndarray | None = None
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        alphabet = checked_alphabet(self.alphabet, self.operations, "operations")
        object.__setattr__(self, "alphabet", alphabet)
        d = self.dim
        ops = {}
        for s in alphabet:
            mats = [as_matrix(k, f"Kraus operator for {s!r}") for k in self.operations[s]]
            for k in mats:
                if k.shape != (d, d):
                    raise ValueError(
                        f"Kraus operator for {s!r} has shape {k.shape}, expected ({d}, {d})"
                    )
            ops[s] = mats
        # the d x d stacks and grams come only after every shape is checked and
        # an operator is found, so that empty lists cannot allocate them for any d
        if not any(ops.values()):
            raise ValueError("operations: expected at least one Kraus operator")
        flats = {}
        adjoints = {}
        grams = {}
        for s, mats in ops.items():
            stack = np.stack(mats) if mats else np.zeros((0, d, d), dtype=complex)
            k = stack.shape[0]
            flats[s] = stack.transpose(1, 2, 0).reshape(d, d * k)
            adjoints[s] = stack.conj().transpose(2, 0, 1).reshape(d, k * d)
            grams[s] = np.einsum("kba,kbc->ac", stack.conj(), stack)
        object.__setattr__(self, "operations", ops)
        # private per-symbol Kraus stacks for ``apply_symbol``: ``_flats[s]``
        # holds K_i[c, a] at [c, a k + i] and ``_adjoints[s]`` holds
        # K_i^dag[e, b] at [e, i d + b]; and the sum_i K^dag K grams
        object.__setattr__(self, "_flats", flats)
        object.__setattr__(self, "_adjoints", adjoints)
        object.__setattr__(self, "_grams", grams)
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
    if symbol not in m._flats:
        raise ValueError(f"unknown symbol {symbol!r}; alphabet is {m.alphabet}")
    d = m.dim
    if np.shape(rho) != (d, d):
        raise ValueError(f"state must have shape ({d}, {d}), got {np.shape(rho)}")
    flat = m._flats[symbol]
    if flat.shape[1] == 0:
        return np.zeros((d, d), dtype=complex)
    out = flat @ (rho @ m._adjoints[symbol]).reshape(flat.shape[1], d)
    return hermitize(out)


def validate_hqmm(m: HqmmModel) -> list[Violation]:
    """Completeness and per-symbol trace-non-increase diagnostics."""
    problems: list[Violation] = []
    d = m.dim
    total = np.zeros((d, d), dtype=complex)
    for s in m.alphabet:
        gram = m._grams[s]
        total = total + gram
        top = float(np.linalg.eigvalsh(hermitize(gram)).max())
        if top > 1.0 + TOL.completeness:
            problems.append(
                Violation(
                    "trace-nonincreasing",
                    f"sum_i K_i^dagger K_i has eigenvalue {top:.12g} > 1",
                    symbol=s,
                )
            )
    dev = float(np.max(np.abs(total - np.eye(d))))
    if dev > TOL.completeness:
        problems.append(
            Violation(
                "completeness",
                f"sum over all symbols of K^dagger K deviates from identity by {dev:.3e}",
            )
        )
    return problems + initial_violations(m)


def steady_state(m: HqmmModel) -> tuple[np.ndarray, bool]:
    """Stationary density matrix of the forgetful channel; see ``linalg.fixed_point``."""
    return fixed_point(m.transfer())


def resolve_initial(m: HqmmModel, initial=None) -> np.ndarray:
    """Explicit argument, else the model's initial state, else the steady state."""
    if initial is not None:
        return checked_initial(initial, m.dim)
    if m.initial is not None:
        return m.initial
    return steady_state(m)[0]


def symbol_probability(m: HqmmModel, symbol: str, rho) -> float:
    """``tr[K_s rho]``, clamped to [0, 1]."""
    sigma = apply_symbol(m, symbol, np.asarray(rho, dtype=complex))
    return checked_probability(float(np.trace(sigma).real), f"P({symbol})")


def conditional_update(m: HqmmModel, symbol: str, rho) -> np.ndarray:
    """Post-measurement state ``K_s rho / tr[K_s rho]``.

    Raises ``ValueError`` when the outcome probability is at or below the
    impossibility threshold.
    """
    sigma = apply_symbol(m, symbol, np.asarray(rho, dtype=complex))
    p = float(np.trace(sigma).real)
    if p <= TOL.impossible:
        raise ValueError(
            f"cannot condition on symbol {symbol!r}: outcome probability {p:.3e}"
        )
    return hermitize(sigma / p)


def state_from_weights(weights: np.ndarray) -> np.ndarray:
    """The density matrix with these normalized weights on its diagonal."""
    return np.diag(weights).astype(complex)


def linear_representation(m: HqmmModel, initial=None) -> tuple[np.ndarray, np.ndarray, int]:
    """Each operation in the real Hermitian basis, the coordinates of the
    resolved initial state and ``dim``; see ``analysis.linear_representation``."""
    d = m.dim
    mats = np.stack(
        [
            hermitian_real_form(transfer_matrix(ops)) if ops else np.zeros((d * d, d * d))
            for ops in (m.operations[s] for s in m.alphabet)
        ]
    )
    v0 = hermitian_coordinates(resolve_initial(m, initial))
    return _finite(mats, "operation matrices"), _finite(v0, "initial state"), d


def word_probability(m: HqmmModel, word: Iterable[str], initial=None) -> float:
    """``tr[K_{s_n} ... K_{s_1} rho]`` with ``s_1`` the earliest symbol."""
    sigma = resolve_initial(m, initial)
    for s in word:
        sigma = apply_symbol(m, s, sigma)
    return checked_probability(float(np.trace(sigma).real), "word probability")


def coherence_check(m: HqmmModel, words: Iterable[Iterable[str]], initial=None) -> float:
    """Largest off-diagonal magnitude among conditional states along ``words``.

    Walks every nonempty prefix of every word from the resolved initial
    state, pruning branches whose probability falls below the impossibility
    threshold. Diagonally embedded classical models return 0 up to round-off
    from any starting state; models with genuinely quantum dynamics generally
    do not.
    """
    rho0 = resolve_initial(m, initial)
    if m.dim == 1:
        return 0.0
    off = ~np.eye(m.dim, dtype=bool)
    worst = 0.0
    for word in words:
        rho = rho0
        for s in word:
            sigma = apply_symbol(m, s, rho)
            p = float(np.trace(sigma).real)
            if p <= TOL.impossible:
                break
            rho = hermitize(sigma / p)
            worst = max(worst, float(np.max(np.abs(rho[off]))))
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

    One Kraus operator ``sqrt(T_s[i, j]) |i><j|`` per nonzero transition
    entry; conditional states stay diagonal, so the embedded model carries no
    coherence while reproducing the classical word probabilities exactly.
    """
    problems = classical.validate_hmm(m)
    if problems:
        raise ValueError("invalid HMM: " + "; ".join(str(p) for p in problems))
    d = m.n_states
    ops: dict[str, list[np.ndarray]] = {}
    for s in m.alphabet:
        t = m.transitions[s]
        kraus = []
        for i in range(d):
            for j in range(d):
                if t[i, j] > 0.0:
                    k = np.zeros((d, d), dtype=complex)
                    k[i, j] = np.sqrt(t[i, j])
                    kraus.append(k)
        ops[s] = kraus
    initial = state_from_weights(m.prior) if m.prior is not None else None
    return HqmmModel(alphabet=m.alphabet, dim=d, operations=ops, initial=initial)


def pure_from_reversible(m: classical.HmmModel) -> HqmmModel:
    """Single-Kraus (pure-operation) model for a reversible generator.

    ``K_s = sum_j sqrt(P(s|j)) |I_j(s)><j|`` where ``I_j(s)`` is the unique
    target state; trace preservation follows from reversibility. Raises
    ``ValueError`` for non-reversible input.
    """
    rev, witness = classical.is_reversible(m)
    if not rev:
        raise ValueError(
            f"model is not reversible: symbol {witness[0]!r} row {witness[1]} "
            "has multiple nonzero entries"
        )
    d = m.n_states
    ops: dict[str, list[np.ndarray]] = {}
    for s in m.alphabet:
        t = m.transitions[s]
        k = np.zeros((d, d), dtype=complex)
        for j in range(d):
            col = t[:, j]
            nz = np.nonzero(np.abs(col) > TOL.zero_entry)[0]
            if nz.size:
                k[nz[0], j] = np.sqrt(col[nz[0]])
        ops[s] = [k]
    initial = state_from_weights(m.prior) if m.prior is not None else None
    return HqmmModel(alphabet=m.alphabet, dim=d, operations=ops, initial=initial)


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
        if self.initial is not None:
            object.__setattr__(self, "initial", checked_initial(self.initial, self.dim))

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]

    def to_hqmm(self) -> HqmmModel:
        """One Kraus operator ``P_s U`` per symbol. The projectors must form a
        complete orthogonal set and ``U`` must be unitary; the raised
        ``ValueError`` names each check of ``validate_vn`` that fails."""
        problems = validate_vn(self)
        if problems:
            raise ValueError("invalid projective generator: " + "; ".join(str(p) for p in problems))
        ops = {s: [self.projectors[s] @ self.unitary] for s in self.alphabet}
        return HqmmModel(alphabet=self.alphabet, dim=self.dim, operations=ops, initial=self.initial)


def validate_vn(m: VnModel) -> list[Violation]:
    problems = check_projector_set([m.projectors[s] for s in m.alphabet], list(m.alphabet))
    u = m.unitary
    d = u.shape[0]
    if u.shape != (d, d) or any(p.shape != (d, d) for p in m.projectors.values()):
        problems.append(Violation("shape", "projector/unitary dimensions disagree"))
    else:
        problems += check_unitary(u)
    return problems + initial_violations(m)
