"""Dense complex linear algebra shared by every model type.

Superoperator transfer matrices and their real Hermitian-basis form, fixed
points of trace-preserving maps, SVD-based numerical rank, and the shared
validation checks. Vectorization is column-stacking throughout:
``vec(A X B) == kron(B.T, A) @ vec(X)``, so a channel
``rho -> sum_i K_i rho K_i^dagger`` has transfer matrix
``sum_i kron(conj(K_i), K_i)``.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import TOL

logger = logging.getLogger(__name__)

# the transient memory of the d^4 kernels: ``transfer_matrix`` sums its terms,
# and ``hermitian_real_form`` gathers rows and then their columns, through one
# block of at most this many bytes; an input that fits takes one pass, which
# is every d <= 11 (d <= 13 for ``transfer_matrix``)
_BLOCK_BYTES = 1 << 19


@dataclass(frozen=True)
class Violation:
    """One failed validation check.

    ``check`` is a short machine-readable tag, ``symbol``/``index`` locate
    the offender where that makes sense (e.g. a transition matrix column).
    """

    check: str
    message: str
    symbol: str | None = None
    index: int | None = None

    def __str__(self) -> str:
        where = ""
        if self.symbol is not None:
            where += f" symbol={self.symbol!r}"
        if self.index is not None:
            where += f" index={self.index}"
        return f"[{self.check}]{where}: {self.message}"


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d complex ndarray and reject non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def checked_square(m, size: int, name: str) -> np.ndarray:
    """``as_matrix(m, name)``; raises ``ValueError`` unless it is ``size x size``."""
    a = as_matrix(m, name)
    if a.shape != (size, size):
        raise ValueError(f"{name} has shape {a.shape}, expected ({size}, {size})")
    return a


def checked_alphabet(alphabet, per_symbol: Mapping, field: str) -> tuple[str, ...]:
    """The symbols as strings. Raises ``ValueError`` for an empty alphabet,
    a repeated symbol and a per-symbol mapping, the model's ``field``, whose
    keys are not exactly the symbols."""
    symbols = tuple(str(s) for s in alphabet)
    if not symbols:
        raise ValueError("alphabet is empty")
    if len(set(symbols)) != len(symbols):
        raise ValueError("alphabet contains duplicate symbols")
    if set(per_symbol) != set(symbols):
        raise ValueError(f"{field} must cover exactly the alphabet")
    return symbols


def checked_word(word, alphabet: Sequence[str]) -> tuple[str, ...]:
    """``word`` as a tuple; raises ``ValueError`` naming its first symbol
    that is not in ``alphabet``, also an unhashable one."""
    word = tuple(word)
    for s in word:
        if s not in alphabet:
            raise ValueError(f"unknown symbol {s!r}; alphabet is {tuple(alphabet)}")
    return word


def _walk(step: Mapping, v: np.ndarray, word) -> np.ndarray:
    """``A_{s_n} ... A_{s_1} v`` of the word ``s_1 ... s_n``, with ``A_s = step[s]``."""
    for s in word:
        v = step[s] @ v
    return v


def hermitize(m: np.ndarray) -> np.ndarray:
    """Symmetrize (M + M^dagger)/2; used to stop round-off drift on channel outputs."""
    return (m + m.conj().T) / 2.0


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise ValueError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape((d, d), order="F")


def transfer_matrix(kraus) -> np.ndarray:
    """Superoperator matrix of ``rho -> sum K rho K^dagger`` over all operators.

    ``kraus`` is either a mapping symbol -> list of Kraus matrices (the whole
    stochastic operation) or a flat sequence of matrices. Returns the d^2 x d^2
    matrix L with ``L @ vec(rho) == vec(sum K rho K^dagger)`` under
    column-stacking. L is summed one block of rows at a time, so beyond its
    output it holds one block of terms (``_BLOCK_BYTES``, or d rows of L
    when those are larger).
    """
    if isinstance(kraus, Mapping):
        kraus = [k for ops in kraus.values() for k in ops]
    ops = [np.asarray(k, dtype=complex) for k in kraus]
    if not ops:
        raise ValueError("at least one Kraus operator is required")
    d = ops[0].shape[0]
    for k in ops:
        if k.shape != (d, d):
            raise ValueError(f"mixed Kraus dimensions: {k.shape} vs ({d}, {d})")
    # the products and the order of summation of ``sum kron(conj(K), K)``,
    # through one reused term buffer in place of kron's temporaries; one GEMM
    # over all operators would sum in another order and change low bits of
    # L, which show in printed states as round-off in place of exact zeros.
    # ``out[i]`` holds rows i d to i d + d - 1 of L, and a block is ``step``
    # of them, so every entry gets the same products in the same order
    out = np.zeros((d, d, d, d), dtype=complex)
    step = max(1, _BLOCK_BYTES // out[0].nbytes)
    term = np.empty_like(out[:step])
    for start in range(0, d, step):
        rows = out[start : start + step]
        block = term[: len(rows)]
        for k in ops:
            conj = k.conj()[start : start + step, None, :, None]
            np.multiply(conj, k[None, :, None, :], out=block)
            rows += block
    return out.reshape(d * d, d * d)


def hermitian_basis(d: int) -> np.ndarray:
    """Unitary change to real coordinates of Hermitian d x d matrices.

    Returns the d^2 x d^2 matrix ``C`` for which ``C @ vec(rho)`` is real for
    Hermitian ``rho``: first the d diagonal entries, then ``sqrt(2) Re`` and
    ``sqrt(2) Im`` of each upper off-diagonal entry in row-major order. The
    diagonal comes first, so the trace is the sum of the first d coordinates,
    and a Hermiticity-preserving transfer matrix ``L`` becomes the real matrix
    ``C @ L @ C^dagger``.
    """
    c = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        c[a, a + a * d] = 1.0
    r = math.sqrt(0.5)
    row = d
    for a in range(d):
        for b in range(a + 1, d):
            ab, ba = a + b * d, b + a * d
            c[row, ab], c[row, ba] = r, r
            c[row + 1, ab], c[row + 1, ba] = -1j * r, 1j * r
            row += 2
    return c


@functools.lru_cache(maxsize=64)
def _hermitian_order(d: int) -> np.ndarray:
    """Column-stacked indices of the entries that the coordinates of
    ``hermitian_basis(d)`` read, in coordinate order: each diagonal entry,
    then ``(a, b)`` and ``(b, a)`` for each upper pair in row-major order."""
    a, b = np.triu_indices(d, 1)
    pairs = np.stack([a + b * d, b + a * d], axis=1).ravel()
    order = np.concatenate([np.arange(d) * (d + 1), pairs])
    order.flags.writeable = False
    return order


def hermitian_coordinates(rho: np.ndarray) -> np.ndarray:
    """Real ``(hermitian_basis(d) @ vec(rho)).real`` of a d x d matrix, in O(d^2)."""
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    y = rho.reshape(-1, order="F")[_hermitian_order(d)]
    x = np.empty(d * d)
    x[:d] = y[:d].real
    r = math.sqrt(0.5)
    x[d::2] = r * y[d::2].real + r * y[d + 1 :: 2].real
    x[d + 1 :: 2] = r * y[d::2].imag - r * y[d + 1 :: 2].imag
    return x


def _from_hermitian_coordinates(x: np.ndarray) -> np.ndarray:
    """The Hermitian matrix ``unvec(hermitian_basis(d)^dagger @ x)`` of real ``x``."""
    d = math.isqrt(x.size)
    order = _hermitian_order(d)
    flat = np.empty(d * d, dtype=complex)
    flat[order[:d]] = x[:d]
    upper = math.sqrt(0.5) * (x[d::2] + 1j * x[d + 1 :: 2])
    flat[order[d::2]] = upper
    flat[order[d + 1 :: 2]] = upper.conj()
    return flat.reshape((d, d), order="F")


def hermitian_real_form(transfer: np.ndarray) -> np.ndarray:
    """Real ``(C @ transfer @ C^dagger).real`` with ``C = hermitian_basis(d)``.

    Each row of ``C`` reads at most two entries of ``vec(rho)``, so the
    product is formed in O(d^4) from the rows and columns of ``transfer``
    gathered in coordinate order, without forming ``C``. A map that
    preserves Hermiticity has a real product. The rows are gathered, mixed
    and checked a block at a time and written straight into the real
    result, so beyond its input and output it holds one block
    (``_BLOCK_BYTES``): a run of gathered rows and then their gathered
    columns, half a block each.
    Raises ``ValueError`` when ``transfer`` is not d^2 x d^2 with d >= 1 or
    has a non-finite entry, and one naming Hermiticity when the discarded
    imaginary part exceeds ``TOL.hermitian``.
    """
    transfer = np.asarray(transfer, dtype=complex)
    d = math.isqrt(transfer.shape[0]) if transfer.ndim == 2 else 0
    if d == 0 or transfer.shape != (d * d, d * d):
        # a matrix of too many dimensions or with a non-finite entry is
        # named for that first, as ``fixed_point`` always named it
        as_matrix(transfer, "transfer matrix")
        raise ValueError(f"transfer matrix must be d^2 x d^2, got {transfer.shape}")
    n = d * d
    order = _hermitian_order(d)
    real = np.empty((n, n))
    dev = 0.0
    rows = max(2, _BLOCK_BYTES // (2 * transfer[0].nbytes))
    start = 0
    while start < n:
        # past the d diagonal rows a block holds whole (ab, ba) pairs of rows
        stop = min(n, start + rows)
        stop += max(stop - d, 0) % 2
        dev = max(dev, _real_form_rows(transfer, order, start, stop, real[start:stop]))
        start = stop
    if dev > TOL.hermitian:
        raise ValueError(
            "transfer matrix does not preserve Hermiticity: its Hermitian-basis "
            f"form has an imaginary part of {dev:.3e}"
        )
    return real


def _real_form_rows(
    transfer: np.ndarray, order: np.ndarray, start: int, stop: int, out: np.ndarray
) -> float:
    """Writes rows ``start:stop`` of ``hermitian_real_form(transfer)`` into
    ``out`` and returns the largest imaginary part they discard. No pair of
    rows may straddle ``start`` or ``stop``. Its arrays die on return, so a
    block's arrays are gone before the next block's are made."""
    d = math.isqrt(order.size)
    m = transfer.take(order[start:stop], 0)
    if not np.isfinite(m).all():
        raise ValueError("transfer matrix contains non-finite entries")
    m = m.take(order, 1)
    first = max(d - start, 0)
    r = math.sqrt(0.5)
    # C takes each gathered pair of rows (x, y) to (r (x + y), -i r (x - y)),
    # and C^dagger each pair of columns to (r (x + y), i r (x - y))
    for x, y, phase in ((m[first::2], m[first + 1 :: 2], 1j), (m[:, d::2], m[:, d + 1 :: 2], -1j)):
        total = x + y
        y -= x
        y *= phase * r
        np.multiply(total, r, out=x)
    out[...] = m.real
    return float(np.abs(m.imag).max(initial=0.0))


def _dense_fixed_vector(matrix: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, int]:
    """Fixed vector of ``matrix`` and the dimension of its fixed space.

    Eigenvalues within ``TOL.eigenvalue_one`` of 1 give the dimension of the
    fixed space. Eigenvectors from a dense eigensolve can lose many digits on
    non-normal maps (the cluster channel's transfer matrix is defective), so
    the fixed directions are taken from the backward-stable SVD of
    ``matrix - I`` instead. A degenerate space is resolved canonically by the
    orthogonal projection of ``target`` onto it. Raises ``ValueError`` when
    no eigenvalue lies within the window (the map is not trace-preserving).
    """
    evals = np.linalg.eigvals(matrix)
    count = int(np.count_nonzero(np.abs(evals - 1.0) <= TOL.eigenvalue_one))
    if count == 0:
        raise ValueError(
            "no eigenvalue within "
            f"{TOL.eigenvalue_one:g} of 1: map is not trace-preserving"
        )
    n = matrix.shape[0]
    _, _, vh = np.linalg.svd(matrix - np.eye(n))
    basis = vh[n - count :].conj().T
    if count == 1:
        return basis[:, 0], count
    return basis @ (basis.conj().T @ target), count


def _certified_fixed_vector(
    matrix: np.ndarray, unit: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, float] | None:
    """The unique fixed vector with ``unit @ v == 1``, or ``None``.

    With ``A = matrix - I`` and ``unit @ A == 0`` (checked to within
    ``TOL.completeness``), the bordered matrix ``M = A + target unit^T`` has,
    by Brauer's theorem, the eigenvalue ``unit @ target == 1`` in place of
    the eigenvalue 0 of ``A`` that ``unit`` belongs to, and ``lambda - 1``
    for each other eigenvalue ``lambda`` of ``matrix``. Every eigenvalue of
    ``M`` is at least ``1 / b`` in modulus, with
    ``b = min(||M^-1||_1, ||M^-1||_inf)``. So ``2 b eigenvalue_one < 1``
    keeps every other eigenvalue more than twice ``eigenvalue_one`` from 1:
    exactly one eigenvalue of ``matrix`` lies within ``eigenvalue_one`` of 1,
    and ``M v = target`` gives its fixed vector. Returns ``(v, b)``, or
    ``None`` when the map leaks trace, ``M`` is singular or its inverse is
    too large to settle the count.
    """
    n = matrix.shape[0]
    bordered = matrix.copy()
    bordered.flat[:: n + 1] -= 1.0
    if np.max(np.abs(unit @ bordered)) > TOL.completeness:
        return None
    bordered += np.outer(target, unit)
    try:
        inv = np.linalg.inv(bordered)
    except np.linalg.LinAlgError:
        return None
    # v first, so that a real inv can take its magnitudes in place; the
    # product of an inv that is not finite is refused below, unused
    with np.errstate(all="ignore"):
        v = inv @ target
    # the 1- and inf-norms: largest column and row sums of |inv|, and not
    # finite exactly when an entry of inv is not
    magnitude = np.abs(inv, out=inv if np.isrealobj(inv) else None)
    bound = float(min(magnitude.sum(axis=0).max(), magnitude.sum(axis=1).max()))
    if not math.isfinite(bound) or 2.0 * bound * TOL.eigenvalue_one >= 1.0:
        return None
    return v, bound


def _fixed_vector(
    matrix: np.ndarray, unit: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Fixed vector of ``matrix`` and whether its fixed space is one-dimensional.

    ``matrix`` may be real or complex. ``unit`` is the functional that the
    map preserves (the trace: ``vec(I)`` for a channel's transfer matrix,
    the sum of the first d of d^2 Hermitian coordinates for its real form,
    all ones for a stochastic matrix) and ``target`` a state with
    ``unit @ target == 1``. The fixed vector is first sought with the
    one-inverse certificate of ``_certified_fixed_vector``. A map that it
    cannot settle (one that leaks trace, has a degenerate or nearly
    degenerate fixed space, or a singular bordered matrix) falls back to the
    eigenvalue count and SVD of ``_dense_fixed_vector``, which also resolves
    a degenerate space by projecting ``target`` onto it, and raises
    ``ValueError`` when no eigenvalue lies within ``TOL.eigenvalue_one``
    of 1. One DEBUG record on the ``hqmm.linalg`` logger names the path, its
    inverse-norm bound or fixed-space dimension and the residual
    ``||L v - v||`` of the unit-norm vector.
    """
    certified = _certified_fixed_vector(matrix, unit, target)
    if certified is not None:
        v, bound = certified
        unique = True
        path = f"certificate, inverse-norm bound {bound:.3e}"
    else:
        v, count = _dense_fixed_vector(matrix, target)
        unique = count == 1
        path = f"eigen-count, fixed-space dimension {count}"
    if logger.isEnabledFor(logging.DEBUG):
        v_unit = v / (np.linalg.norm(v) or 1.0)
        residual = float(np.linalg.norm(matrix @ v_unit - v_unit))
        logger.debug(
            "fixed vector of order %d by %s, residual %.3e", matrix.shape[0], path, residual
        )
    return v, unique


def _stationary_vector(matrix: np.ndarray, d: int) -> tuple[np.ndarray, bool]:
    """``_fixed_vector`` of a real map that preserves the sum (mass) of the first
    ``d`` coordinates, scaled to unit mass; a vanishing mass is a ``ValueError``."""
    unit = np.zeros(matrix.shape[0])
    unit[:d] = 1.0
    x, unique = _fixed_vector(matrix, unit, unit / d)
    mass = x[:d].sum()
    if abs(mass) < 1e-12:
        raise ValueError("fixed-point candidate has vanishing trace")
    return x / mass, unique


def fixed_point(transfer: np.ndarray) -> tuple[np.ndarray, bool]:
    """Stationary state of a trace-preserving map given its transfer matrix.

    Returns ``(rho_star, unique)``, trace-normalized and Hermitian. The map
    must preserve Hermiticity, as every channel does, so the solve runs on
    the real matrix ``G = (C L C^dagger).real`` of ``hermitian_real_form``,
    whose first d coordinates are the diagonal: the trace functional is
    ``[1]*d + [0]*(d^2 - d)`` and the maximally mixed state is
    ``[1/d]*d + [0]*(d^2 - d)``. ``C`` is unitary, so ``G`` has the
    eigenvalues of ``L`` and a fixed vector of ``G`` maps back to one of
    ``L``. A unique fixed point is usually certified by one inverse of the
    bordered matrix ``G - I + target unit^T``: when its inverse norm rules
    out a second eigenvalue within ``TOL.eigenvalue_one`` of 1, its solution
    is the stationary state (see ``_certified_fixed_vector``). Otherwise,
    eigenvalues within that window span the fixed-point space, as counted by
    a dense eigensolve, and the state comes from an SVD of ``G - I``. A
    degenerate space is resolved canonically by the orthogonal projection of
    the maximally mixed state onto it, renormalized, with ``unique=False``.

    ``G`` is built a block of rows at a time, so until the solve, whose
    d^2 x d^2 real arrays come after, it holds one block beyond ``transfer``
    and ``G`` (see ``hermitian_real_form``).

    Raises ``ValueError`` when ``transfer`` is not a finite d^2 x d^2
    matrix, when the map does not preserve Hermiticity (see
    ``hermitian_real_form``) or when no eigenvalue lies within the window
    (the map is not trace-preserving).
    """
    real = hermitian_real_form(transfer)
    x, unique = _stationary_vector(real, math.isqrt(real.shape[0]))
    return _from_hermitian_coordinates(x), unique


def require_valid(problems: list[Violation], what: str) -> None:
    """Raise ``ValueError("invalid <what>: ...")`` naming every violation, if any."""
    if problems:
        raise ValueError(f"invalid {what}: " + "; ".join(str(p) for p in problems))


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValueError(f"non-finite entries in the {what}")
    return a


def checked_integer(value, what: str) -> int:
    """``value`` as a Python int, by ``operator.index``: NumPy integers
    pass, and a float, string or other non-integer is a ``ValueError``
    naming ``what``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def checked_probability(p: float, what: str) -> float:
    """A computed probability clamped to [0, 1].

    Raises ``ValueError`` when ``p`` is negative beyond numerical noise (below
    ``TOL.prob_floor``) or not finite; either signals an invalid model or start.
    """
    if p < TOL.prob_floor:
        raise ValueError(f"{what} = {p:.3e} is negative beyond numerical noise")
    if not math.isfinite(p):
        raise ValueError(f"{what} = {p} is not finite")
    return min(max(p, 0.0), 1.0)


def numerical_rank(m: np.ndarray, tol: float | None = None) -> int:
    """Number of singular values above ``tol``.

    ``tol=None`` uses ``max(rows, cols) * sigma_max * 2**-50``, a slightly
    loosened variant of the usual machine-precision cutoff. Raises
    ``ValueError`` for a given ``tol`` that is negative or not finite, then for
    an ``m`` that is not a matrix or has an entry that is not finite.
    """
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"rank cutoff must be finite and nonnegative, got {tol!r}")
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"rank needs a matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("rank needs finite entries")
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if tol is None:
        tol = max(m.shape) * float(s[0]) * 2.0**-50
    return int(np.count_nonzero(s > tol))


def check_density_matrix(rho) -> list[Violation]:
    """Finiteness, Hermiticity, unit trace, and positivity diagnostics for a
    state; a non-finite entry is the only violation reported."""
    problems: list[Violation] = []
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return [Violation("shape", f"state must be square, got shape {rho.shape}")]
    if not np.isfinite(rho).all():
        i, j = np.argwhere(~np.isfinite(rho))[0]
        return [Violation("finite", f"entry ({i}, {j}) is {rho[i, j]}, not finite")]
    herm_dev = float(np.max(np.abs(rho - rho.conj().T)))
    if herm_dev > TOL.hermitian:
        problems.append(
            Violation("hermitian", f"max |rho - rho^dagger| = {herm_dev:.3e}")
        )
    tr = np.trace(rho)
    if abs(tr - 1.0) > TOL.trace_one:
        problems.append(Violation("trace", f"trace = {tr:.12g}, expected 1"))
    lo = float(np.linalg.eigvalsh(hermitize(rho)).min())
    if lo < -TOL.psd:
        problems.append(Violation("positive", f"smallest eigenvalue = {lo:.3e}"))
    return problems


def check_prob_vector(p) -> list[Violation]:
    """Finiteness, sign and normalization diagnostics for a distribution; a
    non-finite entry is the only violation reported."""
    problems: list[Violation] = []
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        return [Violation("shape", f"probability vector must be 1-d, got {p.shape}")]
    if not np.isfinite(p).all():
        i = int(np.flatnonzero(~np.isfinite(p))[0])
        return [Violation("finite", f"entry {p[i]} is not finite", index=i)]
    if p.min(initial=0.0) < 0.0:
        i = int(np.argmin(p))
        problems.append(
            Violation("negative", f"entry {p[i]:.3e} < 0", index=i)
        )
    s = float(p.sum())
    if abs(s - 1.0) > TOL.prob_sum:
        problems.append(Violation("normalization", f"entries sum to {s:.12g}"))
    return problems


def check_identity(m: np.ndarray, tol: float, check: str, name: str) -> list[Violation]:
    """One ``check`` violation naming ``name`` if the square ``m`` deviates
    from the identity by more than ``tol`` in some entry, else none."""
    dev = float(np.max(np.abs(m - np.eye(m.shape[0]))))
    if dev > tol:
        return [Violation(check, f"{name} deviates from identity by {dev:.3e}")]
    return []


def check_unitary(u: np.ndarray) -> list[Violation]:
    """``U^dagger U == I`` within ``TOL.unitary``; ``u`` must be square."""
    return check_identity(u.conj().T @ u, TOL.unitary, "unitary", "U^dagger U")


def check_projector_set(
    projectors: Sequence[np.ndarray],
    labels: Sequence[str] | None = None,
) -> list[Violation]:
    """Diagnostics for a complete set of mutually orthogonal projectors.

    Orthogonality is checked pairwise rather than inferred from the sum,
    since non-orthogonal decompositions can also add up to the identity.
    """
    problems: list[Violation] = []
    mats = [np.asarray(p, dtype=complex) for p in projectors]
    if not mats:
        return [Violation("projectors", "no projectors given")]
    d = mats[0].shape[0]
    names = list(labels) if labels is not None else [str(i) for i in range(len(mats))]
    for name, p in zip(names, mats):
        if p.shape != (d, d):
            problems.append(
                Violation("shape", f"projector is {p.shape}, expected ({d}, {d})", symbol=name)
            )
            return problems
        if np.max(np.abs(p - p.conj().T)) > TOL.projector:
            problems.append(Violation("hermitian", "projector is not Hermitian", symbol=name))
        if np.max(np.abs(p @ p - p)) > TOL.projector:
            problems.append(Violation("idempotent", "P @ P != P", symbol=name))
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            overlap = float(np.max(np.abs(mats[i] @ mats[j])))
            if overlap > TOL.projector:
                problems.append(
                    Violation(
                        "orthogonal",
                        f"projectors {names[i]!r} and {names[j]!r} overlap "
                        f"(max |P_i P_j| = {overlap:.3e})",
                    )
                )
    total = sum(mats)
    dev = float(np.max(np.abs(total - np.eye(d))))
    if dev > TOL.projector:
        problems.append(
            Violation("complete", f"projectors sum to identity within {dev:.3e} only")
        )
    return problems
