"""Non-adaptive sequential readout of 1D cluster states.

Measuring a cluster-state chain qubit by qubit in a fixed one-parameter
basis is equivalent to iterating a single pure two-outcome quantum operation
on one qubit. This module provides that two-operator family, an exact
many-body statevector oracle for cross-checking it, and the closed-form
length-3 statistics of the generated binary process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .linalg import checked_integer
from .quantum import HqmmModel

MAX_ORACLE_QUBITS = 14


def _wrap(x: float, period: float) -> float:
    y = math.fmod(x, period)
    return y + period if y < 0 else y


@dataclass(frozen=True)
class MeasurementBasis:
    """Readout basis angles; phi canonicalized to [0, pi), xi to [0, 2*pi)."""

    phi: float
    xi: float

    def __post_init__(self):
        if not (math.isfinite(self.phi) and math.isfinite(self.xi)):
            raise ValueError("basis angles must be finite")
        object.__setattr__(self, "phi", _wrap(float(self.phi), math.pi))
        object.__setattr__(self, "xi", _wrap(float(self.xi), 2 * math.pi))


def basis_vectors(basis: MeasurementBasis) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal outcome states for outcomes 0 and 1."""
    c, s = math.cos(basis.phi), math.sin(basis.phi)
    phase = np.exp(1j * basis.xi)
    e0 = np.array([c, phase * s], dtype=complex)
    e1 = np.array([s, -phase * c], dtype=complex)
    return e0, e1


def cluster_kraus(basis: MeasurementBasis) -> HqmmModel:
    """Two-state model of the readout: one pure operation per outcome.

    ``K_s = (|0><e_s| + |1><e_s| Z) / sqrt(2)`` where ``e_s`` are the basis
    states; the pair always satisfies ``K_0^dag K_0 + K_1^dag K_1 = I``.
    """
    ops = {}
    for symbol, e in zip(("0", "1"), basis_vectors(basis)):
        bra = e.conj()
        k = np.array([[bra[0], bra[1]], [bra[0], -bra[1]]], dtype=complex) / math.sqrt(2)
        ops[symbol] = [k]
    return HqmmModel(alphabet=("0", "1"), dim=2, operations=ops)


@dataclass(frozen=True)
class ClusterOracle:
    """Exact amplitudes of an N-qubit 1D cluster state.

    Qubit 1 is the least significant bit of the amplitude index, matching
    the order in which qubits are measured.
    """

    n_qubits: int
    state: np.ndarray

    def __post_init__(self):
        state = np.asarray(self.state, dtype=complex)
        if state.shape != (2**self.n_qubits,):
            raise ValueError(
                f"state must hold 2^{self.n_qubits} amplitudes, got shape {state.shape}"
            )
        norm = float(np.vdot(state, state).real)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm^2 = {norm:.12g}, expected 1")
        object.__setattr__(self, "state", state)


def build_cluster(n: int) -> ClusterOracle:
    """Statevector of ``CZ_{N,N-1} ... CZ_{21} |+>^N``.

    Every amplitude has magnitude ``2**(-N/2)``; the controlled-phase gates
    only contribute a sign flip for each adjacent pair of 1 bits.
    """
    n = checked_integer(n, "chain length")
    if not 2 <= n <= MAX_ORACLE_QUBITS:
        raise ValueError(f"chain length must be between 2 and {MAX_ORACLE_QUBITS}, got {n}")
    idx = np.arange(2**n, dtype=np.int64)
    pairs = idx & (idx >> 1)
    parity = np.zeros_like(idx)
    for bit in range(n - 1):
        parity ^= (pairs >> bit) & 1
    amps = np.where(parity == 1, -1.0, 1.0) * 2.0 ** (-n / 2)
    return ClusterOracle(n_qubits=n, state=amps.astype(complex))


def oracle_word_probability(
    oracle: ClusterOracle, basis: MeasurementBasis, word: Iterable[str]
) -> float:
    """Brute-force ``|| P_{s_n} ... P_{s_1} |cluster_N> ||^2``.

    ``P_s`` projects qubit ``i`` onto the basis state for outcome ``s_i``;
    measured qubits are contracted out one by one.
    """
    word = tuple(word)
    n = oracle.n_qubits
    if len(word) > n:
        raise ValueError(f"word of length {len(word)} exceeds the {n}-qubit chain")
    vecs = dict(zip(("0", "1"), basis_vectors(basis)))
    t = oracle.state.reshape((2,) * n)
    for s in word:
        if s not in vecs:
            raise ValueError(f"unknown symbol {s!r}; cluster alphabet is ('0', '1')")
        # qubit k is the last remaining axis after k-1 contractions
        t = np.tensordot(t, vecs[s].conj(), axes=([t.ndim - 1], [0]))
    return float(np.vdot(t, t).real)


def _parity_bias(basis: MeasurementBasis) -> float:
    """``c = cos(xi)(sin(2 phi) + sin(6 phi))``: the length-3 words of even
    parity each have probability ``1/8 + c/32``, the odd ones ``1/8 - c/32``."""
    return math.cos(basis.xi) * (math.sin(2 * basis.phi) + math.sin(6 * basis.phi))


def length3_closed_form(basis: MeasurementBasis) -> dict[tuple[str, str, str], float]:
    """Stationary length-3 word distribution.

    Words with an even number of 1s share ``1/8 + cos(xi)(sin(2 phi) +
    sin(6 phi))/32``; the odd-parity words share the complementary value.
    """
    c = _parity_bias(basis)
    p_even, p_odd = 0.125 + c / 32.0, 0.125 - c / 32.0
    dist = {}
    for b in range(8):
        word = tuple(format(b, "03b"))
        dist[word] = p_even if (bin(b).count("1") % 2 == 0) else p_odd
    return dist


def h3_closed_form(basis: MeasurementBasis) -> float:
    """Closed-form entropy (bits) of the stationary length-3 distribution.

    Equals 3 exactly whenever the parity bias vanishes (phi a multiple of
    pi/4, or xi = pi/2); base-2 logarithms are forced by that maximum.
    """
    phi, xi = basis.phi, basis.xi
    c = _parity_bias(basis)
    h = 5.0 - 0.5 * math.log2(16.0 - c * c)
    gain = 0.5 * math.cos(xi) * math.cos(2 * phi) ** 2 * math.sin(2 * phi)
    if gain != 0.0:
        h += gain * math.log2(8.0 / (4.0 + c) - 1.0)
    return h
