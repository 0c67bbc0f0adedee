"""Centralized numerical tolerances.

Shared validator and solver thresholds live in the frozen record ``TOL``. Not
in it: ``linalg._stationary_vector``'s vanishing mass 1e-12, ``ClusterOracle``'s
norm check 1e-12, ``numerical_rank``'s default cutoff factor 2**-50 and the
display cutoff 1e-14 of ``cli._fmt_entry``, which prints no smaller imaginary part.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Default numerical thresholds shared across the package."""

    hermitian: float = 1e-10        # max-norm deviation from M == M^dagger
    trace_one: float = 1e-10        # |tr(rho) - 1| for density matrices
    psd: float = 1e-10              # allowed magnitude of negative eigenvalues
    prob_sum: float = 1e-12         # probability-vector normalization
    stochastic: float = 1e-12       # HMM column sums and entry bounds
    completeness: float = 1e-10     # Kraus completeness / isometry condition
    unitary: float = 1e-10          # U^dagger U == I
    projector: float = 1e-10        # Hermitian / idempotent / orthogonal checks
    eigenvalue_one: float = 1e-8    # window for detecting fixed-point eigenvalues
    zero_entry: float = 1e-14       # zero threshold for determinism checks
    prob_floor: float = -1e-8       # hard error below this for computed probabilities
    impossible: float = 1e-14       # outcomes at/below this probability cannot be conditioned on


TOL = Tolerances()
