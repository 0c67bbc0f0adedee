"""Sequential readout of translationally invariant matrix product states.

A bond-dimension-D MPS generated site by site through an isometry, with each
fresh physical system projectively measured right after it is entangled, is
statistically a D-level hidden quantum Markov model. The reduction keeps only
the bond space; the physical system enters through the Kraus operators
``K_s^i = sum_j <i|P_s|j> V^j``. Only long-run statistics are modeled: the
final boundary vector that would decouple a finite chain is ignored.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .config import TOL
from .cluster import MeasurementBasis, basis_vectors
from .linalg import (
    Violation,
    check_identity,
    check_projector_set,
    checked_alphabet,
    checked_square,
    require_valid,
)
from .quantum import HqmmModel, checked_initial, initial_violations


@dataclass(frozen=True)
class MpsModel:
    """Site tensors ``V^i`` (one D x D matrix per physical level) plus a
    symbol-keyed complete set of projectors on the physical space."""

    alphabet: tuple[str, ...]
    bond_dim: int
    phys_dim: int
    tensors: tuple[np.ndarray, ...]
    projectors: dict[str, np.ndarray]
    initial: np.ndarray | None = None
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        alphabet = checked_alphabet(self.alphabet, self.projectors, "projectors")
        object.__setattr__(self, "alphabet", alphabet)
        try:
            bond, phys = operator.index(self.bond_dim), operator.index(self.phys_dim)
        except TypeError:
            raise ValueError(
                f"dimensions must be integers, got bond {self.bond_dim!r}, "
                f"physical {self.phys_dim!r}"
            ) from None
        object.__setattr__(self, "bond_dim", bond)
        object.__setattr__(self, "phys_dim", phys)
        if self.bond_dim < 1 or self.phys_dim < 1:
            raise ValueError(
                f"dimensions must be positive, got bond {self.bond_dim}, physical {self.phys_dim}"
            )
        if len(self.tensors) != self.phys_dim:
            raise ValueError(
                f"need one tensor per physical level: got {len(self.tensors)}, "
                f"expected {self.phys_dim}"
            )
        tensors = tuple(
            checked_square(v, bond, f"tensor V^{i}") for i, v in enumerate(self.tensors)
        )
        object.__setattr__(self, "tensors", tensors)
        projs = {s: checked_square(self.projectors[s], phys, f"projector {s!r}") for s in alphabet}
        object.__setattr__(self, "projectors", projs)
        if self.initial is not None:
            object.__setattr__(self, "initial", checked_initial(self.initial, self.bond_dim))


def validate_mps(m: MpsModel) -> list[Violation]:
    """Isometry condition on the tensors and completeness of the projectors."""
    gram = sum(v.conj().T @ v for v in m.tensors)
    problems = check_identity(gram, TOL.completeness, "isometry", "sum_i V^i^dagger V^i")
    problems += check_projector_set([m.projectors[s] for s in m.alphabet], list(m.alphabet))
    return problems + initial_violations(m)


def mps_to_hqmm(m: MpsModel) -> HqmmModel:
    """Reduce the readout to a D-level model with ``phys_dim`` Kraus operators
    per symbol, ``K_s^i = sum_j P_s[i, j] V^j``."""
    require_valid(validate_mps(m), "MPS model")
    ops: dict[str, list[np.ndarray]] = {}
    for s in m.alphabet:
        p = m.projectors[s]
        ops[s] = [
            sum(p[i, j] * m.tensors[j] for j in range(m.phys_dim))
            for i in range(m.phys_dim)
        ]
    return HqmmModel(
        alphabet=m.alphabet, dim=m.bond_dim, operations=ops, initial=m.initial
    )


def cluster_mps(basis: MeasurementBasis) -> MpsModel:
    """D=2 cluster-state MPS read out in the given basis.

    Tensors ``V^0 = |+><0|`` and ``V^1 = |-><1|`` make the induced model's
    per-symbol operation coincide with the single-qubit readout operation;
    the matching initial bond state is ``|+><+|``.
    """
    s = 1 / np.sqrt(2)
    v0 = np.array([[s, 0.0], [s, 0.0]], dtype=complex)
    v1 = np.array([[0.0, s], [0.0, -s]], dtype=complex)
    e0, e1 = basis_vectors(basis)
    projectors = {"0": np.outer(e0, e0.conj()), "1": np.outer(e1, e1.conj())}
    plus = np.full((2, 2), 0.5, dtype=complex)
    return MpsModel(
        alphabet=("0", "1"),
        bond_dim=2,
        phys_dim=2,
        tensors=(v0, v1),
        projectors=projectors,
        initial=plus,
    )
