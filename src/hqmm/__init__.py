"""Stochastic and quantum finite-state generators.

Classical Mealy-form hidden Markov models, hidden quantum Markov models
built from symbol-keyed quantum operations, conversions between the two,
sequential readout of 1D cluster states and of translationally invariant
matrix product states, and Hankel-rank lower bounds on hidden-state counts.

The package logs to the ``hqmm`` logger, which has only a ``NullHandler``:
nothing is printed unless the application configures logging.
"""

import logging

from .analysis import (
    HankelBlock,
    WordDistribution,
    block_entropy,
    enumerate_distribution,
    hankel_block,
    sample_trajectory,
    state_count_lower_bound,
)
from .classical import HmmModel, is_deterministic, is_reversible, validate_hmm
from .cluster import (
    ClusterOracle,
    MeasurementBasis,
    build_cluster,
    cluster_kraus,
    h3_closed_form,
    length3_closed_form,
    oracle_word_probability,
)
from .config import TOL
from .linalg import Violation, fixed_point, numerical_rank, transfer_matrix
from .modelfile import (
    BUNDLED_MODELS,
    ModelFileError,
    load_bundled,
    parse_model,
    serialize_model,
)
from .mps import MpsModel, cluster_mps, mps_to_hqmm, validate_mps
from .quantum import (
    HqmmModel,
    VnModel,
    coherence_check,
    conditional_update,
    embed_classical,
    pure_from_reversible,
    symbol_probability,
    validate_hqmm,
    vn_generator,
)

logging.getLogger("hqmm").addHandler(logging.NullHandler())

__version__ = "0.1.0"

__all__ = [
    "BUNDLED_MODELS",
    "ClusterOracle",
    "HankelBlock",
    "HmmModel",
    "HqmmModel",
    "MeasurementBasis",
    "ModelFileError",
    "MpsModel",
    "TOL",
    "Violation",
    "VnModel",
    "WordDistribution",
    "block_entropy",
    "build_cluster",
    "cluster_kraus",
    "cluster_mps",
    "coherence_check",
    "conditional_update",
    "embed_classical",
    "enumerate_distribution",
    "fixed_point",
    "h3_closed_form",
    "hankel_block",
    "is_deterministic",
    "is_reversible",
    "length3_closed_form",
    "load_bundled",
    "mps_to_hqmm",
    "numerical_rank",
    "oracle_word_probability",
    "parse_model",
    "pure_from_reversible",
    "sample_trajectory",
    "serialize_model",
    "state_count_lower_bound",
    "symbol_probability",
    "transfer_matrix",
    "validate_hmm",
    "validate_hqmm",
    "validate_mps",
    "vn_generator",
]
