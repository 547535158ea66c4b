"""cqlab: a numerical laboratory for sequential projection decoding.

The package models classical-quantum channels (single sender, two-sender
multiple access, a three-sender variant with two coupled senders, and a
two-by-two interference configuration), builds frequency-typical sets and
projectors, decodes codebooks by chained projective measurements or by a
pretty good measurement, and evaluates the matching achievable rate regions.
All computations are exact dense linear algebra at desk scale.
"""

__version__ = "0.1.0"

from .linalg import (
    DIM_CAP,
    DensityOperator,
    DimensionCapError,
    Projector,
    hermitian_eig,
    orthonormal_basis,
    psd_leq,
    tensor_product,
    trace_distance,
)
from .typicality import (
    ClassicalDistribution,
    CqEnsemble,
    TypicalityParams,
    cond_typical_projector,
    entropy_bits,
    is_typical,
    typical_projector,
    typical_set,
)
from .geometry import (
    intersection_projector,
    jordan_decompose,
    seq_success_lower_bound,
    sequential_collapse,
)
from .channels import (
    CcqMac,
    CoupledMac,
    CqChannel,
    InterferenceChannel,
    holevo_information,
)
from .regions import RateRegion, ccq_mac_region, region_mask
from .smoothing import SmoothedEnsemble, smoothed_states
from .decoders import (
    Codebook,
    DecodeReport,
    monte_carlo_avg_error,
    pgm_decode,
    pgm_elements,
    sample_codebook,
    sequential_decode,
    smoothed_state_lookup,
    trajectory_estimate,
)
from .specio import (
    SpecError,
    dump_channel,
    load_channel,
    parse_channel,
    serialize_channel,
)
from .verify import run_suite, run_suites

__all__ = [
    "DIM_CAP",
    "CcqMac",
    "ClassicalDistribution",
    "Codebook",
    "CoupledMac",
    "CqChannel",
    "CqEnsemble",
    "DecodeReport",
    "DensityOperator",
    "DimensionCapError",
    "InterferenceChannel",
    "Projector",
    "RateRegion",
    "SmoothedEnsemble",
    "TypicalityParams",
    "ccq_mac_region",
    "cond_typical_projector",
    "entropy_bits",
    "hermitian_eig",
    "holevo_information",
    "intersection_projector",
    "is_typical",
    "jordan_decompose",
    "monte_carlo_avg_error",
    "orthonormal_basis",
    "pgm_decode",
    "pgm_elements",
    "psd_leq",
    "region_mask",
    "sample_codebook",
    "sequential_collapse",
    "sequential_decode",
    "seq_success_lower_bound",
    "serialize_channel",
    "smoothed_state_lookup",
    "smoothed_states",
    "SpecError",
    "dump_channel",
    "load_channel",
    "parse_channel",
    "run_suite",
    "run_suites",
    "tensor_product",
    "trace_distance",
    "typical_projector",
    "typical_set",
    "__version__",
]
