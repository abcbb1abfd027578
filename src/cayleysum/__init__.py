"""Random Cayley sum graphs over finite abelian groups.

Exact edge-density deviations, additive energy, dissociation dimension,
structured/pseudorandom energy partitions, tail bounds, and a
proof-parameter cascade auditor.  All randomness is seeded and bit-exact
across runs (see rng.derive_seed).
"""

from .decomposition import (
    DecompositionResult,
    DecompositionStep,
    StructuredSubsetReport,
    energy_partition,
    find_structured_subset,
)
from .deviation import (
    DeviationReport,
    PackingResult,
    PipelineResult,
    RestrictionDraw,
    deviation_packing_pipeline,
    edge_density_deviation,
    greedy_low_overlap_packing,
    high_deviation_elements,
    random_subset,
    restriction_sample,
)
from .dissociation import (
    DimensionResult,
    LowDimensionSetCount,
    additive_dimension,
    count_low_dimension_sets,
    is_dissociated,
    span,
)
from .errors import CayleySumError, GuardError, PropertyError, StructuralError
from .groups import GroupSpec, parse_group
from .harness import (
    ExperimentReport,
    run_deviation_scan,
    run_joint_deviation_mc,
    run_restriction_mc,
    run_sigma_tail_mc,
    run_worst_case_scan,
    wilson_interval,
)
from .rng import (
    bernoulli_bits,
    bit_matrix,
    derive_seed,
    derive_seed_array,
    sample_without_replacement,
    splitmix64,
)
from .subsets import (
    GroupSubset,
    additive_energy,
    additive_energy_oracle,
    parse_subset,
    rep_function,
    sumset,
)

__version__ = "0.1.0"

__all__ = [
    "CayleySumError",
    "DecompositionResult",
    "DecompositionStep",
    "DeviationReport",
    "DimensionResult",
    "ExperimentReport",
    "GroupSpec",
    "GroupSubset",
    "GuardError",
    "LowDimensionSetCount",
    "PackingResult",
    "PipelineResult",
    "PropertyError",
    "RestrictionDraw",
    "StructuralError",
    "StructuredSubsetReport",
    "additive_dimension",
    "additive_energy",
    "additive_energy_oracle",
    "bernoulli_bits",
    "bit_matrix",
    "count_low_dimension_sets",
    "derive_seed",
    "derive_seed_array",
    "deviation_packing_pipeline",
    "edge_density_deviation",
    "energy_partition",
    "find_structured_subset",
    "greedy_low_overlap_packing",
    "high_deviation_elements",
    "is_dissociated",
    "parse_group",
    "parse_subset",
    "random_subset",
    "rep_function",
    "restriction_sample",
    "run_deviation_scan",
    "run_joint_deviation_mc",
    "run_restriction_mc",
    "run_sigma_tail_mc",
    "run_worst_case_scan",
    "sample_without_replacement",
    "span",
    "splitmix64",
    "sumset",
    "wilson_interval",
    "__version__",
]
