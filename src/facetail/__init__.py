"""facetail: atomic exponent measures on orthant faces.

Finite atomic exponent measures, the equivalent criteria for
extremal independence of a coordinate bipartition, conditional tail laws
and their factorization structure, exact simulation, estimation, and the
induced dependence graph.
"""

__version__ = "0.1.0"

from .conditional import (
    ConditionalLaw,
    FactorizationVerdict,
    conditional_factorization,
    conditional_law,
    marginal_rectangle_probability,
    rectangle_probability,
)
from .estimate import (
    ChiMatrix,
    TestResult,
    chi_empirical,
    chi_exact,
    factorization_test,
    permutation_independence_test,
)
from .graphs import (
    ExtremalGraph,
    build_graph,
    certify_partition_bruteforce,
    empirical_graph,
    finest_partition,
    to_dot,
)
from .independence import (
    AdditivityCheck,
    BatteryResult,
    IndependenceReport,
    agreement_battery,
    check_additivity,
    check_df_factorization,
    check_mixed_margins,
    check_support,
    default_grid,
    face_interior_mass,
    full_report,
    joint_exceedance_mass,
)
from .measure import (
    ExponentMeasure,
    InvalidMeasureError,
    MeasureFormatError,
    Violation,
    distribution_function,
    exponent_function,
    exponent_function_extended,
    exponent_function_grid,
    is_standardized,
    load_measure,
    margins,
    marginalize,
    measure_from_dict,
    measure_to_dict,
    measures_allclose,
    random_measure,
    rectangle_mass,
    require_valid,
    save_measure,
    standardize,
    validate_measure,
)
from .partition import (
    Bipartition,
    all_bipartitions,
    bipartition,
    check_dimension,
    random_bipartition,
)
from .simulate import (
    SampleBatch,
    load_batch,
    sample_conditional,
    sample_max_stable,
    save_batch,
)

__all__ = [name for name in dir() if not name.startswith("_")]
