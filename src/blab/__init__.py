"""blab: a numerical laboratory for Blaschke products with boundary-clustered zeros.

Core objects: BlaschkeProduct over a ZeroSequence, model functions and
Stolz-type regions on the disk, inequality verification drivers, critical
point extraction, and Hardy/Bergman integral means.
"""

from .bounds import (
    BoundReport,
    EnvelopeFit,
    chord_check,
    envelope_fit,
    envelope_grid,
    lemma_bound,
    lemma_check,
    lemma_lhs,
    schwarz_pick_bound,
    schwarz_pick_check,
    theorem_bound,
    theorem_check,
    three_point_check,
)
from .critical import (
    CriticalSet,
    SumSeries,
    critical_points,
    critical_sum,
    log_weighted_sum,
    protas_sum,
)
from .errors import (
    BlabError,
    DomainError,
    EmptyRegionError,
    InvalidZeroError,
    ResolutionError,
    RootFindingError,
    SamplingError,
)
from .fileio import (
    atomic_write_text,
    canonical_json,
    format_zeros,
    means_csv,
    parse_zero_line,
    points_csv,
    read_boundary,
    read_zeros,
    series_csv,
    write_boundary,
    write_report,
    write_zeros,
)
from .means import (
    MeansTable,
    bergman_integral,
    hardy_mean,
    hp_trend,
    radial_geometric_family,
)
from .products import (
    BlaschkeProduct,
    ZeroSequence,
    blaschke_factor,
    blaschke_sum,
    factor_derivative,
    truncation_tail,
)
from .regions import (
    BoundarySet,
    GeometricLaw,
    ModelFunction,
    PowerLaw,
    StolzSpec,
    angular_halfwidth,
    in_stolz,
    region_boundary,
    region_is_empty,
    sample_zeros,
    type_beta,
)

__version__ = "0.1.0"

# the names imported above, each written once there, and the version
__all__ = sorted(name for name, value in globals().items()
                 if getattr(value, "__module__", "").startswith("blab.")) + ["__version__"]
