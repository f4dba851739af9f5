"""Convex bodies on the unit sphere: polar duality, Hausdorff metrics,
and a verification harness.

Bodies are finitely generated: a spherical body is the intersection of
a polyhedral convex cone with the sphere.  The polar transform, convex
hulls, exact and sampled Pompeiu-Hausdorff distances, hemisphere
separation, and the randomized property suites (with CSV reporting and
a command-line front end) build on that representation.
"""

from .body import (
    ShapeSpec,
    SphericalBody,
    bodies_equal,
    body_match_angle,
    canonicalize,
    contains,
    from_generators,
    has_interior,
    hemisphere_body,
    hemispherical_witness,
    is_hemispherical,
    is_wulff_relative,
    load_shape,
    save_shape,
)
from .errors import (
    DimensionMismatchError,
    GenerationError,
    NonFiniteError,
    NonHemisphericalError,
    NormalizationError,
    NotAWulffShapeError,
    PolarEmptyError,
    ResolutionError,
    SeparationError,
    ShapeFileError,
    WulffkitError,
)
from .geometry import (
    Angle,
    UnitPoint,
    arc_point,
    geodesic_distance,
    hemisphere_contains,
)
from .harness import (
    SUITE_NAMES,
    PropertyReport,
    SuiteConfig,
    gen_wulff,
    run_suite,
    summarize,
    write_csv,
)
from .kernels import BACKEND
from .metric import (
    dilation_contains,
    dilation_intersection_check,
    directed_distance,
    directed_distance_with_bound,
    hausdorff,
    hausdorff_with_bound,
    hemisphere_hausdorff,
    point_body_distance,
    point_body_distance_sampled,
    separate,
)
from .transforms import (
    double_polar,
    dual_wulff,
    polar,
    polar_admissible,
    polar_antitone_check,
    spherical_hull,
)

__version__ = "0.1.0"

__all__ = [
    "Angle",
    "BACKEND",
    "DimensionMismatchError",
    "GenerationError",
    "NonFiniteError",
    "NonHemisphericalError",
    "NormalizationError",
    "NotAWulffShapeError",
    "PolarEmptyError",
    "PropertyReport",
    "ResolutionError",
    "SUITE_NAMES",
    "SeparationError",
    "ShapeFileError",
    "ShapeSpec",
    "SphericalBody",
    "SuiteConfig",
    "UnitPoint",
    "WulffkitError",
    "arc_point",
    "bodies_equal",
    "body_match_angle",
    "canonicalize",
    "contains",
    "dilation_contains",
    "dilation_intersection_check",
    "directed_distance",
    "directed_distance_with_bound",
    "double_polar",
    "dual_wulff",
    "from_generators",
    "gen_wulff",
    "geodesic_distance",
    "hausdorff",
    "hausdorff_with_bound",
    "has_interior",
    "hemisphere_body",
    "hemisphere_contains",
    "hemisphere_hausdorff",
    "hemispherical_witness",
    "is_hemispherical",
    "is_wulff_relative",
    "load_shape",
    "point_body_distance",
    "point_body_distance_sampled",
    "polar",
    "polar_admissible",
    "polar_antitone_check",
    "run_suite",
    "save_shape",
    "separate",
    "spherical_hull",
    "summarize",
    "write_csv",
    "__version__",
]
