"""Computational kernel for endlessly continuable germs in the Borel plane:
discrete filtered sets, allowed paths, contour deformation by flow, and
numerical convolution along paths."""

from .deformation import (
    DeformationGrid,
    FlowField,
    ValidationReport,
    deform,
    eta,
    mirror,
    validate,
)
from .errors import BorelConvError, ChiGuardError, PreconditionError, ToleranceError
from .filtered_set import (
    DirectionalGlimpse,
    FilteredSet,
    glimpse_angle,
    glimpsed,
    glimpsed_by_filtration,
    glimpsed_sum_points,
    seen,
)
from .germs import (
    ContinuationTrace,
    ConvolveConfig,
    Germ,
    ProbeReport,
    continue_along,
    convolve_along,
    convolve_at,
    eval_local,
    singularity_probe,
)
from .paths import (
    AdmissibleLevelInterval,
    Path,
    admissible_levels,
    concat,
    distance_to_set,
    is_allowed,
    is_directional,
    local_radius,
    reverse,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleLevelInterval",
    "BorelConvError",
    "ChiGuardError",
    "ContinuationTrace",
    "ConvolveConfig",
    "DeformationGrid",
    "DirectionalGlimpse",
    "FilteredSet",
    "FlowField",
    "Germ",
    "Path",
    "PreconditionError",
    "ProbeReport",
    "ToleranceError",
    "ValidationReport",
    "admissible_levels",
    "concat",
    "continue_along",
    "convolve_along",
    "convolve_at",
    "deform",
    "distance_to_set",
    "eta",
    "eval_local",
    "glimpse_angle",
    "glimpsed",
    "glimpsed_by_filtration",
    "glimpsed_sum_points",
    "is_allowed",
    "is_directional",
    "local_radius",
    "mirror",
    "reverse",
    "seen",
    "singularity_probe",
    "validate",
]
