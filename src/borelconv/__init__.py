"""Computational kernel for endlessly continuable germs in the Borel plane:
discrete filtered sets, allowed paths, contour deformation by flow, and
numerical convolution along paths.

The public names are resolved on first use, so importing the package, or
one of its modules, loads only the layers that are used.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(["DeformationGrid", "FlowField", "ValidationReport", "deform", "eta",
                     "mirror", "validate"], "deformation"),
    **dict.fromkeys(["BorelConvError", "ChiGuardError", "PreconditionError",
                     "ToleranceError"], "errors"),
    **dict.fromkeys(["DirectionalGlimpse", "FilteredSet", "glimpse_angle", "glimpsed",
                     "glimpsed_by_filtration", "glimpsed_sum_points", "seen"], "filtered_set"),
    **dict.fromkeys(["ContinuationTrace", "ConvolveConfig", "Germ", "ProbeReport",
                     "continue_along", "convolve_along", "convolve_at", "eval_local",
                     "singularity_probe"], "germs"),
    **dict.fromkeys(["AdmissibleLevelInterval", "Path", "admissible_levels", "concat",
                     "distance_to_set", "is_allowed", "is_directional", "local_radius",
                     "reverse"], "paths"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """A public name from its module, or a submodule, imported on first use."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    try:
        return importlib.import_module(f".{name}", __name__)
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
