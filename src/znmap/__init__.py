"""Planar maps with cyclic rotation symmetry.

Map families whose origin is a local but not global attractor, numerical
verification of their dynamic properties (equivariance, periodic orbits,
spectra, rotation numbers, basins), and the exact tangent-space/codimension
computation for the order-4 singularity.  A map is named by a MapSpec and
evaluated with eval_map, jac_map and step_batch.

``import znmap`` loads no submodule and not numpy.  The package holds the
version and the constants that the CLI's parser reads (its defaults and
choices); every other public name, and the submodules ``maps``,
``analysis``, ``topology`` and ``verify``, load their module on first use
(PEP 562), so ``from znmap import MapSpec`` imports ``znmap.maps`` then.
"""

import importlib

__version__ = "0.1.0"
TOOL_VERSION = f"znmap {__version__}"

FAMILIES = ("f4", "g4", "fn", "h", "hn")
K_DEFAULT = 1.1

# classification defaults: step budget, convergence radius, escape radius
DEFAULT_BUDGET = 10_000
DEFAULT_EPS_IN = 1e-8
DEFAULT_R_ESCAPE = 1e6

# the names each submodule gives the package
_EXPORTS = {
    "maps": ("MapSpec", "RadialProfile", "default_profile", "eval_map", "from_polar",
             "jac_map", "radial_u", "sector_of", "step_batch", "to_polar"),
    "analysis": ("Orbit", "PeriodicOrbit", "SpectralSample", "classify_batch",
                 "equivariance_residual", "find_periodic", "iterate", "spectral_scan"),
    "topology": ("BasinRaster", "CurveSample", "RotationEstimate", "angle_lift",
                 "basin_raster", "estimate_rotation", "image_curve", "transversality_det"),
    "verify": ("CheckResult", "VerificationReport", "run_suite"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["TOOL_VERSION", "FAMILIES", "K_DEFAULT", "DEFAULT_BUDGET", "DEFAULT_EPS_IN",
           "DEFAULT_R_ESCAPE", *_EXPORTS, *_OWNER]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _OWNER:
        return getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
