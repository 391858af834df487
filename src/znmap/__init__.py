"""Planar maps with cyclic rotation symmetry.

Map families whose origin is a local but not global attractor, numerical
verification of their dynamic properties (equivariance, periodic orbits,
spectra, rotation numbers, basins), and the exact tangent-space/codimension
computation for the order-4 singularity.
"""

from .geometry import (
    angle_lift,
    from_polar,
    rotate,
    sector_of,
    to_polar,
)
from .maps import (
    MapSpec,
    RadialProfile,
    default_profile,
    eval_f4,
    eval_fn,
    eval_g4,
    eval_h,
    eval_hn,
    eval_map,
    jac_f4,
    jac_f4_polar,
    jac_fn,
    jac_g4,
    jac_map,
    radial_u,
    step_batch,
)
from .analysis import (
    ConvergenceVerdict,
    Orbit,
    PeriodicOrbit,
    SpectralSample,
    boundary_smoothness_check,
    classify_batch,
    classify_orbit,
    equivariance_residual,
    find_periodic,
    iterate,
    properness_check,
    spectral_scan,
)
from .topology import (
    BasinRaster,
    CurveSample,
    RotationEstimate,
    basin_raster,
    estimate_rotation,
    image_curve,
    transversality_det,
)
from .verify import CheckResult, VerificationReport, run_suite

__version__ = "0.1.0"
