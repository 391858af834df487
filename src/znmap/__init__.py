"""Planar maps with cyclic rotation symmetry.

Map families whose origin is a local but not global attractor, numerical
verification of their dynamic properties (equivariance, periodic orbits,
spectra, rotation numbers, basins), and the exact tangent-space/codimension
computation for the order-4 singularity.  A map is named by a MapSpec and
evaluated with eval_map, jac_map and step_batch.
"""

from .maps import (
    MapSpec,
    RadialProfile,
    default_profile,
    eval_map,
    from_polar,
    jac_map,
    radial_u,
    rotate,
    sector_of,
    step_batch,
    to_polar,
)
from .analysis import (
    Orbit,
    PeriodicOrbit,
    SpectralSample,
    boundary_smoothness_check,
    classify_batch,
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
    angle_lift,
    basin_raster,
    estimate_rotation,
    image_curve,
    transversality_det,
)
from .verify import CheckResult, VerificationReport, run_suite

__version__ = "0.1.0"
