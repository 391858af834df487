"""Planar maps with cyclic rotation symmetry.

Map families whose origin is a local but not global attractor, numerical
verification of their dynamic properties (equivariance, periodic orbits,
spectra, rotation numbers, basins), and the exact tangent-space/codimension
computation for the order-4 singularity.  A map is named by a MapSpec and
evaluated with eval_map, jac_map and step_batch.
"""

# Set before the submodules load: verify derives its tool name from it.
__version__ = "0.1.0"

from .maps import (
    MapSpec,
    RadialProfile,
    default_profile,
    eval_map,
    from_polar,
    jac_map,
    radial_u,
    sector_of,
    step_batch,
    to_polar,
)
from .analysis import (
    Orbit,
    PeriodicOrbit,
    SpectralSample,
    classify_batch,
    equivariance_residual,
    find_periodic,
    iterate,
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
