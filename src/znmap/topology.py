"""Basin rasterization, image-curve sampling, and rotation-number estimates.

The rotation number is estimated from orbit angles via the continuous lift;
for sector-advancing maps the lifted slope converges to (sector advance)/n
per step, and the best small-denominator rational is read off with a
continued-fraction truncation (denominators capped at 64).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import TWO_PI, Point, angle_lift, from_polar, sector_of, to_polar
from .maps import MapSpec, eval_map
from .analysis import classify_batch


@dataclass
class BasinRaster:
    window: tuple  # (xmin, xmax, ymin, ymax)
    width: int
    height: int
    kinds: np.ndarray  # (height, width) uint8: 0 undecided, 1 converged, 2 escaped
    budget: int
    eps_in: float
    r_escape: float

    def counts(self) -> dict:
        flat = self.kinds.ravel()
        return {
            "converged": int((flat == 1).sum()),
            "escaped": int((flat == 2).sum()),
            "undecided": int((flat == 0).sum()),
        }


@dataclass
class CurveSample:
    thetas: np.ndarray
    points: np.ndarray  # (samples, 2)


@dataclass
class RotationEstimate:
    slope: float
    rational: tuple  # (p, q), q <= 64
    iterates_used: int


def basin_raster(spec: MapSpec, window: tuple, width: int, height: int,
                 budget: int = 10_000, eps_in: float = 1e-8,
                 r_escape: float = 1e6) -> BasinRaster:
    """Classify the orbit of every pixel center.

    Row 0 is the top of the window (max y); pixel centers are sampled, not
    corners.  The stepping is elementwise, so the grid may be partitioned
    arbitrarily with bit-identical results: a raster of at least
    2 * 16,384 pixels runs on one thread per CPU available to the process
    (see classify_batch), with kinds bitwise those of the serial loop.
    """
    if width < 1 or height < 1:
        raise ValueError("raster dimensions must be positive")
    xmin, xmax, ymin, ymax = window
    if not (all(map(math.isfinite, window)) and xmin < xmax and ymin < ymax):
        raise ValueError("window must be finite with xmin < xmax and ymin < ymax")
    xs = xmin + (np.arange(width) + 0.5) * (xmax - xmin) / width
    ys = ymax - (np.arange(height) + 0.5) * (ymax - ymin) / height
    gx, gy = np.meshgrid(xs, ys)
    kinds, _ = classify_batch(spec, gx.ravel(), gy.ravel(), budget, eps_in, r_escape)
    return BasinRaster(window=tuple(window), width=width, height=height,
                       kinds=kinds.reshape(height, width), budget=budget,
                       eps_in=eps_in, r_escape=r_escape)


def image_curve(spec, radius: float, samples: int) -> CurveSample:
    """Image of the circle of the given radius at equally spaced angles."""
    if samples < 4:
        raise ValueError("need at least 4 samples")
    thetas = np.arange(samples) * TWO_PI / samples
    pts = np.empty((samples, 2))
    for i, th in enumerate(thetas):
        pts[i] = eval_map(spec, from_polar((radius, th)))
    return CurveSample(thetas=thetas, points=pts)


def transversality_det(k: float, theta: float) -> float:
    """det of the matrix with rows gamma(theta), gamma'(theta) for the
    image curve gamma = (k/2)(-sin^3, cos^3): equals (3k^2/4) sin^2 cos^2."""
    s = math.sin(theta)
    c = math.cos(theta)
    return 0.75 * k * k * (s * c) ** 2


def transversality_det_numeric(k: float, theta: float, h: float = 1e-6) -> float:
    """Same determinant with gamma' from central finite differences."""
    def gamma(t):
        s, c = math.sin(t), math.cos(t)
        return (-0.5 * k * s ** 3, 0.5 * k * c ** 3)

    g = gamma(theta)
    gp = gamma(theta + h)
    gm = gamma(theta - h)
    d1 = ((gp[0] - gm[0]) / (2 * h), (gp[1] - gm[1]) / (2 * h))
    return g[0] * d1[1] - g[1] * d1[0]


def estimate_rotation(spec, p0: Point, max_iters: int = 200) -> RotationEstimate:
    """Average angular advance per iterate, as a fraction of a full turn.

    Iterates while the orbit stays away from the origin (|p| > 1e-12) and
    finite; needs at least 8 usable angles.  The slope uses the full lift
    span; the rational is the best approximation with denominator <= 64.
    """
    x, y = float(p0[0]), float(p0[1])
    if x == 0.0 and y == 0.0:
        raise ValueError("rotation undefined for the origin orbit")
    angles = []
    p = (x, y)
    cause = f"max_iters={max_iters} leaves too few angles"
    for _ in range(max_iters + 1):
        r, th = to_polar(p)
        if r <= 1e-12:
            cause = "orbit reached origin too fast"
            break
        angles.append(th)
        p = eval_map(spec, p)
        if not (math.isfinite(p[0]) and math.isfinite(p[1])):
            cause = f"orbit overflowed after {len(angles)} iterates, too fast"
            break
    if len(angles) < 8:
        raise RuntimeError(f"{cause} for a rotation estimate")
    lift = angle_lift(angles)
    slope = (lift[-1] - lift[0]) / (TWO_PI * (len(lift) - 1))
    slope %= 1.0
    frac = Fraction(slope).limit_denominator(64)
    return RotationEstimate(slope=slope, rational=(frac.numerator, frac.denominator),
                            iterates_used=len(angles))


def _sector_snapped(p: Point, n: int) -> int:
    """Sector index with boundary grace: an angle within 1e-12 below a ray
    counts as on the ray, hence in the sector above it (the half-open
    dispatch convention, applied with the standard angle tolerance)."""
    j = sector_of(p, n)
    _, theta = to_polar(p)
    if TWO_PI * j / n - theta <= 1e-12:
        j = j % n + 1
    return j


def sector_cycle_check(spec, n: int, p0: Point, iters: int = 50) -> dict:
    """Check that the orbit advances sector index by exactly +1 (mod n).

    Orbits hugging the boundary rays (the periodic orbit does exactly
    that) are assigned sectors with 1e-12 angle grace.
    """
    p = (float(p0[0]), float(p0[1]))
    sectors = []
    for _ in range(iters + 1):
        if math.hypot(*p) <= 1e-12:
            break
        sectors.append(_sector_snapped(p, n))
        p = eval_map(spec, p)
        if not (math.isfinite(p[0]) and math.isfinite(p[1])):
            break
    advances_ok = all(sectors[i + 1] == sectors[i] % n + 1 for i in range(len(sectors) - 1))
    return {"sectors": sectors, "passed": advances_ok and len(sectors) >= 2}
