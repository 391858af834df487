"""Basin rasterization, image-curve sampling, and rotation-number estimates.

The rotation number is estimated from orbit angles via the continuous lift;
for sector-advancing maps the lifted slope converges to (sector advance)/n
per step, and the best small-denominator rational is read off with a
continued-fraction truncation (denominators capped at max(64, n), and at
64 for a callable).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import DEFAULT_BUDGET, DEFAULT_EPS_IN, DEFAULT_R_ESCAPE
from .maps import _FLOAT, _LIBM, TWO_PI, MapSpec, Point, _step, eval_map, eval_points, to_polar
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
    rational: tuple  # (p, q), q <= max(64, n); q <= 64 for a callable
    iterates_used: int


def basin_raster(spec: MapSpec, window: tuple, width: int, height: int,
                 budget: int = DEFAULT_BUDGET, eps_in: float = DEFAULT_EPS_IN,
                 r_escape: float = DEFAULT_R_ESCAPE) -> BasinRaster:
    """Classify the orbit of every pixel center.

    Row 0 is the top of the window (max y); pixel centers are sampled, not
    corners.  The kinds are those of classify_batch: bitwise those of the
    plain loop at every budget, with pixels retired early in the closed-form
    regions whose fate is known, and a raster of at least 2 * 16,384 pixels
    split over one thread per CPU available to the process.
    """
    if width < 1 or height < 1:
        raise ValueError("raster dimensions must be positive")
    xmin, xmax, ymin, ymax = window
    if not (all(map(math.isfinite, window)) and xmin < xmax and ymin < ymax):
        raise ValueError("window must be finite with xmin < xmax and ymin < ymax")
    xs = xmin + (np.arange(width) + 0.5) * (xmax - xmin) / width
    ys = ymax - (np.arange(height) + 0.5) * (ymax - ymin) / height
    gx, gy = np.meshgrid(xs, ys)
    kinds = classify_batch(spec, gx.ravel(), gy.ravel(), budget, eps_in, r_escape)[0]
    return BasinRaster(window=tuple(window), width=width, height=height,
                       kinds=kinds.reshape(height, width), budget=budget,
                       eps_in=eps_in, r_escape=r_escape)


def image_curve(spec, radius: float, samples: int) -> CurveSample:
    """Image of the circle of the given radius at equally spaced angles:
    eval_map at from_polar((radius, theta)) for each angle, bitwise up to
    which NaN an operation on two NaNs gives, through maps.eval_points (a
    non-finite radius gives NaN images, as eval_map does)."""
    if samples < 4:
        raise ValueError("need at least 4 samples")
    thetas = np.arange(samples) * TWO_PI / samples
    with np.errstate(invalid="ignore"):  # as on floats, inf * 0.0 gives NaN
        x, y = radius * _LIBM.cos(thetas), radius * _LIBM.sin(thetas)
    return CurveSample(thetas=thetas, points=np.column_stack(eval_points(spec, x, y)))


def transversality_det(k: float, theta: float) -> float:
    """det of the matrix with rows gamma(theta), gamma'(theta) for the
    image curve gamma = (k/2)(-sin^3, cos^3): equals (3k^2/4) sin^2 cos^2."""
    s = math.sin(theta)
    c = math.cos(theta)
    return 0.75 * k * k * (s * c) ** 2


def angle_lift(thetas) -> list[float]:
    """Continuous lift of an angle sequence.

    The first value is kept; each successive jump is wrapped into
    (-pi, pi] before accumulating, so rigid rotations lift to straight
    lines and sector-advancing orbits lift monotonically.
    """
    thetas = list(thetas)
    if not thetas:
        raise ValueError("empty angle sequence")
    out = [float(thetas[0])]
    prev = float(thetas[0])
    for th in thetas[1:]:
        th = float(th)
        d = math.remainder(th - prev, TWO_PI)
        if d == -math.pi:
            d = math.pi
        out.append(out[-1] + d)
        prev = th
    return out


def estimate_rotation(spec, p0: Point, max_iters: int = 200) -> RotationEstimate:
    """Average angular advance per iterate, as a fraction of a full turn.

    Iterates while the orbit stays away from the origin (|p| > 1e-12) and
    finite; needs at least 8 usable angles (max_iters below 7 is a
    ValueError before any step; an orbit that stops short, a RuntimeError).
    The slope uses the full lift span, taken mod 1 into [0, 1); the
    rational is the best approximation with denominator <= max(64, n)
    for a MapSpec of order n (so 1/n stays reachable) and <= 64 for a
    callable, mod 1.  A MapSpec steps through maps._step from the polar
    pair that each iterate's angle needs, so fn/hn with n != 4 take their
    chart once per iterate.
    """
    x, y = float(p0[0]), float(p0[1])
    if x == 0.0 and y == 0.0:
        raise ValueError("rotation undefined for the origin orbit")
    if max_iters + 1 < 8:
        raise ValueError(f"max_iters={max_iters} leaves too few angles; "
                         "the estimate needs max_iters >= 7")
    angles = []
    p = (x, y)
    on_spec = not callable(spec)
    for _ in range(max_iters + 1):
        polar = to_polar(p)
        if polar[0] <= 1e-12:
            cause = "orbit reached origin too fast"
            break
        angles.append(polar[1])
        p = _step(spec, p[0], p[1], _FLOAT, polar) if on_spec else eval_map(spec, p)
        if not (math.isfinite(p[0]) and math.isfinite(p[1])):
            cause = f"orbit overflowed after {len(angles)} iterates, too fast"
            break
    if len(angles) < 8:  # the loop broke early, which set cause
        raise RuntimeError(f"{cause} for a rotation estimate")
    lift = angle_lift(angles)
    slope = (lift[-1] - lift[0]) / (TWO_PI * (len(lift) - 1))
    slope %= 1.0
    if slope == 1.0:  # a tiny negative slope rounds up to 1
        slope = 0.0
    frac = Fraction(slope).limit_denominator(max(64, spec.n) if on_spec else 64) % 1
    return RotationEstimate(slope=slope, rational=(frac.numerator, frac.denominator),
                            iterates_used=len(angles))
