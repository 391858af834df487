"""Map families built around the quartic rational plane map.

Families (all fix the origin):

* ``f4`` -- the quartic rational map
  ``(x, y) -> (-k*y^3, k*x^3) / (1 + x^2 + y^2)`` for ``1 < k < 2/sqrt(3)``;
  order-4 rotation symmetry, the origin is a local attractor, and the point
  ``P = ((k-1)^(-1/2), 0)`` lies on an orbit of period 4.
* ``g4`` -- its three-parameter deformation
  ``f4 + alpha*(x, y) + (beta + delta*(x^2+y^2))*(-y, x)``.
* ``fn`` -- the order-n transplant of ``f4``: conjugate by the
  norm-preserving angular rescale on one sector and extend equivariantly.
* ``h`` / ``hn`` -- radially saturated variants that keep the dynamics near
  the origin and periodic orbit but pull far points inward, so infinity
  repels.

A ``MapSpec`` names a map and checks its parameters; ``eval_map``,
``jac_map`` and ``step_batch`` evaluate it, and the per-family functions
behind them are private.  Two functions pick the formula for a MapSpec:
``_step`` for the step and ``_jacobian`` for its Jacobian, each over one
of three namespaces that differ only in their functions and selects
(``_namespace``).  Every evaluator is a choice of namespace over them.
``eval_map`` takes ``(x, y)`` pairs of floats, over ``_FLOAT`` (``math``
with plain ``if``s), or of numpy arrays, over ``_NUMPY`` (numpy, which may
differ by a few ulps where numpy's ``arctan2``/``hypot``/``expm1`` differ
from ``math``'s); ``jac_map`` takes floats.  ``_LIBM`` is ``_NUMPY`` with
``math``'s ``hypot``, ``atan2`` and ``expm1`` mapped over the elements and
numpy's ``cos`` and ``sin``, whose float64 loops give libm's bits (the
tests pin them to ``math``, with numpy's SIMD dispatch on and off, and
each ``_FLOAT`` select to ``_LIBM``'s): ``eval_points`` and ``jac_points``
run over it and give the float path's bits on arrays, for sampled checks
and spectral scans, at a fraction of its cost per point.  The array entry
points take their coordinates as float arrays.  Jacobians are 2x2 numpy
arrays ``[[a, b], [c, d]]`` (``jac_points`` stacks them).  ``step_batch``
is ``eval_map`` on coordinate arrays, the fast one, for raster workloads.

Every evaluator runs its formula's own arithmetic at every point: the
origin gives the zeros the formula gives, and NaN or inf what IEEE gives
(NaN, mostly), with no raise or warning from ``eval_map``, ``jac_map``,
``eval_points`` or ``jac_points`` (``step_batch`` runs under the caller's
``np.errstate``).  The one exception is the fn Jacobian, zero at the
origin.  So fn/hn at n = 4 are f4/h bit for bit, origin included.  The
input checks ``to_polar`` and ``sector_of`` raise ValueError instead.

Points are plain ``(x, y)`` tuples; polar pairs are ``(r, theta)`` with
``r >= 0`` and ``theta`` normalized to ``[0, 2*pi)`` (the origin gets
``theta = 0``).  Sectors of order ``n`` are indexed ``1..n`` with the
half-open convention ``theta in [2*pi*(j-1)/n, 2*pi*j/n)``, so every
nonzero point belongs to exactly one sector and boundary rays belong to
the sector above them.
"""

import functools
import math
import types
from dataclasses import dataclass

import numpy as np

from . import FAMILIES, K_DEFAULT

Point = tuple[float, float]

TWO_PI = 2.0 * math.pi

K_MIN = 1.0
K_MAX = 2.0 / math.sqrt(3.0)


def validate_k(k: float) -> None:
    if not (K_MIN < k < K_MAX):
        raise ValueError(f"k must lie in (1, 2/sqrt(3)) ~ (1, {K_MAX:.8f}); got {k}")


def orbit_radius(k: float) -> float:
    """P(k) = (k-1)^(-1/2): P = (P(k), 0) lies on the period-n orbit."""
    return 1.0 / math.sqrt(k - 1.0)


def _check_order(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"symmetry order must be an integer >= 2, got {n!r}")


def _cube(v):
    # explicit product keeps (-v)^3 == -(v^3) bitwise, which the exact
    # quarter-turn dispatch relies on
    return v * v * v


def _libm(fun):
    """fun, a function of floats, mapped over the elements of 1-D float arrays."""
    return lambda *arrays: np.fromiter(map(fun, *[a.tolist() for a in arrays]), float,
                                       arrays[0].size)


def _expm1(v: float) -> float:
    # inf where math raises, as numpy's does; the radial select discards it
    try:
        return math.expm1(v)
    except OverflowError:
        return math.inf


def to_polar(p: Point) -> tuple[float, float]:
    """Convert (x, y) to (r, theta) with theta in [0, 2*pi), and the origin
    to (0, 0).  Raises ValueError for a non-finite point."""
    x, y = p
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite point {p!r}")
    r = math.hypot(x, y)
    if r == 0.0:
        return 0.0, 0.0
    return r, _float_angle(y, x)


def from_polar(q: tuple[float, float]) -> Point:
    """Convert (r, theta) to (r*cos(theta), r*sin(theta))."""
    r, theta = q
    return r * math.cos(theta), r * math.sin(theta)


_QUARTER_TURNS = (lambda x, y: (x, y), lambda x, y: (-y, x),
                  lambda x, y: (-x, -y), lambda x, y: (y, -x))


def _rotation(m: int, n: int):
    """The rotation by 2*pi*m/n about the origin as a function of (x, y),
    built once for many points.

    Multiples of a quarter turn are applied as exact component
    swaps/negations, so e.g. the order-4 generator maps (x, y) to (-y, x)
    with no rounding at all.
    """
    _check_order(n)
    mm = m % n
    if (4 * mm) % n == 0:
        return _QUARTER_TURNS[(4 * mm // n) % 4]
    ang = TWO_PI * mm / n
    c = math.cos(ang)
    s = math.sin(ang)
    return lambda x, y: (c * x - s * y, s * x + c * y)


@dataclass(frozen=True)
class RadialProfile:
    """Saturating radial response u: identity up to r0, damped growth beyond.

    u(s) = s                                        for s <= r0
    u(s) = r0 + w/2 + r_half*(1 - exp(-w/r_half))/2  for s = r0 + w, w > 0

    C1 (both one-sided slopes at r0 equal 1), strictly increasing,
    unbounded, and u(s) < s for every s > r0.
    """

    r0: float
    r_half: float

    def __post_init__(self):
        if not (0.0 < self.r0 < math.inf and 0.0 < self.r_half < math.inf):
            raise ValueError("profile radii must be positive and finite")


def default_profile(k: float) -> RadialProfile:
    r0 = 2.0 * orbit_radius(k)
    return RadialProfile(r0, r0)


def radial_u(s, prof: RadialProfile):
    """Evaluate the saturating radial response at a float s >= 0."""
    if s < 0.0:
        raise ValueError("radial response undefined for negative radius")
    if s <= prof.r0:
        return s
    w = s - prof.r0
    return prof.r0 + 0.5 * w + 0.5 * prof.r_half * (-math.expm1(-w / prof.r_half))


def ray_image_radius(k: float, r: float, prof: RadialProfile) -> float:
    """u(psi(r)), psi(r) = k r^3/(1+r^2): |h(p)| for h/hn at |p| = r on a
    boundary ray (m(theta4) = 1), the most on that circle (m <= 1)."""
    return radial_u(k * (r * r * r) / (1.0 + r * r), prof)


def _namespace(name: str, cos, sin, hypot, angle, split, radial, mend) -> types.ModuleType:
    """What the step formula needs beyond + - * /: cos, sin, hypot and four
    selects, its only branches.  angle(y, x) is atan2(y, x) in [0, 2*pi) (a
    tiny negative atan2 can round up to 2*pi, which gives 0).  split(theta,
    n) gives the 0-based sector index m of theta (sector_of minus one,
    clamped to n - 1, as theta*n/(2*pi) may round to n) and the chart angle
    theta4, theta turned back to sector 0 and rescaled to the base map's
    quarter turn.  radial(s, prof) is radial_u at s >= 0.  mend(value,
    fallback, *args) is value where it is finite and fallback(*args) where
    it is not; on arrays, fallback gets the elements of the array args
    (of value's shape) at the non-finite ones alone, and the others whole.  _FLOAT runs them
    with plain ifs, _NUMPY and _LIBM with numpy's where, floor and minimum.
    A module object holds them: CPython 3.11 specializes calls of a
    module's attributes, not of functions kept on a class instance, which
    made a float fn/hn step 4-9% slower."""
    ns = types.ModuleType(name)
    ns.cos, ns.sin, ns.hypot = cos, sin, hypot
    ns.angle, ns.split, ns.radial, ns.mend = angle, split, radial, mend
    return ns


def _float_angle(y: float, x: float) -> float:
    theta = math.atan2(y, x)
    if theta < 0.0:
        theta += TWO_PI
        if theta >= TWO_PI:
            theta = 0.0
    return theta


def _float_split(theta: float, n: int):
    m = theta * n / TWO_PI
    if math.isfinite(m):  # math.floor raises at inf and NaN, which np.floor passes on
        m = math.floor(m)
    if m > n - 1:
        m = n - 1
    return m, (theta - TWO_PI * m / n) * n / 4.0


def _float_mend(value: float, fallback, *args) -> float:
    return value if math.isfinite(value) else fallback(*args)


def _array_mend(value, fallback, *args):
    bad = ~np.isfinite(value)
    if bad.any():  # value is the caller's own temporary
        value[bad] = fallback(*(a[bad] if type(a) is np.ndarray else a for a in args))
    return value


def _array_namespace(name: str, hypot, atan2, expm1) -> types.ModuleType:
    """The namespace on arrays: numpy's cos and sin, the given functions."""

    def angle(y, x):
        theta = atan2(y, x)
        theta = np.where(theta < 0.0, theta + TWO_PI, theta)
        return np.where(theta >= TWO_PI, 0.0, theta)

    def split(theta, n):
        m = np.minimum(np.floor(theta * n / TWO_PI), n - 1)
        return m, (theta - TWO_PI * m / n) * n / 4.0

    def radial(s, prof):
        w = s - prof.r0
        tail = prof.r0 + 0.5 * w + 0.5 * prof.r_half * (-expm1(-w / prof.r_half))
        return np.where(s <= prof.r0, s, tail)

    return _namespace(name, np.cos, np.sin, hypot, angle, split, radial, _array_mend)


_FLOAT = _namespace("_FLOAT", math.cos, math.sin, math.hypot, _float_angle, _float_split,
                    radial_u, _float_mend)
_NUMPY = _array_namespace("_NUMPY", np.hypot, np.arctan2, np.expm1)
# numpy's + - * /, floor, minimum and where are exact or correctly rounded,
# so the formula on 1-D float arrays gives the float path's bits
_LIBM = _array_namespace("_LIBM", _libm(math.hypot), _libm(math.atan2), _libm(_expm1))


@dataclass(frozen=True)
class MapSpec:
    """Immutable handle naming one map: family plus its parameters.  It is
    the one place that states which parameters each family takes.

    ``n`` is the rotation-symmetry order (fixed at 4 for f4/g4/h).  The
    deformation parameters alpha/beta/delta apply only to g4; the radial
    profile only to h/hn (defaulting to r0 = r_half = 2/sqrt(k-1), which
    keeps the saturated map identical to the base map on a neighbourhood
    of the periodic orbit).
    """

    family: str
    k: float = K_DEFAULT
    n: int = 4
    alpha: float = 0.0
    beta: float = 0.0
    delta: float = 0.0
    profile: RadialProfile | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        validate_k(self.k)
        _check_order(self.n)
        if self.family in ("f4", "g4", "h") and self.n != 4:
            raise ValueError(f"family {self.family!r} has symmetry order 4, got n={self.n}")
        if self.family != "g4" and (self.alpha or self.beta or self.delta):
            raise ValueError("alpha/beta/delta apply to the g4 family only")
        if not all(map(math.isfinite, (self.alpha, self.beta, self.delta))):
            raise ValueError("alpha/beta/delta must be finite")
        if self.family in ("h", "hn"):
            prof = self.profile if self.profile is not None else default_profile(self.k)
            if prof.r0 <= orbit_radius(self.k):
                raise ValueError("profile must keep r0 above the periodic-orbit radius")
            object.__setattr__(self, "profile", prof)
        elif self.profile is not None:
            raise ValueError("radial profile applies to the h/hn families only")

    def echo(self) -> dict:
        """The parameters that select this map: family, k and n, plus
        alpha/beta/delta for g4 and r0/r_half for h/hn."""
        echo = {"family": self.family, "k": self.k, "n": self.n}
        if self.family == "g4":
            echo.update(alpha=self.alpha, beta=self.beta, delta=self.delta)
        if self.profile is not None:
            echo.update(r0=self.profile.r0, r_half=self.profile.r_half)
        return echo


# ---------------------------------------------------------------------------
# evaluation (floats or arrays)
# ---------------------------------------------------------------------------

def _eval_f4(p: Point, k: float) -> Point:
    x, y = p
    d = 1.0 + (x * x + y * y)
    return -k * _cube(y) / d, k * _cube(x) / d


def _jac_f4_entries(x, y, k: float):
    x2 = x * x
    y2 = y * y
    den = 1.0 + x2 + y2
    d2 = den * den  # numpy's ** 2 on arrays; a float ** 2 may differ or raise OverflowError
    a = 2.0 * k * x * y * y2 / d2
    b = -k * (3.0 * y2 + 3.0 * x2 * y2 + y2 * y2) / d2
    c = k * (3.0 * x2 + x2 * x2 + 3.0 * x2 * y2) / d2
    d = -2.0 * k * x * x2 * y / d2
    return a, b, c, d


def _f4_polar_entries(xp, r, theta, k: float):
    """Derivative of f4 in polar charts (source and target) at r > 0, over
    the namespace xp (_FLOAT for floats): upper triangular [[a11, a12],
    [0, a22]], with angle derivative a22 = 3*sin^2*cos^2/(cos^6+sin^6)."""
    c = xp.cos(theta)
    s = xp.sin(theta)
    c3 = _cube(c)
    s3 = _cube(s)
    m = xp.hypot(c3, s3)  # sqrt(cos^6 + sin^6) >= 1/2
    r2 = r * r
    d = 1.0 + r2
    a11 = k * r2 * (3.0 + r2) / (d * d) * m
    a12 = k * _cube(r) / d * 3.0 * s * c * (s3 * s - c3 * c) / m
    a22 = 3.0 * s * s * c * c / (m * m)
    return a11, a12, a22


def _eval_g4(p: Point, k: float, alpha: float, beta: float, delta: float) -> Point:
    x, y = p
    f1, f2 = _eval_f4(p, k)
    w = beta + delta * (x * x + y * y)
    return f1 + alpha * x - w * y, f2 + alpha * y + w * x


def _jac_g4_entries(x, y, k: float, alpha: float, beta: float, delta: float):
    a, b, c, d = _jac_f4_entries(x, y, k)
    w = beta + delta * (x * x + y * y)
    return (a + alpha - 2.0 * delta * x * y,
            b - w - 2.0 * delta * y * y,
            c + w + 2.0 * delta * x * x,
            d + alpha + 2.0 * delta * x * y)


def _jac_entries(spec, x, y):
    """Analytic Jacobian entries (a, b, c, d) of an f4 or g4 MapSpec at
    floats or coordinate arrays."""
    if spec.family == "f4":
        return _jac_f4_entries(x, y, spec.k)
    return _jac_g4_entries(x, y, spec.k, spec.alpha, spec.beta, spec.delta)


def sector_of(p: Point, n: int) -> int:
    """1-based sector index j with theta(p) in [2*pi*(j-1)/n, 2*pi*j/n);
    ValueError at the origin and (from to_polar) at a non-finite point."""
    _check_order(n)
    x, y = p
    if x == 0.0 and y == 0.0:
        raise ValueError("sector undefined at origin")
    return _float_split(to_polar(p)[1], n)[0] + 1


# The relative margin of the closed-form regions below: on the radius, and
# for g4's cones on the cone angle too.  It dwarfs the rounding of one
# computed step, so computed orbits stay inside the regions as well.
_MARGIN = 1e-6
# The margin of their membership tests and of the radius bounds behind the
# retirement counts of _retirements: far above the rounding of a test, a
# computed step or a bound step, far below _MARGIN.
_BOUND_MARGIN = 1e-9


def _linear_modulus(spec):
    """c with |g(p) - f4(p)| = c*|p| exactly, or None.

    g4 with delta = 0 adds the linear map alpha*I + beta*J to f4, the
    rotation by phi = atan2(beta, alpha) scaled by c = hypot(alpha, beta);
    f4, fn, h and hn have c = 0 (their own bounds on |f(p)| follow from
    f4's).  None for callables and for g4 with delta != 0: its term
    delta*r^2*(-y, x) has modulus |delta|*r^3, which outgrows psi(r) ~ k*r
    far out.
    """
    if callable(spec):
        return None
    if spec.family != "g4":
        return 0.0
    return math.hypot(spec.alpha, spec.beta) if spec.delta == 0.0 else None


def _cone_edge(k: float, c: float, phi: float):
    """(a, m_a, r_lo, c_par) of the cones about the sector boundary rays, or None.

    The cones hold the points with chart angle theta4 (see _namespace)
    within a = atan(eps), eps = min(0.1, sqrt((k-1)/(3k))), of 0 or pi/2.
    One step of f4 maps chart (r, theta4) to radius psi(r)*m(theta4) and
    chart angle atan(tan^3 theta4), or its mirror image about pi/2, where
    psi(r) = k r^3/(1+r^2) and m(t) = hypot(cos^3 t, sin^3 t).  On the
    cones m >= m_a = m(a) and the image angle is at most atan(eps^3) < a.

    g4 with delta = 0 adds a term c*Rot(phi) p to the step of f4 (see
    _linear_modulus), of modulus c*r and, at a point of true angle theta
    within a of the x-axis, angle theta + phi, while f4(p) has angle pi/2 +
    atan(tan^3 theta).  The angle between them lies within w = a -
    atan(eps^3) of phi - pi/2, and the same holds about every boundary ray,
    as the term commutes with the quarter turn.  As |A + B| >= |A| +
    |B|*cos(angle), the image radius is at least psi(r)*m_a + c_par*r, where
    c_par = c*cos(min(pi, |phi - pi/2| + w)) with the angle taken in [-pi,
    pi]: c_par = c*cos(w) when the term points straight outward (phi =
    pi/2), -c when it points straight inward (phi = -pi/2).  The term turns
    the image direction by at most asin(c/(g(r)*m_a)), g(r) = psi(r)/r =
    k r^2/(1+r^2).  r_lo is the least radius where g(r)*m_a >= 1 + margin -
    c_par, so that every radius r >= r_lo grows by at least the factor
    1 + margin, and where the image angle atan(eps^3) + asin(c/(g(r)*m_a))
    is at most (1-margin)*a.  As g(r) increases, both hold on all of
    r >= r_lo.  With c = 0, r_lo solves psi(r)*m_a = (1+margin)*r.  None
    when either needs g(r) >= k: where c_par <= 1 + margin - k*m_a (-0.0837
    at k = 1.1), or c >= k*m_a*sin((1-margin)*a - atan(eps^3)) (0.1068),
    so at k = 1.1 g4 has cones for beta = 0.09 but none for beta = -0.09.
    """
    d = _MARGIN
    eps = min(0.1, math.sqrt((k - 1.0) / (3.0 * k)))
    a = math.atan(eps)
    m_a = math.sqrt((1.0 + eps ** 6) / (1.0 + eps * eps) ** 3)
    image = math.atan(eps ** 3)
    # the term's least share along f4(p): their angle lies within a - image
    # of phi - pi/2, taken in [-pi, pi]
    off = abs(math.remainder(phi - 0.5 * math.pi, TWO_PI)) + a - image
    c_par = c * math.cos(min(math.pi, off))
    # the least g(r)*m_a the angle bound needs: c/sin of the turn it allows
    turn = c / math.sin((1.0 - d) * a - image)
    if not (k * m_a > 1.0 + d - c_par and k * m_a > turn):
        return None
    r_lo = max(math.sqrt((1.0 + d - c_par) / (k * m_a - 1.0 - d + c_par)),
               math.sqrt(turn / (k * m_a - turn)))
    return a, m_a, r_lo, c_par


@dataclass(frozen=True)
class ConeRegion:
    """The escape cones of g4 about the sector boundary rays: |p| >= r_lo
    with chart angle theta4 (see _namespace) within cone of 0 or of pi/2,
    where m(theta4) >= m_a.  Built by escape_cones; one step maps radius r
    to at least psi(r)*m_a + shift*r (shift = c_par of _cone_edge, signed)."""

    r_lo: float
    cone: float
    m_a: float
    shift: float

    def contains(self, x, y, r2):
        """Whether the points of arrays (x, y), r2 = x*x + y*y, lie in the
        region (arrays only; see _retirements), tested with no sector chart:
        chart angle within cone of 0 or pi/2 is angle within cone of a
        boundary ray, so with t = atan2(y, x)*2/pi the test is
        r_lo^2*(1+mu) <= r2 <= max_float*(1-mu) and |t - rint(t)| <=
        (2*cone/pi)*(1-mu), mu = _BOUND_MARGIN.  The margin dwarfs the
        rounding of r2 and t, so every point accepted lies in the region;
        points within about mu of its edge may be missed.  A NaN or inf r2
        (a non-finite coordinate, or an overflowing square) lies outside.
        """
        t = np.arctan2(y, x)
        t *= 4.0 / TWO_PI  # in place, sparing two large temporaries
        t -= np.rint(t)
        lo = self.r_lo * self.r_lo * (1.0 + _BOUND_MARGIN)
        hi = np.finfo(float).max * (1.0 - _BOUND_MARGIN)
        near_ray = abs(t) <= 2.0 * self.cone / math.pi * (1.0 - _BOUND_MARGIN)
        return (lo <= r2) & (r2 <= hi) & near_ray


@dataclass(frozen=True)
class Disk:
    """The disk |p| <= radius about the origin.  Built by contracting_disk."""

    radius: float

    def contains(self, x, y, r2):
        """Whether r2 = x*x + y*y <= radius^2 (arrays only; NaN and inf are out)."""
        return r2 <= self.radius * self.radius


def escape_cones(spec) -> ConeRegion | None:
    """The escape cones of g4 with delta = 0, or None.

    The cones of _cone_edge with no upper radius: r >= r_lo, where r_lo
    accounts for g4's term c*Rot(phi) p, c = hypot(alpha, beta) and
    phi = atan2(beta, alpha), through its share c_par along f4's image,
    kept as the region's shift.  One step maps them into themselves, with
    image chart angle at most (1-margin)*a and image radius at least
    psi(r)*m_a + c_par*r >= (1+margin)*r, so every orbit in them escapes.
    At k = 1.1, r_lo = 3.46 with alpha = beta = 0, 2.668 with beta = 0.05
    (the term points outward, c_par = 0.0498; its continued period-4 orbit
    has radius sqrt((1-beta)/(k-1+beta)) = 2.517) and 5.58 with beta =
    -0.05 (inward, c_par = -c).  None for callables, for f4/fn/h/hn (the
    regions of boundary_regions decide their far starts), for g4 with
    delta != 0 (see _linear_modulus) and when _cone_edge finds no r_lo.
    """
    c = _linear_modulus(spec)
    if c is None or spec.family != "g4":
        return None
    edge = _cone_edge(spec.k, c, math.atan2(spec.beta, spec.alpha))
    if edge is None:
        return None
    cone, m_a, r_lo, c_par = edge
    return ConeRegion(r_lo, cone, m_a, c_par)


def contracting_disk(spec) -> Disk | None:
    """The contracting disk about the origin of an f4/fn/h/hn map or of g4
    with delta = 0, or None.

    For f4/fn/h/hn |f(p)| <= psi(|p|), psi(r) = k r^3/(1+r^2), because
    m(theta4) <= 1 and the radial response satisfies u(s) <= s; g4 adds a
    term of modulus c*|p|, c = hypot(alpha, beta) (see _linear_modulus), so
    |g4(p)| <= psi(|p|) + c*|p|.  As psi(r)/r = k r^2/(1+r^2) increases,
    the radius R = sqrt((1-margin-c)/(k-1+margin+c)) that solves psi(R) +
    c*R = (1-margin)*R bounds a disk that one step maps into itself,
    shrinking every radius in it by at least the factor 1 - margin, so
    every orbit in it converges to the origin.  R = 3.162 at k = 1.1 with
    c = 0, and 2.517 for g4 with beta = 0.05.  The margin is on psi(r)/r,
    not on the radius: as k -> 1 a disk of radius (1-margin)*P,
    P = (k-1)^(-1/2), leaves psi(r)/r within about 2*margin*(k-1) of 1.
    None for callables, for g4 with delta != 0 and for c >= 1 - margin.
    """
    c = _linear_modulus(spec)
    d = _MARGIN
    if c is None or not c < 1.0 - d:
        return None
    return Disk(math.sqrt((1.0 - d - c) / (spec.k - 1.0 + d + c)))


# The cells of the basin boundary's tables: _BOUNDARY_CELLS over the folded
# chart angle [0, pi/4], the last of them in the band of width at least
# _BOUNDARY_BAND below the diagonal pi/4, where B grows without bound.
_BOUNDARY_CELLS = 1024
_BOUNDARY_BAND = 0.01


def _psi_inverse(k: float, v: np.ndarray) -> np.ndarray:
    """psi^-1(v) at an array v > 0: the one real root r of k r^3 - v r^2 - v,
    by Cardano.  With a = v/k, r = a/3 + c + a^2/(9c), c the real cube root
    of a^3/27 + a/2 + a*sqrt(a^2/27 + 1/4): every term is positive."""
    a = v / k
    c = np.cbrt(a * (a * a / 27.0 + 0.5 + np.sqrt(a * a / 27.0 + 0.25)))
    return a / 3.0 + c + a * a / (9.0 * c)


def _radial_inverse(v: np.ndarray, prof: RadialProfile) -> np.ndarray:
    """u^-1(v) at an array v >= 0: v up to r0, else r0 + w with Newton's
    method from w = 0 on g(w) = u(r0 + w) - v, concave and increasing, whose
    iterates increase to the root (the largest below it, in floats)."""
    w = np.zeros_like(v)
    for _ in range(100):
        e = np.exp(-w / prof.r_half)
        g = 0.5 * w + 0.5 * prof.r_half * (1.0 - e) - (v - prof.r0)
        nxt = np.maximum(w - g / (0.5 + 0.5 * e), w)
        if (nxt == w).all():
            break
        w = nxt
    return np.where(v <= prof.r0, v, prof.r0 + w)


@functools.cache
def _boundary_levels(k: float, prof: RadialProfile | None) -> tuple:
    """B along the angle orbits of the table's cell edges: levels[j][i] is
    B(T^j(a_i)), T(t) = atan(tan^3 t), at the edges a_i = i*pi/(4*cells) up
    to the band edge (see boundary_regions), for f4/fn (prof None) or h/hn.

    The tangents cube from step to step, m = sqrt((1 + tan^6)/(1 +
    tan^2)^3), and once every m rounds to 1 the level is P; each level
    below is psi^-1(u^-1(B)/m) of the one above, u the identity for prof
    None (where m rounds to 1, B stays the level above's).  Cached per (k,
    prof); the arrays are read-only."""
    width = 0.25 * math.pi / _BOUNDARY_CELLS
    tau = np.tan(np.arange(_BOUNDARY_CELLS - math.ceil(_BOUNDARY_BAND / width) + 1) * width)
    mods = []
    while True:
        t2 = tau * tau
        mod = np.sqrt((1.0 + t2 * t2 * t2) / ((1.0 + t2) * (1.0 + t2) * (1.0 + t2)))
        if (mod == 1.0).all():
            break
        mods.append(mod)
        tau = tau * t2
    b = np.full(tau.size, orbit_radius(k))
    levels = [b]
    for mod in reversed(mods):
        v = b if prof is None else _radial_inverse(b, prof)
        b = np.where(mod == 1.0, b, _psi_inverse(k, v / mod))
        levels.append(b)
    for b in levels:
        b.flags.writeable = False
    return tuple(reversed(levels))


@dataclass(frozen=True, eq=False)
class BoundaryRegion:
    """The points whose folded chart angle falls in cell i of the table and
    with lo2[i] < r2 < hi2[i], r2 = x*x + y*y.  Built by boundary_regions."""

    lo2: np.ndarray
    hi2: np.ndarray
    n: int

    def contains(self, x, y, r2):
        """Whether the points of arrays (x, y), r2 = x*x + y*y, lie in the
        region (arrays only; see _retirements).  With t = atan2(y, x)*n/(2*pi),
        t mod 1 is the chart angle over pi/2, f = 1/2 - |t mod 1 - 1/2| the
        folded one, and floor(2*cells*f) its cell (the last one for a NaN
        angle, which comes with a NaN r2).  NaN and inf r2 lie outside."""
        t = np.arctan2(y, x)
        t *= self.n / TWO_PI  # in place, sparing large temporaries
        t %= 1.0
        t -= 0.5
        t = np.abs(t, out=t)
        t *= -2.0 * _BOUNDARY_CELLS
        t += _BOUNDARY_CELLS
        cell = np.fmin(t, _BOUNDARY_CELLS, out=t).astype(np.intp)
        hit = np.take(self.lo2, cell, out=t) < r2
        hit &= r2 < np.take(self.hi2, cell, out=t)
        return hit


def boundary_regions(spec, eps_in: float, r_escape: float):
    """The regions inside and outside the basin boundary of an f4/fn/h/hn
    map, (inside, outside, levels), each region possibly None, or None.

    One step maps chart (r, t) (t the chart angle, see _namespace) to radius
    u(psi(r)*m(t)) at chart angle T(t) = atan(tan^3 t), which commutes
    with the mirror t -> pi/2 - t, with u the identity for f4/fn and the
    radial response for h/hn (radial_u): a skew product over T, increasing
    in r.  So the basin of the origin is {r < B(t)}, where B(T(t)) =
    u(psi(B(t))*m(t)) and B = P on the axes, where T fixes t: B(t) is P
    pulled back along the angle orbit of t (_boundary_levels).  B is
    symmetric about pi/4 and increases on [0, pi/4) to infinity: on the
    diagonal m = 1/2 and r -> psi(r)/2 < r.

    For f4/fn, rho = r/B(t) maps to rho' = F(rho, B(t)) = rho^3*(1 +
    B^2)/(1 + rho^2*B^2), which is below rho for rho < 1 and above it for
    rho > 1, and increases in rho; in B it increases for rho < 1 and
    decreases for rho > 1.  Near rho = 1 one step moves 1 - rho by the
    factor 1 + 2/(1 + B^2) at least.  The regions keep the relative margin
    mu = _MARGIN from B, which dwarfs the rounding of a step, of B's table
    and of a chart angle: the inside holds r < B(t)*(1 - mu) and converges,
    the outside r > B(t)*(1 + mu) and escapes.  For h/hn, u increases, so
    r > B(t) maps beyond B(T(t)); near rho = 1, where u is not the
    identity (B above r0, a few steps by the diagonal), 1 - rho shrinks by
    u's elasticity, at least 1/2, per step, far from using up mu.  Their
    outside is held below r_hi = min(r_escape/2, 1e100) (k*r^3 overflows
    near r = 5.6e102), and exists only where u(psi(r_hi)) <= (1 - mu)*r_hi:
    as m <= 1 and psi and u increase, every image radius is then at most
    (1 - mu)*r_hi, so its orbits never converge and never escape (kind 0).
    Their inside is f4's, as u(s) <= s keeps an h/hn orbit below the f4
    orbit of the same start.

    The tables bracket B per cell of the folded chart angle: B increases on
    [0, pi/4), so the lower end of the cell below and the upper end of the
    cell above bound B on the cell and its two neighbours, which absorbs
    the rounding of the computed angle (far below a cell, 7.7e-4 rad, at
    any dispatch of numpy's arctan2).  The cells by the band of width at
    least _BOUNDARY_BAND about pi/4, whose neighbours reach into it, keep
    only B >= P inside and nothing outside: there float orbits leave the
    diagonal, and B(t) is far above its value at the band edge t_w, which
    bounds the retirement counts.

    The inside needs every orbit in it below r_escape: its radii stay below
    B(t_w).  The outside needs |eps_in| < P: its radii stay above
    rho*P > P.  None for callables, g4 and fn/hn with n > 2^20: a chart
    angle's rounding grows with n, to about n*3e-16 rad per step.  On the
    tables, for k from 1.0005 to 1.15, |d ln B/dt| is at most 57 (96 on
    the h/hn outer table), so at n = 2^20 the rounding moves B by at most
    about 3e-8 of itself per step, far below mu, and the angle by far less
    than a cell.
    """
    if callable(spec) or spec.family == "g4" or spec.n > 2 ** 20:
        return None
    k, d = spec.k, _MARGIN
    p = orbit_radius(k)
    levels = _boundary_levels(k, None)
    cells = _BOUNDARY_CELLS
    edge = levels[0].size - 1  # the band edge t_w: cells from edge - 1 on are by the band
    clear = np.arange(edge - 1)  # the cells whose neighbours stay out of the band
    inside = outside = None
    if levels[0][edge] < r_escape:
        lo = np.full(cells + 1, p)
        lo[:edge - 1] = levels[0][np.maximum(clear - 1, 0)]
        inside = BoundaryRegion(np.full(cells + 1, -1.0), (lo * (1.0 - d)) ** 2, spec.n)
    cap, outer = math.inf, levels[0]
    if spec.profile is not None:
        cap = min(0.5 * r_escape, 1e100)
        if not ray_image_radius(k, cap, spec.profile) <= (1.0 - d) * cap:
            cap = -1.0
        outer = _boundary_levels(k, spec.profile)[0]
    if abs(eps_in) < p and cap > 0.0:
        hi = np.full(cells + 1, math.inf)
        hi[:edge - 1] = outer[clear + 2]
        top = min(cap * cap * (1.0 - _BOUND_MARGIN), np.finfo(float).max)
        outside = BoundaryRegion((hi * (1.0 + d)) ** 2, np.full(cells + 1, top), spec.n)
    return inside, outside, levels


def _retirements(spec, budget, eps_in, r_escape):
    """The (region, kind, N) entries of analysis._classify_part: a live
    point in region at step t with t + N <= budget is retired with kind.
    The escape cones of g4 (kind 2) and the contracting disk (kind 1) come
    first, with N from _crossing_steps; for g4 their bounds carry its term
    of modulus c*r, c = hypot(alpha, beta) (_linear_modulus): the disk's as
    +c, the cones' as their signed shift c_par (escape_cones), which is -c
    only where the term points straight inward.  Each bound starts from the
    region's edge and must pass its threshold, both moved outward by the
    relative margin mu = _BOUND_MARGIN, as are the bound's own factors
    (each shift moved toward the side that slows the bound), so that the
    rounding of the membership test, of the bound and of the plain loop's
    threshold test cannot decide a point otherwise.  Then the regions
    outside and inside the basin boundary of f4/fn/h/hn (boundary_regions):
    outside, kind 2 for f4/fn with N from _boundary_steps, kind 0 with
    N = 0 for h/hn; inside, kind 1 with N from _boundary_steps.  Entries
    with N > budget never retire and are left out.  At k = 1.1 and the
    default eps_in and r_escape, N is 74 for the disk of f4/fn/h/hn, 215
    outside and 87 inside the boundary of f4/fn (87 inside for h/hn), 159
    and 60 for g4 with beta = 0.05, and 530 and 60 with beta = -0.05."""
    entries = []
    mu = _BOUND_MARGIN
    beyond = r_escape * (1.0 + mu)
    within = abs(eps_in) * (1.0 - mu)
    cones = escape_cones(spec)
    disk = contracting_disk(spec)
    if cones is not None:
        shift = cones.shift * (1.0 - mu if cones.shift > 0.0 else 1.0 + mu)
        entries.append((cones, 2, _crossing_steps(
            spec.k, cones.r_lo * (1.0 - mu), cones.m_a * (1.0 - mu), shift,
            lambda r: r > beyond, budget)))
    if disk is not None:
        c = (1.0 + mu) * _linear_modulus(spec)  # not None where there is a disk
        entries.append((disk, 1, _crossing_steps(
            spec.k, disk.radius * (1.0 + mu), 1.0 + mu, c, lambda r: r < within, budget)))
    regions = boundary_regions(spec, eps_in, r_escape)
    if regions is not None:
        inside, outside, levels = regions
        d, p = _MARGIN, orbit_radius(spec.k)
        chain = [float(b[-1]) for b in levels]  # B along the angle orbit of the band edge
        if outside is not None and spec.profile is not None:
            entries.append((outside, 0, 0))
        elif outside is not None:
            entries.append((outside, 2, _boundary_steps(
                spec.k, chain, (1.0 + d) * (1.0 - mu), 1.0 - mu,
                lambda rho, b: rho * p * (1.0 - mu) > beyond, budget)))
        if inside is not None:
            entries.append((inside, 1, _boundary_steps(
                spec.k, chain, (1.0 - d) * (1.0 + mu), 1.0 + mu,
                lambda rho, b: rho * b < within, budget)))
    return [entry for entry in entries if entry[2] <= budget]


def _boundary_steps(k: float, chain, rho: float, lean: float, passed, budget: int) -> int:
    """The steps the bound rho -> lean*F(rho, b) on rho = r/B(t) (F of
    boundary_regions) takes from rho until passed(rho, b), or budget + 1 if
    it takes more than budget steps, with b = B*(1 + _BOUND_MARGIN) for the
    B of chain at each step and P after it.  Each bound starts at its
    region's edge, the band edge t_w (chain is the pull-back along its
    angle orbit): angle orbits keep their order and B increases on [0,
    pi/4), so along any other orbit of the region B is smaller, and F,
    increasing in rho and moving it more slowly the larger B is, keeps rho
    no nearer 1.  So r = rho*B stays below rho*b on the inside (no start
    there lies above the band edge's orbit) and above rho*P outside."""
    p = orbit_radius(k)
    for t in range(budget + 1):
        b = (chain[t] if t < len(chain) else p) * (1.0 + _BOUND_MARGIN)
        if passed(rho, b):
            return t
        if rho * rho == 0.0:  # leant below 1 and on toward 0: it never passes
            break
        nxt = lean * rho * (1.0 + b * b) / (1.0 / (rho * rho) + b * b)
        if math.isnan(nxt) or (nxt == rho and t >= len(chain)):  # stuck
            break
        rho = nxt
    return budget + 1


def _crossing_steps(k: float, rho: float, gain: float, shift: float, passed,
                    budget: int) -> int:
    """The steps the 1-D bound rho -> rho*(gain*g(rho) + shift),
    g(r) = psi(r)/r = k r^2/(1+r^2), takes from rho until passed(rho), or
    budget + 1 if it takes more than budget steps.  The shift is signed
    (negative where a linear term may pull inward); with shift = 0 the
    step is gain*psi(rho)."""
    for t in range(budget + 1):
        if passed(rho):
            return t
        # k*rho/(1 + 1/rho^2) overflows only where k*rho does; rho^2 stays
        # positive while rho is above eps_in, whose square is a normal float
        nxt = gain * (k * rho / (1.0 + 1.0 / (rho * rho))) + shift * rho
        if nxt == rho or math.isnan(nxt):  # stuck, as at rho = inf (or NaN
            break                          # there) below an infinite r_escape
        rho = nxt
    return budget + 1


def _sector_map(xp, r, theta, k: float, n: int, prof: RadialProfile | None):
    """The order-n transplant step in polar form over the namespace xp:
    (psi, theta_out, theta4) from the polar pair (r, theta) of points.

    split gives the source sector m and the chart angle theta4.  The base
    map takes chart (r, theta4) to radius psi = k*r^3/(1+r^2)*sqrt(cos^6 +
    sin^6), saturated by radial when prof is given, and to the angle of
    (-sin^3, cos^3), which the rescale takes back to sector m+1 (the
    sector after the source sector) as theta_out.
    """
    m, theta4 = xp.split(theta, n)
    c = xp.cos(theta4)
    s = xp.sin(theta4)
    c3 = c * c * c
    s3 = s * s * s
    mod = xp.hypot(c3, s3)
    psi = k * (r * r * r) / (1.0 + r * r) * mod
    if prof is not None:
        # k*r^3 overflows from r ~ 5.6e102 on, k*r^2/(r + 1/r) only where
        # r^2 does (from 1.34e154 on), so the saturated maps, which contract
        # far out, map every point whose square radius is finite to a
        # finite one; at r = inf it is NaN, as today
        psi = xp.radial(xp.mend(psi, _far_psi, k, r, mod), prof)
    return psi, 4.0 * xp.angle(c3, -s3) / n + TWO_PI * m / n, theta4


def _far_psi(k: float, r, mod):
    return k * (r * r) / (r + 1.0 / r) * mod


def _matrix(a, b, c, d) -> np.ndarray:
    return np.array([[a, b], [c, d]])


def _matrices(a, b, c, d) -> np.ndarray:
    """The (N, 2, 2) stack of [[a, b], [c, d]] for 1-D arrays a and
    arrays or floats b, c, d."""
    out = np.empty((a.size, 2, 2))
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = a, b, c, d
    return out


def _polar_chain(xp, mat, r, theta, k: float, n: int):
    """Cartesian Jacobian of fn via the polar chain rule over the namespace
    xp, away from the origin, from the polar pair (r, theta).

    The angular rescales contribute the constant diagonal factors
    diag(1, 4/n) and diag(1, n/4) around the polar-chart derivative of the
    base map; the result is conjugated back to Cartesian charts.  mat
    builds the 2x2 factors: _matrix for floats (xp = _FLOAT), _matrices on
    1-D arrays, whose stacked matmuls multiply each point's factors as the
    float path does."""
    psi, theta_out, theta4 = _sector_map(xp, r, theta, k, n, None)
    a11, a12, a22 = _f4_polar_entries(xp, r, theta4, k)
    a_n = np.array([[1.0, 0.0], [0.0, 4.0 / n]])
    b_n = np.array([[1.0, 0.0], [0.0, n / 4.0]])
    d_polar = a_n @ mat(a11, a12, 0.0, a22) @ b_n
    ci, si = xp.cos(theta), xp.sin(theta)
    co, so = xp.cos(theta_out), xp.sin(theta_out)
    chart_in_inv = mat(ci, si, -si / r, ci / r)
    chart_out = mat(co, -psi * so, so, psi * co)
    return chart_out @ d_polar @ chart_in_inv


def _eval_h(p: Point, k: float, prof: RadialProfile, xp=_NUMPY) -> Point:
    """h as f4's image scaled by u(s)/s, s = |f4(p)|; where s is not
    finite (k*x^3 overflows from |x| ~ 5.6e102 on), through the polar form
    of _sector_map, finite wherever k*|p| is."""
    w1, w2 = _eval_f4(p, k)
    if type(w1) is np.ndarray:
        s = xp.hypot(w1, w2)
        # u = s = 0 at the origin, where any finite scale will do; where
        # 0 < s <= r0 the scale is s/s = 1 exactly, as the float branch's identity
        scale = xp.radial(s, prof) / np.where(s > 0.0, s, 1.0)
        f1, f2 = scale * w1, scale * w2
        far = ~np.isfinite(s)
        if far.any():
            x, y = np.broadcast_arrays(*p)
            f1[far], f2[far] = _polar_h(xp, x[far], y[far], k, prof)
        return f1, f2
    s = math.hypot(w1, w2)
    if s <= prof.r0:  # identity branch, exact
        return w1, w2
    if not math.isfinite(s):
        return _polar_h(_FLOAT, p[0], p[1], k, prof)
    scale = radial_u(s, prof) / s
    return scale * w1, scale * w2


def _polar_h(xp, x, y, k: float, prof: RadialProfile) -> Point:
    """h at (x, y) through _sector_map at n = 4, over the namespace xp."""
    psi, theta_out, _ = _sector_map(xp, xp.hypot(x, y), xp.angle(y, x), k, 4, prof)
    return psi * xp.cos(theta_out), psi * xp.sin(theta_out)


def _step(spec: MapSpec, x, y, xp, polar=None) -> Point:
    """One step of spec at the floats or 1-D arrays (x, y) over the
    namespace xp: the one place that picks a step formula.  polar, the
    pair (xp.hypot(x, y), xp.angle(y, x)), spares fn/hn with n != 4 their
    own chart.

    fn/hn with n != 4 compose rotation by -m sectors -> angular rescale ->
    base map -> rescale back -> rotation by +m sectors in angle space
    (_sector_map), so a boundary point whose local angle rounds to -ulp is
    never re-wrapped to 2*pi (which the n/4 rescale would blow up into a
    genuine jump).  At n = 4 the rescales are identities and the
    quarter-turn rotations exact, so fn and hn take f4's and h's
    chart-free formulas and are f4 and h bit for bit.
    """
    if spec.n == 4:
        if spec.family == "g4":
            return _eval_g4((x, y), spec.k, spec.alpha, spec.beta, spec.delta)
        if spec.profile is None:  # f4, fn
            return _eval_f4((x, y), spec.k)
        return _eval_h((x, y), spec.k, spec.profile, xp)  # h, hn
    r, theta = (xp.hypot(x, y), xp.angle(y, x)) if polar is None else polar
    psi, theta_out, _ = _sector_map(xp, r, theta, spec.k, spec.n, spec.profile)
    return psi * xp.cos(theta_out), psi * xp.sin(theta_out)


def eval_map(spec, p: Point) -> Point:
    """Evaluate one step of the map named by spec (or any callable).

    For a MapSpec, p may hold floats, stepped over _FLOAT, or numpy arrays
    of coordinates, taken as float arrays and stepped over _NUMPY; a float
    paired with an array broadcasts.
    """
    if callable(spec):
        return spec(p)
    x, y = p
    if type(x) is np.ndarray or type(y) is np.ndarray:
        return _step(spec, np.asarray(x, dtype=float), np.asarray(y, dtype=float), _NUMPY)
    return _step(spec, x, y, _FLOAT)


def eval_points(spec: MapSpec, x: np.ndarray, y: np.ndarray,
                polar=None) -> tuple[np.ndarray, np.ndarray]:
    """eval_map at each point of the 1-D arrays (x, y), taken as float
    arrays, bitwise the float path up to which NaN an operation on two
    NaNs gives, origin and non-finite points included: the step over
    _LIBM.  For sampled checks; step_batch is the faster numpy formula,
    for rasters.  A callable is mapped point by point, as step_batch does.

    polar, the pair (_LIBM.hypot(x, y), _LIBM.angle(y, x)), spares fn/hn
    with n != 4 their own chart: for callers that evaluate several orders
    at one sample."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if callable(spec):
        return step_batch(spec, x, y)
    with np.errstate(all="ignore"):  # as on floats: overflow gives inf, inf - inf NaN
        return _step(spec, x, y, _LIBM, polar)


def _jacobian(spec, x, y, xp, mat, step) -> np.ndarray:
    """The Jacobian of spec at the floats or 1-D arrays (x, y) over the
    namespace xp, its 2x2 matrices built by mat: the one place that picks
    a Jacobian formula.  f4/g4 take their analytic entries, fn the polar
    chain (not at the origin, where it divides by r), and h/hn and
    callables central differences of step, a function of (spec, point)."""
    if callable(spec) or spec.family in ("h", "hn"):
        h = 1e-7 * (1.0 + xp.hypot(x, y))
        fxp, fxm = step(spec, (x + h, y)), step(spec, (x - h, y))
        fyp, fym = step(spec, (x, y + h)), step(spec, (x, y - h))
        inv = 0.5 / h
        return mat((fxp[0] - fxm[0]) * inv, (fyp[0] - fym[0]) * inv,
                   (fxp[1] - fxm[1]) * inv, (fyp[1] - fym[1]) * inv)
    if spec.family != "fn":
        return mat(*_jac_entries(spec, x, y))
    # far out r^3 and near the origin 1/r overflow, and matmul meets inf * 0:
    # the chain runs silently there, as float arithmetic does
    with np.errstate(all="ignore"):
        return _polar_chain(xp, mat, xp.hypot(x, y), xp.angle(y, x), spec.k, spec.n)


def jac_map(spec, p: Point) -> np.ndarray:
    """Jacobian of the map named by spec at the float point p: analytic for
    f4/g4/fn, central finite differences for h/hn and callables."""
    x, y = p
    if not callable(spec) and spec.family == "fn" and x == 0.0 and y == 0.0:
        return np.zeros((2, 2))
    return _jacobian(spec, x, y, _FLOAT, _matrix, eval_map)


def jac_points(spec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """jac_map at each point of the 1-D arrays (x, y), taken as float
    arrays, bitwise up to which NaN an operation on two NaNs gives: an
    (N, 2, 2) array, the Jacobian over _LIBM, with central differences
    through eval_points."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(all="ignore"):  # as on floats: overflow gives inf, inf - inf NaN
        jac = _jacobian(spec, x, y, _LIBM, _matrices, lambda s, q: eval_points(s, *q))
    if not callable(spec) and spec.family == "fn":
        jac[(x == 0.0) & (y == 0.0)] = 0.0
    return jac


def step_batch(spec, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One map step applied elementwise to coordinate arrays: eval_map on
    arrays for a MapSpec, a callable mapped point by point.

    Elementwise-deterministic: results do not depend on how the arrays are
    partitioned, so raster work can be split arbitrarily.
    """
    if not callable(spec):
        return eval_map(spec, (x, y))
    pts = [spec(p) for p in zip(np.ravel(x).tolist(), np.ravel(y).tolist())]
    fx, fy = np.array(pts, dtype=float).reshape(-1, 2).T
    return fx.reshape(np.shape(x)), fy.reshape(np.shape(y))

