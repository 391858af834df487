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
behind them are private.  Evaluators take ``(x, y)`` pairs of floats or of
numpy arrays, and the input type picks one of two implementations of the
same arithmetic (``+ - * /`` in one fixed order, and a few functions: trig,
``hypot``, ``expm1``, ``floor``, ``minimum`` and a select).  Arrays run one
formula over ``numpy``; floats run it written out with ``math`` and plain
``if``s, which the tests pin bitwise to that formula over ``math``.  The
two may differ by a few ulps where numpy's ``arctan2``/``hypot``/``expm1``
differ from ``math``'s.  A third implementation runs the array formulas
with ``math``'s own functions mapped over the elements (``_LIBM``):
``eval_points`` and ``jac_points`` give the float path's bits on arrays,
maps and Jacobians, for sampled checks and spectral scans, at a fraction
of its cost per point.  Jacobians are 2x2 numpy arrays ``[[a, b], [c, d]]``
(``jac_points`` stacks them).  ``step_batch`` is ``eval_map`` on
coordinate arrays, the fast one, for raster workloads.  ``polar_step``
steps fn/hn from a polar pair that the caller already holds.

Points are plain ``(x, y)`` tuples; polar pairs are ``(r, theta)`` with
``r >= 0`` and ``theta`` normalized to ``[0, 2*pi)`` (the origin gets
``theta = 0``).  Sectors of order ``n`` are indexed ``1..n`` with the
half-open convention ``theta in [2*pi*(j-1)/n, 2*pi*j/n)``, so every
nonzero point belongs to exactly one sector and boundary rays belong to
the sector above them.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

Point = tuple[float, float]

TWO_PI = 2.0 * math.pi

K_MIN = 1.0
K_MAX = 2.0 / math.sqrt(3.0)
K_DEFAULT = 1.1

FAMILIES = ("f4", "g4", "fn", "h", "hn")


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


# the functions the array formulas need beyond + - * /; the float paths
# write them out with math
_NUMPY = SimpleNamespace(cos=np.cos, sin=np.sin, hypot=np.hypot, atan2=np.arctan2, expm1=np.expm1,
                         floor=np.floor, minimum=np.minimum, where=np.where)


def _libm(fun):
    """fun, a function of floats, mapped over the elements of 1-D float arrays."""
    return lambda *arrays: np.fromiter(map(fun, *[a.tolist() for a in arrays]), float,
                                       arrays[0].size)


def _expm1(v: float) -> float:
    # inf where math raises, as numpy's does; _radial_u's select discards it
    try:
        return math.expm1(v)
    except OverflowError:
        return math.inf


# _NUMPY with math's own functions: with numpy's exact or correctly rounded
# + - * /, floor, minimum and where, the formulas on 1-D float arrays give
# the float paths' bits (see eval_points)
_LIBM = SimpleNamespace(cos=_libm(math.cos), sin=_libm(math.sin), hypot=_libm(math.hypot),
                        atan2=_libm(math.atan2), expm1=_libm(_expm1),
                        floor=np.floor, minimum=np.minimum, where=np.where)


def _angle(xp, y, x):
    """atan2(y, x) normalized to [0, 2*pi)."""
    theta = xp.atan2(y, x)
    theta = xp.where(theta < 0.0, theta + TWO_PI, theta)
    # a tiny negative atan2 result can round up to exactly 2*pi
    return xp.where(theta >= TWO_PI, 0.0, theta)


def _float_polar(p: Point) -> tuple[float, float]:
    """hypot and _angle of one float point, written out with math and plain
    ifs: the same operations in the same order, so the same bits, without
    the namespace's calls.  Raises ValueError for a non-finite point."""
    x, y = p
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite point {p!r}")
    theta = math.atan2(y, x)
    if theta < 0.0:
        theta += TWO_PI
        if theta >= TWO_PI:  # a tiny negative atan2 result can round up to exactly 2*pi
            theta = 0.0
    return math.hypot(x, y), theta


def to_polar(p: Point) -> tuple[float, float]:
    """Convert (x, y) to (r, theta) with theta in [0, 2*pi)."""
    r, theta = _float_polar(p)
    if r == 0.0:
        return 0.0, 0.0
    return r, theta


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


def _radial_u(xp, s, prof: RadialProfile):
    """radial_u over the namespace xp, for s >= 0."""
    w = s - prof.r0
    tail = prof.r0 + 0.5 * w + 0.5 * prof.r_half * (-xp.expm1(-w / prof.r_half))
    return xp.where(s <= prof.r0, s, tail)


def radial_u(s, prof: RadialProfile):
    """Evaluate the saturating radial response at a float s >= 0."""
    if s < 0.0:
        raise ValueError("radial response undefined for negative radius")
    if s <= prof.r0:
        return s
    w = s - prof.r0
    return prof.r0 + 0.5 * w + 0.5 * prof.r_half * (-math.expm1(-w / prof.r_half))


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


def _f4_polar(xp, r, theta, k: float):
    """Polar form of f4: radius k*r^3/(1+r^2)*sqrt(cos^6 + sin^6), image
    angle of (-sin^3, cos^3) in [0, 2*pi)."""
    c = xp.cos(theta)
    s = xp.sin(theta)
    c3 = c * c * c
    s3 = s * s * s
    psi = k * (r * r * r) / (1.0 + r * r) * xp.hypot(c3, s3)
    return psi, _angle(xp, c3, -s3)


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
    the namespace xp (math for floats): upper triangular [[a11, a12],
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


def _polar(xp, p: Point):
    """(hypot, _angle) of a point over the namespace xp."""
    x, y = p
    return xp.hypot(x, y), _angle(xp, y, x)


def _sector_split(xp, theta, n: int):
    """The sector part of the chart from the polar angle theta: the 0-based
    sector index m (sector_of minus one) and the angle rotated back to
    sector 0 and rescaled to the base map's quarter turn."""
    m = xp.minimum(xp.floor(theta * n / TWO_PI), n - 1)  # theta*n/(2*pi) may round to n
    return m, (theta - TWO_PI * m / n) * n / 4.0


def _float_split(theta: float, n: int):
    """_sector_split of one float angle, written out like _float_polar."""
    m = math.floor(theta * n / TWO_PI)
    if m > n - 1:  # theta*n/(2*pi) may round to n
        m = n - 1
    return m, (theta - TWO_PI * m / n) * n / 4.0


def _sector_chart(xp, p: Point, n: int):
    """Source chart of the order-n transplant at a nonzero point: (r, theta,
    m, theta4), the polar pair with theta in [0, 2*pi) and _sector_split."""
    r, theta = _polar(xp, p)
    return (r, theta) + _sector_split(xp, theta, n)


def _float_chart(p: Point, n: int):
    """_sector_chart of one float point: _float_polar and _float_split."""
    r, theta = _float_polar(p)
    return (r, theta) + _float_split(theta, n)


def sector_of(p: Point, n: int) -> int:
    """1-based sector index j with theta(p) in [2*pi*(j-1)/n, 2*pi*j/n)."""
    _check_order(n)
    x, y = p
    if x == 0.0 and y == 0.0:
        raise ValueError("sector undefined at origin")
    return _float_chart(p, n)[2] + 1


# The relative margin of the closed-form regions below: on the radius, and
# for g4's cones on the cone angle too (f4/fn's cones have the angular
# margin a - atan(eps^3)).  It dwarfs the rounding of one computed step, so
# computed orbits stay inside the regions as well.
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


def _cone_edge(k: float, c: float = 0.0, phi: float = 0.0):
    """(a, m_a, r_lo, c_par) of the cones about the sector boundary rays, or None.

    The cones hold the points with chart angle theta4 (see _sector_chart)
    within a = atan(eps), eps = min(0.1, sqrt((k-1)/(3k))), of 0 or pi/2.
    One step of f4 or fn maps chart (r, theta4) to radius psi(r)*m(theta4)
    and chart angle atan(tan^3 theta4), or its mirror image about pi/2,
    where psi(r) = k r^3/(1+r^2) and m(t) = hypot(cos^3 t, sin^3 t).  On the
    cones m >= m_a = m(a) and the image angle is at most atan(eps^3) < a.

    A term c*Rot(phi) p added to the step of f4 (see _linear_modulus) has
    modulus c*r and, at a point of true angle theta within a of the x-axis,
    angle theta + phi, while f4(p) has angle pi/2 + atan(tan^3 theta).  The
    angle between them lies within w = a - atan(eps^3) of phi - pi/2, and
    the same holds about every boundary ray, as the term commutes with the
    quarter turn.  As |A + B| >= |A| + |B|*cos(angle), the image radius is
    at least psi(r)*m_a + c_par*r, where c_par = c*cos(min(pi, |phi - pi/2|
    + w)) with the angle taken in [-pi, pi]: c_par = c*cos(w) when the term
    points straight outward (phi = pi/2), -c when it points straight inward
    (phi = -pi/2).  The term turns
    the image direction by at most asin(c/(g(r)*m_a)), g(r) = psi(r)/r =
    k r^2/(1+r^2).  r_lo is the least radius where g(r)*m_a >= 1 + margin -
    c_par, so that every radius r >= r_lo grows by at least the factor
    1 + margin, and where the image angle atan(eps^3) + asin(c/(g(r)*m_a))
    is at most (1-margin)*a.  As g(r) increases, both hold on all of
    r >= r_lo.  With c = 0, r_lo solves psi(r)*m_a = (1+margin)*r.  None
    when either needs g(r) >= k.
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
    """Annular cones about the sector boundary rays: r_lo <= |p| <= r_hi
    with chart angle theta4 (see _sector_chart) within cone of 0 or of
    pi/2, where m(theta4) >= m_a.  Built by trapping_region and
    escape_cones; for escape cones one step maps radius r to at least
    psi(r)*m_a + shift*r (shift = c_par of _cone_edge, signed)."""

    r_lo: float
    r_hi: float
    cone: float
    m_a: float
    n: int
    shift: float = 0.0

    def contains(self, x, y, r2):
        """Whether the points of arrays (x, y), r2 = x*x + y*y, lie in the
        region (arrays only; see _retirements), tested with no sector chart:
        chart angle within cone of 0 or pi/2 is angle within 4*cone/n of a
        boundary ray, so with t = atan2(y, x)*n/(2*pi) the test is
        r_lo^2*(1+mu) <= r2 <= r_hi^2*(1-mu) and |t - rint(t)| <=
        (2*cone/pi)*(1-mu), mu = _BOUND_MARGIN.  The margin dwarfs the
        rounding of r2 and t, so every point accepted lies in the region;
        points within about mu of its edge may be missed.  A NaN or inf r2
        (a non-finite coordinate, or an overflowing square) lies outside.
        """
        t = np.arctan2(y, x)
        t *= self.n / TWO_PI  # in place, sparing two large temporaries
        t -= np.rint(t)
        lo = self.r_lo * self.r_lo * (1.0 + _BOUND_MARGIN)
        hi = min(self.r_hi * self.r_hi, np.finfo(float).max) * (1.0 - _BOUND_MARGIN)
        near_ray = abs(t) <= 2.0 * self.cone / math.pi * (1.0 - _BOUND_MARGIN)
        return (lo <= r2) & (r2 <= hi) & near_ray


@dataclass(frozen=True)
class Disk:
    """The disk |p| <= radius about the origin.  Built by contracting_disk."""

    radius: float

    def contains(self, x, y, r2):
        """Whether r2 = x*x + y*y <= radius^2 (arrays only; NaN and inf are out)."""
        return r2 <= self.radius * self.radius


def trapping_region(spec, eps_in: float, r_escape: float) -> ConeRegion | None:
    """The trapping region of the outer period-n cycle of an h/hn map, or None.

    The region holds the points of the cones of _cone_edge with radius in
    [r_lo, r_hi].  One step of h/hn maps chart (r, theta4) to radius
    u(psi(r)*m(theta4)), with u the radial response, and the chart angle
    that f4 gives.  r_lo must lie below r0, where u is the identity;
    r_hi = min(r_escape/2, 1e100) must satisfy u(psi(r_hi)) <=
    (1-margin)*r_hi.  As psi and u increase, image radii lie in
    [(1+margin)*r_lo, (1-margin)*r_hi], so with |eps_in| < r_lo orbits in
    the region never converge and never escape.  None for callables and
    f4/g4/fn, and whenever one of these conditions fails.
    """
    if callable(spec) or spec.family not in ("h", "hn"):
        return None
    edge = _cone_edge(spec.k)
    if edge is None:
        return None
    cone, m_a, r_lo, _ = edge
    k, prof, d = spec.k, spec.profile, _MARGIN
    # k*r^3 overflows near r = 5.6e102
    r_hi = min(0.5 * r_escape, 1e100)
    if not (r_lo * (1.0 + d) <= prof.r0 and abs(eps_in) < r_lo < r_hi
            and radial_u(k * (r_hi * r_hi * r_hi) / (1.0 + r_hi * r_hi), prof)
            <= (1.0 - d) * r_hi):
        return None
    return ConeRegion(r_lo, r_hi, cone, m_a, spec.n)


def escape_cones(spec) -> ConeRegion | None:
    """The escape cones of an f4/fn map or of g4 with delta = 0, or None.

    The cones of _cone_edge with no upper radius: r >= r_lo, where r_lo
    accounts for g4's term c*Rot(phi) p, c = hypot(alpha, beta) and
    phi = atan2(beta, alpha) (c = 0 for f4/fn), through its share c_par
    along f4's image, kept as the region's shift.  One step maps them into
    themselves, with image chart angle at most (1-margin)*a and image
    radius at least psi(r)*m_a + c_par*r >= (1+margin)*r, so every orbit in
    them escapes.  At k = 1.1, r_lo = 3.46 for f4/fn, 2.668 for g4 with
    beta = 0.05 (the term points outward, c_par = 0.0498) and 5.58 with
    beta = -0.05 (inward, c_par = -c).  None for callables, for h/hn (they
    contract far out), for g4 with delta != 0 (see _linear_modulus) and
    when _cone_edge finds no r_lo.
    """
    c = _linear_modulus(spec)
    if c is None or spec.family in ("h", "hn"):
        return None
    edge = _cone_edge(spec.k, c, math.atan2(spec.beta, spec.alpha))
    if edge is None:
        return None
    cone, m_a, r_lo, c_par = edge
    return ConeRegion(r_lo, math.inf, cone, m_a, spec.n, c_par)


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


def _retirements(spec, budget, eps_in, r_escape):
    """The (region, kind, N) entries of analysis._classify_part: a live
    point in region at step t with t + N <= budget is retired with kind.
    The h/hn trapping region decides kind 0 with N = 0.  The escape cones
    (kind 2) and the contracting disk (kind 1) follow, with N from
    _crossing_steps; for g4 their bounds carry its term of modulus c*r,
    c = hypot(alpha, beta) (_linear_modulus): the disk's as +c, the cones'
    as their signed shift c_par (escape_cones), which is -c only where the
    term points straight inward.  Each bound starts from the region's edge
    and must pass its threshold, both moved outward by the relative margin
    mu = _BOUND_MARGIN, as are the bound's own factors (each shift moved
    toward the side that slows the bound), so that the rounding of the
    membership test, of the bound and of the plain loop's threshold test
    cannot decide a point otherwise.  Entries with N > budget never retire
    and are left out."""
    entries = []
    trap = trapping_region(spec, eps_in, r_escape)
    if trap is not None:
        entries.append((trap, 0, 0))
    mu = _BOUND_MARGIN
    cones = escape_cones(spec)
    disk = contracting_disk(spec)
    if cones is not None:
        beyond = r_escape * (1.0 + mu)
        shift = cones.shift * (1.0 - mu if cones.shift > 0.0 else 1.0 + mu)
        entries.append((cones, 2, _crossing_steps(
            spec.k, cones.r_lo * (1.0 - mu), cones.m_a * (1.0 - mu), shift,
            lambda r: r > beyond, budget)))
    if disk is not None:
        within = abs(eps_in) * (1.0 - mu)
        c = (1.0 + mu) * _linear_modulus(spec)  # not None where there is a disk
        entries.append((disk, 1, _crossing_steps(
            spec.k, disk.radius * (1.0 + mu), 1.0 + mu, c, lambda r: r < within, budget)))
    return [entry for entry in entries if entry[2] <= budget]


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


def _sector_image(xp, r, theta4, m, k: float, n: int, prof: RadialProfile | None):
    """Image radius and angle of a chart point under the base map, rescaled
    back to sector m+1 (the sector after the source sector m)."""
    psi, phi = _f4_polar(xp, r, theta4, k)
    if prof is not None:
        psi = _radial_u(xp, psi, prof)
    return psi, 4.0 * phi / n + TWO_PI * m / n


def _float_image(r: float, theta4: float, m: int, k: float, n: int,
                 prof: RadialProfile | None):
    """_sector_image of one float chart point, written out like _float_polar."""
    c = math.cos(theta4)
    s = math.sin(theta4)
    c3 = c * c * c
    s3 = s * s * s
    psi = k * (r * r * r) / (1.0 + r * r) * math.hypot(c3, s3)
    if prof is not None:
        psi = radial_u(psi, prof)
    phi = math.atan2(c3, -s3)
    if phi < 0.0:
        phi += TWO_PI
        if phi >= TWO_PI:
            phi = 0.0
    return psi, 4.0 * phi / n + TWO_PI * m / n


def _sector_step(xp, r, theta, k: float, n: int, prof: RadialProfile | None):
    """One order-n transplant step (n != 4) from the polar pair (r, theta)
    of nonzero points, over the namespace xp."""
    m, theta4 = _sector_split(xp, theta, n)
    psi, theta_out = _sector_image(xp, r, theta4, m, k, n, prof)
    return psi * xp.cos(theta_out), psi * xp.sin(theta_out)


def _float_step(r: float, theta: float, k: float, n: int, prof: RadialProfile | None) -> Point:
    """_sector_step of one float polar pair, written out like _float_polar."""
    m, theta4 = _float_split(theta, n)
    psi, theta_out = _float_image(r, theta4, m, k, n, prof)
    return psi * math.cos(theta_out), psi * math.sin(theta_out)


def polar_step(spec):
    """The step of an fn/hn MapSpec with n != 4 as a function of the polar
    pair (r, theta) = to_polar(p) of a nonzero float point p: bitwise
    eval_map(spec, p), for callers that hold the pair already.  None for
    every other map, whose step takes no sector chart."""
    if callable(spec) or spec.family not in ("fn", "hn") or spec.n == 4:
        return None
    k, n, prof = spec.k, spec.n, spec.profile
    return lambda r, theta: _float_step(r, theta, k, n, prof)


def _transplant(p: Point, k: float, n: int, prof: RadialProfile | None, xp=_NUMPY) -> Point:
    """Order-n transplant of f4, radially saturated by prof when given.

    Composes rotation by -m sectors -> angular rescale -> base map ->
    rescale back -> rotation by +m sectors in angle space, so a boundary
    point whose local angle rounds to -ulp is never re-wrapped to 2*pi
    (which the n/4 rescale would blow up into a genuine jump).  For n = 4
    the rescales are identities and the quarter-turn rotations exact, so
    the evaluation reduces to _eval_f4 or _eval_h (bitwise).

    The input type picks the implementation.  Arrays take the namespace
    formula, _polar and _sector_step over xp (_NUMPY, or _LIBM for
    eval_points, which adds the float path's origin shortcut and error).
    Floats take _float_polar and _float_step, the same operations written
    out with math, bitwise that formula over math (the tests pin this).  A
    _NUMPY result may differ from the float result by a few ulps, where
    numpy's arctan2 and hypot differ from math's.
    """
    x, y = p
    if type(x) is np.ndarray:
        if n == 4:
            return _eval_f4(p, k) if prof is None else _eval_h(p, k, prof, xp)
        return _sector_step(xp, *_polar(xp, p), k, n, prof)
    if x == 0.0 and y == 0.0:
        return 0.0, 0.0
    if n == 4:
        return _eval_f4(p, k) if prof is None else _eval_h(p, k, prof)
    r, theta = _float_polar(p)
    return _float_step(r, theta, k, n, prof)


def _matrix(a, b, c, d) -> np.ndarray:
    return np.array([[a, b], [c, d]])


def _matrices(a, b, c, d) -> np.ndarray:
    """The (N, 2, 2) stack of [[a, b], [c, d]] for 1-D arrays a and
    arrays or floats b, c, d."""
    out = np.empty((a.size, 2, 2))
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = a, b, c, d
    return out


def _polar_chain(xp, mat, r, theta, theta4, psi, theta_out, k: float, n: int):
    """_jac_fn's chain rule over the namespace xp, away from the origin,
    from the chart (r, theta, theta4) and the image (psi, theta_out); mat
    builds its 2x2 factors: _matrix for floats (xp = math), _matrices on
    1-D arrays, whose stacked matmuls multiply each point's factors as the
    float path does."""
    a11, a12, a22 = _f4_polar_entries(xp, r, theta4, k)
    a_n = np.array([[1.0, 0.0], [0.0, 4.0 / n]])
    b_n = np.array([[1.0, 0.0], [0.0, n / 4.0]])
    d_polar = a_n @ mat(a11, a12, 0.0, a22) @ b_n
    ci, si = xp.cos(theta), xp.sin(theta)
    co, so = xp.cos(theta_out), xp.sin(theta_out)
    chart_in_inv = mat(ci, si, -si / r, ci / r)
    chart_out = mat(co, -psi * so, so, psi * co)
    return chart_out @ d_polar @ chart_in_inv


def _jac_fn(p: Point, k: float, n: int) -> np.ndarray:
    """Cartesian Jacobian of the order-n transplant via the polar chain rule.

    The angular rescales contribute the constant diagonal factors
    diag(1, 4/n) and diag(1, n/4) around the polar-chart derivative of the
    base map; the result is conjugated back to Cartesian charts.  At the
    origin the derivative is the zero matrix.
    """
    x, y = p
    if x == 0.0 and y == 0.0:
        return np.zeros((2, 2))
    r, theta, m, theta4 = _float_chart(p, n)
    psi, theta_out = _float_image(r, theta4, m, k, n, None)
    # Outside (1e-300, 1e75) 1/r or r^3 overflows and matmul meets inf * 0:
    # there the chain runs silently, as float arithmetic does.  Inside, the
    # factors and their products are finite and np.errstate is skipped: it
    # costs 1.2-1.9 us, 13-22% of an 11.4 us call (min of 9, 2-core VM).
    if 1e-300 < r < 1e75:
        return _polar_chain(math, _matrix, r, theta, theta4, psi, theta_out, k, n)
    with np.errstate(all="ignore"):
        return _polar_chain(math, _matrix, r, theta, theta4, psi, theta_out, k, n)


def _eval_h(p: Point, k: float, prof: RadialProfile, xp=_NUMPY) -> Point:
    w1, w2 = _eval_f4(p, k)
    if type(w1) is np.ndarray:
        s = xp.hypot(w1, w2)
        # u = s = 0 at the origin, where any finite scale will do; where
        # 0 < s <= r0 the scale is s/s = 1 exactly, as the float branch's identity
        scale = _radial_u(xp, s, prof) / xp.where(s > 0.0, s, 1.0)
        return scale * w1, scale * w2
    s = math.hypot(w1, w2)
    if s <= prof.r0:  # identity branch, exact
        return w1, w2
    scale = radial_u(s, prof) / s
    return scale * w1, scale * w2


def eval_map(spec, p: Point) -> Point:
    """Evaluate one step of the map named by spec (or any callable).

    For a MapSpec, p may hold floats or numpy arrays of coordinates.
    """
    if callable(spec):
        return spec(p)
    if spec.family == "f4":
        return _eval_f4(p, spec.k)
    if spec.family == "g4":
        return _eval_g4(p, spec.k, spec.alpha, spec.beta, spec.delta)
    if spec.family == "h":
        return _eval_h(p, spec.k, spec.profile)
    return _transplant(p, spec.k, spec.n, spec.profile)  # fn (no profile) or hn


def _check_finite(x: np.ndarray, y: np.ndarray) -> None:
    """The float chart's ValueError, for the first non-finite point."""
    bad = np.flatnonzero(~(np.isfinite(x) & np.isfinite(y)))
    if bad.size:
        raise ValueError(f"non-finite point {(float(x[bad[0]]), float(y[bad[0]]))!r}")


def eval_points(spec: MapSpec, x: np.ndarray, y: np.ndarray,
                polar=None) -> tuple[np.ndarray, np.ndarray]:
    """eval_map at each point of the 1-D float arrays (x, y), bitwise the
    float path up to which NaN an operation on two NaNs gives: the array
    formula over _LIBM, with the float path's origin shortcut (0.0, 0.0)
    for fn/hn and, where n != 4, its ValueError for the first non-finite
    point.  For sampled checks; step_batch is the faster numpy formula,
    for rasters.  A callable is mapped point by point, as step_batch does.

    polar, the pair _polar(_LIBM, (x, y)), spares fn/hn with n != 4 their
    own chart: for callers that evaluate several orders at one sample."""
    if callable(spec):
        return step_batch(spec, x, y)
    if spec.family in ("fn", "hn") and spec.n != 4:
        _check_finite(x, y)
    with np.errstate(all="ignore"):  # as on floats: overflow gives inf, inf - inf NaN
        if spec.family in ("f4", "g4"):
            return eval_map(spec, (x, y))
        if spec.family == "h":
            return _eval_h((x, y), spec.k, spec.profile, _LIBM)
        if polar is None or spec.n == 4:
            fx, fy = _transplant((x, y), spec.k, spec.n, spec.profile, _LIBM)
        else:
            fx, fy = _sector_step(_LIBM, *polar, spec.k, spec.n, spec.profile)
    origin = (x == 0.0) & (y == 0.0)
    return np.where(origin, 0.0, fx), np.where(origin, 0.0, fy)


def _fd_entries(fun, x, y, h):
    """Central-difference Jacobian entries (a, b, c, d) of fun, a map of
    (x, y) pairs, with step h: floats, or arrays of points."""
    fxp = fun((x + h, y))
    fxm = fun((x - h, y))
    fyp = fun((x, y + h))
    fym = fun((x, y - h))
    inv = 0.5 / h
    return ((fxp[0] - fxm[0]) * inv, (fyp[0] - fym[0]) * inv,
            (fxp[1] - fxm[1]) * inv, (fyp[1] - fym[1]) * inv)


def jac_map(spec, p: Point) -> np.ndarray:
    """Jacobian of the map named by spec: analytic for f4/g4/fn, central
    finite differences for h/hn and callables."""
    if callable(spec) or spec.family in ("h", "hn"):
        x, y = p
        return _matrix(*_fd_entries(lambda q: eval_map(spec, q), x, y,
                                    1e-7 * (1.0 + math.hypot(x, y))))
    if spec.family == "fn":
        return _jac_fn(p, spec.k, spec.n)
    return _matrix(*_jac_entries(spec, p[0], p[1]))


def jac_points(spec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """jac_map at each point of the 1-D float arrays (x, y), bitwise up to
    which NaN an operation on two NaNs gives: an (N, 2, 2) array.

    f4/g4 stack their analytic entries.  fn runs _jac_fn's polar chain
    over _LIBM, with the zero matrix at the origin and the float chart's
    ValueError for the first non-finite point.  h/hn and callables take the
    same central differences as jac_map through eval_points, which raises
    that ValueError for hn (n != 4) where a stencil point is not finite.
    """
    with np.errstate(all="ignore"):  # as on floats: overflow gives inf, inf - inf NaN
        if callable(spec) or spec.family in ("h", "hn"):
            return _matrices(*_fd_entries(lambda q: eval_points(spec, *q), x, y,
                                          1e-7 * (1.0 + _LIBM.hypot(x, y))))
        if spec.family != "fn":
            return _matrices(*_jac_entries(spec, x, y))
        _check_finite(x, y)
        r, theta, m, theta4 = _sector_chart(_LIBM, (x, y), spec.n)
        psi, theta_out = _sector_image(_LIBM, r, theta4, m, spec.k, spec.n, None)
        jac = _polar_chain(_LIBM, _matrices, r, theta, theta4, psi, theta_out, spec.k, spec.n)
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

