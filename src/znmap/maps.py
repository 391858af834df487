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
numpy arrays and run the same arithmetic on both: ``+ - * /`` in one fixed
order, and the few other functions (trig, ``hypot``, ``expm1``, ``floor``,
``minimum`` and a select) from ``math`` for floats and from ``numpy`` for
arrays, picked by the input type.  Jacobians are 2x2 numpy arrays
``[[a, b], [c, d]]``.  ``step_batch`` is ``eval_map`` on coordinate arrays,
for raster/scan workloads.

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

FAMILIES = ("f4", "g4", "fn", "h", "hn")


def validate_k(k: float) -> None:
    if not (K_MIN < k < K_MAX):
        raise ValueError(f"k must lie in (1, 2/sqrt(3)) ~ (1, {K_MAX:.8f}); got {k}")


def _check_order(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"symmetry order must be an integer >= 2, got {n!r}")


def _cube(v):
    # explicit product keeps (-v)^3 == -(v^3) bitwise, which the exact
    # quarter-turn dispatch relies on
    return v * v * v


# the functions the formulas need beyond + - * /, for floats and for arrays
_MATH = SimpleNamespace(cos=math.cos, sin=math.sin, hypot=math.hypot, atan2=math.atan2,
                        expm1=math.expm1, floor=math.floor,
                        minimum=lambda a, b: b if b < a else a,  # builtin min is slower
                        where=lambda cond, a, b: a if cond else b)
_NUMPY = SimpleNamespace(cos=np.cos, sin=np.sin, hypot=np.hypot, atan2=np.arctan2,
                         expm1=np.expm1, floor=np.floor, minimum=np.minimum, where=np.where)
_NAMESPACE = {np.ndarray: _NUMPY}  # looked up by exact type: the float path is hot


def _angle(xp, y, x):
    """atan2(y, x) normalized to [0, 2*pi)."""
    theta = xp.atan2(y, x)
    theta = xp.where(theta < 0.0, theta + TWO_PI, theta)
    # a tiny negative atan2 result can round up to exactly 2*pi
    return xp.where(theta >= TWO_PI, 0.0, theta)


def to_polar(p: Point) -> tuple[float, float]:
    """Convert (x, y) to (r, theta) with theta in [0, 2*pi)."""
    x, y = p
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite point {p!r}")
    r = math.hypot(x, y)
    if r == 0.0:
        return 0.0, 0.0
    return r, _angle(_MATH, y, x)


def from_polar(q: tuple[float, float]) -> Point:
    """Convert (r, theta) to (r*cos(theta), r*sin(theta))."""
    r, theta = q
    return r * math.cos(theta), r * math.sin(theta)


def rotate(p: Point, m: int, n: int) -> Point:
    """Rotate p by 2*pi*m/n about the origin.

    Multiples of a quarter turn are applied as exact component
    swaps/negations, so e.g. the order-4 generator maps (x, y) to (-y, x)
    with no rounding at all.
    """
    _check_order(n)
    mm = m % n
    x, y = p
    if (4 * mm) % n == 0:
        q = (4 * mm // n) % 4
        if q == 0:
            return x, y
        if q == 1:
            return -y, x
        if q == 2:
            return -x, -y
        return y, -x
    ang = TWO_PI * mm / n
    c = math.cos(ang)
    s = math.sin(ang)
    return c * x - s * y, s * x + c * y


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
        if not (self.r0 > 0.0 and self.r_half > 0.0):
            raise ValueError("profile radii must be positive")


def default_profile(k: float) -> RadialProfile:
    r0 = 2.0 / math.sqrt(k - 1.0)
    return RadialProfile(r0, r0)


def radial_u(s, prof: RadialProfile):
    """Evaluate the saturating radial response at s >= 0 (float or array)."""
    xp = _NAMESPACE.get(type(s), _MATH)
    if xp is _MATH:
        if s < 0.0:
            raise ValueError("radial response undefined for negative radius")
        if s <= prof.r0:  # arrays take this branch through the select below
            return s
    w = s - prof.r0
    tail = prof.r0 + 0.5 * w + 0.5 * prof.r_half * (-xp.expm1(-w / prof.r_half))
    return xp.where(s <= prof.r0, s, tail)


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
    k: float = 1.1
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
        if self.family in ("h", "hn"):
            prof = self.profile if self.profile is not None else default_profile(self.k)
            if prof.r0 <= 1.0 / math.sqrt(self.k - 1.0):
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
    d2 = (1.0 + x2 + y2) ** 2
    a = 2.0 * k * x * y * y2 / d2
    b = -k * (3.0 * y2 + 3.0 * x2 * y2 + y2 * y2) / d2
    c = k * (3.0 * x2 + x2 * x2 + 3.0 * x2 * y2) / d2
    d = -2.0 * k * x * x2 * y / d2
    return a, b, c, d


def _jac_f4_polar(q: tuple[float, float], k: float) -> np.ndarray:
    """Derivative in polar charts (source and target): upper triangular,
    with angle derivative 3*sin^2*cos^2/(cos^6+sin^6)."""
    r, theta = q
    if r == 0.0:
        raise ValueError("polar chart singular at origin")
    c = math.cos(theta)
    s = math.sin(theta)
    c3 = _cube(c)
    s3 = _cube(s)
    m = math.hypot(c3, s3)  # sqrt(cos^6 + sin^6) >= 1/2
    r2 = r * r
    a11 = k * r2 * (3.0 + r2) / (1.0 + r2) ** 2 * m
    a12 = k * _cube(r) / (1.0 + r2) * 3.0 * s * c * (s3 * s - c3 * c) / m
    a22 = 3.0 * s * s * c * c / (m * m)
    return np.array([[a11, a12], [0.0, a22]])


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


def _sector_chart(xp, p: Point, n: int):
    """Source chart of the order-n transplant at a nonzero point.

    Returns (r, theta, m, theta4): polar coordinates with theta in
    [0, 2*pi), the 0-based sector index m (sector_of minus one), and
    the angle rotated back to sector 0 and rescaled to the base map's
    quarter turn.
    """
    x, y = p
    if xp is _MATH and not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite point {p!r}")
    theta = _angle(xp, y, x)
    m = xp.minimum(xp.floor(theta * n / TWO_PI), n - 1)  # theta*n/(2*pi) may round to n
    return xp.hypot(x, y), theta, m, (theta - TWO_PI * m / n) * n / 4.0


def sector_of(p: Point, n: int) -> int:
    """1-based sector index j with theta(p) in [2*pi*(j-1)/n, 2*pi*j/n)."""
    _check_order(n)
    x, y = p
    if x == 0.0 and y == 0.0:
        raise ValueError("sector undefined at origin")
    return _sector_chart(_MATH, p, n)[2] + 1


# The relative radial margin of the closed-form regions below.  With the
# angular margin a - atan(eps^3) of the cones it dwarfs the rounding of one
# computed step, so computed orbits stay inside the regions as well.
_MARGIN = 1e-6


def _cone_edge(k: float):
    """(a, m_a, r_lo) of the cones about the sector boundary rays, or None.

    The cones hold the points with chart angle theta4 (see _sector_chart)
    within a = atan(eps), eps = min(0.1, sqrt((k-1)/(3k))), of 0 or pi/2.
    One step of f4 or fn maps chart (r, theta4) to radius psi(r)*m(theta4)
    and chart angle atan(tan^3 theta4), or its mirror image about pi/2,
    where psi(r) = k r^3/(1+r^2) and m(t) = hypot(cos^3 t, sin^3 t).  On the
    cones m >= m_a = m(a) and the image angle is at most atan(eps^3) < a.
    r_lo solves psi(r)*m_a = (1+margin)*r; as psi(r)/r increases, every
    radius r >= r_lo grows by at least that factor.  None when k*m_a does
    not clear 1 + margin.
    """
    d = _MARGIN
    eps = min(0.1, math.sqrt((k - 1.0) / (3.0 * k)))
    m_a = math.sqrt((1.0 + eps ** 6) / (1.0 + eps * eps) ** 3)
    if not k * m_a > 1.0 + d:
        return None
    return math.atan(eps), m_a, math.sqrt((1.0 + d) / (k * m_a - 1.0 - d))


@dataclass(frozen=True)
class ConeRegion:
    """Annular cones about the sector boundary rays: r_lo <= |p| <= r_hi
    with chart angle theta4 (see _sector_chart) within cone of 0 or of
    pi/2, where m(theta4) >= m_a.  Built by trapping_region and
    escape_cones."""

    r_lo: float
    r_hi: float
    cone: float
    m_a: float
    n: int

    def contains(self, x, y):
        """Whether (x, y) lies in the region (floats or arrays)."""
        xp = _NAMESPACE.get(type(x), _MATH)
        if xp is _MATH and not (math.isfinite(x) and math.isfinite(y)):
            return False
        r, _, _, theta4 = _sector_chart(xp, (x, y), self.n)
        near_axis = (theta4 <= self.cone) | (theta4 >= 0.5 * math.pi - self.cone)
        return (r >= self.r_lo) & (r <= self.r_hi) & near_axis


@dataclass(frozen=True)
class Disk:
    """The disk |p| <= radius about the origin.  Built by contracting_disk."""

    radius: float

    def contains(self, x, y):
        """Whether (x, y) lies in the disk (floats or arrays)."""
        return x * x + y * y <= self.radius * self.radius


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
    cone, m_a, r_lo = edge
    k, prof, d = spec.k, spec.profile, _MARGIN
    # k*r^3 overflows near r = 5.6e102
    r_hi = min(0.5 * r_escape, 1e100)
    if not (r_lo * (1.0 + d) <= prof.r0 and abs(eps_in) < r_lo < r_hi
            and radial_u(k * (r_hi * r_hi * r_hi) / (1.0 + r_hi * r_hi), prof)
            <= (1.0 - d) * r_hi):
        return None
    return ConeRegion(r_lo, r_hi, cone, m_a, spec.n)


def escape_cones(spec) -> ConeRegion | None:
    """The escape cones of an f4/fn map, or None.

    The cones of _cone_edge with no upper radius: r >= r_lo.  One step maps
    them into themselves, with image chart angle at most atan(eps^3) < a
    and image radius at least psi(r)*m_a >= (1+margin)*r, so every orbit in
    them escapes.  None for callables, for g4 (its alpha, beta and delta
    terms need their own angle bound), for h/hn (they contract far out) and
    when k*m_a does not clear 1 + margin.
    """
    if callable(spec) or spec.family not in ("f4", "fn"):
        return None
    edge = _cone_edge(spec.k)
    if edge is None:
        return None
    cone, m_a, r_lo = edge
    return ConeRegion(r_lo, math.inf, cone, m_a, spec.n)


def contracting_disk(spec) -> Disk | None:
    """The contracting disk about the origin of an f4/fn/h/hn map, or None.

    For these families |f(p)| <= psi(|p|), psi(r) = k r^3/(1+r^2), because
    m(theta4) <= 1 and the radial response satisfies u(s) <= s.  As
    psi(r)/r = k r^2/(1+r^2) increases, the radius R = sqrt((1-margin)/
    (k-1+margin)) that solves psi(R) = (1-margin)*R bounds a disk that one
    step maps into itself, shrinking every radius in it by at least the
    factor 1 - margin, so every orbit in it converges to the origin.  The
    margin is on psi(r)/r, not on the radius: as k -> 1 a disk of radius
    (1-margin)*P, P = (k-1)^(-1/2), leaves psi(r)/r within about
    2*margin*(k-1) of 1.  None for callables and for g4, whose alpha and
    beta terms break the bound.
    """
    if callable(spec) or spec.family == "g4":
        return None
    d = _MARGIN
    return Disk(math.sqrt((1.0 - d) / (spec.k - 1.0 + d)))


def _sector_image(xp, r, theta4, m, k: float, n: int, prof: RadialProfile | None):
    """Image radius and angle of a chart point under the base map, rescaled
    back to sector m+1 (the sector after the source sector m)."""
    psi, phi = _f4_polar(xp, r, theta4, k)
    if prof is not None:
        psi = radial_u(psi, prof)
    return psi, 4.0 * phi / n + TWO_PI * m / n


def _transplant(p: Point, k: float, n: int, prof: RadialProfile | None) -> Point:
    """Order-n transplant of f4, radially saturated by prof when given.

    Composes rotate(-m) -> angular rescale -> base map -> rescale back ->
    rotate(+m) in angle space, so a boundary point whose local angle rounds
    to -ulp is never re-wrapped to 2*pi (which the n/4 rescale would blow
    up into a genuine jump).  For n = 4 the rescales are identities and the
    quarter-turn rotations exact, so the evaluation reduces to _eval_f4 or
    _eval_h (bitwise).
    """
    x, y = p
    xp = _NAMESPACE.get(type(x), _MATH)
    if xp is _MATH and x == 0.0 and y == 0.0:
        return 0.0, 0.0
    if n == 4:
        return _eval_f4(p, k) if prof is None else _eval_h(p, k, prof)
    r, _, m, theta4 = _sector_chart(xp, p, n)
    psi, theta_out = _sector_image(xp, r, theta4, m, k, n, prof)
    return psi * xp.cos(theta_out), psi * xp.sin(theta_out)


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
    r, theta, m, theta4 = _sector_chart(_MATH, p, n)
    inner = _jac_f4_polar((r, theta4), k)
    a_n = np.array([[1.0, 0.0], [0.0, 4.0 / n]])
    b_n = np.array([[1.0, 0.0], [0.0, n / 4.0]])
    d_polar = a_n @ inner @ b_n
    psi, theta_out = _sector_image(_MATH, r, theta4, m, k, n, None)
    ci, si = math.cos(theta), math.sin(theta)
    co, so = math.cos(theta_out), math.sin(theta_out)
    chart_in_inv = np.array([[ci, si], [-si / r, ci / r]])
    chart_out = np.array([[co, -psi * so], [so, psi * co]])
    return chart_out @ d_polar @ chart_in_inv


def _eval_h(p: Point, k: float, prof: RadialProfile) -> Point:
    w1, w2 = _eval_f4(p, k)
    xp = _NAMESPACE.get(type(w1), _MATH)
    s = xp.hypot(w1, w2)
    if xp is _MATH and s <= prof.r0:  # identity branch, exact
        return w1, w2
    # for arrays, u = s = 0 at the origin, where any finite scale will do
    scale = radial_u(s, prof) / xp.where(s > 0.0, s, 1.0)
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


def _jac_fd(fun, p: Point, h: float) -> np.ndarray:
    x, y = p
    fxp = fun((x + h, y))
    fxm = fun((x - h, y))
    fyp = fun((x, y + h))
    fym = fun((x, y - h))
    inv = 0.5 / h
    return np.array([
        [(fxp[0] - fxm[0]) * inv, (fyp[0] - fym[0]) * inv],
        [(fxp[1] - fxm[1]) * inv, (fyp[1] - fym[1]) * inv],
    ])


def jac_map(spec, p: Point) -> np.ndarray:
    """Jacobian of the map named by spec: analytic for f4/g4/fn, central
    finite differences for h/hn and callables."""
    if callable(spec) or spec.family in ("h", "hn"):
        return _jac_fd(lambda q: eval_map(spec, q), p, 1e-7 * (1.0 + math.hypot(*p)))
    if spec.family == "fn":
        return _jac_fn(p, spec.k, spec.n)
    a, b, c, d = _jac_entries(spec, p[0], p[1])
    return np.array([[a, b], [c, d]])


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

