"""Planar/polar geometry for maps with cyclic rotation symmetry.

Points are plain ``(x, y)`` tuples; polar pairs are ``(r, theta)`` with
``r >= 0`` and ``theta`` normalized to ``[0, 2*pi)`` (the origin gets
``theta = 0``).  Sectors of order ``n`` are indexed ``1..n`` with the
half-open convention ``theta in [2*pi*(j-1)/n, 2*pi*j/n)``, so every
nonzero point belongs to exactly one sector and boundary rays belong to
the sector above them.
"""

import math

Point = tuple[float, float]

TWO_PI = 2.0 * math.pi


def _check_order(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"symmetry order must be an integer >= 2, got {n!r}")


def to_polar(p: Point) -> tuple[float, float]:
    """Convert (x, y) to (r, theta) with theta in [0, 2*pi)."""
    x, y = p
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite point {p!r}")
    r = math.hypot(x, y)
    if r == 0.0:
        return 0.0, 0.0
    theta = math.atan2(y, x)
    if theta < 0.0:
        theta += TWO_PI
    if theta >= TWO_PI:
        # a tiny negative atan2 result can round up to exactly 2*pi
        theta = 0.0
    return r, theta


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


def sector_of(p: Point, n: int) -> int:
    """1-based sector index j with theta(p) in [2*pi*(j-1)/n, 2*pi*j/n)."""
    _check_order(n)
    x, y = p
    if x == 0.0 and y == 0.0:
        raise ValueError("sector undefined at origin")
    _, theta = to_polar(p)
    j0 = int(theta * n / TWO_PI)
    if j0 >= n:  # theta within one ulp of 2*pi
        j0 = n - 1
    return j0 + 1


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
