import math
from fractions import Fraction

import numpy as np
import pytest

from znmap.maps import (TWO_PI, MapSpec, _rotation, eval_map, from_polar, jac_map, sector_of,
                        to_polar)
from znmap.topology import (RotationEstimate, angle_lift, basin_raster, estimate_rotation,
                            image_curve, transversality_det)

K = 1.1
P_RADIUS = 1.0 / math.sqrt(K - 1.0)
F4 = MapSpec("f4", k=K)


# ---------------------------------------------------------------------------
# basin rasterization
# ---------------------------------------------------------------------------

def test_basin_all_converged_inside_contraction_disk():
    raster = basin_raster(F4, (-0.9, 0.9, -0.9, 0.9), 48, 48, budget=200)
    counts = raster.counts()
    assert counts["converged"] == 48 * 48


def test_basin_saturated_family_never_escapes():
    raster = basin_raster(MapSpec("hn", k=K, n=5), (-20.0, 20.0, -20.0, 20.0),
                          64, 64, budget=400, r_escape=1e3)
    assert raster.counts()["escaped"] == 0


def test_basin_pixel_at_periodic_point_undecided():
    window = (P_RADIUS - 0.5, P_RADIUS + 0.5, -0.5, 0.5)
    raster = basin_raster(F4, window, 1, 1, budget=100)
    assert raster.kinds[0, 0] == 0  # undecided


def test_basin_partition_invariance():
    window = (-1.0, 1.0, -1.0, 1.0)
    full = basin_raster(F4, window, 32, 32, budget=150)
    top = basin_raster(F4, (-1.0, 1.0, 0.0, 1.0), 32, 16, budget=150)
    bottom = basin_raster(F4, (-1.0, 1.0, -1.0, 0.0), 32, 16, budget=150)
    stitched = np.vstack([top.kinds, bottom.kinds])
    assert (stitched == full.kinds).all()


@pytest.mark.parametrize("window", [
    (1.0, 1.0, -1.0, 1.0),  # zero width
    (-1.0, 1.0, 2.0, 2.0),  # zero height
    (1.0, -1.0, -1.0, 1.0),  # inverted
    (-1.0, 1.0, 1.0, -1.0),
    (-math.inf, 1.0, -1.0, 1.0),
    (-1.0, 1.0, -1.0, math.nan),
])
def test_basin_rejects_degenerate_window(window):
    with pytest.raises(ValueError, match="window"):
        basin_raster(F4, window, 4, 4, budget=10)


def test_basin_row_zero_is_top_of_window():
    # window straddling the contraction disk: top row far from origin
    raster = basin_raster(F4, (-0.2, 0.2, -8.0, 8.0), 4, 64, budget=40,
                          eps_in=1e-8, r_escape=1e6)
    ys = 8.0 - (np.arange(64) + 0.5) * 16.0 / 64
    assert abs(ys[0] - 7.875) < 1e-12
    # center pixels (|y| small) converge within the tiny budget, edge rows do not
    assert raster.kinds[32, 2] == 1
    assert raster.kinds[0, 2] == 0


# ---------------------------------------------------------------------------
# image curves and transversality
# ---------------------------------------------------------------------------

def test_image_curve_matches_closed_form():
    curve = image_curve(F4, 1.0, 360)
    for th, (px, py) in zip(curve.thetas, curve.points):
        assert math.hypot(px + 0.5 * K * math.sin(th) ** 3,
                          py - 0.5 * K * math.cos(th) ** 3) <= 1e-12


def test_image_curve_endpoints():
    curve = image_curve(F4, 1.0, 360)
    assert math.hypot(curve.points[0][0], curve.points[0][1] - 0.5 * K) <= 1e-12
    assert math.hypot(curve.points[90][0] + 0.5 * K, curve.points[90][1]) <= 1e-12


def test_image_curve_quarter_turn_symmetry():
    curve = image_curve(F4, 1.0, 360)
    for i in range(360):
        j = (i + 90) % 360
        rotated = _rotation(1, 4)(*curve.points[i])
        assert math.hypot(curve.points[j][0] - rotated[0],
                          curve.points[j][1] - rotated[1]) <= 1e-12


def test_image_curve_order_five_cusps():
    n = 5
    curve = image_curve(MapSpec("fn", k=K, n=n), 1.0, 5 * 144)
    radii = np.hypot(curve.points[:, 0], curve.points[:, 1])
    # cusp parameters 2*m*pi/5 map onto the boundary rays with maximal radius
    for m in range(n):
        idx = m * 144
        assert abs(radii[idx] - 0.5 * K) <= 1e-12
        angle = to_polar(tuple(curve.points[idx]))[1]
        gap = abs(math.remainder(angle - TWO_PI * (m + 1) / n, TWO_PI))
        assert gap <= 1e-10
    assert radii.max() <= 0.5 * K + 1e-12


@pytest.mark.parametrize("spec", [
    F4, MapSpec("g4", k=K, alpha=0.02, beta=0.05, delta=0.003), MapSpec("fn", k=K, n=5),
    MapSpec("h", k=K), MapSpec("hn", k=K, n=7), lambda p: (p[0] + p[1], p[0] * p[1]),
], ids=["f4", "g4", "fn", "h", "hn", "callable"])
def test_image_curve_is_the_per_point_loop(spec):
    # eval_map at from_polar((radius, theta)) for each angle, bit for bit,
    # every NaN taken as one NaN (which NaN a two-NaN operation gives is
    # left open); at radius 1e200 the images overflow
    def one_nan_bits(points):
        return np.where(np.isnan(points), np.nan, points).tobytes()

    for radius in (0.0, 1.7, 1e200):
        curve = image_curve(spec, radius, 90)
        loop = [eval_map(spec, from_polar((radius, t))) for t in curve.thetas.tolist()]
        assert one_nan_bits(curve.points) == one_nan_bits(np.array(loop, dtype=float)), radius


def test_image_curve_needs_samples():
    with pytest.raises(ValueError):
        image_curve(F4, 1.0, 3)


def test_transversality_values():
    assert transversality_det(K, 0.0) == 0.0
    assert abs(transversality_det(K, math.pi / 4) - 0.226875) <= 1e-12
    assert abs(transversality_det(K, math.pi / 2)) <= 1e-30


def test_transversality_positive_off_cusps():
    for th in np.linspace(0.05, TWO_PI - 0.05, 500):
        if min(abs(th - m * math.pi / 2) for m in range(5)) > 1e-2:
            assert transversality_det(K, th) > 0.0


def transversality_det_numeric(k: float, theta: float, h: float = 1e-6) -> float:
    """transversality_det with gamma' from central finite differences."""
    def gamma(t):
        s, c = math.sin(t), math.cos(t)
        return (-0.5 * k * s ** 3, 0.5 * k * c ** 3)

    g = gamma(theta)
    gp = gamma(theta + h)
    gm = gamma(theta - h)
    d1 = ((gp[0] - gm[0]) / (2 * h), (gp[1] - gm[1]) / (2 * h))
    return g[0] * d1[1] - g[1] * d1[0]


def test_transversality_numeric_agrees():
    for th in (0.3, 0.8, 2.0, 4.5):
        assert abs(transversality_det(K, th)
                   - transversality_det_numeric(K, th)) <= 1e-8


@pytest.mark.parametrize("k", [1.0005, 1.1, 1.15])
def test_transversality_det_is_the_map_s_own(k):
    # det[gamma, gamma'] from f4 itself: gamma = f4(p(theta)) on the unit
    # circle and gamma' = Df4(p(theta)) (-sin theta, cos theta), so the
    # closed form that the astroid check evaluates cannot drift from the map
    spec = MapSpec("f4", k=k)
    for th in np.linspace(0.0, TWO_PI, 721).tolist():
        p = (math.cos(th), math.sin(th))
        gx, gy = eval_map(spec, p)
        dgx, dgy = jac_map(spec, p) @ (-math.sin(th), math.cos(th))
        assert abs(gx * dgy - gy * dgx - transversality_det(k, th)) <= 1e-14, th


# ---------------------------------------------------------------------------
# rotation numbers
# ---------------------------------------------------------------------------

def test_rotation_rigid_adapter():
    rot5 = lambda p: _rotation(1, 5)(*p)
    est = estimate_rotation(rot5, (1.0, 0.0), max_iters=50)
    assert abs(est.slope - 0.2) <= 1e-12
    assert est.rational == (1, 5)
    # a callable has no order: its denominators stay capped at 64
    est = estimate_rotation(lambda p: _rotation(1, 100)(*p), (1.0, 0.0))
    assert abs(est.slope - 0.01) <= 1e-12 and est.rational == (1, 64)


@pytest.mark.parametrize("turn, slope", [(-1e-9, 0.9999999998408451), (-TWO_PI * 1e-17, 0.0)])
def test_rotation_just_below_zero_stays_in_the_unit_interval(turn, slope):
    # a turn by a tiny negative angle per step: its slope mod 1 lies just
    # below 1, or rounds up to 1.0, which is 0; the rational, mod 1, is 0/1
    c, s = math.cos(turn), math.sin(turn)
    est = estimate_rotation(lambda p: (c * p[0] - s * p[1], s * p[0] + c * p[1]), (1.0, 0.3))
    assert est.slope == slope and 0.0 <= est.slope < 1.0
    assert est.rational == (0, 1)


def test_rotation_base_family():
    est = estimate_rotation(F4, (2.0, 0.0))
    assert est.rational == (1, 4)
    assert abs(est.slope - 0.25) <= 0.01


def test_rotation_order_six():
    est = estimate_rotation(MapSpec("fn", k=K, n=6), (2.0, 0.0))
    assert est.rational == (1, 6)
    assert abs(est.slope - 1.0 / 6.0) <= 0.01


def test_rotation_all_orders_both_families():
    offsets = (0.05, 0.10, 0.15, 0.20, 0.25)
    for n in range(2, 9):
        for family in ("fn", "hn"):
            spec = MapSpec(family, k=K, n=n)
            for j, off in enumerate(offsets):
                p0 = from_polar((6.0 + 0.5 * j,
                                 (j % n) * TWO_PI / n + off * TWO_PI / n))
                est = estimate_rotation(spec, p0, max_iters=200)
                assert est.rational == (1, n)
                assert abs(est.slope - 1.0 / n) <= 0.01


@pytest.mark.parametrize("n", [65, 128, 256, 1000, 4096])
@pytest.mark.parametrize("family", ["fn", "hn"])
def test_rotation_past_order_64(family, n):
    # the denominator cap is max(64, n) for a MapSpec, so 1/n stays
    # reachable: with 64 these gave (1, 64) at n = 65 and (0, 1) from 128 on
    est = estimate_rotation(MapSpec(family, k=K, n=n), from_polar((6.0, 0.05 * TWO_PI / n)))
    assert est.rational == (1, n)
    assert abs(est.slope * n - 1.0) < 1e-3


def test_rotation_rejects_origin_and_fast_collapse():
    with pytest.raises(ValueError):
        estimate_rotation(F4, (0.0, 0.0))
    with pytest.raises(RuntimeError, match="too fast"):
        estimate_rotation(F4, (0.01, 0.01))


def test_rotation_rejects_too_few_iterates_before_stepping():
    # max_iters + 1 angles at most, and the estimate needs 8: max_iters
    # below 7 is a bad value, like a start at the origin, not a failed orbit
    steps = []

    def counted(p):
        steps.append(p)
        return eval_map(F4, p)

    for max_iters in (6, 3, 0, -5):
        with pytest.raises(ValueError, match=f"max_iters={max_iters} leaves too few angles"):
            estimate_rotation(counted, (2.0, 0.0), max_iters=max_iters)
    assert steps == []
    assert estimate_rotation(counted, (2.0, 0.0), max_iters=7).iterates_used == 8


def test_rotation_names_overflow():
    with pytest.raises(RuntimeError, match="overflowed"):
        estimate_rotation(lambda p: (p[0] * 1e200, p[1] * 1e200), (1.0, 0.5))


def two_chart_rotation(spec, p0, max_iters=200):
    """estimate_rotation as first written, the oracle: to_polar for each
    iterate's angle, then eval_map, which takes the chart again."""
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


def rotation_outcome(fun, *args):
    try:
        return fun(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("family", ["fn", "hn"])
def test_rotation_is_the_two_chart_loop(family, n):
    # starts as the explore benchmark draws them (r 6 to 8, offsets into
    # each sector), on a boundary ray, inside the contracting disk (the
    # orbit reaches the origin, too fast or after enough angles), far out
    # (fn overflows) and at the origin; max_iters 7 leaves exactly 8 angles
    spec = MapSpec(family, k=K, n=n)
    rng = np.random.default_rng(n)
    starts = [from_polar((6.0 + 2.0 * rng.random(),
                          (j % n + 0.05 + 0.2 * rng.random()) * TWO_PI / n)) for j in range(5)]
    starts += [from_polar((7.0, TWO_PI / n)), (2.9, 0.3), (0.01, 0.01), (1e150, 1.0), (0.0, 0.0)]
    for p0 in starts:
        for max_iters in (200, 7):
            got = rotation_outcome(estimate_rotation, spec, p0, max_iters)
            assert got == rotation_outcome(two_chart_rotation, spec, p0, max_iters), p0
    assert rotation_outcome(estimate_rotation, MapSpec("fn", k=K, n=n), (1e150, 1.0))[0] \
        == "RuntimeError"


# ---------------------------------------------------------------------------
# sector cycling
# ---------------------------------------------------------------------------

def _sector_snapped(p, n: int) -> int:
    """Sector index with boundary grace: an angle within 1e-12 below a ray
    counts as on the ray, hence in the sector above it (the half-open
    dispatch convention, applied with the standard angle tolerance)."""
    j = sector_of(p, n)
    _, theta = to_polar(p)
    if TWO_PI * j / n - theta <= 1e-12:
        j = j % n + 1
    return j


def sector_cycle_check(spec, n: int, p0, iters: int = 50) -> dict:
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


def test_sector_cycle_base_family():
    rep = sector_cycle_check(F4, 4, (1.0, 1.0), 12)
    assert rep["passed"]
    assert rep["sectors"][:4] == [1, 2, 3, 4]


def test_sector_cycle_order_six_from_periodic_point():
    rep = sector_cycle_check(MapSpec("fn", k=K, n=6), 6, (P_RADIUS, 0.0), 18)
    assert rep["passed"]
    assert rep["sectors"][:6] == [1, 2, 3, 4, 5, 6]


def test_sector_cycle_saturated_family():
    rep = sector_cycle_check(MapSpec("hn", k=K, n=5), 5, (7.0, 1.0), 40)
    assert rep["passed"]
