"""The regions inside and outside the basin boundary r = B(t) against the
plain stepping loop.

maps.boundary_regions retires f4/fn/h/hn starts on either side of the
closed-form boundary of the origin's basin (see test_basin_boundary.py,
whose B is written independently of src/).  They may make steps smaller,
never change a kind: every kind is the plain loop's, at every budget.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import znmap.analysis
import znmap.maps
from test_basin_boundary import boundary
from test_classify import (_cone_angles, _former_cone_r_lo, _m_a, _psi,
                           assert_decided_no_later, chart_contains, grid, plain_classify)
from znmap.analysis import classify_batch
from znmap.maps import BoundaryRegion, MapSpec, boundary_regions, radial_u
from znmap.topology import basin_raster

TWO_PI = 2.0 * math.pi
SPECS = [("f4", 4), ("fn", 3), ("fn", 5), ("fn", 12), ("h", 4), ("hn", 5)]
# The largest order n that boundary_regions serves (see its docstring)
CAP = 2 ** 20


def boundary_entries(spec, budget=10_000, eps_in=1e-8, r_escape=1e6):
    return [(region, kind, count)
            for region, kind, count in znmap.maps._retirements(spec, budget, eps_in, r_escape)
            if isinstance(region, BoundaryRegion)]


def crossing_starts(family, n, k):
    """A grid over the basin's edge and, on 24 rays off the diagonal,
    starts at B(t) times 1 -+ 1e-5, 1 -+ 1e-2, 1/2 and 2, in every sector."""
    p = 1.0 / math.sqrt(k - 1.0)
    xs, ys = grid((-1.6 * p, 1.6 * p, -1.6 * p, 1.6 * p), 10)
    xs, ys = list(xs), list(ys)
    for i in range(24):
        t = (i + 0.5) * math.pi / 48.0
        if abs(t - 0.25 * math.pi) < 0.02:
            continue
        b = boundary(family, k, t)
        theta = TWO_PI * (i % n) / n + 4.0 * t / n
        for scale in (0.5, 0.99, 1.0 - 1e-5, 1.0 + 1e-5, 1.01, 2.0):
            xs.append(b * scale * math.cos(theta))
            ys.append(b * scale * math.sin(theta))
    return np.array(xs), np.array(ys)


@pytest.mark.parametrize("family, n, k", [(family, n, k) for family, n in SPECS
                                          for k in (1.02, 1.1, 1.15)]
                         + [(family, n, 1.1) for n in (5000, CAP) for family in ("fn", "hn")])
def test_kinds_match_plain_loop_across_the_boundary(family, n, k):
    # budgets just below, at and above each count N of the new entries,
    # and 10,000: the plain loop at a smaller budget keeps what it decided
    # by then, and classify_batch decides it no later.  The plain loop runs
    # the starts the outer cycle of h/hn catches to the full budget, so
    # h/hn take 10,000 at k = 1.1 alone, and the large orders, whose steps
    # cost more, none.
    spec = MapSpec(family, k=k, n=n)
    entries = boundary_entries(spec)
    assert [kind for _, kind, _ in entries] == [0 if family in ("h", "hn") else 2, 1]
    budgets = sorted({b for _, _, count in entries for b in (count - 1, count, count + 1)
                      if b >= 0})
    if (family in ("f4", "fn") or k == 1.1) and n <= 12:
        budgets.append(10_000)
    xs, ys = crossing_starts(family, n, k)
    ref_kinds, ref_steps = plain_classify(spec, xs, ys, budgets[-1])
    for budget in budgets:
        want = np.where((ref_steps >= 0) & (ref_steps <= budget), ref_kinds, 0)
        assert_decided_no_later(*classify_batch(spec, xs, ys, budget), want, ref_steps)


@settings(max_examples=60, deadline=None)
@given(k=st.floats(1.02, 1.15), spec_i=st.integers(0, len(SPECS) - 1),
       scale=st.floats(0.3, 3.0), t=st.floats(0.0, 0.5 * math.pi), m=st.integers(0, 11))
def test_accepted_points_take_the_regions_kind_within_n_steps(k, spec_i, scale, t, m):
    family, n = SPECS[spec_i]
    spec = MapSpec(family, k=k, n=n)
    theta = TWO_PI * (m % n) / n + 4.0 * t / n
    r = scale / math.sqrt(k - 1.0)
    x, y = np.array([r * math.cos(theta)]), np.array([r * math.sin(theta)])
    hits = [(kind, count) for region, kind, count in boundary_entries(spec)
            if region.contains(x, y, x * x + y * y)[0]]
    assume(hits)
    assert len(hits) == 1  # the two sides do not meet
    kind, count = hits[0]
    if kind:
        ref_kinds, ref_steps = plain_classify(spec, x, y, count)
        assert ref_kinds.tolist() == [kind] and ref_steps[0] <= count
    else:  # h/hn outside: never converges, never escapes
        assert plain_classify(spec, x, y, 400)[0].tolist() == [0]


def test_serial_and_split_runs_agree(monkeypatch):
    for family, n in SPECS:
        spec = MapSpec(family, k=1.1, n=n)
        xs, ys = crossing_starts(family, n, 1.1)
        serial = classify_batch(spec, xs, ys)
        monkeypatch.setattr(znmap.analysis, "_available_cpus", lambda: 3)
        monkeypatch.setattr(znmap.analysis, "_MIN_PART", 50)
        split = classify_batch(spec, xs, ys)
        monkeypatch.undo()
        np.testing.assert_array_equal(serial[0], split[0])
        np.testing.assert_array_equal(serial[1], split[1])


@pytest.fixture
def serial_point_steps(monkeypatch):
    """The points classify_batch steps, on one thread."""
    counted = [0]
    step = znmap.analysis.step_batch

    def count(spec, x, y):
        counted[0] += x.size
        return step(spec, x, y)

    monkeypatch.setattr(znmap.analysis, "step_batch", count)
    monkeypatch.setattr(znmap.analysis, "_available_cpus", lambda: 1)
    return counted


@pytest.mark.parametrize("family, n, res, point_steps",
                         [("f4", 4, 512, 6_080), ("fn", 5, 512, 3_262),
                          ("h", 4, 64, 100), ("hn", 5, 64, 56)])
def test_workload_rasters_retire_at_step_0(family, n, res, point_steps, serial_point_steps):
    # The benchmark's rasters on (-5, 5)^2 at k = 1.1: without the boundary
    # regions they took 314,588 (f4), 279,337 (fn), 4,880 (h) and 4,387 (hn)
    # point-steps.  The bound allows 1% above the measured counts; at least
    # 95% of the f4/fn pixels are decided at step 0.
    spec = MapSpec(family, k=1.1, n=n)
    xs = -5.0 + (np.arange(res) + 0.5) * 10.0 / res
    gx, gy = np.meshgrid(xs, xs[::-1])
    kinds, steps = classify_batch(spec, gx.ravel(), gy.ravel())
    assert serial_point_steps[0] <= 1.01 * point_steps
    if family in ("f4", "fn"):
        assert (steps == 0).mean() >= 0.95
    raster = basin_raster(spec, (-5.0, 5.0, -5.0, 5.0), res, res)
    np.testing.assert_array_equal(raster.kinds.ravel(), kinds)


def test_contains_takes_non_finite_points_silently():
    spec = MapSpec("fn", k=1.1, n=5)
    inside, outside, _ = boundary_regions(spec, 1e-8, 1e6)
    x = np.array([math.nan, 0.0, math.inf, -math.inf, 1e200, 1e160, 1.0, 10.0])
    y = np.array([0.0, math.nan, 1.0, math.inf, 1e200, 0.0, 0.0, 0.0])
    with np.errstate(all="raise"), np.errstate(over="ignore"):
        r2 = x * x + y * y
    with np.errstate(all="raise"):
        assert inside.contains(x, y, r2).tolist() == [False] * 6 + [True, False]
        assert outside.contains(x, y, r2).tolist() == [False] * 7 + [True]


def test_no_boundary_regions():
    assert boundary_regions(MapSpec("g4", k=1.1, beta=0.05), 1e-8, 1e6) is None
    assert boundary_regions(lambda p: p, 1e-8, 1e6) is None
    # above the cap on n, a chart angle's rounding could move B by mu
    for family in ("fn", "hn"):
        assert boundary_regions(MapSpec(family, k=1.1, n=CAP), 1e-8, 1e6) is not None
        assert boundary_regions(MapSpec(family, k=1.1, n=CAP + 1), 1e-8, 1e6) is None
    # eps_in above P: outside orbits could converge; r_escape below the
    # band edge's B: inside orbits could escape
    inside, outside, _ = boundary_regions(MapSpec("f4", k=1.1), 3.5, 1e6)
    assert inside is not None and outside is None
    inside, outside, _ = boundary_regions(MapSpec("f4", k=1.1), 1e-8, 20.0)
    assert inside is None and outside is not None
    # h/hn outside needs u(psi(r_hi)) <= (1 - mu)*r_hi at its ceiling
    # r_hi = r_escape/2: 10 lies inside the outer cycle (r ~ 11.16)
    assert boundary_regions(MapSpec("h", k=1.1), 1e-8, 1e6)[1] is not None
    assert boundary_regions(MapSpec("h", k=1.1), 1e-8, 20.0)[1] is None


def _former_cone_points(r_lo, r_hi, cone, n):
    """Points about the former cones (radius from r_lo to r_hi, or to 1e6
    r_lo, chart angle within cone of 0 or pi/2) and just beyond, in up to
    12 sectors of order n."""
    top = r_hi if math.isfinite(r_hi) else 1e6 * r_lo
    near = np.array([-1e-8, 0.0, 1e-8])
    radii = np.concatenate([r_lo * (top / r_lo) ** np.linspace(-0.02, 1.02, 41),
                            r_lo * (1.0 + near), top * (1.0 + near)])
    chart = np.concatenate([np.linspace(0.0, 1.02 * cone, 35), cone * (1.0 + near)])
    chart = np.concatenate([chart, 0.5 * math.pi - chart])
    sectors = range(n) if n <= 12 else [0, 1, 2, n // 3, n // 2, n - 2, n - 1]
    theta = (TWO_PI / n * np.array(sectors)[:, None] + 4.0 / n * chart).ravel()
    r = np.repeat(radii, theta.size)
    theta = np.tile(theta, radii.size)
    return r * np.cos(theta), r * np.sin(theta)


@pytest.mark.parametrize("n", [3, 4, 5, 12, 5000])
@pytest.mark.parametrize("k", [1.0005, 1.01, 1.02, 1.1, 1.15])
def test_outside_holds_the_former_cones(k, n):
    # Before the basin boundary's regions, f4/fn had escape cones (kind 2)
    # and h/hn a trapping region of the outer cycle (kind 0) about the
    # sector boundary rays: chart angle within a = atan(eps) of 0 or pi/2
    # and r >= r_lo, where psi(r_lo)*m_a = (1 + 1e-6)*r_lo; the trapping
    # region only up to r_hi = r_escape/2 and only where r_lo*(1 + 1e-6)
    # <= r0 and u(psi(r_hi)) <= (1 - 1e-6)*r_hi.  The region outside the
    # basin boundary holds every point of them away from their edges (2
    # mu, mu = 1e-9, as for the chart tests), with an N no larger: the
    # cones' N was that of the bound r -> (1 - mu)*m_a*psi(r) from (1 -
    # mu)*r_lo past r_escape*(1 + mu), 49,712 at k = 1.0005; the trapping
    # region's was 0.  At k = 1.0005 the outside's own bound never passes
    # (its lean of 1e-9 per step outweighs the growth of rho - 1 near P),
    # so it has no entry at any budget there.
    _, a = _cone_angles(k)
    r_lo, mu, budget = _former_cone_r_lo(k), 1e-9, 60_000
    for family in ("f4" if n == 4 else "fn", "h" if n == 4 else "hn"):
        spec = MapSpec(family, k=k, n=n)
        r_hi = math.inf
        if spec.profile is not None:
            r_hi = 5e5
            if not (r_lo * (1.0 + 1e-6) <= spec.profile.r0
                    and radial_u(_psi(r_hi, k), spec.profile) <= (1.0 - 1e-6) * r_hi):
                continue  # no trapping region here
        x, y = _former_cone_points(r_lo, r_hi, a, n)
        want, clearance = chart_contains(SimpleNamespace(r_lo=r_lo, cone=a), x, y, r_hi, n)
        held = want & (clearance > 2.0 * mu)
        assert held.sum() > 1000 and (~want).sum() > 1000
        outside = boundary_regions(spec, 1e-8, 1e6)[1]
        assert outside.contains(x, y, x * x + y * y)[held].all()
        entries = [(kind, count) for _, kind, count in boundary_entries(spec, budget)
                   if kind != 1]  # the outside's
        if spec.profile is not None:
            assert entries == [(0, 0)]
        elif k > 1.0005:
            cones = znmap.maps._crossing_steps(k, r_lo * (1.0 - mu), _m_a(k) * (1.0 - mu), 0.0,
                                               lambda r: r > 1e6 * (1.0 + mu), budget)
            [(kind, count)] = entries
            assert kind == 2 and count <= cones <= budget
        else:
            assert entries == []


def test_bounds_that_never_pass_leave_no_entry():
    # At k = 1.0005 both boundary bounds lean across rho = 1: the outside's
    # toward 0, where rho^2 underflowed and raised ZeroDivisionError from
    # budget 18,451 on, and the inside's toward infinity.  Neither passes,
    # so the disk alone is left, and classify_batch runs.
    spec = MapSpec("f4", k=1.0005)
    assert [(kind, count) for _, kind, count in znmap.maps._retirements(
        spec, 60_000, 1e-8, 1e6)] == [(1, 6233)]
    kinds, steps = classify_batch(spec, [1.0, 1e5], [0.0, 0.0], budget=20_000)
    assert kinds.tolist() == [1, 2]
