"""classify_batch against the plain stepping loop.

classify_batch retires a point as undecided once its state repeats a
floating-point state bit for bit or, for h/hn, once it lies outside the
basin boundary, a trapping region of the outer cycle; it also splits large
batches across threads.  All three may change only the work done, never the
kinds or steps.  It also retires points in the contracting disk, inside the
basin boundary, outside it for f4/fn and in g4's escape cones, at the step
they enter them, which may make their steps smaller but must never change a
kind.  So the tests here compare against ``plain_classify``: the loop that
steps every live point until it converges, escapes or uses the whole
budget.  Under ``undecided_retirements_only`` (conftest.py) the regions
that decide a kind retire nothing, and the steps too must be the plain
loop's.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import znmap
import znmap.analysis
import znmap.maps
from conftest import undecided_retirements_only
from znmap.analysis import classify_batch
from znmap.maps import (K_MAX, TWO_PI, Disk, MapSpec, RadialProfile, contracting_disk,
                        escape_cones, eval_map, step_batch)
from znmap.topology import basin_raster

K = 1.1
FAMILIES = {
    "f4": MapSpec("f4", k=K),
    "g4": MapSpec("g4", k=K, beta=0.05),
    "fn": MapSpec("fn", k=K, n=5),
    "h": MapSpec("h", k=K),
    "hn": MapSpec("hn", k=K, n=5),
}
# Covers the origin basin, the period-n orbit through P (r ~ 3.16) and the
# outer attracting period-n cycle of h/hn (r ~ 11.16).
WINDOW = (-14.0, 14.0, -14.0, 14.0)


def plain_classify(spec, xs, ys, budget, eps_in=1e-8, r_escape=1e6):
    """Reference: step every live point until it converges or escapes."""
    x = np.asarray(xs, dtype=float).copy()
    y = np.asarray(ys, dtype=float).copy()
    kinds = np.zeros(x.size, dtype=np.uint8)
    steps = np.full(x.size, -1, dtype=np.int64)
    idx = np.arange(x.size)
    eps2 = eps_in * eps_in
    esc2 = r_escape * r_escape
    for t in range(budget + 1):
        with np.errstate(over="ignore"):
            r2 = x * x + y * y
            # x*x + y*y overflows above |p| ~ 1.34e154: use the radius there.
            over = np.isinf(r2) & np.isfinite(x) & np.isfinite(y)
            conv = r2 < eps2
            esc = np.where(over, np.hypot(x, y) > r_escape, (r2 > esc2) | ~np.isfinite(r2))
        done = conv | esc
        if done.any():
            kinds[idx[conv]] = 1
            kinds[idx[esc]] = 2
            steps[idx[done]] = t
            keep = ~done
            x, y, idx = x[keep], y[keep], idx[keep]
        if idx.size == 0 or t == budget:
            break
        x, y = step_batch(spec, x, y)
    return kinds, steps


def grid(window, res):
    xmin, xmax, ymin, ymax = window
    xs = xmin + (np.arange(res) + 0.5) * (xmax - xmin) / res
    ys = ymax - (np.arange(res) + 0.5) * (ymax - ymin) / res
    gx, gy = np.meshgrid(xs, ys)
    return gx.ravel(), gy.ravel()


def assert_decided_no_later(kinds, steps, ref_kinds, ref_steps):
    """The contract of classify_batch against the plain loop's (ref_kinds,
    ref_steps): the same kinds bitwise, steps -1 exactly where the kind is
    0, and elsewhere a step from 0 to the plain loop's."""
    np.testing.assert_array_equal(kinds, ref_kinds)
    np.testing.assert_array_equal(steps == -1, kinds == 0)
    decided = kinds != 0
    assert (steps[decided] >= 0).all() and (steps[decided] <= ref_steps[decided]).all()


def assert_matches(ref, spec, xs, ys, *args):
    """classify_batch(spec, xs, ys, *args) keeps its contract against ref,
    the plain loop's (kinds, steps), and under undecided_retirements_only
    gives ref bitwise."""
    assert_decided_no_later(*classify_batch(spec, xs, ys, *args), *ref)
    with undecided_retirements_only():
        kinds, steps = classify_batch(spec, xs, ys, *args)
    np.testing.assert_array_equal(kinds, ref[0])
    np.testing.assert_array_equal(steps, ref[1])
    return kinds


def assert_same(spec, xs, ys, budget, eps_in=1e-8, r_escape=1e6):
    """assert_matches against plain_classify."""
    return assert_matches(plain_classify(spec, xs, ys, budget, eps_in, r_escape),
                          spec, xs, ys, budget, eps_in, r_escape)


def edge_starts(eps_in, r_escape):
    xs = [0.0, eps_in, -eps_in, 0.5, math.nan, math.inf, -math.inf, 1e300,
          r_escape, 1e5, 1e160, 11.16, 3.1622776601683795]
    ys = [0.0, 0.0, 0.0, -0.0, 1.0, 0.0, 1.0, 1e300, 0.0, 0.0, 0.0, 0.1, 0.0]
    return xs, ys


@pytest.fixture
def step_calls(monkeypatch):
    """Count the step_batch calls classify_batch makes, and the points they
    step, as [calls, point_steps].  The count is not thread-safe: use it
    only on batches that classify_batch keeps serial."""
    calls = [0, 0]
    step = znmap.analysis.step_batch

    def counted(spec, x, y):
        calls[0] += 1
        calls[1] += x.size
        return step(spec, x, y)

    monkeypatch.setattr(znmap.analysis, "step_batch", counted)
    return calls


@pytest.mark.parametrize("r_escape", [1e3, 1e6])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_matches_plain_loop_across_budgets(family, r_escape):
    # The h/hn orbits caught by the outer cycle lie outside the basin
    # boundary, a trapping region of the cycle, within a few steps, and
    # would repeat a state from step 134 to 217 on, so these budgets fall
    # before, between and after the retirements; 74 is the retirement count
    # of the disk, 60 and 159 those of g4 (158 and 160 straddle its cones'
    # count), 235 that of g4's cones with alpha = beta = 0 and 530 with
    # beta = -0.05 (test_boundary_region.py straddles the counts of the
    # boundary's two sides).
    xs, ys = grid(WINDOW, 24)
    for budget in (0, 1, 60, 74, 133, 158, 159, 160, 235, 260, 261, 530, 600):
        kinds = assert_same(FAMILIES[family], xs, ys, budget, r_escape=r_escape)
    if family in ("h", "hn"):
        assert (kinds == 0).sum() > 400  # the outer cycle is in the window


@pytest.mark.parametrize("eps_in, r_escape", [
    (1e-8, 1e3), (1e-8, 1e200), (1e-8, math.inf),
    (-1e7, 1e3),  # eps_in^2 > r_escape^2: escaping wins where both hold
    (3.5, 1e6),  # eps_in beyond the contracting disk, P and g4's r_lo
])
def test_matches_plain_loop_on_edge_starts(eps_in, r_escape):
    xs, ys = edge_starts(eps_in, r_escape)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is the point
        for spec in FAMILIES.values():
            assert_same(spec, xs, ys, 300, eps_in=eps_in, r_escape=r_escape)


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)),
       cx=st.floats(-15.0, 15.0), cy=st.floats(-15.0, 15.0),
       half=st.floats(0.01, 15.0), res=st.integers(1, 8),
       budget=st.integers(0, 400), r_escape=st.sampled_from([1e3, 1e6]))
def test_matches_plain_loop_on_random_windows(family, cx, cy, half, res, budget, r_escape):
    xs, ys = grid((cx - half, cx + half, cy - half, cy + half), res)
    assert_same(FAMILIES[family], xs, ys, budget, r_escape=r_escape)


def _flip_y_and_count_negative_zeros(p):
    # (x, +0.0) and (x, -0.0) compare equal but have different futures.
    return p[0] + (math.copysign(1.0, p[1]) < 0), -p[1]


@pytest.mark.parametrize("step", [
    lambda p: (p[0], p[1] + 1.0),  # x repeats every step, y never does
    lambda p: (p[0] + 1.0, p[1]),
    _flip_y_and_count_negative_zeros,
])
def test_only_bitwise_repeats_retire(step):
    xs, ys = [1.0, 2.0, 0.5], [0.0, -0.0, 0.0]
    kinds = assert_same(step, xs, ys, 2_000, r_escape=1e3)
    assert kinds.tolist() == [2, 2, 2]


def test_hn_partition_invariance():
    spec = FAMILIES["hn"]
    full = basin_raster(spec, WINDOW, 32, 32, budget=10_000)
    top = basin_raster(spec, (-14.0, 14.0, 0.0, 14.0), 32, 16, budget=10_000)
    bottom = basin_raster(spec, (-14.0, 14.0, -14.0, 0.0), 32, 16, budget=10_000)
    np.testing.assert_array_equal(np.vstack([top.kinds, bottom.kinds]), full.kinds)
    assert full.counts()["undecided"] > 0


def test_outer_cycle_retires_early(step_calls):
    # Without retirement every undecided pixel runs all 10,000 steps.
    # Retiring repeats alone takes 142,064 point-steps here; the region
    # outside the basin boundary retires nearly all of them at step 0.
    raster = basin_raster(FAMILIES["hn"], WINDOW, 32, 32, budget=10_000)
    assert raster.counts()["undecided"] > 800
    assert step_calls[0] < 400
    assert step_calls[1] < 10_000


@pytest.mark.parametrize("family, n, point_steps", [("h", 4, 138_348), ("hn", 5, 140_484)],
                         ids=["h", "hn"])
def test_repeats_retire_where_there_is_no_trapping_region(family, n, point_steps, step_calls):
    # With r_escape = 20 the ceiling r_escape/2 = 10 of the region outside
    # the basin boundary lies inside the outer cycle (r ~ 11.16), so there
    # is no such region, and only the repeat test retires the pixels caught
    # by the outer cycle: 864 (h) and 872 (hn) end undecided.  Without it
    # each of them runs all 10,000 steps, more than 8.6 million point-steps.
    # The bound allows 1% above the measured counts.
    spec = MapSpec(family, n=n)
    assert outer_cycle_region(spec, 1e-8, 20.0) is None
    raster = basin_raster(spec, WINDOW, 32, 32, r_escape=20.0)
    assert raster.counts()["undecided"] > 800
    assert step_calls[1] <= 1.01 * point_steps


# k near both ends of its range, four profiles (r0, r_half) in units of the
# radius P of the inner orbit, and r_escape from 30 P up, cycled so that
# each appears with every family.  Each has a region outside the basin
# boundary, even r0 = 1.02 P, where u bends the radius just above P.
PROFILES = [(2.0, 2.0), (1.02, 1.0), (1.5, 0.3), (4.0, 10.0)]
SWEEP = [(k, family, n, PROFILES[i % 4], (30.0, 1e3, None)[i % 3])
         for i, (k, (family, n)) in enumerate(
             (k, fn) for k in (1.0005, 1.01, 1.1, 1.15)
             for fn in (("h", 4), ("hn", 2), ("hn", 3), ("hn", 5), ("hn", 8)))]


@pytest.mark.parametrize("k, family, n, profile, escape", SWEEP)
def test_matches_plain_loop_across_trapping_regions(k, family, n, profile, escape):
    p = 1.0 / math.sqrt(k - 1.0)
    spec = MapSpec(family, k=k, n=n, profile=RadialProfile(profile[0] * p, profile[1] * p))
    r_escape = 1e6 if escape is None else escape * p
    assert outer_cycle_region(spec, 1e-8, r_escape) is not None
    # A grid over the inner orbit and the outer cycle, and rays from inside
    # P out past r_escape: on a boundary ray, at both sides of the cone edge
    # by either ray, and on the sector bisector (chart angles).
    xs, ys = grid((-4.0 * p, 4.0 * p, -4.0 * p, 4.0 * p), 7)
    radii = p * np.array([0.5, 0.999, 1.001, 1.3, 1.45, 2.0, 3.5, 10.0, 30.0, 1e3, 1e5])
    cone = math.atan(min(0.1, math.sqrt((k - 1.0) / (3.0 * k))))
    for theta4 in (0.0, 0.9 * cone, 1.1 * cone, 0.25 * math.pi, 0.5 * math.pi - 0.9 * cone):
        xs = np.append(xs, radii * math.cos(4.0 * theta4 / n))
        ys = np.append(ys, radii * math.sin(4.0 * theta4 / n))
    assert_same(spec, xs, ys, 700, r_escape=r_escape)


def inside(region, x, y):
    """region.contains with the r2 that classify_batch passes it."""
    return region.contains(x, y, x * x + y * y)


def inside_point(region, q):
    """inside for the one point q, passed as 1-element arrays."""
    return bool(inside(region, np.array([q[0]]), np.array([q[1]]))[0])


def outer_cycle_region(spec, eps_in, r_escape):
    """The region that retires starts as undecided (kind 0), or None: for
    h/hn the region outside the basin boundary, a trapping region of the
    outer period-n cycle that never converges and never escapes."""
    entries = znmap.maps._retirements(spec, 0, eps_in, r_escape)  # N = 0 fits any budget
    return next((region for region, kind, _ in entries if kind == 0), None)


def _cone_start(r_lo, r_hi, cone, n, s, c, mirror, m):
    # log-uniform radius in [r_lo, r_hi], chart angle within the cone
    r = r_lo * (r_hi / r_lo) ** s
    theta4 = 0.5 * math.pi - c * cone if mirror else c * cone
    theta = TWO_PI * (m % n) / n + 4.0 * theta4 / n
    return r * math.cos(theta), r * math.sin(theta)


@settings(max_examples=40, deadline=None)
@given(k=st.floats(1.0, K_MAX, exclude_min=True, exclude_max=True),
       r0=st.floats(1.0, 4.0, exclude_min=True), r_half=st.floats(0.05, 20.0),
       n=st.integers(2, 8), saturate_base=st.booleans(),
       starts=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                                 st.booleans(), st.integers(0, 7)), min_size=1, max_size=8))
def test_trapping_region_is_forward_invariant(k, r0, r_half, n, saturate_base, starts):
    # The region outside the basin boundary of h/hn, from P up to its
    # ceiling r_escape/2 = 5e5, at any chart angle: one step maps every
    # point it holds into it again, so its orbits never converge and never
    # escape.
    p = 1.0 / math.sqrt(k - 1.0)
    family = "h" if saturate_base and n == 4 else "hn"
    spec = MapSpec(family, k=k, n=n, profile=RadialProfile(r0 * p, r_half * p))
    trap = outer_cycle_region(spec, 1e-8, 1e6)
    assume(trap is not None)
    pts = [_cone_start(p, 5e5, 0.25 * math.pi, n, *start) for start in starts]
    pts = [q for q in pts if inside_point(trap, q)]
    assume(pts)
    x, y = np.array(pts).T
    for _ in range(50):
        pts = [eval_map(spec, q) for q in pts]
        x, y = step_batch(spec, x, y)
        assert all(inside_point(trap, q) for q in pts)
        assert inside(trap, x, y).all()


@pytest.mark.parametrize("spec, eps_in, r_escape", [
    (FAMILIES["f4"], 1e-8, 1e6), (FAMILIES["g4"], 1e-8, 1e6), (FAMILIES["fn"], 1e-8, 1e6),
    (lambda p: p, 1e-8, 1e6),
    (MapSpec("hn", k=K, n=2 ** 20 + 1), 1e-8, 1e6),  # n above boundary_regions' cap
    # u is near the identity up to r_escape/2: u(psi(5e5)) > 5e5
    (MapSpec("hn", n=5, profile=RadialProfile(3.3, 1e7)), 1e-8, 1e6),
    (FAMILIES["hn"], 3.5, 1e6),  # eps_in above P
    (FAMILIES["hn"], -3.5, 1e6),  # so is |eps_in|
    (FAMILIES["h"], 1e-8, 20.0),  # r_escape/2 = 10 lies inside the outer cycle
])
def test_no_trapping_region(spec, eps_in, r_escape):
    assert outer_cycle_region(spec, eps_in, r_escape) is None


# Every region: one (k, family, n) per case, with r_escape cycled so that
# each appears with every family.  The budgets fall on both sides of the
# retirement counts at k = 1.1 (74 for the disk; 60 and 159 for g4 with
# beta = 0.05, 235 for its cones with alpha = beta = 0 and 530 with beta =
# -0.05; test_boundary_region.py straddles those of the boundary's two
# sides).  The plain loop runs lingering starts to the full budget of
# 10,000: starts near r_lo below k = 1.1, where the counts run into the
# thousands, and starts caught by the outer cycle of h/hn.  To keep that
# affordable, f4 runs it at every k, fn, h and g4 from k = 1.1 on, and hn
# never.
KINDS_BUDGETS = (0, 1, 60, 74, 158, 159, 160, 200, 235, 530, 600, 10_000)
KINDS_SWEEP = [(k, family, n, (1e3, 1e6, 1e200)[i % 3])
               for i, (k, (family, n)) in enumerate(
                   (k, fn) for k in (1.0005, 1.01, 1.1, 1.15)
                   for fn in (("f4", 4), ("fn", 3), ("fn", 5), ("fn", 8), ("h", 4),
                              ("hn", 5), ("g4", 4)))]
# g4's cones with its linear term (alpha, beta) pointing straight inward
# (at k = 1.1 r_lo = 5.58, as with no regard to its direction), at a slant
# outward (c_par = 0.037, r_lo = 2.83) and at a slant inward (c_par =
# -0.034, r_lo = 4.55); KINDS_SWEEP has g4 with beta = 0.05, straight
# outward (r_lo = 2.668).
G4_SWEEP = [(k, alpha, beta, (1e3, 1e6, 1e200)[i % 3])
            for i, (k, (alpha, beta)) in enumerate(
                (k, ab) for k in (1.0005, 1.01, 1.1, 1.15)
                for ab in ((0.0, -0.05), (0.03, 0.04), (-0.04, -0.03)))]


def _former_cone_r_lo(k):
    """r_lo of the cones about the sector boundary rays that f4/fn (escape
    cones) and h/hn (trapping region) had before the basin boundary's
    regions: the r solving psi(r)*m_a = (1 + 1e-6)*r, or None."""
    d, m_a = 1e-6, _m_a(k)
    return math.sqrt((1.0 + d) / (k * m_a - 1.0 - d)) if k * m_a > 1.0 + d else None


def _region_starts(spec, r_escape):
    """Starts on both sides of the spec's disk edge, of an r_lo (of g4's
    escape cones, else of the former cones of f4/fn/h/hn) and of the cone
    edges (chart angles), in every sector, plus a few far out and past
    r_escape.  The starts 1e-12 from P on a boundary ray linger near the
    period-n orbit of f4/fn/h/hn for about 80 steps and enter the disk
    late."""
    k, n = spec.k, spec.n
    disk = contracting_disk(spec)
    _, a = _cone_angles(k)
    p = 1.0 / math.sqrt(k - 1.0)
    radii = [p * (1.0 - 1e-12), p * (1.0 + 1e-12), 0.5 * disk.radius,
             disk.radius * (1.0 - 1e-12), disk.radius * (1.0 + 1e-12), 1.01 * disk.radius,
             0.5 * r_escape, 1.01 * r_escape]
    if spec.family == "g4":
        cones = escape_cones(spec)
        r_lo = None if cones is None else cones.r_lo  # none below k = 1.0076 at beta = 0.05
        assert cones is None or cones.cone == a
    else:
        assert escape_cones(spec) is None
        r_lo = _former_cone_r_lo(k)
    if r_lo is not None:
        radii += [0.99 * r_lo, r_lo * (1.0 - 1e-12), r_lo * (1.0 + 1e-12),
                  1.01 * r_lo, 2.0 * r_lo, 10.0 * r_lo]
    chart = [0.0, 0.5 * a, a * (1.0 - 1e-9), a * (1.0 + 1e-9), 2.0 * a, 0.25 * math.pi,
             0.5 * math.pi - a * (1.0 + 1e-9), 0.5 * math.pi - a * (1.0 - 1e-9)]
    xs, ys = [], []
    for i, r in enumerate(radii):
        for j, theta4 in enumerate(chart):
            theta = TWO_PI * ((i + j) % n) / n + 4.0 * theta4 / n
            xs.append(r * math.cos(theta))
            ys.append(r * math.sin(theta))
    return np.array(xs), np.array(ys)


@pytest.mark.parametrize("k, family, n, r_escape", KINDS_SWEEP)
def test_kinds_match_plain_loop_across_regions(k, family, n, r_escape):
    spec = MapSpec(family, k=k, n=n, beta=0.05 if family == "g4" else 0.0)
    _assert_kinds_across_budgets(spec, r_escape,
                                 full=family == "f4" or (k >= 1.1 and family != "hn"))


@pytest.mark.parametrize("k, alpha, beta, r_escape", G4_SWEEP)
def test_g4_kinds_match_plain_loop_across_regions(k, alpha, beta, r_escape):
    _assert_kinds_across_budgets(MapSpec("g4", k=k, alpha=alpha, beta=beta), r_escape,
                                 full=k >= 1.1)


def _assert_kinds_across_budgets(spec, r_escape, full):
    """classify_batch at every budget of KINDS_BUDGETS (the last one, 10,000,
    only if full) gives the kinds the plain loop has decided by then, each
    at a step no later than the plain loop's, on the starts of
    _region_starts."""
    xs, ys = _region_starts(spec, r_escape)
    budgets = KINDS_BUDGETS if full else KINDS_BUDGETS[:-1]
    with np.errstate(over="ignore", invalid="ignore"):  # f4 overflows past 5.6e102
        ref_kinds, ref_steps = plain_classify(spec, xs, ys, budgets[-1], r_escape=r_escape)
        for budget in budgets:
            # the plain loop at a smaller budget keeps what it decided by then
            want = np.where((ref_steps >= 0) & (ref_steps <= budget), ref_kinds, 0)
            assert_decided_no_later(*classify_batch(spec, xs, ys, budget, r_escape=r_escape),
                                    want, ref_steps)


def test_retirement_counts_at_the_default_k():
    # the counts the budgets of the sweep above straddle
    def counts(spec, budget, r_escape=1e6):
        entries = znmap.maps._retirements(spec, budget, 1e-8, r_escape)
        return [(kind, count) for _, kind, count in entries]

    # f4/fn: the disk, then outside and inside the basin boundary
    assert counts(FAMILIES["fn"], 10_000) == [(1, 74), (2, 215), (1, 87)]
    assert counts(FAMILIES["f4"], 215) == [(1, 74), (2, 215), (1, 87)]
    assert counts(FAMILIES["fn"], 214) == [(1, 74), (1, 87)]
    assert counts(FAMILIES["fn"], 86) == [(1, 74)]
    # r_escape is never passed
    assert counts(FAMILIES["fn"], 10_000, math.inf) == [(1, 74), (1, 87)]
    # outside the boundary h/hn stay undecided
    assert counts(FAMILIES["hn"], 10_000) == [(1, 74), (0, 0), (1, 87)]
    assert counts(FAMILIES["h"], 10_000) == [(1, 74), (0, 0), (1, 87)]
    # g4 with beta = 0.05: r_lo = 2.668 and disk radius 2.517
    assert counts(FAMILIES["g4"], 10_000) == [(2, 159), (1, 60)]
    assert counts(FAMILIES["g4"], 158) == [(1, 60)]
    assert counts(FAMILIES["g4"], 10_000, math.inf) == [(1, 60)]
    # beta = -0.05 turns the term straight inward: r_lo = 5.58
    assert counts(MapSpec("g4", k=K, beta=-0.05), 10_000) == [(2, 530), (1, 60)]
    assert counts(MapSpec("g4", k=K, beta=-0.05), 529) == [(1, 60)]
    assert counts(MapSpec("g4", k=K), 10_000) == [(2, 235), (1, 74)]  # alpha = beta = 0


def test_bound_shifts_lean_to_the_slow_side(monkeypatch):
    # The cones' bound grows the radius by at least c_par*r per step and
    # the disk's by at most c*r: _retirements moves each shift by the
    # relative margin 1e-9 toward the side that takes more steps.
    shifts = []
    crossing = znmap.maps._crossing_steps

    def spy(k, rho, gain, shift, passed, budget):
        shifts.append(shift)
        return crossing(k, rho, gain, shift, passed, budget)

    monkeypatch.setattr(znmap.maps, "_crossing_steps", spy)
    for beta in (0.05, -0.05):
        spec = MapSpec("g4", k=K, beta=beta)
        shifts.clear()
        znmap.maps._retirements(spec, 10_000, 1e-8, 1e6)
        c_par = escape_cones(spec).shift
        cones, disk = shifts
        assert cones < c_par and cones == pytest.approx(c_par, rel=2e-9)
        assert disk > abs(beta) and disk == pytest.approx(abs(beta), rel=2e-9)


def _region_specs(k, n, r0, r_half, alpha, beta):
    p = 1.0 / math.sqrt(k - 1.0)
    prof = RadialProfile(r0 * p, r_half * p)
    return [MapSpec("f4", k=k), MapSpec("fn", k=k, n=n), MapSpec("h", k=k, profile=prof),
            MapSpec("hn", k=k, n=n, profile=prof), MapSpec("g4", k=k, alpha=alpha, beta=beta)]


def _psi(r, k):
    return k * r ** 3 / (1.0 + r * r)


def _cone_angles(k):
    """eps and the cone half-angle a = atan(eps) of the escape cones."""
    eps = min(0.1, math.sqrt((k - 1.0) / (3.0 * k)))
    return eps, math.atan(eps)


def _m_a(k):
    eps, _ = _cone_angles(k)
    return math.sqrt((1.0 + eps ** 6) / (1.0 + eps * eps) ** 3)


def _angle_limit(k):
    # the c below which g4's image direction can stay in the cones:
    # c < k*m_a*sin((1-1e-6)*a - atan(eps^3))
    eps, a = _cone_angles(k)
    return k * _m_a(k) * math.sin((1.0 - 1e-6) * a - math.atan(eps ** 3))


def _c_par(k, alpha, beta):
    """The least share c*cos(angle) of g4's term c*Rot(phi) p along f4(p)
    on the cones: at true angle theta within a of the x-axis, f4(p) has
    angle pi/2 + atan(tan^3 theta) and the term theta + phi, so the angle
    between them is phi - pi/2 + (theta - atan(tan^3 theta)), and the last
    part increases with theta from -w to w, w = a - atan(eps^3)."""
    eps, a = _cone_angles(k)
    off = abs(math.remainder(math.atan2(beta, alpha) - 0.5 * math.pi, TWO_PI))
    return math.hypot(alpha, beta) * math.cos(min(math.pi, off + a - math.atan(eps ** 3)))


@settings(max_examples=60, deadline=None)
@given(k=st.floats(1.0, K_MAX, exclude_min=True, exclude_max=True),
       r0=st.floats(1.0, 4.0, exclude_min=True), r_half=st.floats(0.05, 20.0),
       n=st.integers(2, 8), c_share=st.floats(0.0, 1.2), wide=st.booleans(),
       phase=st.floats(0.0, 1.0),
       starts=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                                 st.booleans(), st.integers(0, 7)), min_size=1, max_size=8))
# c = 0.11 at k = 1.15: g4's r_lo is set by the angle bound, not the radius bound
@example(k=1.15, r0=2.0, r_half=2.0, n=5, c_share=0.11 / (1.15 * _m_a(1.15) - 1.0),
         wide=False, phase=0.3,
         starts=[(0.0, 0.0, False, 0), (0.5, 1.0, True, 3), (1.0, 0.7, False, 1)])
# beta = 0.05 at k = 1.1: the term points straight outward (r_lo = 2.668)
@example(k=K, r0=2.0, r_half=2.0, n=5, c_share=0.05 / _angle_limit(K), wide=True,
         phase=0.25, starts=[(0.0, 0.0, False, 0), (0.5, 1.0, True, 3), (1.0, 1.0, False, 1)])
# a disk start at r = 2.6e-108, whose image radius psi(r) is subnormal
@example(k=1.046875, r0=2.0, r_half=1.0, n=6, c_share=0.0, wide=False, phase=0.0,
         starts=[(3.1087575336384035e-217, 0.0, False, 0)])
def test_cones_and_disk_are_forward_invariant(k, r0, r_half, n, c_share, wide, phase, starts):
    # The bounds classify_batch counts with hold at every step: the radius at
    # least m_a * psi(r) + c_par * r, and at least (1 + 1e-6) r, on g4's
    # cones, at most psi(r) + c * r on the disk, where c = hypot(alpha, beta)
    # for g4 (delta = 0) and 0 for the others, and c_par (_c_par) is the
    # part of g4's term that surely points along f4(p).  g4's c is drawn as
    # a share of k*m_a - 1, which it must stay below for cones at every
    # phase, or (wide) of the angle limit, below which it has cones where
    # the term points outward.  Below r ~ 1e-103 psi(r) is subnormal, and
    # the map and _psi may round it a few units of the least subnormal apart.
    tiny = 8.0 * math.ulp(0.0)
    c_g4 = c_share * max(_angle_limit(k) if wide else k * _m_a(k) - 1.0, 0.0)
    alpha, beta = c_g4 * math.cos(TWO_PI * phase), c_g4 * math.sin(TWO_PI * phase)
    for spec in _region_specs(k, n, r0, r_half, alpha, beta):
        c = math.hypot(alpha, beta) if spec.family == "g4" else 0.0
        c_par = _c_par(k, alpha, beta) if spec.family == "g4" else 0.0
        disk = contracting_disk(spec)
        pts = [(disk.radius * math.sqrt(s) * math.cos(TWO_PI * w),
                disk.radius * math.sqrt(s) * math.sin(TWO_PI * w)) for s, w, _, _ in starts]
        regions = [(disk, pts,
                    lambda r, r1: r1 <= (_psi(r, k) + c * r) * (1.0 + 1e-12) + tiny)]
        cones = escape_cones(spec)
        if cones is not None:
            assert cones.shift == pytest.approx(c_par, rel=1e-12, abs=1e-300)
            # log-uniform radius in [r_lo, 1e30 r_lo], far below where f4 overflows
            regions.append((cones, [_cone_start(cones.r_lo, 1e30 * cones.r_lo, cones.cone, 4,
                                                *start) for start in starts],
                            lambda r, r1: r1 >= max(cones.m_a * _psi(r, k) + c_par * r,
                                                    (1.0 + 1e-6) * r) * (1.0 - 1e-12)))
        for region, pts, bound in regions:
            pts = [q for q in pts if inside_point(region, q)]  # edge starts lie outside
            if not pts:
                continue
            x, y = np.array(pts).T
            for _ in range(5):
                img = [eval_map(spec, q) for q in pts]
                fx, fy = step_batch(spec, x, y)
                assert all(inside_point(region, q) for q in img)
                assert inside(region, fx, fy).all()
                assert all(bound(math.hypot(*q), math.hypot(*q1)) for q, q1 in zip(pts, img))
                pts, x, y = img, fx, fy


@pytest.mark.parametrize("spec", [
    MapSpec("g4", k=K, beta=0.05, delta=0.01),  # delta*r^3 outgrows both bounds
    MapSpec("g4", k=K, delta=-1e-12),
    lambda p: p,
    MapSpec("g4", k=K, alpha=0.6, beta=0.8),  # c = 1: the linear term alone does not shrink
])
def test_no_cones_or_disk(spec):
    assert escape_cones(spec) is None
    assert contracting_disk(spec) is None


@pytest.mark.parametrize("k, c, radius", [
    (K, 0.2, 1.632989419587642),  # c above the angle limit 0.1068
    (1.15, 0.112, 1.8410041347211077),  # the angle bound needs g(r)*m_a > k*m_a
    (1.0005, 0.05, 4.337221331844653),  # g4's cones start at k = 1.0076
])
def test_a_disk_but_no_cones(k, c, radius):
    spec = MapSpec("g4", k=k, alpha=0.6 * c, beta=0.8 * c)
    assert escape_cones(spec) is None
    assert contracting_disk(spec).radius == pytest.approx(radius, rel=1e-12)
    d = 1e-6
    assert radius == pytest.approx(math.sqrt((1.0 - d - c) / (k - 1.0 + d + c)), rel=1e-12)


def test_g4_cones_near_the_angle_limit():
    # At k = 1.15 the radius bound alone gives r_lo = 1.92 for beta = 0.11
    # (6.95 if the term pointed straight inward); the image direction turns
    # by up to asin(c/(g(r)*m_a)), which needs g(r)*m_a >= c/sin((1-1e-6)*a
    # - atan(eps^3)), so r_lo = 8.27 instead.
    cones = escape_cones(MapSpec("g4", k=1.15, beta=0.11))
    assert cones.r_lo == pytest.approx(8.27453175952928, rel=1e-9)
    g = 1.15 * cones.r_lo ** 2 / (1.0 + cones.r_lo ** 2)
    eps = 0.1
    turn = math.atan(eps ** 3) + math.asin(0.11 / (g * cones.m_a))
    assert turn == pytest.approx((1.0 - 1e-6) * cones.cone, rel=1e-12)
    assert g * cones.m_a > 1.0 + 1e-6 + 0.11


@pytest.mark.parametrize("beta, r_lo, c_par", [
    (0.05, 2.668343214111544, 0.04975680981805182),  # straight outward
    (-0.05, 5.581589837368759, -0.05),  # straight inward: as with no regard to phi
    (0.09, 2.3177163503761222, 0.08956225767249326),  # set by the angle bound
])
def test_g4_cone_edge_in_closed_form(beta, r_lo, c_par):
    # At k = 1.1, a = atan(0.1): beta*J p points along f4(p) up to
    # w = a - atan(1e-3) for beta > 0, straight against it for beta < 0, so
    # c_par = beta*cos(w) or beta, and r_lo solves g(r)*m_a = 1 + 1e-6 -
    # c_par, unless the angle bound asks for more.
    eps, a = _cone_angles(K)
    cones = escape_cones(MapSpec("g4", k=K, beta=beta))
    assert cones.shift == pytest.approx(c_par, rel=1e-12)
    assert cones.shift == (beta * math.cos(a - math.atan(eps ** 3)) if beta > 0 else beta)
    assert cones.r_lo == pytest.approx(r_lo, rel=1e-12)
    x = 1.0 + 1e-6 - c_par
    by_radius = math.sqrt(x / (K * _m_a(K) - x))
    turn = abs(beta) / math.sin((1.0 - 1e-6) * a - math.atan(eps ** 3))
    by_angle = math.sqrt(turn / (K * _m_a(K) - turn))
    assert r_lo == pytest.approx(max(by_radius, by_angle), rel=1e-12)
    # r_lo lies outside the continued period-4 orbit through the axes, of
    # radius sqrt((1-beta)/(k-1+beta)) (2.517 at beta = 0.05), which the
    # cones must not hold as it never escapes, and outside the disk
    assert r_lo > math.sqrt((1.0 - beta) / (K - 1.0 + beta))
    assert r_lo > contracting_disk(MapSpec("g4", k=K, beta=beta)).radius


def test_g4_cones_depend_on_the_direction_of_the_term():
    # c = 0.09 lies above k*m_a - 1 - 1e-6 = 0.0837, the most the radius
    # bound allows a term pointing straight inward, and below the angle
    # limit 0.1068: cones for beta = 0.09, none for beta = -0.09
    assert escape_cones(MapSpec("g4", k=K, beta=0.09)) is not None
    assert escape_cones(MapSpec("g4", k=K, beta=-0.09)) is None
    assert K * _m_a(K) - 1.0 - 1e-6 < 0.09 < _angle_limit(K)
    # c = 0 and straight inward keep the bounds that ignore the direction
    plain = escape_cones(MapSpec("g4", k=K))
    assert (plain.r_lo, plain.shift) == (3.456436920080992, 0.0)
    assert plain.r_lo == _former_cone_r_lo(K)
    for alpha, beta in [(0.0, -0.05), (-0.0, -0.05), (0.0, -0.02)]:
        cones = escape_cones(MapSpec("g4", k=K, alpha=alpha, beta=beta))
        assert cones.shift == beta


def _cone_regions():
    # g4's cones: the term pointing straight outward, no term (c = 0),
    # straight inward, and near the angle limit
    return [escape_cones(FAMILIES["g4"]), escape_cones(MapSpec("g4", k=1.0005)),
            escape_cones(MapSpec("g4", k=K, beta=-0.05)),
            escape_cones(MapSpec("g4", k=1.15, beta=0.11))]


def chart_contains(region, x, y, r_hi=math.inf, n=4):
    """The chart test of g4's escape cones, the oracle of their chart-free
    test, and of the former cones of f4/fn/h/hn (up to r_hi, in the sector
    chart of order n): r_lo <= hypot(x, y) <= r_hi with chart angle theta4
    (see maps._namespace) within cone of 0 or pi/2.  Also returns each
    point's clearance: its least relative distance to an edge, |r/r_lo - 1|,
    |r/r_hi - 1| and |theta4 - edge|/cone over both cone edges (NaN where a
    coordinate is not finite)."""
    xp = znmap.maps._NUMPY
    r, theta4 = xp.hypot(x, y), xp.split(xp.angle(y, x), n)[1]
    a = region.cone
    near_axis = (theta4 <= a) | (theta4 >= 0.5 * math.pi - a)
    with np.errstate(invalid="ignore"):  # inf/inf where r_hi = inf
        clearance = np.minimum.reduce([abs(r / region.r_lo - 1.0), abs(r / r_hi - 1.0),
                                       abs(theta4 - a) / a, abs(0.5 * math.pi - a - theta4) / a])
    return (r >= region.r_lo) & (r <= r_hi) & near_axis, clearance


# Relative offsets from the edges of a region: those of the chart test's
# former prefilter, far inside the margin mu = 1e-9, and those around it.
ULP_OFFSETS = (1e-15, 2e-13, 5e-13, 1e-12)
MARGIN_OFFSETS = ULP_OFFSETS + (1e-10, 5e-10, 1e-9, 1.5e-9, 2.5e-9, 1e-8, 1e-3)


def _edge_points(region, offsets):
    """Points at both sides of every edge of region, in every quarter, at
    the relative offsets from r_lo and from both cone edges; also the
    origin, 1e200, inf and NaN radii, and non-finite and overflowing
    coordinates."""
    r_lo, a = region.r_lo, region.cone
    near = [s * e for s in (-1.0, 1.0) for e in offsets]
    radii = [0.0, 0.5 * r_lo, math.nextafter(r_lo, 0.0), math.nextafter(r_lo, math.inf),
             2.0 * r_lo, 1e200, math.inf, math.nan]
    radii += [r_lo * (1.0 + e) for e in [0.0] + near]
    chart = [0.0, 0.5 * a, 0.25 * math.pi, 0.5 * math.pi - 0.5 * a, 0.5 * math.pi - a * 1e-12]
    chart += [edge + a * e for edge in (a, 0.5 * math.pi - a) for e in [0.0] + near]
    xs, ys = [], []
    for r in radii:
        for theta4 in chart:
            for m in range(4):
                theta = 0.5 * math.pi * m + theta4
                xs.append(r * math.cos(theta))
                ys.append(r * math.sin(theta))
    for x, y in [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (-math.inf, math.inf),
                 (math.nan, math.inf), (math.inf, math.nan), (1e200, -1e200), (0.0, -math.inf)]:
        xs.append(x)
        ys.append(y)
    return np.array(xs), np.array(ys)


def _assert_shrunk_chart_test(region, x, y):
    # The chart-free test may only drop points: within 2*mu of an edge, and
    # where r2 = x*x + y*y is not finite (see the test below).
    with np.errstate(over="ignore", invalid="ignore"):
        got = inside(region, x, y)
        want, clearance = chart_contains(region, x, y)
        clear = (clearance > 2.0 * znmap.maps._BOUND_MARGIN) & np.isfinite(x * x + y * y)
    assert not (got & ~want).any()
    np.testing.assert_array_equal(got[clear], want[clear])
    return got, clear


@pytest.mark.parametrize("region", _cone_regions())
def test_cone_test_is_the_chart_test_shrunk_by_mu(region):
    got, clear = _assert_shrunk_chart_test(region, *_edge_points(region, MARGIN_OFFSETS))
    assert got.sum() > 200 and (~got & clear).sum() > 200
    assert (~clear).sum() > 200  # points at the edges, whichever way they go


@settings(max_examples=200, deadline=None)
@given(k=st.floats(1.0, K_MAX, exclude_min=True, exclude_max=True),
       c_share=st.floats(0.0, 1.2), phase=st.floats(0.0, 1.0), s=st.floats(-0.5, 1.0),
       theta4=st.floats(0.0, 0.5 * math.pi), m=st.integers(0, 3),
       raw=st.tuples(st.floats(-1e7, 1e7), st.floats(-1e7, 1e7)))
@example(k=K, c_share=0.0, phase=0.0, s=0.0, theta4=0.0, m=0, raw=(3.5, 0.3))
@example(k=1.15, c_share=1.0, phase=0.25, s=1.0, theta4=0.5 * math.pi, m=2, raw=(-1e6, 1e6))
def test_cone_test_agrees_with_the_chart_test(k, c_share, phase, s, theta4, m, raw):
    # Escape cones of g4 for any k and a term of modulus c, a share of the
    # angle limit, at any phase; a point by log-radius s (0 at r_lo, 1 at
    # 1e6 r_lo), chart angle and quarter, and a point by raw coordinates.
    c = c_share * max(_angle_limit(k), 0.0)
    region = escape_cones(MapSpec("g4", k=k, alpha=c * math.cos(TWO_PI * phase),
                                  beta=c * math.sin(TWO_PI * phase)))
    assume(region is not None)
    r = region.r_lo * 1e6 ** s
    theta = 0.5 * math.pi * m + theta4
    _assert_shrunk_chart_test(region, np.array([r * math.cos(theta), raw[0]]),
                              np.array([r * math.sin(theta), raw[1]]))


def _all_regions():
    return _cone_regions() + [contracting_disk(FAMILIES["fn"]), contracting_disk(FAMILIES["g4"])]


@pytest.mark.parametrize("region", _all_regions())
def test_regions_leave_out_non_finite_points(region):
    # A point whose r2 = x*x + y*y is NaN or inf (a non-finite coordinate,
    # or a square that overflows) lies outside.  Each point tested on its
    # own as a 1-element array gets the answer of the whole array.
    cones = escape_cones(FAMILIES["g4"]) if isinstance(region, Disk) else region
    x, y = _edge_points(cones, ULP_OFFSETS)
    with np.errstate(over="ignore", invalid="ignore"):
        r2 = x * x + y * y
        got = inside(region, x, y)
    assert not got[~np.isfinite(r2)].any() and got.any()
    for xv, yv, want in zip(x.tolist(), y.tolist(), got.tolist()):
        with np.errstate(over="ignore", invalid="ignore"):
            assert inside(region, np.array([xv]), np.array([yv])).tolist() == [want]


def test_no_escape_cones_for_saturated_maps():
    # nor for f4/fn: the region outside the basin boundary decides their far starts
    assert all(escape_cones(FAMILIES[family]) is None for family in ("f4", "fn", "h", "hn"))
    assert contracting_disk(FAMILIES["h"]) == contracting_disk(FAMILIES["f4"])


@pytest.mark.parametrize("family", ["f4", "fn", "g4"])
def test_escaping_pixels_retire_early(family, step_calls):
    # 128^2 = 16,384 pixels stay on one thread.  Without the closed-form
    # regions the escaping pixels run to r_escape, about 138 steps each:
    # f4, fn and g4 take 857,064, 1,018,714 and 903,644 point-steps that
    # way.  f4 and fn retire nearly every pixel at step 0 on either side of
    # the basin boundary and take 404 and 190.  g4 has no such boundary:
    # its disk (radius 2.517) and its cones (r_lo = 2.668; 5.58 if its term
    # is taken to point straight inward, which takes 71,492 point-steps)
    # take 20,892.  The bound allows 1% above those, so a change that
    # retires fewer pixels, or later, fails.
    raster = basin_raster(FAMILIES[family], (-5.0, 5.0, -5.0, 5.0), 128, 128)
    assert raster.counts()["escaped"] > 5_000
    assert step_calls[1] <= 1.01 * {"f4": 404, "fn": 190, "g4": 20_892}[family]


def test_fixed_points_of_identity_retire_at_once(step_calls):
    kinds, steps = classify_batch(lambda p: p, [1.0, 0.5, -3.0], [0.0, 2.0, 7.0],
                                  budget=10**9)
    assert kinds.tolist() == [0, 0, 0]
    assert steps.tolist() == [-1, -1, -1]
    assert step_calls[0] <= 2


def test_scalar_starts():
    for start in [(0.5, 0.5), (3.1622776601683795, 0.0), (10.0, 0.0)]:
        ref = plain_classify(FAMILIES["f4"], [start[0]], [start[1]], 300)
        assert_matches(ref, FAMILIES["f4"], *start, 300)


def test_region_retirements_take_the_step_of_entry():
    # f4 at k = 1.1: the disk (N = 74) holds (0.5, 0.5) from step 0 and
    # (3, 3) from step 1; the region outside the basin boundary (N = 215)
    # holds (10, 0) and (1, 4) from step 0.  g4 with beta = 0.05 has no
    # boundary regions: its disk (N = 60) and cones (N = 159) hold the same
    # points from steps 0, 1, 0 and 1.  The plain loop decides them at
    # steps 3, 6, 122 and 139 (f4) and 7, 10, 83 and 92 (g4).  A region
    # retires a point at step t only if t + N <= budget.
    xs, ys = [0.5, 3.0, 10.0, 1.0], [0.5, 3.0, 0.0, 4.0]
    for spec, near, far, cases in [
            (FAMILIES["f4"], [3, 6], [122, 139],
             [(73, [3, 6, -1, -1]), (74, [0, 6, -1, -1]), (75, [0, 1, -1, -1]),
              (214, [0, 1, 122, 139]), (215, [0, 1, 0, 0]), (236, [0, 1, 0, 0])]),
            (FAMILIES["g4"], [7, 10], [83, 92],
             [(59, [7, 10, -1, -1]), (60, [0, 10, -1, -1]), (61, [0, 1, -1, -1]),
              (158, [0, 1, 83, 92]), (159, [0, 1, 0, 92]), (160, [0, 1, 0, 1])])]:
        for budget, steps in cases:
            kinds = [1, 1, 2, 2] if budget >= far[-1] else [1, 1, 0, 0]
            got = classify_batch(spec, xs, ys, budget)
            assert (got[0].tolist(), got[1].tolist()) == (kinds, steps)
            ref_kinds, ref_steps = plain_classify(spec, xs, ys, budget)
            plain = near + (far if budget >= far[-1] else [-1, -1])
            assert (ref_kinds.tolist(), ref_steps.tolist()) == (kinds, plain)


@pytest.mark.parametrize("xs, ys", [([0.5, 9.0], [0.5, 0.0, 3.0]),
                                    ([0.5, 9.0, 3.0], [0.5, 0.0]),
                                    ([[0.5, 9.0]], 0.5)])
def test_rejects_starts_of_different_sizes(xs, ys, step_calls):
    sizes = f"{np.size(xs)} and {np.size(ys)}"
    with pytest.raises(ValueError, match=f"xs and ys must have the same size; got {sizes}"):
        classify_batch(FAMILIES["f4"], xs, ys, budget=50)
    assert step_calls == [0, 0]


def test_rejects_negative_budget():
    with pytest.raises(ValueError, match="budget"):
        classify_batch(FAMILIES["f4"], [1.0], [0.0], budget=-1)
    kinds, steps = classify_batch(FAMILIES["f4"], [1.0], [0.0], budget=0)
    assert kinds.tolist() == [0] and steps.tolist() == [-1]


@pytest.mark.parametrize("eps_in, ok_eps_in, r_escape, x", [
    (1e-170, 1e-150, 1e6, 1e-200),  # eps_in^2 underflows to 0: nothing converges
    (1e200, 1e150, 1e300, 1e140),  # eps_in^2 overflows: starts inside eps_in escape
])
def test_rejects_eps_in_whose_square_is_not_normal(eps_in, ok_eps_in, r_escape, x):
    f4 = FAMILIES["f4"]
    with pytest.raises(ValueError, match="eps_in"):
        classify_batch(f4, [0.0, x], [0.0, 0.0], budget=10, eps_in=eps_in, r_escape=r_escape)
    kinds, steps = classify_batch(f4, [0.0, x], [0.0, 0.0], budget=10, eps_in=ok_eps_in,
                                  r_escape=r_escape)
    assert kinds.tolist() == [1, 1] and steps.tolist() == [0, 0]


def test_overflowing_radius_is_decided_by_hypot():
    # x*x + y*y overflows here; the radius itself is 1.414e160.
    h = FAMILIES["h"]
    for r_escape, kind in [(1e6, 2), (1.4e160, 2), (1.5e160, 0), (math.inf, 0)]:
        kinds, steps = classify_batch(h, [1e160], [1e160], budget=0, r_escape=r_escape)
        assert kinds.tolist() == [kind]
        assert steps.tolist() == [0 if kind else -1]


def test_far_starts_of_saturated_maps_do_not_escape():
    # k*x^3 overflowed at (1e120, 0), and the NaN image counted as escaped,
    # although h and hn contract there
    for spec in (FAMILIES["h"], FAMILIES["hn"]):
        with np.errstate(over="ignore", invalid="ignore"):  # the overflow is the point
            kinds, _ = classify_batch(spec, [1e120, 1e60], [0.0, 3e59], r_escape=1e300)
        assert kinds.tolist() == [0, 0]


@pytest.fixture
def split(monkeypatch):
    """Force classify_batch to split small batches: ``split(cpus, min_part)``
    makes min(cpus, starts // min_part) parts.  Returns the list that the
    size of each part classified is appended to."""
    sizes = []
    part = znmap.analysis._classify_part

    def recorded(spec, x, *args):
        sizes.append(x.size)  # list.append is atomic
        return part(spec, x, *args)

    def force(cpus, min_part=50):
        monkeypatch.setattr(znmap.analysis, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(znmap.analysis, "_MIN_PART", min_part)
        monkeypatch.setattr(znmap.analysis, "_classify_part", recorded)
        return sizes
    return force


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_split_matches_plain_loop(family, split):
    spec = FAMILIES[family]
    xs, ys = grid(WINDOW, 24)
    xs, ys = xs[:-1], ys[:-1]  # 575 starts: no part count divides them
    for budget in (0, 1, 261, 600):
        ref = plain_classify(spec, xs, ys, budget)
        for cpus in (1, 2, 3, 7):
            sizes = split(cpus)
            sizes.clear()
            assert_matches(ref, spec, xs, ys, budget)
            # two classifications, each in the same parts
            assert sorted(sizes) == sorted([575 * (i + 1) // cpus - 575 * i // cpus
                                            for i in range(cpus)] * 2)


def test_split_under_frequent_thread_switches(split):
    # More parts than cores, switching threads every few microseconds: a
    # part writing outside its own slice would show as a mismatch.
    spec = FAMILIES["g4"]
    xs, ys = grid(WINDOW, 24)
    ref = plain_classify(spec, xs, ys, 261)
    sizes = split(7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert_matches(ref, spec, xs, ys, 261)
    finally:
        sys.setswitchinterval(interval)
    assert len(sizes) == 2 * 7


def test_split_needs_two_full_parts(split):
    n = znmap.analysis._MIN_PART
    for cpus, npts, want in [(8, 2 * n - 1, [2 * n - 1]), (1, 2 * n, [2 * n]),
                             (2, 2 * n, [n, n]), (3, 5 * n, [27306, 27307, 27307])]:
        sizes = split(cpus, n)
        sizes.clear()
        xs = np.linspace(1.0, 1e7, npts)
        kinds, steps = classify_batch(FAMILIES["f4"], xs, np.zeros(npts), budget=0)
        assert sorted(sizes) == want
        np.testing.assert_array_equal(kinds, np.where(xs > 1e6, 2, 0))
        np.testing.assert_array_equal(steps, np.where(xs > 1e6, 0, -1))


class PartError(Exception):
    pass


@pytest.mark.parametrize("bad", [(0.0, 50.0), (250.0, 300.0)])  # first / last part
def test_split_reraises_a_part_exception(split, bad):
    def step(p):
        if bad[0] <= p[0] < bad[1]:
            raise PartError(p)
        return p[0], p[1] + 1.0

    sizes = split(3)
    with pytest.raises(PartError):
        classify_batch(step, np.arange(300.0) + 0.5, np.zeros(300), budget=5, r_escape=1e3)
    assert sorted(sizes) == [100, 100, 100]


def test_split_keeps_the_callers_errstate(split):
    # The repo's pytest setting turns RuntimeWarning into an error, so an
    # overflow warning in a part that lost the caller's errstate would fail.
    xs, ys = edge_starts(1e-8, math.inf)
    sizes = split(3, min_part=4)  # 13 starts: parts of 4, 4 and 5
    with np.errstate(over="ignore", invalid="ignore"):
        for spec in FAMILIES.values():
            assert_same(spec, xs, ys, 300, r_escape=math.inf)
    # assert_same classifies twice: with every retirement and with the
    # undecided ones only, each in 3 parts
    assert len(sizes) == 2 * 3 * len(FAMILIES)


@pytest.mark.parametrize("cpus", [1, 3])
def test_only_the_threshold_test_ignores_overflow(split, cpus):
    # |p| = 1.414e160 overflows x*x + y*y; 1e120 overflows f4's cubic step.
    split(cpus, min_part=1)
    with np.errstate(over="raise"):
        kinds, _ = classify_batch(FAMILIES["f4"], [0.5, 1.0, 1e160], [0.0, 0.0, 1e160],
                                  budget=0)
        assert kinds.tolist() == [0, 0, 2]
        with pytest.raises(FloatingPointError):
            classify_batch(FAMILIES["f4"], [0.5, 1.0, 1e120], [0.0, 0.0, 0.0],
                           budget=1, r_escape=math.inf)


def _glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError):  # no confstr, or no such name
        return False


# A fresh process's minor faults in the second of two identical 512^2 f4
# rasters, classified on argv[1] threads
REPEATED_RASTER = """\
import resource
import sys
import znmap.analysis
from znmap import MapSpec
from znmap.topology import basin_raster
znmap.analysis._available_cpus = lambda: int(sys.argv[1])
spec, window = MapSpec("f4", k=1.1), (-5.0, 5.0, -5.0, 5.0)
first = basin_raster(spec, window, 512, 512).kinds
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
second = basin_raster(spec, window, 512, 512).kinds
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, (first == second).all())
"""


def repeated_raster_faults(cpus, **malloc_env):
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("MALLOC_") and name != "GLIBC_TUNABLES"}
    env.update(malloc_env, PYTHONPATH=str(Path(znmap.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", REPEATED_RASTER, str(cpus)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    faults, same = proc.stdout.split()
    assert same == "True"
    return int(faults)


@pytest.mark.skipif(not _glibc(), reason="the malloc thresholds are fixed on glibc alone")
@pytest.mark.parametrize("cpus, bound", [(1, 100), (2, 1000)], ids=["serial", "two-threads"])
def test_a_repeated_raster_keeps_its_memory(cpus, bound):
    # znmap.analysis fixes glibc's malloc thresholds at import, so the heap
    # that one 512^2 raster frees serves the next one; under the dynamic
    # thresholds it went back to the kernel and took 5,200-5,800 minor faults
    # to touch again.  Serial, in the main arena, the second raster takes 0;
    # on two threads, each in its own arena, 80-150 (1-5 from the third
    # raster on).  The split is
    # pinned: at 16 threads a repeated raster still took 60-1,900 faults
    # (the parent's took 1,800-4,000), too close for a fixed bound.
    assert repeated_raster_faults(cpus) <= bound


@pytest.mark.skipif(not _glibc(), reason="the malloc thresholds are fixed on glibc alone")
@pytest.mark.parametrize("malloc_env", [{"MALLOC_MMAP_THRESHOLD_": "131072"},
                                        {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"}],
                         ids=["variable", "tunable"])
def test_a_malloc_policy_in_the_environment_is_left_alone(malloc_env):
    # a process that sets glibc's malloc policy keeps it: a fixed mmap
    # threshold at glibc's initial 128 KiB maps and faults in the large
    # temporaries anew on every raster
    assert repeated_raster_faults(1, **malloc_env) > 1000
