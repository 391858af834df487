"""classify_batch against the plain stepping loop it replaces.

classify_batch retires a point as undecided once its state repeats a
floating-point state bit for bit, and splits large batches across threads.
Both may change only the work done, never the kinds or steps, so the tests
here compare against ``plain_classify``:
the loop that steps every live point until it converges, escapes or uses the
whole budget.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import znmap.analysis
from znmap.analysis import classify_batch
from znmap.maps import MapSpec, step_batch
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


def assert_same(spec, xs, ys, budget, eps_in=1e-8, r_escape=1e6):
    kinds, steps = classify_batch(spec, xs, ys, budget, eps_in, r_escape)
    ref_kinds, ref_steps = plain_classify(spec, xs, ys, budget, eps_in, r_escape)
    np.testing.assert_array_equal(kinds, ref_kinds)
    np.testing.assert_array_equal(steps, ref_steps)
    return kinds


def edge_starts(eps_in, r_escape):
    xs = [0.0, eps_in, -eps_in, 0.5, math.nan, math.inf, -math.inf, 1e300,
          r_escape, 1e5, 1e160, 11.16, 3.1622776601683795]
    ys = [0.0, 0.0, 0.0, -0.0, 1.0, 0.0, 1.0, 1e300, 0.0, 0.0, 0.0, 0.1, 0.0]
    return xs, ys


@pytest.fixture
def step_calls(monkeypatch):
    """Count the step_batch calls classify_batch makes.  The count is not
    thread-safe: use it only on batches that classify_batch keeps serial."""
    calls = [0]
    step = znmap.analysis.step_batch

    def counted(spec, x, y):
        calls[0] += 1
        return step(spec, x, y)

    monkeypatch.setattr(znmap.analysis, "step_batch", counted)
    return calls


@pytest.mark.parametrize("r_escape", [1e3, 1e6])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_matches_plain_loop_across_budgets(family, r_escape):
    # The h/hn orbits in the outer cycle repeat a state from step 134 to 217
    # on, so these budgets fall before, between and after the retirements.
    xs, ys = grid(WINDOW, 24)
    for budget in (0, 1, 133, 260, 261, 600):
        kinds = assert_same(FAMILIES[family], xs, ys, budget, r_escape=r_escape)
    if family in ("h", "hn"):
        assert (kinds == 0).sum() > 400  # the outer cycle is in the window


@pytest.mark.parametrize("eps_in, r_escape", [
    (1e-8, 1e3), (1e-8, 1e200), (1e-8, math.inf),
    (-1e7, 1e3),  # eps_in^2 > r_escape^2: escaping wins where both hold
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
    raster = basin_raster(FAMILIES["hn"], WINDOW, 32, 32, budget=10_000)
    assert raster.counts()["undecided"] > 800
    assert step_calls[0] < 400


def test_fixed_points_of_identity_retire_at_once(step_calls):
    kinds, steps = classify_batch(lambda p: p, [1.0, 0.5, -3.0], [0.0, 2.0, 7.0],
                                  budget=10**9)
    assert kinds.tolist() == [0, 0, 0]
    assert steps.tolist() == [-1, -1, -1]
    assert step_calls[0] <= 2


def test_scalar_starts():
    for start in [(0.5, 0.5), (3.1622776601683795, 0.0), (10.0, 0.0)]:
        kinds, steps = classify_batch(FAMILIES["f4"], *start, budget=300)
        ref_kinds, ref_steps = plain_classify(FAMILIES["f4"], [start[0]], [start[1]], 300)
        assert (kinds.tolist(), steps.tolist()) == (ref_kinds.tolist(), ref_steps.tolist())


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
        ref_kinds, ref_steps = plain_classify(spec, xs, ys, budget)
        for cpus in (1, 2, 3, 7):
            sizes = split(cpus)
            sizes.clear()
            kinds, steps = classify_batch(spec, xs, ys, budget)
            np.testing.assert_array_equal(kinds, ref_kinds)
            np.testing.assert_array_equal(steps, ref_steps)
            assert sorted(sizes) == sorted([575 * (i + 1) // cpus - 575 * i // cpus
                                            for i in range(cpus)])


def test_split_under_frequent_thread_switches(split):
    # More parts than cores, switching threads every few microseconds: a
    # part writing outside its own slice would show as a mismatch.
    spec = FAMILIES["g4"]
    xs, ys = grid(WINDOW, 24)
    ref_kinds, ref_steps = plain_classify(spec, xs, ys, 261)
    sizes = split(7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        kinds, steps = classify_batch(spec, xs, ys, 261)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(kinds, ref_kinds)
    np.testing.assert_array_equal(steps, ref_steps)
    assert len(sizes) == 7


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
    assert len(sizes) == 3 * len(FAMILIES)


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
