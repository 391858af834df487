"""classify_batch against the plain stepping loop it replaces.

classify_batch retires a point as undecided once its state repeats a
floating-point state bit for bit.  That may change only the work done, never
the kinds or steps, so every test here compares against ``plain_classify``:
the loop that steps every live point until it converges, escapes or uses the
whole budget.
"""

import math

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
        r2 = x * x + y * y
        conv = r2 < eps2
        esc = (r2 > esc2) | ~np.isfinite(r2)
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


@pytest.fixture
def step_calls(monkeypatch):
    """Count the step_batch calls classify_batch makes."""
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
    xs = [0.0, eps_in, -eps_in, 0.5, math.nan, math.inf, -math.inf, 1e300,
          r_escape, 1e5, 1e160, 11.16, 3.1622776601683795]
    ys = [0.0, 0.0, 0.0, -0.0, 1.0, 0.0, 1.0, 1e300, 0.0, 0.0, 0.0, 0.1, 0.0]
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
