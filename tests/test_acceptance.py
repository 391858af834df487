"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Runs every criterion through the same check functions the `znmap verify`
command uses (seed 0x5EED, k = 1.1).  Criteria 1-4 and 6-12 are asserted at
their stated tolerances.  Criterion 5's spectral clause is false for part of
its beta range, so its test asserts every clause over the range where the
closed form for the spectral supremum proves it, and pins the crossing.
"""

import math

import numpy as np
import pytest

from znmap import verify
from znmap.topology import basin_raster
from znmap.verify import (
    K_DEFAULT,
    check_astroid,
    check_dissipativity,
    check_eigenvalue_bound,
    check_equivariance,
    check_gluing,
    check_local_attractor,
    check_negative_control,
    check_periodic_orbit,
    check_properness,
    check_rotation,
    check_singularity,
    check_unfolding,
    scan_unfolding,
)


def _report(index, result, failures=None, note=""):
    """Print one PASS/FAIL line and assert the criterion.  By default the
    check's own verdict decides; a test that asserts its clauses itself
    passes the clauses that failed as ``failures``."""
    if failures is None:
        failures = [] if result.passed else [
            f"statistic {result.statistic!r} vs tolerance {result.tolerance!r}; "
            f"{result.detail}"]
    status = "FAIL" if failures else "PASS"
    print(f"{status} criterion {index:2d} [{result.name}]: "
          f"statistic={result.statistic:.6g} tolerance={result.tolerance:.6g}{note}")
    assert not failures, (
        f"criterion {index} ({result.name}) failed: " + "; ".join(failures))


def test_criterion_01_equivariance():
    # max |f(Rp) - R f(p)| <= 1e-12 (1+|p|^3), n = 2..8, 10^4 seeded points
    _report(1, check_equivariance())


def test_criterion_02_periodic_orbit():
    # Newton from (3.0, 0.1) recovers ((k-1)^(-1/2), 0) to 1e-10 with minimal
    # period n and multipliers ((3k-2)/k)^n and 0
    _report(2, check_periodic_orbit())


def test_criterion_02_fails_on_inexact_multipliers(monkeypatch):
    # 1e-8 relative keeps every multiplier far from the unit circle, but not
    # within 1e-10 of the closed form
    solve = verify.find_periodic

    def perturbed(*args, **kwargs):
        orb = solve(*args, **kwargs)
        orb.multipliers = tuple(m * (1.0 + 1e-8) for m in orb.multipliers)
        return orb

    monkeypatch.setattr(verify, "find_periodic", perturbed)
    result = check_periodic_orbit()
    assert not result.passed
    assert result.statistic <= result.tolerance  # the orbit itself is found


@pytest.mark.parametrize("k", [1.01, 1.001, 1.0005, 1.15])
def test_criterion_02_periodic_orbit_near_k_one(k):
    # P = (k-1)^(-1/2) is 10, 31.6 and 44.7 here; the guess scales with P,
    # since Newton from the fixed (3.0, 0.1) lands on the origin for n = 8,
    # and so does the tolerance on |p - P|, which an absolute 1e-10 misses
    # at k = 1.0005 (1.09e-10, about 2e-12 relative).  The criterion holds
    # for every valid k, so 1.15, near the top of the range, passes too.
    p_radius = 1.0 / math.sqrt(k - 1.0)
    result = check_periodic_orbit(k)
    assert result.passed, result.detail
    guess = result.params["guess"]
    assert abs(guess[0] - 3.0 * p_radius * math.sqrt(0.1)) <= 1e-12 * p_radius
    assert abs(guess[1] - 0.1 * p_radius * math.sqrt(0.1)) <= 1e-12 * p_radius
    assert abs(result.tolerance - 1e-10 * p_radius * math.sqrt(0.1)) <= 1e-22 * p_radius
    at_default = check_periodic_orbit()  # exact at k = 1.1
    assert at_default.params["guess"] == [3.0, 0.1] and at_default.tolerance == 1e-10


def test_criterion_03_local_attractor():
    # zero derivative at the origin; 10^3 starts in |p| <= 0.9 all converge
    _report(3, check_local_attractor())


def test_criterion_04_eigenvalue_bound():
    # 1000x1000 grid on [-20,20]^2 stays below k sqrt(3)/2; zero on the axes
    _report(4, check_eigenvalue_bound())


def test_criterion_05_unfolding():
    # g4 = f4 + beta*(-y, x) for beta = 0.01..0.1 (10 values), 300x300 grid
    # on [-20,20]^2.  The spectral radius of the Jacobian tends, along the
    # diagonals, to sup|mu|(beta) = sqrt(3k^2/4 + 2k*beta + beta^2) and stays
    # below it; this crosses 1 at beta* = (sqrt(k^2+4) - 2k)/2 ~ 0.041271 for
    # k = 1.1 (e.g. |mu| = 1.0048 at (3, 3) for beta = 0.05), so "below 1" is
    # false for beta > beta*.  Asserted: each grid max lies in
    # [sup|mu| - 1e-4, sup|mu|]; it is < 1 for every beta < beta* and > 1 for
    # every beta > beta*, with beta* strictly between 0.04 and 0.05; the
    # period-4 orbit continues from P with residual <= 1e-10 over the whole
    # range; the origin is stable exactly inside alpha^2 + beta^2 = 1; and
    # check_unfolding reports the largest grid max and the conjunction of
    # the clauses as it states them (so `znmap verify` marks it FAIL).
    k = K_DEFAULT
    beta_star = (math.sqrt(k * k + 4.0) - 2.0 * k) / 2.0
    scan = scan_unfolding(k)
    result = check_unfolding(k)
    failures = []
    if not 0.04 < beta_star < 0.05:
        failures.append(f"beta* = {beta_star!r} not in (0.04, 0.05)")
    betas = [row.beta for row in scan.rows]
    if betas != list(np.linspace(0.01, 0.1, 10)):
        failures.append(f"sampled betas {betas}")
    if (result.params["grid"], result.params["region"]) != (300, [-20, 20, -20, 20]):
        failures.append(f"scan params {result.params}")
    for row in scan.rows:
        sup = math.sqrt(0.75 * k * k + 2.0 * k * row.beta + row.beta * row.beta)
        if not sup - 1e-4 <= row.max_modulus <= sup:
            failures.append(f"beta={row.beta:.2f}: grid max {row.max_modulus!r} "
                            f"not within 1e-4 below sup|mu| {sup!r}")
        if (row.beta < beta_star and not row.max_modulus < 1.0
                or row.beta > beta_star and not row.max_modulus > 1.0):
            failures.append(f"beta={row.beta:.2f}: grid max {row.max_modulus!r} "
                            f"on the wrong side of 1 (beta* = {beta_star:.6f})")
        if not row.residual <= 1e-10:
            failures.append(f"beta={row.beta:.2f}: orbit residual {row.residual!r}")
    if not scan.boundary_ok:
        failures.append("origin-stability boundary is not alpha^2 + beta^2 = 1")
    worst = max(row.max_modulus for row in scan.rows)
    if result.statistic != worst:
        failures.append(f"statistic {result.statistic!r} != largest grid max {worst!r}")
    stated = (worst < 1.0 and all(row.residual <= 1e-10 for row in scan.rows)
              and scan.boundary_ok)
    if result.passed != stated:
        failures.append(f"check verdict {result.passed} != clauses as stated {stated}")
    _report(5, result, failures,
            f"; spectral bound asserted below beta*={beta_star:.6f}")


@pytest.mark.parametrize("k, statistic", [(1.02, 0.997080), (1.03, 1.005755)])
def test_criterion_05_unfolding_verdict_across_k(k, statistic):
    # The largest grid max sits at beta = 0.1, within 1e-4 below
    # sup|mu|(0.1) = sqrt(3k^2/4 + 0.2k + 0.01), so the check's verdict is
    # PASS exactly while beta*(k) = (sqrt(k^2+4) - 2k)/2 exceeds 0.1, i.e.
    # for k below k_x ~ 1.0233, the root of 3k^2 + 0.8k - 3.96 where
    # beta*(k_x) = 0.1.
    beta_star = (math.sqrt(k * k + 4.0) - 2.0 * k) / 2.0
    k_x = (math.sqrt(0.64 + 47.52) - 0.8) / 6.0
    sup = math.sqrt(0.75 * k * k + 0.2 * k + 0.01)
    result = check_unfolding(k)
    failures = []
    if not (abs(k_x - 1.0233) <= 5e-5
            and abs((math.sqrt(k_x * k_x + 4.0) - 2.0 * k_x) / 2.0 - 0.1) <= 1e-12):
        failures.append(f"beta* crosses 0.1 at k = {k_x!r}, not ~1.0233")
    if not abs(result.statistic - statistic) <= 5e-7:
        failures.append(f"statistic {result.statistic!r} != {statistic}")
    if not sup - 1e-4 <= result.statistic <= sup:
        failures.append(f"statistic {result.statistic!r} not within 1e-4 below "
                        f"sup|mu|(0.1) {sup!r}")
    if not result.passed == (beta_star > 0.1) == (k < k_x):
        failures.append(f"verdict {result.passed} at beta* = {beta_star:.6f}")
    _report(5, result, failures, f"; k={k} beta*={beta_star:.6f} "
                                 f"check verdict {'PASS' if result.passed else 'FAIL'}")


def test_criterion_06_properness():
    # min |g(r, theta)| >= (k/4) r for r in {2, 10, 100}, 360 angles
    _report(6, check_properness())


def test_criterion_07_gluing_smoothness():
    # one-sided Jacobians across boundary rays agree within 1e-6 (1+r^2)
    _report(7, check_gluing())


def test_criterion_08_astroid():
    # unit circle maps onto (k/2)(-sin^3, cos^3) to 1e-12, cusps on the axes
    _report(8, check_astroid())


def test_criterion_09_rotation_numbers():
    # rotation estimate 1/n (slope within 0.01) for both order-n families
    _report(9, check_rotation())


@pytest.mark.parametrize("k", [1.01, 1.001, 1.0005, 1.15])
def test_criterion_09_rotation_numbers_near_k_one(k):
    # P is 10, 31.6 and 44.7 here: starts at the fixed radii 6 to 8 would
    # lie inside the period-n orbit and fall into the origin, so they scale
    # with P.  The criterion holds for every valid k, 1.15 included.
    result = check_rotation(k)
    assert result.passed, result.statistic
    assert result.statistic <= 1e-3


def test_criterion_10_dissipativity():
    # |f(p)| < |p| outside 2*r0, and no raster pixel escapes
    _report(10, check_dissipativity())


def test_criterion_10_dissipativity_near_k_one(monkeypatch):
    # 2*r0 = 4*P(k) is 178.9 at k = 1.0005, above the radius 100 the
    # samples once ended at, and the raster window of +-20 lay inside the
    # period-n orbit (P = 44.7), where no pixel can escape; both scale with P
    k = 1.0005
    p_radius = 1.0 / math.sqrt(k - 1.0)
    windows = []

    def spy(spec, window, *args, **kwargs):
        windows.append(window)
        return basin_raster(spec, window, *args, **kwargs)

    monkeypatch.setattr(verify, "basin_raster", spy)
    result = check_dissipativity(k)
    assert result.passed, result.detail
    scale = p_radius * math.sqrt(0.1)  # P(k)/P(1.1)
    lo, hi = result.params["radius_range"]
    assert math.isclose(lo, 4.0 * p_radius, rel_tol=1e-12)
    assert math.isclose(hi, 100.0 * scale, rel_tol=1e-12) and lo < hi
    (x_lo, x_hi, y_lo, y_hi), = windows
    assert (x_lo, y_lo, y_hi) == (-x_hi, -x_hi, x_hi)
    assert math.isclose(x_hi, 20.0 * scale, rel_tol=1e-12) and x_hi > 4.0 * p_radius
    windows.clear()
    at_default = check_dissipativity()  # exact at k = 1.1
    assert at_default.params["radius_range"][1] == 100.0
    assert windows == [(-20.0, 20.0, -20.0, 20.0)]


def _ray_ratio(k):
    """|h(p)|/|p| at p = (2*r0, 0), r0 = 2/sqrt(k-1), written out: the
    supremum of the ratio over |p| >= 2*r0, on the boundary rays."""
    r0 = 2.0 / math.sqrt(k - 1.0)
    r = 2.0 * r0
    w = k * r ** 3 / (1.0 + r * r) - r0
    return (r0 + 0.5 * w + 0.5 * r0 * (1.0 - math.exp(-w / r0))) / r


@pytest.mark.parametrize("k, passes", [(1.0005, True), (1.1, True), (1.14, True),
                                       (1.15, False)])
def test_criterion_10_dissipativity_verdict_across_k(k, passes):
    # The ratio on the rays crosses 1 at k_d ~ 1.149906.  At k = 1.15 it is
    # 1.0000554, but the sampled statistic (0.998174) stays below 1 and no
    # raster pixel escapes: only the closed form fails the check there.
    lo, hi = 1.1, 1.15
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _ray_ratio(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    ratio = _ray_ratio(k)
    result = check_dissipativity(k)
    failures = []
    if not abs(hi - 1.149906) <= 1e-6:
        failures.append(f"the ratio on the rays crosses 1 at k = {hi!r}, not ~1.149906")
    if not result.passed == passes == (ratio < 1.0):
        failures.append(f"verdict {result.passed} at ratio {ratio!r} on the rays")
    if not (result.statistic < 1.0 and "'escaped': 0" in result.detail):
        failures.append(f"statistic {result.statistic!r}, {result.detail}")
    _report(10, result, failures, f"; k={k} ray ratio={ratio:.7f} "
                                  f"check verdict {'PASS' if result.passed else 'FAIL'}")


def test_criterion_11_singularity():
    # exact: rank 12, codimension 3 with complement {X1, X2, N*X2}
    _report(11, check_singularity())


def test_criterion_12_negative_control():
    # the order-5 family probed with the order-4 rotation must misbehave
    _report(12, check_negative_control())
