"""Closed-form oracles for "local but not global", independent of the program.

On the x-axis every family acts as a 1-D radial map followed by an exact
rotation: psi(r) = k r^3/(1+r^2) for f4/fn, and u(psi(r)) for h/hn, where u
is the saturating radial response.  Everything the tests compare against is
computed here from those formulas alone, at k = 1.1.
"""

import math

import pytest

from znmap import MapSpec, classify_batch, find_periodic
from znmap.verify import check_eigenvalue_bound

K = 1.1
P = 1.0 / math.sqrt(K - 1.0)  # radius of the orbit through P
R0 = 2.0 / math.sqrt(K - 1.0)  # default saturation onset and halving scale


def psi(r):
    return K * r ** 3 / (1.0 + r * r)


def dpsi(r):
    return K * r * r * (3.0 + r * r) / (1.0 + r * r) ** 2


def u(s):
    w = s - R0
    return s if w <= 0.0 else R0 + 0.5 * w + 0.5 * R0 * (1.0 - math.exp(-w / R0))


def du(s):
    w = s - R0
    return 1.0 if w <= 0.0 else 0.5 + 0.5 * math.exp(-w / R0)


def outer_radius():
    """Root of u(psi(r)) = r in (P, 2*r0), by bisection to the last bit."""
    lo, hi = P, 2.0 * R0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if u(psi(mid)) > mid:
            lo = mid
        else:
            hi = mid
    return hi


SATURATED = [MapSpec("h", k=K)] + [MapSpec("hn", k=K, n=n) for n in range(2, 9)]
BASE = [MapSpec("f4", k=K)] + [MapSpec("fn", k=K, n=n) for n in range(2, 9)]


@pytest.mark.parametrize("spec", SATURATED, ids=lambda s: f"{s.family}{s.n}")
def test_outer_cycle_radius_and_multipliers(spec):
    r = outer_radius()
    assert abs(r - 11.161796392951548) <= 4e-15  # the root, to a few ulps
    orb = find_periodic(spec, (11.0, 0.3), spec.n)
    assert abs(math.hypot(*orb.point) - r) <= 1e-12
    small, big = sorted(abs(m) for m in orb.multipliers)
    expected = (du(psi(r)) * dpsi(r)) ** spec.n
    assert expected < 1.0  # the outer cycle attracts
    # jac_map of h/hn takes finite differences: about 1e-9 relative
    assert abs(big - expected) <= 1e-7 * expected
    assert small < 1e-12


@pytest.mark.parametrize("spec", BASE + SATURATED, ids=lambda s: f"{s.family}{s.n}")
def test_origin_basin_ends_at_p_on_the_axis(spec):
    kinds, _ = classify_batch(spec, [P * (1.0 - 1e-9), P * (1.0 + 1e-9)], [0.0, 0.0])
    below, above = (int(v) for v in kinds)
    assert below == 1  # converged
    # just above P: f4/fn escape; the outer cycle of h/hn holds them (undecided)
    assert above == (0 if spec.family in ("h", "hn") else 2)


def test_eigenvalue_bound_grid_max_pinned_to_sup():
    sup = K * math.sqrt(3.0) / 2.0
    assert sup - 1e-4 <= check_eigenvalue_bound(K).statistic < sup
