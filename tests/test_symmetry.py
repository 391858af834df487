"""Symmetry of whole basin rasters: a law that follows from the maps, not
from a second copy of the step or of the classifier.

If a map f commutes with an isometry T of the plane that fixes the origin,
f(Tp) = T f(p), then f^t(Tp) = T f^t(p) for every t: the orbits of p and
Tp have the same radii at every step.  The classifier decides a start by
its radius (below eps_in, above r_escape) and by closed-form regions (the
contracting disk, the escape cones and trapping region about the sector
boundary rays) that the symmetries below map onto themselves, so p and Tp
get the same kind after the same number of steps.

* The quarter turn R(x, y) = (-y, x) commutes with f4 and h, with g4 for
  every alpha, beta, delta (the term alpha*p + (beta + delta*|p|^2)*Jp,
  J = R, commutes with R), and with fn/hn when 4 divides n, where R is n/4
  sectors.  For n = 3 or 5 it is no symmetry.
* The reflection S(x, y) = (x, -y): f4 is odd, and
  f4(x, -y) = (k*y^3, k*x^3)/(1 + x^2 + y^2) = -S f4(x, y), so
  f4 o S = -S o f4, f4^2 o S = S o f4^2 and f4^t o S = +-S o f4^t, with
  the same radii.  The beta and delta terms keep the identity, since
  J o S = -S o J, and h keeps it, since its saturation is radial; the alpha
  term breaks it (alpha*S p = +S(alpha*p)).  fn/hn take the angle theta of
  sector m to chart angle theta4 and back: the mirror angle -theta lies in
  sector n-1-m at chart angle pi/2 - theta4, and as f4 o (R o S) =
  -(R o S) o f4 the image angle comes out as 4*pi/n minus that of f(p),
  so fn o S = Q^2 o S o fn with Q the turn by 2*pi/n, and
  fn^t o S = Q^(2t) o S o fn^t.

basin_raster's pixel centres on a window (-w, w)^2 are exact mirror pairs,
so np.rot90 and np.flipud of a raster are the raster at Rp and at Sp.  The
computed maps commute with R and S up to rounding at most, and the tests
assert what rounding leaves: equal kinds and steps, bit for bit.  Each
raster is 256^2, so the classifier splits it over threads, and holds at
least two kinds, so that no test passes on a uniform raster.  The windows
scale with the orbit radius P(k).
"""

import numpy as np
import pytest

import znmap.topology
from znmap.analysis import classify_batch
from znmap.maps import MapSpec, orbit_radius
from znmap.topology import basin_raster

RES = 256
# the same for every symmetry; a small budget keeps the slow orbits near
# k = 1, which end undecided, cheap
BUDGET = 200

# (params, the group elements the raster must show, those it must not)
CASES = {
    "f4": ({"family": "f4"}, ("rot90", "flipud"), ()),
    "g4-beta": ({"family": "g4", "beta": 0.05}, ("rot90", "flipud"), ()),
    "g4-alpha": ({"family": "g4", "alpha": 0.05, "beta": 0.02}, ("rot90",), ("flipud",)),
    "h": ({"family": "h"}, ("rot90", "flipud"), ()),
    "fn-12": ({"family": "fn", "n": 12}, ("rot90", "flipud"), ()),
    "fn-3": ({"family": "fn", "n": 3}, ("flipud",), ()),
    "fn-5": ({"family": "fn", "n": 5}, ("flipud",), ("rot90",)),
    "hn-5": ({"family": "hn", "n": 5}, ("flipud",), ()),
}


def raster(spec, w):
    """Kinds and steps of basin_raster's RES^2 grid on (-w, w)^2, from the
    classify_batch call it makes."""
    calls = []

    def spy(*args):
        calls.append(classify_batch(*args))
        return calls[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(znmap.topology, "classify_batch", spy)
        basin_raster(spec, (-w, w, -w, w), RES, RES, budget=BUDGET)
    kinds, steps = calls[0]
    return kinds.reshape(RES, RES), steps.reshape(RES, RES)


@pytest.mark.parametrize("k", (1.0005, 1.1, 1.15))
@pytest.mark.parametrize("case", CASES)
def test_basin_raster_is_symmetric(case, k):
    params, holds, fails = CASES[case]
    kinds, steps = raster(MapSpec(k=k, **params), 1.5 * orbit_radius(k))
    assert np.unique(kinds).size >= 2
    for name in holds:
        move = getattr(np, name)
        assert np.array_equal(kinds, move(kinds)), name
        assert np.array_equal(steps, move(steps)), name
    for name in fails:
        assert not np.array_equal(kinds, getattr(np, name)(kinds)), name
