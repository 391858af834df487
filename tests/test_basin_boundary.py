"""The boundary of the basin of the origin along rays, in closed form.

One step of f4, fn, h or hn maps a point of sector chart (r, t) (t the
chart angle in [0, pi/2), see maps._namespace) to radius
u(psi(r)*m(t)) in the next sector, at chart angle atan(tan^3 t), where
psi(r) = k r^3/(1+r^2), m(t) = hypot(cos^3 t, sin^3 t) and u is the
identity for f4/fn and the radial response for h/hn.  The image radius
increases with r and the image angle does not depend on r, so along the
angle orbit of t, which reaches an axis, the radius on the basin's boundary
is pulled back from P = (k-1)^(-1/2), where the axis map r -> psi(r) has
its fixed point:

    B(t) = psi^-1(u^-1(B(atan(tan^3 t))) / m(t)),   B(axis) = P.

Points at chart angle t inside B(t) converge to the origin; those outside
escape for f4/fn and are caught by the outer cycle for h/hn.  Everything
here but the classifier is written from this formula alone.
"""

import math

import numpy as np
import pytest

from znmap.analysis import classify_batch
from znmap.maps import MapSpec
from znmap.topology import basin_raster

HALF_PI = 0.5 * math.pi
TWO_PI = 2.0 * math.pi
STEP = math.pi / 192
# chart angles 0, pi/192, ..., 94*pi/192, apart from those within 0.01 of
# the diagonal pi/4, whose own orbit never reaches an axis
PROBES = [i * STEP for i in range(95) if abs(i * STEP - 0.25 * math.pi) > 0.01]
SPECS = [("f4", 4), ("fn", 5), ("fn", 12), ("h", 4), ("hn", 5)]


def modulus(t):
    return math.hypot(math.cos(t) ** 3, math.sin(t) ** 3)


def psi_inverse(k, v):
    """The positive root r of k r^3 - v r^2 - v = 0, by Newton's method
    from r = v/k + 1, which lies above it, where the cubic is convex and
    increasing: the iterates decrease to the root."""
    r = v / k + 1.0
    while True:
        nxt = r - (k * r ** 3 - v * r * r - v) / (3.0 * k * r * r - 2.0 * v * r)
        if not nxt < r:
            return r
        r = nxt


def u_inverse(v, r0, r_half):
    """s with u(s) = v, u(s) = r0 + w/2 + r_half*(1 - exp(-w/r_half))/2 for
    s = r0 + w > r0 and the identity below: Newton's method on w from 0,
    where the concave increasing g(w) = u(r0 + w) - v is negative, so the
    iterates increase to the root."""
    if v <= r0:
        return v
    w = 0.0
    while True:
        g = 0.5 * w + 0.5 * r_half * (1.0 - math.exp(-w / r_half)) - (v - r0)
        nxt = w - g / (0.5 + 0.5 * math.exp(-w / r_half))
        if not nxt > w:
            return r0 + w
        w = nxt


def boundary(family, k, t, m=modulus):
    """B(t) for chart angles t in [0, pi/2), t off the diagonal pi/4."""
    orbit = [t]
    while orbit[-1] not in (0.0, HALF_PI):
        orbit.append(math.atan(math.tan(orbit[-1]) ** 3))
    p = 1.0 / math.sqrt(k - 1.0)
    r0 = 2.0 * p  # the default radial profile: r0 = r_half = 2P
    radius = p
    for angle in reversed(orbit[:-1]):
        if family in ("h", "hn"):
            radius = u_inverse(radius, r0, r0)
        radius = psi_inverse(k, radius / m(angle))
    return radius


def mismatches(family, n, k, m=modulus, rel=1e-6):
    """The probes classify_batch decides otherwise than B: a point at
    B(t)*(1 - rel) must converge, one at B(t)*(1 + rel) must leave the
    basin (escape for f4/fn, stay undecided for h/hn).  Probe i lies in
    sector i mod n, at true angle 2*pi*(i mod n)/n + 4*t/n."""
    outside = 0 if family in ("h", "hn") else 2
    xs, ys, want = [], [], []
    for i, t in enumerate(PROBES):
        theta = TWO_PI * (i % n) / n + 4.0 * t / n
        b = boundary(family, k, t, m)
        for scale, kind in ((1.0 - rel, 1), (1.0 + rel, outside)):
            xs.append(b * scale * math.cos(theta))
            ys.append(b * scale * math.sin(theta))
            want.append(kind)
    kinds = classify_batch(MapSpec(family, k=k, n=n), np.array(xs), np.array(ys))[0]
    return int((kinds != np.array(want)).sum())


@pytest.mark.parametrize("k", [1.1, 1.15])
@pytest.mark.parametrize("family, n", SPECS)
def test_classifier_changes_kind_across_the_closed_form_boundary(family, n, k):
    assert len(PROBES) == 94
    assert mismatches(family, n, k) == 0


@pytest.mark.parametrize("family, n", SPECS)
def test_boundary_with_unit_modulus_is_refuted(family, n):
    # with m = 1 every ray's boundary collapses to P, which the classifier
    # refutes off the axes: the oracle can fail
    assert boundary(family, 1.1, 0.5, m=lambda t: 1.0) == pytest.approx(1.0 / math.sqrt(0.1))
    assert mismatches(family, n, 1.1, m=lambda t: 1.0) > 0


def test_f4_boundary_values():
    angles = [0.0, 0.1, 0.3, 0.5, 0.7, 0.78, 1.0, 1.3]
    values = [3.1623, 3.2028, 3.5597, 4.5505, 8.6628, 39.046, 5.2723, 3.4800]
    spec = MapSpec("f4", k=1.1)
    for t, value in zip(angles, values):
        b = boundary("f4", 1.1, t)
        assert b == pytest.approx(value, abs=1e-4 * value)
        xs = b * np.array([1.0 - 1e-6, 1.0 + 1e-6]) * math.cos(t)
        ys = b * np.array([1.0 - 1e-6, 1.0 + 1e-6]) * math.sin(t)
        assert classify_batch(spec, xs, ys)[0].tolist() == [1, 2], t


@pytest.mark.parametrize("k", [1.1, 1.15])
@pytest.mark.parametrize("family", ["f4", "h"])
def test_boundary_shape(family, k):
    # B(0) = P, B is mirror-symmetric about the diagonal and increases
    # from the axis toward it
    assert boundary(family, k, 0.0) == 1.0 / math.sqrt(k - 1.0)
    for t in PROBES:
        assert boundary(family, k, HALF_PI - t) == pytest.approx(boundary(family, k, t),
                                                                 rel=1e-12)
    radii = [boundary(family, k, t) for t in PROBES if t < 0.25 * math.pi]
    assert all(a < b for a, b in zip(radii, radii[1:]))


# The raster half: basin_raster's own grids, 512^2 for f4/fn and 64^2 for
# h/hn as in the benchmark, on (-5, 5)^2 and on a window shifted by a
# fraction of a pixel.  2,000 seeded pixels of each (all of a 64^2 raster's
# off the band) are checked against B with mu = 1e-6, leaving out chart
# angles within 0.02 of the diagonal pi/4, where B grows without bound.
RASTER_MU = 1e-6
RASTER_BAND = 0.02
RASTER_SPECS = [("f4", 4, 512), ("fn", 3, 512), ("fn", 5, 512), ("fn", 12, 512),
                ("h", 4, 64), ("hn", 5, 64)]


def raster_mismatches(family, n, res, k, shift, m=modulus):
    window = (-5.0 + shift, 5.0 + shift, -5.0 + 0.6 * shift, 5.0 + 0.6 * shift)
    kinds = basin_raster(MapSpec(family, k=k, n=n), window, res, res).kinds.ravel()
    xs = window[0] + (np.arange(res) + 0.5) * 10.0 / res
    ys = window[3] - (np.arange(res) + 0.5) * 10.0 / res
    gx, gy = (g.ravel() for g in np.meshgrid(xs, ys))
    rng = np.random.default_rng([res, n, int(k * 100)])
    picks = rng.choice(gx.size, size=min(2_000, gx.size), replace=False)
    outside = 0 if family in ("h", "hn") else 2
    checked = bad = 0
    for i in picks.tolist():
        f = (math.atan2(gy[i], gx[i]) * n / TWO_PI) % 1.0
        t = HALF_PI * min(f, 1.0 - f)  # the folded chart angle
        if t > 0.25 * math.pi - RASTER_BAND:
            continue
        r, b = math.hypot(gx[i], gy[i]), boundary(family, k, t, m)
        want = 1 if r < b * (1.0 - RASTER_MU) else outside if r > b * (1.0 + RASTER_MU) else None
        if want is not None:
            checked += 1
            bad += int(kinds[i]) != want
    return checked, bad


@pytest.mark.parametrize("shift", [0.0, 0.0037])
@pytest.mark.parametrize("k", [1.1, 1.15])
@pytest.mark.parametrize("family, n, res", RASTER_SPECS)
def test_raster_pixels_take_their_side_of_the_boundary(family, n, res, k, shift):
    checked, bad = raster_mismatches(family, n, res, k, shift)
    assert checked > 1_500 and bad == 0


@pytest.mark.parametrize("family, n, res", [("f4", 4, 512), ("hn", 5, 64)])
def test_raster_oracle_with_unit_modulus_is_refuted(family, n, res):
    assert raster_mismatches(family, n, res, 1.1, 0.0, m=lambda t: 1.0)[1] > 0
