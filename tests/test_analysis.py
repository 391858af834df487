import math

import numpy as np
import pytest

from znmap.analysis import (
    DEFAULT_SEED,
    boundary_smoothness_check,
    classify_batch,
    classify_orbit,
    equivariance_residual,
    find_periodic,
    iterate,
    properness_check,
    seeded_points,
    spectral_scan,
)
from znmap.geometry import TWO_PI, from_polar, rotate, to_polar
from znmap.maps import MapSpec, eval_map, jac_map

K = 1.1
P = (1.0 / math.sqrt(K - 1.0), 0.0)
F4 = MapSpec("f4", k=K)


def close(a, b, tol=1e-12):
    return math.hypot(a[0] - b[0], a[1] - b[1]) <= tol


# ---------------------------------------------------------------------------
# iteration and classification
# ---------------------------------------------------------------------------

def test_iterate_fixed_origin():
    orb = iterate(F4, (0.0, 0.0), 10)
    assert all(p == (0.0, 0.0) or p == (-0.0, 0.0) for p in orb.points)
    assert not orb.escaped


def test_iterate_periodic_orbit_tracks_rotations():
    orb = iterate(F4, P, 12)
    for j, p in enumerate(orb.points):
        assert close(p, rotate(P, j, 4), 1e-12)


def test_iterate_contracting_orbit():
    orb = iterate(F4, (0.5, 0.5), 60)
    radii = [math.hypot(*p) for p in orb.points]
    assert all(b < a for a, b in zip(radii, radii[1:5]))
    assert radii[-1] < 1e-8


def test_iterate_truncates_on_overflow():
    blow = lambda p: (p[0] * 1e20, p[1] * 1e20)
    orb = iterate(blow, (1.0, 1.0), 100)
    assert orb.escaped
    assert len(orb.points) < 101


def test_classify_orbit_examples():
    v = classify_orbit(F4, (0.5, 0.5), budget=200)
    assert v.kind == "converged" and v.steps <= 60
    v = classify_orbit(F4, P, budget=100)
    assert v.kind == "undecided" and v.steps is None
    # saturated family never escapes a generous threshold
    hn = MapSpec("hn", k=K, n=4)
    v = classify_orbit(hn, (100.0, 0.0), budget=400, r_escape=1e3)
    assert v.kind != "escaped"


def test_classify_orbit_rejects_bad_thresholds():
    with pytest.raises(ValueError):
        classify_orbit(F4, (1.0, 0.0), eps_in=1.0, r_escape=0.5)


@pytest.mark.parametrize("start, kind", [((0.5, 0.5), "converged"),
                                         ((10.0, 0.0), "escaped"), (P, "undecided")])
def test_classify_orbit_callable_matches_spec(start, kind):
    by_spec = classify_orbit(F4, start, budget=300)
    by_callable = classify_orbit(lambda p: eval_map(F4, p), start, budget=300)
    assert by_spec.kind == by_callable.kind == kind
    assert by_spec.steps == by_callable.steps


def test_classify_batch_matches_single_calls():
    pts = seeded_points(50, 4.0, seed=123)
    kinds, steps = classify_batch(F4, pts[:, 0], pts[:, 1], budget=300)
    names = {0: "undecided", 1: "converged", 2: "escaped"}
    for i, (x, y) in enumerate(pts):
        v = classify_orbit(F4, (x, y), budget=300)
        assert v.kind == names[int(kinds[i])]
        if v.kind != "undecided":
            assert v.steps == int(steps[i])


# ---------------------------------------------------------------------------
# periodic orbits
# ---------------------------------------------------------------------------

def test_find_periodic_f4_orbit():
    orb = find_periodic(F4, (3.0, 0.1), 4, tol=1e-12)
    assert close(orb.point, P, 1e-10)
    assert orb.residual <= 1e-12
    assert orb.minimal
    mods = sorted(abs(m) for m in orb.multipliers)
    assert mods[0] <= 1e-6           # superstable transverse direction
    assert abs(mods[1] - (K * P[0] ** 2 * (3 + P[0] ** 2)
                          / (1 + P[0] ** 2) ** 2) ** 4) <= 1e-6


@pytest.mark.parametrize("n", range(2, 9))
def test_find_periodic_fn_multipliers_match_closed_form(n):
    # On the axes fn is the radial map psi(r) = k r^3/(1+r^2) followed by an
    # exact 1/n turn, with psi'(P) = (3k-2)/k; the angular derivative
    # vanishes on the boundary rays, so the other multiplier is 0.
    orb = find_periodic(MapSpec("fn", k=K, n=n), (3.0, 0.1), n)
    small, big = sorted(abs(m) for m in orb.multipliers)
    expected = ((3.0 * K - 2.0) / K) ** n
    assert abs(big - expected) <= 1e-12 * expected
    assert small <= 1e-12 * expected


def test_find_periodic_is_idempotent():
    orb = find_periodic(F4, (3.0, 0.1), 4, tol=1e-12)
    again = find_periodic(F4, orb.point, 4, tol=1e-12)
    assert close(again.point, orb.point, 1e-12)


def test_find_periodic_fixed_point_at_origin():
    orb = find_periodic(F4, (0.01, 0.01), 1, tol=1e-12)
    assert math.hypot(*orb.point) <= 1e-10


def test_find_periodic_g4_continuation():
    beta = 0.05
    spec = MapSpec("g4", k=K, beta=beta)
    orb = find_periodic(spec, P, 4, tol=1e-12)
    assert orb.residual <= 1e-10
    assert orb.minimal
    # the rotational term keeps the orbit on the axes but shifts its radius:
    # k r^2/(1+r^2) + beta = 1 gives r = sqrt((1-beta)/(k-1+beta))
    r_expected = math.sqrt((1.0 - beta) / (K - 1.0 + beta))
    assert close(orb.point, (r_expected, 0.0), 1e-9)
    # genuine period 4: a perturbed restart lands on the same orbit
    redo = find_periodic(spec, (orb.point[0] + 1e-3, orb.point[1] - 1e-3), 4,
                         tol=1e-12)
    assert close(redo.point, orb.point, 1e-8)


def test_find_periodic_singular_system():
    shift = lambda p: (p[0] + 1.0, p[1] + 1.0)  # derivative of f^q - id is zero
    with pytest.raises(RuntimeError, match="singular"):
        find_periodic(shift, (1.0, 1.0), 3, tol=1e-12)


def test_find_periodic_no_convergence():
    runaway = lambda p: (p[0] * p[0] + 1.0, 0.5 * p[1])  # no real fixed point in x
    with pytest.raises(RuntimeError, match="convergence"):
        find_periodic(runaway, (0.0, 0.5), 1, tol=1e-12, max_iter=20)


def test_find_periodic_reports_non_minimal_period():
    orb = find_periodic(F4, (3.0, 0.1), 8, tol=1e-12)  # true period 4 divides 8
    assert not orb.minimal


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------

def test_equivariance_residual_values():
    assert equivariance_residual(F4, 4, samples=500, radius=10.0) <= 1e-12
    assert equivariance_residual(F4, 2, samples=500, radius=10.0) <= 1e-12
    probe = equivariance_residual(MapSpec("fn", k=K, n=5), 4, samples=100, radius=5.0)
    assert probe >= 0.1


def ray_image_check(spec, directions: int = 64, radii=None,
                    spread_tol: float = 1e-10) -> dict:
    """Check that each ray through the origin maps into a single ray with
    strictly increasing image radius."""
    if radii is None:
        radii = [0.25 * 2 ** i for i in range(7)]  # 0.25 .. 16
    max_spread = 0.0
    monotone = True
    for i in range(directions):
        th = TWO_PI * i / directions
        vx, vy = math.cos(th), math.sin(th)
        angles = []
        rads = []
        for t in radii:
            img = eval_map(spec, (t * vx, t * vy))
            r_im, a_im = to_polar(img)
            angles.append(a_im)
            rads.append(r_im)
        base = angles[0]
        spread = max(abs(math.remainder(a - base, TWO_PI)) for a in angles)
        max_spread = max(max_spread, spread)
        if any(rads[j + 1] <= rads[j] for j in range(len(rads) - 1)):
            monotone = False
    return {
        "max_angle_spread": max_spread,
        "radii_increasing": monotone,
        "passed": monotone and max_spread <= spread_tol,
    }


def sector_map_check(spec, n: int, samples: int = 200, seed: int = DEFAULT_SEED,
                     boundary_tol: float = 1e-10) -> dict:
    """Check that sector j maps into sector j+1 and boundary rays onto
    boundary rays (image angle 2*pi*j/n within boundary_tol)."""
    rng = np.random.default_rng(seed)
    interior_bad = 0
    for j in range(1, n + 1):
        lo = TWO_PI * (j - 1) / n
        for _ in range(samples):
            th = lo + TWO_PI / n * (0.01 + 0.98 * rng.random())
            r = 0.1 + 5.0 * rng.random()
            img = eval_map(spec, from_polar((r, th)))
            a_im = to_polar(img)[1]
            target_lo = TWO_PI * (j % n) / n
            gap = math.remainder(a_im - target_lo, TWO_PI)
            if not (-boundary_tol <= gap <= TWO_PI / n + boundary_tol):
                interior_bad += 1
    boundary_err = 0.0
    for j in range(1, n + 1):
        for r in (0.5, 1.0, 2.0, 5.0):
            p = from_polar((r, TWO_PI * (j - 1) / n))
            a_im = to_polar(eval_map(spec, p))[1]
            gap = abs(math.remainder(a_im - TWO_PI * (j % n) / n, TWO_PI))
            boundary_err = max(boundary_err, gap)
    return {
        "interior_violations": interior_bad,
        "boundary_angle_error": boundary_err,
        "passed": interior_bad == 0 and boundary_err <= boundary_tol,
    }


def test_ray_image_check_families():
    assert ray_image_check(F4)["passed"]
    assert ray_image_check(MapSpec("fn", k=K, n=6))["passed"]
    # the quadratic rotational term twists rays
    twisted = ray_image_check(MapSpec("g4", k=K, delta=0.05))
    assert not twisted["passed"]


def test_sector_map_check_families():
    assert sector_map_check(F4, 4)["passed"]
    assert sector_map_check(MapSpec("fn", k=K, n=6), 6)["passed"]
    assert sector_map_check(MapSpec("g4", k=K, beta=0.05, delta=0.01), 4)["passed"]


def test_sector_map_boundary_example():
    img = MapSpec("f4", k=K)
    from znmap.maps import eval_map
    assert close(eval_map(img, (2.0, 0.0)), (0.0, 1.76), 1e-14)


def test_boundary_smoothness_matrix_agreement():
    rep = boundary_smoothness_check(K, 6, 1.0)
    assert rep["passed"]
    assert rep["final_mismatch"] <= 1e-6 * 2.0
    assert all(b < a for a, b in zip(rep["mismatches"], rep["mismatches"][1:]))


def test_boundary_smoothness_order_four_single_formula():
    rep = boundary_smoothness_check(K, 4, 1.0)
    assert rep["final_mismatch"] <= 1e-9


def test_jac_fn_on_boundary_matches_one_sided_differences():
    from znmap.analysis import _one_sided_jacobian
    from znmap.geometry import TWO_PI, from_polar
    from znmap.maps import eval_fn, jac_fn

    n, r = 6, 1.0
    phi = TWO_PI / n
    xi = from_polar((r, phi))
    e_r = (math.cos(phi), math.sin(phi))
    e_t = (-math.sin(phi), math.cos(phi))
    fun = lambda p: eval_fn(p, K, n)
    analytic = jac_fn(xi, K, n)
    for sign in (+1.0, -1.0):
        est = _one_sided_jacobian(fun, xi, e_r, e_t, sign, 1e-6, order=2)
        assert np.abs(analytic - est).max() <= 1e-6


def test_origin_differentiability_ratio():
    rep = boundary_smoothness_check(K, 5, 1.0, h_sequence=(1e-2, 1e-3))
    # |f| <= k r^3/(1+r^2) pulls the ratio down like h^2
    assert rep["origin_ratios"][-1] <= 1.2e-6


def test_spectral_scan_bound_and_axes():
    scan = spectral_scan(F4, (-20.0, 20.0, -20.0, 20.0), 200)
    assert scan.max_modulus < K * math.sqrt(3.0) / 2.0
    assert scan.samples == 200 * 200
    from znmap.maps import jac_f4
    for t in np.linspace(-20.0, 20.0, 100):
        assert np.abs(np.linalg.eigvals(jac_f4((t, 0.0), K))).max() <= 1e-14


def test_spectral_scan_small_beta_below_one():
    scan = spectral_scan(MapSpec("g4", k=K, beta=0.02), (-20.0, 20.0, -20.0, 20.0), 200)
    assert scan.max_modulus < 1.0


def test_spectral_scan_pointwise_fallback_consistent():
    fast = spectral_scan(F4, (-3.0, 3.0, -3.0, 3.0), 21)
    slow = spectral_scan(MapSpec("fn", k=K, n=4), (-3.0, 3.0, -3.0, 3.0), 21)
    assert abs(fast.max_modulus - slow.max_modulus) <= 1e-9


def test_spectral_scan_g4_matches_pointwise_jacobian():
    spec = MapSpec("g4", k=K, alpha=0.1, beta=0.05, delta=0.01)
    scan = spectral_scan(spec, (-3.0, 3.0, -2.0, 2.0), (13, 9))
    pointwise = max(np.abs(np.linalg.eigvals(jac_map(spec, (x, y)))).max()
                    for y in np.linspace(-2.0, 2.0, 9) for x in np.linspace(-3.0, 3.0, 13))
    assert abs(scan.max_modulus - pointwise) <= 1e-12


def test_spectral_scan_rejects_tiny_grid():
    with pytest.raises(ValueError):
        spectral_scan(F4, (-1, 1, -1, 1), 1)


def test_properness_lower_bounds():
    rep = properness_check(K, 0.05, radii=(2.0, 10.0, 100.0))
    assert rep["passed"]
    by_r = {row["r"]: row for row in rep["rows"]}
    assert by_r[10.0]["min_image_radius"] >= 0.25 * K * 10.0  # 2.75
    assert by_r[100.0]["min_image_radius"] >= 0.25 * K * 100.0
    # the bound holds for the undeformed map too
    assert properness_check(K, 0.0, radii=(10.0,))["passed"]
