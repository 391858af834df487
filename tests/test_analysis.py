import math

import numpy as np
import pytest

import znmap.analysis as analysis
from znmap.analysis import (
    DEFAULT_SEED,
    _eig_max_modulus,
    classify_batch,
    equivariance_residual,
    find_periodic,
    iterate,
    seeded_points,
    spectral_scan,
)
from znmap.maps import (TWO_PI, MapSpec, _jac_entries, _libm, _rotation, eval_map, eval_points,
                        from_polar, jac_map, jac_points, to_polar)
from znmap.verify import (_GLUING_H, _gluing, _image_radii, _origin_ratios, check_equivariance,
                          check_properness)

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
        assert close(p, _rotation(j, 4)(*P), 1e-12)


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


KIND = {0: "undecided", 1: "converged", 2: "escaped"}


def classify_one(spec, p0, **kwargs):
    """Kind name and steps of one orbit, classified as a batch of one
    start (steps -1 when undecided)."""
    kinds, steps = classify_batch(spec, [p0[0]], [p0[1]], **kwargs)
    return KIND[int(kinds[0])], int(steps[0])


def test_classify_orbit_examples():
    kind, steps = classify_one(F4, (0.5, 0.5), budget=200)
    assert kind == "converged" and steps <= 60
    kind, steps = classify_one(F4, P, budget=100)
    assert kind == "undecided" and steps == -1
    # saturated family never escapes a generous threshold
    hn = MapSpec("hn", k=K, n=4)
    kind, _ = classify_one(hn, (100.0, 0.0), budget=400, r_escape=1e3)
    assert kind != "escaped"


def test_classify_orbit_rejects_bad_thresholds():
    with pytest.raises(ValueError):
        classify_one(F4, (1.0, 0.0), eps_in=1.0, r_escape=0.5)


@pytest.mark.parametrize("start, kind", [((0.5, 0.5), "converged"),
                                         ((10.0, 0.0), "escaped"), (P, "undecided")])
def test_classify_orbit_callable_matches_spec(start, kind):
    # a callable gets no closed-form region, so the spec may decide sooner
    by_spec = classify_one(F4, start, budget=300)
    by_callable = classify_one(lambda p: eval_map(F4, p), start, budget=300)
    assert by_spec[0] == by_callable[0] == kind
    assert (by_spec[1] == -1) == (kind == "undecided")
    assert 0 <= by_spec[1] <= by_callable[1] or by_spec[1] == by_callable[1] == -1


@pytest.mark.parametrize("start", [(0.5, 0.5), (10.0, 0.0), P])
def test_classify_orbit_callable_matches_spec_without_regions(start, undecided_retirements):
    # without the regions that decide a kind the spec decides at the callable's step
    by_callable = classify_one(lambda p: eval_map(F4, p), start, budget=300)
    assert classify_one(F4, start, budget=300) == by_callable


def test_classify_batch_matches_single_calls():
    pts = seeded_points(50, 4.0, seed=123)
    kinds, steps = classify_batch(F4, pts[:, 0], pts[:, 1], budget=300)
    for i, (x, y) in enumerate(pts):
        assert classify_one(F4, (x, y), budget=300) == (KIND[int(kinds[i])], int(steps[i]))


# ---------------------------------------------------------------------------
# periodic orbits
# ---------------------------------------------------------------------------

def test_find_periodic_f4_orbit():
    orb = find_periodic(F4, (3.0, 0.1), 4)
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
    orb = find_periodic(F4, (3.0, 0.1), 4)
    again = find_periodic(F4, orb.point, 4)
    assert close(again.point, orb.point, 1e-12)


def test_find_periodic_fixed_point_at_origin():
    orb = find_periodic(F4, (0.01, 0.01), 1)
    assert math.hypot(*orb.point) <= 1e-10


def test_find_periodic_g4_continuation():
    beta = 0.05
    spec = MapSpec("g4", k=K, beta=beta)
    orb = find_periodic(spec, P, 4)
    assert orb.residual <= 1e-10
    assert orb.minimal
    # the rotational term keeps the orbit on the axes but shifts its radius:
    # k r^2/(1+r^2) + beta = 1 gives r = sqrt((1-beta)/(k-1+beta))
    r_expected = math.sqrt((1.0 - beta) / (K - 1.0 + beta))
    assert close(orb.point, (r_expected, 0.0), 1e-9)
    # genuine period 4: a perturbed restart lands on the same orbit
    redo = find_periodic(spec, (orb.point[0] + 1e-3, orb.point[1] - 1e-3), 4)
    assert close(redo.point, orb.point, 1e-8)


def test_find_periodic_singular_system():
    shift = lambda p: (p[0] + 1.0, p[1] + 1.0)  # derivative of f^q - id is zero
    with pytest.raises(RuntimeError, match="singular"):
        find_periodic(shift, (1.0, 1.0), 3)


def test_find_periodic_no_convergence():
    runaway = lambda p: (p[0] * p[0] + 1.0, 0.5 * p[1])  # no real fixed point in x
    with pytest.raises(RuntimeError, match="convergence"):
        find_periodic(runaway, (0.0, 0.5), 1)


def test_find_periodic_reports_non_minimal_period():
    orb = find_periodic(F4, (3.0, 0.1), 8)  # true period 4 divides 8
    assert not orb.minimal


@pytest.mark.parametrize("period", [5, 10])  # minimal, and twice the true period
def test_find_periodic_orbit_residual_and_minimal_match_recomputation(period):
    spec = MapSpec("fn", k=K, n=5)
    tol = analysis._NEWTON_TOL
    orb = find_periodic(spec, (3.0, 0.1), period)
    p = orb.point
    images = [p]
    for _ in range(period):
        images.append(eval_map(spec, images[-1]))
    assert orb.orbit == images[:period]
    assert orb.residual == math.hypot(images[period][0] - p[0], images[period][1] - p[1])
    assert orb.residual <= tol
    assert orb.minimal == all(math.hypot(images[d][0] - p[0], images[d][1] - p[1]) > 10 * tol
                              for d in range(1, period) if period % d == 0)
    assert orb.minimal == (period == 5)


@pytest.mark.parametrize("period", [1, 4, 8])
def test_find_periodic_evaluates_nothing_after_convergence(period):
    # Each Newton update takes period calls for the residual and 4*period
    # for the composite's Jacobian, the residual evaluation that converged
    # period more; the multipliers, on first read, take 4 finite-difference
    # calls per orbit point.
    calls = []

    def f(p):
        calls.append(p)
        return eval_map(F4, p)

    guess = (0.01, 0.01) if period == 1 else (3.0, 0.1)
    orb = find_periodic(f, guess, period)
    assert orb.iterations >= 1
    assert len(calls) == period * (5 * orb.iterations + 1)
    assert calls[-period:] == orb.orbit
    # restarted on the converged point: one residual evaluation, and nothing else
    calls.clear()
    again = find_periodic(f, orb.point, period)
    assert again.iterations == 0
    assert len(calls) == period
    assert again.orbit == orb.orbit and again.residual == orb.residual
    calls.clear()
    mults = again.multipliers
    assert len(calls) == 4 * period
    assert again.multipliers is mults and len(calls) == 4 * period


# one solve of each family that takes at least one Newton update
SOLVES = [
    (F4, (3.0, 0.1), 4),
    (MapSpec("g4", k=K, beta=0.05), P, 4),
    (MapSpec("fn", k=K, n=5), (3.0, 0.1), 5),
    (MapSpec("hn", k=K, n=5), (3.0, 0.1), 5),
    (MapSpec("h", k=K), (11.2, 0.1), 4),
    (lambda p: eval_map(F4, p), (3.0, 0.1), 4),
]
SOLVE_IDS = ["f4", "g4", "fn", "hn", "h", "callable"]


def complex_bits(values):
    return [(float(v.real).hex(), float(v.imag).hex()) for v in values]


@pytest.mark.parametrize("spec, guess, period", SOLVES, ids=SOLVE_IDS)
def test_find_periodic_computes_multipliers_only_when_read(spec, guess, period, monkeypatch):
    # no jac_map or eigvals call until the first read, which then gives
    # bitwise the eager chain of jac_map and eigvals along the orbit
    jacs, eigs = [], []
    jac, eigvals = analysis.jac_map, np.linalg.eigvals
    monkeypatch.setattr(analysis, "jac_map", lambda *args: jacs.append(args) or jac(*args))
    monkeypatch.setattr(np.linalg, "eigvals", lambda *args: eigs.append(args) or eigvals(*args))
    orb = find_periodic(spec, guess, period)
    assert (jacs, eigs) == ([], [])
    mults = orb.multipliers
    assert [pt for _, pt in jacs] == orb.orbit and len(eigs) == 1
    prod = np.eye(2)
    for pt in orb.orbit:
        prod = jac(spec, pt) @ prod
    assert complex_bits(mults) == complex_bits(eigvals(prod))


@pytest.mark.parametrize("spec, guess, period", SOLVES, ids=SOLVE_IDS)
def test_find_periodic_point_and_orbit_are_floats(spec, guess, period):
    orb = find_periodic(spec, guess, period)
    assert orb.iterations >= 1
    assert all(type(c) is float for pt in [orb.point, *orb.orbit] for c in pt)


@pytest.mark.parametrize("entries", [
    (math.nan, 1.0, 0.0, 1.0),   # NaN entry
    (math.inf, 1.0, 0.0, 1.0),   # inf entry
    (0.0, 0.0, 0.0, 0.0),        # zero matrix
    (1.0, 2.0, 2.0, 4.0),        # rank 1
], ids=["nan", "inf", "zero", "rank-1"])
def test_solve2_raises_on_singular_systems(entries):
    with pytest.raises(RuntimeError, match="singular Newton system"):
        analysis._solve2(*entries, 1.0, 1.0)


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------

def test_equivariance_residual_values():
    assert equivariance_residual(F4, 4, samples=500, radius=10.0) <= 1e-12
    assert equivariance_residual(F4, 2, samples=500, radius=10.0) <= 1e-12
    probe = equivariance_residual(MapSpec("fn", k=K, n=5), 4, samples=100, radius=5.0)
    assert probe >= 0.1


def rotate_per_point(p, m, n):
    """maps._rotation as a chain of branches taken for each point."""
    mm = m % n
    x, y = p
    if (4 * mm) % n == 0:
        q = (4 * mm // n) % 4
        if q == 0:
            return x, y
        if q == 1:
            return -y, x
        if q == 2:
            return -x, -y
        return y, -x
    ang = TWO_PI * mm / n
    c = math.cos(ang)
    s = math.sin(ang)
    return c * x - s * y, s * x + c * y


def equivariance_residual_per_point(spec, n, samples, radius, seed, normalized=False):
    """equivariance_residual with the rotation taken point by point: the
    oracle of its rotation built once per call."""
    worst = 0.0
    for px, py in seeded_points(samples, radius, seed).tolist():
        f_rp = eval_map(spec, rotate_per_point((px, py), 1, n))
        r_fp = rotate_per_point(eval_map(spec, (px, py)), 1, n)
        res = math.hypot(f_rp[0] - r_fp[0], f_rp[1] - r_fp[1])
        if normalized:
            res /= 1.0 + math.hypot(px, py) ** 3
        worst = max(worst, res)
    return worst


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 5, 7])
def test_equivariance_residual_is_the_per_point_rotation_bitwise(seed):
    for n in range(2, 9):
        spec = MapSpec("fn", k=K, n=n)
        assert (equivariance_residual(spec, n, samples=60, radius=10.0, seed=seed,
                                      normalized=True)
                == equivariance_residual_per_point(spec, n, 60, 10.0, seed, normalized=True))
    # the negative control: fn of order 5 probed with the quarter turn
    spec = MapSpec("fn", k=K, n=5)
    res = equivariance_residual(spec, 4, samples=40, radius=5.0, seed=seed)
    assert res == equivariance_residual_per_point(spec, 4, 40, 5.0, seed) and res >= 0.1


@pytest.mark.parametrize("seed, k", [(DEFAULT_SEED, 1.1), (5, 1.02), (7, 1.15)])
def test_check_equivariance_is_the_max_of_the_per_order_residuals(seed, k):
    # the check draws its points and weights once for all n; the statistic
    # is bitwise the max of the public per-order residuals
    per_order = [equivariance_residual(MapSpec("fn", k=k, n=n), n, normalized=True, seed=seed)
                 for n in range(2, 9)]
    assert check_equivariance(k, seed).statistic == max(per_order)


def all_math_max_residual(spec, n, px, py, weight):
    """The reduction _max_residual replaces: math.hypot at every residual."""
    rot = _rotation(1, n)
    f_rp = eval_points(spec, *rot(px, py))
    r_fp = rot(*eval_points(spec, px, py))
    res = _libm(math.hypot)(f_rp[0] - r_fp[0], f_rp[1] - r_fp[1]) / weight
    return float(np.fmax.reduce(res, initial=0.0))


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 5, 7])
def test_max_residual_is_the_all_math_reduction_bitwise(seed):
    px, py = seeded_points(10_000, 10.0, seed).T
    weight = analysis._cubic_weight(px, py)
    for n in range(2, 9):
        spec = MapSpec("fn", k=K, n=n)
        for w in (weight, 1.0):
            got = analysis._max_residual(spec, n, px, py, w)
            assert got.hex() == all_math_max_residual(spec, n, px, py, w).hex(), (n, w)


def test_max_residual_on_ties_nan_inf_and_zeros():
    # under the quarter turn, p -> (x, 0) has the residual hypot(y, x)
    def first(p):
        return p[0], 0.0

    def assert_all_math(px, py, w):
        want = all_math_max_residual(first, 4, px, py, w)
        assert analysis._max_residual(first, 4, px, py, w).hex() == want.hex()

    # np.hypot is below math.hypot at a and above it at c (10 such points of
    # these 2,000 on x86-64 with numpy 2.4); weighing c so that numpy ranks it
    # first makes math rank a first: the max must come from math's ranking
    x, y = seeded_points(2_000, 10.0, 7).T
    fast, libm = np.hypot(y, x), _libm(math.hypot)(y, x)
    for a in np.flatnonzero(fast < libm):
        for c in np.flatnonzero(fast > libm):
            assert_all_math(x[[a, c]], y[[a, c]],
                            np.array([1.0, fast[c] / np.nextafter(fast[a], math.inf)]))
    cases = [(x, y),
             (np.append(x, math.nan), np.append(y, 1.0)),
             (np.append(x, math.inf), np.append(y, math.nan)),
             (np.zeros(5), np.array([0.0, -0.0, 0.0, -0.0, 0.0])),
             (np.array([math.nan, 0.0]), np.array([1.0, math.nan])),
             (np.array([1e308, 1.7e308]), np.array([1e308, 1.7e308]))]
    for px, py in cases:
        for w in (1.0, np.linspace(1.0, 1.001, px.size)):
            assert_all_math(px, py, w)
    assert analysis._max_residual(first, 4, *cases[2], 1.0) == math.inf
    assert analysis._max_residual(first, 4, *cases[4], 1.0) == 0.0  # all NaN
    assert analysis._max_residual(MapSpec("fn", k=K, n=4), 4, x, y, 1.0) == 0.0  # exact


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
    mismatches, (j_hi, j_lo) = _gluing(K, 6, 1.0)
    # the pass rule of check_gluing at (n, r) = (6, 1)
    assert np.abs(j_hi - j_lo).max() <= 1e-6 * 2.0
    assert all(b < a for a, b in zip(mismatches, mismatches[1:]))
    assert _origin_ratios(K, 6)[-1] < 1e-3


def test_boundary_smoothness_order_four_single_formula():
    _, (j_hi, j_lo) = _gluing(K, 4, 1.0)
    assert np.abs(j_hi - j_lo).max() <= 1e-9


def test_jac_fn_on_boundary_matches_one_sided_differences():
    n, r = 6, 1.0
    assert _GLUING_H[-1] == 1e-6
    analytic = jac_map(MapSpec("fn", k=K, n=n), from_polar((r, TWO_PI / n)))
    for est in _gluing(K, n, r)[1]:  # the one-sided stencil, each side
        assert np.abs(analytic - est).max() <= 1e-6


def test_origin_differentiability_ratio():
    origin_ratios = _origin_ratios(K, 5)
    assert _GLUING_H[0] == 1e-3
    # |f| <= k r^3/(1+r^2) pulls the ratio down like h^2
    assert origin_ratios[0] <= 1.2e-6


@pytest.mark.parametrize("spec", [MapSpec("g4", k=K, beta=0.05), MapSpec("fn", k=K, n=5),
                                  MapSpec("hn", k=K, n=7)])
def test_image_radii_is_the_per_point_loop_bitwise(spec):
    # the sampled checks' circles: from_polar, eval_map and math.hypot per point
    theta = TWO_PI * np.arange(90) / 90
    for r in (1e-6, 2.0, 100.0, np.linspace(7.0, 300.0, 90)):
        radii = np.broadcast_to(r, theta.shape).tolist()
        loop = [math.hypot(*eval_map(spec, from_polar((rv, t))))
                for rv, t in zip(radii, theta.tolist())]
        assert _image_radii(spec, r, theta).tolist() == loop


def test_spectral_scan_bound_and_axes():
    scan = spectral_scan(F4, (-20.0, 20.0, -20.0, 20.0), 200)
    assert scan.max_modulus < K * math.sqrt(3.0) / 2.0
    assert scan.samples == 200 * 200
    for t in np.linspace(-20.0, 20.0, 100):
        assert np.abs(np.linalg.eigvals(jac_map(F4, (t, 0.0)))).max() <= 1e-14


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


def pointwise_scan(spec, region, nx, ny):
    """Reference scan: one eigvals call per grid point, row-major, and a
    strict > so that the first of tied maxima wins."""
    best, arg = -1.0, None
    for yv in np.linspace(region[2], region[3], ny):
        for xv in np.linspace(region[0], region[1], nx):
            m = float(np.abs(np.linalg.eigvals(jac_map(spec, (xv, yv)))).max())
            if m > best:
                best, arg = m, (float(xv), float(yv))
    return best, arg


@pytest.mark.parametrize("spec", [
    MapSpec("fn", k=K, n=5), MapSpec("h", k=K), MapSpec("hn", k=K, n=5),
    lambda p: (p[0] * p[0] - p[1] * p[1] + 0.5 * p[1], 2.0 * p[0] * p[1] - 0.3 * p[0]),
], ids=["fn", "h", "hn", "callable"])
def test_spectral_scan_fallback_matches_pointwise_loop(spec):
    region = (-3.0, 4.0, -2.5, 2.0)
    scan = spectral_scan(spec, region, (7, 5))
    assert scan.samples == 35
    assert (scan.max_modulus, scan.argmax) == pointwise_scan(spec, region, 7, 5)


def test_spectral_scan_fallback_ties_go_to_first_in_row_major_order():
    # On this symmetric window the maximum of fn at n = 4 is taken bit for
    # bit at (-2, 2) and at (2, 2), both in the last row; (-2, 2) comes first.
    spec = MapSpec("fn", k=K, n=4)
    region = (-2.0, 2.0, -2.0, 2.0)
    scan = spectral_scan(spec, region, 5)
    tied = [float(np.abs(np.linalg.eigvals(jac_map(spec, p))).max())
            for p in ((-2.0, 2.0), (2.0, 2.0))]
    assert tied[0] == tied[1] == scan.max_modulus
    assert scan.argmax == (-2.0, 2.0)
    assert (scan.max_modulus, scan.argmax) == pointwise_scan(spec, region, 5, 5)


def whole_grid_scan(spec, region, nx, ny):
    """spectral_scan on the whole meshgrid at once, the oracle of its row
    blocks: the f4/g4 closed form, or else the modulus of each finite
    jac_points matrix, one np.linalg.eigvals call each, and NaN for the
    others."""
    xs = np.linspace(region[0], region[1], nx)
    ys = np.linspace(region[2], region[3], ny)
    gx, gy = np.meshgrid(xs, ys)
    with np.errstate(all="ignore"):
        if not callable(spec) and spec.family in ("f4", "g4"):
            mods = _eig_max_modulus(*_jac_entries(spec, gx, gy))
        else:
            mods = np.array([np.abs(np.linalg.eigvals(j)).max() if np.isfinite(j).all()
                             else np.nan for j in jac_points(spec, gx.ravel(), gy.ravel())])
            mods = mods.reshape(ny, nx)
    iy, ix = np.unravel_index(int(np.argmax(mods)), mods.shape)
    return float(mods[iy, ix]), (float(xs[ix]), float(ys[iy])), nx * ny


def assert_scan_is_whole_grid(spec, region, nx, ny):
    scan = spectral_scan(spec, region, (nx, ny))
    best, arg, samples = whole_grid_scan(spec, region, nx, ny)
    # bits, so that a NaN maximum compares too
    assert np.float64(scan.max_modulus).tobytes() == np.float64(best).tobytes()
    assert (scan.argmax, scan.samples) == (arg, samples)
    return scan


G4_FULL = MapSpec("g4", k=K, alpha=0.1, beta=0.05, delta=0.01)


@pytest.mark.parametrize("spec, region, nx, ny", [
    (F4, (-20.0, 20.0, -20.0, 20.0), 1000, 1000),  # 1000 rows, 16 per block
    (F4, (-3.0, 4.0, -2.5, 2.0), analysis._SCAN_BLOCK + 7, 3),  # one row per block
    (F4, (-20.0, 20.0, -20.0, 20.0), 1000, 37),  # 37 rows: 16 + 16 + 5
    # 5 rows: 2 + 2 + 1, the maximum in the last block
    (F4, (-2.0, 2.0, -1.0, 2.0), analysis._SCAN_BLOCK // 2, 5),
    (F4, (-20.0, 20.0, 0.0, 0.0), 1000, 2),
    (F4, (0.0, 0.0, -20.0, 20.0), 2, 1000),
    (G4_FULL, (-20.0, 20.0, -20.0, 20.0), 300, 300),
    (G4_FULL, (-3.0, 4.0, -2.5, 2.0), 2000, 21),
], ids=["f4-1000sq", "f4-wide-rows", "f4-ragged", "f4-last-row", "f4-x-axis", "f4-y-axis",
        "g4-300sq", "g4-ragged"])
def test_spectral_scan_blocks_are_the_whole_grid_bitwise(spec, region, nx, ny):
    assert_scan_is_whole_grid(spec, region, nx, ny)


@pytest.mark.parametrize("block", [1, 10, analysis._SCAN_BLOCK])
@pytest.mark.parametrize("spec", [F4, G4_FULL, MapSpec("fn", k=K, n=5), MapSpec("h", k=K),
                                  MapSpec("hn", k=K, n=5),
                                  lambda p: eval_map(MapSpec("fn", k=K, n=5), p)],
                         ids=["f4", "g4", "fn5", "h", "hn5", "callable"])
def test_spectral_scan_blocks_keep_the_first_nan(monkeypatch, spec, block):
    # beyond |p| ~ 1.3e154 the squares overflow and the entries turn NaN;
    # the first grid point is the origin, so the first NaN is not at index 0.
    # No warning: the test suite turns RuntimeWarnings into errors.
    monkeypatch.setattr(analysis, "_SCAN_BLOCK", block)
    scan = assert_scan_is_whole_grid(spec, (0.0, 1e160, 0.0, 1e160), 5, 7)
    assert math.isnan(scan.max_modulus) and scan.argmax == (2.5e159, 0.0)
    if not callable(spec):
        # a callable takes h/hn's jac_points branch one Python call per
        # point: about 2 s per pass over this grid
        assert_scan_is_whole_grid(spec, (-1e155, 1e155, -1e155, 1e155), 301, 300)


@pytest.mark.parametrize("block", [1, 5, 10])
def test_spectral_scan_tie_across_blocks_goes_to_the_first(monkeypatch, block):
    # the four corners of (-2, 2)^2 tie bit for bit; with blocks of one or
    # two rows the tied rows 0 and 4 fall in different blocks
    monkeypatch.setattr(analysis, "_SCAN_BLOCK", block)
    xs = np.linspace(-2.0, 2.0, 5)
    mods = _eig_max_modulus(*_jac_entries(F4, *np.meshgrid(xs, xs)))
    assert mods[0, 0] == mods[0, 4] == mods[4, 0] == mods[4, 4] == mods.max()
    scan = assert_scan_is_whole_grid(F4, (-2.0, 2.0, -2.0, 2.0), 5, 5)
    assert scan.argmax == (-2.0, -2.0)


def per_point_scan(spec, region, nx, ny):
    """spectral_scan's former path for families without closed-form
    moduli, the oracle: jac_map at each grid point in row-major order and
    one np.linalg.eigvals call on their stack.  The coordinates go in as
    floats: np.float64 operands despecialize CPython's float bytecodes in
    the map kernels, which then pick the other NaN of an operation on two
    NaNs, and the NaN bits that test_maps pins would depend on test order."""
    xs = np.linspace(region[0], region[1], nx)
    ys = np.linspace(region[2], region[3], ny)
    jacs = np.array([jac_map(spec, (xv, yv)) for yv in ys.tolist() for xv in xs.tolist()])
    mods = np.abs(np.linalg.eigvals(jacs)).max(axis=1).reshape(ny, nx)
    iy, ix = np.unravel_index(int(np.argmax(mods)), mods.shape)
    return float(mods[iy, ix]), (float(xs[ix]), float(ys[iy])), nx * ny


FN5 = MapSpec("fn", k=K, n=5)
SCAN_SPECS = [FN5, MapSpec("fn", k=K, n=4), MapSpec("h", k=K), MapSpec("hn", k=K, n=5),
              MapSpec("hn", k=K, n=3), lambda p: eval_map(FN5, p)]
SCAN_IDS = ["fn5", "fn4", "h", "hn5", "hn3", "callable"]


@pytest.mark.parametrize("block", [1, 10, analysis._SCAN_BLOCK])
@pytest.mark.parametrize("spec", SCAN_SPECS, ids=SCAN_IDS)
def test_spectral_scan_is_the_per_point_scan(monkeypatch, spec, block):
    # ragged grids, grids of several blocks, grids through the origin and
    # the boundary rays, and one far enough out to overflow
    monkeypatch.setattr(analysis, "_SCAN_BLOCK", block)
    for region, nx, ny in [((-20.0, 20.0, -20.0, 20.0), 31, 31), ((-3.0, 4.0, -2.5, 2.0), 7, 13),
                           ((-1.0, 1.0, -1.0, 1.0), 5, 5), ((0.5, 60.0, -0.3, 9.0), 23, 4),
                           ((-2.0, 2.0, 1.0, 1.0), 3, 2)]:
        scan = spectral_scan(spec, region, (nx, ny))
        best, arg, samples = per_point_scan(spec, region, nx, ny)
        assert np.float64(scan.max_modulus).tobytes() == np.float64(best).tobytes()
        assert (scan.argmax, scan.samples) == (arg, samples), region


@pytest.mark.parametrize("block", [1, 5, 10])
def test_spectral_scan_jacobian_tie_across_blocks_goes_to_the_first(monkeypatch, block):
    # h is odd bit for bit, so its central differences at p and -p are
    # equal bit for bit: the corners (-2, -2) and (2, 2) tie, and with
    # blocks of one or two rows they fall in different blocks
    spec = MapSpec("h", k=K)
    monkeypatch.setattr(analysis, "_SCAN_BLOCK", block)
    assert (jac_map(spec, (-2.0, -2.0)) == jac_map(spec, (2.0, 2.0))).all()
    scan = spectral_scan(spec, (-2.0, 2.0, -2.0, 2.0), 5)
    assert (scan.max_modulus, scan.argmax) == per_point_scan(spec, (-2.0, 2.0, -2.0, 2.0), 5, 5)[:2]
    assert scan.argmax == (-2.0, -2.0)
    assert np.abs(np.linalg.eigvals(jac_map(spec, (2.0, 2.0)))).max() == scan.max_modulus


@pytest.mark.parametrize("grid", [np.int64(5), np.int32(5), (np.int16(5), 5), [5, np.uint8(5)]])
def test_spectral_scan_takes_any_integer_grid(grid):
    want = spectral_scan(F4, (-1, 1, -1, 1), 5)
    got = spectral_scan(F4, (-1, 1, -1, 1), grid)
    assert (got.max_modulus, got.argmax, got.samples) == (want.max_modulus, want.argmax, 25)


@pytest.mark.parametrize("grid", [5.0, np.float64(5), (5, 5.5), (5, 5, 5), (5,), "5", None])
def test_spectral_scan_rejects_a_non_integer_grid(grid):
    with pytest.raises(TypeError, match="grid must be an integer or a pair of integers"):
        spectral_scan(F4, (-1, 1, -1, 1), grid)


def test_spectral_scan_rejects_tiny_grid():
    with pytest.raises(ValueError):
        spectral_scan(F4, (-1, 1, -1, 1), 1)


def test_properness_lower_bounds():
    result = check_properness(K)
    assert result.passed
    assert result.params["radii"] == [2, 10, 100] and result.params["beta"] == 0.05
    # min over radii of (min image radius)/((k/4) r), e.g. 2.75 at r = 10
    assert result.statistic >= 1.0
    # the bound holds for the undeformed map too
    g4 = MapSpec("g4", k=K)
    for i in range(360):
        img = eval_map(g4, from_polar((10.0, TWO_PI * i / 360)))
        assert math.hypot(*img) >= 0.25 * K * 10.0
