import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from znmap.geometry import TWO_PI, from_polar, rotate, sector_of, to_polar
from znmap.maps import (
    _MATH,
    K_MAX,
    MapSpec,
    RadialProfile,
    _f4_polar,
    default_profile,
    eval_f4,
    eval_fn,
    eval_g4,
    eval_h,
    eval_hn,
    eval_map,
    jac_f4,
    jac_f4_polar,
    jac_fn,
    jac_g4,
    jac_map,
    radial_u,
    step_batch,
)

K = 1.1
P_RADIUS = 1.0 / math.sqrt(K - 1.0)  # 3.16227766...


def close(a, b, tol=1e-12):
    return math.hypot(a[0] - b[0], a[1] - b[1]) <= tol


def fd_jacobian(fun, p, h=1e-5):
    x, y = p
    return np.array([
        [(fun((x + h, y))[0] - fun((x - h, y))[0]) / (2 * h),
         (fun((x, y + h))[0] - fun((x, y - h))[0]) / (2 * h)],
        [(fun((x + h, y))[1] - fun((x - h, y))[1]) / (2 * h),
         (fun((x, y + h))[1] - fun((x, y - h))[1]) / (2 * h)],
    ])


# ---------------------------------------------------------------------------
# base family
# ---------------------------------------------------------------------------

def test_f4_fixes_origin():
    assert eval_f4((0.0, 0.0), K) == (0.0, 0.0) or eval_f4((0.0, 0.0), K) == (-0.0, 0.0)


def test_f4_diagonal_value():
    # (1,1): denominator 3, so components are k/3
    fx, fy = eval_f4((1.0, 1.0), K)
    assert abs(fx + K / 3.0) <= 1e-15
    assert abs(fy - K / 3.0) <= 1e-15


def test_f4_maps_periodic_point_to_its_quarter_turn():
    p = (P_RADIUS, 0.0)
    assert close(eval_f4(p, K), rotate(p, 1, 4), 1e-12)
    # full period
    q = p
    for _ in range(4):
        q = eval_f4(q, K)
    assert close(q, p, 1e-12)


def test_f4_polar_matches_examples():
    psi, phi = _f4_polar(_MATH, 1.0, math.pi / 4, K)
    assert abs(psi - 0.275) <= 1e-15
    assert abs(phi - 3 * math.pi / 4) <= 1e-12
    psi, phi = _f4_polar(_MATH, 2.0, 0.0, K)
    assert abs(psi - 1.76) <= 1e-14
    assert abs(phi - math.pi / 2) <= 1e-15


def test_f4_polar_angle_below_two_pi_for_caller_angles():
    # (-sin^3, cos^3) at 3*pi/2 sits a hair below the positive x-axis, so the
    # wrapped atan2 rounds up to exactly 2*pi and must fold back to 0
    _, phi = _f4_polar(_MATH, 1.0, 1.5 * math.pi, K)
    assert 0.0 <= phi < TWO_PI


def test_f4_polar_consistent_with_cartesian():
    rng = np.random.default_rng(0)
    for _ in range(300):
        r = 10.0 * rng.random()
        th = TWO_PI * rng.random()
        p = from_polar((r, th))
        direct = eval_f4(p, K)
        via_polar = from_polar(_f4_polar(_MATH, r, th, K))
        assert close(direct, via_polar, 1e-12 * (1.0 + r ** 3))


def test_jac_f4_zero_at_origin_and_on_axes():
    assert np.abs(jac_f4((0.0, 0.0), K)).max() == 0.0
    jac = jac_f4((1.0, 0.0), K)
    assert np.allclose(jac, [[0.0, 0.0], [K, 0.0]], atol=1e-15)
    assert np.abs(np.linalg.eigvals(jac)).max() == 0.0


def test_jac_f4_spectral_bound_inside_unit_box():
    mods = np.abs(np.linalg.eigvals(jac_f4((1.0, 1.0), K)))
    assert mods.max() < K * math.sqrt(3.0) / 2.0


def test_jac_f4_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = tuple(rng.normal(0.0, 3.0, 2))
        err = np.abs(jac_f4(p, K) - fd_jacobian(lambda q: eval_f4(q, K), p)).max()
        assert err <= 1e-6 * (1.0 + math.hypot(*p) ** 2)


def test_jac_f4_polar_examples():
    for th in (0.0, math.pi / 2):
        jac = jac_f4_polar((1.0, th), K)
        assert np.allclose(jac, [[K, 0.0], [0.0, 0.0]], atol=1e-15)
    assert abs(jac_f4_polar((1.0, math.pi / 4), K)[1, 1] - 3.0) <= 1e-12
    with pytest.raises(ValueError):
        jac_f4_polar((0.0, 0.3), K)


# ---------------------------------------------------------------------------
# deformation family
# ---------------------------------------------------------------------------

def test_g4_reduces_to_f4_at_zero_parameters():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = tuple(rng.normal(0.0, 4.0, 2))
        assert eval_g4(p, K, 0.0, 0.0, 0.0) == eval_f4(p, K)


def test_g4_origin_derivative_and_stability_threshold():
    jac = jac_g4((0.0, 0.0), K, 0.3, 0.4, 0.0)
    assert np.allclose(jac, [[0.3, -0.4], [0.4, 0.3]], atol=1e-16)
    mods = np.abs(np.linalg.eigvals(jac))
    assert abs(mods.max() - 0.5) <= 1e-15  # alpha^2 + beta^2 = 0.25 < 1


def test_g4_rotational_term_value():
    assert close(eval_g4((1.0, 0.0), K, 0.0, 0.05, 0.0), (0.0, 0.6), 1e-15)


def test_g4_delta_term_jacobian_by_hand():
    # derivative of (x^2+y^2)(-y, x) at (1, 0) is [[0,-1],[1,0]] + [[0,0],[2,0]]
    jac = jac_g4((1.0, 0.0), K, 0.0, 0.0, 1.0) - jac_f4((1.0, 0.0), K)
    assert np.allclose(jac, [[0.0, -1.0], [3.0, 0.0]], atol=1e-15)


def test_g4_determinant_grows_with_beta_off_axes():
    beta = 0.05
    jf = jac_f4((1.0, 1.0), K)
    jg = jac_g4((1.0, 1.0), K, 0.0, beta, 0.0)
    b_minus_c = jf[0, 1] - jf[1, 0]
    assert b_minus_c < 0.0
    expected = np.linalg.det(jf) + beta ** 2 - beta * b_minus_c
    assert abs(np.linalg.det(jg) - expected) <= 1e-14
    assert np.linalg.det(jg) > 0.0


def test_jac_g4_matches_finite_differences():
    rng = np.random.default_rng(3)
    fun = lambda q: eval_g4(q, K, 0.2, 0.1, 0.03)
    for _ in range(50):
        p = tuple(rng.normal(0.0, 3.0, 2))
        err = np.abs(jac_g4(p, K, 0.2, 0.1, 0.03) - fd_jacobian(fun, p)).max()
        assert err <= 1e-6 * (1.0 + math.hypot(*p) ** 2)


# ---------------------------------------------------------------------------
# order-n transplants
# ---------------------------------------------------------------------------

def test_fn_order_four_is_f4_bitwise():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        p = tuple(rng.normal(0.0, 3.0, 2))
        assert eval_fn(p, K, 4) == eval_f4(p, K)


def test_fn_axis_ray_maps_to_next_boundary():
    # the positive x-axis maps to the ray at angle 2*pi/6 with radius k/2
    img = eval_fn((1.0, 0.0), K, 6)
    assert close(img, (0.275, 0.4763139720814412), 1e-12)


def test_fn_periodic_orbit_structure():
    n = 6
    p = (P_RADIUS, 0.0)
    q = p
    pts = []
    for _ in range(n):
        q = eval_fn(q, K, n)
        pts.append(q)
    assert close(pts[-1], p, 1e-11)
    for j, pt in enumerate(pts[:-1], start=1):
        assert close(pt, rotate(p, j, n), 1e-11)
        assert not close(pt, p, 1e-3)


def test_fn_equivariance_all_orders():
    rng = np.random.default_rng(5)
    for n in range(2, 9):
        worst = 0.0
        for _ in range(400):
            p = tuple(rng.normal(0.0, 4.0, 2))
            a = eval_fn(rotate(p, 1, n), K, n)
            b = rotate(eval_fn(p, K, n), 1, n)
            worst = max(worst,
                        math.hypot(a[0] - b[0], a[1] - b[1])
                        / (1.0 + math.hypot(*p) ** 3))
        assert worst <= 1e-12


def test_fn_sector_image():
    rng = np.random.default_rng(6)
    for n in (3, 5, 7):
        for _ in range(200):
            r = 0.1 + 6.0 * rng.random()
            j = rng.integers(1, n + 1)
            th = TWO_PI * (j - 1 + 0.02 + 0.96 * rng.random()) / n
            img = eval_fn(from_polar((r, th)), K, n)
            assert sector_of(img, n) == j % n + 1


def test_jac_fn_zero_at_origin_and_matches_f4():
    assert np.abs(jac_fn((0.0, 0.0), K, 7)).max() == 0.0
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = tuple(rng.normal(0.0, 2.0, 2))
        assert np.abs(jac_fn(p, K, 4) - jac_f4(p, K)).max() <= 1e-12


def test_jac_fn_matches_finite_differences_interior():
    rng = np.random.default_rng(8)
    for n in (3, 5, 6):
        for _ in range(40):
            r = 0.3 + 4.0 * rng.random()
            j = rng.integers(0, n)
            th = TWO_PI * (j + 0.1 + 0.8 * rng.random()) / n
            p = from_polar((r, th))
            err = np.abs(jac_fn(p, K, n)
                         - fd_jacobian(lambda q: eval_fn(q, K, n), p)).max()
            assert err <= 1e-6 * (1.0 + r * r)


def test_polar_chart_derivative_same_on_both_boundary_charts():
    # the two sector formulas meet with equal polar derivatives at the ray
    for r in (0.5, 1.0, 2.0):
        lhs = jac_f4_polar((r, math.pi / 2), K)
        rhs = jac_f4_polar((r, 0.0), K)
        assert np.abs(lhs - rhs).max() <= 1e-12 * (1.0 + r * r)


@pytest.mark.parametrize("p", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                               (1.0, math.inf), (-math.inf, 1.0), (1.0, -math.inf)])
def test_polar_dispatch_rejects_non_finite_points(p):
    with pytest.raises(ValueError):
        eval_fn(p, K, 5)
    with pytest.raises(ValueError):
        eval_hn(p, K, 5, default_profile(K))


# ---------------------------------------------------------------------------
# radial profile and saturated families
# ---------------------------------------------------------------------------

def test_radial_u_identity_branch():
    prof = RadialProfile(6.0, 6.0)
    assert radial_u(3.0, prof) == 3.0
    assert radial_u(6.0, prof) == 6.0


def test_radial_u_tail_value():
    prof = RadialProfile(6.0, 6.0)
    expected = 6.0 + 3.0 + 3.0 * (1.0 - math.exp(-1.0))  # 10.89636...
    assert abs(radial_u(12.0, prof) - expected) <= 1e-12
    assert radial_u(12.0, prof) - 12.0 < 0.0


def test_radial_u_c1_at_onset():
    prof = RadialProfile(6.0, 6.0)
    h = 1e-7
    left = (radial_u(6.0, prof) - radial_u(6.0 - h, prof)) / h
    right = (radial_u(6.0 + h, prof) - radial_u(6.0, prof)) / h
    assert abs(left - 1.0) <= 1e-6
    assert abs(right - 1.0) <= 1e-6


@given(st.floats(min_value=0.0, max_value=500.0), st.floats(min_value=0.1, max_value=400.0))
def test_radial_u_below_identity_and_increasing(s, ds):
    prof = RadialProfile(6.0, 6.0)
    assert radial_u(s, prof) <= s
    assert radial_u(s + ds, prof) > radial_u(s, prof)


def test_eval_h_identity_region_and_orbit_survival():
    prof = default_profile(K)
    assert eval_h((1.0, 1.0), K, prof) == eval_f4((1.0, 1.0), K)
    p = (P_RADIUS, 0.0)
    assert eval_h(p, K, prof) == eval_f4(p, K)


def test_eval_h_contracts_far_out():
    prof = default_profile(K)
    img = eval_h((20.0, 0.0), K, prof)
    s = math.hypot(*eval_f4((20.0, 0.0), K))
    assert abs(math.hypot(*img) - radial_u(s, prof)) <= 1e-12
    assert math.hypot(*img) < 20.0


def test_eval_hn_dissipative_bound():
    prof = default_profile(K)
    rng = np.random.default_rng(9)
    for n in (2, 5, 8):
        for _ in range(300):
            r = 2.0 * prof.r0 + 80.0 * rng.random()
            th = TWO_PI * rng.random()
            p = from_polar((r, th))
            img = eval_hn(p, K, n, prof)
            assert math.hypot(*img) < r
            assert math.hypot(*img) <= max(r, radial_u(K * r, prof)) + 1e-9


def test_ray_property_for_ray_preserving_families():
    rng = np.random.default_rng(10)
    prof = default_profile(K)
    funs = [
        lambda p: eval_f4(p, K),
        lambda p: eval_fn(p, K, 5),
        lambda p: eval_h(p, K, prof),
        lambda p: eval_hn(p, K, 3, prof),
    ]
    for fun in funs:
        for i in range(64):
            th = TWO_PI * i / 64
            v = from_polar((1.0, th))
            angles = []
            radii = []
            for t in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
                r_img, a_img = to_polar(fun((t * v[0], t * v[1])))
                angles.append(a_img)
                radii.append(r_img)
            spread = max(abs(math.remainder(a - angles[0], TWO_PI)) for a in angles)
            assert spread <= 1e-10
            assert all(b > a for a, b in zip(radii, radii[1:]))


# ---------------------------------------------------------------------------
# MapSpec validation and dispatch
# ---------------------------------------------------------------------------

def test_mapspec_rejects_bad_k():
    with pytest.raises(ValueError):
        MapSpec("f4", k=1.2)  # above 2/sqrt(3)
    with pytest.raises(ValueError):
        MapSpec("f4", k=1.0)
    MapSpec("f4", k=0.5 * (1.0 + K_MAX))  # midpoint is fine


def test_mapspec_family_constraints():
    with pytest.raises(ValueError):
        MapSpec("f4", n=6)
    with pytest.raises(ValueError):
        MapSpec("fn", n=1)
    with pytest.raises(ValueError):
        MapSpec("fn", beta=0.1)
    with pytest.raises(ValueError):
        MapSpec("f4", profile=RadialProfile(5.0, 5.0))
    with pytest.raises(ValueError):
        MapSpec("h", profile=RadialProfile(1.0, 1.0))  # r0 below orbit radius
    spec = MapSpec("hn", n=5)
    assert spec.profile is not None and spec.profile.r0 > P_RADIUS


def test_eval_map_dispatch_matches_family_functions():
    prof = default_profile(K)
    p = (1.2, -0.7)
    assert eval_map(MapSpec("f4", k=K), p) == eval_f4(p, K)
    assert eval_map(MapSpec("g4", k=K, beta=0.05), p) == eval_g4(p, K, 0.0, 0.05, 0.0)
    assert eval_map(MapSpec("fn", k=K, n=6), p) == eval_fn(p, K, 6)
    assert eval_map(MapSpec("h", k=K), p) == eval_h(p, K, prof)
    assert eval_map(MapSpec("hn", k=K, n=6), p) == eval_hn(p, K, 6, prof)


def test_jac_map_finite_difference_fallback():
    spec = MapSpec("hn", k=K, n=5)
    p = (2.0, 1.0)
    jac = jac_map(spec, p)
    ref = fd_jacobian(lambda q: eval_map(spec, q), p)
    assert np.abs(jac - ref).max() <= 1e-5


# ---------------------------------------------------------------------------
# batch stepping
# ---------------------------------------------------------------------------

def test_step_batch_matches_scalar():
    rng = np.random.default_rng(11)
    pts = rng.normal(0.0, 5.0, (200, 2))
    specs = [MapSpec("f4", k=K), MapSpec("g4", k=K, alpha=0.1, beta=0.05, delta=0.01),
             MapSpec("fn", k=K, n=5), MapSpec("h", k=K), MapSpec("hn", k=K, n=7)]
    for spec in specs:
        bx, by = step_batch(spec, pts[:, 0].copy(), pts[:, 1].copy())
        for i, (x, y) in enumerate(pts):
            sx, sy = eval_map(spec, (x, y))
            assert math.hypot(bx[i] - sx, by[i] - sy) <= 1e-12 * (1.0 + math.hypot(x, y) ** 3)


def test_step_batch_bitwise_equal_to_eval_map_for_rational_families():
    # f4 and g4 use only + - * /, so array and float evaluation round alike
    rng = np.random.default_rng(13)
    pts = rng.normal(0.0, 5.0, (5000, 2))
    for spec in (MapSpec("f4", k=K), MapSpec("g4", k=K, alpha=0.1, beta=0.05, delta=0.01)):
        bx, by = step_batch(spec, pts[:, 0].copy(), pts[:, 1].copy())
        scalar = np.array([eval_map(spec, (x, y)) for x, y in pts.tolist()])
        assert np.array_equal(bx, scalar[:, 0]) and np.array_equal(by, scalar[:, 1])

