import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import znmap.maps
from znmap.analysis import seeded_points
from znmap.maps import (
    K_DEFAULT,
    K_MAX,
    TWO_PI,
    MapSpec,
    RadialProfile,
    _FLOAT,
    _LIBM,
    _eval_f4,
    _eval_g4,
    _eval_h,
    _f4_polar_entries,
    _jac_entries,
    _rotation,
    _sector_map,
    _step,
    default_profile,
    eval_map,
    eval_points,
    from_polar,
    jac_map,
    jac_points,
    orbit_radius,
    radial_u,
    sector_of,
    step_batch,
    to_polar,
)

K = 1.1
P_RADIUS = 1.0 / math.sqrt(K - 1.0)  # 3.16227766...
F4 = MapSpec("f4", k=K)


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
    assert _eval_f4((0.0, 0.0), K) == (0.0, 0.0) or _eval_f4((0.0, 0.0), K) == (-0.0, 0.0)


def test_f4_diagonal_value():
    # (1,1): denominator 3, so components are k/3
    fx, fy = _eval_f4((1.0, 1.0), K)
    assert abs(fx + K / 3.0) <= 1e-15
    assert abs(fy - K / 3.0) <= 1e-15


def test_f4_maps_periodic_point_to_its_quarter_turn():
    p = (P_RADIUS, 0.0)
    assert close(_eval_f4(p, K), _rotation(1, 4)(*p), 1e-12)
    # full period
    q = p
    for _ in range(4):
        q = _eval_f4(q, K)
    assert close(q, p, 1e-12)


def f4_polar(r, theta):
    """f4 in polar form: the step formula at n = 4, (psi, theta_out)."""
    return _sector_map(_FLOAT, r, theta, K, 4, None)[:2]


def test_f4_polar_matches_examples():
    psi, phi = f4_polar(1.0, math.pi / 4)
    assert abs(psi - 0.275) <= 1e-15
    assert abs(phi - 3 * math.pi / 4) <= 1e-12
    psi, phi = f4_polar(2.0, 0.0)
    assert abs(psi - 1.76) <= 1e-14
    assert abs(phi - math.pi / 2) <= 1e-15


def test_f4_polar_angle_below_two_pi_for_caller_angles():
    # (-sin^3, cos^3) at 3*pi/2 sits a hair below the positive x-axis, so the
    # wrapped atan2 rounds up to exactly 2*pi, and the angle select must fold
    # it back to 0, on floats and on arrays
    c, s = math.cos(1.5 * math.pi), math.sin(1.5 * math.pi)
    c3, s3 = c * c * c, s * s * s
    assert math.atan2(c3, -s3) + TWO_PI == TWO_PI
    assert _FLOAT.angle(c3, -s3) == 0.0
    assert _LIBM.angle(np.array([c3]), np.array([-s3]))[0] == 0.0


def test_f4_polar_consistent_with_cartesian():
    rng = np.random.default_rng(0)
    for _ in range(300):
        r = 10.0 * rng.random()
        th = TWO_PI * rng.random()
        p = from_polar((r, th))
        direct = _eval_f4(p, K)
        via_polar = from_polar(f4_polar(r, th))
        assert close(direct, via_polar, 1e-12 * (1.0 + r ** 3))


def test_jac_f4_zero_at_origin_and_on_axes():
    assert np.abs(jac_map(F4, (0.0, 0.0))).max() == 0.0
    jac = jac_map(F4, (1.0, 0.0))
    assert np.allclose(jac, [[0.0, 0.0], [K, 0.0]], atol=1e-15)
    assert np.abs(np.linalg.eigvals(jac)).max() == 0.0


def test_jac_f4_spectral_bound_inside_unit_box():
    mods = np.abs(np.linalg.eigvals(jac_map(F4, (1.0, 1.0))))
    assert mods.max() < K * math.sqrt(3.0) / 2.0


def test_jac_f4_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = tuple(rng.normal(0.0, 3.0, 2))
        err = np.abs(jac_map(F4, p) - fd_jacobian(lambda q: _eval_f4(q, K), p)).max()
        assert err <= 1e-6 * (1.0 + math.hypot(*p) ** 2)


def jac_f4_polar(r, theta):
    a11, a12, a22 = _f4_polar_entries(_FLOAT, r, theta, K)
    return np.array([[a11, a12], [0.0, a22]])


def test_jac_f4_polar_examples():
    for th in (0.0, math.pi / 2):
        jac = jac_f4_polar(1.0, th)
        assert np.allclose(jac, [[K, 0.0], [0.0, 0.0]], atol=1e-15)
    assert abs(jac_f4_polar(1.0, math.pi / 4)[1, 1] - 3.0) <= 1e-12


# ---------------------------------------------------------------------------
# deformation family
# ---------------------------------------------------------------------------

def test_g4_reduces_to_f4_at_zero_parameters():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = tuple(rng.normal(0.0, 4.0, 2))
        assert _eval_g4(p, K, 0.0, 0.0, 0.0) == _eval_f4(p, K)


def test_g4_origin_derivative_and_stability_threshold():
    jac = jac_map(MapSpec("g4", k=K, alpha=0.3, beta=0.4), (0.0, 0.0))
    assert np.allclose(jac, [[0.3, -0.4], [0.4, 0.3]], atol=1e-16)
    mods = np.abs(np.linalg.eigvals(jac))
    assert abs(mods.max() - 0.5) <= 1e-15  # alpha^2 + beta^2 = 0.25 < 1


def test_g4_rotational_term_value():
    assert close(_eval_g4((1.0, 0.0), K, 0.0, 0.05, 0.0), (0.0, 0.6), 1e-15)


def test_g4_delta_term_jacobian_by_hand():
    # derivative of (x^2+y^2)(-y, x) at (1, 0) is [[0,-1],[1,0]] + [[0,0],[2,0]]
    jac = jac_map(MapSpec("g4", k=K, delta=1.0), (1.0, 0.0)) - jac_map(F4, (1.0, 0.0))
    assert np.allclose(jac, [[0.0, -1.0], [3.0, 0.0]], atol=1e-15)


def test_g4_determinant_grows_with_beta_off_axes():
    beta = 0.05
    jf = jac_map(F4, (1.0, 1.0))
    jg = jac_map(MapSpec("g4", k=K, beta=beta), (1.0, 1.0))
    b_minus_c = jf[0, 1] - jf[1, 0]
    assert b_minus_c < 0.0
    expected = np.linalg.det(jf) + beta ** 2 - beta * b_minus_c
    assert abs(np.linalg.det(jg) - expected) <= 1e-14
    assert np.linalg.det(jg) > 0.0


def test_jac_g4_matches_finite_differences():
    rng = np.random.default_rng(3)
    fun = lambda q: _eval_g4(q, K, 0.2, 0.1, 0.03)
    spec = MapSpec("g4", k=K, alpha=0.2, beta=0.1, delta=0.03)
    for _ in range(50):
        p = tuple(rng.normal(0.0, 3.0, 2))
        err = np.abs(jac_map(spec, p) - fd_jacobian(fun, p)).max()
        assert err <= 1e-6 * (1.0 + math.hypot(*p) ** 2)


# ---------------------------------------------------------------------------
# order-n transplants
# ---------------------------------------------------------------------------

SIGNED_ZEROS = [(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]


def test_fn_order_four_is_f4_bitwise():
    # fn and hn at n = 4 are f4 and h: the same bits on floats, through
    # eval_points and through step_batch, the origin and signed zeros
    # included (every NaN taken as one NaN, see one_nan)
    pts = [tuple(p) for p in np.random.default_rng(4).normal(0.0, 3.0, (1000, 2)).tolist()]
    pts += SIGNED_ZEROS + edge_points(4)
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    pairs = ((F4, MapSpec("fn", k=K, n=4)), (MapSpec("h", k=K), MapSpec("hn", k=K, n=4)))
    for plain, order_four in pairs:
        for p in pts:
            assert (bits(one_nan(eval_map(order_four, p)))
                    == bits(one_nan(eval_map(plain, p)))), (plain.family, p)
        for batch in (eval_points, step_batch):
            with np.errstate(all="ignore"):
                assert (bits(one_nan(batch(order_four, x, y)))
                        == bits(one_nan(batch(plain, x, y)))), plain.family


def test_origin_is_one_point_for_every_evaluator():
    # eval_map, eval_points and step_batch run the same formula at the
    # origin, with no case of their own: the same signed zeros
    x = np.array([p[0] for p in SIGNED_ZEROS])
    y = np.array([p[1] for p in SIGNED_ZEROS])
    specs = [F4, MapSpec("g4", k=K, alpha=0.02, beta=0.05, delta=0.003), MapSpec("h", k=K)]
    specs += [MapSpec(family, k=K, n=n) for family in ("fn", "hn") for n in range(2, 34)]
    for spec in specs:
        want = tuple(np.array(c) for c in zip(*(eval_map(spec, p) for p in SIGNED_ZEROS)))
        assert bits(eval_points(spec, x, y)) == bits(want), spec
        assert bits(step_batch(spec, x, y)) == bits(want), spec


def test_fn_axis_ray_maps_to_next_boundary():
    # the positive x-axis maps to the ray at angle 2*pi/6 with radius k/2
    img = eval_map(MapSpec("fn", k=K, n=6), (1.0, 0.0))
    assert close(img, (0.275, 0.4763139720814412), 1e-12)


def test_fn_periodic_orbit_structure():
    n = 6
    spec = MapSpec("fn", k=K, n=n)
    p = (P_RADIUS, 0.0)
    q = p
    pts = []
    for _ in range(n):
        q = eval_map(spec, q)
        pts.append(q)
    assert close(pts[-1], p, 1e-11)
    for j, pt in enumerate(pts[:-1], start=1):
        assert close(pt, _rotation(j, n)(*p), 1e-11)
        assert not close(pt, p, 1e-3)


def test_fn_equivariance_all_orders():
    rng = np.random.default_rng(5)
    for n in range(2, 9):
        spec = MapSpec("fn", k=K, n=n)
        worst = 0.0
        for _ in range(400):
            p = tuple(rng.normal(0.0, 4.0, 2))
            a = eval_map(spec, _rotation(1, n)(*p))
            b = _rotation(1, n)(*eval_map(spec, p))
            worst = max(worst,
                        math.hypot(a[0] - b[0], a[1] - b[1])
                        / (1.0 + math.hypot(*p) ** 3))
        assert worst <= 1e-12


def test_fn_sector_image():
    rng = np.random.default_rng(6)
    for n in (3, 5, 7):
        spec = MapSpec("fn", k=K, n=n)
        for _ in range(200):
            r = 0.1 + 6.0 * rng.random()
            j = rng.integers(1, n + 1)
            th = TWO_PI * (j - 1 + 0.02 + 0.96 * rng.random()) / n
            img = eval_map(spec, from_polar((r, th)))
            assert sector_of(img, n) == j % n + 1


def test_jac_fn_zero_at_origin_and_matches_f4():
    assert np.abs(jac_map(MapSpec("fn", k=K, n=7), (0.0, 0.0))).max() == 0.0
    fn4 = MapSpec("fn", k=K, n=4)
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = tuple(rng.normal(0.0, 2.0, 2))
        assert np.abs(jac_map(fn4, p) - jac_map(F4, p)).max() <= 1e-12


def test_jac_fn_matches_finite_differences_interior():
    rng = np.random.default_rng(8)
    for n in (3, 5, 6):
        spec = MapSpec("fn", k=K, n=n)
        for _ in range(40):
            r = 0.3 + 4.0 * rng.random()
            j = rng.integers(0, n)
            th = TWO_PI * (j + 0.1 + 0.8 * rng.random()) / n
            p = from_polar((r, th))
            err = np.abs(jac_map(spec, p)
                         - fd_jacobian(lambda q: eval_map(spec, q), p)).max()
            assert err <= 1e-6 * (1.0 + r * r)


def test_polar_chart_derivative_same_on_both_boundary_charts():
    # the two sector formulas meet with equal polar derivatives at the ray
    for r in (0.5, 1.0, 2.0):
        lhs = jac_f4_polar(r, math.pi / 2)
        rhs = jac_f4_polar(r, 0.0)
        assert np.abs(lhs - rhs).max() <= 1e-12 * (1.0 + r * r)


@pytest.mark.parametrize("p", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                               (1.0, math.inf), (-math.inf, 1.0), (1.0, -math.inf)])
def test_polar_dispatch_rejects_non_finite_points(p):
    # to_polar and sector_of are the input checks; the fn/hn step itself
    # runs its arithmetic, which gives NaN, with no raise and no warning
    with pytest.raises(ValueError, match="non-finite point"):
        to_polar(p)
    with pytest.raises(ValueError, match="non-finite point"):
        sector_of(p, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in (MapSpec("fn", k=K, n=5), MapSpec("hn", k=K, n=5, profile=default_profile(K))):
            assert all(map(math.isnan, eval_map(spec, p))), spec


# ---------------------------------------------------------------------------
# the float selects against the array selects
# ---------------------------------------------------------------------------

def bits(v):
    """The exact bits of a result: floats (sign of zero and NaN included),
    ints, tuples and arrays of them, or the type and text of an error."""
    if isinstance(v, BaseException):
        return type(v).__name__, str(v)
    if isinstance(v, float):
        return struct.pack("<d", v)
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    if isinstance(v, tuple):
        return tuple(bits(e) for e in v)
    return type(v).__name__, v


def outcome(fun, *args):
    try:
        return bits(fun(*args))
    except (ValueError, ArithmeticError, RuntimeWarning) as exc:
        return bits(exc)


def one_nan(v):
    """v (a float, array or tuple of them) with every NaN made one NaN.
    IEEE 754 leaves open which NaN an operation on two NaNs returns, and
    compiled multiplies pick different operands: h at (1e300, 1e300) gives
    scale * w1 with both NaN, whose sign differs between numpy and CPython,
    and in CPython between a fresh interpreter and one whose float multiply
    bytecode a few earlier calls have specialized."""
    if isinstance(v, float) and math.isnan(v):
        return math.nan
    if isinstance(v, tuple):
        return tuple(one_nan(e) for e in v)
    if isinstance(v, np.ndarray):
        return np.where(np.isnan(v), np.nan, v)
    return v


def nan_blind(fun):
    """fun with every NaN of its result made one NaN (one_nan)."""
    return lambda *args: one_nan(fun(*args))


def clamp_points():
    """Points just below the positive x-axis: y = -j * 2^-50 * x, whose
    angle lands one or a few ulps below 2*pi, or rounds up to 2*pi."""
    return [(x, -j * 2.0 ** -50 * x) for x in (0.5, 1.0, 3.0, 7.0) for j in range(1, 9)]


def edge_points(n):
    """Boundary rays, the clamp, angles that round up to 2*pi, signed
    zeros, the origin and non-finite input."""
    pts = [from_polar((r, TWO_PI * j / n)) for r in (1e-300, 0.3, 1.0, P_RADIUS, 9.0, 1e6)
           for j in range(n + 1)]
    pts += clamp_points()
    pts += [(1.0, -1e-300), (3.0, -5e-324), (1.0, -1e-17)]
    pts += [(x, y) for x in (1.0, -1.0, 0.0, -0.0) for y in (0.0, -0.0)]
    pts += [(0.0, 1.0), (-0.0, -2.0), (1e300, 1e300), (-1e200, 3.0)]
    pts += [(math.nan, 0.0), (0.0, math.nan), (math.inf, 1.0), (1.0, -math.inf),
            (-math.inf, math.inf), (math.nan, math.nan)]
    return pts


ORDERS = (2, 3, 4, 5, 6, 7, 8, 23, 33)  # 23 and 33 reach the clamp, see below


def test_clamp_points_reach_the_clamp():
    # for n = 23 and 33 the angle one ulp below 2*pi gives theta*n/(2*pi)
    # rounding to n, so the sector index is clamped to n - 1; for n = 2..8
    # no angle below 2*pi does that
    for n in (23, 33):
        clamped = [p for p in clamp_points()
                   if math.floor((math.atan2(p[1], p[0]) + TWO_PI) * n / TWO_PI) == n]
        assert clamped and all(_FLOAT.split(_FLOAT.angle(p[1], p[0]), n)[0] == n - 1
                               for p in clamped)
    wrapped = [p for p in edge_points(5) if p[0] > 0.0 and p[1] < 0.0
               and math.atan2(p[1], p[0]) + TWO_PI == TWO_PI]
    assert wrapped and all(_FLOAT.angle(p[1], p[0]) == 0.0 for p in wrapped)


def float_select(name, *args):
    """The _FLOAT select name at args, its sector index as a float."""
    out = getattr(_FLOAT, name)(*args)
    return tuple(float(v) for v in out) if isinstance(out, tuple) else out


def libm_select(name, *args):
    """The _LIBM select name at 1-element arrays of the float args, as
    floats, under eval_points' np.errstate: the oracle of float_select."""
    with np.errstate(all="ignore"):
        out = getattr(_LIBM, name)(*(np.array([a]) if isinstance(a, float) else a for a in args))
    return tuple(float(v[0]) for v in out) if isinstance(out, tuple) else float(out[0])


def assert_select_bits(name, *args):
    """float_select gives libm_select's bits, every NaN taken as one NaN."""
    assert (outcome(nan_blind(float_select), name, *args)
            == outcome(nan_blind(libm_select), name, *args)), (name, args)


def assert_split_bits(theta, n):
    # at theta = -0.0, the angle of (x > 0, -0.0), math.floor gives 0 and
    # np.floor -0.0, so m and theta4 come out with opposite signs of zero;
    # the steps and Jacobians agree all the same, which the *_on_edges
    # tests of eval_points and jac_points show at (1.0, -0.0)
    if theta == 0.0 and math.copysign(1.0, theta) < 0.0:
        assert float_select("split", theta, n) == libm_select("split", theta, n) == (0.0, 0.0)
    else:
        assert_select_bits("split", theta, n)


@pytest.mark.parametrize("n", ORDERS)
def test_float_selects_are_the_libm_selects_on_edges(n):
    # the angle of each edge point (boundary rays, the clamp, the -ulp
    # angles that round up to 2*pi, +-0, NaN and +-inf) and its split, then
    # the split at a few more angles: +-inf, which no angle select gives,
    # split to (n - 1, inf) and (-inf, NaN), as np.floor and np.minimum pass them on
    for x, y in edge_points(n):
        assert_select_bits("angle", y, x)
        assert_split_bits(_FLOAT.angle(y, x), n)
    for theta in (0.0, 5e-324, math.pi, math.nextafter(TWO_PI, 0.0), math.nan,
                  math.inf, -math.inf):
        assert_split_bits(theta, n)


def test_float_radial_is_the_libm_radial_on_edges():
    # r0 and its neighbours, 0, inf and NaN; the two tight profiles send
    # -w/r_half past 709 below r0, where the array select's expm1
    # overflows to inf and its where discards it
    tight = [RadialProfile(7.0, 1e-3), RadialProfile(1e3, 0.5)]
    assert all(prof.r0 / prof.r_half > 709 for prof in tight)  # -w/r_half at s = 0
    for prof in [default_profile(K)] + tight:
        r0 = prof.r0
        around = [r0, math.nextafter(r0, 0.0), math.nextafter(r0, math.inf),
                  r0 * (1.0 - 1e-12), r0 * (1.0 + 1e-12), 0.5 * r0, 2.0 * r0]
        for s in around + [0.0, -0.0, 5e-324, 1e308, math.inf, math.nan]:
            assert_select_bits("radial", s, prof)


@pytest.mark.parametrize("n", ORDERS)
def test_step_from_to_polars_pair_is_eval_map(n):
    # estimate_rotation steps a MapSpec through _step with the pair to_polar
    # gives: fn/hn with n != 4 take their chart from it, the rest ignore it
    specs = [MapSpec("fn", k=K, n=n), MapSpec("hn", k=K, n=n)]
    if n == 4:
        specs += [F4, MapSpec("g4", k=K, alpha=0.02, beta=0.05, delta=-0.01), MapSpec("h", k=K)]
    for spec in specs:
        for p in edge_points(n):
            if math.isfinite(p[0] + p[1]) and (p[0] or p[1]):
                stepped = _step(spec, *p, _FLOAT, to_polar(p))
                assert bits(stepped) == bits(eval_map(spec, p)), (spec, p)


@given(st.integers(2, 33), st.floats(0.0, TWO_PI, exclude_max=True),
       st.floats(allow_nan=True, allow_infinity=True), st.floats(allow_nan=True, allow_infinity=True))
def test_float_selects_are_the_libm_selects(n, theta, x, y):
    assert_select_bits("angle", y, x)
    assert_split_bits(_FLOAT.angle(y, x), n)
    assert_split_bits(theta, n)


@given(st.one_of(st.floats(0.0, math.inf), st.just(math.nan)), st.floats(0.5, 50.0),
       st.floats(1e-3, 50.0))
def test_float_radial_is_the_libm_radial(s, r0, r_half):
    assert_select_bits("radial", s, RadialProfile(r0, r_half))


@pytest.mark.parametrize("family", ["fn", "hn"])
@pytest.mark.parametrize("p", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, math.nan)])
def test_non_finite_input_gives_nan_as_the_namespace_formula_does(family, p):
    # floats take the formula over _FLOAT, 1-element arrays over _LIBM:
    # both give NaN, with no raise and no warning
    ax, ay = np.array([p[0]]), np.array([p[1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(2, 9):
            spec = MapSpec(family, k=K, n=n)
            image, images = nan_blind(eval_map)(spec, p), nan_blind(eval_points)(spec, ax, ay)
            jac, jacs = nan_blind(jac_map)(spec, p), nan_blind(jac_points)(spec, ax, ay)
            assert bits(image) == bits(tuple(float(c[0]) for c in images)), n
            assert bits(jac) == bits(jacs[0]), n
            assert np.isnan(image).any() and np.isnan(jac).any(), n


def point_specs(k, n):
    """f4, g4 with nonzero alpha/beta/delta, h with the default profile and
    with one whose r0/r_half = 1000 sends expm1's argument past its
    overflow below r0, fn and hn (both profiles) of order n, and a callable."""
    tight = RadialProfile(1.5 / math.sqrt(k - 1.0), 0.0015 / math.sqrt(k - 1.0))
    fn = MapSpec("fn", k=k, n=n)
    return [MapSpec("f4", k=k), MapSpec("g4", k=k, alpha=0.02, beta=0.05, delta=0.003),
            MapSpec("h", k=k), MapSpec("h", k=k, profile=tight), fn,
            MapSpec("hn", k=k, n=n), MapSpec("hn", k=k, n=n, profile=tight),
            lambda p: eval_map(fn, p)]


def per_point(spec, x, y):
    """The oracle of eval_points: eval_map at each point."""
    images = [eval_map(spec, p) for p in zip(x.tolist(), y.tolist())]
    return tuple(np.array([img[i] for img in images], dtype=float) for i in (0, 1))


def assert_eval_points_per_point(spec, pts):
    """eval_points against eval_map at each point, from the coordinates and
    from the polar pair that callers may pass, NaNs blind to which NaN."""
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    want = outcome(nan_blind(per_point), spec, x, y)
    assert outcome(nan_blind(eval_points), spec, x, y) == want, spec
    polar = _LIBM.hypot(x, y), _LIBM.angle(y, x)
    assert outcome(nan_blind(eval_points), spec, x, y, polar) == want, spec


@pytest.mark.parametrize("n", ORDERS)
def test_eval_points_is_eval_map_per_point_on_edges(n):
    # the origin, signed zeros, 1e300 and non-finite points, one at a time
    # and in one batch
    pts = edge_points(n)
    for spec in point_specs(K, n):
        for p in pts:
            assert_eval_points_per_point(spec, [p])
        assert_eval_points_per_point(spec, pts)
        assert_eval_points_per_point(spec, [p for p in pts if math.isfinite(p[0] + p[1])])
    # a non-finite point gives NaN and leaves the other points alone
    fn5 = MapSpec("fn", k=K, n=5)
    fx, fy = eval_points(fn5, np.array([1.0, math.nan]), np.array([2.0, 0.0]))
    assert (fx[0], fy[0]) == eval_map(fn5, (1.0, 2.0)) and math.isnan(fx[1]) and math.isnan(fy[1])


@given(st.sampled_from(ORDERS), st.floats(1.0005, 1.1547), st.integers(0, 2 ** 32 - 1),
       st.floats(1e-3, 1e3), st.lists(st.tuples(st.floats(), st.floats()), max_size=8))
def test_eval_points_is_eval_map_per_point(n, k, seed, radius, extra):
    # seeded uniform points, where math's and numpy's atan2/hypot/expm1
    # often differ in the last bit, and any floats at all
    pts = seeded_points(64, radius, seed).tolist() + extra
    for spec in point_specs(k, n):
        assert_eval_points_per_point(spec, pts)


def assert_libm_bits(fun, math_fun, x):
    """fun on the array x gives math_fun's bits at every element, NaN for NaN."""
    got, want = fun(x), np.array([math_fun(v) for v in x.tolist()], dtype=float)
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    bad = np.flatnonzero(got[~nan].view(np.int64) != want[~nan].view(np.int64))
    assert bad.size == 0, x[~nan][bad[:5]]


@pytest.mark.parametrize("fun, math_fun", [(znmap.maps._LIBM.cos, math.cos),
                                           (znmap.maps._LIBM.sin, math.sin)])
def test_libm_cos_and_sin_are_math_bitwise(fun, math_fun):
    # _LIBM takes numpy's cos and sin, whose float64 loops give libm's bits:
    # 10^6 points at the scales the formulas reach, and the signed zeros and
    # NaN (inf never reaches them)
    rng = np.random.default_rng(0x5EED)
    for scale in (1.0, 10.0, 1e3, 1e6):
        assert_libm_bits(fun, math_fun, rng.uniform(-scale, scale, 250_000))
    assert_libm_bits(fun, math_fun, np.array([0.0, -0.0, math.nan, -math.nan, 5e-324, -5e-324,
                                              math.pi, TWO_PI, 1e-300]))


def jac_per_point(spec, x, y):
    """The oracle of jac_points: jac_map at each point."""
    return np.array([jac_map(spec, p) for p in zip(x.tolist(), y.tolist())],
                    dtype=float).reshape(-1, 2, 2)


def assert_jac_points_per_point(spec, pts):
    """jac_points against jac_map at each point, NaNs blind to which NaN."""
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    assert (outcome(nan_blind(jac_points), spec, x, y)
            == outcome(nan_blind(jac_per_point), spec, x, y)), spec


FAR = [(1e120, -3e119), (-7e119, 1e120), (2e154, 1e154), (1e300, -1e300),
       (1.7976931348623157e308, 0.0), (0.0, -1.7976931348623157e308), (-5e-324, 0.0),
       (1e-300, 1e-300)]


@pytest.mark.parametrize("n", ORDERS)
def test_jac_points_is_jac_map_per_point_on_edges(n):
    # the origin, boundary rays, signed zeros, points far out and
    # non-finite points, one at a time and in one batch; the far points hit
    # overflow in fn's chain and in h/hn's stencils
    pts = edge_points(n) + FAR
    for spec in point_specs(K, n):
        for p in pts:
            assert_jac_points_per_point(spec, [p])
        assert_jac_points_per_point(spec, pts)
        assert_jac_points_per_point(spec, [p for p in pts if math.isfinite(p[0] + p[1])])


@pytest.mark.parametrize("family", ["fn", "hn"])
def test_jac_points_gives_nan_where_jac_map_does(family):
    # a non-finite point gives NaN entries for fn (its chart) and hn (its
    # stencil), with no raise and no warning; so does the largest float,
    # whose hn stencil point x + h overflows to inf (a point the caller
    # never passed)
    spec = MapSpec(family, k=K, n=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in [(math.nan, 1.0), (2.0, math.inf), (1.7976931348623157e308, 0.0)]:
            assert np.isnan(jac_map(spec, p)).all(), p
            assert np.isnan(jac_points(spec, np.array([p[0]]), np.array([p[1]]))).all(), p


EXTENDED = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.7976931348623157e308,
            -1.7976931348623157e308]


@given(st.sampled_from(("f4", "g4", "fn", "h", "hn")), st.sampled_from(ORDERS),
       st.one_of(st.sampled_from(EXTENDED), st.floats()),
       st.one_of(st.sampled_from(EXTENDED), st.floats()))
def test_evaluators_never_raise_or_warn_on_the_extended_domain(family, n, x, y):
    # every evaluator runs its arithmetic at NaN, +-inf, +-0.0 and the
    # largest float, and the array entry points give eval_map's and
    # jac_map's bits at each point, NaN blind
    spec = (MapSpec("g4", k=K, alpha=0.02, beta=0.05, delta=0.003) if family == "g4"
            else MapSpec(family, k=K, n=n if family in ("fn", "hn") else 4))
    ax, ay = np.array([x]), np.array([y])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        image, jac = eval_map(spec, (x, y)), jac_map(spec, (x, y))
        images, jacs = eval_points(spec, ax, ay), jac_points(spec, ax, ay)
    assert bits(one_nan(tuple(c[0] for c in images))) == bits(one_nan(image))
    assert bits(one_nan(jacs[0])) == bits(one_nan(jac))
    if family in ("h", "hn") and math.isfinite(x * x + y * y):
        # they contract far out: k*r^3 overflows from r ~ 5.6e102 on, but
        # every point whose square radius is finite has a finite image
        assert all(map(math.isfinite, image)), image


def test_saturated_maps_are_finite_far_out():
    # k*x^3 overflowed at (1e120, 0): h gave (nan, nan) and hn (inf, inf)
    for spec in (MapSpec("h", k=K), MapSpec("hn", k=K, n=5)):
        for p in [(1e120, 0.0), (1e60, 3e59), (-1e150, 1e150), (1e154, 1.0)]:
            image = eval_map(spec, p)
            assert all(map(math.isfinite, image)), (spec.family, p)
            assert math.hypot(*image) < math.hypot(*p)
            images = eval_points(spec, np.array([p[0]]), np.array([p[1]]))
            assert bits(tuple(float(c[0]) for c in images)) == bits(image)


@given(st.sampled_from((2, 3, 4, 5, 6, 7, 8, 23)), st.floats(1.0005, 1.1547),
       st.integers(0, 2 ** 32 - 1), st.floats(1e-3, 1e3),
       st.lists(st.tuples(st.floats(), st.floats()), max_size=4))
def test_jac_points_is_jac_map_per_point(n, k, seed, radius, extra):
    pts = seeded_points(16, radius, seed).tolist()
    for spec in point_specs(k, n):
        assert_jac_points_per_point(spec, pts + extra)
        for p in extra:
            assert_jac_points_per_point(spec, [p])


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
    assert _eval_h((1.0, 1.0), K, prof) == _eval_f4((1.0, 1.0), K)
    p = (P_RADIUS, 0.0)
    assert _eval_h(p, K, prof) == _eval_f4(p, K)


def test_eval_h_contracts_far_out():
    prof = default_profile(K)
    img = _eval_h((20.0, 0.0), K, prof)
    s = math.hypot(*_eval_f4((20.0, 0.0), K))
    assert abs(math.hypot(*img) - radial_u(s, prof)) <= 1e-12
    assert math.hypot(*img) < 20.0


def test_eval_hn_dissipative_bound():
    prof = default_profile(K)
    rng = np.random.default_rng(9)
    for n in (2, 5, 8):
        spec = MapSpec("hn", k=K, n=n, profile=prof)
        for _ in range(300):
            r = 2.0 * prof.r0 + 80.0 * rng.random()
            th = TWO_PI * rng.random()
            p = from_polar((r, th))
            img = eval_map(spec, p)
            assert math.hypot(*img) < r
            assert math.hypot(*img) <= max(r, radial_u(K * r, prof)) + 1e-9


def test_ray_property_for_ray_preserving_families():
    rng = np.random.default_rng(10)
    prof = default_profile(K)
    funs = [
        lambda p: _eval_f4(p, K),
        lambda p: eval_map(MapSpec("fn", k=K, n=5), p),
        lambda p: _eval_h(p, K, prof),
        lambda p: eval_map(MapSpec("hn", k=K, n=3, profile=prof), p),
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


def test_non_finite_map_parameters_are_rejected():
    for params in ({"alpha": math.nan}, {"beta": math.inf}, {"delta": -math.inf},
                   {"beta": 0.05, "delta": math.nan}):
        with pytest.raises(ValueError, match="alpha/beta/delta must be finite"):
            MapSpec("g4", **params)
    for r0, r_half in ((math.inf, 7.0), (7.0, math.inf), (math.nan, 7.0), (7.0, -math.nan)):
        with pytest.raises(ValueError, match="profile radii must be positive and finite"):
            RadialProfile(r0, r_half)


def test_orbit_radius_and_default_profile_in_closed_form():
    # P(k) and r0 = 2 P(k) bitwise, on a grid with both ends' neighbours
    ks = [math.nextafter(1.0, 2.0), math.nextafter(K_MAX, 1.0), 1.0005, 1.15, K_DEFAULT]
    ks += np.linspace(1.0, K_MAX, 2001)[1:-1].tolist()
    for k in ks:
        assert orbit_radius(k) == 1.0 / math.sqrt(k - 1.0), k
        assert default_profile(k).r0 == 2.0 / math.sqrt(k - 1.0), k
    assert MapSpec("f4").k == K_DEFAULT == 1.1


def test_mapspec_echo_names_the_selecting_parameters():
    r0 = 2.0 / math.sqrt(K - 1.0)
    assert MapSpec("f4").echo() == {"family": "f4", "k": K, "n": 4}
    assert MapSpec("g4").echo() == {"family": "g4", "k": K, "n": 4,
                                    "alpha": 0.0, "beta": 0.0, "delta": 0.0}
    assert MapSpec("g4", k=1.05, alpha=0.1, beta=0.05, delta=-0.01).echo() == {
        "family": "g4", "k": 1.05, "n": 4, "alpha": 0.1, "beta": 0.05, "delta": -0.01}
    assert MapSpec("fn", n=6).echo() == {"family": "fn", "k": K, "n": 6}
    assert MapSpec("h").echo() == {"family": "h", "k": K, "n": 4, "r0": r0, "r_half": r0}
    assert MapSpec("hn", n=5, profile=RadialProfile(7.0, 3.0)).echo() == {
        "family": "hn", "k": K, "n": 5, "r0": 7.0, "r_half": 3.0}


def test_eval_map_dispatch_matches_family_functions():
    prof = default_profile(K)
    p = (1.2, -0.7)
    assert eval_map(MapSpec("f4", k=K), p) == _eval_f4(p, K)
    assert eval_map(MapSpec("g4", k=K, beta=0.05), p) == _eval_g4(p, K, 0.0, 0.05, 0.0)
    for spec in (MapSpec("fn", k=K, n=6), MapSpec("hn", k=K, n=6, profile=prof)):
        assert eval_map(spec, p) == _step(spec, *p, _FLOAT, to_polar(p))
    assert eval_map(MapSpec("h", k=K), p) == _eval_h(p, K, prof)


def test_jac_map_finite_difference_fallback():
    spec = MapSpec("hn", k=K, n=5)
    p = (2.0, 1.0)
    jac = jac_map(spec, p)
    ref = fd_jacobian(lambda q: eval_map(spec, q), p)
    assert np.abs(jac - ref).max() <= 1e-5


def test_jac_map_is_the_array_entries_bitwise():
    # spectral_scan takes the f4/g4 entries on whole grids; jac_map at a
    # float point must give the same bits
    pts = np.random.default_rng(17).uniform(-20.0, 20.0, (20_000, 2))
    for spec in (F4, MapSpec("g4", k=K, beta=0.05)):
        want = np.stack(_jac_entries(spec, pts[:, 0], pts[:, 1]), axis=-1).reshape(-1, 2, 2)
        got = np.array([jac_map(spec, p) for p in pts.tolist()])
        assert got.tobytes() == want.tobytes(), spec.family


@pytest.mark.parametrize("family", ["f4", "g4", "fn", "h", "hn"])
def test_jac_map_far_out_returns_a_matrix(family):
    # k*r^3 overflows at r = 1e120; the entries may be inf or NaN, but a
    # float power must not raise OverflowError
    spec = MapSpec(family, k=K, n=5 if family in ("fn", "hn") else 4)
    jac = jac_map(spec, (1e120, 0.0))
    assert jac.shape == (2, 2)


@pytest.mark.parametrize("n", ORDERS)
def test_jac_fn_is_silent_where_its_factors_overflow(n):
    # far out r^3 and near the origin 1/r overflow, and fn's matmuls meet
    # inf * 0; like every other float kernel, jac_map gives the NaN matrix
    # without a warning, the matrix jac_points gives
    spec = MapSpec("fn", k=K, n=n)
    pts = [(1e120, 3e119), (-2e154, 1e154), (1e300, -1e300), (1e-310, 3e-311),
           (-5e-324, 5e-324), (0.0, -1e-309)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in pts:
            jac = jac_map(spec, p)
            assert jac.shape == (2, 2), p
            assert_jac_points_per_point(spec, [p])


@given(st.integers(2, 8), st.floats(1.0005, 1.1547),
       st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_jac_fn_never_warns_at_a_finite_point(n, k, x, y):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert jac_map(MapSpec("fn", k=k, n=n), (x, y)).shape == (2, 2)


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


@pytest.mark.parametrize("spec", [F4, MapSpec("g4", k=K, alpha=0.02, beta=0.05, delta=0.003),
                                  MapSpec("fn", k=K), MapSpec("fn", k=K, n=5), MapSpec("h", k=K),
                                  MapSpec("hn", k=K), MapSpec("hn", k=K, n=7)])
def test_integer_coordinate_arrays_step_as_float_arrays(spec):
    # x*x and x^3 wrap in int64 from |x| ~ 2.1e6 on, in f4's formula (so
    # in fn and hn at n = 4); every array entry point takes its coordinates
    # as float arrays, so integer arrays give the bits of the same floats
    xi = np.array([3_000_000, -7, 0, 2, 1 << 40, -(1 << 21)])
    yi = np.array([0, 5, 0, -3, 12_345, 1 << 22])
    xf, yf = xi.astype(float), yi.astype(float)
    assert bits(step_batch(spec, xi, yi)) == bits(step_batch(spec, xf, yf))
    assert bits(eval_map(spec, (xi, yi))) == bits(eval_map(spec, (xf, yf)))
    assert bits(eval_points(spec, xi, yi)) == bits(eval_points(spec, xf, yf))
    assert bits(jac_points(spec, xi, yi)) == bits(jac_points(spec, xf, yf))


@pytest.mark.parametrize("spec", [F4, MapSpec("g4", k=K, alpha=0.02, beta=0.05, delta=0.003),
                                  MapSpec("fn", k=K, n=5), MapSpec("h", k=K),
                                  MapSpec("hn", k=K, n=7)])
def test_mixed_float_and_array_input_steps_as_float_arrays(spec):
    # one coordinate an array is enough for eval_map to step over numpy:
    # the float coordinate broadcasts, with the bits of the broadcast arrays
    arr = np.array([0.5, 2.0, -3.25, 0.0])
    full = np.full(arr.shape, 1.0)
    assert bits(eval_map(spec, (1.0, arr))) == bits(eval_map(spec, (full, arr)))
    assert bits(eval_map(spec, (arr, 1.0))) == bits(eval_map(spec, (arr, full)))


def test_step_batch_bitwise_equal_to_eval_map_for_rational_families():
    # f4 and g4 use only + - * /, so array and float evaluation round alike
    rng = np.random.default_rng(13)
    pts = rng.normal(0.0, 5.0, (5000, 2))
    for spec in (MapSpec("f4", k=K), MapSpec("g4", k=K, alpha=0.1, beta=0.05, delta=0.01)):
        bx, by = step_batch(spec, pts[:, 0].copy(), pts[:, 1].copy())
        scalar = np.array([eval_map(spec, (x, y)) for x, y in pts.tolist()])
        assert np.array_equal(bx, scalar[:, 0]) and np.array_equal(by, scalar[:, 1])

