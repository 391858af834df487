import math

import pytest
from hypothesis import given, strategies as st

from znmap.maps import TWO_PI, _rotation, from_polar, sector_of, to_polar
from znmap.topology import angle_lift

finite_coord = st.floats(min_value=-1e6, max_value=1e6,
                         allow_nan=False, allow_infinity=False)


def close(a, b, tol=1e-12):
    return math.hypot(a[0] - b[0], a[1] - b[1]) <= tol


def test_to_polar_axis_points():
    assert to_polar((1.0, 0.0)) == (1.0, 0.0)
    r, th = to_polar((0.0, 2.0))
    assert r == 2.0 and abs(th - math.pi / 2) <= 1e-15


def test_to_polar_third_quadrant():
    r, th = to_polar((-1.0, -1.0))
    assert abs(r - math.sqrt(2.0)) <= 1e-15
    assert abs(th - 5 * math.pi / 4) <= 1e-15  # 3.92699082


def test_to_polar_rejects_non_finite():
    with pytest.raises(ValueError):
        to_polar((math.nan, 0.0))
    with pytest.raises(ValueError):
        to_polar((1.0, math.inf))


def test_from_polar_examples():
    assert from_polar((1.0, 0.0)) == (1.0, 0.0)
    assert close(from_polar((2.0, math.pi)), (-2.0, 0.0))
    assert close(from_polar((1.0, math.pi / 3)), (0.5, 0.8660254037844386))


def test_rotate_quarter_turn_exact():
    assert _rotation(1, 4)(3.0, 1.0) == (-1.0, 3.0)
    assert _rotation(2, 4)(3.0, 1.0) == (-3.0, -1.0)
    assert _rotation(0, 11)(0.3, -0.7) == (0.3, -0.7)


def test_rotate_order_six():
    assert close(_rotation(1, 6)(1.0, 0.0), (0.5, 0.8660254037844386))


def test_rotate_half_turn_exact_any_even_order():
    # rotations that are multiples of a quarter turn stay exact
    assert _rotation(3, 6)(1.25, -2.5) == (-1.25, 2.5)
    assert _rotation(2, 8)(1.25, -2.5) == (2.5, 1.25)


def test_sector_of_examples():
    assert sector_of((1.0, 1.0), 4) == 1
    assert sector_of((0.0, 1.0), 4) == 2  # boundary ray belongs to the upper sector
    assert sector_of((-1.0, 0.0), 2) == 2
    with pytest.raises(ValueError):
        sector_of((0.0, 0.0), 4)


def test_angle_lift_examples():
    lift = angle_lift([0.1, 6.2])
    assert abs(lift[0] - 0.1) == 0.0
    assert abs(lift[1] - (0.1 + 6.1 - TWO_PI)) <= 1e-14  # -0.083185...
    const = angle_lift([1.3] * 5)
    assert const == [1.3] * 5


def test_angle_lift_rigid_rotation():
    angles = [(TWO_PI / 5 * i) % TWO_PI for i in range(6)]
    lift = angle_lift(angles)
    assert abs(lift[-1] - TWO_PI) <= 1e-12


def test_angle_lift_empty_rejected():
    with pytest.raises(ValueError):
        angle_lift([])


@given(finite_coord, finite_coord)
def test_polar_round_trip(x, y):
    r, th = to_polar((x, y))
    assert 0.0 <= th < TWO_PI
    assert r >= 0.0
    back = from_polar((r, th))
    assert close(back, (x, y), 1e-12 * (1.0 + math.hypot(x, y)))


@given(finite_coord, finite_coord, st.integers(-20, 20), st.integers(2, 12))
def test_rotate_preserves_norm(x, y, m, n):
    q = _rotation(m, n)(x, y)
    assert abs(math.hypot(*q) - math.hypot(x, y)) <= 1e-14 * (1.0 + math.hypot(x, y))


@given(finite_coord, finite_coord, st.integers(2, 12))
def test_rotate_full_turn_is_identity(x, y, n):
    p = (x, y)
    q = p
    for _ in range(n):
        q = _rotation(1, n)(*q)
    assert close(q, p, 1e-12 * (1.0 + math.hypot(x, y)))


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=0.999), st.integers(2, 12))
def test_sector_shifts_under_rotation(r, frac, n):
    # interior points only: boundary rays are settled by convention
    theta = (frac * TWO_PI / n)
    p = from_polar((r, theta))
    j = sector_of(p, n)
    jr = sector_of(_rotation(1, n)(*p), n)
    assert jr == j % n + 1


@given(st.lists(st.floats(min_value=0.0, max_value=TWO_PI - 1e-9), min_size=1,
                max_size=40))
def test_angle_lift_steps_wrapped(thetas):
    lift = angle_lift(thetas)
    for a, b in zip(lift, lift[1:]):
        assert -math.pi < b - a <= math.pi + 1e-15
