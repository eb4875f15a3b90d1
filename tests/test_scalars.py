import math
from fractions import Fraction

import pytest

from cubica.errors import InvalidInput, ZeroLeadingCoefficient
from cubica.projective import ProjPoint
from cubica.scalars import (
    is_exact,
    parse_scalar,
    poly_roots,
    roots_cubic,
    scalar_from_json,
    scalar_to_json,
    scalars_close,
    unit_floats,
)
from cubica.standard import StandardCurve, triangle_shape


def test_parse_scalar_exact_forms():
    assert parse_scalar("3") == 3 and isinstance(parse_scalar("3"), int)
    v = parse_scalar("-2/7")
    assert v == Fraction(-2, 7) and isinstance(v, Fraction)


def test_parse_scalar_floating_forms():
    assert parse_scalar("1.5") == 1.5
    assert parse_scalar("1e-3") == 1e-3
    assert parse_scalar("2j") == 2j
    assert parse_scalar("1+2j") == 1 + 2j


def test_parse_scalar_comma_pair():
    assert parse_scalar("0.6,0.8") == complex(0.6, 0.8)
    # zero imaginary part collapses to a float
    v = parse_scalar("2.5,0")
    assert v == 2.5 and isinstance(v, float)


@pytest.mark.parametrize("bad", ["", "zzz", "1/0", "1,2,3"])
def test_parse_scalar_rejects(bad):
    with pytest.raises(InvalidInput):
        parse_scalar(bad)


def test_is_exact():
    assert is_exact(4) and is_exact(Fraction(1, 3))
    assert not is_exact(1.0) and not is_exact(1j)


@pytest.mark.parametrize("v", [5, Fraction(-3, 8), 0.25, 1.5 - 0.5j])
def test_json_round_trip(v):
    back = scalar_from_json(scalar_to_json(v))
    assert scalars_close(back, v, tol=0)
    assert back == v


def test_json_exact_stays_exact():
    assert scalar_to_json(Fraction(2, 6)) == "1/3"
    assert isinstance(scalar_from_json("7/2"), Fraction)


def test_scalars_close_relative():
    assert scalars_close(1e12, 1e12 * (1 + 1e-12))
    assert not scalars_close(1.0, 1.001)


def test_roots_cubic_frozen():
    # x^3 - 3x + 2 = (x - 1)^2 (x + 2)
    rs = roots_cubic(1, 0, -3, 2)
    assert abs(rs[0] - (-2)) < 1e-9
    assert abs(rs[1] - 1) < 1e-7 and abs(rs[2] - 1) < 1e-7


def test_roots_cubic_needs_cubic():
    with pytest.raises(ZeroLeadingCoefficient):
        roots_cubic(0, 1, 2, 3)


def test_roots_sorted_by_real_then_imag():
    rs = roots_cubic(1, 0, 1, 0)  # 0, +-i
    assert [round(r.imag, 9) for r in rs] == [-1, 0, 1]


def test_poly_roots_strips_tiny_lead():
    rs = poly_roots([1e-20, 1.0, -2.0])
    assert len(rs) == 1 and abs(rs[0] - 2.0) < 1e-9


def test_a_monic_cubic_keeps_its_degree_at_any_height():
    # the exact leading 1 is tested as given, not against 1e-14 of |a|
    assert len(roots_cubic(1, 0, -10 ** 15, 1)) == 3
    shape = triangle_shape(StandardCurve(-1e14, 1))
    assert [r.real for r in shape.vertices] == pytest.approx([-1e7, 1e-14, 1e7], rel=1e-12, abs=0)
    assert shape.tag == "collinear-with-midpoint"
    # a floating leading coefficient still drops
    with pytest.raises(ZeroLeadingCoefficient):
        roots_cubic(1.0, 0, -10 ** 15, 1)


@pytest.mark.parametrize("text", ["nan", "-nan", "NaN", "nanj", "nan,1", "1,nan"])
def test_parse_scalar_rejects_nan(text):
    with pytest.raises(InvalidInput, match="NaN"):
        parse_scalar(text)


@pytest.mark.parametrize("obj", [math.nan, [math.nan, 0.0], [1.0, math.nan]])
def test_scalar_from_json_rejects_nan(obj):
    with pytest.raises(InvalidInput, match="NaN"):
        scalar_from_json(obj)


def test_infinity_stays_a_scalar():
    assert parse_scalar("inf") == math.inf
    assert scalar_from_json(-math.inf) == -math.inf


@pytest.mark.parametrize("values", [
    [10 ** 400, 3 * 10 ** 399 + 1, -7, 0],
    [Fraction(10 ** 400, 3), Fraction(-(10 ** 399), 7), 1],
    [Fraction(1, 10 ** 400), Fraction(-2, 3 * 10 ** 400), Fraction(5, 7 * 10 ** 401)],
    [Fraction(1, 3), Fraction(2, 7), -5],
])
def test_unit_floats_of_exact_values_at_any_height(values):
    top = max(map(abs, values))
    got = unit_floats(values)
    assert got == [float(Fraction(v) / top) for v in values]
    assert all(type(v) is float for v in got)


def test_unit_floats_of_floating_and_mixed_values():
    assert unit_floats([3 + 4j, 1.0, -2.5]) == [0.6 + 0.8j, 0.2, -0.5]
    assert unit_floats((0.0, -8.0, 2.0)) == [0.0, -1.0, 0.25]
    # a mixed vector is floating: every entry comes out a float, an exact
    # largest entry included
    for values, want in (([1, 0.5, Fraction(1, 4)], [1.0, 0.5, 0.25]), ([Fraction(2), -0.5], [1.0, -0.25])):
        got = unit_floats(values)
        assert got == want and all(type(v) is float for v in got)


def test_unit_floats_of_mixed_values_past_the_float_range():
    # an exact largest entry past the float range divides the others
    # exactly, a complex one part by part
    top = Fraction(2 * 10 ** 400)
    got = unit_floats([2 * 10 ** 400, 1e300, complex(-1e300, 0.5), Fraction(-(10 ** 400), 3)])
    assert got == [1.0, float(Fraction(1e300) / top), complex(float(Fraction(-1e300) / top), 0.0), -1 / 6]
    # as for the all-exact (10^400 : 1 : 1), instead of an OverflowError
    assert ProjPoint(10 ** 400, 0.5, 1) == ProjPoint(1.0, 0, 0)
    assert ProjPoint(10 ** 400, 0.5, 1) != ProjPoint(0.0, 1.0, 0.0)
