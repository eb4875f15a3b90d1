import random
from fractions import Fraction

import numpy as np
import pytest

from cubica.cubic import CubicForm, find_flexes, transform
from cubica.errors import NotAFlex, SingularCurve, ZeroScale
from cubica.hesse import hesse_form, j_of_k
from cubica.projective import ProjMap, ProjPoint
from cubica.standard import (
    StandardCurve,
    automorphism_order,
    j_invariant,
    rescale,
    to_standard,
    triangle_shape,
)


def test_discriminant_and_smoothness():
    assert StandardCurve(1, 1).discriminant() == -(4 + 27)
    assert StandardCurve(1, 1).is_smooth()
    # 4 a^3 + 27 b^2 = 0 at (-3, 2)
    assert not StandardCurve(-3, 2).is_smooth()


def test_j_invariant_frozen():
    v = j_invariant(StandardCurve(1, 1))
    assert v == Fraction(4, 31)
    assert isinstance(v, Fraction)


def test_j_invariant_special_lines():
    assert j_invariant(StandardCurve(0, 5)) == 0
    assert j_invariant(StandardCurve(-2, 0)) == 1


def test_j_invariant_singular():
    with pytest.raises(SingularCurve):
        j_invariant(StandardCurve(-3, 2))


def test_rescale_preserves_j():
    c = StandardCurve(Fraction(2, 3), -5)
    d = rescale(c, Fraction(7, 2))
    assert d.a == Fraction(2, 3) * Fraction(7, 2) ** 4
    assert j_invariant(c) == j_invariant(d)
    with pytest.raises(ZeroScale):
        rescale(c, 0)


def test_to_standard_fixes_standard_model():
    c = StandardCurve(1, 1)
    got, amap = to_standard(c.cubic_form(), ProjPoint(0, 1, 0))
    assert got.a == 1 and got.b == 1


def test_to_standard_exact_inputs_stay_exact():
    c = StandardCurve(Fraction(-2, 5), Fraction(3, 4))
    got, _ = to_standard(c.cubic_form(), ProjPoint(0, 1, 0))
    assert got.a == Fraction(-2, 5) and got.b == Fraction(3, 4)
    assert got.is_exact


def test_to_standard_from_pencil_member():
    f = hesse_form(2)
    fs = find_flexes(f)
    curve, amap = to_standard(f, fs[0])
    j = j_invariant(curve)
    assert abs(complex(j) - 512.0 / 343.0) < 1e-8


def test_to_standard_map_carries_the_curve_to_its_standard_form_exactly():
    # y^2 = x^3 + ax + b moved by an integer map M has the flex M (0:1:0);
    # the returned A must carry the moved curve onto y^2 = x^3 + a'x + b'
    # for the returned (a', b'), and J must not move
    rng = random.Random(5)
    checked = 0
    while checked < 40:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
        curve = StandardCurve(a, b)
        if not curve.is_smooth() or round(np.linalg.det(rows)) == 0:
            continue
        form = transform(curve.cubic_form(), ProjMap(rows))
        got, amap = to_standard(form, ProjPoint(*(r[1] for r in rows)))
        assert got.is_exact and amap.is_exact
        image = transform(form, amap).normalized().coeffs
        assert image == got.cubic_form().normalized().coeffs, (a, b, rows)
        assert j_invariant(got) == j_invariant(curve)
        checked += 1


@pytest.mark.parametrize("k", [0.5, -2.0, 3.0, complex(0.3, 1.1)])
def test_to_standard_map_carries_pencil_members_to_their_standard_form(k):
    rng = np.random.default_rng(11)
    for _ in range(3):
        amap = ProjMap(tuple(map(tuple, rng.normal(size=(3, 3)).tolist())))
        form = transform(hesse_form(k), amap)
        for flex in find_flexes(form):
            got, a = to_standard(form, flex)
            # both scaled to x^3 coefficient 1, the standard form's own
            image = np.array([complex(c) for c in transform(form, a).coeffs])
            want = np.array([complex(c) for c in got.cubic_form().coeffs])
            assert np.abs(image / image[0] - want).max() <= 1e-9 * np.abs(want).max(), (k, flex)


def test_to_standard_rejects_non_flex():
    c = StandardCurve(0, 1)
    # (2, 3) is on the curve but not a flex
    with pytest.raises(NotAFlex):
        to_standard(c.cubic_form(), ProjPoint(2, 3, 1))


@pytest.mark.parametrize("scalar", [int, float])
def test_to_standard_rejects_near_flex_whose_tangent_meets_the_curve_again(scalar):
    # 2e6 x^3 + x^2 y + 4e6 xyz + y^2 z + z^3 at (0:1:0): tangent z = 0 and
    # contact defect 5e-7, below the gate, but after the completed square
    # y -> y - 2e6 x the x^3 coefficient is 2e6 - 2e6 = 0
    form = CubicForm(tuple(scalar(c) for c in (2 * 10 ** 6, 1, 0, 0, 4 * 10 ** 6, 0, 0, 1, 0, 1)))
    with pytest.raises(NotAFlex):
        to_standard(form, ProjPoint(0, 1, 0))


def test_triangle_tags_frozen():
    assert triangle_shape(StandardCurve(0, 1)).tag == "equilateral"
    assert triangle_shape(StandardCurve(1, 1)).tag == "isosceles"
    assert triangle_shape(StandardCurve(-1, 0)).tag == "collinear-with-midpoint"
    assert triangle_shape(StandardCurve(-4, 1)).tag == "collinear"


def test_triangle_generic_orientation_tracks_j():
    random.seed(31)
    seen = set()
    for _ in range(40):
        a = complex(random.uniform(-2, 2), random.uniform(-2, 2))
        b = complex(random.uniform(-2, 2), random.uniform(-2, 2))
        c = StandardCurve(a, b)
        if not c.is_smooth():
            continue
        j = complex(j_invariant(c))
        if abs(j.imag) < 1e-6:
            continue
        tag = triangle_shape(c).tag
        if tag not in ("generic-upper", "generic-lower"):
            continue
        assert (tag == "generic-upper") == (j.imag > 0)
        seen.add(tag)
    assert seen == {"generic-upper", "generic-lower"}


def test_triangle_singular_rejected():
    with pytest.raises(SingularCurve):
        triangle_shape(StandardCurve(-3, 2))


def test_automorphism_orders():
    assert automorphism_order(StandardCurve(0, 1)) == (54, 6)
    assert automorphism_order(StandardCurve(1, 0)) == (36, 4)
    assert automorphism_order(StandardCurve(1, 1)) == (18, 2)
