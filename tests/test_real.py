import itertools
import math
import random
from fractions import Fraction

import pytest

from cubica.cubic import CubicForm, is_smooth, transform
from cubica.errors import ComplexCoefficients, OneComponent, SingularCurve
from cubica.hesse import hesse_form, j_of_k, to_hesse
from cubica.projective import ProjMap, ProjPoint, _det3, _flat_proportional, proj_distance
from cubica.real_curves import (
    canonical_picture,
    classify_real,
    count_components,
    cross_ratio_chi,
    real_automorphisms,
    real_flexes,
)
from cubica.standard import StandardCurve


@pytest.mark.parametrize("scale", [10 ** 400, Fraction(1, 10 ** 400)], ids=["1e400", "1e-400"])
def test_exact_forms_past_the_float_range(scale):
    # y^2 = x^3 - x + 1 times 10^+-400: its floats are its coefficients
    # divided exactly by the largest, so nothing depends on the scale
    base = StandardCurve(-1, 1).cubic_form()
    form = CubicForm(tuple(c * scale for c in base.coeffs))
    assert to_hesse(form)[0] == to_hesse(base)[0]
    assert classify_real(form) == classify_real(base)
    maps = real_automorphisms(form)
    assert len(maps) == 6 and maps == real_automorphisms(base)


def test_count_components():
    assert count_components(StandardCurve(-4, 1)) == 2
    assert count_components(StandardCurve(0, 1)) == 1
    with pytest.raises(SingularCurve):
        count_components(StandardCurve(-3, 2))


def test_real_flexes_of_pencil_member():
    fl = real_flexes(hesse_form(2))
    assert len(fl) == 3
    want = [ProjPoint(0, 1, -1), ProjPoint(1, -1, 0), ProjPoint(1, 0, -1)]
    for p in fl:
        assert any(proj_distance(p, w) < 1e-9 for w in want)


def test_real_flexes_reject_complex_curve():
    with pytest.raises(ComplexCoefficients):
        real_flexes(hesse_form(1j))


def test_classify_pencil_member_frozen():
    rc = classify_real(hesse_form(2))
    assert abs(float(rc.k) - 2) < 1e-7
    assert abs(complex(rc.J) - 512.0 / 343.0) < 1e-9
    assert rc.components == 2
    assert rc.sign_b == -1
    assert len(rc.real_flexes) == 3


def test_classify_one_component_member():
    rc = classify_real(hesse_form(-2))
    assert abs(float(rc.k) + 2) < 1e-7
    assert rc.components == 1
    assert abs(complex(rc.J)) < 1e-9


def test_classify_transformed_curve():
    m = ProjMap(((1, 1, 0), (0, 2, -1), (1, 0, 1)))
    rc = classify_real(transform(hesse_form(3), m))
    assert abs(float(rc.k) - 3) < 1e-6


def _sign(v):
    return (v > 0) - (v < 0)


def _real_theorem_forms():
    """(k, form): 8 rational k, each under 25 seeded integer maps, exact and
    rounded to floats."""
    rng = random.Random(9)
    for k in (-3, -2, Fraction(-1, 2), 0, Fraction(1, 3), 2, Fraction(7, 2), 5):
        for _ in range(25):
            while True:
                rows = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
                if _det3(rows):
                    break
            moved = transform(hesse_form(Fraction(k)), ProjMap(rows))
            yield k, moved
            yield k, CubicForm(tuple(float(c) for c in moved.coeffs))


def test_every_real_curve_gets_its_own_real_k():
    # PAPER.md, Theorem T-realH: a smooth real cubic is real-projectively
    # equivalent to exactly one real member with k != 1, whose Weierstrass
    # model is a = -27k(k^3 + 8), b = 54(k^6 - 20k^3 - 8)
    count = 0
    for k0, form in _real_theorem_forms():
        k, m = to_hesse(form)
        assert abs(k - k0) < 1e-6, (k0, form)
        assert all(not isinstance(v, complex) or v.imag == 0 for row in m.rows for v in row)
        rc = classify_real(form)
        assert abs(rc.k - k0) < 1e-6
        assert rc.components == (1 if k0 < 1 else 2)
        assert rc.sign_a == _sign(-27 * k0 * (k0 ** 3 + 8))
        assert rc.sign_b == _sign(54 * (k0 ** 6 - 20 * k0 ** 3 - 8))
        if form.is_exact:
            assert rc.J == j_of_k(k0)
        count += 1
    assert count == 400


def test_classify_real_gives_exact_input_an_exact_j():
    # y^2 = x^3 - 4x + 1 under an integer map is not Hesse-shaped; its J is
    # 4a^3 / (4a^3 + 27b^2)
    form = transform(StandardCurve(-4, 1).cubic_form(), ProjMap(((1, 1, 0), (0, 2, -1), (1, 0, 1))))
    rc = classify_real(form)
    assert isinstance(rc.J, Fraction) and rc.J == Fraction(256, 229)
    assert abs(j_of_k(rc.k) - rc.J) < 1e-9


@pytest.mark.parametrize("rows", [((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 1, 0), (-3, -2, 2), (1, -1, 3)),
                                  ((2, 1, 0), (0, 1, -1), (1, 0, 3))])
def test_classify_real_rejects_a_nodal_curve(rows):
    nodal = transform(CubicForm((1, 0, 1, 0, 0, 0, 0, -1, 0, 0)), ProjMap(rows))  # y^2 z = x^3 + x^2 z
    for form in (nodal, CubicForm(tuple(float(c) for c in nodal.coeffs))):
        with pytest.raises(SingularCurve):
            classify_real(form)


def test_classify_real_rejects_complex_coefficients():
    with pytest.raises(ComplexCoefficients):
        classify_real(hesse_form(1j))


def test_real_automorphisms_hesse():
    f = hesse_form(2)
    maps = real_automorphisms(f)
    assert len(maps) == 6
    fl = real_flexes(f)
    perms = set()
    for m in maps:
        assert _flat_proportional(transform(f, m).coeffs, f.coeffs, 1e-8)
        img = []
        for p in fl:
            q = m.apply(p)
            (idx,) = [i for i, w in enumerate(fl)
                      if proj_distance(q, w) < 1e-7]
            img.append(idx)
        perms.add(tuple(img))
    assert len(perms) == 6


def test_real_automorphisms_of_a_member_permute_coordinates():
    perms = [ProjMap(rows) for rows in itertools.permutations(((1, 0, 0), (0, 1, 0), (0, 0, 1)))]
    for k in (2, Fraction(1, 3), -2.0):
        maps = real_automorphisms(hesse_form(k))
        assert sorted(next(i for i, p in enumerate(perms) if p == m) for m in maps) == list(range(6))


def test_real_automorphisms_of_the_singular_member():
    # k = 1 is the triangle x^3 + y^3 + z^3 - 3xyz
    for k in (1, Fraction(1), 1.0):
        assert not is_smooth(hesse_form(k))
        with pytest.raises(SingularCurve):
            real_automorphisms(hesse_form(k))


def test_real_automorphisms_transformed():
    m = ProjMap(((2, 0, 1), (0, 1, 1), (-1, 1, 0)))
    # one component for k < 1, two for k > 1
    for k in (0, -2, 2):
        f = transform(hesse_form(k), m)
        maps = real_automorphisms(f)
        assert len(maps) == 6
        for i, a in enumerate(maps):
            assert all(complex(v).imag == 0 for row in a.rows for v in row)
            assert _flat_proportional(transform(f, a).coeffs, f.coeffs, 1e-6)
            assert all(a != b for b in maps[:i])


def test_canonical_picture_two_components():
    pic = canonical_picture(2.0)
    assert len(pic.asymptotes) == 3
    assert pic.isolated_point is None
    assert any(pic.closed)
    assert not all(pic.closed)


def test_canonical_picture_one_component():
    pic = canonical_picture(-2.0)
    assert not any(pic.closed)
    assert len(pic.asymptotes) == 3


def test_canonical_picture_pinch_member():
    pic = canonical_picture(1.0)
    assert pic.isolated_point == (0.0, 0.0)
    assert len(pic.branches) >= 3


def test_canonical_picture_triangle_member():
    pic = canonical_picture(float("inf"))
    assert abs(pic.scale - math.sqrt(3.0)) < 1e-12
    assert len(pic.branches) == 3


def test_cross_ratio_frozen():
    assert abs(cross_ratio_chi(StandardCurve(-1, 0)) - 1.0) < 1e-12


def test_cross_ratio_needs_two_components():
    with pytest.raises(OneComponent):
        cross_ratio_chi(StandardCurve(0, 1))
    with pytest.raises(ComplexCoefficients):
        cross_ratio_chi(StandardCurve(1j, 0))
