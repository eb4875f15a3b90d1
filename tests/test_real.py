import math

import pytest

from cubica.cubic import transform
from cubica.errors import ComplexCoefficients, OneComponent, SingularCurve
from cubica.hesse import hesse_form, j_of_k
from cubica.projective import ProjMap, ProjPoint, _flat_proportional, proj_distance
from cubica.real_curves import (
    canonical_picture,
    classify_real,
    count_components,
    cross_ratio_chi,
    real_automorphisms,
    real_flexes,
)
from cubica.standard import StandardCurve


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
