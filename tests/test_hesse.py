import cmath
import math
import random
from fractions import Fraction

import pytest

from cubica.cubic import find_flexes, transform
from cubica.errors import SingularParameter
from cubica.hesse import (
    eta,
    exceptional_points,
    hesse_form,
    hesse_orbit,
    is_smooth_parameter,
    j_of_k,
    parameters_for_j,
    real_parameters_for_j,
    symmetry_group,
    tetrahedral_group,
    to_hesse,
    translation_subgroup,
)
from cubica.projective import ProjMap, apply_map, proj_distance

GAMMA = cmath.exp(2j * cmath.pi / 3)


def test_hesse_form_coefficients():
    f = hesse_form(2)
    assert f.as_dict() == {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1,
                           (1, 1, 1): -6}


def test_hesse_form_infinity_is_triangle():
    f = hesse_form(float("inf"))
    assert f.as_dict() == {(1, 1, 1): 1}


def test_smooth_parameters():
    assert is_smooth_parameter(0) and is_smooth_parameter(-2)
    assert not is_smooth_parameter(1)
    assert not is_smooth_parameter(GAMMA)
    assert not is_smooth_parameter(float("inf"))


def test_exceptional_points_on_every_member():
    pts = exceptional_points()
    assert len(pts) == 9
    for k in (0, 1, -2, 5, Fraction(3, 7)):
        f = hesse_form(k)
        for p in pts:
            v = f.evaluate(p.to_complex())
            assert abs(v) < 1e-12


def test_translation_subgroup_order_nine():
    ts = translation_subgroup()
    assert len(ts) == 9
    pts = exceptional_points()
    # each translation permutes the nine base points
    for m in ts:
        for p in pts:
            q = apply_map(m, p)
            assert any(proj_distance(q, e) < 1e-9 for e in pts)


def test_symmetry_group_order_eighteen():
    g = symmetry_group()
    assert len(g) == 18
    f = hesse_form(Fraction(5, 3))
    for m in g:
        img = transform(f, m)
        from cubica.projective import _flat_proportional

        assert _flat_proportional(img.coeffs, f.coeffs, 1e-9)


def test_j_of_k_frozen_values():
    assert j_of_k(0) == 0
    assert j_of_k(-2) == 0
    v = j_of_k(2)
    assert v == Fraction(512, 343)
    assert isinstance(v, Fraction)


def test_j_of_k_unit_anchors():
    for k in (1 + math.sqrt(3), 1 - math.sqrt(3)):
        assert abs(j_of_k(k) - 1) < 1e-12


def test_j_of_k_singular():
    for k in (1, GAMMA, float("inf")):
        with pytest.raises(SingularParameter):
            j_of_k(k)


def test_eta_invariance():
    random.seed(23)
    for _ in range(50):
        k = complex(random.uniform(-3, 3), random.uniform(-3, 3))
        if abs(k ** 3 - 1) < 1e-2:
            continue
        j1, j2 = j_of_k(k), j_of_k(eta(k))
        assert abs(j1 - j2) <= 1e-9 * max(1.0, abs(j1))


def test_tetrahedral_group_order_twelve():
    assert len(tetrahedral_group()) == 12


def test_orbit_product_recovers_j():
    k = 0.75 + 0.25j
    orbit = hesse_orbit(k)
    assert len(orbit) == 12
    prod = 1
    for v in orbit:
        prod *= complex(v)
    j = complex(j_of_k(k))
    assert abs(prod / 64 - j) <= 1e-9 * max(1.0, abs(j))


def test_parameters_for_j_inverts():
    j0 = 0.3 + 0.8j
    ks = parameters_for_j(j0)
    assert len(ks) == 12
    for k in ks:
        assert abs(complex(j_of_k(k)) - j0) < 1e-7


def test_real_parameters_for_j_anchors():
    assert real_parameters_for_j(0.0) == [-2.0, 0.0]
    lo, hi = real_parameters_for_j(1.0)
    assert abs(lo - (1 - math.sqrt(3))) < 1e-9
    assert abs(hi - (1 + math.sqrt(3))) < 1e-9


def test_real_parameters_always_two():
    for j0 in (-3.0, 0.5, 0.99, 1.01, 7.0, 200.0):
        ks = real_parameters_for_j(j0)
        assert len(ks) == 2
        inside = sum(1 - math.sqrt(3) < k < 1 + math.sqrt(3) for k in ks)
        assert inside == 1


def test_to_hesse_recovers_member():
    from cubica.projective import _flat_proportional

    a = ProjMap(((2, 1, 0), (0, 1, -1), (1, 0, 3)))
    for k0 in (1.8, 0.7 + 1.1j):
        moved = transform(hesse_form(k0), a)
        k, m = to_hesse(moved)
        assert abs(complex(j_of_k(k)) - complex(j_of_k(k0))) < 1e-7
        img = transform(moved, m)
        assert _flat_proportional(img.coeffs, hesse_form(complex(k)).coeffs, 1e-6)


def test_to_hesse_canonical_collapses_orbit():
    k0 = 1.8
    reps = set()
    for k in hesse_orbit(k0):
        if abs(complex(k).imag) > 1e-9:
            continue
        kk, _ = to_hesse(hesse_form(complex(k).real), canonical=True)
        reps.add(round(complex(kk).real, 6) + 0.0)
    assert len(reps) == 1


def test_flexes_match_exceptional_points():
    fs = find_flexes(hesse_form(2))
    exc = exceptional_points()
    for p in fs:
        assert min(proj_distance(p, e) for e in exc) < 1e-6
    # off the pencil's own coordinates the flexes are the images of the
    # base points, one each
    a = ProjMap(((2, 1, 0), (0, 1, -1), (1, 0, 3)))
    images = [apply_map(a, e) for e in exc]
    for p in find_flexes(transform(hesse_form(0.7 + 1.1j), a)):
        dist = [proj_distance(p, q) for q in images]
        assert min(dist) < 1e-9
        images.pop(dist.index(min(dist)))
