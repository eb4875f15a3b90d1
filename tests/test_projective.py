import cmath
import math
from fractions import Fraction

import pytest

from cubica.errors import CoincidentPoints, InvalidInput, SingularMap
from cubica.hesse import MobiusMap
from cubica.projective import (
    ProjLine,
    ProjMap,
    ProjPoint,
    line_through,
    map_four_points,
    meet,
    proj_distance,
)


def test_point_equality_is_projective():
    assert ProjPoint(1, 2, 3) == ProjPoint(2, 4, 6)
    assert ProjPoint(1, 2, 3) == ProjPoint(Fraction(1, 3), Fraction(2, 3), 1)
    assert ProjPoint(1, 2, 3) != ProjPoint(1, 2, 4)


def test_point_equality_mixed_exactness():
    assert ProjPoint(1, -1, 0) == ProjPoint(-1.0, 1.0, 0.0)
    assert ProjPoint(0, 1, -1) == ProjPoint(0.0, -0.5, 0.5)


def test_exact_point_past_the_float_range_equals_a_float_one():
    # (10^400 : 1 : 1) is (1 : 0 : 0) to far below the tolerance
    assert ProjPoint(10 ** 400, 1, 1) == ProjPoint(1.0, 0.0, 0.0)
    assert ProjPoint(10 ** 400, 1, 1) != ProjPoint(0.0, 1.0, 0.0)


@pytest.mark.parametrize("coords", [(math.nan, 1, 0), (1, complex(0, math.nan), 1)])
def test_nan_coordinates_rejected(coords):
    # a point, a line, a map with the triple as a row, a Mobius map
    for build in (
        lambda: ProjPoint(*coords),
        lambda: ProjLine(*coords),
        lambda: ProjMap((coords, (0, 1, 0), (0, 0, 1))),
        lambda: MobiusMap(coords + (1,)),
    ):
        with pytest.raises(InvalidInput, match="NaN"):
            build()


def test_zero_triple_rejected():
    with pytest.raises(Exception):
        ProjPoint(0, 0, 0)


def test_proj_distance_basics():
    p = ProjPoint(1.0, 2.0, 3.0)
    assert proj_distance(p, p) == 0.0
    q = ProjPoint(-2.0, -4.0, -6.0)
    assert proj_distance(p, q) < 1e-15
    e1, e2 = ProjPoint(1, 0, 0), ProjPoint(0, 1, 0)
    assert abs(proj_distance(e1, e2) - 1.0) < 1e-15


def test_proj_distance_small_perturbation():
    p = ProjPoint(1.0, 1.0, 1.0)
    q = ProjPoint(1.0, 1.0, 1.0 + 3e-9)
    d = proj_distance(p, q)
    assert 1e-10 < d < 1e-8


def test_line_through_frozen():
    ln = line_through(ProjPoint(2, 3, 1), ProjPoint(0, 1, 1))
    assert ln == ProjLine(1, -1, 1)


def test_meet_inverts_join():
    p, q = ProjPoint(2, 3, 1), ProjPoint(0, 1, 1)
    ln = line_through(p, q)
    other = ProjLine(1, 0, 0)
    pt = meet(ln, other)
    assert ln.contains(pt) and other.contains(pt)


def test_line_through_coincident():
    with pytest.raises(CoincidentPoints):
        line_through(ProjPoint(1, 2, 3), ProjPoint(2, 4, 6))


def test_map_compose_inverse():
    m = ProjMap(((1, 2, 0), (0, 1, 5), (1, 0, 1)))
    ident = m.compose(m.inverse())
    p = ProjPoint(3, -1, 2)
    assert ident.apply(p) == p


def test_rational_map_inverse_is_literal():
    m = ProjMap(((Fraction(1, 2), 2, Fraction(-3, 7)), (0, Fraction(5, 3), 1), (4, Fraction(1, 6), 1)))
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert m.compose(m.inverse()).rows == ident
    assert m.inverse().compose(m).rows == ident
    assert m.inverse().inverse().rows == m.rows


def test_proj_distance_past_float_range():
    big = 10 ** 400
    assert proj_distance(ProjPoint(big, 1, 0), ProjPoint(1, 0, 0)) < 1e-300
    assert proj_distance(ProjPoint(big, Fraction(big, 3), 1), ProjPoint(0, 0, 1)) == pytest.approx(1.0)


def test_singular_map_rejected():
    with pytest.raises(SingularMap):
        ProjMap(((1, 2, 3), (2, 4, 6), (0, 0, 1))).inverse()


def test_map_four_points():
    src = [ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(0, 0, 1),
           ProjPoint(1, 1, 1)]
    dst = [ProjPoint(1, 2, 3), ProjPoint(0, 1, 1), ProjPoint(2, 0, 1),
           ProjPoint(1, 1, 1)]
    m = map_four_points(src, dst)
    for s, d in zip(src, dst):
        assert m.apply(s) == d


def test_map_four_points_exact():
    # onto the frame (1 : 2 : 0), (0 : 1 : 1), (1 : 0 : 1), unit (1 : 1 : 1):
    # (1, 1, 1) = (1, 2, 0) / 3 + (0, 1, 1) / 3 + 2 (1, 0, 1) / 3, so the
    # columns are those points times 1/3, 1/3 and 2/3
    frame = [ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(0, 0, 1), ProjPoint(1, 1, 1)]
    dst = [ProjPoint(1, 2, 0), ProjPoint(0, 1, 1), ProjPoint(1, 0, 1), ProjPoint(1, 1, 1)]
    m = map_four_points(frame, dst)
    third = Fraction(1, 3)
    assert m.is_exact
    assert m.rows == ((third, 0, 2 * third), (2 * third, third, 0), (0, third, 2 * third))
    back = map_four_points(dst, frame)
    assert back.is_exact and back == ProjMap(((1, 0, 2), (2, 1, 0), (0, 1, 2))).inverse()


def test_map_four_points_degenerate():
    # three of the four on one line
    src = [ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(1, 1, 0),
           ProjPoint(1, 1, 1)]
    dst = [ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(0, 0, 1),
           ProjPoint(1, 1, 1)]
    with pytest.raises(CoincidentPoints):
        map_four_points(src, dst)


def test_line_image_preserves_incidence():
    m = ProjMap(((2, 0, 1), (1, 1, 0), (0, 3, 1)))
    p, q = ProjPoint(1, 2, 1), ProjPoint(0, 1, 3)
    ln = line_through(p, q)
    img = m.line_image(ln)
    assert img.contains(m.apply(p))
    assert img.contains(m.apply(q))


def test_normal_form_pivot_is_first_of_tied_coordinates():
    # two coordinates of equal size up to rounding, as on the flexes of the
    # Hesse pencil: the first is the pivot whichever is larger in the last
    # bits, and the normal form is its own normal form; past 1e-12 the
    # larger one is the pivot
    w = cmath.exp(2j * cmath.pi / 3)
    for z in (-w, -w * (1 + 2e-16), -w * (1 - 2e-16)):
        n = ProjPoint(0.0, 1.0, z).normalized()
        assert n.coords[1] == 1 and n.normalized().coords == n.coords
    assert ProjPoint(0.0, 1.0, 1.0 + 1e-9).normalized().coords[2] == 1
