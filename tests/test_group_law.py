import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cubica.cubic import CubicForm, find_flexes, transform
from cubica.errors import InvalidInput, NonFlexBase
from cubica.group_law import (
    BasedGroup,
    add,
    affine_point,
    chord_tangent,
    curve_point,
    flex_based_group,
    multiply,
    negate,
    three_torsion,
    _project_to_curve,
)
from cubica.hesse import hesse_form
from cubica.projective import ProjMap, ProjPoint, proj_distance
from cubica.standard import StandardCurve

# y^2 = x^3 + 1 carries six handy rational points
C1 = StandardCurve(0, 1).cubic_form()
RATIONAL = [(0, 1, 0), (2, 3, 1), (2, -3, 1), (0, 1, 1), (0, -1, 1), (-1, 0, 1)]


def group():
    return flex_based_group(C1)


def affine_add(a, p, q):
    """Chord-tangent sum on y^2 = x^3 + ax + b over Fraction, in affine
    coordinates with None for the point at infinity."""
    if p is None or q is None:
        return q if p is None else p
    (x1, y1), (x2, y2) = p, q
    if x1 == x2 and y1 == -y2:
        return None
    lam = (3 * x1 * x1 + a) / (2 * y1) if p == q else (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    return x3, lam * (x1 - x3) - y1


def integer_triple(p):
    """(x : y : 1) as coprime integers, first nonzero positive."""
    den = math.lcm(p[0].denominator, p[1].denominator)
    ints = [p[0] * den, p[1] * den, den]
    g = math.gcd(*(int(v) for v in ints))
    sign = 1 if next(v for v in ints if v != 0) > 0 else -1
    return tuple(int(v) // g * sign for v in ints)


# 14P on y^2 = x^3 - 2 from P = (3, 5): its coordinates have 173 digits, so
# the cubic restricted to a line through it has coefficients past the float
# range
P14 = (0, -2, (Fraction(3), Fraction(5)), 14)


def test_exact_multiples_past_float_range():
    a, b, p, n = P14
    curve = StandardCurve(a, b).cubic_form()
    g = BasedGroup(curve, ProjPoint(0, 1, 0))
    want = None
    for k in range(1, n + 1):
        want = affine_add(a, want, p)
        got = multiply(g, k, affine_point(curve, *p))
        assert got.is_exact
        assert got.point == ProjPoint(*want, 1)
    assert max(abs(v) for v in integer_triple(want)) ** 3 > 10 ** 308


def test_flex_base_test_on_exact_points_past_float_range():
    a, b, p, n = P14
    curve = StandardCurve(a, b).cubic_form()
    point = multiply(BasedGroup(curve, ProjPoint(0, 1, 0)), n, affine_point(curve, *p)).point
    assert not BasedGroup(curve, point).is_flex_based()
    assert BasedGroup(curve, ProjPoint(0, 1, 0)).is_flex_based()


# float curves with |b| of 3e6 to 1.8e8, reduced from random pencil members:
# a doubling on the way to 37P meets a point near O (z about 1e-4), whose
# tangent restriction has c2 of 1e-10 to 3e-8, far above its own rounding
# but below 1e-14 times the largest coefficient of the form
LARGE_B = (
    (-47592.23309996749, 12802842.010725565,
     (115.17572806156566 + 170.12752322740704j, 1613.079422658053 - 1937.3998592403857j)),
    (-41173.12914585562, -3246273.572373419,
     (-106.9866227741196 - 23.986284936299654j, 407.7704993168266 + 217.9409478430993j)),
    (45962.845678816775 + 178943.61998801192j, 41554720.41163634 + 173621028.9117308j,
     (-273.6424853948511 - 423.27055856101896j, 15460.604823293525 + 2779.5891928095684j)),
)


def sine(u, v):
    """Sine of the angle between two complex triples, from their 2x2 minors."""
    minors = sum(abs(u[i] * v[j] - u[j] * v[i]) ** 2 for i in range(3) for j in range(i + 1, 3))
    return math.sqrt(minors) / math.sqrt(sum(abs(t) ** 2 for t in u) * sum(abs(t) ** 2 for t in v))


@pytest.mark.parametrize("a, b, p", LARGE_B, ids=("reduce-6-344", "reduce-6-556", "reduce-7-139"))
def test_float_multiples_on_curves_with_large_b(a, b, p):
    curve = StandardCurve(a, b).cubic_form()
    got = multiply(BasedGroup(curve, ProjPoint(0, 1, 0)), 37, affine_point(curve, *p))
    want = None
    for _ in range(37):
        want = affine_add(a, want, p)
    assert sine([complex(t) for t in got.point.coords], (*want, 1)) <= 1e-6


def test_projection_of_a_tiny_point():
    # a point 1e-6 off the curve, with coordinates of size 1e-8, where the
    # gradient's squared norm is 6e-31: the projection sees the point
    # itself, not its size
    x = 1.27
    coords = [1e-8 * v for v in (x, math.sqrt(x ** 3 - 2) + 1e-6, 1.0)]
    curve = StandardCurve(0, -2).cubic_form()
    q = [complex(v) for v in _project_to_curve(curve, coords)]
    top = max(abs(v) for v in q)
    assert abs(curve.evaluate([v / top for v in q])) < 1e-14


def test_membership_enforced():
    with pytest.raises(InvalidInput):
        curve_point(C1, (5, 5, 1))


def test_chord_accepts_points_on_proportional_forms():
    # a multiple of the form is the same curve; y^2 = x^3 + x + 1 is not,
    # though it passes through (0, 1) as well
    p = affine_point(C1, 2, 3)
    doubled = CubicForm(tuple(2 * c for c in C1.coeffs))
    r = chord_tangent(p, affine_point(doubled, 0, 1))
    assert r.point == ProjPoint(-1, 0, 1)
    assert r.is_exact
    other = StandardCurve(1, 1).cubic_form()
    with pytest.raises(InvalidInput):
        chord_tangent(p, affine_point(other, 0, 1))


def test_chord_frozen():
    p = affine_point(C1, 2, 3)
    q = affine_point(C1, 0, 1)
    r = chord_tangent(p, q)
    assert r.point == ProjPoint(-1, 0, 1)
    assert r.is_exact


def test_identity_and_negation():
    g = group()
    for coords in RATIONAL:
        p = curve_point(C1, coords)
        assert add(g, p, g.base).point == p.point
        assert negate(g, negate(g, p)).point == p.point


def test_exact_closure():
    g = group()
    pts = [curve_point(C1, c) for c in RATIONAL]
    for p in pts:
        for q in pts:
            s = add(g, p, q)
            assert s.is_exact
            assert C1.evaluate(s.point.coords) == 0


def test_exact_associativity():
    g = group()
    pts = [curve_point(C1, c) for c in RATIONAL]
    random.seed(7)
    for _ in range(40):
        p, q, r = (random.choice(pts) for _ in range(3))
        lhs = add(g, add(g, p, q), r)
        rhs = add(g, p, add(g, q, r))
        assert lhs.point == rhs.point


def test_multiply_matches_repeated_add():
    g = group()
    p = affine_point(C1, 2, 3)
    acc = g.base
    for n in range(1, 7):
        acc = add(g, acc, p)
        assert multiply(g, n, p).point == acc.point
    assert multiply(g, -2, p).point == negate(g, multiply(g, 2, p)).point


def test_known_order_six_point():
    g = group()
    p = affine_point(C1, 2, 3)
    # (2, 3) generates a cyclic group of order six
    assert multiply(g, 6, p).point == g.base.point
    for n in range(1, 6):
        assert multiply(g, n, p).point != g.base.point


def test_tangent_process_is_minus_double():
    g = group()
    for coords in ((2, 3, 1), (0, 1, 1), (2, -3, 1)):
        p = curve_point(C1, coords)
        t = chord_tangent(p, p)
        m = multiply(g, -2, p)
        assert proj_distance(t.point, m.point) < 1e-9


def test_floating_associativity():
    curve = StandardCurve(-1.25, 0.75).cubic_form()
    g = flex_based_group(curve)
    random.seed(41)

    def sample():
        while True:
            x = complex(random.uniform(-2, 2), random.uniform(-2, 2))
            rhs = x ** 3 - 1.25 * x + 0.75
            y = rhs ** 0.5
            if abs(y) > 1e-3:
                return curve_point(curve, (x, y, 1))

    for _ in range(30):
        p, q, r = sample(), sample(), sample()
        lhs = add(g, add(g, p, q), r)
        rhs = add(g, p, add(g, q, r))
        assert proj_distance(lhs.point, rhs.point) < 1e-7


def test_three_torsion_is_flex_set():
    g = group()
    tor = three_torsion(g)
    assert len(tor) == 9
    flexes = list(find_flexes(C1))
    for t in tor:
        assert multiply(g, 3, t).point == g.base.point or \
            proj_distance(multiply(g, 3, t).point.normalized(),
                          g.base.point.normalized()) < 1e-7
        assert min(proj_distance(t.point, f) for f in flexes) < 1e-7


def test_non_flex_base_rejected():
    p = affine_point(C1, 2, 3)
    g = BasedGroup(C1, p)
    with pytest.raises(NonFlexBase):
        three_torsion(g)


# ---------------------------------------------------------------------------
# the Hesse-form law as an independent oracle
# ---------------------------------------------------------------------------

OMEGA = complex(-0.5, math.sqrt(3) / 2)
# the nine base points of the pencil x^3 + y^3 + z^3 = 3k xyz, its flexes
HESSE_BASE_POINTS = [p for w in (1, OMEGA, OMEGA ** 2)
                     for p in ((0, 1, -w), (1, 0, -w), (1, -w, 0))]
INTEGER_MAPS = (
    ((2, 0, 1), (0, 1, 1), (-1, 1, 0)),
    ((1, 1, 0), (0, 2, -1), (1, 0, 1)),
    ((3, -1, 2), (1, 1, 0), (0, -2, 3)),
)


def hesse_double(p):
    """2p on x^3 + y^3 + z^3 = 3k xyz with zero (1 : -1 : 0)."""
    x, y, z = p
    return (y * (x ** 3 - z ** 3), x * (z ** 3 - y ** 3), z * (y ** 3 - x ** 3))


def hesse_add(p, q):
    """p + q for p != q on the same curve (Joye & Quisquater, CHES 2001):
    no k and no tolerance.  Where the formula gives (0 : 0 : 0) the rotated
    form (Bernstein, Chuengsatiansup, Kohel & Lange, 2015) adds p + t and
    q - t instead, the cyclic shifts of coordinates being the translations
    by the 3-torsion point t = (-1 : 0 : 1) and by -t."""
    for shift in range(3):
        (x1, y1, z1), (x2, y2, z2) = p[shift:] + p[:shift], q[-shift:] + q[:-shift] if shift else q
        s = (y1 * y1 * x2 * z2 - y2 * y2 * x1 * z1,
             x1 * x1 * y2 * z2 - x2 * x2 * y1 * z1,
             z1 * z1 * x2 * y2 - z2 * z2 * x1 * y1)
        if any(s):
            return s, shift
    raise AssertionError("no Hesse formula applies")


def hesse_multiple(p, n):
    """n p by repeated addition, -p being (y : x : z)."""
    if n < 0:
        x, y, z = hesse_multiple(p, -n)
        return (y, x, z)
    acc = (1, -1, 0)
    for i in range(n):
        acc = p if i == 0 else hesse_double(p) if i == 1 else hesse_add(acc, p)[0]
    return acc


def hesse_point(rng, k, real):
    """A point of x^3 + y^3 + z^3 = 3k xyz: a root z of the cubic in z at
    random (x, y), real for real k when real is set."""
    while True:
        x, y = (complex(rng.uniform(-2, 2), 0 if real else rng.uniform(-2, 2)) for _ in range(2))
        roots = np.roots([1, 0, -3 * k * x * y, x ** 3 + y ** 3])
        if real:
            roots = [r.real for r in roots if abs(r.imag) <= 1e-12]
            x, y = x.real, y.real
        if len(roots):
            return (x, y, complex(roots[0]) if not real else roots[0])


def moved(rows, p):
    return ProjMap(rows).apply(ProjPoint(*p))


def test_hesse_oracle_float_add_and_multiply():
    rng = random.Random(13)
    for k, real in ((0.5, True), (-2.0, True), (3.0, True), (0.3 + 1.1j, False)):
        for rows in INTEGER_MAPS:
            curve = transform(hesse_form(k), ProjMap(rows))
            g = BasedGroup(curve, moved(rows, (1, -1, 0)))
            for _ in range(4):
                p, q = hesse_point(rng, k, real), hesse_point(rng, k, real)
                mp, mq = (curve_point(curve, moved(rows, t)) for t in (p, q))
                assert proj_distance(add(g, mp, mq).point, moved(rows, hesse_add(p, q)[0])) < 1e-9
                assert proj_distance(add(g, mp, mp).point, moved(rows, hesse_double(p))) < 1e-9
                for n in (-3, 2, 3, 5):
                    want = moved(rows, hesse_multiple(p, n))
                    assert proj_distance(multiply(g, n, mp).point, want) < 1e-8


def test_hesse_oracle_exact_add_and_multiply():
    # (x : y : z) on the member whose k is (x^3 + y^3 + z^3) / 3xyz
    used_rotation = False
    for x, y, z in ((1, 2, 3), (1, 1, 2), (2, -1, 3)):
        k = Fraction(x ** 3 + y ** 3 + z ** 3, 3 * x * y * z)
        pts = [(x, y, z), (1, -1, 0), (1, 0, -1), (0, 1, -1), hesse_double((x, y, z))]
        pts.append(hesse_add(pts[0], pts[2])[0])
        for rows in INTEGER_MAPS:
            curve = transform(hesse_form(k), ProjMap(rows))
            g = BasedGroup(curve, moved(rows, (1, -1, 0)))
            on_curve = [curve_point(curve, moved(rows, p)) for p in pts]
            assert all(c.is_exact for c in on_curve)
            for i, p in enumerate(pts):
                for j, q in enumerate(pts):
                    want, shift = hesse_add(p, q) if i != j else (hesse_double(p), 0)
                    used_rotation = used_rotation or shift > 0
                    got = add(g, on_curve[i], on_curve[j])
                    assert got.is_exact and got.point == moved(rows, want)
            for n in (-2, 2, 3, 4):
                got = multiply(g, n, on_curve[0])
                assert got.is_exact and got.point == moved(rows, hesse_multiple(pts[0], n))
    assert used_rotation


@pytest.mark.parametrize("k", (0.5, -2.0, 0.3 + 1.1j, Fraction(5, 3)))
def test_three_torsion_is_the_moved_base_points(k):
    for rows in INTEGER_MAPS:
        curve = transform(hesse_form(k), ProjMap(rows))
        tor = three_torsion(BasedGroup(curve, moved(rows, (1, -1, 0))))
        want = [moved(rows, p) for p in HESSE_BASE_POINTS]
        for t in tor:
            dist = [proj_distance(t.point, w) for w in want]
            best = min(range(len(want)), key=dist.__getitem__)
            assert dist[best] < 1e-9
            want.pop(best)
        assert not want


# ---------------------------------------------------------------------------
# the ladder against the same fold of public add calls
# ---------------------------------------------------------------------------


def add_fold(g, n, p):
    """n p by the double-and-add order of multiply, every step a public add."""
    if n == 0:
        return g.base
    acc, run, m = None, p, abs(n)
    while m:
        if m & 1:
            acc = run if acc is None else add(g, acc, run)
        m >>= 1
        if m:
            run = add(g, run, run)
    return negate(g, acc) if n < 0 else acc


@pytest.mark.parametrize("a, b, x", (
    (-1.25, 0.75, 0.4), (-1.25, 0.75, 1.7 + 0.3j), (0.3 + 1.1j, -0.7 + 0.2j, 0.9 - 0.4j),
))
def test_float_ladder_matches_fold_of_adds(a, b, x):
    curve = StandardCurve(a, b).cubic_form()
    g = BasedGroup(curve, ProjPoint(0, 1, 0))
    p = affine_point(curve, x, (x ** 3 + a * x + b) ** 0.5)
    for n in range(-5, 41):
        assert multiply(g, n, p).point.coords == add_fold(g, n, p).point.coords


def test_exact_ladder_matches_fold_of_adds():
    # the torsion points of C1, and (3, 5) of infinite order on y^2 = x^3 - 2
    c2 = StandardCurve(0, -2).cubic_form()
    for g, p in [(group(), affine_point(C1, *xy)) for xy in ((2, 3), (0, 1), (-1, 0))] + [
            (BasedGroup(c2, ProjPoint(0, 1, 0)), affine_point(c2, 3, 5))]:
        for n in range(-5, 41):
            got = multiply(g, n, p)
            assert got.is_exact and got.point.coords == add_fold(g, n, p).point.coords


def test_ladder_partial_sum_at_the_base():
    # (2, 3) has order six: at n = 6 and 12 the last step acc + run meets
    # the base, and the chord (p*q)*o is the tangent at o
    g = group()
    p = affine_point(C1, 2, 3)
    for n in (5, 6, 12):
        assert multiply(g, n, p).point.coords == add_fold(g, n, p).point.coords
    assert multiply(g, 12, p).point == g.base.point
    assert multiply(g, 5, p).point == ProjPoint(2, -3, 1)


def test_affine_of_exact_point_is_exact():
    assert affine_point(C1, 2, 3).affine() == (2, 3)
    assert all(isinstance(v, Fraction) for v in affine_point(C1, 2, 3).affine())
    x = complex(0.4, 0.2)
    xy = affine_point(StandardCurve(-1.25, 0.75).cubic_form(), x, (x ** 3 - 1.25 * x + 0.75) ** 0.5).affine()
    assert abs(xy[0] - x) < 1e-12
