import cmath
import math
import random
from fractions import Fraction

import pytest

from cubica import hesse
from cubica.cubic import CubicForm, find_flexes, transform
from cubica.errors import ConvergenceFailure, InvalidInput, SingularParameter
from cubica.hesse import (
    _TETRAHEDRAL_PAIRS,
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
from cubica.projective import ProjMap, _flat_proportional, proj_distance
from cubica.standard import StandardCurve, to_standard

GAMMA = cmath.exp(2j * cmath.pi / 3)
# a parameter with no symmetry of its own, off the real line
GENERIC_K = 0.3 + 0.2j


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


def _index(points, q):
    """The one index of points within 1e-9 of q."""
    near = [i for i, p in enumerate(points) if proj_distance(p, q) < 1e-9]
    assert len(near) == 1
    return near[0]


def test_translation_subgroup_order_nine():
    ts = translation_subgroup()
    assert len(ts) == 9
    pts = exceptional_points()
    # simply transitive on the nine base points: the images of each point
    # under the nine translations are the nine points, each once
    for p in pts:
        assert sorted(_index(pts, m.apply(p)) for m in ts) == list(range(9))


def test_symmetry_group_order_eighteen():
    g = symmetry_group()
    assert len(g) == 18
    assert all(sum(m == n for n in g) == 1 for m in g)
    # a group: closed under products and inverses
    for m in g:
        assert any(m.inverse() == n for n in g)
        for n in g:
            assert any(m.compose(n) == h for h in g)
    for k in (Fraction(5, 3), GENERIC_K):
        f = hesse_form(k)
        for m in g:
            img = transform(f, m)
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


def _same_parameters(ks, ls, tol):
    """Whether two lists of parameters are one multiset, to tol relative."""
    ls = list(ls)
    for k in ks:
        near = [i for i, v in enumerate(ls) if (k == v == math.inf) or (
            math.inf not in (k, v) and abs(complex(k) - complex(v)) <= tol * max(1.0, abs(k)))]
        if not near:
            return False
        ls.pop(near[0])
    return not ls


def test_tetrahedral_group_order_twelve():
    group = tetrahedral_group()
    assert len(group) == 12
    assert all(sum(m == n for n in group) == 1 for m in group)
    for m in group:
        for n in group:
            assert any(m.compose(n) == h for h in group)
    # each map permutes the singular parameters
    singular = [1, GAMMA, GAMMA.conjugate(), math.inf]
    for m in group:
        assert _same_parameters([m.apply(k) for k in singular], singular, 1e-12)


def test_tetrahedral_realizations():
    # transform is an independent oracle: P carries the member at k onto
    # the member at mu(k)
    assert len(_TETRAHEDRAL_PAIRS) == 12
    for m, p in _TETRAHEDRAL_PAIRS:
        img = transform(hesse_form(GENERIC_K), p)
        assert _flat_proportional(img.coeffs, hesse_form(m.apply(GENERIC_K)).coeffs, 1e-12)


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
    # 1e12 (1 + i) lost three of its 12 to a dropped leading coefficient
    for j0 in (0.3 + 0.8j, 1e12 * (1 + 1j), 1e-10j):
        ks = parameters_for_j(j0)
        assert len(ks) == 12
        for k in ks:
            assert abs(j_of_k(k) - j0) <= 1e-10 * max(1.0, abs(j0))
        # the whole fiber: the orbit of any one solution
        assert _same_parameters(ks, hesse_orbit(ks[0]), 1e-6)


def test_real_parameters_for_j_anchors():
    assert real_parameters_for_j(0.0) == [-2.0, 0.0]
    lo, hi = real_parameters_for_j(1.0)
    assert abs(lo - (1 - math.sqrt(3))) < 1e-9
    assert abs(hi - (1 + math.sqrt(3))) < 1e-9


def _j_prime(k):
    """dJ/dk = 3 g^2 (k^6 - 20k^3 - 8) / (4(k^3 - 1)^2), g^3 = J."""
    u = k ** 3
    g = k * (u + 8) / (4 * (u - 1))
    return 3 * g * g * (u * u - 20 * u - 8) / (4 * (u - 1) ** 2)


@pytest.mark.parametrize("j0", [-3.0, -1e-6, 1e-8, 0.5, 7.0, 1e6, 1e12, 1e20])
def test_real_parameters_for_j_against_exact_j(j0):
    # forward error |J(k) - j0| / |J'(k)|, all in Fractions; at 1e12 and
    # 1e20 one and none of the two came back when the leading coefficient
    # was dropped
    ks = real_parameters_for_j(j0)
    assert len(ks) == 2
    for k in ks:
        kf = Fraction(k)
        error = abs((j_of_k(kf) - Fraction(j0)) / _j_prime(kf))
        assert error <= 1e-13 * max(1.0, abs(k))


@pytest.mark.parametrize("j0, error", [
    (math.nan, InvalidInput), (complex(math.nan, 1.0), InvalidInput),
    (math.inf, SingularParameter), (-math.inf, SingularParameter), (complex(1.0, math.inf), SingularParameter),
])
def test_j_inversion_error_classes(j0, error):
    # only the singular members have J = infinity, as j_of_k says
    with pytest.raises(error):
        parameters_for_j(j0)
    with pytest.raises(error):
        real_parameters_for_j(j0)


def test_real_parameters_always_two():
    near_one = [1 + s * 10.0 ** -e for e in range(4, 13) for s in (1, -1)]
    for j0 in [-3.0, 0.5, 0.99, 1.01, 7.0, 200.0] + near_one:
        ks = real_parameters_for_j(j0)
        assert len(ks) == 2
        inside = sum(1 - math.sqrt(3) < k < 1 + math.sqrt(3) for k in ks)
        assert inside == 1
        for k in ks:
            assert abs(j_of_k(Fraction(k)) - Fraction(j0)) <= 1e-14 * max(1.0, abs(j0))


# pencil members under maps of condition number 48-52, where flexes
# polished on the float Hessian form sat 8.7e-8 to 1.5e-6 off the true ones
ILL_CONDITIONED = (
    (0.8160925693202854 + 0.03549498431156195j,
     ((-0.2621714542559188, -0.6648039608602905, 0.6404532132523783),
      (0.4109151917345581, 1.4400706435864585, -0.5995462141394207),
      (0.2686667753230292, 1.1733923034126708, 0.9033962412954541))),
    (-1.4804686775419582 - 1.464803580949324j,
     ((-0.893270077396905, 1.5360172511315584, -0.2581356940854915),
      (-0.8346786556242289, 0.6139507131972344, 0.7150885729637099),
      (0.33579008062274107, 0.6504250591419694, -1.1581002231110755))),
    (-1.1806040191569855 - 0.8189384396437953j,
     ((-0.07958981230775383, -0.13430814948936748, 1.1586046816370366),
      (0.8619651258049638, -0.35341356228079673, 1.2373426245062644),
      (1.0163228731769731, -0.2434525030834951, -0.4429278944729839))),
)
INTEGER_MAP = ((2, 1, 0), (0, 1, -1), (1, 0, 3))


def test_to_hesse_recovers_member():
    for k0, rows in ((1.8, INTEGER_MAP), (0.7 + 1.1j, INTEGER_MAP)) + ILL_CONDITIONED:
        moved = transform(hesse_form(k0), ProjMap(rows))
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


def test_to_hesse_reads_a_real_curve_its_own_k():
    # the paper's real normal form, whose member k has the Weierstrass model
    # a = -27k(k^3 + 8), b = 54(k^6 - 20k^3 - 8): y^2 = x^3 - 4x + 1 has two
    # components and b > 0, so its k lies above 1 + sqrt(3); y^2 = x^3 + 1
    # has a = 0 and b > 0, so its k is -2, not 0, where b < 0
    for (a, b), k0 in (((-4, 1), 3.3028), ((0, 1), -2.0)):
        k, m = to_hesse(StandardCurve(a, b).cubic_form())
        assert isinstance(k, float) and abs(k - k0) < 1e-4
        assert j_of_k(k) == pytest.approx(4 * a ** 3 / (4 * a ** 3 + 27 * b ** 2), abs=1e-9)
        assert all(not isinstance(v, complex) or v.imag == 0 for row in m.rows for v in row)


# integer maps across which rounding of |k| split the canonical k of a curve
CANONICAL_MAPS = (
    INTEGER_MAP,
    ((1, 1, 0), (0, 2, -1), (1, 0, 1)),
    ((2, 0, 1), (0, 1, 1), (-1, 1, 0)),
    ((1, -1, 2), (3, 1, 0), (-1, 2, 1)),
    ((1, 2, 0), (-1, 0, 1), (2, 1, 1)),
    ((3, 1, -1), (0, 2, 1), (1, 0, 2)),
)


@pytest.mark.parametrize("a, b", [(3, -5), (3, Fraction(1, 2)), (Fraction(2, 3), Fraction(1, 2)),
                                  (Fraction(5, 3), Fraction(-5, 2))])
def test_to_hesse_canonical_k_ignores_rounding(a, b):
    # the moduli of k, omega k and omega^2 k agree up to rounding, and a
    # real negative k has arg pi, never -pi: every frame gets one k
    ks = []
    for rows in CANONICAL_MAPS:
        form = transform(StandardCurve(a, b).cubic_form(), ProjMap(rows))
        for f in (form, CubicForm(tuple(float(c) for c in form.coeffs))):
            ks.append(complex(to_hesse(f, canonical=True)[0]))
    assert max(abs(k - ks[0]) for k in ks) < 1e-9
    assert j_of_k(ks[0]) == pytest.approx(4 * a ** 3 / (4 * a ** 3 + 27 * b ** 2), rel=1e-9)


def test_flexes_match_exceptional_points():
    fs = find_flexes(hesse_form(2))
    exc = exceptional_points()
    for p in fs:
        assert min(proj_distance(p, e) for e in exc) < 1e-6
    # off the pencil's own coordinates the flexes are the images of the
    # base points, one each, and flexes[0] is good enough for to_standard
    for k0, rows in ((0.7 + 1.1j, INTEGER_MAP),) + ILL_CONDITIONED:
        a = ProjMap(rows)
        moved = transform(hesse_form(k0), a)
        images = [a.apply(e) for e in exc]
        flexes = find_flexes(moved)
        for p in flexes:
            dist = [proj_distance(p, q) for q in images]
            assert min(dist) < 1e-9
            images.pop(dist.index(min(dist)))
        to_standard(moved, flexes[0])


def test_a_nan_image_is_a_convergence_failure():
    # a triangle whose image holds a NaN is never taken; with no other
    # triangle the reduction fails
    nan = math.nan
    sides = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, nan))
    with pytest.raises(ConvergenceFailure, match="residual"):
        hesse._into_pencil(hesse_form(2.0 + 1j), [sides])
