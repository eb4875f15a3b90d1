"""A seeded sweep over conditioning and scale.

Smooth members of the Hesse pencil (real and complex k, |k^3 - 1| > 0.2)
move under real maps in three condition bands and are rescaled by 10^e;
six singular families move under integer maps, exact and rounded to
floats.  Each form is checked against what its construction says: a
pencil member is smooth, a singular family has known singular points,
which the map carries along.  In the two lower bands, to_standard at the
first flex must keep the member's J at scales 10^+-6 and 10^+-100, and at
all five scales to_hesse must keep J and classify_real must give a real
member its own k, J, components and signs of a and b.
"""
import random

import numpy as np
import pytest

from cubica.cubic import MONOMIALS, CubicForm, find_flexes, is_smooth, singular_points, transform
from cubica.errors import SingularCurve
from cubica.hesse import hesse_form, j_of_k, to_hesse
from cubica.projective import ProjMap
from cubica.real_curves import classify_real
from cubica.standard import j_invariant, to_standard

BANDS = ((1, 10), (10, 100), (100, 1000))
SCALES = (1.0, 1e6, 1e-6, 1e100, 1e-100)

# (coefficients, singular points): a node, a cusp, a tacnode (a conic and
# its tangent), a triangle, a conic and a secant, three concurrent lines
FAMILIES = {
    "node": ((1, 0, 1, 0, 0, 0, 0, -1, 0, 0), [(0, 0, 1)]),  # y^2 z = x^3 + x^2 z
    "cusp": ((1, 0, 0, 0, 0, 0, 0, -1, 0, 0), [(0, 0, 1)]),  # y^2 z = x^3
    "tacnode": ((0, 0, 0, 0, 0, 1, 0, 1, 0, 0), [(1, 0, 0)]),  # z (x z + y^2)
    "triangle": ((0, 0, 0, 0, 1, 0, 0, 0, 0, 0), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),  # x y z
    "conic and secant": ((0, 0, 1, 0, 0, 0, 0, 1, 0, -1), [(1, 1j, 0), (1, -1j, 0)]),  # z (x^2 + y^2 - z^2)
    "concurrent lines": ((0, 1, 0, 1, 0, 0, 0, 0, 0, 0), [(0, 0, 1)]),  # x y (x + y)
}


def _band_map(rng, lo, hi):
    """A real map with condition number in [lo, hi): two random rotations
    around singular values 1, s and 1 / cond, log-uniform."""
    cond = 10 ** rng.uniform(np.log10(lo), np.log10(hi))
    middle = 10 ** -rng.uniform(0, np.log10(cond))
    u, v = (np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(2))
    return ProjMap(tuple(map(tuple, ((u * [1.0, middle, 1 / cond]) @ v).tolist())))


def _smooth_forms(lo, hi, count=100):
    rng = np.random.default_rng(lo)
    for i in range(count):
        while True:
            k = rng.uniform(-3, 4) if i % 2 else complex(*rng.uniform(-2, 2, size=2))
            if abs(k ** 3 - 1) > 0.2:
                break
        moved = transform(hesse_form(k), _band_map(rng, lo, hi))
        for e in SCALES:
            yield k, e, CubicForm(tuple(c * e for c in moved.coeffs))


@pytest.mark.parametrize("band", BANDS, ids=lambda b: f"{b[0]}-{b[1]}")
def test_sweep_smooth_members_are_smooth(band):
    bad = [f for _, _, f in _smooth_forms(*band) if not is_smooth(f)]
    assert not bad, bad[:3]


# in band 100-1000 find_flexes can return a flex whose defect exceeds
# to_standard's 1e-6 gate, so J is checked in the two lower bands only
@pytest.mark.parametrize("band", BANDS[:2], ids=lambda b: f"{b[0]}-{b[1]}")
def test_sweep_to_standard_keeps_j(band):
    # the bench's slack for J, 1e-10 cond^2, at the band's top condition
    tol = 1e-10 * band[1] ** 2
    for k, _, form in (t for t in _smooth_forms(*band) if t[1] != 1.0):
        curve, _ = to_standard(form, find_flexes(form)[0])
        want = complex(j_of_k(k))
        assert abs(complex(j_invariant(curve)) - want) <= tol * max(1.0, abs(want)), (k, form)


def _close(got, want, tol):
    return abs(complex(got) - complex(want)) <= tol * max(1.0, abs(want))


def _sign(v):
    return (v > 0) - (v < 0)


@pytest.mark.parametrize("band", BANDS[:2], ids=lambda b: f"{b[0]}-{b[1]}")
def test_sweep_to_hesse_keeps_j(band):
    tol = 1e-10 * band[1] ** 2
    for k, _, form in _smooth_forms(*band):
        assert _close(j_of_k(to_hesse(form)[0]), j_of_k(k), tol), (k, form)


@pytest.mark.parametrize("band", BANDS[:2], ids=lambda b: f"{b[0]}-{b[1]}")
def test_sweep_classify_real_gives_the_members_own_k(band):
    # on x^3 + y^3 + z^3 - 3k xyz the invariants are sigma = 972 k (k^3 + 8)
    # and tau = 34992 (k^6 - 20 k^3 - 8), on y^2 = x^3 + ax + b -576 a and
    # 41472 b, and a real map or scale keeps their signs
    tol = 1e-10 * band[1] ** 2
    for k, _, form in (t for t in _smooth_forms(*band) if not isinstance(t[0], complex)):
        rc = classify_real(form)
        assert _close(rc.k, k, tol) and _close(rc.J, j_of_k(k), tol), (k, form)
        assert rc.components == (1 if k < 1 else 2), (k, form)
        assert (rc.sign_a, rc.sign_b) == (-_sign(k * (k ** 3 + 8)), _sign(k ** 6 - 20 * k ** 3 - 8)), (k, form)


def _integer_maps(count=50):
    rng = random.Random(7)
    maps = []
    while len(maps) < count:
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
        if round(np.linalg.det(rows)):
            maps.append(rows)
    return maps


def _gradient(coeffs, p):
    """The gradient of the cubic at p, from the monomials' exponents."""
    grad = np.zeros(3, complex)
    for c, m in zip(coeffs, MONOMIALS):
        for j in range(3):
            if m[j]:
                e = list(m)
                e[j] -= 1
                grad[j] += c * m[j] * np.prod(np.power(p, e))
    return grad


def _chordal(p, q):
    """The sine of the angle between two points, as the part of q
    orthogonal to p; 1 - cos^2 would bottom out near 1e-8."""
    p, q = p / np.linalg.norm(p), q / np.linalg.norm(q)
    return np.linalg.norm(q - np.vdot(p, q) * p)


@pytest.mark.parametrize("family", FAMILIES)
def test_sweep_singular_families(family):
    coeffs, points = FAMILIES[family]
    for rows in _integer_maps():
        exact = transform(CubicForm(coeffs), ProjMap(rows))
        want = [np.array(rows, float) @ np.array(p) for p in points]
        for form in (exact, CubicForm(tuple(float(c) for c in exact.coeffs))):
            assert not is_smooth(form), (family, rows)
            with pytest.raises(SingularCurve):
                find_flexes(form)
            with pytest.raises(SingularCurve):
                to_hesse(form)
            got = [np.array(p.to_complex()) for p in singular_points(form)]
            assert len(got) == len(points), (family, rows, form.is_exact)
            for p in got:
                assert min(_chordal(p, q) for q in want) <= 1e-8, (family, rows, form.is_exact)
            for q in want:
                assert min(_chordal(p, q) for p in got) <= 1e-8, (family, rows, form.is_exact)
            unit = np.array([complex(c) for c in form.coeffs])
            unit /= np.abs(unit).max()
            for p in got:
                assert np.abs(_gradient(unit, p / np.abs(p).max())).max() <= 1e-10, (family, rows)
