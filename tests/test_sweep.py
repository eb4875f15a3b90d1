"""A seeded sweep over conditioning and scale.

Smooth members of the Hesse pencil (real and complex k, |k^3 - 1| > 0.2)
move under real maps in three condition bands and are rescaled by 10^e;
six singular families move under integer maps, exact and rounded to
floats.  Each form is checked against what its construction says: a
pencil member is smooth, a singular family has known singular points,
which the map carries along.
"""
import random

import numpy as np
import pytest

from cubica.cubic import MONOMIALS, CubicForm, find_flexes, is_smooth, singular_points, transform
from cubica.errors import SingularCurve
from cubica.hesse import hesse_form, to_hesse
from cubica.projective import ProjMap

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
            yield CubicForm(tuple(c * e for c in moved.coeffs))


@pytest.mark.parametrize("band", BANDS, ids=lambda b: f"{b[0]}-{b[1]}")
def test_sweep_smooth_members_are_smooth(band):
    bad = [f for f in _smooth_forms(*band) if not is_smooth(f)]
    assert not bad, bad[:3]


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
