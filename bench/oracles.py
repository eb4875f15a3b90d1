"""Reference mathematics the benchmark checks the library against.

Nothing here imports cubica: every expected answer is computed from the
closed forms of the workload's construction, so a wrong library result
cannot also be the oracle's answer.  Arithmetic is generic, so the same
code serves Fraction (exact) and float/complex inputs.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

# cubica's coefficient order for a ternary cubic
MONOMIALS = (
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
)


def hesse_coeffs(k):
    """x^3 + y^3 + z^3 - 3k xyz."""
    return (1, 0, 0, 0, -3 * k, 0, 1, 0, 0, 1)


def standard_coeffs(a, b):
    """y^2 z = x^3 + a x z^2 + b z^3, written as x^3 + a xz^2 + b z^3 - y^2 z."""
    return (1, 0, 0, 0, 0, a, 0, -1, 0, b)


def standard_hessian_coeffs(a, b):
    """Determinant of the second partials of the standard form, worked by hand:
    -24 x y^2 - 24a x^2 z - 72b x z^2 + 8a^2 z^3."""
    return (0, 0, -24 * a, -24, 0, -72 * b, 0, 0, 0, 8 * a * a)


def _poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            out[m] = out.get(m, 0) + c1 * c2
    return out


def substitute(coeffs, rows):
    """Coefficients of G(v) = F(rows @ v) for a cubic F and a 3x3 matrix."""
    lin = [{(1, 0, 0): r[0], (0, 1, 0): r[1], (0, 0, 1): r[2]} for r in rows]
    powers = []
    for l in lin:
        ps = [{(0, 0, 0): 1}, l]
        ps.append(_poly_mul(ps[1], l))
        ps.append(_poly_mul(ps[2], l))
        powers.append(ps)
    acc = {}
    for (i, j, k), c in zip(MONOMIALS, coeffs):
        if c == 0:
            continue
        term = _poly_mul(_poly_mul(powers[0][i], powers[1][j]), powers[2][k])
        for m, v in term.items():
            acc[m] = acc.get(m, 0) + c * v
    return tuple(acc.get(m, 0) for m in MONOMIALS)


def det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def adjugate3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def image_coeffs(coeffs, rows, extra_det_power=0):
    """The cubic in new coordinates v' = M v, F o M^-1, as cubica.transform
    returns it; times det(M^-1)^extra_det_power.  M^-1 = adj(M) / det(M), so
    substituting the adjugate keeps integer maps in integer arithmetic."""
    det = det3(rows)
    if isinstance(det, int):
        det = Fraction(det)
    scale = det ** (3 + extra_det_power)
    return tuple(c / scale for c in substitute(coeffs, adjugate3(rows)))


def condition_number(rows) -> float:
    return float(np.linalg.cond(np.array(rows, dtype=float)))


def j_of_k(k):
    """J of the pencil member k: (k (k^3 + 8) / (4 (k^3 - 1)))^3."""
    u = k ** 3
    return (k * (u + 8) / (4 * (u - 1))) ** 3


def j_of_ab(a, b):
    """J of y^2 = x^3 + ax + b: 4a^3 / (4a^3 + 27b^2)."""
    return 4 * a ** 3 / (4 * a ** 3 + 27 * b ** 2)


def j_close(j, j_true, cond: float) -> bool:
    """Relative agreement, with slack growing with the map's conditioning."""
    tol = 1e-10 * cond * cond
    return abs(complex(j) - complex(j_true)) <= tol * max(1.0, abs(complex(j_true)))


# ---------------------------------------------------------------------------
# the group law on y^2 = x^3 + ax + b in affine formulas, base (0:1:0)
# ---------------------------------------------------------------------------


def weierstrass_add(a, p, q):
    """p + q with None for the identity; generic over Fraction and complex."""
    if p is None:
        return q
    if q is None:
        return p
    (x1, y1), (x2, y2) = p, q
    if x1 == x2:
        if y1 + y2 == 0:
            return None
        lam = (3 * x1 * x1 + a) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    return (x3, lam * (x1 - x3) - y1)


def weierstrass_multiply(a, n: int, p):
    acc, run = None, p
    while n:
        if n & 1:
            acc = weierstrass_add(a, acc, run)
        n >>= 1
        if n:
            run = weierstrass_add(a, run, run)
    return acc


def projective(p):
    """Affine point or None -> projective triple."""
    return (0, 1, 0) if p is None else (p[0], p[1], 1)


def exact_equal(u, v) -> bool:
    """Projective equality of exact triples: every 2x2 minor vanishes."""
    return all(u[i] * v[j] == u[j] * v[i] for i in range(3) for j in range(i + 1, 3))


def proj_sine(u, v) -> float:
    """Sine of the angle between two complex triples (0 when equal)."""
    a = np.array([complex(t) for t in u])
    b = np.array([complex(t) for t in v])
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    ortho = b - np.vdot(a, b) * a
    return float(min(1.0, np.linalg.norm(ortho)))


def integer_triple(u):
    """cubica's normal form of an exact triple: coprime integers, first nonzero positive."""
    fr = [Fraction(t) for t in u]
    den = math.lcm(*(f.denominator for f in fr))
    ints = [int(f * den) for f in fr]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    if next(v for v in ints if v != 0) < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def point_on_standard(a, b, x):
    """A point (x, y) of y^2 = x^3 + ax + b, complex in general."""
    return (x, cmath.sqrt(x ** 3 + a * x + b))
