"""The normal form y^2 = x^3 + ax + b and everything read off from it.

The reduction from a general cubic with a marked flex substitutes twice:
a basis map sends the flex to (0:1:0) with tangent z=0, then one
closed-form matrix scales x and y, completes the square in y and shifts x.
Over exact rational input with a rational flex both substitutions run on
integers; no root extraction is needed.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .cubic import (
    CubicForm,
    ConvergenceFailure,
    _contact_defect,
    _line_second_point,
    _substitute,
    tangent_line,
)
from .errors import (
    NotAFlex,
    SingularAtFlex,
    SingularCurve,
    ZeroScale,
)
from .projective import ProjMap, ProjPoint, _adjugate, _det3, _normalize
from .scalars import (
    FLEX_CONTACT, FLEX_DERIVED, REDUCTION_DUST, ROUNDING, SHAPE_TIE, TOLERANCE,
    _integral, all_exact, collapse, negligible, roots_cubic,
)


@dataclass(frozen=True)
class StandardCurve:
    """The curve y^2 z = x^3 + a x z^2 + b z^3."""

    a: object
    b: object

    @property
    def is_exact(self) -> bool:
        return all_exact((self.a, self.b))

    def discriminant(self):
        return -(4 * self.a ** 3 + 27 * self.b ** 2)

    def is_smooth(self) -> bool:
        d = self.discriminant()
        scale = max(abs(4 * self.a ** 3), abs(27 * self.b ** 2), 1e-300)
        return not negligible(d, scale, ROUNDING)

    def cubic_form(self) -> CubicForm:
        a, b = self.a, self.b
        return CubicForm((1, 0, 0, 0, 0, a, 0, -1, 0, b))

    def roots(self):
        """Roots of x^3 + ax + b, sorted by (real, imaginary)."""
        return tuple(roots_cubic(1, 0, self.a, self.b))

    def to_json(self):
        from .scalars import scalar_to_json

        return {"standard": [scalar_to_json(self.a), scalar_to_json(self.b)]}


def j_invariant(c: StandardCurve):
    """J = 4a^3 / (4a^3 + 27b^2); exact for exact curves."""
    if not c.is_smooth():
        raise SingularCurve("4a^3 + 27b^2 vanishes")
    a, b = c.a, c.b
    if c.is_exact:
        return collapse(Fraction(4 * a ** 3, 4 * a ** 3 + 27 * b ** 2))
    a4 = 4 * complex(a) ** 3
    val = a4 / (a4 + 27 * complex(b) ** 2)
    if val.imag == 0.0 or (not isinstance(a, complex) and not isinstance(b, complex)):
        return val.real
    return val


def rescale(c: StandardCurve, t) -> StandardCurve:
    """The substitution X = t^2 x, Y = t^3 y: (a, b) -> (t^4 a, t^6 b)."""
    if t == 0:
        raise ZeroScale("rescaling by t = 0")
    return StandardCurve(collapse(t ** 4 * c.a), collapse(t ** 6 * c.b))


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def _third_basis_column(c0, c1):
    """The unit vector making the best-conditioned basis with c0, c1."""
    best = None
    best_mag = -1.0
    for idx in range(3):
        e = tuple(1 if n == idx else 0 for n in range(3))
        mag = abs(_det3((c0, c1, e)))
        if mag > best_mag:
            best, best_mag = e, mag
    if best_mag <= 0.0:
        raise SingularAtFlex("tangent direction and flex are dependent")
    return best


def to_standard(form: CubicForm, flex: ProjPoint):
    """Reduce a cubic with a marked flex to y^2 = x^3 + ax + b.

    Returns (StandardCurve, A) with transform(form, A) proportional to
    the standard-form cubic.  Exact input (rational coefficients, rational
    flex) produces exact (a, b) and an exact map.

    Two substitutions, each kept up to scale by _normalize (coprime ints
    on exact input).  The basis map m gives psi, with the flex at (0:1:0)
    and tangent z=0.  One matrix D, written in closed form from psi's
    coefficients, then scales, completes the square and shifts x
    (Silverman, The Arithmetic of Elliptic Curves, III.1); psi o D is the
    form o m D.  On exact input the tangent line comes from the form's
    integer representative and D's denominators are cleared first, so both
    substitutions run on integers, and A is literally (m D)^{-1}.  psi also
    gives the flex defect: its x^3, x^2 y, xy^2 and y^3 coefficients are
    the form restricted to the tangent line.
    """
    p = flex.normalized()
    exact = form.is_exact and p.is_exact
    base = _integral(form.coeffs)[0] if exact else form.coeffs
    line = tangent_line(CubicForm(base), p)
    if line is None:
        raise SingularAtFlex("gradient vanishes at the marked point")
    c0, c1 = _normalize(_line_second_point(line.normalized().coeffs, p.coords)), p.coords
    m = tuple(zip(c0, c1, _third_basis_column(c0, c1)))

    psi = _normalize(_substitute(base, m))
    # g, e, s, h, t: the x^3, x^2 z, xyz, y^2 z and yz^2 coefficients; the
    # x^2 y, xy^2 and y^3 ones vanish at an exact flex, not at a float one.
    # y^3, xy^2, x^2 y and x^3 are restrict_to_line at p and c0
    g, x2y, e, xy2, s, _, y3, h, t, _ = psi
    defect = _contact_defect((y3, xy2, x2y, g), c1, c0)
    if defect > FLEX_CONTACT:
        raise NotAFlex(f"tangent contact residual {defect:.2e}")
    top = max(abs(c) for c in psi)

    def tiny(v):
        return negligible(v, top, REDUCTION_DUST)

    if tiny(g):
        raise NotAFlex("tangent line meets the curve beyond the flex")
    if tiny(h):
        raise SingularAtFlex("curve is singular at the marked flex")

    # D: x, y -> dx, dy makes the x^3 and y^2 z coefficients negatives of
    # each other, y -> y - (Sx + Tz)/2 then completes the square, and
    # x -> x + wz removes the x^2 z term; x3 and -x2 are the x^3 and x^2 z
    # coefficients after the square, over d^3
    div = Fraction if exact else operator.truediv
    d, S, T, E = div(-h, g), div(s, h), div(-t * g, h * h), div(e, h)
    x3 = g - S * (x2y - S * (xy2 - S * y3 / 2) / 2) / 2
    if x3 == 0:
        raise NotAFlex("tangent line meets the curve beyond the flex")
    x2 = g * (E - S * S / 4) + T * (x2y - S * xy2 + 3 * S * S * y3 / 4) / 2
    w = x2 / (3 * x3)
    dmap = ((d, 0, d * w), (-d * S / 2, d, -d * (S * w + T) / 2), (0, 0, 1))
    if exact:
        flat, den = _integral([v for r in dmap for v in r])
        dmap = (flat[0:3], flat[3:6], flat[6:9])
    else:
        den = 1
    cs = _normalize(_substitute(psi, dmap))
    # A = (m D)^{-1} = den adj(den m D) / det(den m D)
    md = tuple(tuple(sum(r[k] * dmap[k][j] for k in range(3)) for j in range(3)) for r in m)
    det = _det3(md)
    a_map = ProjMap(tuple(tuple(div(den * v, det) for v in r) for r in _adjugate(md)))

    lead, ctop = cs[0], max(abs(c) for c in cs)
    if not all(negligible(v, ctop, FLEX_DERIVED) for v in [cs[i] for i in (1, 2, 3, 4, 6, 8)] + [cs[7] + lead]):
        raise ConvergenceFailure("reduction left non-standard terms")
    if exact:
        a = collapse(Fraction(cs[5], lead))
        b = collapse(Fraction(cs[9], lead))
    else:
        a = complex(cs[5]) / complex(lead)
        b = complex(cs[9]) / complex(lead)
        # complex dust below working precision reads as real
        if negligible(a.imag, max(1.0, abs(a)), ROUNDING):
            a = a.real
        if negligible(b.imag, max(1.0, abs(b)), ROUNDING):
            b = b.real
    return StandardCurve(a, b), a_map


# ---------------------------------------------------------------------------
# the triangle of roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriangleShape:
    """Shape class of the root triangle of x^3 + ax + b.

    The tag is one of: equilateral, isosceles, collinear-with-midpoint,
    collinear, generic-upper, generic-lower.  It only depends on the curve
    up to projective equivalence, like J.  For a scalene triangle the
    upper/lower half distinguishes Im J > 0 from Im J < 0; mirroring the
    triangle conjugates J.
    """

    vertices: tuple
    edge_lengths: tuple
    tag: str


def triangle_shape(c: StandardCurve) -> TriangleShape:
    if not c.is_smooth():
        raise SingularCurve("root triangle is degenerate")
    r = c.roots()
    pairs = ((r[0], r[1]), (r[0], r[2]), (r[1], r[2]))
    lengths = sorted(abs(p - q) for p, q in pairs)
    e1, e2, e3 = lengths
    scale = e3

    area2 = abs(((r[1] - r[0]).conjugate() * (r[2] - r[0])).imag)
    if area2 <= SHAPE_TIE * scale * scale:
        mid = min(
            abs(r[i] - (r[j] + r[l]) / 2)
            for i, j, l in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
        )
        tag = "collinear-with-midpoint" if mid <= SHAPE_TIE * scale else "collinear"
    elif (e3 - e1) <= SHAPE_TIE * scale:
        tag = "equilateral"
    elif (e2 - e1) <= SHAPE_TIE * scale or (e3 - e2) <= SHAPE_TIE * scale:
        tag = "isosceles"
    else:
        # scalene: the half-plane of J is read from the orientation of the
        # vertices labeled by their opposite edge lengths
        by_opp = sorted(range(3), key=lambda i: abs(r[(i + 1) % 3] - r[(i + 2) % 3]))
        va, vb, vc = (r[i] for i in by_opp)
        orient = ((vb - va).conjugate() * (vc - va)).imag
        tag = "generic-upper" if orient > 0 else "generic-lower"
    return TriangleShape(r, tuple(lengths), tag)


def automorphism_order(c: StandardCurve) -> tuple[int, int]:
    """(total, point-stabilizer) order of the projective automorphism group
    of a smooth curve: stabilizer 6 at J=0, 4 at J=1, 2 otherwise; the
    total is always 9 times that.
    """
    j = j_invariant(c)
    stab = 6 if negligible(j, 1, TOLERANCE) else 4 if negligible(j - 1, 1, TOLERANCE) else 2
    return 9 * stab, stab
