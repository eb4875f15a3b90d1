"""The pencil of cubics x^3 + y^3 + z^3 = 3k xyz.

Carries the parameter-level theory: the nine base points shared by every
member, the 18-element projective symmetry group fixing each member, the
invariant J(k), the involution eta and the 12-element Mobius group whose
orbits are exactly the parameter fibers of J, and the reduction of an
arbitrary smooth cubic into the pencil.

Both groups and the inversion of J are written in closed form (Artebani and
Dolgachev, "The Hesse pencil of plane cubic curves", 2009).  The 9
translations are D^a C^b, D = diag(1, omega, omega^2) and C the cyclic
permutation of the coordinates, and the 18 symmetries add their products
with a swap of two coordinates.  The rotation r: k -> omega k and eta
generate the Mobius group as A4 = <r> + <r> eta <r>.  J = g^3 with
g = k(k^3+8) / (4(k^3-1)), so the k over a J value are the roots of the
three quartics k^4 - 4 gamma k^3 + 8k + 4 gamma, gamma a cube root of J.

The symbol for the parameter at infinity is math.inf (the member xyz=0).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .cubic import _ROOTS, MONOMIALS, CubicForm, _float_form, _substitute
from .errors import ConvergenceFailure, InvalidInput, SingularParameter
from .projective import ProjMap, ProjPoint, _adjugate, _det3, _flat_proportional
from .scalars import (
    COINCIDENCE, LEADING_DROP, PENCIL_RESIDUAL, REDUCTION_DUST, ROUNDING, TOLERANCE,
    all_exact, collapse, has_nan, is_exact, negligible, poly_roots,
)

_OMEGA = _ROOTS[1]


def _is_infinite(k) -> bool:
    if is_exact(k):
        return False
    if isinstance(k, complex):
        return math.isinf(k.real) or math.isinf(k.imag)
    return math.isinf(k)


def hesse_form(k) -> CubicForm:
    """The member with parameter k; k = math.inf gives the triangle xyz=0."""
    if _is_infinite(k):
        return CubicForm((0, 0, 0, 0, 1, 0, 0, 0, 0, 0))
    return CubicForm((1, 0, 0, 0, -3 * k, 0, 1, 0, 0, 1))


def is_smooth_parameter(k) -> bool:
    if _is_infinite(k):
        return False
    return not negligible((k if is_exact(k) else complex(k)) ** 3 - 1, 1, TOLERANCE)


def exceptional_points() -> list[ProjPoint]:
    """The nine points shared by all members: (0:1:-g), (-g:0:1), (1:-g:0)
    with g running over the cube roots of unity.

    These are the flexes of every smooth member.  The g=1 representatives
    are exact integer points.
    """
    pts = []
    for g in _ROOTS:
        pts.append(ProjPoint(0, 1, -g))
    for g in _ROOTS:
        pts.append(ProjPoint(-g, 0, 1))
    for g in _ROOTS:
        pts.append(ProjPoint(1, -g, 0))
    return pts


# ---------------------------------------------------------------------------
# the 18-element symmetry group
# ---------------------------------------------------------------------------


def translation_subgroup() -> list[ProjMap]:
    """The 9 maps acting simply transitively on the base points: D^a C^b
    for a, b in {0, 1, 2}, with D = diag(1, omega, omega^2) and C the cyclic
    permutation (x:y:z) -> (z:x:y), so that row i of D^a C^b holds
    omega^(a i) in column i - b.  The identity comes first.
    """
    return [
        ProjMap(tuple(tuple(_ROOTS[a * i % 3] if j == (i - b) % 3 else 0 for j in range(3)) for i in range(3)))
        for a in range(3)
        for b in range(3)
    ]


def symmetry_group() -> list[ProjMap]:
    """All 18 projective maps carrying every member of the pencil onto
    itself.  The first 9 entries form the translation subgroup (isomorphic
    to Z/3 + Z/3); the rest are its coset under (x:y:z) -> (y:x:z).
    """
    n = translation_subgroup()
    swap = ProjMap(((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    return n + [m.compose(swap) for m in n]


# ---------------------------------------------------------------------------
# the invariant J(k)
# ---------------------------------------------------------------------------


def j_of_k(k):
    """J of the member with parameter k: (k(k^3+8) / (4(k^3-1)))^3.

    Exact in, exact out.  Raises SingularParameter on the four singular
    members (k^3 = 1 or k = infinity).
    """
    if _is_infinite(k):
        raise SingularParameter("the member at k=infinity is singular")
    if is_exact(k):
        kf = Fraction(k)
        u = kf ** 3
        if u == 1:
            raise SingularParameter(f"k={k} gives a singular member")
        val = (kf * (u + 8) / (4 * (u - 1))) ** 3
        return collapse(val)
    kc = complex(k)
    if negligible(kc ** 3 - 1, 1, TOLERANCE):
        raise SingularParameter(f"k={k} is within tolerance of a singular member")
    val = (kc * (kc ** 3 + 8) / (4 * (kc ** 3 - 1))) ** 3
    if not isinstance(k, complex):
        return val.real
    return val


# ---------------------------------------------------------------------------
# the tetrahedral parameter group
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MobiusMap:
    """A fractional-linear map k -> (a k + b)/(c k + d), det != 0."""

    entries: tuple  # (a, b, c, d)

    def __post_init__(self):
        e = tuple(self.entries)
        if len(e) != 4:
            raise InvalidInput("a Mobius map has 4 entries")
        if has_nan(e):
            raise InvalidInput("a Mobius map cannot have a NaN entry")
        a, b, c, d = e
        top = max(abs(v) for v in e)
        if negligible(a * d - b * c, top * top, COINCIDENCE):
            raise InvalidInput("Mobius map has zero determinant")
        object.__setattr__(self, "entries", e)

    def apply(self, k):
        """The image of k, math.inf at the pole: exact when k and every
        entry are exact, a float when they are real, complex otherwise."""
        a, b, c, d = self.entries
        if all_exact(self.entries) and is_exact(k):
            den = c * Fraction(k) + d
            return math.inf if den == 0 else collapse((a * Fraction(k) + b) / den)
        if not any(isinstance(v, complex) for v in self.entries + (k,)):
            return self.apply(complex(k)).real
        a, b, c, d = (complex(v) for v in self.entries)
        if _is_infinite(k):
            if negligible(c, max(abs(a), abs(d), 1.0), LEADING_DROP):
                return math.inf
            return a / c
        kc = complex(k)
        den = c * kc + d
        if negligible(den, max(1.0, abs(kc)), LEADING_DROP):
            return math.inf
        return (a * kc + b) / den

    def __call__(self, k):
        return self.apply(k)

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        a, b, c, d = self.entries
        e, f, g, h = other.entries
        return MobiusMap((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))

    def __eq__(self, other):
        if not isinstance(other, MobiusMap):
            return NotImplemented
        return _flat_proportional(list(self.entries), list(other.entries))

    __hash__ = None

    def __repr__(self):
        return f"MobiusMap({self.entries!r})"


#: r^a for a = 0, 1, 2: the rotation k -> omega^a k paired with the map
#: diag(omega^-a, 1, 1) that realizes it
_ROTATIONS = [(MobiusMap((w, 0, 0, 1)), ProjMap.scaling(w.conjugate(), 1, 1)) for w in _ROOTS]
_ETA = (MobiusMap((1, 2, 1, -1)), ProjMap(((1, 1, 1), (1, _OMEGA, _ROOTS[2]), (1, _ROOTS[2], _OMEGA))))

#: The 12 Mobius maps paired with projective maps realizing them:
#: transform(hesse_form(k), P) is proportional to hesse_form(mu(k)), and
#: transform realizes products factor by factor.  The rotation r and the
#: involution eta generate the group as A4 = <r> + <r> eta <r>: the pairs
#: r^a, then r^a eta r^b, for a, b in {0, 1, 2}; the identity comes first.
_TETRAHEDRAL_PAIRS = tuple(_ROTATIONS + [
    (m.compose(_ETA[0]).compose(n), p.compose(_ETA[1]).compose(q)) for m, p in _ROTATIONS for n, q in _ROTATIONS
])


def eta(k):
    """The involution k -> (k+2)/(k-1); fixes J, swaps 1 and infinity."""
    return _ETA[0].apply(k)


def tetrahedral_group() -> list[MobiusMap]:
    """The 12 fractional-linear maps permuting {1, omega, conj(omega), inf};
    two parameters give projectively equivalent members exactly when one is
    carried to the other by this group.
    """
    return [m for m, _ in _TETRAHEDRAL_PAIRS]


def hesse_orbit(k) -> list:
    """The 12 images of k under the tetrahedral group, with multiplicity."""
    return [m.apply(k) for m, _ in _TETRAHEDRAL_PAIRS]


# ---------------------------------------------------------------------------
# parameter recovery from a J value
# ---------------------------------------------------------------------------


def _j_quartic_roots(j0, w=1):
    """The k with g(k) = k(k^3+8) / (4(k^3-1)) = gamma, gamma = w times the
    cube root of j0 that _cube_root gives: the roots of k^4 - 4 gamma k^3 +
    8k + 4 gamma, whose exact leading 1 poly_roots never drops.  A NaN j0 is
    InvalidInput, an infinite one, the J of singular members only,
    SingularParameter."""
    if has_nan([j0]):
        raise InvalidInput("J cannot be NaN")
    if _is_infinite(j0):
        raise SingularParameter("J = infinity belongs to the singular members only")
    gamma = w * _cube_root(j0)
    return poly_roots((1, -4 * gamma, 0, 8, 4 * gamma))


def parameters_for_j(j0) -> list[complex]:
    """All 12 solutions k of J(k) = j0, with multiplicity.

    J = g^3 with g(k) = k(k^3+8) / (4(k^3-1)), so J(k) = j0 exactly when
    g(k) is one of the three cube roots gamma of j0: the roots of the three
    quartics k^4 - 4 gamma k^3 + 8k + 4 gamma.
    """
    return [k for w in _ROOTS for k in _j_quartic_roots(j0, w)]


def real_parameters_for_j(j0: float) -> list[float]:
    """The two real k with J(k) = j0, ascending; none when j0 is not real.

    They are the real roots of the one real quartic, gamma the real cube
    root of j0 (see parameters_for_j).  g falls from 1 to -inf both ways on
    k < 1 and rises from 1 to +inf both ways on k > 1, so every real
    gamma != 1 has exactly two real roots, taken as the two nearest the
    real axis; k = 1 is never one, the quartic being 9 there.  Closed forms
    are used at the two anchor values J=0 and J=1, where the quartic has
    multiple roots: it is k(k^3 + 8) and (k^2 - 2k - 2)^2.
    """
    roots = _j_quartic_roots(j0)  # first, as it refuses a NaN or infinite j0
    if complex(j0).imag:
        return []
    if abs(j0) < 1e-13:
        return [-2.0, 0.0]
    if abs(j0 - 1.0) < 1e-13:
        return [1.0 - math.sqrt(3.0), 1.0 + math.sqrt(3.0)]
    return sorted(k.real for k in sorted(roots, key=lambda k: abs(k.imag))[:2])


# ---------------------------------------------------------------------------
# reduction of a smooth cubic into the pencil
# ---------------------------------------------------------------------------


def _cube_root(c):
    """A cube root of c: the real one when c is real."""
    c = complex(c)
    if c.imag == 0:
        return math.copysign(abs(c.real) ** (1.0 / 3.0), c.real)
    return c ** (1.0 / 3.0)


def _into_pencil(form: CubicForm, triangles):
    """(k, A) for the first triangle, in the pencil's order, whose image is
    within PENCIL_RESIDUAL of the pencil, k read from that image by
    _pencil_parameter and without dust; ConvergenceFailure when no image
    is (an image that holds a NaN never is).

    A triangle's map A sends its sides to x, y, z, its rows scaled by cube
    roots of the x^3, y^3, z^3 coefficients of the image.  In the
    coordinates of the sides the form is a x^3 + b y^3 + c z^3 + d xyz,
    which the scaling makes a member of the Hesse pencil.  The coefficient
    c is the form at a vertex, which a smooth curve never passes through:
    measured over all four triangles, |c| relative to the largest
    coefficient is at least 2.9e-6 on 4200 curves of the bench's reduce and
    exact workloads.  Images are scored on their coefficients, and only the
    chosen triangle becomes a ProjMap.

    When every coefficient is real, only the triangle with three real sides
    is taken.  A smooth real cubic has exactly one; its map is real, and so
    is the member it reaches, the curve's own real k: the one real member
    of the pencil real-projectively equivalent to the curve.  The sides are
    floats, so a form with an exact coefficient turns into floats once
    (cubic._float_form), whatever the height of its coefficients.
    """
    coeffs = _float_form(form).coeffs
    if all(c.imag == 0 for c in coeffs):
        triangles = [s for s in triangles if all(isinstance(v, float) for r in s for v in r)][:1]
    if not triangles:
        raise ConvergenceFailure("no triangle of the pencil gives a map")
    devs = []
    for sides in triangles:
        d = _det3(sides)
        g = _substitute(coeffs, [[v / d for v in r] for r in _adjugate(sides)])
        s = [_cube_root(g[i]) for i in (0, 6, 9)]
        image = [c / (s[0] ** i * s[1] ** j * s[2] ** k) for (i, j, k), c in zip(MONOMIALS, g)]
        k, dev = _pencil_parameter(image)
        if dev <= PENCIL_RESIDUAL and not has_nan(image):
            return _without_dust(k), ProjMap(tuple(tuple(v * t for t in row) for v, row in zip(s, sides)))
        devs.append(f"{dev:.2e}")
    raise ConvergenceFailure(f"reduction into the pencil left residual {', '.join(devs)}")


def _pencil_parameter(cs):
    """(k, residual) reading the coefficients cs as a member of the pencil."""
    top = max(map(abs, cs))
    cube = (cs[0] + cs[6] + cs[9]) / 3.0
    dev = max(
        abs(cs[1]), abs(cs[2]), abs(cs[3]), abs(cs[5]), abs(cs[7]), abs(cs[8]),
        abs(cs[0] - cube), abs(cs[6] - cube), abs(cs[9] - cube),
    )
    if negligible(cube, top, ROUNDING):
        return math.inf, dev / top
    k = -cs[4] / (3.0 * cube)
    return k, dev / top


def _without_dust(k):
    """k with a real or imaginary part below REDUCTION_DUST (1 + |k|),
    rounding left by the reduction, set to zero; a float when no imaginary
    part is left."""
    if _is_infinite(k):
        return k
    re, im = (0.0 if negligible(v, 1.0 + abs(k), REDUCTION_DUST) else v for v in (k.real, k.imag))
    return complex(re, im) if im else re


def to_hesse(form: CubicForm, canonical: bool = False):
    """Parameter k and invertible A with transform(form, A) = hesse_form(k)
    up to scale.

    Each triangle of the pencil spanned by the form and its Hessian gives
    such an A (see _into_pencil).  When every coefficient is real, the one
    triangle with three real sides gives a real A and the curve's own real
    k != 1, the one real member real-projectively equivalent to it; two real
    curves get the same k exactly when a real map carries one onto the
    other.  Otherwise the first triangle, best conditioned first, whose
    image is within PENCIL_RESIDUAL of a member of the pencil is taken.  The
    sides pass through flexes polished on the form itself (see
    cubic._polish_flexes), so one pass is enough.

    With canonical=True, k is moved to the normal form of its complex
    orbit, the tetrahedral image with the smallest |k| (moduli within 1e-9
    relative count as equal) and among those the smallest arg k in
    (-pi, pi], and A is adjusted to match.  It is often complex for a real
    curve.
    """
    k, a = form._pencil_map
    if canonical:
        orbit = [(_without_dust(m.apply(k)), p) for m, p in _TETRAHEDRAL_PAIRS]
        orbit = [(kk, p) for kk, p in orbit if not _is_infinite(kk)]
        least = min(abs(kk) for kk, _ in orbit)
        k, p = min(
            ((kk, p) for kk, p in orbit if abs(kk) <= least * (1 + TOLERANCE)),
            key=lambda t: cmath.phase(t[0]),
        )
        a = p.compose(a)
    return k, a
