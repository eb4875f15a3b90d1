"""The pencil of cubics x^3 + y^3 + z^3 = 3k xyz.

Carries the parameter-level theory: the nine base points shared by every
member, the 18-element projective symmetry group fixing each member, the
invariant J(k), the involution eta and the 12-element Mobius group whose
orbits are exactly the parameter fibers of J, and the reduction of an
arbitrary smooth cubic into the pencil.

The symbol for the parameter at infinity is math.inf (the member xyz=0).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .cubic import MONOMIALS, CubicForm, _float_form, transform
from .errors import ConvergenceFailure, InvalidInput, SingularParameter
from .projective import ProjMap, ProjPoint, _flat_proportional
from .scalars import (
    COINCIDENCE, LEADING_DROP, PENCIL_RESIDUAL, REDUCTION_DUST, ROUNDING, TOLERANCE,
    all_exact, collapse, has_nan, is_exact, negligible, poly_roots,
)

_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)


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
    roots = (1, _OMEGA, _OMEGA.conjugate())
    pts = []
    for g in roots:
        pts.append(ProjPoint(0, 1, -g))
    for g in roots:
        pts.append(ProjPoint(-g, 0, 1))
    for g in roots:
        pts.append(ProjPoint(1, -g, 0))
    return pts


# ---------------------------------------------------------------------------
# the 18-element symmetry group
# ---------------------------------------------------------------------------


def _closure(generators, limit):
    group = [ProjMap.identity()]
    frontier = list(group)
    while frontier:
        new = []
        for m in frontier:
            for g in generators:
                cand = g.compose(m)
                if all(cand != h for h in group):
                    group.append(cand)
                    new.append(cand)
                    if len(group) > limit:
                        raise ConvergenceFailure("group closure exceeded bound")
        frontier = new
    return group


def translation_subgroup() -> list[ProjMap]:
    """The 9 maps acting simply transitively on the base points."""
    cyc = ProjMap(((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    diag = ProjMap(((1, 0, 0), (0, _OMEGA, 0), (0, 0, _OMEGA.conjugate())))
    group = _closure((cyc, diag), 9)
    if len(group) != 9:
        raise ConvergenceFailure("translation subgroup closure failed")
    return group


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


def eta(k):
    """The involution k -> (k+2)/(k-1); fixes J, swaps 1 and infinity."""
    if _is_infinite(k):
        return 1
    if is_exact(k):
        if k == 1:
            return math.inf
        val = (Fraction(k) + 2) / (Fraction(k) - 1)
        return collapse(val)
    kc = complex(k)
    if kc == 1:
        return math.inf
    val = (kc + 2) / (kc - 1)
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
        a, b, c, d = self.entries
        if all_exact(self.entries) and is_exact(k):
            den = c * Fraction(k) + d
            return math.inf if den == 0 else collapse((a * Fraction(k) + b) / den)
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


def _eta_realization() -> ProjMap:
    g = _OMEGA
    return ProjMap(((1, 1, 1), (1, g, g.conjugate()), (1, g.conjugate(), g)))


def _tetrahedral_pairs():
    """The 12 Mobius maps paired with projective maps realizing them:
    transform(hesse_form(k), P) is proportional to hesse_form(mu(k))."""
    gens = [
        (MobiusMap((1, 2, 1, -1)), _eta_realization()),
        (
            MobiusMap((_OMEGA, 0, 0, 1)),
            ProjMap(((_OMEGA.conjugate(), 0, 0), (0, 1, 0), (0, 0, 1))),
        ),
    ]
    pairs = [(MobiusMap((1, 0, 0, 1)), ProjMap.identity())]
    frontier = list(pairs)
    while frontier:
        new = []
        for (m, p) in frontier:
            for (gm, gp) in gens:
                cm = gm.compose(m)
                cp = gp.compose(p)
                if all(cm != hm for hm, _ in pairs):
                    pairs.append((cm, cp))
                    new.append((cm, cp))
                    if len(pairs) > 12:
                        raise ConvergenceFailure("tetrahedral closure exceeded 12")
        frontier = new
    if len(pairs) != 12:
        raise ConvergenceFailure("tetrahedral group closure failed")
    return pairs


def tetrahedral_group() -> list[MobiusMap]:
    """The 12 fractional-linear maps permuting {1, omega, conj(omega), inf};
    two parameters give projectively equivalent members exactly when one is
    carried to the other by this group.
    """
    return [m for m, _ in _tetrahedral_pairs()]


def hesse_orbit(k) -> list:
    """The 12 images of k under the tetrahedral group, with multiplicity."""
    return [m.apply(k) for m in tetrahedral_group()]


# ---------------------------------------------------------------------------
# parameter recovery from a J value
# ---------------------------------------------------------------------------


def _j_quartic_roots(j0: complex):
    """Roots u of u(u+8)^3 = 64 J0 (u-1)^3, i.e. candidates for k^3."""
    coeffs = [
        1.0,
        24.0 - 64.0 * j0,
        192.0 + 192.0 * j0,
        512.0 - 192.0 * j0,
        64.0 * j0,
    ]
    roots = poly_roots(coeffs)

    def q(u):
        return u * (u + 8) ** 3 - 64 * j0 * (u - 1) ** 3

    def dq(u):
        return (u + 8) ** 3 + 3 * u * (u + 8) ** 2 - 192 * j0 * (u - 1) ** 2

    out = []
    for r in roots:
        u = complex(r)
        for _ in range(2):
            d = dq(u)
            if abs(d) < 1e-8:
                break
            u = u - q(u) / d
        out.append(u)
    return out


def parameters_for_j(j0) -> list[complex]:
    """All 12 solutions k of J(k) = j0, with multiplicity."""
    j0 = complex(j0)
    ks = []
    for u in _j_quartic_roots(j0):
        base = u ** (1.0 / 3.0) if u != 0 else 0.0 + 0.0j
        for mult in (1, _OMEGA, _OMEGA.conjugate()):
            k = base * mult
            # one polishing step on J itself where the derivative allows
            for _ in range(2):
                den = k ** 3 - 1
                if abs(den) < 1e-9:
                    break
                f = (k * (k ** 3 + 8) / (4 * den)) ** 3 - j0
                h = 1e-7 * max(1.0, abs(k))
                df = (
                    ((k + h) * ((k + h) ** 3 + 8) / (4 * ((k + h) ** 3 - 1))) ** 3
                    - ((k - h) * ((k - h) ** 3 + 8) / (4 * ((k - h) ** 3 - 1))) ** 3
                ) / (2 * h)
                if abs(df) < 1e-6:
                    break
                k = k - f / df
            ks.append(k)
    return ks


def real_parameters_for_j(j0: float) -> list[float]:
    """The real k != 1 with J(k) = j0, ascending.  Closed forms are used at
    the two anchor values J=0 and J=1 where the generic solver loses
    accuracy to root multiplicity."""
    if abs(j0) < 1e-13:
        return [-2.0, 0.0]
    if abs(j0 - 1.0) < 1e-13:
        return [1.0 - math.sqrt(3.0), 1.0 + math.sqrt(3.0)]
    out = []
    for k in parameters_for_j(j0):
        if abs(k.imag) > 1e-7 * max(1.0, abs(k)):
            continue
        kr = k.real
        if abs(kr - 1.0) < 1e-9:
            continue
        if all(abs(kr - o) > 1e-7 * max(1.0, abs(kr)) for o in out):
            out.append(kr)
    out.sort()
    return out


# ---------------------------------------------------------------------------
# reduction of a smooth cubic into the pencil
# ---------------------------------------------------------------------------


def _cube_root(c):
    """A cube root of c: the real one when c is real."""
    c = complex(c)
    if c.imag == 0:
        return math.copysign(abs(c.real) ** (1.0 / 3.0), c.real)
    return c ** (1.0 / 3.0)


def _triangle_map(form: CubicForm, sides):
    """(A, transform(form, A)) for the map A sending the sides of a
    triangle of the pencil of form to x, y, z, its rows scaled by cube
    roots of the x^3, y^3, z^3 coefficients of the image.

    In the coordinates of the sides the form is a x^3 + b y^3 + c z^3 +
    d xyz, which the scaling makes a member of the Hesse pencil.  The
    coefficient c is the form at a vertex, which a smooth curve never
    passes through: measured over all four triangles, |c| relative to the
    largest coefficient is at least 2.9e-6 on 4200 curves of the bench's
    reduce and exact workloads.
    """
    g = transform(form, ProjMap(sides))
    s = [_cube_root(g.coeff(*m)) for m in ((3, 0, 0), (0, 3, 0), (0, 0, 3))]
    a = ProjMap(tuple(tuple(v * t for t in row) for v, row in zip(s, sides)))
    image = tuple(c / (s[0] ** i * s[1] ** j * s[2] ** k) for (i, j, k), c in zip(MONOMIALS, g.coeffs))
    return a, CubicForm(image)


def _into_pencil(form: CubicForm, triangles):
    """(k, A) for the triangle whose image is nearest the pencil, k read
    from that image by _pencil_parameter and without dust; ConvergenceFailure
    when the image is further than PENCIL_RESIDUAL from the pencil.

    When every coefficient is real, only the triangle with three real sides
    is taken.  A smooth real cubic has exactly one; its map is real, and so
    is the member it reaches, the curve's own real k: the one real member
    of the pencil real-projectively equivalent to the curve.  The sides are
    floats, so an exact form turns into floats once (cubic._float_form),
    whatever the height of its coefficients.
    """
    form = _float_form(form)
    if all(complex(c).imag == 0 for c in form.coeffs):
        triangles = [s for s in triangles if all(isinstance(v, float) for r in s for v in r)][:1]
    maps = [_triangle_map(form, s) for s in triangles]
    if not maps:
        raise ConvergenceFailure("no triangle of the pencil gives a map")
    a, k, dev = min(((a,) + _pencil_parameter(image) for a, image in maps), key=lambda m: m[2])
    if dev > PENCIL_RESIDUAL:
        raise ConvergenceFailure(f"reduction into the pencil left residual {dev:.2e}")
    return _without_dust(k), a


def _pencil_parameter(form: CubicForm):
    """(k, residual) reading a normalized form as a member of the pencil."""
    cs = [complex(c) for c in form.normalized().coeffs]
    top = max(abs(c) for c in cs)
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
    such an A (see _triangle_map).  When every coefficient is real, the one
    triangle with three real sides gives a real A and the curve's own real
    k != 1, the one real member real-projectively equivalent to it; two real
    curves get the same k exactly when a real map carries one onto the
    other.  Otherwise the triangle whose image is closest to a member of the
    pencil wins.  The sides pass through flexes polished on the form itself
    (see cubic._polish_flexes), so one pass is enough.

    With canonical=True, k is moved to the normal form of its complex
    orbit, the tetrahedral image with the smallest |k| (moduli within 1e-9
    relative count as equal) and among those the smallest arg k in
    (-pi, pi], and A is adjusted to match.  It is often complex for a real
    curve.
    """
    k, a = form._pencil_map
    if canonical:
        orbit = [(_without_dust(m.apply(k)), p) for m, p in _tetrahedral_pairs()]
        orbit = [(kk, p) for kk, p in orbit if not _is_infinite(kk)]
        least = min(abs(kk) for kk, _ in orbit)
        k, p = min(
            ((kk, p) for kk, p in orbit if abs(kk) <= least * (1 + TOLERANCE)),
            key=lambda t: cmath.phase(t[0]),
        )
        a = p.compose(a)
    return k, a
