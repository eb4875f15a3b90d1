"""Chord-tangent composition and the based group law on a smooth cubic.

Every chord and tangent step runs in one kernel, _chord, on normalized
homogeneous triples: exact on rational curves and points, else complex
floating point projected back onto the curve.  A group builds the curve's
data once (the integer form, or |F| and the coefficient scale); add, negate
and multiply pass triples between steps, and only the result becomes a
CurvePoint, so only its membership is checked.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .cubic import (
    CubicForm,
    _match_standard_pattern,
    find_flexes,
    is_flex,
)
from .errors import (
    ConvergenceFailure,
    InvalidInput,
    NonFlexBase,
    SingularCurve,
)
from .projective import ProjPoint, _cross, _flat_proportional, _normalize
from .scalars import CHORD_ZERO, COINCIDENCE, ROUNDING, TOLERANCE, _integral, negligible


def _project_to_curve(form: CubicForm, coords):
    """Two least-norm Newton steps pulling a nearby floating point onto the
    curve, which is first scaled to largest coordinate 1, so that the steps
    see the residual and gradient of the point itself, whatever its size."""
    top = max(map(abs, coords))
    v = [c / top for c in coords]
    for _ in range(2):
        g = form.gradient(v)
        nrm = abs(g[0]) ** 2 + abs(g[1]) ** 2 + abs(g[2]) ** 2
        if nrm < 1e-30:
            break
        step = -form.evaluate(v) / nrm
        v = [a + step * x.conjugate() for a, x in zip(v, g)]
    return tuple(v)


@dataclass(frozen=True)
class CurvePoint:
    """A point together with the smooth cubic it lies on; is_exact when
    both are exact, decided once, when it is built."""

    curve: CubicForm
    point: ProjPoint

    def __post_init__(self):
        self._settle(self.point.normalized())

    def _settle(self, pt: ProjPoint):
        """Keep the normalized point pt, once it is checked to lie on the curve."""
        object.__setattr__(self, "point", pt)
        object.__setattr__(self, "is_exact", self.curve.is_exact and pt.is_exact)
        val = self.curve.evaluate(pt.coords)
        if not negligible(val, max(map(abs, self.curve.coeffs)), TOLERANCE):
            raise InvalidInput(f"point {pt.coords} is not on the curve: the form is {val} there")

    def affine(self):
        """(x, y) in the z=1 chart, exact for an exact point; InvalidInput
        at infinity."""
        exact = self.point.is_exact
        x, y, z = self.point.coords if exact else self.point.to_complex()
        if negligible(z, 1, COINCIDENCE):
            raise InvalidInput("point at infinity has no affine coordinates")
        return (Fraction(x, z), Fraction(y, z)) if exact else (x / z, y / z)


def curve_point(curve: CubicForm, coords) -> CurvePoint:
    return CurvePoint(curve, coords if isinstance(coords, ProjPoint) else ProjPoint(*coords))


def affine_point(curve: CubicForm, x, y) -> CurvePoint:
    return CurvePoint(curve, ProjPoint(x, y, 1))


def _normal_point(curve: CubicForm, coords) -> CurvePoint:
    """curve_point of a triple already in normal form, as _chord returns
    it, which is kept as it is rather than normalized again."""
    cp = object.__new__(CurvePoint)
    object.__setattr__(cp, "curve", curve)
    cp._settle(ProjPoint(*coords))
    return cp


def _same_curve(p: CurvePoint, q: CurvePoint):
    # most calls pass points of one form object: no coefficient test then
    if p.curve is not q.curve and p.curve != q.curve:
        raise InvalidInput("points lie on different curves")


class _CurveData:
    """A curve as its chords use it: the form, its integer representative
    for exact chords (the third point does not depend on the scale), the
    coefficient scale, and |F|, built on first use."""

    def __init__(self, curve: CubicForm):
        self.curve = curve
        self.ints = CubicForm(_integral(curve.coeffs)[0]) if curve.is_exact else None
        self.scale = max(map(abs, curve.coeffs))

    @cached_property
    def sizes(self) -> CubicForm:
        return CubicForm(tuple(abs(c) for c in self.curve.coeffs))


def _restriction(form: CubicForm, p, q, tangent):
    """(a, b) with F(s p + t q) = s t (a s + b t) for p, q on the curve, or
    t^2 (a s + b t) for q on the tangent at p."""
    if tangent:
        return sum(map(mul, form.gradient(q), p)), form.evaluate(q)
    return sum(map(mul, form.gradient(p), q)), sum(map(mul, form.gradient(q), p))


def _chord(data: _CurveData, p, q, tangent=None):
    """The third meet p*q of the curve with the line through the normalized
    triples p and q (the tangent at p when p = q, decided by tolerance when
    tangent is None), normalized.  A normalized triple is all ints or all
    floating, so its first entry says which.  Exact steps run in integers
    with == 0 guards; floating ones count a restriction coefficient as zero
    to CHORD_ZERO of the sum of its terms' sizes (the restriction of |F| to
    |p| and |q|) and project the third point back onto the curve."""
    pe, qe = isinstance(p[0], int), isinstance(q[0], int)
    exact = data.curve.is_exact and pe and qe
    form = data.ints if exact else data.curve
    if tangent is None:
        tangent = p == q if pe and qe else _flat_proportional(p, q)
    if tangent:
        g = form.gradient(p)
        if all(negligible(v, data.scale, ROUNDING) for v in g):
            raise SingularCurve("gradient vanishes; no tangent line")
        if not exact:
            top = max(map(abs, g))
            g = [v / top for v in g]
        # g . q = det(g, g, conj p) = 0 puts q on the tangent, and q is
        # Hermitian-orthogonal to p, so never p; integral on exact input
        q = _cross(g, p if exact else [c.conjugate() for c in p])
    a, b = _restriction(form, p, q, tangent)
    # |F| is termwise at most scale (x + y + z)^3, so a size is at most
    # 3 scale m^3, m the larger of sum |p_i| and sum |q_i|: most floating
    # steps clear the gate without summing the sizes
    m = 0 if exact else max(sum(abs(c) for c in r) for r in (p, q))
    if (a == 0 and b == 0) if exact else max(abs(a), abs(b)) <= 4 * CHORD_ZERO * data.scale * m * m * m and all(
        negligible(c, size, CHORD_ZERO)
        for c, size in zip((a, b), _restriction(data.sizes, *([abs(c) for c in r] for r in (p, q)), tangent))
    ):
        raise ConvergenceFailure(f"{'tangent' if tangent else 'chord'} restriction vanished")
    third = tuple(b * u - a * v for u, v in zip(p, q))
    if all(negligible(c, 1, 1e-300) for c in third):
        raise ConvergenceFailure("third intersection is indeterminate")
    return _normalize(third if exact else _project_to_curve(data.curve, third))


def chord_tangent(p: CurvePoint, q: CurvePoint) -> CurvePoint:
    """The third intersection p*q of the line through p and q (the tangent
    at p when p = q) with the curve."""
    _same_curve(p, q)
    return _normal_point(p.curve, _chord(_CurveData(p.curve), p.point.coords, q.point.coords))


class BasedGroup:
    """The additive group with zero element o: p + q = (p*q)*o."""

    def __init__(self, curve: CubicForm, base):
        if not isinstance(base, CurvePoint):
            base = curve_point(curve, base)
        elif base.curve != curve:
            raise InvalidInput("base point lies on a different curve")
        self.curve, self.base, self._data, self._o = curve, base, _CurveData(curve), base.point.coords
        self.double_base = _normal_point(curve, _chord(self._data, self._o, self._o, True))

    def is_flex_based(self) -> bool:
        return is_flex(self.curve, self.base.point)


def flex_based_group(curve: CubicForm) -> BasedGroup:
    """Group based at a flex, preferring an exact or real one.

    Curves already in the form y^2 z = x^3 + a x z^2 + b z^3 get the
    exact flex (0:1:0), which keeps rational arithmetic rational; other
    curves get the first real flex if one exists, else the first flex.
    """
    if _match_standard_pattern(curve):
        return BasedGroup(curve, ProjPoint(0, 1, 0))
    flexes = find_flexes(curve).points
    return BasedGroup(curve, next((p for p in flexes if p.is_real()), flexes[0]))


def add(g: BasedGroup, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    _same_curve(p, q)
    _same_curve(p, g.base)
    return _normal_point(g.curve, _chord(g._data, _chord(g._data, p.point.coords, q.point.coords), g._o))


def negate(g: BasedGroup, p: CurvePoint) -> CurvePoint:
    _same_curve(p, g.base)
    return _normal_point(g.curve, _chord(g._data, g.double_base.point.coords, p.point.coords))


def multiply(g: BasedGroup, n: int, p: CurvePoint) -> CurvePoint:
    """n p by double-and-add on triples; a doubling is known to be one, so
    it skips the test of p = q that acc + run and the step to o keep."""
    if not isinstance(n, int):
        raise InvalidInput("multiplier must be an integer")
    if n == 0:
        return g.base
    _same_curve(p, g.base)
    data, o = g._data, g._o
    acc, run, m = None, p.point.coords, abs(n)
    while m:
        if m & 1:
            acc = run if acc is None else _chord(data, _chord(data, acc, run), o)
        m >>= 1
        if m:
            run = _chord(data, _chord(data, run, run, True), o)
    if n < 0:
        acc = _chord(data, g.double_base.point.coords, acc)
    return _normal_point(g.curve, acc)


def three_torsion(g: BasedGroup):
    """The nine solutions of 3p = o for a flex base: the flexes, projected onto the curve."""
    if not g.is_flex_based():
        raise NonFlexBase("3-torsion description requires a flex base point")
    return [curve_point(g.curve, _project_to_curve(g.curve, p.coords)) for p in find_flexes(g.curve)]
