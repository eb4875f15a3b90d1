"""Chord-tangent composition and the based group law on a smooth cubic.

All constructions work in homogeneous coordinates, so the point at
infinity on a standard curve needs no special casing.  When the curve
and the points are rational the whole computation stays in exact
arithmetic and results are exact; any floating input demotes the
operation to complex floating point with a final Newton projection
back onto the curve.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cubic import (
    CubicForm,
    _line_second_point,
    _match_standard_pattern,
    find_flexes,
    flex_defect,
    restrict_to_line,
    tangent_line,
)
from .errors import (
    ConvergenceFailure,
    InvalidInput,
    NonFlexBase,
    SingularCurve,
)
from .projective import ProjPoint
from .scalars import _integral

_MEMBER_TOL = 1e-9


def _coeff_scale(form: CubicForm) -> float:
    return max(abs(complex(c)) for c in form.coeffs)


def _project_to_curve(form: CubicForm, coords):
    """Two least-norm Newton steps pulling a nearby point onto the curve,
    which is first scaled to largest coordinate 1, so that the steps see
    the residual and gradient of the point itself, whatever its size."""
    v = [complex(c) for c in coords]
    top = max(abs(c) for c in v)
    v = [c / top for c in v]
    for _ in range(2):
        p = ProjPoint(*v).coords
        val = complex(form.evaluate(p))
        g = [complex(x) for x in form.gradient(p)]
        nrm = sum(abs(x) ** 2 for x in g)
        if nrm < 1e-30:
            break
        step = -val / nrm
        v = [a + step * x.conjugate() for a, x in zip(p, g)]
    return ProjPoint(*v)


@dataclass(frozen=True)
class CurvePoint:
    """A point together with the smooth cubic it lies on."""

    curve: CubicForm
    point: ProjPoint

    def __post_init__(self):
        pt = self.point.normalized()
        object.__setattr__(self, "point", pt)
        val = self.curve.evaluate(pt.coords)
        if self.curve.is_exact and pt.is_exact:
            if val != 0:
                raise InvalidInput(f"point {pt.coords} is not on the curve")
        else:
            if abs(complex(val)) > _MEMBER_TOL * _coeff_scale(self.curve):
                raise InvalidInput(
                    f"membership residual {abs(complex(val)):.2e} exceeds {_MEMBER_TOL}"
                )

    @property
    def is_exact(self) -> bool:
        return self.curve.is_exact and self.point.is_exact

    def affine(self):
        """(x, y) in the z=1 chart; InvalidInput at infinity."""
        x, y, z = self.point.coords
        if (z == 0) if self.point.is_exact else (abs(complex(z)) < 1e-12):
            raise InvalidInput("point at infinity has no affine coordinates")
        return (x / z if self.point.is_exact else complex(x) / complex(z),
                y / z if self.point.is_exact else complex(y) / complex(z))


def curve_point(curve: CubicForm, coords) -> CurvePoint:
    return CurvePoint(curve, coords if isinstance(coords, ProjPoint) else ProjPoint(*coords))


def affine_point(curve: CubicForm, x, y) -> CurvePoint:
    return CurvePoint(curve, ProjPoint(x, y, 1))


def _same_curve(p: CurvePoint, q: CurvePoint):
    # most calls pass points of one form object: no coefficient test then
    if p.curve is not q.curve and p.curve != q.curve:
        raise InvalidInput("points lie on different curves")


def chord_tangent(p: CurvePoint, q: CurvePoint) -> CurvePoint:
    """The third intersection p*q of the line through p and q (the tangent
    at p when p = q) with the curve."""
    _same_curve(p, q)
    form = p.curve
    exact = p.is_exact and q.is_exact
    if exact:
        # the third point does not depend on the scale of the form
        form = CubicForm(_integral(form.coeffs)[0])

    def vanished(cs, n, u, v):
        """cs[n] and cs[n + 1] are zero, or on float input below the
        rounding of their own sums: 1e-13 times the sum of their terms'
        sizes, which follows the points as well as the form."""
        if exact:
            return cs[n] == 0 and cs[n + 1] == 0
        sizes = restrict_to_line(
            CubicForm(tuple(abs(complex(c)) for c in form.coeffs)),
            *(ProjPoint(*(abs(complex(c)) for c in x.coords)) for x in (u, v)))
        return all(abs(complex(cs[i])) <= 1e-13 * sizes[i] for i in (n, n + 1))

    if p.point == q.point:
        line = tangent_line(form, p.point)
        if line is None:
            raise SingularCurve("gradient vanishes; no tangent line")
        d = _line_second_point(line.normalized(), p.point)
        cs = restrict_to_line(form, p.point, d)
        # c1 = 0 by construction of d, so c(s,t) = t^2 (c2 s + c3 t)
        c2, c3 = cs[2], cs[3]
        if vanished(cs, 2, p.point, d):
            raise ConvergenceFailure("tangent restriction vanished")
        third = tuple(c3 * a - c2 * b for a, b in zip(p.point.coords, d.coords))
    else:
        cs = restrict_to_line(form, p.point, q.point)
        # c0 and c3 vanish (membership), leaving st(c1 s + c2 t)
        c1, c2 = cs[1], cs[2]
        if vanished(cs, 1, p.point, q.point):
            raise ConvergenceFailure("chord restriction vanished")
        third = tuple(c2 * a - c1 * b for a, b in zip(p.point.coords, q.point.coords))
    if all((c == 0 if exact else abs(complex(c)) < 1e-300) for c in third):
        raise ConvergenceFailure("third intersection is indeterminate")
    pt = ProjPoint(*third) if exact else _project_to_curve(form, third)
    return CurvePoint(p.curve, pt)


class BasedGroup:
    """The additive group with zero element o: p + q = (p*q)*o."""

    def __init__(self, curve: CubicForm, base):
        if not isinstance(base, CurvePoint):
            base = curve_point(curve, base)
        elif base.curve != curve:
            raise InvalidInput("base point lies on a different curve")
        self.curve = curve
        self.base = base
        self.double_base = chord_tangent(base, base)

    def is_flex_based(self) -> bool:
        return flex_defect(self.curve, self.base.point) <= 1e-6


def flex_based_group(curve: CubicForm) -> BasedGroup:
    """Group based at a flex, preferring an exact or real one.

    Curves already in the form y^2 z = x^3 + a x z^2 + b z^3 get the
    exact flex (0:1:0), which keeps rational arithmetic rational; other
    curves get the first real flex if one exists, else the first flex.
    """
    if _match_standard_pattern(curve) is not None:
        return BasedGroup(curve, ProjPoint(0, 1, 0))
    flexes = find_flexes(curve).points
    for p in flexes:
        if all(abs(complex(c).imag) <= 1e-9 for c in p.normalized().coords):
            return BasedGroup(curve, p)
    return BasedGroup(curve, flexes[0])


def add(g: BasedGroup, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    return chord_tangent(chord_tangent(p, q), g.base)


def negate(g: BasedGroup, p: CurvePoint) -> CurvePoint:
    return chord_tangent(g.double_base, p)


def multiply(g: BasedGroup, n: int, p: CurvePoint) -> CurvePoint:
    if not isinstance(n, int):
        raise InvalidInput("multiplier must be an integer")
    if n == 0:
        return g.base
    if n < 0:
        return negate(g, multiply(g, -n, p))
    acc = None
    run = p
    while n:
        if n & 1:
            acc = run if acc is None else add(g, acc, run)
        n >>= 1
        if n:
            run = add(g, run, run)
    return acc


def three_torsion(g: BasedGroup):
    """The nine solutions of 3p = o for a flex base: exactly the flexes."""
    if not g.is_flex_based():
        raise NonFlexBase("3-torsion description requires a flex base point")
    fs = find_flexes(g.curve)
    out = []
    for pt in fs.points:
        if g.curve.is_exact and pt.is_exact and g.curve.evaluate(pt.coords) == 0:
            out.append(CurvePoint(g.curve, pt))
        else:
            out.append(CurvePoint(g.curve, _project_to_curve(g.curve, pt.coords)))
    return out
