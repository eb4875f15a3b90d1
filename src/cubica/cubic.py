"""Homogeneous cubic forms in three variables and their geometry.

A form is stored as ten coefficients in the fixed monomial order

    x^3, x^2 y, x^2 z, x y^2, x y z, x z^2, y^3, y^2 z, y z^2, z^3.

Everything here works over both coefficient regimes: exact (int/Fraction)
and floating (float/complex).  Exact input gives exact output wherever the
operation itself is algebraic (evaluate, hessian, transform); root finding
is always floating.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceFailure,
    CubicaError,
    DegenerateForm,
    InvalidInput,
    SingularCurve,
)
from .projective import (
    ProjLine, ProjMap, ProjPoint, _flat_proportional, _integer_adjugate, _normalize, proj_distance,
)
from .scalars import (
    COINCIDENCE, FLEX_CONTACT, FLEX_DERIVED, FLEX_SEPARATION, LEADING_DROP, PIVOT_TIE, ROUNDING, SINGULAR_RANK,
    _integral, _newton_step, all_exact, has_nan, is_exact, negligible, scalar_from_json, scalar_to_json, unit_floats,
)

MONOMIALS = (
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
)
#: the cube roots of unity omega^0, omega^1, omega^2, the first exact
_ROOTS = (1, complex(-0.5, math.sqrt(3.0) / 2.0), complex(-0.5, -math.sqrt(3.0) / 2.0))

# ---------------------------------------------------------------------------
# dense polynomial kernel: a linear form is its 3 coefficients of x, y, z and
# a cubic its 10 coefficients in MONOMIALS order
# ---------------------------------------------------------------------------

# the variables of each monomial, x^2 y -> (0, 0, 1): MONOMIALS order for
# cubics, x^2, xy, xz, y^2, yz, z^2 for quadratics
_CUBIC = tuple(itertools.combinations_with_replacement(range(3), 3))
_QUADRATIC = tuple(itertools.combinations_with_replacement(range(3), 2))
# for each quadratic monomial, the pairs (a, b) with x_a x_b equal to it
_PAIR_TERMS = tuple(tuple(sorted(set(itertools.permutations(m)))) for m in _QUADRATIC)
# for each cubic monomial, the pairs (quadratic monomial, variable) whose
# product it is
_TIMES_TERMS = tuple(
    tuple(sorted({(_QUADRATIC.index(m[:i] + m[i + 1:]), m[i]) for i in range(3)}))
    for m in _CUBIC
)


def _pair(u, v):
    """The 6 coefficients of the quadratic (u.x)(v.x) of two linear forms."""
    return [sum(u[a] * v[b] for a, b in terms if u[a] and v[b]) for terms in _PAIR_TERMS]


def _times(q, w):
    """The 10 coefficients of the cubic q(x)(w.x), q a quadratic."""
    return [sum(q[i] * w[t] for i, t in terms if q[i] and w[t]) for terms in _TIMES_TERMS]


def _first_partials(c):
    """f_x, f_y, f_z of the cubic with coefficients c, each a quadratic."""
    return (
        (3 * c[0], 2 * c[1], 2 * c[2], c[3], c[4], c[5]),
        (c[1], 2 * c[3], c[4], 3 * c[6], 2 * c[7], c[8]),
        (c[2], c[4], 2 * c[5], c[7], 2 * c[8], 3 * c[9]),
    )


def _second_partials(c):
    """f_xx, f_xy, f_xz, f_yy, f_yz, f_zz of the cubic with coefficients c,
    each a linear form."""
    return (
        (6 * c[0], 2 * c[1], 2 * c[2]),
        (2 * c[1], 2 * c[3], c[4]),
        (2 * c[2], c[4], 2 * c[5]),
        (2 * c[3], 6 * c[6], 2 * c[7]),
        (c[4], 2 * c[7], 2 * c[8]),
        (2 * c[5], 2 * c[8], 6 * c[9]),
    )


def _second_partials_at(c, point):
    """The six second partials of _second_partials at the point."""
    x, y, z = point
    return tuple(u * x + v * y + w * z for u, v, w in _second_partials(c))


def _sym_adjugate(xx, xy, xz, yy, yz, zz):
    """The adjugate of a symmetric 3x3 matrix, in the same six-entry order."""
    return (
        yy * zz - yz * yz, xz * yz - xy * zz, xy * yz - xz * yy,
        xx * zz - xz * xz, xy * xz - xx * yz, xx * yy - xy * xy,
    )


def _trace_product(a, b):
    """tr(a b) of two symmetric 3x3 matrices given by six entries each."""
    return a[0] * b[0] + a[3] * b[3] + a[5] * b[5] + 2 * (a[1] * b[1] + a[2] * b[2] + a[4] * b[4])


# ---------------------------------------------------------------------------
# the form itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CubicForm:
    """A ternary cubic, identified projectively (up to a global factor);
    is_exact, whether every coefficient is int or Fraction, is decided
    once, when it is built, and its pencil <f, Hess f> once, on first use."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(self.coeffs)
        if len(cs) != 10:
            raise InvalidInput("a cubic form needs exactly 10 coefficients")
        exact = all_exact(cs)
        if not exact and has_nan(cs):
            raise InvalidInput("a cubic form cannot have a NaN coefficient")
        if all(c == 0 for c in cs):
            raise InvalidInput("the zero polynomial is not a cubic form")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "is_exact", exact)

    def as_dict(self):
        return {m: c for m, c in zip(MONOMIALS, self.coeffs) if c != 0}

    def evaluate(self, point):
        """Value at a point (ProjPoint or coordinate triple)."""
        x, y, z = point.coords if isinstance(point, ProjPoint) else point
        c = self.coeffs
        x2, y2, z2 = x * x, y * y, z * z
        return (
            c[0] * x2 * x + c[1] * x2 * y + c[2] * x2 * z
            + c[3] * x * y2 + c[4] * x * y * z + c[5] * x * z2
            + c[6] * y2 * y + c[7] * y2 * z + c[8] * y * z2 + c[9] * z2 * z
        )

    def gradient(self, point):
        x, y, z = point.coords if isinstance(point, ProjPoint) else point
        c = self.coeffs
        x2, y2, z2 = x * x, y * y, z * z
        gx = 3 * c[0] * x2 + 2 * c[1] * x * y + 2 * c[2] * x * z + c[3] * y2 + c[4] * y * z + c[5] * z2
        gy = c[1] * x2 + 2 * c[3] * x * y + c[4] * x * z + 3 * c[6] * y2 + 2 * c[7] * y * z + c[8] * z2
        gz = c[2] * x2 + c[4] * x * y + 2 * c[5] * x * z + c[7] * y2 + 2 * c[8] * y * z + 3 * c[9] * z2
        return (gx, gy, gz)

    def hessian(self) -> "CubicForm":
        """Determinant of the matrix of second partials, again a cubic.

        An exact form ints / den, ints its integer representative, expands
        in ints and divides by den^3 once at the end.
        """
        cs, den = _integral(self.coeffs) if self.is_exact else (self.coeffs, 1)
        xx, xy, xz, yy, yz, zz = _second_partials(cs)
        coeffs = [0] * 10
        # cofactor expansion along the first row of the symmetric matrix
        for lin, p, q in (
            (xx, _pair(yy, zz), _pair(yz, yz)),
            (xy, _pair(xz, yz), _pair(xy, zz)),
            (xz, _pair(xy, yz), _pair(yy, xz)),
        ):
            minor = [u - v for u, v in zip(p, q)]
            coeffs = [u + v for u, v in zip(coeffs, _times(minor, lin))]
        if all(c == 0 for c in coeffs):
            raise DegenerateForm("hessian vanishes identically")
        if den != 1:
            coeffs = [Fraction(c, den ** 3) for c in coeffs]
        return CubicForm(coeffs)

    # the pencil, built on first use and kept on the form: the verdict (c,
    # hc, sigma, tau) of _smooth_coefficients, the (triangles, flexes) of
    # _pencil_triangles and the map (k, A) into the Hesse pencil
    _verdict = cached_property(lambda self: _smooth_coefficients(self))
    _pencil = cached_property(lambda self: _converging(_pencil_triangles, *self._verdict))

    @cached_property
    def _pencil_map(self):
        from .hesse import _into_pencil  # hesse imports this module

        return _converging(_into_pencil, self, self._pencil[0])

    def normalized(self) -> "CubicForm":
        """Scale to a projective normal form (same convention as points)."""
        return CubicForm(_normalize(self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, CubicForm):
            return NotImplemented
        return _flat_proportional(list(self.coeffs), list(other.coeffs))

    __hash__ = None

    def __repr__(self):
        return f"CubicForm({self.coeffs!r})"

    def to_json(self):
        return {"coeffs": [scalar_to_json(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj):
        """Parse a form; accepts {"coeffs": [...]}, {"hesse": k} and
        {"standard": [a, b]} shorthand."""
        if not isinstance(obj, dict):
            raise InvalidInput("a cubic form is a JSON object")
        if "coeffs" in obj:
            cs = obj["coeffs"]
            if not isinstance(cs, (list, tuple)) or len(cs) != 10:
                raise InvalidInput("coeffs must list 10 scalars")
            return cls(tuple(scalar_from_json(c) for c in cs))
        if "hesse" in obj:
            from .hesse import hesse_form

            k = obj["hesse"]
            if isinstance(k, str) and k.strip().lower() in ("inf", "infinity", "oo"):
                k = math.inf
            else:
                k = scalar_from_json(k)
            return hesse_form(k)
        if "standard" in obj:
            from .standard import StandardCurve

            ab = obj["standard"]
            if not isinstance(ab, (list, tuple)) or len(ab) != 2:
                raise InvalidInput("standard shorthand needs [a, b]")
            return StandardCurve(*(scalar_from_json(v) for v in ab)).cubic_form()
        raise InvalidInput("unknown cubic form description")


def _float_form(form: CubicForm) -> CubicForm:
    """The form with floating coefficients: one with an exact coefficient
    as unit_floats gives it, whatever the height of its coefficients; an
    all-floating one as it is."""
    return CubicForm(unit_floats(form.coeffs)) if any(map(is_exact, form.coeffs)) else form


def evaluate_grid(form: CubicForm, x, y, z):
    """Vectorized evaluation on numpy arrays (used by the renderers)."""
    acc = np.zeros(np.broadcast(x, y, z).shape)
    # v ** 0, v ** 1 and v ** 2 are 1.0, v and v * v exactly; the cube is
    # the kept square times v, as numpy's v ** 3 calls the scalar libm pow
    # on any array holding a negative value, about 40 times slower
    powers = [[1.0, v, None] for v in (x, y, z)]
    for m, c in zip(MONOMIALS, form.coeffs):
        if c == 0:
            continue
        for p, n in zip(powers, m):
            if n >= 2 and p[2] is None:
                p[2] = p[1] ** 2
        px, py, pz = (p[2] * p[1] if n == 3 else p[n] for p, n in zip(powers, m))
        # one product, whose temporaries numpy reuses in place
        acc = acc + float(c) * px * py * pz
    return acc


# ---------------------------------------------------------------------------
# coordinate changes
# ---------------------------------------------------------------------------


def _substitute(coeffs, b):
    """The 10 coefficients of the cubic f with coefficients coeffs composed
    with the matrix b: x_r becomes b_r.x, b_r the rows of b.

    With u, v, w the columns of b, the image is f(xu + yv + zw), read off
    by evaluation: its x^3 coefficient is f(u), its x^2 y coefficient
    grad f(u).v, and so on, and its xyz coefficient the third derivative
    u^T M(w) v, M(w) the matrix of second partials of f at w.
    """
    f = CubicForm(coeffs)
    u, v, w = zip(*b)
    gu, gv, gw = f.gradient(u), f.gradient(v), f.gradient(w)
    xx, xy, xz, yy, yz, zz = _second_partials_at(coeffs, w)
    mv = (
        xx * v[0] + xy * v[1] + xz * v[2],
        xy * v[0] + yy * v[1] + yz * v[2],
        xz * v[0] + yz * v[1] + zz * v[2],
    )

    def dot(g, p):
        return g[0] * p[0] + g[1] * p[1] + g[2] * p[2]

    return [
        f.evaluate(u), dot(gu, v), dot(gu, w), dot(gv, u), dot(mv, u),
        dot(gw, u), f.evaluate(v), dot(gv, w), dot(gw, v), f.evaluate(w),
    ]


def transform(form: CubicForm, a: ProjMap) -> CubicForm:
    """The form in new coordinates: returns literally form o a^{-1}.

    No renormalization is applied, so scalar identities such as the
    Hessian change-of-coordinates law hold coefficient for coefficient.
    On exact input, with form = ints / den and a = m / mden for integer
    ints and m, the rows of adj(m) = det(m) m^{-1} are substituted in ints
    and the result divided once: (ints o adj(m)) mden^3 / (den det(m)^3).
    """
    if form.is_exact and a.is_exact:
        ints, den = _integral(form.coeffs)
        adj, d, mden = _integer_adjugate(a.rows)
        num, dd = mden ** 3, den * d ** 3
        return CubicForm(tuple(Fraction(c * num, dd) for c in _substitute(ints, adj)))
    return CubicForm(_substitute(form.coeffs, a.inverse().rows))


def restrict_to_line(form: CubicForm, p: ProjPoint, q: ProjPoint):
    """Coefficients [c0, c1, c2, c3] of t -> form(s*p + t*q).

    c0 = form(p), c1 = grad(p).q, c2 = grad(q).p, c3 = form(q).
    """
    pc, qc = p.coords, q.coords
    gp, gq = form.gradient(pc), form.gradient(qc)
    c0 = form.evaluate(pc)
    c1 = sum(g * c for g, c in zip(gp, qc))
    c2 = sum(g * c for g, c in zip(gq, pc))
    c3 = form.evaluate(qc)
    return [c0, c1, c2, c3]


def tangent_line(form: CubicForm, p: ProjPoint) -> ProjLine | None:
    """Gradient line at a point; None where the gradient vanishes: exactly at
    an exact point of an exact form, else to ROUNDING of the top coefficient."""
    g = form.gradient(p.normalized())
    top = max(abs(c) for c in form.coeffs)
    if all(negligible(v, top, ROUNDING) for v in g):
        return None
    return ProjLine(*g)


def _line_second_point(line, p):
    """A deterministic point on the line distinct from the point p, all
    three coordinate triples."""
    u, v, w = line
    best = None
    best_d = -1.0
    for cand in ((v, -u, 0), (w, 0, -u), (0, w, -v)):
        if not any(cand):
            continue
        d = proj_distance(cand, p)
        if d > 0.1:
            return cand
        if d > best_d:
            best, best_d = cand, d
    if best is None or best_d <= COINCIDENCE:
        raise InvalidInput("line has no second point distinct from p")
    return best


def _contact_defect(c, p, q) -> float:
    """max(|c0|, |c1|, |c2|) / max |c_i| for the restriction c of a form to
    the tangent line at p through q (see restrict_to_line), p and q
    normalized triples."""
    if all_exact(c):
        # c_i as if p and q had largest coordinate 1, as the floating
        # points do, kept exact whatever the height of p and q
        sp, sq = (max(abs(v) for v in r) for r in (p, q))
        mags = [Fraction(abs(v), sp ** (3 - i) * sq ** i) for i, v in enumerate(c)]
    else:
        mags = [abs(v) for v in c]
    top = max(mags)
    if top == 0:
        return math.inf
    return float(max(mags[0], mags[1], mags[2]) / top)


def flex_defect(form: CubicForm, p: ProjPoint) -> float:
    """How far the point is from being a flex.

    Zero means: p is on the curve and its tangent meets the curve with
    multiplicity three there.  Computed from the restriction of the form
    to the tangent line, scale-free.
    """
    fn = form.normalized()
    pn = p.normalized()
    line = tangent_line(fn, pn)
    if line is None:
        return math.inf
    q = ProjPoint(*_line_second_point(line.normalized().coeffs, pn.coords)).normalized()
    return _contact_defect(restrict_to_line(fn, pn, q), pn.coords, q.coords)


def is_flex(form: CubicForm, p: ProjPoint, tol: float = FLEX_CONTACT) -> bool:
    return flex_defect(form, p) <= tol


# ---------------------------------------------------------------------------
# flexes: the four triangles of the pencil <F, H(F)>
# ---------------------------------------------------------------------------

# the third partials f_abi of a cubic are linear in its coefficients:
# column 9a + 3b + i of this integer matrix maps the 10 coefficients to f_abi
_THIRD = np.array([
    np.array(_second_partials(e))[[0, 1, 2, 1, 3, 4, 2, 4, 5]].ravel() for e in np.eye(10, dtype=int)
])
# entry 3i + j of the cofactor matrix of a flattened 3 x 3 matrix m is
# m[A] m[B] - m[C] m[D], for the rows A, B, C, D of this table
_COFACTOR = np.array([
    [3 * ((i + u) % 3) + (j + v) % 3 for i in range(3) for j in range(3)]
    for u, v in ((1, 1), (2, 2), (1, 2), (2, 1))
])
# the index shifts of a cross product
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _third_partials(c):
    """The constant third partials f_abi of the cubics with coefficients c
    (..., 10), as (..., 9, 3) arrays: row 3a + b, column i."""
    return (np.asarray(c) @ _THIRD).reshape(np.shape(c)[:-1] + (9, 3))


def _cross(u, v):
    """Cross products along the last axis."""
    return u.take(_NEXT, -1) * v.take(_PREV, -1) - u.take(_PREV, -1) * v.take(_NEXT, -1)


# a @ _CROSS_UNIT[k] is the cross product of a with the unit vector e_k
_CROSS_UNIT = _cross(np.eye(3)[None], np.eye(3)[:, None])


def _at_points(t, pts):
    """(value, gradient, second partials) at each row of pts (..., n, 3) of
    the cubic with third partials t (..., 9, 3); the second partials are
    the symmetric matrix M, flattened to 9 entries.

    M = sum_i p_i t[:, i], and by Euler's relation for homogeneous forms
    the gradient is M p / 2 and the value p . gradient / 3.
    """
    m = pts @ t.swapaxes(-1, -2)
    g = (m.reshape(m.shape[:-1] + (3, 3)) @ pts[..., None])[..., 0] / 2
    return (g * pts).sum(axis=-1) / 3, g, m


def _hessian_det(t, m):
    """det M at each point and its gradient tr(adj M . M_i), for the
    flattened second partials m of _at_points and the third partials t,
    whose column i is the constant matrix M_i.

    This is the Hessian form at the point, without expanding the Hessian's
    coefficients, which lose digits to cancellation on an ill-conditioned
    form.
    """
    a, b, c, d = (m.take(i, -1) for i in _COFACTOR)
    adj = a * b - c * d  # M is symmetric, so its cofactor matrix is adj M
    return (m[..., :3] * adj[..., :3]).sum(axis=-1), adj @ t


def _polish_flexes(at, pts):
    """Newton iteration for flexes near the rows of pts, all at once: f = 0
    and h = 0, h the Hessian form of f scaled to unit largest coefficient,
    where at(p) gives f, grad f, h and grad h at the rows of p.

    Each point is scaled to largest coordinate 1, keeps that coordinate
    fixed and stops on its own: when its step is singular, after two steps
    that do not improve its best residual max(|f|, |h|), or once that is
    below 1e-14, and after 16 steps at most.  Returns each point's best
    coordinates and residual.
    """
    p = pts / np.abs(pts).max(axis=1, keepdims=True)
    turn = _CROSS_UNIT[np.abs(p).argmax(axis=1)]
    fv, gf, hv, gh = at(p)
    best, best_r = p, np.maximum(np.abs(fv), np.abs(hv))
    stall = np.zeros(len(p))
    live = np.ones(len(p), bool)
    for _ in range(16):
        # the step d with grad f . d = f, grad h . d = h and no move in the
        # fixed coordinate e, by Cramer's rule:
        # d = ((f grad h - h grad f) x e) / det(grad f, grad h, e)
        det = ((gh[:, None] @ turn)[:, 0] * gf).sum(axis=1)
        live &= np.abs(det) >= 1e-300
        if not live.any():
            break
        w = fv[:, None] * gh - hv[:, None] * gf
        step = (w[:, None] @ turn)[:, 0] / np.where(live, det, 1.0)[:, None]
        p = np.where(live[:, None], p - step, p)
        fv, gf, hv, gh = at(p)
        r = np.maximum(np.abs(fv), np.abs(hv))
        better = live & (r < best_r)
        best = np.where(better[:, None], p, best)
        best_r = np.where(better, r, best_r)
        stall = np.where(better, 0, stall + live)
        live &= (stall < 2) & (best_r >= 1e-14)
        if not live.any():
            break
    return best, best_r


@dataclass(frozen=True)
class FlexSet:
    """The nine flexes of a smooth cubic, with polish residuals.

    The points are in _point_sort_key order, each in the projective normal
    form of ProjPoint.normalized: the first coordinate within 1e-12 of the
    largest is exactly 1, and the coordinates are real floats when every
    imaginary part is exactly 0.  The residual of a flex
    is max(|f(p)|, |h(p)|) at the point p scaled to largest coordinate 1,
    where f is the form and h its Hessian form, both scaled to unit largest
    coefficient.  On floating input h(p) is evaluated as the determinant of
    the second partials of f at p (see _hessian_det), on exact input from
    h's exactly expanded coefficients.
    """

    points: tuple
    residuals: tuple

    def __post_init__(self):
        if len(self.points) != 9:
            raise ConvergenceFailure("a flex set holds exactly nine points")

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return 9

    def __getitem__(self, i):
        return self.points[i]


def _coords_key(coords):
    """Sort keys of rows of normalized complex coordinates (n, 3): real and
    imaginary parts rounded to 9 decimals, without signed zeros."""
    return list(map(tuple, (np.round(coords.view(float), 9) + 0.0).tolist()))


def _point_sort_key(p: ProjPoint):
    p = p.normalized()
    return _coords_key(np.array([unit_floats(p.coords) if p.is_exact else p.to_complex()], complex))[0]


# two points spanning a fixed general line.  It meets a triangle in three
# points, one on each side, where the gradient of the triangle is that side.
# The points are real, so the sides of a real triangle come out real.
_SPLIT_LINE = ((1.0, 0.3183, -0.5772), (-0.2718, 1.0, 0.4142))
# the restriction c0 + c1 s + c2 s^2 + c3 s^3 of a cubic to the line,
# s -> p + s q, is linear in the cubic's coefficients: row m is monomial m's
_SPLIT_RESTRICTION = np.array([
    restrict_to_line(CubicForm(tuple(e)), *(ProjPoint(*v) for v in _SPLIT_LINE)) for e in np.eye(10)
])


# 3^6 5^3 / |p|^6 for the ten points p, an integer: |f(p)|^2 times it
# orders the points as |f(p)| / |p|^3 does, exactly on exact input
_WEIGHTS = {q: 91125 // sum(v * v for v in q) ** 3 for q in MONOMIALS}


def _invariants_at_point(c, hc):
    """The invariants (sigma, tau), of degrees 4 and 6, of the cubic f with
    coefficients c and Hessian coefficients hc, read at one point; exact on
    exact input.  They are S and T up to constants, defined by the Hessian
    of the pencil <f, h> spanned by f and its Hessian h,

        Hess(f + t h) = (sigma t + tau t^2 + sigma^2 t^3 / 3) f
                        + (1 - sigma t^2 - tau t^3 / 3) h.

    The coefficients of t and t^2 give them at any point p with f(p) != 0,
    with M_f, M_h the matrices of second partials of f and h at p:
    sigma = tr(adj M_f M_h) / f(p), tau = (tr(M_f adj M_h) + sigma h(p)) / f(p).
    """
    f, h = CubicForm(c), CubicForm(hc)
    # the ten points (i, j, k), i + j + k = 3, have an evaluation matrix of
    # rank 10, so f vanishes at no more than nine of them; the largest
    # |f(p)| / |p|^3 is the best conditioned divisor
    p = max(MONOMIALS, key=lambda q: abs(f.evaluate(q)) ** 2 * _WEIGHTS[q])
    fp, hp = f.evaluate(p), h.evaluate(p)
    mf, mh = _second_partials_at(c, p), _second_partials_at(hc, p)
    s1 = _trace_product(_sym_adjugate(*mf), mh)
    s2 = _trace_product(mf, _sym_adjugate(*mh))
    if is_exact(s1):
        s1 = Fraction(s1)
    sigma = s1 / fp
    return sigma, (s2 + sigma * hp) / fp


# the nine cubics x_i f_j, which span the degree-3 part of the Jacobian
# ideal of f, are linear in its coefficients c: row 3j + i of
# c . _JACOBIAN holds the coefficients of x_i f_j
_JACOBIAN = np.array([
    [_times(q, w) for q in _first_partials(e) for w in np.eye(3, dtype=int)] for e in np.eye(10, dtype=int)
])


def _representative(form: CubicForm):
    """The form's coefficients as the verdict and the constructions use
    them: its integer representative on exact input, so that its Hessian
    expands exactly, and on floats scaled exactly, by a power of two, to
    largest magnitude in [1/2, 1), so that its Hessian and invariants
    neither overflow nor underflow.  Exact coefficients of a float form are
    scaled exactly and rounded once, so they may lie past the float range."""
    if form.is_exact:
        return _integral(form.coeffs)[0]
    top = max(map(abs, form.coeffs))
    if is_exact(top):
        e = top.numerator.bit_length() - top.denominator.bit_length()
        e = -(e + (top >= Fraction(2) ** e))
    else:
        e = -math.frexp(top)[1]

    def scaled(v):
        return float(v * Fraction(2) ** e) if is_exact(v) else math.ldexp(v, e)

    return [complex(scaled(v.real), scaled(v.imag)) if isinstance(v, complex) else scaled(v) for v in form.coeffs]


def _smooth_coefficients(form: CubicForm):
    """(c, hc, sigma, tau): the form's coefficients c (see _representative),
    those of its Hessian and its invariants (see _invariants_at_point), once
    the curve is judged smooth; SingularCurve when it is singular, as when
    hc vanishes identically (three concurrent lines, a repeated factor).

    Exact input is judged exactly: singular when 4 sigma^3 = 3 tau^2.
    Floating input stacks the 9 x 10 matrix M of the cubics x_i f_j (see
    _JACOBIAN) and hc as a tenth row, each scaled to unit norm.  Its
    determinant is an invariant of degree 12 that vanishes exactly on
    singular curves: for a smooth f, M has rank 9 and hc spans the one
    direction M misses (the socle of the Jacobian ring), while at a singular
    point p every x_i f_j and the Hessian vanish, so the monomials of p are
    a kernel vector.  The curve is singular when the smallest singular value
    is at most SINGULAR_RANK times the largest, which calls smooth curves
    smooth under maps of condition up to 1e3.
    """
    c = _representative(form)
    try:
        hc = CubicForm(c).hessian().coeffs
    except DegenerateForm:
        raise SingularCurve("the Hessian vanishes identically") from None
    sigma, tau = _invariants_at_point(c, hc)
    if form.is_exact:
        singular = 4 * sigma ** 3 == 3 * tau ** 2
    else:
        m, h = np.tensordot(np.array(c), _JACOBIAN, 1), np.array(hc)
        s = np.linalg.svd(np.vstack([m / np.linalg.norm(m), h / np.linalg.norm(h)]), compute_uv=False)
        singular = s[-1] <= SINGULAR_RANK * s[0]
    if singular:
        raise SingularCurve("curve is singular")
    return c, hc, sigma, tau


def _triangle_parameters(sigma, tau):
    """The four u for which u f + h is a triangle of the pencil <f, h> of a
    smooth cubic f with invariants sigma and tau (see _pencil_triangles):
    the roots of u^4 - 2 sigma u^2 - (4 tau / 3) u - sigma^2 / 3, each
    polished by one Newton step.  By Ferrari the quartic is (u^2 + m)^2 -
    2 half (u + tau / (3 half))^2, half = m + sigma, for any m with
    half - 2 sigma / 3 a cube root of (6 tau^2 - 8 sigma^3) / 27, which is
    nonzero on a smooth curve; the cube root farthest from making half
    vanish is taken."""
    quartic = (1, 0, -2 * sigma, -4 * tau / 3, -sigma ** 2 / 3)
    cube = complex((6 * tau ** 2 - 8 * sigma ** 3) / 27) ** (1 / 3)
    half = max((cube * w + 2 * sigma / 3 for w in _ROOTS), key=abs)
    m, s = half - sigma, cmath.sqrt(2 * half)
    e = 2 * tau / (3 * s)  # s tau / (3 half), as s^2 = 2 half
    roots = []
    for b, c in ((-s, m - e), (s, m + e)):
        # u^2 + b u + c without cancellation: the larger root, then c over it
        d = cmath.sqrt(b * b - 4 * c)
        w = -(b + d if (b.conjugate() * d).real >= 0 else b - d) / 2
        roots += [w, c / w if w else w]
    return [_newton_step(quartic, u) for u in roots]


def _pencil_triangles(c, hc, sigma, tau):
    """The triangles of the pencil <f, h> spanned by the smooth cubic f and
    its Hessian h, with coefficients c and hc and invariants sigma and tau
    (see _smooth_coefficients), each scaled to unit largest coefficient, and
    the nine flexes where their sides meet.

    For a smooth f that is not itself a triangle the pencil has exactly four
    singular members, each a triangle of inflection lines, and each flex
    lies on one side of each triangle (Artebani & Dolgachev, "The Hesse
    pencil of plane cubic curves", 2009, sections 1-2).  The Hessian maps
    the pencil to itself, Hess(f + t h) = a(t) f + b(t) h, and the triangles
    are its fixed points: by the closed form of a and b in the invariants
    (see _invariants_at_point), the roots of

        (sigma^2 / 3) t^4 + (4 tau / 3) t^3 + 2 sigma t^2 - 1.

    Each is written as the member u f + h, u = 1/t, for the four roots u of
    the reversed quartic, which _triangle_parameters takes in closed form;
    when sigma = 0, u = 0 is the member h itself.  hc is expanded
    once, exactly on the integer representative of exact input: in floats,
    cancellation can cost an ill-conditioned form most of its digits.

    The rest is array work over all members and points at once.  A member's
    restriction to _SPLIT_LINE is the same combination of f's and h's; the
    roots of the four come from one stacked eigenvalue call on companion
    matrices and one Newton step, and the members' gradients there are
    their sides.  Triangles go best conditioned first; two whose condition
    numbers agree to 1e-9, as the complex-conjugate pair of a real curve
    does, go in order of increasing imaginary part of their u.  The nine
    meets of the sides of two triangles, polished together by Newton on
    f = 0 and h = 0 (_polish_flexes), are the flexes, taken from the first
    pair whose meets polish to nine distinct points; each is normalized
    once, as ProjPoint.normalized does, and sorted by the rounding of
    _point_sort_key.  Every side is then refit through the three flexes
    nearest to it, as the largest cross product of two of them.  Returns
    (triangles, flexes), each triangle the three rows of its sides, best
    conditioned first.
    """
    exact = all_exact(c)
    top = max(abs(v) for v in c)
    h_top = max(abs(v) for v in hc)
    # f and h scaled to unit largest coefficient, with the invariants of
    # the pair f + t h in that scaling
    pair = np.array([unit_floats(c), unit_floats(hc)], complex)
    sigma, tau = complex(sigma * top ** 2 / h_top ** 2), complex(tau * top ** 3 / h_top ** 3)
    third = _third_partials(pair)
    if exact:
        # h's exact coefficients, rounded once, lose fewer digits than the
        # determinant of f's rounded second partials
        def at(p):
            (fv, hv), (gf, gh), _ = _at_points(third, p)
            return fv, gf, hv, gh
    else:
        h_scale = h_top / top ** 3  # the largest coefficient of the Hessian of f
        tf = third[0]

        def at(p):
            fv, gf, m = _at_points(tf, p)
            hv, gh = _hessian_det(tf, m)
            return fv, gf, hv / h_scale, gh / h_scale

    roots = _triangle_parameters(sigma, tau)
    members = np.array([(u, 1) for u in roots])
    # each member's restriction c0 + c1 s + c2 s^2 + c3 s^3 to the split
    # line, s -> p + s q, is the same combination of f's and h's; its roots
    # are the eigenvalues of its companion matrix, each polished by one
    # Newton step (c3 vanishes only on a member through q, and eigvals then
    # raises)
    r = members @ (pair @ _SPLIT_RESTRICTION)
    companion = np.zeros((len(r), 3, 3), complex)
    companion[:, 0] = -r[:, 2::-1] / r[:, 3:]
    companion[:, 1, 0] = companion[:, 2, 1] = 1
    s = np.linalg.eigvals(companion)
    c0, c1, c2, c3 = (r[:, i, None] for i in range(4))
    s = s - (((c3 * s + c2) * s + c1) * s + c0) / ((3 * c3 * s + 2 * c2) * s + c1)
    p, q = np.array(_SPLIT_LINE)
    sides = _at_points(_third_partials(members @ pair), p + s[..., None] * q)[1]
    sides /= np.linalg.norm(sides, axis=-1, keepdims=True)
    cond = np.abs(np.linalg.det(sides))
    # best conditioned first; conditions equal to 1e-9, as those of the
    # conjugate pair of a real curve are, go by increasing Im u
    tie = [u.imag for u in roots]
    split = sides[[i for i in np.lexsort((tie, -cond.round(9))) if cond[i] > 1e-9]]
    # a split point near a vertex spoils its sides, so take the first pair
    # of triangles whose nine meets polish to nine distinct flexes
    for i, j in itertools.combinations(range(len(split)), 2):
        meets = _cross(split[i][:, None], split[j][None]).reshape(9, 3)
        if not meets.any(axis=1).all():
            continue  # two sides coincide
        pts, res = _polish_flexes(at, meets)
        if not (res < 1e-8).all():
            continue
        sphere = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        cos = np.abs(sphere.conj() @ sphere.T) - 2 * np.eye(9)
        if np.sqrt(max(0.0, 1 - cos.max() ** 2)) > FLEX_SEPARATION:
            break
    else:
        raise ConvergenceFailure("no two triangles meet in nine distinct flexes")
    # each flex in the normal form of ProjPoint.normalized
    rows = np.arange(9)
    mags = np.abs(pts)
    pivot = (mags >= (1 - PIVOT_TIE) * mags.max(axis=1, keepdims=True)).argmax(axis=1)
    normal = pts / pts[rows, pivot][:, None]
    normal[rows, pivot] = 1
    real = (normal.imag == 0).all(axis=1)
    coords = [r if real[i] else c for i, (r, c) in enumerate(zip(normal.real.tolist(), normal.tolist()))]
    keys = _coords_key(normal)
    order = sorted(range(9), key=keys.__getitem__)
    flexes = FlexSet(tuple(ProjPoint(*coords[i]) for i in order), tuple(res[order].tolist()))
    # every side is refit through the three flexes nearest to it: each row
    # of the adjugate of their matrix, the cross product of two of them, is
    # a multiple of the side, and the largest is taken; a triangle whose
    # sides do not share out the nine flexes is dropped
    near = np.argsort(np.abs(split @ sphere.T), axis=-1)[..., :3]
    shares = (np.sort(near.reshape(-1, 9), axis=1) == rows).all(axis=1)
    three = sphere[near[shares]].reshape(-1, 3, 3)
    cof = _cross(three.take(_NEXT, 1), three.take(_PREV, 1))
    null = cof[np.arange(len(cof)), (np.abs(cof) ** 2).sum(axis=2).argmax(axis=1)]
    # each side scaled to largest entry 1, with real entries when it is real
    null /= null[np.arange(len(null)), np.abs(null).argmax(axis=1)][:, None]
    real = np.abs(null.imag).max(axis=1) <= FLEX_DERIVED
    sides = [tuple((g.real if r else g).tolist()) for g, r in zip(null, real)]
    triangles = [tuple(sides[i:i + 3]) for i in range(0, len(sides), 3)]
    return triangles, flexes


def _converging(build, *args):
    """build(*args), any failure of it on a curve judged smooth (see
    _smooth_coefficients) as ConvergenceFailure."""
    try:
        return build(*args)
    except ConvergenceFailure:
        raise
    except (CubicaError, ArithmeticError, np.linalg.LinAlgError) as exc:
        raise ConvergenceFailure(f"triangle construction failed: {exc!r}") from exc


def find_flexes(form: CubicForm) -> FlexSet:
    """All nine flexes of a smooth cubic, as floating projective points.

    The sides of two triangles of the pencil spanned by the curve and its
    Hessian are inflection lines; each side of one meets each side of the
    other in a flex, which Newton then polishes on the curve and on its
    Hessian (see _polish_flexes).
    """
    return form._pencil[1]


# ---------------------------------------------------------------------------
# Hesse and Weierstrass coefficient patterns
# ---------------------------------------------------------------------------


def _match_hesse_pattern(form: CubicForm) -> bool:
    """Whether the form is x^3 + y^3 + z^3 - 3k xyz up to scale, k finite,
    or xyz, the member at infinity."""
    c = form.coeffs
    top = max(abs(v) for v in c)
    if not all(negligible(c[i], top, LEADING_DROP) for i in (1, 2, 3, 5, 7, 8)):
        return False
    small = [negligible(v, top, LEADING_DROP) for v in (c[0], c[6], c[9])]
    if all(small):
        return not negligible(c[4], top, LEADING_DROP)
    return not any(small) and all(negligible(v - c[0], top, ROUNDING) for v in (c[6], c[9]))


def _match_standard_pattern(form: CubicForm) -> bool:
    """Whether the form is -y^2 z + x^3 + a x z^2 + b z^3 up to scale."""
    c, s = form.coeffs, form.coeffs[0]
    top = max(abs(v) for v in c)
    return (all(negligible(c[i], top, LEADING_DROP) for i in (1, 2, 3, 4, 6, 8))
            and not negligible(s, top, LEADING_DROP) and negligible(c[7] + s, top, ROUNDING))


# ---------------------------------------------------------------------------
# singular locus
# ---------------------------------------------------------------------------

# the entries x m, y m, z m of a cubic coefficient vector, m a quadratic
# monomial: row t, column m holds the index of x_t m
_SHIFTS = np.array([[_CUBIC.index(tuple(sorted(m + (t,)))) for m in _QUADRATIC] for t in range(3)])


def _exact_kernel(rows):
    """A basis of the kernel of an exact matrix, by Fraction row reduction."""
    rows = [[Fraction(v) for v in row] for row in rows]
    n = len(rows[0])
    pivots = []
    for col in range(n):
        i = len(pivots)
        j = next((j for j in range(i, len(rows)) if rows[j][col]), None)
        if j is None:
            continue
        pivot = [v / rows[j][col] for v in rows[j]]
        rows[j], rows[i] = rows[i], pivot
        for j, row in enumerate(rows):
            if j != i and row[col]:
                rows[j] = [a - row[col] * b for a, b in zip(row, pivot)]
        pivots.append(col)
    basis = []
    for free in (col for col in range(n) if col not in pivots):
        v = [Fraction(col == free) for col in range(n)]
        for row, col in zip(rows, pivots):
            v[col] = -row[free]
        basis.append(v)
    return basis


def _read_point(w):
    """The point p of a vector w proportional to the monomials of p: its
    entries x m, y m, z m, which are m(p) p, for the quadratic monomial m
    where they are largest.  Exact on exact input."""
    return [w[i] for i in max(_SHIFTS.T, key=lambda rows: max(abs(w[i]) for i in rows))]


def singular_points(form: CubicForm) -> list[ProjPoint]:
    """All singular points of the curve, in _point_sort_key order; empty
    when the curve is smooth (_smooth_coefficients).

    p is singular exactly when the nine cubics x_i f_j vanish there, so
    when the ten monomials of p are a kernel vector of their 9 x 10
    coefficient matrix (see _JACOBIAN; Stetter, "Numerical Polynomial
    Algebra", SIAM 2004, ch. 2).  The kernel comes from Fraction row
    reduction on exact input, from the SVD cut at SINGULAR_RANK on floats, and
    its dimension r tells the curve apart:

    - r = 1, a node: the kernel vector gives the point, exactly on exact
      input;
    - r = 2 or 3, a cusp, a conic and a secant, a tacnode or a triangle:
      the kernel's rows t m over the quadratic monomials m, for t = x, y,
      z, are shifts of one another by t(p) at each point p, so the
      eigenvectors of two fixed combinations of the shifts (the points of
      _SPLIT_LINE) give the points; the split points of a defective
      eigenvalue closer than FLEX_SEPARATION are one, their average;
    - r = 4, three concurrent lines: the point where all six second
      partials vanish, exact on exact input;
    - r > 4, a repeated factor, a whole line of singular points:
      DegenerateForm.
    """
    if is_smooth(form):
        return []
    c = _representative(form)
    m = np.tensordot(np.array(c, dtype=object if form.is_exact else complex), _JACOBIAN, 1)
    if form.is_exact:
        kernel = _exact_kernel(m)
    else:
        _, sv, vh = np.linalg.svd(m)
        kernel = vh[(sv > SINGULAR_RANK * sv[0]).sum():].conj()
    r = len(kernel)
    if r > 4:
        raise DegenerateForm("the form has a repeated factor: a line of singular points")
    if r == 4:
        partials = np.array(_second_partials(c), dtype=object)
        points = [max(_cross(partials[:, None], partials[None]).reshape(36, 3), key=lambda v: max(map(abs, v)))]
    elif r == 1:
        points = [_read_point(kernel[0])]
    else:
        k = np.array(kernel, complex).T
        a, b = (np.tensordot(v, k[_SHIFTS], 1) for v in _SPLIT_LINE)
        w = (k @ np.linalg.eig(np.linalg.lstsq(b, a, rcond=None)[0])[1]).T
        sphere = np.array([_read_point(v) for v in w])
        sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
        # each eigenvector joins the first whose point is that close to its own
        first = (1 - np.abs(sphere.conj() @ sphere.T) ** 2 < FLEX_SEPARATION ** 2).argmax(axis=0)
        points = []
        for i in np.unique(first):
            # the members scaled by the same entry, so that the first-order
            # terms of a split eigenvalue cancel in their average
            members = w[first == i]
            points.append(_read_point((members / members[:, [np.abs(w[i]).argmax()]]).mean(axis=0)))
    return sorted((ProjPoint(*p).normalized() for p in points), key=_point_sort_key)


def is_smooth(form: CubicForm) -> bool:
    """Whether the curve has no singular point: the verdict of
    _smooth_coefficients, exact on exact input and on floats a rank test,
    certified for smooth curves under maps of condition up to 1e3."""
    try:
        return bool(form._verdict)
    except SingularCurve:
        return False
