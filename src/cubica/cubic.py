"""Homogeneous cubic forms in three variables and their geometry.

A form is stored as ten coefficients in the fixed monomial order

    x^3, x^2 y, x^2 z, x y^2, x y z, x z^2, y^3, y^2 z, y z^2, z^3.

Everything here works over both coefficient regimes: exact (int/Fraction)
and floating (float/complex).  Exact input gives exact output wherever the
operation itself is algebraic (evaluate, hessian, transform); root finding
is always floating.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConvergenceFailure,
    CubicaError,
    DegenerateForm,
    InvalidInput,
    SingularCurve,
)
from .projective import (
    _PIVOT_TIE, ProjLine, ProjMap, ProjPoint, _flat_proportional, _integer_adjugate, _normalize, proj_distance,
)
from .scalars import _integral, all_exact, collapse, is_exact, poly_roots, scalar_from_json, scalar_to_json

MONOMIALS = (
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
)
_MONO_INDEX = {m: i for i, m in enumerate(MONOMIALS)}

# ---------------------------------------------------------------------------
# dense polynomial kernel: a linear form is its 3 coefficients of x, y, z and
# a cubic its 10 coefficients in MONOMIALS order; plain lists (index =
# degree) serve univariate elimination work
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


def _ladd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] = out[i] + v
    return out


def _lmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y == 0:
                continue
            out[i + j] = out[i + j] + x * y
    return out


# ---------------------------------------------------------------------------
# the form itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CubicForm:
    """A ternary cubic, identified projectively (up to a global factor)."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(self.coeffs)
        if len(cs) != 10:
            raise InvalidInput("a cubic form needs exactly 10 coefficients")
        if all(c == 0 for c in cs):
            raise InvalidInput("the zero polynomial is not a cubic form")
        object.__setattr__(self, "coeffs", cs)

    @property
    def is_exact(self) -> bool:
        return all_exact(self.coeffs)

    def as_dict(self):
        return {m: c for m, c in zip(MONOMIALS, self.coeffs) if c != 0}

    def coeff(self, i: int, j: int, k: int):
        return self.coeffs[_MONO_INDEX[(i, j, k)]]

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
    """Gradient line at a point; None when the gradient vanishes there."""
    pn = p.normalized()
    g = form.gradient(pn)
    if all_exact(g) and pn.is_exact:
        if all(v == 0 for v in g):
            return None
        return ProjLine(*g)
    scale = max(abs(complex(c)) for c in form.coeffs)
    if max(abs(complex(v)) for v in g) <= 1e-12 * scale:
        return None
    return ProjLine(*g)


def _line_second_point(line: ProjLine, p: ProjPoint) -> ProjPoint:
    """A deterministic point on the line distinct from p."""
    u, v, w = line.coeffs
    candidates = []
    for c in ((v, -u, 0), (w, 0, -u), (0, w, -v)):
        if any(x != 0 for x in c):
            candidates.append(ProjPoint(*c))
    best = None
    best_d = -1.0
    for cand in candidates:
        d = proj_distance(cand, p)
        if d > 0.1:
            return cand
        if d > best_d:
            best, best_d = cand, d
    if best is None or best_d <= 1e-12:
        raise InvalidInput("line has no second point distinct from p")
    return best


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
    q = _line_second_point(line.normalized(), pn)
    if not q.is_exact:
        q = q.normalized()
    c = restrict_to_line(fn, pn, q)
    if all_exact(c):
        # c_i as if p and q had largest coordinate 1, as the floating
        # points do, kept exact whatever the height of p and q
        sp, sq = (max(abs(v) for v in r.coords) for r in (pn, q))
        mags = [Fraction(abs(v), sp ** (3 - i) * sq ** i) for i, v in enumerate(c)]
    else:
        mags = [abs(complex(v)) for v in c]
    top = max(mags)
    if top == 0:
        return math.inf
    return float(max(mags[0], mags[1], mags[2]) / top)


def is_flex(form: CubicForm, p: ProjPoint, tol: float = 1e-6) -> bool:
    return flex_defect(form, p) <= tol


# ---------------------------------------------------------------------------
# resultant elimination: _resultant2 and _ratio_candidates serve
# singular_points only
# ---------------------------------------------------------------------------


def _resultant2(f, g):
    """Resultant in z of f[2] z^2 + f[1] z + f[0] and g[2] z^2 + g[1] z +
    g[0], whose coefficients are list-polys in x: (f2 g0 - f0 g2)^2 -
    (f2 g1 - f1 g2)(f1 g0 - f0 g1)."""

    def cross(i, j):
        return _ladd(_lmul(f[i], g[j]), [-v for v in _lmul(f[j], g[i])])

    a = cross(2, 0)
    return _ladd(_lmul(a, a), [-v for v in _lmul(cross(2, 1), cross(1, 0))])


def _complex_form(form: CubicForm) -> CubicForm:
    cs = [complex(c) for c in form.coeffs]
    top = max(abs(c) for c in cs)
    return CubicForm(tuple(c / top for c in cs))


def _cluster_values(values, tol):
    """Greedy clustering of complex numbers; returns representatives."""
    reps = []
    for v in sorted(values, key=lambda c: (c.real, c.imag)):
        for i, r in enumerate(reps):
            if abs(v - r[0] / r[1]) <= tol * max(1.0, abs(v)):
                reps[i] = (r[0] + v, r[1] + 1)
                break
        else:
            reps.append((v, 1))
    return [s / n for s, n in reps]


def _ratio_candidates(res_poly, total_degree):
    """Projective (x:y) roots of a homogeneous polynomial given by its
    y=1 coefficient list."""
    mags = [abs(c) for c in res_poly]
    top = max(mags)
    if top == 0.0:
        return None
    deg = 0
    for i, m in enumerate(mags):
        if m > 1e-10 * top:
            deg = i
    if all(m <= 1e-10 * top for m in mags):
        return None
    coeffs_desc = list(reversed(res_poly[: deg + 1]))
    ratios = []
    if deg > 0:
        for t in _cluster_values(poly_roots(coeffs_desc), 1e-7):
            if abs(t) <= 1.0:
                ratios.append((t, 1.0 + 0j))
            else:
                ratios.append((1.0 + 0j, 1.0 / t))
    if deg < total_degree:
        ratios.append((1.0 + 0j, 0.0 + 0j))
    return ratios


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
    return _coords_key(np.array([p.normalized().to_complex()]))[0]


# two points spanning a fixed general line.  It meets a triangle in three
# points, one on each side, where the gradient of the triangle is that side.
# The points are real, so the sides of a real triangle come out real.
_SPLIT_LINE = ((1.0, 0.3183, -0.5772), (-0.2718, 1.0, 0.4142))
# the restriction c0 + c1 s + c2 s^2 + c3 s^3 of a cubic to the line,
# s -> p + s q, is linear in the cubic's coefficients: row m is monomial m's
_SPLIT_RESTRICTION = np.array([
    restrict_to_line(CubicForm(tuple(e)), *(ProjPoint(*v) for v in _SPLIT_LINE)) for e in np.eye(10)
])

# Sides real to this tolerance (after scaling their largest entry to 1) are
# made real, so that a real triangle gives a real map.
_REAL_SIDE_TOL = 1e-6

# Nine polished points closer than this are not nine flexes.  Measured
# nearest-pair distances: at least 8.3e-3 on 1800 curves of the bench's
# exact workload (condition numbers up to 100), 2.0e-2 on 2400 of its reduce
# curves and 0.29 on 300 random complex cubics.  On nodal and cuspidal forms
# under 100 integer maps with entries in -3..3, the meets that polish
# cluster at the singular point within 4.7e-4 of each other when rounded to
# floats, within 6.7e-6 when exact.
_FLEX_SEPARATION = 1e-3


# 3^6 5^3 / |p|^6 for the ten points p, an integer: |f(p)|^2 times it
# orders the points as |f(p)| / |p|^3 does, exactly on exact input
_WEIGHTS = {q: 91125 // sum(v * v for v in q) ** 3 for q in MONOMIALS}


def _invariants_at_point(c, hc):
    """(sigma, tau) of the cubic with coefficients c and Hessian coefficients
    hc, read at one point (see _invariants); exact on exact input."""
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


def _invariants(form: CubicForm):
    """The invariants (sigma, tau) of the form, of degrees 4 and 6: S and T
    up to constants, defined by the Hessian of the pencil <f, h> spanned by
    the form f and its Hessian h,

        Hess(f + t h) = (sigma t + tau t^2 + sigma^2 t^3 / 3) f
                        + (1 - sigma t^2 - tau t^3 / 3) h.

    The coefficients of t and t^2 give them at any point p with f(p) != 0,
    with M_f, M_h the matrices of second partials of f and h at p:
    sigma = tr(adj M_f M_h) / f(p), tau = (tr(M_f adj M_h) + sigma h(p)) / f(p).
    The curve is singular exactly when 4 sigma^3 = 3 tau^2, and
    J = 4 sigma^3 / (4 sigma^3 - 3 tau^2).  Exact input expands h once on its
    integer representative ints / den and divides by den^4 and den^6.
    DegenerateForm when h vanishes identically.
    """
    if form.is_exact:
        ints, den = _integral(form.coeffs)
        sigma, tau = _invariants_at_point(ints, CubicForm(ints).hessian().coeffs)
        return sigma / den ** 4, tau / den ** 6
    return _invariants_at_point(form.coeffs, form.hessian().coeffs)


def _pencil_triangles(form: CubicForm):
    """The triangles of the pencil <f, h> spanned by the form f and its
    Hessian h, each scaled to unit largest coefficient, and the nine
    flexes where their sides meet.

    For a smooth f that is not itself a triangle the pencil has exactly four
    singular members, each a triangle of inflection lines, and each flex
    lies on one side of each triangle (Artebani & Dolgachev, "The Hesse
    pencil of plane cubic curves", 2009, sections 1-2).  The Hessian maps
    the pencil to itself, Hess(f + t h) = a(t) f + b(t) h, and the triangles
    are its fixed points: by the closed form of a and b in the invariants
    (see _invariants), the roots of

        (sigma^2 / 3) t^4 + (4 tau / 3) t^3 + 2 sigma t^2 - 1.

    A root lost to a degree drop is the member h itself.  h is expanded
    once, exactly on the integer representative of exact input: in floats,
    cancellation can cost an ill-conditioned form most of its digits.

    The rest is array work over all members and points at once.  A member's
    restriction to _SPLIT_LINE is the same combination of f's and h's; the
    roots of the four come from one stacked eigenvalue call on companion
    matrices and one Newton step, and the members' gradients there are
    their sides.  Triangles go best conditioned first; two whose condition
    numbers agree to 1e-9, as the complex-conjugate pair of a real curve
    does, go in order of decreasing imaginary part of their t.  The nine
    meets of the sides of two triangles, polished together by Newton on
    f = 0 and h = 0 (_polish_flexes), are the flexes, taken from the first
    pair whose meets polish to nine distinct points; each is normalized
    once, as ProjPoint.normalized does, and sorted by the rounding of
    _point_sort_key.  Every side is then refit through the three flexes
    nearest to it, as the largest cross product of two of them.  Returns
    (triangles, flexes), each triangle the three rows of its sides, best
    conditioned first.
    """
    if form.is_exact:
        c = _integral(form.coeffs)[0]
    else:
        scale = max(abs(v) for v in form.coeffs)
        c = [v / scale for v in form.coeffs]
    top = max(abs(v) for v in c)
    hc = CubicForm(c).hessian().coeffs
    sigma, tau = _invariants_at_point(c, hc)
    h_top = max(abs(v) for v in hc)
    # f and h scaled to unit largest coefficient, with the invariants of
    # the pair f + t h in that scaling
    pair = np.array([[complex(v / top) for v in c], [complex(v / h_top) for v in hc]])
    sigma, tau = complex(sigma * top ** 2 / h_top ** 2), complex(tau * top ** 3 / h_top ** 3)
    third = _third_partials(pair)
    if form.is_exact:
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

    sv = np.linalg.svd(pair, compute_uv=False)
    if sv[1] <= 1e-9 * sv[0]:
        raise ConvergenceFailure("the Hessian is proportional to the form")
    roots = poly_roots((sigma ** 2 / 3, 4 * tau / 3, 2 * sigma, 0, -1))
    members = np.array([(1, t) if abs(t) <= 1 else (1 / t, 1) for t in roots] + [(0, 1)] * (4 - len(roots)))
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
    # conjugate pair of a real curve are, go by decreasing Im t
    tie = [-t.imag for t in roots] + [0.0] * (4 - len(roots))
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
        unit = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        cos = np.abs(unit.conj() @ unit.T) - 2 * np.eye(9)
        if np.sqrt(max(0.0, 1 - cos.max() ** 2)) > _FLEX_SEPARATION:
            break
    else:
        raise ConvergenceFailure("no two triangles meet in nine distinct flexes")
    # each flex in the normal form of ProjPoint.normalized
    rows = np.arange(9)
    mags = np.abs(pts)
    pivot = (mags >= (1 - _PIVOT_TIE) * mags.max(axis=1, keepdims=True)).argmax(axis=1)
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
    near = np.argsort(np.abs(split @ unit.T), axis=-1)[..., :3]
    shares = (np.sort(near.reshape(-1, 9), axis=1) == rows).all(axis=1)
    three = unit[near[shares]].reshape(-1, 3, 3)
    cof = _cross(three.take(_NEXT, 1), three.take(_PREV, 1))
    null = cof[np.arange(len(cof)), (np.abs(cof) ** 2).sum(axis=2).argmax(axis=1)]
    # each side scaled to largest entry 1, with real entries when it is real
    null /= null[np.arange(len(null)), np.abs(null).argmax(axis=1)][:, None]
    real = np.abs(null.imag).max(axis=1) <= _REAL_SIDE_TOL
    sides = [tuple((g.real if r else g).tolist()) for g, r in zip(null, real)]
    triangles = [tuple(sides[i:i + 3]) for i in range(0, len(sides), 3)]
    return triangles, flexes


def _from_pencil_triangles(form: CubicForm, build):
    """build(triangles, flexes) from _pencil_triangles on the form.

    Every failure of the construction ends in one verdict: SingularCurve
    when the curve is singular, ConvergenceFailure otherwise.  Exact input
    is judged by the exact is_smooth, and singular_points only names the
    point; floating input is judged by singular_points.
    """
    try:
        return build(*_pencil_triangles(form))
    except (CubicaError, ArithmeticError, np.linalg.LinAlgError) as exc:
        error = exc
    smooth = is_smooth(form) if form.is_exact else None
    if not smooth:
        try:
            sing = singular_points(form)
        except DegenerateForm:
            raise SingularCurve("form has a repeated factor") from None
        if sing:
            raise SingularCurve(f"curve is singular at {sing[0]!r}")
        if smooth is False:
            raise SingularCurve("curve is singular: 4 sigma^3 = 3 tau^2")
    if isinstance(error, ConvergenceFailure):
        raise error
    raise ConvergenceFailure(f"triangle construction failed: {error!r}") from error


def find_flexes(form: CubicForm) -> FlexSet:
    """All nine flexes of a smooth cubic, as floating projective points.

    The sides of two triangles of the pencil spanned by the curve and its
    Hessian are inflection lines; each side of one meets each side of the
    other in a flex, which Newton then polishes on the curve and on its
    Hessian (see _polish_flex).
    """
    return _from_pencil_triangles(form, lambda triangles, flexes: flexes)


# ---------------------------------------------------------------------------
# singular locus
# ---------------------------------------------------------------------------

_SHEAR_MAPS = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 1, 0), (0, 1, 1), (1, 0, 1)),
    ((2, 1, -1), (1, -2, 1), (0, 1, 3)),
    ((1, -1, 2), (3, 1, 0), (-1, 2, 1)),
)


def _match_hesse_pattern(form: CubicForm):
    """(kind, value) for recognizably Hesse-shaped coefficient tuples."""
    c = form.coeffs
    top = max(abs(complex(v)) for v in c)
    zero = (
        (lambda v: v == 0)
        if form.is_exact
        else (lambda v: abs(complex(v)) <= 1e-14 * top)
    )
    others = [c[i] for i in (1, 2, 3, 5, 7, 8)]
    if not all(zero(v) for v in others):
        return None
    cubes = (c[0], c[6], c[9])
    if all(zero(v) for v in cubes):
        if zero(c[4]):
            return None
        return ("infinity", None)
    if form.is_exact:
        if not (c[0] == c[6] == c[9] != 0):
            return None
        k = -Fraction(c[4]) / (3 * Fraction(c[0]))
        return ("finite", collapse(k))
    if any(zero(v) for v in cubes):
        return None
    if not all(abs(complex(v) - complex(c[0])) <= 1e-12 * top for v in cubes):
        return None
    k = -complex(c[4]) / (3 * complex(c[0]))
    if abs(k.imag) == 0.0:
        k = k.real
    return ("finite", k)


def _match_standard_pattern(form: CubicForm):
    """(a, b) when the form is -y^2 z + x^3 + a x z^2 + b z^3 up to scale."""
    c = form.coeffs
    top = max(abs(complex(v)) for v in c)
    zero = (
        (lambda v: v == 0)
        if form.is_exact
        else (lambda v: abs(complex(v)) <= 1e-14 * top)
    )
    if not all(zero(c[i]) for i in (1, 2, 3, 4, 6, 8)):
        return None
    s = c[0]
    if zero(s):
        return None
    if form.is_exact:
        if c[7] != -s:
            return None
        a = Fraction(c[5]) / Fraction(s)
        b = Fraction(c[9]) / Fraction(s)
        return collapse(a), collapse(b)
    if abs(complex(c[7]) + complex(s)) > 1e-12 * top:
        return None
    a = complex(c[5]) / complex(s)
    b = complex(c[9]) / complex(s)
    if a.imag == 0.0:
        a = a.real
    if b.imag == 0.0:
        b = b.real
    return (a, b)


def _k_is_singular(k) -> bool:
    if is_exact(k):
        return k ** 3 == 1
    if isinstance(k, complex):
        return abs(k ** 3 - 1) <= 1e-9
    if math.isinf(k):
        return True
    return abs(k ** 3 - 1) <= 1e-9


def _hesse_singular_points(k):
    """Singular points of a Hesse member with k^3 = 1: the vertices of the
    triangle of lines alpha*x + beta*y + z with alpha^3 = beta^3 = 1 and
    alpha*beta = k."""
    from .projective import meet

    g = complex(-0.5, math.sqrt(3) / 2)
    kk = complex(k)
    lines = []
    for a_exp in range(3):
        alpha = g ** a_exp
        beta = kk / alpha
        lines.append(ProjLine(alpha, beta, 1.0))
    pts = []
    for i in range(3):
        p = meet(lines[i], lines[(i + 1) % 3]).normalized()
        if all(proj_distance(p, q) > 1e-9 for q in pts):
            pts.append(p)
    pts.sort(key=_point_sort_key)
    return pts


def _solve2(a11, a12, a21, a22, b1, b2):
    det = a11 * a22 - a12 * a21
    if abs(det) < 1e-300:
        return None
    return ((b1 * a22 - b2 * a12) / det, (a11 * b2 - a21 * b1) / det)


def _gn_polish(form: CubicForm, coords, iters=14):
    """Gauss-Newton for the overdetermined gradient system (3 eqs, chart);
    its Jacobian is the matrix of second partials."""
    p = [complex(c) for c in coords]
    top = max(abs(c) for c in p)
    p = [c / top for c in p]
    pivot = max(range(3), key=lambda i: abs(p[i]))
    free = [i for i in range(3) if i != pivot]

    def residual(q):
        return max(abs(v) for v in form.gradient(q))

    best, best_r = list(p), residual(p)
    for _ in range(iters):
        vals = form.gradient(p)
        xx, xy, xz, yy, yz, zz = _second_partials_at(form.coeffs, p)
        grads = ((xx, xy, xz), (xy, yy, yz), (xz, yz, zz))
        # normal equations for the 3x2 complex Jacobian
        a11 = sum(g[free[0]].conjugate() * g[free[0]] for g in grads)
        a12 = sum(g[free[0]].conjugate() * g[free[1]] for g in grads)
        a21 = sum(g[free[1]].conjugate() * g[free[0]] for g in grads)
        a22 = sum(g[free[1]].conjugate() * g[free[1]] for g in grads)
        b1 = sum(g[free[0]].conjugate() * v for g, v in zip(grads, vals))
        b2 = sum(g[free[1]].conjugate() * v for g, v in zip(grads, vals))
        step = _solve2(a11, a12, a21, a22, b1, b2)
        if step is None:
            break
        p[free[0]] -= step[0]
        p[free[1]] -= step[1]
        r = residual(p)
        if r < best_r:
            best, best_r = list(p), r
        if best_r < 1e-14:
            break
    return tuple(best), best_r


def _sheared_singular_candidates(form: CubicForm):
    """Common zeros of the gradient in (assumed generic) coordinates.

    Returns None when the elimination degenerates, meaning the gradient
    polynomials share a component in every tested pairing.
    """
    c = form.coeffs
    # f_x, f_y, f_z by powers of z: splits[a][k] is the coefficient of z^k,
    # a list-poly in x (index = degree, y to the complementary degree)
    splits = [
        [[c[3], 2 * c[1], 3 * c[0]], [c[4], 2 * c[2]], [c[5]]],
        [[3 * c[6], 2 * c[3], c[1]], [2 * c[7], c[4]], [c[8]]],
        [[c[7], c[4], c[2]], [2 * c[8], 2 * c[5]], [3 * c[9]]],
    ]
    leads = [abs(complex(s[2][0])) for s in splits]
    order = sorted(range(3), key=lambda i: -leads[i])
    if leads[order[1]] < 1e-10:
        return None
    ia, ib = order[0], order[1]
    res = _resultant2(splits[ia], splits[ib])
    # partials sharing a component give an identically-zero resultant;
    # under floating arithmetic that shows up as coefficients far below
    # the product of the input scales
    scales = []
    for idx in (ia, ib):
        scales.append(max(
            (abs(complex(v)) for row in splits[idx] for v in row), default=0.0
        ))
    res_top = max((abs(complex(v)) for v in res), default=0.0)
    if res_top <= 1e-10 * (scales[0] * scales[1]) ** 2:
        return None
    ratios = _ratio_candidates(res, 4)
    if ratios is None:
        return None
    cands = []
    for (x0, y0) in ratios:
        desc = []
        for k in (2, 1, 0):
            row = splits[ia][k]
            d = len(row) - 1
            desc.append(
                sum(complex(v) * x0 ** i * y0 ** (d - i) for i, v in enumerate(row))
            )
        if abs(desc[0]) < 1e-12:
            # leading z^2 coefficient vanished at this ratio: fall back to
            # the linear part
            if abs(desc[1]) < 1e-12:
                continue
            zs = [-desc[2] / desc[1]]
        else:
            zs = poly_roots(desc)
        for z in zs:
            coords = (x0, y0, z)
            t = max(abs(v) for v in coords)
            coords = tuple(v / t for v in coords)
            if max(abs(v) for v in form.gradient(coords)) > 1e-4:
                continue
            cands.append(coords)
    return cands


def singular_points(form: CubicForm) -> list[ProjPoint]:
    """All singular points of the curve; empty for a smooth curve.

    Forms with a repeated linear factor have a whole curve of singular
    points and raise DegenerateForm instead of returning a list.
    """
    pat = _match_hesse_pattern(form)
    if pat is not None:
        kind, k = pat
        if kind == "infinity":
            pts = [ProjPoint(0, 0, 1), ProjPoint(0, 1, 0), ProjPoint(1, 0, 0)]
            pts.sort(key=_point_sort_key)
            return pts
        if not _k_is_singular(k):
            return []
        return _hesse_singular_points(k)
    std = _match_standard_pattern(form)
    if std is not None:
        a, b = std
        disc = -(4 * a ** 3 + 27 * b ** 2)
        if all_exact((a, b)):
            if disc != 0:
                return []
            r = -3 * Fraction(b) / (2 * Fraction(a)) if a != 0 else Fraction(0)
            return [ProjPoint(r, 0, 1).normalized()]
        scale = max(1.0, abs(complex(a)) ** 1.5, abs(complex(b)))
        if abs(complex(disc)) > 1e-9 * scale ** 2:
            return []
        r = complex(-3 * b) / complex(2 * a) if abs(complex(a)) > 1e-12 else 0.0
        return [ProjPoint(r, 0, 1).normalized()]

    f0 = _complex_form(form)
    degenerate_everywhere = True
    accepted: list[tuple[ProjPoint, float]] = []
    for shear in _SHEAR_MAPS:
        amap = ProjMap(shear)
        sheared = transform(f0, amap)
        sheared = _complex_form(sheared)
        cands = _sheared_singular_candidates(sheared)
        if cands is None:
            continue
        degenerate_everywhere = False
        for coords in cands:
            # map back: singular(form) = A^{-1} singular(sheared)
            back = amap.inverse().apply(ProjPoint(*coords))
            polished, r = _gn_polish(f0, back.to_complex())
            if r < 1e-8:
                p = ProjPoint(*polished).normalized()
                if all(proj_distance(p, q) > 1e-6 for q, _ in accepted):
                    accepted.append((p, r))
        break
    if degenerate_everywhere:
        raise DegenerateForm(
            "gradient polynomials share a component: singular locus is a curve"
        )
    accepted.sort(key=lambda t: _point_sort_key(t[0]))
    return [p for p, _ in accepted]


def is_smooth(form: CubicForm) -> bool:
    """Whether the curve has no singular point.

    Exact input is decided exactly: the curve is singular when
    4 sigma^3 = 3 tau^2 (see _invariants) or when its Hessian vanishes
    identically, which makes it a union of concurrent lines.  Floating
    input is decided by singular_points.
    """
    try:
        if form.is_exact:
            sigma, tau = _invariants(form)
            return 4 * sigma ** 3 != 3 * tau ** 2
        return not singular_points(form)
    except DegenerateForm:
        return False
