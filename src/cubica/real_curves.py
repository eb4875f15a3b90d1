"""Real cubic curves: real flexes, components, the complete invariant,
real symmetries, and the canonical affine picture.

Every smooth real cubic is real-projectively equivalent to exactly one real
member x^3 + y^3 + z^3 = 3k xyz with k != 1.  Of the four triangles of the
pencil spanned by the curve and its Hessian, one has three real sides, and
the map sending them to the coordinate lines carries the curve onto that
member (see hesse._closest_member).  classify_real reads k off that map,
the real flexes off the same pass, and J, the signs of a and b in
y^2 = x^3 + ax + b and the number of components off the invariants
(sigma, tau), which are -576a and 41472b on the Weierstrass model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .cubic import (
    CubicForm,
    _from_pencil_triangles,
    _invariants,
    _match_hesse_pattern,
    _point_sort_key,
    evaluate_grid,
    find_flexes,
    transform,
)
from .errors import (
    ComplexCoefficients,
    ConvergenceFailure,
    InvalidInput,
    OneComponent,
    SingularCurve,
)
from .hesse import _into_pencil, hesse_form
from .march import implicit_curve, is_closed
from .projective import (
    ProjLine,
    ProjMap,
    ProjPoint,
    _flat_proportional,
)
from .scalars import collapse, is_exact, roots_cubic
from .standard import StandardCurve

_SQRT3 = math.sqrt(3.0)


def _realify_form(form: CubicForm) -> CubicForm:
    """The same form with real coefficients, or ComplexCoefficients."""
    top = max(abs(complex(c)) for c in form.coeffs)
    out = []
    for c in form.coeffs:
        if isinstance(c, complex):
            if abs(c.imag) > 1e-9 * top:
                raise ComplexCoefficients(
                    f"coefficient {c!r} has a non-real part"
                )
            out.append(c.real)
        else:
            out.append(c)
    return CubicForm(tuple(out))


def count_components(c: StandardCurve) -> int:
    """2 when x^3 + ax + b has three real roots, else 1."""
    for v in (c.a, c.b):
        if isinstance(v, complex) and v.imag != 0:
            raise ComplexCoefficients("curve coefficients must be real")
    expr = 4 * c.a ** 3 + 27 * c.b ** 2
    if c.is_exact:
        if expr == 0:
            raise SingularCurve("4a^3 + 27b^2 = 0")
        return 2 if expr < 0 else 1
    scale = max(abs(complex(4 * c.a ** 3)), abs(complex(27 * c.b ** 2)), 1e-300)
    val = complex(expr).real
    if abs(val) <= 1e-12 * scale:
        raise SingularCurve("4a^3 + 27b^2 vanishes within tolerance")
    return 2 if val < 0 else 1


_HESSE_REAL_FLEXES = (
    ProjPoint(0, 1, -1),
    ProjPoint(1, -1, 0),
    ProjPoint(1, 0, -1),
)


def _real_points(flexes):
    """The three real points among nine flexes, with real coordinates."""
    reals = []
    for p in flexes:
        if p.is_real(1e-6):
            n = p.normalized()
            coords = tuple(
                c.real if isinstance(c, complex) else c for c in n.coords
            )
            reals.append(ProjPoint(*coords).normalized())
    if len(reals) != 3:
        raise ConvergenceFailure(
            f"found {len(reals)} real flexes, expected exactly 3"
        )
    reals.sort(key=_point_sort_key)
    return tuple(reals)


def real_flexes(form: CubicForm):
    """The three conjugation-fixed flexes of a smooth real cubic: exact for
    a member of the pencil, whose real flexes are three base points."""
    form = _realify_form(form)
    flexes = find_flexes(form)
    return _HESSE_REAL_FLEXES if _match_hesse_pattern(form) else _real_points(flexes)


@dataclass(frozen=True)
class RealClassification:
    """The complete invariant of a smooth real cubic.

    k is the curve's own real pencil parameter (never 1), read off the map
    of the one real triangle of its pencil, as to_hesse reads it.  J is
    4 sigma^3 / (4 sigma^3 - 3 tau^2) in the invariants (see
    cubic._invariants), exact on exact input.  On y^2 = x^3 + ax + b,
    sigma = -576a and tau = 41472b, so sign_a is the sign of -sigma, sign_b
    that of tau, and the curve has two components exactly when
    4 sigma^3 - 3 tau^2 > 0.  real_flexes are the three real flexes.
    """

    k: object
    J: object
    sign_b: int
    sign_a: int
    components: int
    real_flexes: tuple


def _sign_of(v, other, weight) -> int:
    """Sign with a scale-aware zero: v is compared against |other|^weight."""
    if is_exact(v):
        return 0 if v == 0 else (1 if v > 0 else -1)
    vv = complex(v).real
    scale = max(abs(complex(other)) ** weight, abs(vv), 1e-300)
    if abs(vv) <= 1e-10 * scale:
        return 0
    return 1 if vv > 0 else -1


def classify_real(form: CubicForm) -> RealClassification:
    """The complete invariant of a smooth real cubic (see RealClassification)
    from one pass into the triangles of its pencil and from its invariants.
    ComplexCoefficients when a coefficient is not real, SingularCurve when
    the curve is singular (the verdict of cubic._smooth_coefficients)."""
    form = _realify_form(form)
    k, flexes = _from_pencil_triangles(
        form, lambda triangles, flexes: (_into_pencil(form, triangles)[0], flexes)
    )
    sigma, tau = _invariants(form)
    disc = 4 * sigma ** 3 - 3 * tau ** 2
    return RealClassification(
        k=k,
        J=collapse(4 * sigma ** 3 / disc),
        sign_b=_sign_of(tau, sigma, 1.5),
        sign_a=-_sign_of(sigma, tau, 2.0 / 3.0),
        components=2 if disc > 0 else 1,
        real_flexes=_HESSE_REAL_FLEXES if _match_hesse_pattern(form) else _real_points(flexes),
    )


# ---------------------------------------------------------------------------
# the six real symmetries
# ---------------------------------------------------------------------------

_PERM_MAPS = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
)


def real_automorphisms(form: CubicForm):
    """The six real projective maps preserving the curve: the permutation
    group of the three real flexes.

    The one triangle of the pencil of the curve and its Hessian with three
    real sides gives a real map A onto a real member of the Hesse pencil;
    the maps are A^-1 P A for the six coordinate permutations P.
    """
    form = _realify_form(form)
    hit = _match_hesse_pattern(form)
    if hit is not None and hit[0] == "finite":
        return tuple(ProjMap(rows) for rows in _PERM_MAPS)

    def conjugate(triangles, flexes):
        a = _into_pencil(form, triangles)[1]
        inv = a.inverse()
        maps = tuple(inv.compose(ProjMap(p)).compose(a) for p in _PERM_MAPS)
        for m in maps:
            if not _flat_proportional(transform(form, m).coeffs, form.coeffs, 1e-6):
                raise ConvergenceFailure("candidate map does not preserve the curve")
        return maps

    return _from_pencil_triangles(form, conjugate)


# ---------------------------------------------------------------------------
# canonical affine picture
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalPicture:
    """Affine view with the real flexes at infinity and the center at 0.

    chart maps pencil coordinates to the picture plane; branches are
    sampled polylines in picture coordinates; asymptotes are affine
    lines (u, v, w) meaning u*X + v*Y + w = 0.
    """

    k: object
    chart: ProjMap
    scale: float
    branches: tuple
    closed: tuple
    asymptotes: tuple
    isolated_point: object
    window: tuple


def _base_chart_rows():
    return (
        (1.0, -1.0, 0.0),
        (1.0 / _SQRT3, 1.0 / _SQRT3, -2.0 / _SQRT3),
        (1.0, 1.0, 1.0),
    )


def _axis_crossing_scale(k: float) -> float:
    """1/Y* where Y* is the essential branch's Y-axis crossing.

    On the axis x = y, the curve restricts to 2t^3 - 3k t^2 + 1 in
    t = x/z; the essential crossing is the one farthest from the origin
    (a two-component curve's oval carries the other two).
    """
    roots = roots_cubic(2.0, -3.0 * k, 0.0, 1.0)
    best = None
    for r in roots:
        if abs(r.imag) > 1e-9:
            continue
        t = r.real
        den = 2.0 * t + 1.0
        if abs(den) < 1e-12:
            continue
        y = (2.0 * t - 2.0) / (_SQRT3 * den)
        if best is None or abs(y) > abs(best):
            best = y
    if best is None or best == 0.0:
        raise ConvergenceFailure("no axis crossing found")
    return 1.0 / best


def _clip_line_to_window(u, v, w, window):
    if max(abs(u), abs(v)) <= 1e-12 * abs(w):
        return None
    xmin, xmax, ymin, ymax = window
    pts = []
    if abs(v) > abs(u):
        for x in (xmin, xmax):
            y = -(w + u * x) / v
            if ymin - 1e-9 <= y <= ymax + 1e-9:
                pts.append((x, y))
        for y in (ymin, ymax):
            if abs(u) > 1e-15:
                x = -(w + v * y) / u
                if xmin - 1e-9 <= x <= xmax + 1e-9:
                    pts.append((x, y))
    else:
        for y in (ymin, ymax):
            x = -(w + v * y) / u
            if xmin - 1e-9 <= x <= xmax + 1e-9:
                pts.append((x, y))
        for x in (xmin, xmax):
            if abs(v) > 1e-15:
                y = -(w + u * x) / v
                if ymin - 1e-9 <= y <= ymax + 1e-9:
                    pts.append((x, y))
    if len(pts) < 2:
        return None
    pts.sort()
    return (pts[0], pts[-1])


_K_ONE_DELTA = 1e-2


def canonical_picture(k, window=(-3.2, 3.2, -3.2, 3.2), resolution=401) -> CanonicalPicture:
    """The affine picture of the real pencil member.

    k = 1 produces the limit picture: the branches of the nearby member
    k = 1 - 0.01 plus the isolated point at the origin.  k = +-inf
    produces the three-line picture of the triangle member.
    """
    if isinstance(k, complex):
        if k.imag != 0:
            raise ComplexCoefficients("picture parameter must be real")
        k = k.real
    infinite = isinstance(k, float) and math.isinf(k)
    isolated = None
    if infinite:
        lam = _SQRT3
        asym_src = (ProjLine(1, 0, 0), ProjLine(0, 1, 0), ProjLine(0, 0, 1))
        curve = None
        k_draw = k
    else:
        k = float(k)
        if math.isnan(k):
            raise InvalidInput("picture parameter k is NaN")
        k_draw = k
        if abs(k - 1.0) < 1e-9:
            k_draw = 1.0 - _K_ONE_DELTA
            isolated = (0.0, 0.0)
        lam = _axis_crossing_scale(k_draw)
        asym_src = (
            ProjLine(k_draw, 1.0, 1.0),
            ProjLine(1.0, k_draw, 1.0),
            ProjLine(1.0, 1.0, k_draw),
        )
        curve = hesse_form(k_draw)
    c = _base_chart_rows()
    chart = ProjMap((
        tuple(lam * t for t in c[0]),
        tuple(lam * t for t in c[1]),
        c[2],
    ))
    asymptotes = []
    for line in asym_src:
        img = chart.line_image(line)
        cs = tuple(complex(t).real for t in img.normalized().coeffs)
        asymptotes.append(cs)
    if infinite:
        branches = []
        for (u, v, w) in asymptotes:
            seg = _clip_line_to_window(u, v, w, window)
            if seg is not None:
                branches.append((seg[0], seg[1]))
        return CanonicalPicture(
            k=k, chart=chart, scale=lam, branches=tuple(branches),
            closed=tuple(False for _ in branches),
            asymptotes=tuple(asymptotes), isolated_point=None, window=window,
        )
    g = transform(curve, chart)
    gr = CubicForm(tuple(complex(t).real for t in g.normalized().coeffs))

    def field(gx, gy):
        return evaluate_grid(gr, gx, gy, 1.0)

    polys = implicit_curve(field, window, resolution)
    branches = tuple(tuple(p) for p in polys if len(p) >= 2)
    closed = tuple(is_closed(list(p)) for p in branches)
    return CanonicalPicture(
        k=k, chart=chart, scale=lam, branches=branches, closed=closed,
        asymptotes=tuple(asymptotes), isolated_point=isolated, window=window,
    )


def cross_ratio_chi(c: StandardCurve):
    """chi = (r2 - r3)/(r1 - r2) over the ascending real roots r1 < r2 < r3."""
    for v in (c.a, c.b):
        if isinstance(v, complex) and v.imag != 0:
            raise ComplexCoefficients("curve coefficients must be real")
    if count_components(c) != 2:
        raise OneComponent("the cross-ratio needs three real roots")
    rs = sorted(r.real for r in c.roots())
    r1, r2, r3 = rs
    return (r2 - r3) / (r1 - r2)
