import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cubica import cubic, hesse
from cubica.cubic import (
    MONOMIALS,
    CubicForm,
    _at_points,
    _hessian_det,
    _invariants_at_point,
    _polish_flexes,
    _second_partials,
    _second_partials_at,
    _sym_adjugate,
    _third_partials,
    _trace_product,
    evaluate_grid,
    find_flexes,
    flex_defect,
    is_flex,
    is_smooth,
    restrict_to_line,
    singular_points,
    tangent_line,
    transform,
)
from cubica.errors import (
    ConvergenceFailure,
    CubicaError,
    DegenerateForm,
    InvalidInput,
    SingularCurve,
    SingularMap,
)
from cubica.group_law import flex_based_group, three_torsion
from cubica.hesse import hesse_form, j_of_k, to_hesse
from cubica.projective import ProjMap, ProjPoint, _flat_proportional, proj_distance
from cubica.real_curves import classify_real, real_automorphisms, real_flexes
from cubica.scalars import poly_roots
from cubica.standard import StandardCurve

# coefficient order: x^3, x^2 y, x^2 z, x y^2, x y z, x z^2, y^3, y^2 z, y z^2, z^3
FERMAT = CubicForm((1, 0, 0, 0, 0, 0, 1, 0, 0, 1))
CUSPIDAL = CubicForm((1, 0, 0, 0, 0, 0, 0, -1, 0, 0))  # y^2 z = x^3
NODAL = CubicForm((1, 0, 1, 0, 0, 0, 0, -1, 0, 0))     # y^2 z = x^3 + x^2 z


def test_form_needs_ten_coeffs():
    with pytest.raises(InvalidInput):
        CubicForm((1, 2, 3))
    with pytest.raises(InvalidInput):
        CubicForm((0,) * 10)


def test_form_rejects_nan_and_keeps_infinity():
    with pytest.raises(InvalidInput, match="NaN"):
        CubicForm((1.0, 0, 0, 0, math.nan, 0, 1, 0, 0, 1))
    with pytest.raises(InvalidInput, match="NaN"):
        hesse_form(math.nan)
    assert CubicForm((1, 0, 0, 0, math.inf, 0, 1, 0, 0, 1)).coeffs[4] == math.inf


def test_evaluate_and_gradient_euler():
    # x f_x + y f_y + z f_z = 3 f for a cubic
    random.seed(3)
    f = CubicForm(tuple(random.randint(-5, 5) for _ in range(10)))
    pt = (2, -1, 3)
    gx, gy, gz = f.gradient(pt)
    assert pt[0] * gx + pt[1] * gy + pt[2] * gz == 3 * f.evaluate(pt)


def test_hessian_fermat_frozen():
    h = FERMAT.hessian()
    assert h.as_dict() == {(1, 1, 1): 216}


def test_hessian_cuspidal_frozen():
    h = CUSPIDAL.hessian()
    assert h.as_dict() == {(1, 2, 0): -24}


def test_hessian_det_is_hessian_form_pointwise():
    # exact arithmetic on object arrays, four points at once: the value and
    # gradient of the batch equal the form's own, and the pointwise
    # determinant and its gradient the expanded Hessian form and its gradient
    rng = random.Random(11)
    for _ in range(30):
        f = CubicForm(tuple(Fraction(rng.randint(-5, 5)) for _ in range(10)))
        pts = [[Fraction(rng.randint(-7, 7), rng.randint(1, 4)) for _ in range(3)] for _ in range(4)]
        try:
            h = f.hessian()
        except DegenerateForm:
            continue
        t = _third_partials(np.array(f.coeffs, dtype=object))
        value, grad, m = _at_points(t, np.array(pts, dtype=object))
        det, det_grad = _hessian_det(t, m)
        for i, p in enumerate(pts):
            assert (value[i], tuple(grad[i])) == (f.evaluate(p), f.gradient(p))
            assert (det[i], tuple(det_grad[i])) == (h.evaluate(p), h.gradient(p))


def _scalar_hessian_det(c, p, size=False):
    """det M and its gradient tr(adj M . M_i) at p from the scalar kernel,
    M the second partials; with size=True the same sums taken over the
    absolute values of their terms."""
    if size:
        c, p = [abs(v) for v in c], [abs(v) for v in p]
    m = _second_partials_at(c, p)
    xx, xy, xz, yy, yz, zz = m
    adj = (
        yy * zz + yz * yz, xz * yz + xy * zz, xy * yz + xz * yy,
        xx * zz + xz * xz, xy * xz + xx * yz, xx * yy + xy * xy,
    ) if size else _sym_adjugate(*m)
    det = m[0] * adj[0] + m[1] * adj[1] + m[2] * adj[2]
    return det, tuple(_trace_product(adj, [lin[i] for lin in _second_partials(c)]) for i in range(3))


def test_batched_evaluation_matches_scalar_kernel():
    # at random complex points, against CubicForm.evaluate, gradient and the
    # scalar determinant of the second partials: within 8 ulps of the sum
    # of the sizes of each sum's terms, on random complex and real forms and
    # on exact forms rounded to complex
    eps = np.finfo(float).eps
    rng = np.random.default_rng(23)
    forms = [rng.normal(size=10) + 1j * rng.normal(size=10) for _ in range(10)]
    forms += [rng.normal(size=10) * 10.0 ** rng.integers(-3, 4, size=10) for _ in range(10)]
    forms += [[complex(Fraction(int(a), int(b))) for a, b in zip(rng.integers(-9, 10, 10), rng.integers(1, 8, 10))]
              for _ in range(10)]
    worst = 0.0
    for c in forms:
        c = [complex(v) for v in c]
        f, fa = CubicForm(tuple(c)), CubicForm(tuple(abs(v) for v in c))
        pts = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        t = _third_partials(np.array(c))
        value, grad, m = _at_points(t, pts)
        det, det_grad = _hessian_det(t, m)
        for i, p in enumerate(pts.tolist()):
            pa = [abs(v) for v in p]
            pairs = [(value[i], f.evaluate(p), fa.evaluate(pa))]
            pairs += zip(grad[i], f.gradient(p), fa.gradient(pa))
            want, want_grad = _scalar_hessian_det(c, p)
            size, size_grad = _scalar_hessian_det(c, p, size=True)
            pairs += [(det[i], want, size)] + list(zip(det_grad[i], want_grad, size_grad))
            for got, want, size in pairs:
                worst = max(worst, abs(got - want) / (eps * size))
    assert worst <= 8


def _monomial_loop(coeffs, x, y, z):
    """The form at one point, monomial by monomial, in the exact arithmetic
    of the inputs' own type (Python ints or Fractions)."""
    return sum(c * x ** i * y ** j * z ** k for (i, j, k), c in zip(MONOMIALS, coeffs))


def _grids(shape, draw):
    # full grids, a constant z, and broadcastable axes of a (4, 5) grid
    x, y, z = draw(size=(3, *shape))
    return ((x, y, z), (x, y, 1.0), (x[0, :5][None, :], y[:4, :1], z[0, 0]))


def test_evaluate_grid_matches_monomial_loop():
    # on integer samples |v| <= 20 with integer coefficients in -9..9 every
    # product and partial sum is an integer below 2^53, so each float
    # operation is exact and the grid must equal Python-int evaluation
    rng = np.random.default_rng(5)
    for _ in range(30):
        coeffs = [int(c) for c in rng.integers(-9, 10, size=10) * (rng.random(10) < 0.7)]
        if not any(coeffs):
            continue
        form = CubicForm(tuple(coeffs))
        for args in _grids((7, 6), lambda size: rng.integers(-20, 21, size=size).astype(float)):
            got = evaluate_grid(form, *args)
            pts = np.broadcast_arrays(*args)
            want = np.vectorize(lambda a, b, c: float(_monomial_loop(coeffs, int(a), int(b), int(c))))(*pts)
            assert np.array_equal(got, want)


def test_evaluate_grid_rounding_against_fractions():
    # on random floats, against the exact value of the same float inputs:
    # each term takes at most 3 roundings and the sum 9 more, so the error
    # stays below 8 eps times the sum of the terms' sizes; NaN holes stay NaN
    eps = np.finfo(float).eps
    rng = np.random.default_rng(7)
    for _ in range(20):
        cs = rng.normal(size=10) * (rng.random(10) < 0.7)
        if not cs.any():
            continue
        form = CubicForm(tuple(float(c) for c in cs))
        coeffs = [Fraction(float(c)) for c in cs]
        sizes = [abs(c) for c in coeffs]
        for args in _grids((6, 5), rng.normal):
            args[0][rng.random(args[0].shape) < 0.2] = np.nan
            got = evaluate_grid(form, *args)
            pts = np.broadcast_arrays(*args)
            for idx, g in np.ndenumerate(got):
                a, b, c = (float(p[idx]) for p in pts)
                if np.isnan(a):
                    assert np.isnan(g)
                    continue
                a, b, c = Fraction(a), Fraction(b), Fraction(c)
                exact = _monomial_loop(coeffs, a, b, c)
                scale = _monomial_loop(sizes, abs(a), abs(b), abs(c))
                assert abs(Fraction(float(g)) - exact) <= 8 * Fraction(eps) * scale


def test_evaluate_grid_on_broadcast_axes_matches_meshgrid():
    # a power of one coordinate computed on its axis is the same float as
    # on the full grid, so broadcasting changes no bit
    rng = np.random.default_rng(9)
    xs, ys = np.sort(rng.normal(size=(2, 33)) * 3.0, axis=1)
    gx, gy = np.meshgrid(xs, ys)
    for _ in range(10):
        form = CubicForm(tuple(float(c) for c in rng.normal(size=10)))
        for z in (1.0, -0.75):
            assert np.array_equal(evaluate_grid(form, xs[None, :], ys[:, None], z),
                                  evaluate_grid(form, gx, gy, z))
        gz = gx - gy
        assert np.array_equal(evaluate_grid(form, xs[None, :], ys[:, None], xs[None, :] - ys[:, None]),
                              evaluate_grid(form, gx, gy, gz))


def _random_forms_and_maps(n=20, seed=15):
    """Seeded random integer forms and invertible integer maps."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < n:
        f = CubicForm(tuple(rng.randint(-6, 6) for _ in range(10)))
        rows = tuple(tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(3))
        try:
            pairs.append((f, ProjMap(rows)))
        except SingularMap:
            pass
    return pairs


def test_hessian_transform_covariance():
    # hessian(transform(f, A)) = det(A)^-2 transform(hessian(f), A),
    # coefficient for coefficient: first on det 7, then on random input
    pairs = [(CubicForm((1, 2, 0, -1, 3, 0, 1, 0, 2, -3)), ProjMap(((1, 2, 0), (0, 1, 3), (0, 0, 7))))]
    for f, a in pairs + _random_forms_and_maps():
        lhs = transform(f, a).hessian()
        rhs = transform(f.hessian(), a)
        assert lhs.coeffs == tuple(Fraction(c, a.det() ** 2) for c in rhs.coeffs)


def _rational_forms_and_maps(n=20, seed=16):
    """Seeded random forms and invertible maps with rational entries."""
    rng = random.Random(seed)

    def q(top):
        return Fraction(rng.randint(-top, top), rng.randint(1, 6))

    pairs = []
    while len(pairs) < n:
        f = CubicForm(tuple(q(6) for _ in range(10)))
        try:
            pairs.append((f, ProjMap(tuple(tuple(q(4) for _ in range(3)) for _ in range(3)))))
        except SingularMap:
            pass
    return pairs


def _fraction_inverse(rows):
    """The inverse matrix by Gauss-Jordan elimination over Fraction."""
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(3)]
           for i, row in enumerate(rows)]
    for col in range(3):
        piv = next(r for r in range(col, 3) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(3):
            if r != col:
                aug[r] = [v - aug[r][col] * w for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[3:]) for row in aug)


def _compose_reference(coeffs, rows):
    """coeffs o rows, each monomial multiplied out: x_r becomes rows[r].x."""
    out = dict.fromkeys(MONOMIALS, 0)
    for mono, c in zip(MONOMIALS, coeffs):
        poly = {(0, 0, 0): c}
        for var, power in enumerate(mono):
            for _ in range(power):
                step = {}
                for e, v in poly.items():
                    for t in range(3):
                        e2 = tuple(n + (s == t) for s, n in enumerate(e))
                        step[e2] = step.get(e2, 0) + v * rows[var][t]
                poly = step
        for e, v in poly.items():
            out[e] += v
    return tuple(out[m] for m in MONOMIALS)


def test_transform_rational_matches_fraction_inverse():
    # the route transform took before integer representatives: invert the
    # map over Fraction, then substitute its rows
    for f, a in _rational_forms_and_maps():
        assert transform(f, a).coeffs == _compose_reference(f.coeffs, _fraction_inverse(a.rows))


def test_hessian_transform_covariance_rational():
    for f, a in _rational_forms_and_maps():
        lhs = transform(f, a).hessian()
        rhs = transform(f.hessian(), a)
        assert lhs.coeffs == tuple(c / a.det() ** 2 for c in rhs.coeffs)


def _invariants(f):
    """(sigma, tau) of the form f itself, exact on exact input."""
    return _invariants_at_point(f.coeffs, f.hessian().coeffs)


def test_invariants_give_hessian_of_pencil():
    # Hess(f + t h) = (s t + u t^2 + s^2 t^3 / 3) f + (1 - s t^2 - u t^3 / 3) h
    # with (s, u) = _invariants(f), coefficient for coefficient against the
    # expanded Hessian
    for f, _ in _random_forms_and_maps(seed=21):
        h = f.hessian()
        s, u = _invariants(f)
        for t in (1, 2):
            member = CubicForm(tuple(a + t * b for a, b in zip(f.coeffs, h.coeffs)))
            p, q = s * t + u * t ** 2 + s ** 2 * t ** 3 / 3, 1 - s * t ** 2 - u * t ** 3 / 3
            assert member.hessian().coeffs == tuple(p * a + q * b for a, b in zip(f.coeffs, h.coeffs))


def _j_of_invariants(form):
    s, u = _invariants(form)
    return 4 * s ** 3 / (4 * s ** 3 - 3 * u ** 2)


def test_invariants_give_j():
    # J = 4 s^3 / (4 s^3 - 3 u^2), against J(k) on Hesse members and
    # 4a^3 / (4a^3 + 27b^2) on standard forms, also moved by an integer map
    a_map = ProjMap(((1, 2, 0), (-1, 1, 3), (2, 0, 1)))
    for k in (0, 2, -3, Fraction(1, 2), Fraction(-7, 3), Fraction(5, 4)):
        for form in (hesse_form(k), transform(hesse_form(k), a_map)):
            assert _j_of_invariants(form) == j_of_k(k)
    for a, b in ((0, 1), (1, 0), (-2, 3), (Fraction(2, 3), Fraction(-5, 7)), (Fraction(-3, 2), 4)):
        want = Fraction(4 * a ** 3) / (4 * a ** 3 + 27 * b ** 2)
        for form in (StandardCurve(a, b).cubic_form(), transform(StandardCurve(a, b).cubic_form(), a_map)):
            assert _j_of_invariants(form) == want


def test_invariants_transform_weights():
    # sigma and tau are invariants of weight 4 and 6: transform(f, A) =
    # f o A^-1 has det(A)^-4 sigma(f) and det(A)^-6 tau(f)
    for f, a in _random_forms_and_maps(seed=22):
        s, u = _invariants(f)
        s_image, u_image = _invariants(transform(f, a))
        assert s_image == Fraction(s) / a.det() ** 4
        assert u_image == Fraction(u) / a.det() ** 6


def _pencil_members_under_maps():
    """(k, rows): the ill-conditioned cases of the Hesse tests, then 20
    seeded pencil members, real and complex in turn, under random real maps
    of condition number below 100."""
    from test_hesse import ILL_CONDITIONED

    rng = np.random.default_rng(19)
    cases = list(ILL_CONDITIONED)
    while len(cases) < len(ILL_CONDITIONED) + 20:
        k = rng.uniform(-3, 4) if len(cases) % 2 else complex(*rng.uniform(-2, 2, size=2))
        rows = rng.normal(size=(3, 3))
        if abs(k ** 3 - 1) > 0.2 and np.linalg.cond(rows) < 100:
            cases.append((k, tuple(map(tuple, rows.tolist()))))
    return cases


@pytest.mark.parametrize("k, rows", _pencil_members_under_maps())
def test_pencil_triangles_flexes_and_sides(k, rows):
    pair = cubic._smooth_coefficients(transform(hesse_form(k), ProjMap(rows)))
    triangles, flexes = cubic._pencil_triangles(*pair)
    pts = flexes.points
    keys = [cubic._point_sort_key(p) for p in pts]
    assert keys == sorted(keys)
    for p in pts:
        # in normal form already: the same values of the same types
        n = p.normalized().coords
        assert n == p.coords and list(map(type, n)) == list(map(type, p.coords))
    flex_rows = np.array([p.coords for p in pts], complex)
    flex_rows /= np.linalg.norm(flex_rows, axis=1)[:, None]
    assert len(triangles) >= 2
    for sides in triangles:
        g = np.array(sides, complex)
        g /= np.linalg.norm(g, axis=1)[:, None]
        on = np.abs(g @ flex_rows.T) <= 1e-9
        assert list(on.sum(axis=1)) == [3, 3, 3]
        assert list(on.sum(axis=0)) == [1] * 9
    if not isinstance(k, complex):
        assert sum(all(isinstance(v, float) for side in sides for v in side) for sides in triangles) == 1
    again = cubic._pencil_triangles(*pair)
    assert again[0] == triangles
    assert [p.coords for p in again[1].points] == [p.coords for p in pts]
    assert again[1].residuals == flexes.residuals


def _scalar_polish(f, h, coords, iters=16):
    """Newton on f = 0 and h = 0 from one point, one point at a time: the
    loop _polish_flexes replaced, kept as its reference."""
    p = [complex(c) for c in coords]
    top = max(abs(c) for c in p)
    p = [c / top for c in p]
    pivot = max(range(3), key=lambda i: abs(p[i]))
    a, b = [i for i in range(3) if i != pivot]
    fv, hv, gh = f.evaluate(p), h.evaluate(p), h.gradient(p)
    best, best_r, stall = list(p), max(abs(fv), abs(hv)), 0
    for _ in range(iters):
        gf = f.gradient(p)
        det = gf[a] * gh[b] - gf[b] * gh[a]
        if abs(det) < 1e-300:
            break
        p[a] -= (fv * gh[b] - hv * gf[b]) / det
        p[b] -= (gf[a] * hv - gh[a] * fv) / det
        fv, hv, gh = f.evaluate(p), h.evaluate(p), h.gradient(p)
        r = max(abs(fv), abs(hv))
        if r < best_r:
            best, best_r, stall = list(p), r, 0
        else:
            stall += 1
            if stall >= 2:
                break
        if best_r < 1e-14:
            break
    return best, best_r


def test_polish_flexes_matches_scalar_loop():
    # from the images of the base points moved by 1e-7, every point of the
    # batch ends where the one-point loop ends, up to rounding: within
    # 1e-10, where the ill-conditioned maps leave flexes 2e-11 to 4e-11
    # from the exact ones
    rng = np.random.default_rng(29)
    omega = cmath.exp(2j * cmath.pi / 3)
    base = [p for w in (1, omega, omega ** 2) for p in ((0, 1, -w), (1, 0, -w), (1, -w, 0))]
    worst = 0.0
    for k, rows in _pencil_members_under_maps():
        form = transform(hesse_form(k), ProjMap(rows)).coeffs
        f = CubicForm(tuple(complex(c) / max(abs(c) for c in form) for c in form))
        hc = f.hessian().coeffs
        h = CubicForm(tuple(c / max(abs(c) for c in hc) for c in hc))
        start = np.array([ProjMap(rows).apply(ProjPoint(*p)).coords for p in base], complex)
        start += 1e-7 * (rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3)))
        third = _third_partials(np.array([f.coeffs, h.coeffs]))

        def at(p):
            (fv, hv), (gf, gh), _ = _at_points(third, p)
            return fv, gf, hv, gh

        pts, res = _polish_flexes(at, start)
        for p, r, s in zip(pts, res, start):
            want, want_r = _scalar_polish(f, h, s)
            worst = max(worst, proj_distance(ProjPoint(*p), ProjPoint(*want)))
            assert r < 1e-13 and want_r < 1e-13
    assert worst < 1e-10


def test_find_flexes_fermat():
    fs = find_flexes(FERMAT)
    assert len(fs) == 9
    assert max(fs.residuals) < 1e-10
    # flexes of the Fermat cubic lie on the coordinate triangle
    for p in fs:
        x, y, z = p.to_complex()
        assert min(abs(x), abs(y), abs(z)) < 1e-8


def test_find_flexes_distinct():
    random.seed(17)
    f = CubicForm(tuple(complex(random.uniform(-1, 1), random.uniform(-1, 1))
                        for _ in range(10)))
    fs = find_flexes(f)
    pts = list(fs)
    for i in range(9):
        for j in range(i + 1, 9):
            assert proj_distance(pts[i], pts[j]) > 1e-6


def test_find_flexes_singular_raises():
    with pytest.raises((SingularCurve, ConvergenceFailure)):
        find_flexes(NODAL)


# integer maps for the singular forms below: the identity, a map under which
# a z-resultant flex search finds nine spurious "flexes" on the cusp, and
# the maps the hesse and real tests use
SINGULAR_MAPS = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 2, 2), (-1, -3, -1), (-1, 3, -1)),
    ((2, 1, 0), (0, 1, -1), (1, 0, 3)),
    ((1, 1, 0), (0, 2, -1), (1, 0, 1)),
    ((2, 0, 1), (0, 1, 1), (-1, 1, 0)),
    # singular_points once missed the node of NODAL under this map
    ((1, 1, 0), (-3, -2, 2), (1, -1, 3)),
)


@pytest.mark.parametrize("rows", SINGULAR_MAPS)
@pytest.mark.parametrize("name", ["nodal", "cuspidal", "triangle k=1"])
def test_singular_input_raises_singular_curve(name, rows):
    curve = {"nodal": NODAL, "cuspidal": CUSPIDAL, "triangle k=1": hesse_form(1)}[name]
    form = transform(curve, ProjMap(rows))
    assert not is_smooth(form)
    with pytest.raises(SingularCurve):
        find_flexes(form)
    with pytest.raises(SingularCurve):
        to_hesse(form)


# exact curves of the exact benchmark workload (y^2 = x^3 + ax + b under an
# integer map) that elimination in singular_points once called singular
SMOOTH_EXACT = (
    (3311, 5481, -2199, Fraction(9068, 3), Fraction(-7276, 3), Fraction(1457, 3),
     Fraction(1666, 3), Fraction(-2005, 3), Fraction(803, 3), Fraction(-107, 3)),
    (-5510, 13761, -8247, -11458, 13734, -4116, Fraction(28627, 9), -5719, 3428, -685),
    (28983, 130392, 28999, 195543, 86976, 9671, 97750, 65217, 14503, 1075),
)


@pytest.mark.parametrize("coeffs", SMOOTH_EXACT)
def test_is_smooth_exact_curves(coeffs):
    assert is_smooth(CubicForm(coeffs))


def test_exact_fallback_verdict_is_exact(monkeypatch):
    # with the triangle construction failing, the verdict alone decides:
    # exact input by the exact verdict, not by a floating one, which once
    # called these smooth curves degenerate
    def fail(c, hc, sigma, tau):
        raise ConvergenceFailure("no triangle")

    monkeypatch.setattr(cubic, "_pencil_triangles", fail)
    for coeffs in SMOOTH_EXACT:
        with pytest.raises(ConvergenceFailure):
            find_flexes(CubicForm(coeffs))
        with pytest.raises(ConvergenceFailure):
            to_hesse(CubicForm(coeffs))
    nodal = transform(NODAL, ProjMap(SINGULAR_MAPS[-1]))
    with pytest.raises(SingularCurve):
        find_flexes(nodal)
    with pytest.raises(SingularCurve):
        to_hesse(nodal)


# every reader of a form's pencil: the verdict, the triangles and flexes,
# the map into the Hesse pencil
PENCIL_READERS = {
    "is_smooth": is_smooth,
    "find_flexes": find_flexes,
    "to_hesse": to_hesse,
    "to_hesse canonical": lambda f: to_hesse(f, canonical=True),
    "classify_real": classify_real,
    "real_flexes": real_flexes,
    "real_automorphisms": real_automorphisms,
    "flex_based_group": flex_based_group,
    "three_torsion": lambda f: three_torsion(flex_based_group(f)),
}
REAL_MAP = ((1, 1, 0), (0, 1, 2), (1, 0, 1))


def _counted(monkeypatch, module, name):
    """The calls made to module.name from now on."""
    calls, original = [], getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _failure(read, form):
    """(class, message) of the error read(form) raises."""
    with pytest.raises(CubicaError) as info:
        read(form)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_a_form_builds_its_pencil_once(monkeypatch, exact):
    triangles = _counted(monkeypatch, cubic, "_pencil_triangles")
    maps = _counted(monkeypatch, hesse, "_into_pencil")
    form = transform(hesse_form(2 if exact else 2.0), ProjMap(REAL_MAP))
    assert form.is_exact is exact
    for name, read in PENCIL_READERS.items():
        # each reader alone builds at most one pencil and one map on a fresh
        # form, and nothing again when asked twice
        alone = CubicForm(form.coeffs)
        before = len(triangles), len(maps)
        read(alone)
        read(alone)
        built = len(triangles) - before[0], len(maps) - before[1]
        assert built <= (1, 1) and built[1] <= built[0], name
        if name == "is_smooth":
            assert built == (0, 0)
    before = len(triangles), len(maps)
    for read in PENCIL_READERS.values():
        read(form)
    assert (len(triangles) - before[0], len(maps) - before[1]) == (1, 1)


def test_a_singular_form_fails_alike_on_every_call(monkeypatch):
    triangles = _counted(monkeypatch, cubic, "_pencil_triangles")
    exact = transform(NODAL, ProjMap(REAL_MAP))
    for form in (exact, CubicForm(tuple(map(float, exact.coeffs)))):
        assert not is_smooth(form)
        for name, read in PENCIL_READERS.items():
            if name != "is_smooth":
                first = _failure(read, form)
                assert first[0] is SingularCurve and _failure(read, form) == first, name
    assert not triangles


def test_failures_after_the_verdict_are_convergence_failures(monkeypatch):
    def fail(*args):
        raise np.linalg.LinAlgError("no pencil")

    form = transform(hesse_form(2.0), ProjMap(REAL_MAP))
    monkeypatch.setattr(cubic, "_pencil_triangles", fail)
    assert is_smooth(form)
    for name, read in PENCIL_READERS.items():
        if name != "is_smooth":
            first = _failure(read, form)
            assert first[0] is ConvergenceFailure and _failure(read, form) == first, name
    monkeypatch.undo()
    # the map into the pencil, and the conjugation real_automorphisms makes
    # with it, fail alike
    monkeypatch.setattr(hesse, "_into_pencil", lambda form, triangles: 1 / 0)
    form = transform(hesse_form(2.0), ProjMap(REAL_MAP))
    assert len(find_flexes(form)) == 9
    for read in (to_hesse, classify_real, real_automorphisms):
        first = _failure(read, form)
        assert first[0] is ConvergenceFailure and "ZeroDivisionError" in first[1]
        assert _failure(read, form) == first
    monkeypatch.undo()
    form = transform(hesse_form(2.0), ProjMap(REAL_MAP))
    to_hesse(form)

    def singular(self):
        raise SingularMap("no inverse")

    monkeypatch.setattr(ProjMap, "inverse", singular)
    assert _failure(real_automorphisms, form) == (ConvergenceFailure, "triangle construction failed: "
                                                  "SingularMap('no inverse')")


def test_is_smooth_false_on_vanishing_hessian():
    assert not is_smooth(CubicForm((0, 1, 0, 0, 0, 0, 0, 0, 0, 0)))  # x^2 y


def test_singular_points_nodal():
    pts = singular_points(NODAL)
    assert pts == [ProjPoint(0, 0, 1)]


def test_singular_points_cuspidal():
    pts = singular_points(CUSPIDAL)
    assert pts == [ProjPoint(0, 0, 1)]


def test_singular_points_triangle():
    xyz = CubicForm((0, 0, 0, 0, 1, 0, 0, 0, 0, 0))
    pts = singular_points(xyz)
    want = [ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(0, 0, 1)]
    assert len(pts) == 3
    for p in pts:
        assert any(proj_distance(p, q) < 1e-9 for q in want)


def test_singular_points_smooth_empty():
    assert singular_points(FERMAT) == []
    assert is_smooth(FERMAT)
    assert not is_smooth(NODAL)


def test_degenerate_form_rejected():
    with pytest.raises(DegenerateForm):
        singular_points(CubicForm((0, 1, 0, 0, 0, 0, 0, 0, 0, 0)))  # x^2 y
    with pytest.raises(DegenerateForm):
        singular_points(CubicForm((1, 0, 0, 0, 0, 0, 0, 0, 0, 0)))  # x^3


def test_singular_points_of_exact_input_are_exact():
    # the node of NODAL under this map, once located in floats as
    # (2.8e-17 - 8.6e-26j : 0.6666666666666664 + 2.3e-25j : 1)
    pts = singular_points(transform(NODAL, ProjMap(SINGULAR_MAPS[-1])))
    assert pts == [ProjPoint(0, Fraction(2, 3), 1)] and pts[0].is_exact
    # three concurrent lines x^3 - y^3, as they stand and moved
    lines = CubicForm((1, 0, 0, 0, 0, 0, -1, 0, 0, 0))
    a = ProjMap(((1, 2, 0), (0, 1, -1), (2, 0, 1)))
    for form, want in ((lines, ProjPoint(0, 0, 1)), (transform(lines, a), a.apply(ProjPoint(0, 0, 1)))):
        pts = singular_points(form)
        assert pts == [want] and pts[0].is_exact


def test_singular_point_past_the_float_range():
    # the node (0 : 0 : 1) of NODAL moved to (10^400 : 1 : -1): located
    # exactly, and sorted without converting it to complex
    big = 10 ** 400
    pts = singular_points(transform(NODAL, ProjMap(((1, 0, big), (0, 1, 1), (0, 0, -1)))))
    assert pts == [ProjPoint(big, 1, -1)] and pts[0].is_exact


def test_float_form_with_exact_coefficients_past_the_float_range():
    # the Fermat cubic scaled by 10^400 with a float xyz term of 0.5, which
    # rounds to 0 against 10^400: judged and solved as the float Fermat cubic
    big = 10 ** 400
    mixed = CubicForm((big, 0, 0, 0, 0.5, 0, big, 0, 0, big))
    plain = CubicForm((1.0, 0, 0, 0, 0.0, 0, 1.0, 0, 0, 1.0))
    assert is_smooth(mixed) and singular_points(mixed) == []
    flexes, want = find_flexes(mixed), find_flexes(plain)
    assert len(flexes) == 9
    assert all(proj_distance(p, q) <= 1e-12 for p, q in zip(flexes, want))


def test_float_form_with_exact_coefficients_past_the_float_range_reduces():
    # the same mixed form reaches the pencil as the float Fermat cubic: k = 0
    big = 10 ** 400
    mixed = CubicForm((big, 0, 0, 0, 0.5, 0, big, 0, 0, big))
    plain = CubicForm((1.0, 0, 0, 0, 0.0, 0, 1.0, 0, 0, 1.0))
    k, a = to_hesse(mixed)
    assert k == 0 and _flat_proportional(transform(plain, a).coeffs, hesse_form(k).coeffs)
    assert classify_real(mixed) == classify_real(plain)


def _triangle_invariants():
    """(sigma, tau) pairs: seeded complex ones, sigma = 0 (J = 0), tau = 0
    (J = 1), and real ones with 4 sigma^3 within 2e-4 of 3 tau^2."""
    rng = np.random.default_rng(28)
    pairs = [(0j, 1 + 0j), (0j, complex(-0.3, 2.0)), (1 + 0j, 0j), (complex(-2.0, 0.5), 0j)]
    pairs += [tuple(complex(*rng.normal(size=2)) for _ in range(2)) for _ in range(40)]
    for sigma in rng.uniform(0.2, 3.0, size=10):
        tau = math.sqrt(4 * sigma ** 3 / 3) * (1 + rng.choice((-1e-4, 1e-4)))
        pairs.append((complex(sigma), complex(tau)))
    return pairs


@pytest.mark.parametrize("sigma, tau", _triangle_invariants())
def test_triangle_parameters_match_the_companion_matrix_roots(sigma, tau):
    got = cubic._triangle_parameters(sigma, tau)
    want = poly_roots((1, 0, -2 * sigma, -4 * tau / 3, -sigma ** 2 / 3))
    assert len(got) == len(want) == 4
    scale = max(map(abs, want))
    for u in got:
        # each root matched to its nearest, once
        i = min(range(len(want)), key=lambda i: abs(want[i] - u))
        assert abs(want.pop(i) - u) <= 1e-12 * scale


def test_restrict_to_line_degree():
    p, q = ProjPoint(1, 0, 0), ProjPoint(0, 1, 1)
    cs = restrict_to_line(FERMAT, p, q)
    # c(s, t) = f(s p + t q): cubic in (s, t), four coefficients
    assert len(cs) == 4
    assert cs[0] == FERMAT.evaluate(p.coords)
    assert cs[3] == FERMAT.evaluate(q.coords)


def test_tangent_line_contains_point():
    p = ProjPoint(0, 1, -1)  # on the Fermat cubic
    ln = tangent_line(FERMAT, p)
    assert ln is not None and ln.contains(p)


def test_tangent_line_none_at_singularity():
    assert tangent_line(NODAL, ProjPoint(0, 0, 1)) is None


def test_flex_defect_discriminates():
    assert flex_defect(FERMAT, ProjPoint(0, 1, -1)) < 1e-12
    assert is_flex(FERMAT, ProjPoint(0, 1, -1))
    # (1 : 0 : -1) is on the curve but the tangent there is not inflectional
    p = ProjPoint(1.0, -2.0 ** (1.0 / 3.0), 1.0)
    assert abs(FERMAT.evaluate(p.coords)) < 1e-12
    assert not is_flex(FERMAT, p)


def test_transform_moves_zero_set():
    a = ProjMap(((1, 1, 0), (0, 2, 1), (1, 0, 1)))
    g = transform(FERMAT, a)
    p = ProjPoint(0, 1, -1)

    assert abs(g.evaluate(a.apply(p).to_complex())) < 1e-12


def _matvec(rows, p):
    return tuple(sum(r * v for r, v in zip(row, p)) for row in rows)


def test_transform_exact_pointwise_and_composition():
    rng = random.Random(7)
    pairs = _random_forms_and_maps()
    for (f, a), (_, b) in zip(pairs, pairs[1:] + pairs[:1]):
        g = transform(f, a)
        assert g.is_exact
        # g = f o A^-1 exactly, so g(A p) = f(p) at integer points
        for _ in range(12):
            p = tuple(rng.randint(-9, 9) for _ in range(3))
            assert g.evaluate(_matvec(a.rows, p)) == f.evaluate(p)
        # transforming by A then B is transforming by B o A
        assert transform(g, b).coeffs == transform(f, b.compose(a)).coeffs
        # the float copy of the input agrees to rounding
        gf = transform(
            CubicForm(tuple(float(c) for c in f.coeffs)),
            ProjMap(tuple(tuple(float(v) for v in row) for row in a.rows)),
        )
        top = max(abs(c) for c in g.coeffs)
        assert max(abs(x - float(y)) for x, y in zip(gf.coeffs, g.coeffs)) <= 1e-12 * top
