"""Acceptance suite: eleven ship criteria, one pass/fail line each.

Run with -s to see every line; a failing criterion also shows its line
in the captured output.
"""
import cmath
import math
import random
import time
from fractions import Fraction

from cubica.cli import main as cli_main
from cubica.cubic import CubicForm, find_flexes, is_smooth, transform
from cubica.group_law import (
    BasedGroup,
    add,
    chord_tangent,
    curve_point,
    flex_based_group,
    multiply,
    three_torsion,
)
from cubica.hesse import (
    eta,
    exceptional_points,
    hesse_form,
    hesse_orbit,
    j_of_k,
    to_hesse,
)
from cubica.lattice import (
    Lattice,
    eisenstein,
    lattice_to_curve,
    torus_symmetry_order,
    voronoi_cell,
)
from cubica.projective import (
    ProjMap,
    _flat_proportional,
    line_through,
    proj_distance,
)
from cubica.real_curves import classify_real, real_automorphisms, real_flexes
from cubica.standard import StandardCurve, automorphism_order, j_invariant, to_standard


def _report(num: int, label: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_complex(rng, radius):
    return complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))


def _smooth_k(rng, radius=2.5, guard=0.2):
    while True:
        k = _random_complex(rng, radius)
        if abs(k ** 3 - 1) > guard:
            return k


def test_criterion_01_nine_flexes():
    rng = random.Random(101)
    curves = []
    while len(curves) < 100:
        f = CubicForm(tuple(_random_complex(rng, 1.0) for _ in range(10)))
        if is_smooth(f):
            curves.append(f)
    t0 = time.perf_counter()
    results = [find_flexes(f) for f in curves]
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    worst = 0.0
    for fs in results:
        worst = max(worst, max(fs.residuals))
        pts = list(fs)
        ok = ok and len(pts) == 9
        for i in range(9):
            for j in range(i + 1, 9):
                ok = ok and proj_distance(pts[i], pts[j]) > 1e-9
    ok = ok and worst < 1e-8
    _report(1, "nine flexes on 100 random smooth cubics", ok,
            f"worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_hesse_flexes_are_base_points():
    rng = random.Random(202)
    exc = exceptional_points()
    ok = True
    for _ in range(20):
        k = _smooth_k(rng)
        fs = find_flexes(hesse_form(k))
        unmatched = list(exc)
        for p in fs:
            dists = [(proj_distance(p, e), i) for i, e in enumerate(unmatched)]
            d, i = min(dists)
            ok = ok and d < 1e-6
            unmatched.pop(i)
        ok = ok and not unmatched
    _report(2, "pencil flexes match the nine base points", ok)


def test_criterion_03_hessian_closed_form():
    ok = True
    for k in (0, 4, Fraction(2, 3), Fraction(-7, 5), Fraction(22, 7), -2):
        h = hesse_form(k).hessian()
        kq = Fraction(k)
        want = [0] * 10
        want[0] = want[6] = want[9] = 27 * (-2 * kq ** 2)
        want[4] = 27 * (8 - 2 * kq ** 3)
        got = [Fraction(c) for c in h.coeffs]
        ok = ok and got == [Fraction(w) for w in want]
    _report(3, "pencil hessian closed form, coefficient-exact", ok)


def test_criterion_04_j_anchors():
    ok = j_of_k(0) == 0 and j_of_k(-2) == 0
    ok = ok and j_of_k(Fraction(-2)) == 0
    for k in (1 + math.sqrt(3), 1 - math.sqrt(3)):
        ok = ok and abs(j_of_k(k) - 1) < 1e-12
    _report(4, "J anchors at k=0,-2 (exact) and k=1+-sqrt(3)", ok)


def test_criterion_05_eta_and_orbit_product():
    rng = random.Random(505)
    worst_eta = worst_prod = 0.0
    for _ in range(1000):
        k = _smooth_k(rng, radius=3.0, guard=0.01)
        j = complex(j_of_k(k))
        je = complex(j_of_k(eta(k)))
        worst_eta = max(worst_eta, abs(je - j) / abs(j))
        prod = 1.0 + 0j
        for v in hesse_orbit(k):
            prod *= complex(v)
        worst_prod = max(worst_prod, abs(prod / 64 - j) / abs(j))
    ok = worst_eta < 1e-9 and worst_prod < 1e-8
    _report(5, "eta-invariance and 12-fold orbit product", ok,
            f"eta {worst_eta:.2e}, product {worst_prod:.2e}")


def test_criterion_06_round_trip():
    rng = random.Random(606)
    worst_fwd = worst_back = 0.0
    for _ in range(50):
        k = _smooth_k(rng)
        j0 = complex(j_of_k(k))
        scale = max(1.0, abs(j0))
        f = hesse_form(k)
        curve, _ = to_standard(f, find_flexes(f)[0])
        worst_fwd = max(
            worst_fwd, abs(complex(j_invariant(curve)) - j0) / scale
        )
        k2, _ = to_hesse(curve.cubic_form())
        worst_back = max(
            worst_back, abs(complex(j_of_k(k2)) - j0) / scale
        )
    ok = worst_fwd < 1e-8 and worst_back < 1e-7
    _report(6, "pencil -> standard -> J round trip", ok,
            f"forward {worst_fwd:.2e}, back {worst_back:.2e}")


def test_criterion_07_group_law_suite():
    ok = True
    # floating associativity, 500 triples over ten curves
    rng = random.Random(707)
    for _ in range(10):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        c = StandardCurve(a, b)
        if not c.is_smooth():
            continue
        form = c.cubic_form()
        g = flex_based_group(form)

        def sample():
            while True:
                x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                y2 = x ** 3 + a * x + b
                if abs(y2) > 1e-4:
                    return curve_point(form, (x, y2 ** 0.5, 1))

        for _ in range(50):
            p, q, r = sample(), sample(), sample()
            lhs = add(g, add(g, p, q), r)
            rhs = add(g, p, add(g, q, r))
            ok = ok and proj_distance(lhs.point, rhs.point) < 1e-7

    # exact rational arithmetic on y^2 = x^3 + 1
    c1 = StandardCurve(0, 1).cubic_form()
    g1 = flex_based_group(c1)
    named = [(0, 1, 0), (2, 3, 1), (2, -3, 1), (0, 1, 1), (0, -1, 1),
             (-1, 0, 1)]
    pts = [curve_point(c1, t) for t in named]
    rng2 = random.Random(708)
    for _ in range(100):
        p, q, r = (rng2.choice(pts) for _ in range(3))
        lhs = add(g1, add(g1, p, q), r)
        rhs = add(g1, p, add(g1, q, r))
        ok = ok and lhs.is_exact and rhs.is_exact
        ok = ok and lhs.point == rhs.point

    # tangent process = -2p with a flex base
    for t in named[1:]:
        p = curve_point(c1, t)
        ok = ok and chord_tangent(p, p).point == multiply(g1, -2, p).point

    # nine 3-torsion points and the twelve-line configuration
    tor = three_torsion(g1)
    flexes = list(find_flexes(c1))
    ok = ok and len(tor) == 9
    for t in tor:
        trip = multiply(g1, 3, t)
        ok = ok and proj_distance(trip.point, g1.base.point) < 1e-7
        ok = ok and min(proj_distance(t.point, f) for f in flexes) < 1e-7
    line_sets = set()
    for i in range(9):
        for j in range(i + 1, 9):
            ln = line_through(flexes[i], flexes[j])
            on = frozenset(
                m for m, f in enumerate(flexes) if ln.contains(f, tol=1e-7)
            )
            line_sets.add(on)
    ok = ok and len(line_sets) == 12
    ok = ok and all(len(s) == 3 for s in line_sets)
    per_flex = [sum(m in s for s in line_sets) for m in range(9)]
    ok = ok and all(c == 4 for c in per_flex)
    _report(7, "group law: associativity, exactness, torsion, 12 lines", ok)


def test_criterion_08_automorphism_orders():
    ok = automorphism_order(StandardCurve(0, 1)) == (54, 6)
    ok = ok and automorphism_order(StandardCurve(1, 0)) == (36, 4)
    ok = ok and automorphism_order(StandardCurve(1, 1)) == (18, 2)
    for form in (
        hesse_form(2),
        transform(hesse_form(3), ProjMap(((1, 1, 0), (0, 2, -1), (1, 0, 1)))),
    ):
        maps = real_automorphisms(form)
        ok = ok and len(maps) == 6
        fl = real_flexes(form)
        perms = set()
        for m in maps:
            ok = ok and _flat_proportional(
                transform(form, m).coeffs, form.coeffs, 1e-6
            )
            img = []
            for p in fl:
                cand = [i for i, w in enumerate(fl)
                        if proj_distance(m.apply(p), w) < 1e-6]
                ok = ok and len(cand) == 1
                img.append(cand[0] if cand else -1)
            perms.add(tuple(img))
        ok = ok and len(perms) == 6
    _report(8, "automorphism orders and the real sixfold group", ok)


def test_criterion_09_real_classification_sweep():
    ok = True
    for k in range(-5, 7):
        if k == 1:
            continue
        rc = classify_real(hesse_form(k))
        ok = ok and (rc.components == 1) == (k < 1)
        inside = 1 - math.sqrt(3) < k < 1 + math.sqrt(3)
        ok = ok and (rc.sign_b == -1) == inside
        ok = ok and abs(float(rc.k) - k) < 1e-7
    _report(9, "real classification sweep k = -5..6", ok)


def test_criterion_10_lattice_invariants():
    square = Lattice(1.0, 1j)
    hexagonal = Lattice(1.0, cmath.exp(1j * math.pi / 3))
    g2, g3 = eisenstein(square)
    ok = abs(g3) < 1e-9
    ok = ok and abs(complex(j_invariant(lattice_to_curve(square))) - 1) < 1e-7
    g2, g3 = eisenstein(hexagonal)
    ok = ok and abs(g2) < 1e-9
    ok = ok and abs(complex(j_invariant(lattice_to_curve(hexagonal)))) < 1e-7

    lat = Lattice(1.0, complex(0.6, 0.8))
    j = complex(j_invariant(lattice_to_curve(lat)))
    ok = ok and abs(j.imag) < 1e-6
    ok = ok and voronoi_cell(lat).edge_count == 6
    ok = ok and torus_symmetry_order(lat) == 2

    rect = Lattice(1.0, 2j)
    j = complex(j_invariant(lattice_to_curve(rect)))
    ok = ok and abs(j.imag) < 1e-9 and j.real > 1
    ok = ok and voronoi_cell(rect).edge_count == 4
    _report(10, "square, hexagonal, oblique and rectangular lattices", ok)


def test_criterion_11_render_determinism(tmp_path):
    jobs = [
        ["pencil-svg"],
        ["jgraph-svg"],
        ["canonical-svg", "--k", "2"],
        ["triangle-svg", "--a", "1", "--b", "1"],
        ["voronoi-svg", "--tau", "0,1"],
    ]
    ok = True
    for n, argv in enumerate(jobs):
        a = tmp_path / f"{n}a.svg"
        b = tmp_path / f"{n}b.svg"
        ok = ok and cli_main(argv + ["-o", str(a)]) == 0
        ok = ok and cli_main(argv + ["-o", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()

    from cubica.render import _fmt, _mapper

    svg = (tmp_path / "1a.svg").read_text()
    to_px, _ = _mapper((-3.0, 4.0, -1.0, 2.0), (640, 640))
    for anchor in ((0.0, 0.0), (-2.0, 0.0)):
        px, py = to_px(*anchor)
        ok = ok and f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4"' in svg
    _report(11, "byte-identical figures and jgraph anchor markers", ok)
