"""The four workloads: seeded inputs, one operation per input, and its checks.

An operation is a function ``op(item, step)``.  ``step`` (see run.Step) times
each library call and records which layer raised or answered wrongly; the
checks compare with answers computed in oracles.py when the inputs were made.
"""
from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent


def reference():
    """Output hashes recorded by record_reference.py."""
    return json.loads((HERE / "reference.json").read_text())


OMEGA = cmath.exp(2j * math.pi / 3)
# the nine flexes shared by every member of the Hesse pencil
HESSE_BASE_POINTS = tuple(
    p for w in (1, OMEGA, OMEGA ** 2)
    for p in ((0, 1, -w), (1, 0, -w), (1, -w, 0))
)


def _random_map(rng, max_cond):
    """Real 3x3 matrix with condition number below max_cond."""
    while True:
        rows = tuple(tuple(rng.gauss(0.0, 1.0) for _ in range(3)) for _ in range(3))
        cond = oracles.condition_number(rows)
        if cond < max_cond:
            return rows, cond


def _apply(rows, p):
    return tuple(sum(r[j] * p[j] for j in range(3)) for r in rows)


# ---------------------------------------------------------------------------
# figures: the five default figures, a canonical sweep, triangles, cells
# ---------------------------------------------------------------------------

DEFAULT_FIGURES = (
    ("pencil", {}),
    ("jgraph", {}),
    ("canonical", {"k": 2.0}),
    ("triangle", {"a": 1, "b": 1}),
    ("voronoi", {"tau": [0.0, 1.0]}),
)
# fixed so that every seed draws the same amount of marching work; it holds
# the pinch member k = 1 and the triangle member k = inf
CANONICAL_SWEEP = (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.5, 4.0, math.inf)
TRIANGLE_POOL = ((-4, 1), (0, 1), (-1, 0), (2, -1), (-2, 1), (3, 5), (-7, 6),
                 (1, -1), (-5, 3), (4, 0), (-1, 1), (6, -2))
VORONOI_POOL = ((0.5, 0.8), (0.5, 0.8660254037844386), (0.3, 1.2), (0.0, 2.0),
                (0.1, 0.9), (-0.4, 1.1), (0.2, 1.7), (0.45, 0.95), (0.0, 1.3),
                (-0.25, 1.5), (0.35, 0.75), (0.15, 2.4))


def figure_label(kind, payload):
    return f"{kind}:{json.dumps(payload, sort_keys=True)}:640x640"


def figure_pool():
    """Every figure any seed can draw; reference.json holds their hashes."""
    figs = list(DEFAULT_FIGURES)
    figs += [("canonical", {"k": k}) for k in CANONICAL_SWEEP]
    figs += [("triangle", {"a": a, "b": b}) for a, b in TRIANGLE_POOL]
    figs += [("voronoi", {"tau": list(t)}) for t in VORONOI_POOL]
    return figs


@dataclass(frozen=True)
class FigureItem:
    kind: str
    payload: dict
    label: str
    sha256: str


def figures_inputs(seed: int):
    rng = random.Random(seed)
    figs = list(DEFAULT_FIGURES)
    figs += [("canonical", {"k": k}) for k in CANONICAL_SWEEP]
    figs += [("triangle", {"a": a, "b": b}) for a, b in rng.sample(TRIANGLE_POOL, 2)]
    figs += [("voronoi", {"tau": list(t)}) for t in rng.sample(VORONOI_POOL, 2)]
    rng.shuffle(figs)
    hashes = reference()["figures"]
    labels = [figure_label(kind, payload) for kind, payload in figs]
    return [FigureItem(kind, payload, label, hashes[label])
            for (kind, payload), label in zip(figs, labels)]


def render_spec(lib, kind, payload):
    if kind == "voronoi":
        payload = {"lattice": lib.lattice.Lattice.from_tau(complex(*payload["tau"]))}
    return lib.render.RenderSpec(kind=kind, payload=payload, size=(640, 640))


def figures_op(lib, item, step):
    spec = render_spec(lib, item.kind, item.payload)
    svg = step.call(f"render.{item.kind}", lib.render.render, spec)
    step.svg_bytes += len(svg)
    step.check("render", hashlib.sha256(svg.encode()).hexdigest() == item.sha256)


# ---------------------------------------------------------------------------
# reduce: float pencil members under well-conditioned real maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReduceItem:
    k: object
    rows: tuple
    cond: float
    coeffs: tuple
    flexes: tuple
    j: object
    x_seed: complex


def _pencil_parameter(rng, real: bool):
    while True:
        if real:
            k = rng.uniform(-3.0, 4.0)
        else:
            k = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if abs(k ** 3 - 1) > 0.2:
            return k


def reduce_inputs(seed: int, count: int = 600):
    rng = random.Random(seed)
    items = []
    for i in range(count):
        k = _pencil_parameter(rng, real=i % 2 == 0)
        rows, cond = _random_map(rng, 100.0)
        items.append(ReduceItem(
            k=k, rows=rows, cond=cond,
            coeffs=oracles.image_coeffs(oracles.hesse_coeffs(k), rows),
            flexes=tuple(_apply(rows, p) for p in HESSE_BASE_POINTS),
            j=oracles.j_of_k(k),
            x_seed=complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
        ))
    return items


def _hesse_j_ok(k, j, cond) -> bool:
    """J of the parameter to_hesse found against the true J."""
    if isinstance(k, float) and math.isinf(k):
        return False
    return oracles.j_close(oracles.j_of_k(complex(k)), j, cond)


def _flexes_match(found, expected, tol) -> bool:
    left = list(expected)
    for p in found:
        dist = [oracles.proj_sine(p.coords, q) for q in left]
        best = min(range(len(left)), key=dist.__getitem__)
        if dist[best] > tol:
            return False
        left.pop(best)
    return not left


def reduce_op(lib, item, step):
    form = lib.cubic.CubicForm(item.coeffs)
    slack = item.cond * item.cond
    with step.part():
        flexes = step.call("cubic.find_flexes", lib.cubic.find_flexes, form)
        step.check("cubic.find_flexes", _flexes_match(flexes.points, item.flexes, 1e-8 * slack))
        curve, _ = step.call("standard.to_standard", lib.standard.to_standard, form, flexes.points[0])
        j = step.call("standard.j_invariant", lib.standard.j_invariant, curve)
        step.check("standard.to_standard", oracles.j_close(j, item.j, item.cond))
        # a point of the reduced curve, scaled to its coefficients
        scale = max(abs(complex(curve.a)) ** 0.5, abs(complex(curve.b)) ** (1 / 3), 1.0)
        x, y = oracles.point_on_standard(complex(curve.a), complex(curve.b), scale * item.x_seed)
        cform = curve.cubic_form()
        group = lib.group_law.BasedGroup(cform, lib.projective.ProjPoint(0, 1, 0))
        p = lib.group_law.affine_point(cform, x, y)
        q = step.call("group_law.multiply", lib.group_law.multiply, group, 37, p)
        ref = oracles.weierstrass_multiply(complex(curve.a), 37, (x, y))
        step.check("group_law.multiply",
                   oracles.proj_sine(q.point.coords, oracles.projective(ref)) <= 1e-6)
    with step.part():
        k, _ = step.call("hesse.to_hesse", lib.hesse.to_hesse, form)
        step.check("hesse.to_hesse", _hesse_j_ok(k, item.j, item.cond))
    if not isinstance(item.k, complex):
        with step.part():
            rc = step.call("real_curves.classify_real", lib.real_curves.classify_real, form)
            step.check("real_curves.classify_real",
                       rc.components == (1 if item.k < 1 else 2)
                       and oracles.j_close(rc.J, item.j, item.cond))


# ---------------------------------------------------------------------------
# exact: rational Weierstrass curves with a rational point, integer maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactItem:
    a: Fraction
    b: Fraction
    point: tuple
    rows: tuple
    cond: float
    coeffs: tuple
    hessian: tuple
    flex: tuple
    j: Fraction
    n: int
    multiple: tuple


def _small_fraction(rng, top):
    return Fraction(rng.randint(-top, top), rng.randint(1, 3))


def exact_inputs(seed: int, count: int = 900):
    rng = random.Random(seed)
    items = []
    for i in range(count):
        while True:
            a = _small_fraction(rng, 6)
            x0, y0 = _small_fraction(rng, 5), _small_fraction(rng, 5)
            b = y0 * y0 - x0 ** 3 - a * x0
            if 4 * a ** 3 + 27 * b ** 2 != 0:
                break
        while True:
            rows = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
            if oracles.det3(rows) != 0:
                break
        n = 2 + i % 15
        items.append(ExactItem(
            a=a, b=b, point=(x0, y0), rows=rows,
            cond=oracles.condition_number(rows),
            coeffs=oracles.image_coeffs(oracles.standard_coeffs(a, b), rows),
            # the Hessian of F o A is det(A)^2 (Hess F) o A
            hessian=oracles.image_coeffs(oracles.standard_hessian_coeffs(a, b), rows, 2),
            flex=tuple(r[1] for r in rows),
            j=oracles.j_of_ab(a, b),
            n=n,
            multiple=oracles.projective(oracles.weierstrass_multiply(a, n, (x0, y0))),
        ))
    rng.shuffle(items)
    return items


def exact_op(lib, item, step):
    cubic = lib.cubic
    std = cubic.CubicForm(oracles.standard_coeffs(item.a, item.b))
    form = cubic.CubicForm(item.coeffs)
    with step.part():
        image = step.call("cubic.transform", cubic.transform, std, lib.projective.ProjMap(item.rows))
        step.check("cubic.transform", image.coeffs == item.coeffs)
    with step.part():
        hess = step.call("cubic.hessian", form.hessian)
        step.check("cubic.hessian", hess.coeffs == item.hessian)
    with step.part():
        step.check("cubic.is_smooth", step.call("cubic.is_smooth", cubic.is_smooth, form))
    with step.part():
        k, _ = step.call("hesse.to_hesse", lib.hesse.to_hesse, form)
        step.check("hesse.to_hesse", _hesse_j_ok(k, item.j, item.cond))
    with step.part():
        flex = lib.projective.ProjPoint(*item.flex)
        curve, _ = step.call("standard.to_standard", lib.standard.to_standard, form, flex)
        j = step.call("standard.j_invariant", lib.standard.j_invariant, curve)
        step.check("standard.to_standard", curve.is_exact and j == item.j)
    with step.part():
        group = lib.group_law.BasedGroup(std, lib.projective.ProjPoint(0, 1, 0))
        p = lib.group_law.affine_point(std, *item.point)
        q = step.call("group_law.multiply", lib.group_law.multiply, group, item.n, p)
        step.check("group_law.multiply",
                   q.is_exact and oracles.exact_equal(q.point.coords, item.multiple))


# ---------------------------------------------------------------------------
# cli: README commands, each in its own interpreter
# ---------------------------------------------------------------------------

# (arguments, the stdout the README documents or None for an SVG whose
# sha256 reference.json holds, "head"/"tail" where it shows only those lines)
README_COMMANDS = (
    (["hesse-j", "--k", "2"], "J = 512/343", None),
    (["flexes", "--hesse", "2"],
     "(0 : 1 : -1)\n(0 : 1 : 0.5-0.866025403784j)\n(0 : 1 : 0.5+0.866025403784j)", "head"),
    (["singular", "--hesse", "1"],
     "(1 : -0.5-0.866025403784j : -0.5+0.866025403784j)\n"
     "(1 : -0.5+0.866025403784j : -0.5-0.866025403784j)\n(1 : 1 : 1)", None),
    (["j-invariant", "--standard", "1,1"], "J = 4/31", None),
    (["to-hesse", "--standard", "0,1", "--canonical"], "k = -7.40148683083e-17", None),
    (["hesse-orbit", "--k", "2"], "product/64 = 1.49271137026", "tail"),
    (["classify-real", "--hesse", "2"],
     "k = 2\nJ = 512/343\ncomponents = 2\nsign_a = -1\nsign_b = -1\nreal flexes:\n"
     "  (0 : 1 : -1)\n  (1 : -1 : 0)\n  (1 : 0 : -1)", None),
    (["chi", "--a", "-4", "--b", "1"], "chi = 0.678217773282", None),
    (["lattice-curve", "--tau", "0,1"],
     "a = -47.2681800323\nb = 1.5812687679e-14\nJ = 1\nsymmetry order = 4", None),
    (["add", "--standard", "0,1", "--base", "0,1,0", "--p", "2,3", "--q", "0,1"],
     "(1 : 0 : -1)", None),
    (["mul", "--standard", "0,1", "--base", "0,1,0", "--p", "2,3", "--n", "6"],
     "(0 : 1 : 0)", None),
    (["tangent", "--standard", "0,1", "--p", "2,3"],
     "line: (2 : -1 : -1)\nthird: (0 : 1 : -1)", None),
    (["hesse-j", "--k", "2", "--json"], '{\n  "J": "512/343"\n}', None),
    (["jgraph-svg", "--size", "800x600"], None, None),
    (["canonical-svg", "--k", "0.5"], None, None),
    (["triangle-svg", "--a", "-4", "--b", "1"], None, None),
    (["voronoi-svg", "--tau", "0.5,0.8"], None, None),
)
# 14P on y^2 = x^3 - 2 from P = (3, 5): heights pass the float range here
MUL_14 = (["mul", "--standard", "0,-2", "--base", "0,1,0", "--p", "3,5", "--n", "14"],
          oracles.integer_triple(oracles.projective(oracles.weierstrass_multiply(
              Fraction(0), 14, (Fraction(3), Fraction(5))))))


@dataclass(frozen=True)
class CliItem:
    argv: tuple
    expected: str
    compare: str  # "all", "head", "tail" or "sha256"


def cli_inputs(seed: int):
    hashes = reference()["cli"]
    items = []
    for argv, text, part in README_COMMANDS:
        if text is None:
            items.append(CliItem(tuple(argv), hashes[" ".join(argv)], "sha256"))
        else:
            items.append(CliItem(tuple(argv), text, part or "all"))
    x, y, z = MUL_14[1]
    items.append(CliItem(tuple(MUL_14[0]), f"({x} : {y} : {z})", "all"))
    random.Random(seed).shuffle(items)
    return items


def cli_env(root: Path):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(root: Path, argv):
    return subprocess.run(
        [sys.executable, "-m", "cubica.cli", *argv], cwd=root, env=cli_env(root),
        capture_output=True, timeout=60,
    )


def stdout_matches(item: CliItem, out: bytes) -> bool:
    if item.compare == "sha256":
        return hashlib.sha256(out).hexdigest() == item.expected
    text = out.decode().rstrip("\n")
    want = item.expected.split("\n")
    lines = text.split("\n")
    if item.compare == "head":
        lines = lines[:len(want)]
    elif item.compare == "tail":
        lines = lines[-len(want):]
    return lines == want


class ExitCode(Exception):
    """A CLI command ended with an unexpected exit status."""

    def __init__(self, code):
        super().__init__(f"exit status {code}")
        self.exit_code = code


def cli_op(root, item, step):
    def run():
        proc = run_cli(root, item.argv)
        if proc.returncode != 0:
            raise ExitCode(proc.returncode)
        return proc.stdout

    out = step.call(f"cli.{item.argv[0]}", run)
    step.check("cli", stdout_matches(item, out))
