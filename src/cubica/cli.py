"""Command-line interface.

Exit codes: 0 success, 2 invalid input, 3 domain error (singular member,
degenerate lattice, and so on), 4 convergence failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .cubic import CubicForm, find_flexes, singular_points, tangent_line
from .errors import (
    ConvergenceFailure,
    CubicaError,
    InvalidCanvas,
    InvalidInput,
    SingularCurve,
)
from .group_law import BasedGroup, add, chord_tangent, curve_point, multiply
from .hesse import hesse_form, hesse_orbit, j_of_k, to_hesse
from .lattice import Lattice, lattice_to_curve, torus_symmetry_order
from .real_curves import classify_real, cross_ratio_chi
from .render import RenderSpec, render
from .scalars import parse_scalar, scalar_to_json
from .standard import StandardCurve, j_invariant, to_standard


def _fmt_scalar(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        return str(v)
    # adding 0.0 turns -0.0 into 0.0, so a zero never prints as "-0"
    if isinstance(v, complex):
        if v.imag == 0:
            return "%.12g" % (v.real + 0.0)
        return "%.12g%+.12gj" % (v.real + 0.0, v.imag)
    return "%.12g" % (float(v) + 0.0)


def _clean_coord(v):
    # display hygiene for normalized (unit max-norm) coordinates only
    if isinstance(v, complex):
        if abs(v.imag) <= 1e-10:
            v = v.real
        elif abs(v.real) <= 1e-10:
            v = complex(0.0, v.imag)
    if isinstance(v, float) and abs(v) <= 1e-10:
        v = 0.0
    return v


def _fmt_point(p) -> str:
    x, y, z = (_clean_coord(c) for c in p.normalized().coords)
    return f"({_fmt_scalar(x)} : {_fmt_scalar(y)} : {_fmt_scalar(z)})"


def _point_json(p):
    return [scalar_to_json(c) for c in p.normalized().coords]


def _collapse_real(v):
    if isinstance(v, complex) and abs(v.imag) <= 1e-9 * (1.0 + abs(v)):
        return v.real
    return v


def _parse_point(text: str):
    parts = [s for s in text.split(",") if s != ""]
    if len(parts) == 2:
        x, y = (parse_scalar(s) for s in parts)
        return (x, y, 1)
    if len(parts) == 3:
        return tuple(parse_scalar(s) for s in parts)
    raise InvalidInput(f"a point is x,y or x,y,z; got {text!r}")


def _parse_pair(text: str, what: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidInput(f"{what} takes two comma-separated values; got {text!r}")
    return tuple(parse_scalar(s) for s in parts)


def _parse_k(text: str):
    t = text.strip().lower()
    if t in ("inf", "+inf", "-inf", "oo", "infinity"):
        return float("-inf") if t == "-inf" else float("inf")
    return parse_scalar(text)


def _add_curve_opts(sp):
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--curve", metavar="FILE",
                   help="JSON file with the 10 cubic coefficients")
    g.add_argument("--hesse", metavar="K",
                   help="pencil member with parameter K")
    g.add_argument("--standard", metavar="A,B",
                   help="curve y^2 = x^3 + A x + B")


def _load_curve(args) -> CubicForm:
    if args.curve is not None:
        try:
            with open(args.curve) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InvalidInput(f"cannot read {args.curve}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"{args.curve} is not valid JSON: {exc}") from exc
        if isinstance(data, dict):
            data = data.get("coefficients")
        if not isinstance(data, list) or len(data) != 10:
            raise InvalidInput(f"{args.curve} must hold 10 coefficients")
        from .scalars import scalar_from_json

        try:
            coeffs = tuple(scalar_from_json(c) for c in data)
        except (ValueError, TypeError, KeyError) as exc:
            raise InvalidInput(f"bad coefficient in {args.curve}") from exc
        return CubicForm(coeffs)
    if args.hesse is not None:
        return hesse_form(_parse_k(args.hesse))
    a, b = _parse_pair(args.standard, "--standard")
    return StandardCurve(a, b).cubic_form()


def _emit(args, text: str):
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_svg(args, svg: str):
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(svg)
    else:
        sys.stdout.write(svg + "\n")


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2)


# ---------------------------------------------------------------------------
# data commands
# ---------------------------------------------------------------------------


def _cmd_flexes(args):
    fs = find_flexes(_load_curve(args))
    if args.json:
        _emit(args, _json_dump({
            "flexes": [_point_json(p) for p in fs],
            "residuals": list(fs.residuals),
        }))
    else:
        _emit(args, "\n".join(_fmt_point(p) for p in fs))


def _cmd_singular(args):
    pts = singular_points(_load_curve(args))
    if args.json:
        _emit(args, _json_dump({
            "smooth": not pts,
            "singular_points": [_point_json(p) for p in pts],
        }))
    elif not pts:
        _emit(args, "smooth")
    else:
        _emit(args, "\n".join(_fmt_point(p) for p in pts))


def _standard_at_flex(args):
    """to_standard of the input curve at its flex number --flex (default 0)."""
    form = _load_curve(args)
    fs = find_flexes(form)
    i = 0 if args.flex is None else args.flex
    if not 0 <= i < 9:
        raise InvalidInput(f"--flex must be 0..8; got {i}")
    return to_standard(form, fs[i])


def _cmd_j_invariant(args):
    if args.flex is None and args.hesse is not None:
        j = j_of_k(_parse_k(args.hesse))
    elif args.flex is None and args.standard is not None:
        j = j_invariant(StandardCurve(*_parse_pair(args.standard, "--standard")))
    else:
        j = j_invariant(_standard_at_flex(args)[0])
    if args.json:
        _emit(args, _json_dump({"J": scalar_to_json(j)}))
    else:
        _emit(args, f"J = {_fmt_scalar(j)}")


def _cmd_to_standard(args):
    curve, amap = _standard_at_flex(args)
    if args.json:
        _emit(args, _json_dump({
            "a": scalar_to_json(curve.a),
            "b": scalar_to_json(curve.b),
            "map": [[scalar_to_json(v) for v in row] for row in amap.rows],
        }))
    else:
        _emit(args, f"a = {_fmt_scalar(curve.a)}\nb = {_fmt_scalar(curve.b)}")


def _cmd_to_hesse(args):
    form = _load_curve(args)
    k, amap = to_hesse(form, canonical=args.canonical)
    if args.json:
        _emit(args, _json_dump({
            "k": scalar_to_json(k),
            "map": [[scalar_to_json(v) for v in row] for row in amap.rows],
        }))
    else:
        _emit(args, f"k = {_fmt_scalar(k)}")


def _cmd_hesse_j(args):
    j = j_of_k(_parse_k(args.k))
    if args.json:
        _emit(args, _json_dump({"J": scalar_to_json(j)}))
    else:
        _emit(args, f"J = {_fmt_scalar(j)}")


def _cmd_hesse_orbit(args):
    k = _parse_k(args.k)
    orbit = [_collapse_real(v) for v in hesse_orbit(k)]
    prod = 1
    for v in orbit:
        prod = prod * v
    prod = _collapse_real(prod / 64)
    if args.json:
        _emit(args, _json_dump({
            "orbit": [scalar_to_json(v) for v in orbit],
            "product_over_64": scalar_to_json(prod),
        }))
    else:
        lines = [_fmt_scalar(v) for v in orbit]
        lines.append(f"product/64 = {_fmt_scalar(prod)}")
        _emit(args, "\n".join(lines))


def _group(args, form):
    base = curve_point(form, _parse_point(args.base))
    return BasedGroup(form, base)


def _cmd_add(args):
    form = _load_curve(args)
    g = _group(args, form)
    p = curve_point(form, _parse_point(args.p))
    q = curve_point(form, _parse_point(args.q))
    r = add(g, p, q)
    if args.json:
        _emit(args, _json_dump({"sum": _point_json(r.point)}))
    else:
        _emit(args, _fmt_point(r.point))


def _cmd_mul(args):
    form = _load_curve(args)
    g = _group(args, form)
    p = curve_point(form, _parse_point(args.p))
    r = multiply(g, args.n, p)
    if args.json:
        _emit(args, _json_dump({"multiple": _point_json(r.point)}))
    else:
        _emit(args, _fmt_point(r.point))


def _cmd_tangent(args):
    form = _load_curve(args)
    p = curve_point(form, _parse_point(args.p))
    line = tangent_line(form, p.point)
    if line is None:
        raise SingularCurve("the gradient vanishes at the given point")
    third = chord_tangent(p, p)
    if args.json:
        _emit(args, _json_dump({
            "line": [scalar_to_json(c) for c in line.normalized().coeffs],
            "third": _point_json(third.point),
        }))
    else:
        u, v, w = line.normalized().coeffs
        _emit(args, f"line: ({_fmt_scalar(u)} : {_fmt_scalar(v)} : {_fmt_scalar(w)})\n"
                    f"third: {_fmt_point(third.point)}")


def _cmd_classify_real(args):
    rc = classify_real(_load_curve(args))
    if args.json:
        _emit(args, _json_dump({
            "k": scalar_to_json(rc.k),
            "J": scalar_to_json(rc.J),
            "components": rc.components,
            "sign_a": rc.sign_a,
            "sign_b": rc.sign_b,
            "real_flexes": [_point_json(p) for p in rc.real_flexes],
        }))
    else:
        lines = [
            f"k = {_fmt_scalar(rc.k)}",
            f"J = {_fmt_scalar(rc.J)}",
            f"components = {rc.components}",
            f"sign_a = {rc.sign_a:+d}" if rc.sign_a else "sign_a = 0",
            f"sign_b = {rc.sign_b:+d}" if rc.sign_b else "sign_b = 0",
            "real flexes:",
        ]
        lines.extend("  " + _fmt_point(p) for p in rc.real_flexes)
        _emit(args, "\n".join(lines))


def _cmd_chi(args):
    c = StandardCurve(parse_scalar(args.a), parse_scalar(args.b))
    v = cross_ratio_chi(c)
    if args.json:
        _emit(args, _json_dump({"chi": scalar_to_json(v)}))
    else:
        _emit(args, f"chi = {_fmt_scalar(v)}")


def _cmd_lattice_curve(args):
    tau = parse_scalar(args.tau)
    lat = Lattice.from_tau(complex(tau))
    curve = lattice_to_curve(lat)
    j = j_invariant(curve)
    order = torus_symmetry_order(lat)
    if args.json:
        _emit(args, _json_dump({
            "a": scalar_to_json(curve.a),
            "b": scalar_to_json(curve.b),
            "J": scalar_to_json(j),
            "symmetry_order": order,
        }))
    else:
        _emit(args, "\n".join([
            f"a = {_fmt_scalar(curve.a)}",
            f"b = {_fmt_scalar(curve.b)}",
            f"J = {_fmt_scalar(j)}",
            f"symmetry order = {order}",
        ]))


# ---------------------------------------------------------------------------
# figure commands
# ---------------------------------------------------------------------------


def _parse_size(text: str):
    parts = text.lower().split("x")
    try:
        w, h = (int(s) for s in parts)
    except ValueError as exc:
        raise InvalidInput(f"--size is WxH; got {text!r}") from exc
    return (w, h)


def _svg_spec(args, kind: str, payload: dict) -> RenderSpec:
    size = _parse_size(args.size) if args.size else (640, 640)
    return RenderSpec(kind=kind, payload=payload, size=size,
                      output=getattr(args, "output", None))


def _cmd_pencil_svg(args):
    payload = {}
    if args.ks:
        payload["ks"] = tuple(float(parse_scalar(s)) for s in args.ks.split(","))
    _emit_svg(args, render(_svg_spec(args, "pencil", payload)))


def _cmd_jgraph_svg(args):
    _emit_svg(args, render(_svg_spec(args, "jgraph", {})))


def _cmd_canonical_svg(args):
    k = _parse_k(args.k)
    _emit_svg(args, render(_svg_spec(args, "canonical", {"k": k})))


def _cmd_triangle_svg(args):
    payload = {"a": parse_scalar(args.a), "b": parse_scalar(args.b)}
    _emit_svg(args, render(_svg_spec(args, "triangle", payload)))


def _cmd_voronoi_svg(args):
    tau = parse_scalar(args.tau)
    lat = Lattice.from_tau(complex(tau))
    _emit_svg(args, render(_svg_spec(args, "voronoi", {"lattice": lat})))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubica",
        description="Plane cubic curves: flexes, invariants, group law, "
                    "lattices, real classification and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def data_cmd(name, fn, help_text, curve=True):
        sp = sub.add_parser(name, help=help_text)
        if curve:
            _add_curve_opts(sp)
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")
        sp.add_argument("-o", "--output", metavar="FILE",
                        help="write to FILE instead of stdout")
        sp.set_defaults(func=fn)
        return sp

    data_cmd("flexes", _cmd_flexes, "the nine inflection points")
    data_cmd("singular", _cmd_singular, "singular points, if any")

    sp = data_cmd("j-invariant", _cmd_j_invariant, "the J invariant")
    sp.add_argument("--flex", type=int, default=None,
                    help="which flex to reduce at (0..8)")

    sp = data_cmd("to-standard", _cmd_to_standard,
                  "reduce to y^2 = x^3 + a x + b")
    sp.add_argument("--flex", type=int, default=None,
                    help="which flex to send to infinity (0..8)")

    sp = data_cmd("to-hesse", _cmd_to_hesse, "carry the curve into the pencil")
    sp.add_argument("--canonical", action="store_true",
                    help="pick the orbit representative of smallest modulus")

    sp = data_cmd("hesse-j", _cmd_hesse_j, "J of the pencil member k",
                  curve=False)
    sp.add_argument("--k", required=True)

    sp = data_cmd("hesse-orbit", _cmd_hesse_orbit,
                  "the 12 equivalent parameters and their product over 64",
                  curve=False)
    sp.add_argument("--k", required=True)

    sp = data_cmd("add", _cmd_add, "group sum of two points")
    sp.add_argument("--base", required=True, metavar="PT")
    sp.add_argument("--p", required=True, metavar="PT")
    sp.add_argument("--q", required=True, metavar="PT")

    sp = data_cmd("mul", _cmd_mul, "integer multiple of a point")
    sp.add_argument("--base", required=True, metavar="PT")
    sp.add_argument("--n", required=True, type=int)
    sp.add_argument("--p", required=True, metavar="PT")

    sp = data_cmd("tangent", _cmd_tangent,
                  "tangent line and its third intersection")
    sp.add_argument("--p", required=True, metavar="PT")

    data_cmd("classify-real", _cmd_classify_real,
             "real invariants: k, J, components, signs, real flexes")

    sp = data_cmd("chi", _cmd_chi, "cross-ratio of the three real roots",
                  curve=False)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)

    sp = data_cmd("lattice-curve", _cmd_lattice_curve,
                  "curve attached to the lattice spanned by 1 and tau",
                  curve=False)
    sp.add_argument("--tau", required=True, metavar="RE,IM")

    def svg_cmd(name, fn, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("-o", "--output", metavar="FILE",
                        help="write the SVG to FILE instead of stdout")
        sp.add_argument("--size", metavar="WxH", default=None)
        sp.set_defaults(func=fn)
        return sp

    sp = svg_cmd("pencil-svg", _cmd_pencil_svg,
                 "members of the pencil in the spherical disk chart")
    sp.add_argument("--ks", metavar="K1,K2,...", default=None)

    svg_cmd("jgraph-svg", _cmd_jgraph_svg, "graph of k against J")

    sp = svg_cmd("canonical-svg", _cmd_canonical_svg,
                 "symmetric affine picture of a real pencil member")
    sp.add_argument("--k", required=True)

    sp = svg_cmd("triangle-svg", _cmd_triangle_svg,
                 "root triangle of x^3 + a x + b")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)

    sp = svg_cmd("voronoi-svg", _cmd_voronoi_svg,
                 "Voronoi cell of the lattice spanned by 1 and tau")
    sp.add_argument("--tau", required=True, metavar="RE,IM")

    return parser


_VALUE_FLAGS = {"--standard", "--hesse", "--base", "--p", "--q", "--k",
                "--a", "--b", "--tau", "--ks", "--n"}


def _joined_argv(argv):
    """Glue negative values onto their flags so argparse keeps them."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (tok in _VALUE_FLAGS and nxt is not None and len(nxt) > 1
                and nxt[0] == "-" and (nxt[1].isdigit() or nxt[1] in ".i")):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_joined_argv(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except (InvalidInput, InvalidCanvas) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CubicaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
