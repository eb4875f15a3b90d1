import hashlib
import json
from pathlib import Path

import pytest

from cubica.errors import InvalidCanvas, InvalidInput, SingularCurve
from cubica.lattice import Lattice
from cubica.render import RenderSpec, _fmt, _mapper, render


def test_canvas_minimum():
    with pytest.raises(InvalidCanvas):
        RenderSpec(kind="jgraph", size=(63, 64))
    RenderSpec(kind="jgraph", size=(64, 64))


def test_unknown_kind():
    with pytest.raises(InvalidInput):
        RenderSpec(kind="heatmap")


def test_fmt_six_significant_digits():
    assert _fmt(1.0 / 3.0) == "0.333333"
    assert _fmt(-0.0) == "0"
    assert _fmt(123456.78) == "123457"


@pytest.mark.parametrize("spec", [
    RenderSpec(kind="jgraph"),
    RenderSpec(kind="canonical", payload={"k": 2.0}),
    RenderSpec(kind="canonical", payload={"k": -2.0}),
    RenderSpec(kind="triangle", payload={"a": 1, "b": 1}),
    RenderSpec(kind="voronoi", payload={"lattice": Lattice(1.0, 1j)}),
])
def test_render_deterministic(spec):
    first = render(spec)
    second = render(spec)
    assert first == second
    assert first.startswith("<svg ") and first.endswith("</svg>")


def test_pencil_deterministic():
    spec = RenderSpec(kind="pencil")
    assert render(spec) == render(spec)


def test_jgraph_anchor_markers():
    svg = render(RenderSpec(kind="jgraph"))
    to_px, _ = _mapper((-3.0, 4.0, -1.0, 2.0), (640, 640))
    for anchor in ((0.0, 0.0), (-2.0, 0.0)):
        px, py = to_px(*anchor)
        needle = f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4"'
        assert needle in svg
    # dashed vertical asymptote at the singular parameter
    x, _ = to_px(1.0, 0.0)
    assert f'x1="{_fmt(x)}"' in svg and "stroke-dasharray" in svg


def test_triangle_annotation():
    svg = render(RenderSpec(kind="triangle", payload={"a": 1, "b": 1}))
    assert "isosceles" in svg
    assert "J = " in svg


def test_triangle_singular_rejected():
    with pytest.raises(SingularCurve):
        render(RenderSpec(kind="triangle", payload={"a": -3, "b": 2}))


def test_voronoi_hexagon_path():
    lat = Lattice(1.0, complex(0.5, 0.8660254037844386))
    svg = render(RenderSpec(kind="voronoi", payload={"lattice": lat}))
    cell_path = svg.split('<path d="')[1].split('"')[0]
    # hexagonal cell: six segments after the move
    assert cell_path.count("L") == 5 and cell_path.endswith("Z")


def test_canonical_isolated_point_member():
    svg = render(RenderSpec(kind="canonical", payload={"k": 1.0}))
    assert "<circle" in svg


def test_custom_size_respected():
    svg = render(RenderSpec(kind="jgraph", size=(320, 200)))
    assert 'width="320" height="200"' in svg


_REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"


def _reference_figures():
    """(label, spec, sha256) of every figure the benchmark checks; the
    hashes were recorded before the marching code was vectorised."""
    out = []
    for label, digest in json.loads(_REFERENCE.read_text())["figures"].items():
        kind, rest = label.split(":", 1)
        payload, size = rest.rsplit(":", 1)
        payload = json.loads(payload)
        if kind == "voronoi":
            payload = {"lattice": Lattice.from_tau(complex(*payload["tau"]))}
        w, h = (int(n) for n in size.split("x"))
        out.append((label, RenderSpec(kind=kind, payload=payload, size=(w, h)), digest))
    return out


def test_figures_match_recorded_bytes():
    figures = _reference_figures()
    assert len(figures) == 39
    wrong = [label for label, spec, digest in figures
             if hashlib.sha256(render(spec).encode()).hexdigest() != digest]
    assert wrong == []
