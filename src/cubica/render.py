"""SVG emitters for the five figure kinds.

Every renderer is deterministic: fixed sampling grids, a fixed palette,
and all coordinates routed through one 6-significant-digit formatter, so
identical specs produce byte-identical documents.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cubic import evaluate_grid
from .errors import InvalidCanvas, InvalidInput
from .hesse import hesse_form, j_of_k
from .lattice import Lattice, reduced_basis, voronoi_cell
from .march import is_closed, marching_segments, stitch
from .real_curves import _clip_line_to_window, canonical_picture
from .standard import StandardCurve, j_invariant, triangle_shape

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class RenderSpec:
    """One figure request: what to draw, with what payload, how large."""

    kind: str
    payload: dict = field(default_factory=dict)
    size: tuple = (640, 640)
    output: object = None

    def __post_init__(self):
        w, h = self.size
        if w < 64 or h < 64:
            raise InvalidCanvas(f"canvas {w}x{h} is below the 64x64 minimum")
        if self.kind not in ("pencil", "canonical", "triangle", "jgraph", "voronoi"):
            raise InvalidInput(f"unknown figure kind {self.kind!r}")


def _fmt(x) -> str:
    v = float(x) + 0.0
    if v == 0.0:
        v = 0.0
    return "%.6g" % v


def _path(points, world_to_px, close=False) -> str:
    parts = []
    for i, (x, y) in enumerate(points):
        px, py = world_to_px(x, y)
        parts.append(("M" if i == 0 else "L") + _fmt(px) + "," + _fmt(py))
    if close:
        parts.append("Z")
    return "".join(parts)


def _document(size, body) -> str:
    w, h = size
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">'
    )
    return head + body + "</svg>"


def _mapper(window, size, margin=24.0):
    xmin, xmax, ymin, ymax = window
    w, h = size
    sx = (w - 2 * margin) / (xmax - xmin)
    sy = (h - 2 * margin) / (ymax - ymin)
    s = min(sx, sy)
    cx = (xmin + xmax) / 2.0
    cy = (ymin + ymax) / 2.0

    def world_to_px(x, y):
        return (w / 2.0 + (x - cx) * s, h / 2.0 - (y - cy) * s)

    return world_to_px, s


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#e377c2")


# ---------------------------------------------------------------------------
# pencil in the disk model
# ---------------------------------------------------------------------------

_Q1 = (1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0)
_Q2 = (1.0 / math.sqrt(6.0), 1.0 / math.sqrt(6.0), -2.0 / math.sqrt(6.0))
_Q3 = (1.0 / _SQRT3, 1.0 / _SQRT3, 1.0 / _SQRT3)

_PENCIL_DEFAULT_KS = (-2.0, -0.75, 0.0, 0.5, 2.0, 4.0)
_PENCIL_GRID = 512


def _disk_chart(u, v):
    """The point (x, y, z) = u Q1 + v Q2 + w Q3 of the unit sphere, w >= 0,
    seen at (u, v) of the disk; NaN outside the disk."""
    w2 = 1.0 - u * u - v * v
    w = np.sqrt(np.where(w2 >= 0.0, w2, np.nan))
    return tuple(u * a + v * b + w * c for a, b, c in zip(_Q1, _Q2, _Q3))


def _disk_coords(p3):
    w = sum(a * b for a, b in zip(p3, _Q3))
    sign = -1.0 if w < 0 else 1.0
    n = math.sqrt(sum(a * a for a in p3))
    return (
        sign * sum(a * b for a, b in zip(p3, _Q1)) / n,
        sign * sum(a * b for a, b in zip(p3, _Q2)) / n,
    )


def render_pencil(spec: RenderSpec) -> str:
    ks = tuple(float(k) for k in spec.payload.get("ks") or _PENCIL_DEFAULT_KS)
    if any(math.isnan(k) for k in ks):
        raise InvalidInput("pencil parameter k is NaN")
    world = (-1.12, 1.12, -1.12, 1.12)
    to_px, scale = _mapper(world, spec.size)
    body = []
    # boundary circle = the line x+y+z=0 at infinity of the affine chart,
    # which is also the real locus of the k=1 member
    cx, cy = to_px(0.0, 0.0)
    body.append(
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(scale)}" '
        'fill="none" stroke="#888888" stroke-width="2"/>'
    )
    # the chart does not depend on k: one for all members, on the grid of
    # the square window, whose two axes are the same samples
    axis = np.linspace(world[0], world[1], _PENCIL_GRID)
    chart = _disk_chart(axis[None, :], axis[:, None])

    def curves(k):
        return stitch(marching_segments(axis, axis, evaluate_grid(hesse_form(k), *chart)))

    # the triangle member: three lines
    for poly in curves(float("inf")):
        body.append(
            f'<path d="{_path(poly, to_px)}" fill="none" '
            'stroke="#bbbbbb" stroke-width="1" stroke-dasharray="5,3"/>'
        )
    for idx, k in enumerate(ks):
        color = _PALETTE[idx % len(_PALETTE)]
        for poly in curves(k):
            closed = is_closed(poly)
            body.append(
                f'<path d="{_path(poly, to_px, close=closed)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
    # isolated singular point of the k=1 member at (1:1:1)
    px, py = to_px(*_disk_coords((1.0, 1.0, 1.0)))
    body.append(
        f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="#888888"/>'
    )
    for base in ((0.0, 1.0, -1.0), (-1.0, 0.0, 1.0), (1.0, -1.0, 0.0)):
        px, py = to_px(*_disk_coords(base))
        body.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="#000000"/>'
        )
    return _document(spec.size, "".join(body))


# ---------------------------------------------------------------------------
# graph of k -> J
# ---------------------------------------------------------------------------

_JGRAPH_WINDOW = (-3.0, 4.0, -1.0, 2.0)
_JGRAPH_GAP = 0.02
_JGRAPH_SAMPLES = 700


def render_jgraph(spec: RenderSpec) -> str:
    kmin, kmax, jmin, jmax = spec.payload.get("window", _JGRAPH_WINDOW)
    to_px, _ = _mapper((kmin, kmax, jmin, jmax), spec.size)
    body = []
    # axes
    x0, y0 = to_px(kmin, 0.0)
    x1, y1 = to_px(kmax, 0.0)
    body.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
        'stroke="#cccccc" stroke-width="1"/>'
    )
    x0, y0 = to_px(0.0, jmin)
    x1, y1 = to_px(0.0, jmax)
    body.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
        'stroke="#cccccc" stroke-width="1"/>'
    )
    # vertical asymptote at k=1
    x0, y0 = to_px(1.0, jmin)
    x1, y1 = to_px(1.0, jmax)
    body.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
        'stroke="#999999" stroke-width="1" stroke-dasharray="6,4"/>'
    )
    pad = 0.5 * (jmax - jmin)
    for lo, hi in ((kmin, 1.0 - _JGRAPH_GAP), (1.0 + _JGRAPH_GAP, kmax)):
        run = []
        for i in range(_JGRAPH_SAMPLES):
            k = lo + (hi - lo) * i / (_JGRAPH_SAMPLES - 1)
            j = float(j_of_k(k))
            if jmin - pad <= j <= jmax + pad:
                run.append((k, j))
            else:
                if len(run) >= 2:
                    body.append(
                        f'<path d="{_path(run, to_px)}" fill="none" '
                        'stroke="#1f77b4" stroke-width="2"/>'
                    )
                run = []
        if len(run) >= 2:
            body.append(
                f'<path d="{_path(run, to_px)}" fill="none" '
                'stroke="#1f77b4" stroke-width="2"/>'
            )
    for (mk, mj) in ((0.0, 0.0), (-2.0, 0.0), (1.0 - _SQRT3, 1.0), (1.0 + _SQRT3, 1.0)):
        px, py = to_px(mk, mj)
        body.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="#d62728"/>'
        )
    return _document(spec.size, "".join(body))


# ---------------------------------------------------------------------------
# canonical affine pictures
# ---------------------------------------------------------------------------


def render_canonical(spec: RenderSpec) -> str:
    k = spec.payload["k"]
    pic = canonical_picture(k)
    win = pic.window
    to_px, _ = _mapper(win, spec.size)
    body = []
    for (u, v, w) in pic.asymptotes:
        seg = _clip_line_to_window(u, v, w, win)
        if seg is None:
            continue
        (ax, ay), (bx, by) = seg
        x0, y0 = to_px(ax, ay)
        x1, y1 = to_px(bx, by)
        body.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
            'stroke="#aaaaaa" stroke-width="1" stroke-dasharray="6,4"/>'
        )
    for poly, closed in zip(pic.branches, pic.closed):
        body.append(
            f'<path d="{_path(poly, to_px, close=closed)}" fill="none" '
            'stroke="#1f77b4" stroke-width="2"/>'
        )
    if pic.isolated_point is not None:
        px, py = to_px(*pic.isolated_point)
        body.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="#1f77b4"/>'
        )
    return _document(spec.size, "".join(body))


# ---------------------------------------------------------------------------
# triangle of roots
# ---------------------------------------------------------------------------


def render_triangle(spec: RenderSpec) -> str:
    a = spec.payload["a"]
    b = spec.payload["b"]
    curve = StandardCurve(a, b)
    shape = triangle_shape(curve)
    vs = [(r.real, r.imag) for r in shape.vertices]
    xs = [p[0] for p in vs]
    ys = [p[1] for p in vs]
    spread = max(max(xs) - min(xs), max(ys) - min(ys), 1e-6)
    pad = 0.25 * spread
    win = (min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad)
    to_px, _ = _mapper(win, spec.size, margin=40.0)
    body = []
    body.append(
        f'<path d="{_path(vs, to_px, close=True)}" '
        'fill="none" stroke="#1f77b4" stroke-width="2"/>'
    )
    for (x, y) in vs:
        px, py = to_px(x, y)
        body.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="#d62728"/>'
        )
    j = j_invariant(curve)
    jc = complex(j)
    if abs(jc.imag) <= 1e-12 * max(1.0, abs(jc)):
        jtext = _fmt(jc.real)
    else:
        jtext = f"{_fmt(jc.real)}{'+' if jc.imag >= 0 else '-'}{_fmt(abs(jc.imag))}i"
    label = f"J = {jtext} ({shape.tag})"
    body.append(
        f'<text x="12" y="24" font-family="sans-serif" font-size="16" '
        f'fill="#000000">{label}</text>'
    )
    return _document(spec.size, "".join(body))


# ---------------------------------------------------------------------------
# Voronoi cell
# ---------------------------------------------------------------------------


def render_voronoi(spec: RenderSpec) -> str:
    lat = spec.payload["lattice"]
    if not isinstance(lat, Lattice):
        raise InvalidInput("voronoi payload needs a lattice")
    cell = voronoi_cell(lat)
    v1, v2 = reduced_basis(lat)
    reach = 2.2 * max(abs(v1), abs(v2), max(abs(z) for z in cell.vertices))
    win = (-reach, reach, -reach, reach)
    to_px, _ = _mapper(win, spec.size)
    body = []
    pts = [(z.real, z.imag) for z in cell.vertices]
    body.append(
        f'<path d="{_path(pts, to_px, close=True)}" '
        'fill="#dce9f5" stroke="#1f77b4" stroke-width="2"/>'
    )
    for m in range(-3, 4):
        for n in range(-3, 4):
            z = m * v1 + n * v2
            if abs(z.real) > reach or abs(z.imag) > reach:
                continue
            px, py = to_px(z.real, z.imag)
            r = 4 if (m, n) == (0, 0) else 2.5
            body.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(r)}" fill="#d62728"/>'
            )
    return _document(spec.size, "".join(body))


_RENDERERS = {
    "pencil": render_pencil,
    "jgraph": render_jgraph,
    "canonical": render_canonical,
    "triangle": render_triangle,
    "voronoi": render_voronoi,
}


def render(spec: RenderSpec) -> str:
    return _RENDERERS[spec.kind](spec)
