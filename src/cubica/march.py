"""Implicit-curve extraction on a rectangular grid.

Marching squares (the two-dimensional case table of Lorensen & Cline,
"Marching cubes", SIGGRAPH 1987) with linear edge interpolation, a
centre-average rule for the two saddle cases, and NaN masking so callers
can cut the domain (e.g. to a disk) by poisoning values outside it.

The corner codes, the NaN mask and the edge crossings of every cell are
computed in numpy at once; only cells the curve crosses get any per-cell
work.  The output is fixed by three rules, which keep the SVG bytes of
every figure unchanged:

- segments come out in row-major cell order (row j, then column i), a
  cell's two crossed edges in ascending order, or a saddle's two pairs in
  the order the centre rule picks;
- an edge crossing is t = v0 / (v0 - v1), then x0 + t * (x1 - x0), in
  float64 and in that order, so every point is bit-identical;
- two points are the same when their coordinates agree after numpy's
  rounding to 9 decimals (`_key`); a segment whose ends agree is dropped,
  and `stitch` joins segments whose ends agree.
"""
from __future__ import annotations

import numpy as np

# crossed edges (ascending) of each corner code; edge n joins corner n and
# corner (n + 1) % 4, and corner n is positive when bit n of the code is set.
# Codes 0 and 15 are not crossed; the saddles 5 and 10 are set per cell.
_EDGES = np.array([
    (0, 0), (0, 3), (0, 1), (1, 3), (1, 2), (0, 0), (0, 2), (2, 3),
    (2, 3), (0, 2), (0, 0), (1, 2), (1, 3), (0, 1), (0, 3), (0, 0),
])


def marching_segments(xs, ys, vals):
    """Zero-crossing segments of a scalar field sampled at vals[j, i] =
    f(xs[i], ys[j]).  Cells touching a NaN are skipped."""
    vals = np.asarray(vals, dtype=float)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)

    def corners(grid):
        return (grid[:-1, :-1], grid[:-1, 1:], grid[1:, 1:], grid[1:, :-1])

    # a sample sitting exactly on the contour would make zero-length
    # segments and split the stitched curve, so it counts as positive here
    # and is pushed off by a hair below; the codes are one byte per cell
    p0, p1, p2, p3 = corners((vals >= 0.0).view(np.uint8))
    code = p0 | p1 << 1 | p2 << 2 | p3 << 3
    n0, n1, n2, n3 = corners(np.isnan(vals))
    jj, ii = np.nonzero(~(n0 | n1 | n2 | n3) & (code != 0) & (code != 15))
    code = code[jj, ii]
    v = np.stack([c[jj, ii] for c in corners(vals)])
    v[v == 0.0] = 1e-300
    x = np.stack([xs[ii], xs[ii + 1], xs[ii + 1], xs[ii]])
    y = np.stack([ys[jj], ys[jj], ys[jj + 1], ys[jj + 1]])
    # the crossing on edge n of every active cell; edges a cell does not
    # cross are computed too and never read
    with np.errstate(divide="ignore", invalid="ignore"):
        t = v / (v - np.roll(v, -1, axis=0))
        px = x + t * (np.roll(x, -1, axis=0) - x)
        py = y + t * (np.roll(y, -1, axis=0) - y)
    kx, ky = np.round(px, 9), np.round(py, 9)

    ea, eb = _EDGES[code].T
    saddle = (code == 5) | (code == 10)
    center = (v[0] + v[1] + v[2] + v[3]) / 4.0
    same = (center > 0.0) == (v[0] > 0.0)
    ea = np.where(saddle, np.where(same, 3, 0), ea)
    eb = np.where(saddle, np.where(same, 0, 1), eb)
    # each cell has two segment slots: the second is used by saddles only
    ea = np.stack([ea, np.where(same, 1, 2)], axis=1)
    eb = np.stack([eb, np.where(same, 2, 3)], axis=1)
    cell = np.arange(len(code))[:, None]
    # a crossing through a sample point collapses the segment
    keep = (kx[ea, cell] != kx[eb, cell]) | (ky[ea, cell] != ky[eb, cell])
    keep[:, 1] &= saddle
    ea, eb, cell = ea[keep], eb[keep], np.broadcast_to(cell, keep.shape)[keep]
    a = zip(px[ea, cell].tolist(), py[ea, cell].tolist())
    b = zip(px[eb, cell].tolist(), py[eb, cell].tolist())
    return list(zip(a, b))


def _key(p):
    return tuple(np.round(np.asarray(p, dtype=float), 9).tolist())


def stitch(segs):
    """Join segments sharing endpoints into polylines.

    Returns a list of point lists; a closed loop repeats its first point
    at the end.  Deterministic: seeded in input order, extended forward
    then backward.
    """
    # ids[2 * idx] and ids[2 * idx + 1] number the rounded ends of segment idx
    flat = np.round(np.asarray(segs, dtype=float).reshape(-1, 2), 9)
    index = {}
    ids = [index.setdefault(key, len(index)) for key in map(tuple, flat.tolist())]
    ends = [[] for _ in index]
    for n, key in enumerate(ids):
        ends[key].append(n >> 1)
    used = [False] * len(segs)
    polylines = []
    for start in range(len(segs)):
        if used[start]:
            continue
        used[start] = True
        tail = list(segs[start])
        # the head grows reversed, so that the chain is head[::-1] + tail
        head = []
        first, last = ids[2 * start], ids[2 * start + 1]
        closed = False
        for grow in (tail, head):
            tip = last if grow is tail else first
            while not closed:
                for idx in ends[tip]:
                    if not used[idx]:
                        break
                else:
                    break
                used[idx] = True
                # the chain grows by the end that does not meet the tip
                far = int(ids[2 * idx] == tip)
                grow.append(segs[idx][far])
                tip = ids[2 * idx + far]
                if grow is tail:
                    last = tip
                else:
                    first = tip
                closed = first == last and len(head) + len(tail) > 2
        head.reverse()
        polylines.append(head + tail)
    return polylines


def implicit_curve(fn, window, resolution):
    """Polylines of fn(x, y) = 0 over window = (xmin, xmax, ymin, ymax).

    fn receives the sample axes as broadcastable arrays, X of shape
    (1, resolution) and Y of shape (resolution, 1), so that numpy
    arithmetic on them yields the field at every grid point while powers
    of one coordinate are computed on a vector; it may return any shape
    that broadcasts to (resolution, resolution), a scalar included.  NaN
    masks points out.
    """
    xmin, xmax, ymin, ymax = window
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    vals = np.asarray(fn(xs[None, :], ys[:, None]), dtype=float)
    vals = np.broadcast_to(vals, (resolution, resolution))
    return stitch(marching_segments(xs, ys, vals))


def is_closed(polyline) -> bool:
    return len(polyline) > 2 and _key(polyline[0]) == _key(polyline[-1])
