import math

import numpy as np
import pytest

from cubica.hesse import hesse_form
from cubica.march import implicit_curve, is_closed, marching_segments, stitch
from cubica.cubic import evaluate_grid
from cubica.render import _disk_chart


def test_circle_closes():
    polys = implicit_curve(lambda x, y: x * x + y * y - 1.0,
                           (-2, 2, -2, 2), 201)
    assert len(polys) == 1
    (poly,) = polys
    assert is_closed(poly)
    for (x, y) in poly:
        assert abs(math.hypot(x, y) - 1.0) < 2e-2


def test_line_stays_open():
    polys = implicit_curve(lambda x, y: y - 0.5 * x,
                           (-1, 1, -1, 1), 101)
    assert len(polys) == 1
    assert not is_closed(polys[0])


def test_field_of_one_axis_is_broadcast():
    # y - 0.25 has shape (resolution, 1); the grid spreads it over x
    xs = np.linspace(-1, 1, 41)
    polys = implicit_curve(lambda x, y: y - 0.25, (-1, 1, -1, 1), 41)
    assert len(polys) == 1
    (poly,) = polys
    assert not is_closed(poly)
    assert sorted(x for x, _ in poly) == xs.tolist()
    assert all(abs(y - 0.25) < 1e-12 for _, y in poly)
    assert implicit_curve(lambda x, y: 1.0, (-1, 1, -1, 1), 41) == []


def test_nan_mask_clips_domain():
    def fn(x, y):
        inside = x * x + y * y < 1.0
        return np.where(inside, y - x, np.nan)

    polys = implicit_curve(fn, (-2, 2, -2, 2), 201)
    assert len(polys) == 1
    for (x, y) in polys[0]:
        assert x * x + y * y <= 1.0 + 1e-6


def test_two_components_separate():
    # (x^2 + y^2 - 1)(x^2 + y^2 - 4) has two nested circles
    def fn(x, y):
        r2 = x * x + y * y
        return (r2 - 1.0) * (r2 - 4.0)

    polys = implicit_curve(fn, (-3, 3, -3, 3), 241)
    assert len(polys) == 2
    assert all(is_closed(p) for p in polys)


def test_empty_field():
    polys = implicit_curve(lambda x, y: x * 0 + y * 0 + 1.0,
                           (-1, 1, -1, 1), 51)
    assert polys == []


# ---------------------------------------------------------------------------
# the scalar marching loop and the chain-growing stitch, cell by cell, as a
# second algorithm for the vectorised ones
# ---------------------------------------------------------------------------


def _scalar_key(p):
    return (round(p[0], 9), round(p[1], 9))


def _scalar_segments(xs, ys, vals):
    vals = np.where(vals == 0.0, 1e-300, vals)
    xs = [np.float64(x) for x in xs]
    ys = [np.float64(y) for y in ys]
    segs = []
    for j in range(len(ys) - 1):
        for i in range(len(xs) - 1):
            v = (vals[j, i], vals[j, i + 1], vals[j + 1, i + 1], vals[j + 1, i])
            if any(math.isnan(t) for t in v):
                continue
            code = sum(1 << n for n, t in enumerate(v) if t > 0.0)
            if code in (0, 15):
                continue
            x0, x1 = xs[i], xs[i + 1]
            y0, y1 = ys[j], ys[j + 1]
            corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
            pts = {}
            for n in range(4):
                a, b = n, (n + 1) % 4
                if (v[a] > 0.0) != (v[b] > 0.0):
                    (xa, ya), (xb, yb) = corners[a], corners[b]
                    t = v[a] / (v[a] - v[b])
                    pts[n] = (xa + t * (xb - xa), ya + t * (yb - ya))

            def emit(ea, eb):
                if _scalar_key(pts[ea]) != _scalar_key(pts[eb]):
                    segs.append((pts[ea], pts[eb]))

            if len(pts) == 2:
                ks = sorted(pts)
                emit(ks[0], ks[1])
            else:
                center = (v[0] + v[1] + v[2] + v[3]) / 4.0
                if (center > 0.0) == (v[0] > 0.0):
                    emit(3, 0)
                    emit(1, 2)
                else:
                    emit(0, 1)
                    emit(2, 3)
    return segs


def _scalar_stitch(segs):
    ends = {}
    for idx, (a, b) in enumerate(segs):
        ends.setdefault(_scalar_key(a), []).append(idx)
        ends.setdefault(_scalar_key(b), []).append(idx)
    used = [False] * len(segs)
    polylines = []
    for start in range(len(segs)):
        if used[start]:
            continue
        used[start] = True
        chain = list(segs[start])
        for head in (False, True):
            while True:
                tip = chain[0] if head else chain[-1]
                nxt = next((i for i in ends[_scalar_key(tip)] if not used[i]), None)
                if nxt is None:
                    break
                used[nxt] = True
                p, q = segs[nxt]
                far = q if _scalar_key(p) == _scalar_key(tip) else p
                if head:
                    chain.insert(0, far)
                else:
                    chain.append(far)
                if _scalar_key(chain[0]) == _scalar_key(chain[-1]) and len(chain) > 2:
                    break
            if _scalar_key(chain[0]) == _scalar_key(chain[-1]) and len(chain) > 2:
                break
        polylines.append(chain)
    return polylines


def _random_field(seed):
    rng = np.random.default_rng(seed)
    ny, nx = rng.integers(2, 41, size=2)
    xs = np.sort(rng.uniform(-2.0, 2.0, nx))
    ys = np.linspace(-1.0, 1.5, ny)
    if seed % 2:
        # exact zeros and many saddle cells
        vals = rng.integers(-3, 4, size=(ny, nx)).astype(float)
    else:
        vals = rng.standard_normal((ny, nx))
    if seed % 4 >= 2:
        vals[rng.random((ny, nx)) < 0.1] = np.nan
    return xs, ys, vals


@pytest.mark.parametrize("block", range(6))
def test_matches_scalar_loop_on_random_fields(block):
    for seed in range(50 * block, 50 * block + 50):
        xs, ys, vals = _random_field(seed)
        segs = marching_segments(xs, ys, vals)
        expected = _scalar_segments(xs, ys, vals)
        assert segs == expected, seed
        assert stitch(segs) == _scalar_stitch(expected), seed


def test_matches_scalar_loop_on_pencil_member():
    # the one-component member k = -2 on the pencil figure's disk grid
    window, resolution = (-1.12, 1.12, -1.12, 1.12), 512
    xs = np.linspace(window[0], window[1], resolution)
    ys = np.linspace(window[2], window[3], resolution)
    vals = evaluate_grid(hesse_form(-2.0), *_disk_chart(xs[None, :], ys[:, None]))
    segs = marching_segments(xs, ys, vals)
    expected = _scalar_segments(xs, ys, vals)
    assert len(segs) > 500
    assert segs == expected
    polys = stitch(segs)
    assert polys == _scalar_stitch(expected)
    assert [is_closed(p) for p in polys] == [
        len(p) > 2 and _scalar_key(p[0]) == _scalar_key(p[-1]) for p in polys]
