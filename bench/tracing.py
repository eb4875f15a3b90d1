"""Spans around the library's layer calls, recorded from outside the library.

While a Tracer is installed, the public functions listed in LAYERS are
replaced, in every cubica module that holds them, by wrappers that record
a span (name, start, end, parent, operation id, exception class).  Calls
the library makes to these functions itself are recorded too, as children
of the calling span, which gives each layer its self time.  Uninstalling
puts the original functions back, so untraced passes run the library as is.
"""
from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

FIELDS = ("name", "start", "end", "parent", "op", "error")


def _exactness(exact: bool) -> str:
    return ".exact" if exact else ".float"


# (module, attribute, span name or function of the call's arguments)
LAYERS = (
    ("cubica.cubic", "evaluate_grid", "cubic.evaluate_grid"),
    ("cubica.march", "marching_segments", "march.marching_segments"),
    ("cubica.march", "stitch", "march.stitch"),
    ("cubica.cubic", "find_flexes", "cubic.find_flexes"),
    ("cubica.cubic", "is_smooth", "cubic.is_smooth"),
    ("cubica.cubic", "transform",
     lambda form, a: "cubic.transform" + _exactness(form.is_exact and a.is_exact)),
    ("cubica.hesse", "to_hesse", "hesse.to_hesse"),
    ("cubica.standard", "to_standard",
     lambda form, flex: "standard.to_standard" + _exactness(form.is_exact and flex.is_exact)),
    ("cubica.group_law", "multiply",
     lambda g, n, p: "group_law.multiply" + _exactness(p.is_exact)),
    ("cubica.real_curves", "classify_real", "real_curves.classify_real"),
    ("cubica.render", "render", lambda spec: f"render.{spec.kind}"),
)
# a method, patched on its class
HESSIAN = ("cubica.cubic", "CubicForm", "hessian",
           lambda form: "cubic.hessian" + _exactness(form.is_exact))


def march_counts(vals):
    """(cells, cells touching NaN, cells the curve crosses) of one grid,
    with marching_segments' own rule: a sample counts as positive when >= 0."""
    vals = np.asarray(vals, dtype=float)
    nan = np.isnan(vals)
    pos = vals >= 0.0

    def corners(m):
        return (m[:-1, :-1], m[:-1, 1:], m[1:, :-1], m[1:, 1:])

    touched = np.logical_or.reduce(corners(nan))
    allpos = np.logical_and.reduce(corners(pos))
    anypos = np.logical_or.reduce(corners(pos))
    active = ~touched & anypos & ~allpos
    return touched.size, int(touched.sum()), int(active.sum())


class Tracer:
    """Spans of one run, kept in memory until written out."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self.march = [0, 0, 0]
        self._stack = []
        self._saved = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span[5] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            span[2] = perf_counter()

    def _wrap(self, fn, name):
        namer = name if callable(name) else (lambda *a, **k: name)
        counting = fn.__name__ == "marching_segments"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counting:
                for slot, v in enumerate(march_counts(args[2])):
                    self.march[slot] += v
            return self.call(namer(*args, **kwargs), fn, *args, **kwargs)

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "cubica" or n.startswith("cubica.")]
        for modname, attr, name in LAYERS:
            original = getattr(sys.modules[modname], attr)
            traced = self._wrap(original, name)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, traced)
        modname, cls, attr, name = HESSIAN
        klass = getattr(sys.modules[modname], cls)
        original = klass.__dict__[attr]
        self._saved.append((klass, attr, original))
        setattr(klass, attr, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_totals(self):
        """name -> [calls, total seconds, self seconds, calls that raised]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _err in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _parent, _op, err) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
            row[3] += err is not None
        return out

    def to_json(self):
        return {"fields": list(FIELDS), "spans": self.spans}
