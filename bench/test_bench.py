"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py -q"""
from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
import types
from fractions import Fraction

import numpy as np
import pytest

import oracles
import run
import tracing
import workloads

LIB = run.load_library()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def outcome(op, item, lib=LIB):
    step = run.Step()
    with step.part():
        op(lib, item, step)
    return {(layer, cls) for layer, cls, _msg in step.failures}


def perturbed(module, attr, change):
    """LIB with one function's answer passed through change()."""
    original = getattr(getattr(LIB, module), attr)
    proxy = types.SimpleNamespace(**vars(getattr(LIB, module)))
    setattr(proxy, attr, lambda *args: change(original(*args), *args))
    return types.SimpleNamespace(**{**vars(LIB), module: proxy})


@pytest.mark.parametrize("make", [workloads.figures_inputs, workloads.reduce_inputs,
                                  workloads.exact_inputs, workloads.cli_inputs])
def test_inputs_repeat_for_a_seed(make):
    assert make(5) == make(5)
    assert make(5) != make(6)


def test_figure_hash_rejects_a_changed_byte():
    item = next(i for i in workloads.figures_inputs(0) if i.kind == "triangle")
    assert outcome(workloads.figures_op, item) == set()
    lib = perturbed("render", "render", lambda svg, spec: svg.replace("<svg", "<svg ", 1))
    assert outcome(workloads.figures_op, item, lib) == {("render", "WrongAnswer")}


def _good_reduce_item():
    items = workloads.reduce_inputs(0, 20)
    return next(i for i in items
                if not isinstance(i.k, complex) and not outcome(workloads.reduce_op, i))


def _shift_point(p):
    x, y, z = (complex(c) for c in p.coords)
    return LIB.projective.ProjPoint(x + 1e-3, y, z)


REDUCE_PERTURBATIONS = {
    "cubic.find_flexes": ("cubic", "find_flexes", lambda fs, form: types.SimpleNamespace(
        points=(_shift_point(fs.points[0]),) + tuple(fs.points[1:]))),
    "standard.to_standard": ("standard", "to_standard", lambda res, form, flex: (
        LIB.standard.StandardCurve(res[0].a, res[0].b * (1 + 1e-4)), res[1])),
    "hesse.to_hesse": ("hesse", "to_hesse", lambda res, form: (res[0] + 1e-4, res[1])),
    "real_curves.classify_real": ("real_curves", "classify_real", lambda rc, form: types.SimpleNamespace(
        components=3 - rc.components, J=rc.J)),
    "group_law.multiply": ("group_law", "multiply", lambda q, g, n, p: p),
}


@pytest.mark.parametrize("layer", sorted(REDUCE_PERTURBATIONS))
def test_reduce_oracles_reject_perturbed_answers(layer):
    item = _good_reduce_item()
    module, attr, change = REDUCE_PERTURBATIONS[layer]
    assert (layer, "WrongAnswer") in outcome(workloads.reduce_op, item, perturbed(module, attr, change))


def _good_exact_item():
    return next(i for i in workloads.exact_inputs(0, 30) if not outcome(workloads.exact_op, i))


class _OffHessian(LIB.cubic.CubicForm):
    def hessian(self):
        h = super().hessian()
        return LIB.cubic.CubicForm((h.coeffs[0] + 1,) + h.coeffs[1:])


EXACT_PERTURBATIONS = {
    "cubic.transform": ("cubic", "transform", lambda f, form, a: LIB.cubic.CubicForm(
        (f.coeffs[0] + 1,) + f.coeffs[1:])),
    "cubic.is_smooth": ("cubic", "is_smooth", lambda ok, form: False),
    "hesse.to_hesse": ("hesse", "to_hesse", lambda res, form: (res[0] + 1e-4, res[1])),
    "standard.to_standard": ("standard", "to_standard", lambda res, form, flex: (
        LIB.standard.StandardCurve(res[0].a, res[0].b + 1), res[1])),
    "group_law.multiply": ("group_law", "multiply", lambda q, g, n, p: p),
}


@pytest.mark.parametrize("layer", sorted(EXACT_PERTURBATIONS))
def test_exact_oracles_reject_perturbed_answers(layer):
    item = _good_exact_item()
    module, attr, change = EXACT_PERTURBATIONS[layer]
    assert (layer, "WrongAnswer") in outcome(workloads.exact_op, item, perturbed(module, attr, change))


def test_exact_hessian_oracle_rejects_a_perturbed_answer():
    item = _good_exact_item()
    cubic = types.SimpleNamespace(**{**vars(LIB.cubic), "CubicForm": _OffHessian})
    lib = types.SimpleNamespace(**{**vars(LIB), "cubic": cubic})
    assert ("cubic.hessian", "WrongAnswer") in outcome(workloads.exact_op, item, lib)


def test_library_exceptions_are_failures_not_crashes():
    def boom(_res, form):
        raise OverflowError("too large")

    item = _good_exact_item()
    found = outcome(workloads.exact_op, item, perturbed("hesse", "to_hesse", boom))
    assert found == {("hesse.to_hesse", "OverflowError")}


def test_cli_stdout_checks():
    plain = workloads.CliItem(("x",), "J = 512/343", "all")
    assert workloads.stdout_matches(plain, b"J = 512/343\n")
    assert not workloads.stdout_matches(plain, b"J = 512/344\n")
    head = workloads.CliItem(("x",), "a\nb", "head")
    assert workloads.stdout_matches(head, b"a\nb\nc\n")
    assert not workloads.stdout_matches(head, b"a\nc\nb\n")
    tail = workloads.CliItem(("x",), "c", "tail")
    assert workloads.stdout_matches(tail, b"a\nb\nc\n")
    assert not workloads.stdout_matches(tail, b"a\nc\nb\n")
    svg = workloads.CliItem(("x",), hashlib.sha256(b"<svg/>\n").hexdigest(), "sha256")
    assert workloads.stdout_matches(svg, b"<svg/>\n")
    assert not workloads.stdout_matches(svg, b"<svg />\n")


def test_cli_exit_status_is_a_failure():
    item = next(i for i in workloads.cli_inputs(0) if i.argv[0] == "hesse-j" and len(i.argv) == 3)
    assert outcome(lambda _lib, it, step: workloads.cli_op(run.ROOT, it, step), item) == set()
    bad = workloads.CliItem(("hesse-j", "--k", "1"), item.expected, "all")
    assert outcome(lambda _lib, it, step: workloads.cli_op(run.ROOT, it, step), bad) == {
        ("cli.hesse-j", "exit3")}


def test_mul_14_expected_point_is_on_the_curve():
    x, y, z = (Fraction(c) for c in workloads.MUL_14[1])
    assert y * y * z == x ** 3 - 2 * z ** 3


def test_weierstrass_law_matches_known_torsion():
    # (2, 3) has order 6 on y^2 = x^3 + 1
    assert oracles.weierstrass_multiply(0, 6, (2, 3)) is None
    assert oracles.weierstrass_multiply(0, 3, (2, 3)) == (-1, 0)


def test_march_counts_match_a_cell_loop():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(9, 11))
    vals[2, 3] = np.nan
    vals[5, 5] = 0.0
    cells = nan_cells = active = 0
    for j in range(vals.shape[0] - 1):
        for i in range(vals.shape[1] - 1):
            v = (vals[j, i], vals[j, i + 1], vals[j + 1, i], vals[j + 1, i + 1])
            cells += 1
            if any(math.isnan(t) for t in v):
                nan_cells += 1
            elif len({t >= 0.0 for t in v}) == 2:
                active += 1
    assert tracing.march_counts(vals) == (cells, nan_cells, active)


def test_tracer_restores_the_library():
    find = LIB.cubic.find_flexes
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert LIB.hesse.find_flexes is not find
        LIB.hesse.to_hesse(LIB.cubic.CubicForm(oracles.hesse_coeffs(2.0)))
    finally:
        tracer.uninstall()
    assert LIB.hesse.find_flexes is find and LIB.cubic.find_flexes is find
    totals = tracer.layer_totals()
    calls, total, own, _failed = totals["hesse.to_hesse"]
    assert calls == 1 and totals["cubic.find_flexes"][0] == 1
    assert 0 < own < total


def _printed(monkeypatch, capsys, trace):
    monkeypatch.setattr(run, "MIN_OPS", 2)
    full = workloads.reduce_inputs
    monkeypatch.setattr(workloads, "reduce_inputs", lambda seed: full(seed, 4))
    assert run.main(["--workload", "reduce", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(monkeypatch, capsys, trace, section):
    out = _printed(monkeypatch, capsys, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared


def test_each_operation_counts_once_whatever_the_passes(monkeypatch, capsys):
    ok, bad = run.Step(), run.Step()
    bad.failures.append(("hesse.to_hesse", "ConvergenceFailure", "residual"))
    assert run.distinct_outcomes([ok, bad, ok] * 4, 4) == (3, 1)
    assert run.distinct_outcomes([ok, bad, ok, ok, ok, ok], 2) == (3, 1)
    first = _printed(monkeypatch, capsys, 0)
    monkeypatch.setattr(run, "MIN_PASSES", run.MIN_PASSES + 2)
    assert run.main(["--workload", "reduce", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    second = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert first["attempted"] == second["attempted"] == 4
    assert first["failed"] == second["failed"]


def test_benchmark_json_names_the_runner():
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["figures", "reduce", "exact"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "reduce", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
