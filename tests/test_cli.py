import json

import pytest

from cubica.cli import _fmt_scalar, main
from cubica.errors import ConvergenceFailure


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_hesse_j(capsys):
    code, out = run(capsys, "hesse-j", "--k", "2")
    assert code == 0
    assert out.strip() == "J = 512/343"


def test_hesse_j_json(capsys):
    code, out = run(capsys, "hesse-j", "--k", "2", "--json")
    assert code == 0
    assert json.loads(out) == {"J": "512/343"}


def test_j_invariant_standard(capsys):
    code, out = run(capsys, "j-invariant", "--standard", "1,1")
    assert code == 0
    assert out.strip() == "J = 4/31"


def test_flexes_count(capsys):
    code, out = run(capsys, "flexes", "--standard", "0,1")
    assert code == 0
    assert len(out.strip().splitlines()) == 9


def test_singular_lists_points(capsys):
    # the README block, byte for byte
    code, out = run(capsys, "singular", "--hesse", "1")
    assert code == 0
    assert out == (
        "(1 : -0.5-0.866025403784j : -0.5+0.866025403784j)\n"
        "(1 : -0.5+0.866025403784j : -0.5-0.866025403784j)\n"
        "(1 : 1 : 1)\n"
    )


def test_singular_smooth(capsys):
    code, out = run(capsys, "singular", "--hesse", "0")
    assert code == 0
    assert out.strip() == "smooth"


def test_curve_file_input(tmp_path, capsys):
    path = tmp_path / "curve.json"
    # x^3 + y^3 + z^3 - 6 x y z
    path.write_text(json.dumps({"coefficients": [
        "1/1", "0/1", "0/1", "0/1", "-6/1", "0/1", "1/1", "0/1", "0/1", "1/1",
    ]}))
    code, out = run(capsys, "j-invariant", "--curve", str(path))
    assert code == 0
    assert abs(float(out.split("=")[1]) - 512.0 / 343.0) < 1e-8


def test_add_frozen(capsys):
    code, out = run(capsys, "add", "--standard", "0,1",
                    "--base", "0,1,0", "--p", "2,3", "--q", "0,1")
    assert code == 0
    assert out.strip() == "(1 : 0 : -1)"


def test_mul_negative(capsys):
    code, out = run(capsys, "mul", "--standard", "0,1",
                    "--base", "0,1,0", "--n", "-1", "--p", "2,3")
    assert code == 0
    assert out.strip() == "(2 : -3 : 1)"


def test_mul_exact_past_float_range(capsys):
    from test_group_law import P14, affine_add, integer_triple

    a, b, p, n = P14
    want = None
    for _ in range(n):
        want = affine_add(a, want, p)
    code, out = run(capsys, "mul", "--standard", f"{a},{b}", "--base", "0,1,0",
                    "--p", f"{p[0]},{p[1]}", "--n", str(n))
    assert code == 0
    assert out.strip() == "(%d : %d : %d)" % integer_triple(want)


def test_tangent(capsys):
    code, out = run(capsys, "tangent", "--standard", "0,1", "--p", "2,3")
    assert code == 0
    assert "line:" in out and "third:" in out


def test_classify_real(capsys):
    code, out = run(capsys, "classify-real", "--hesse", "2")
    assert code == 0
    assert "k = 2" in out and "components = 2" in out


def test_hesse_orbit_product(capsys):
    code, out = run(capsys, "hesse-orbit", "--k", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13
    assert lines[-1].startswith("product/64 = ")
    assert abs(float(lines[-1].split("=")[1]) - 512.0 / 343.0) < 1e-8


def test_chi(capsys):
    code, out = run(capsys, "chi", "--a", "-1", "--b", "0")
    assert code == 0
    assert abs(float(out.split("=")[1]) - 1.0) < 1e-9


def test_lattice_curve(capsys):
    code, out = run(capsys, "lattice-curve", "--tau", "0,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["symmetry_order"] == 4
    assert abs(data["J"][0] - 1.0) < 1e-7


def test_zero_prints_without_sign():
    assert _fmt_scalar(-0.0) == "0"
    assert _fmt_scalar(complex(-0.0, 0.0)) == "0"
    assert _fmt_scalar(complex(-0.0, 2.0)) == "0+2j"
    assert _fmt_scalar(-1.5) == "-1.5"


def test_flexes_readme_head(capsys):
    code, out = run(capsys, "flexes", "--hesse", "2")
    assert code == 0
    assert out.splitlines()[:3] == [
        "(0 : 1 : -1)",
        "(0 : 1 : 0.5-0.866025403784j)",
        "(0 : 1 : 0.5+0.866025403784j)",
    ]


def test_to_hesse_canonical_prints_exact_zero(capsys):
    # README: y^2 = x^3 + 1 reduces to the Fermat member; rounding dust in
    # k must not print
    code, out = run(capsys, "to-hesse", "--standard", "0,1", "--canonical")
    assert code == 0
    assert out.strip() == "k = 0"


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.txt"
    code, _ = run(capsys, "hesse-j", "--k", "2", "-o", str(path))
    assert code == 0
    assert path.read_text().strip() == "J = 512/343"


def test_svg_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for path in (a, b):
        code, _ = run(capsys, "canonical-svg", "--k", "2", "-o", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_exit_invalid_scalar(capsys):
    code, _ = run(capsys, "hesse-j", "--k", "bogus")
    assert code == 2


def test_exit_point_off_curve(capsys):
    code, _ = run(capsys, "add", "--standard", "0,1",
                  "--base", "0,1,0", "--p", "5,5", "--q", "0,1")
    assert code == 2


def test_exit_small_canvas(capsys):
    code, _ = run(capsys, "jgraph-svg", "--size", "32x32")
    assert code == 2


def test_exit_domain_error(capsys):
    code, _ = run(capsys, "j-invariant", "--hesse", "1")
    assert code == 3


def test_exit_convergence_failure(capsys, monkeypatch):
    def boom(form):
        raise ConvergenceFailure("stuck")

    monkeypatch.setattr("cubica.cli.find_flexes", boom)
    code = main(["flexes", "--standard", "0,1"])
    assert code == 4


def test_exit_unknown_command(capsys):
    code = main(["frobnicate"])
    assert code == 2


def test_missing_curve_source(capsys):
    code = main(["flexes"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("canonical-svg", "--k", "nan"),
    ("pencil-svg", "--ks", "nan"),
    ("pencil-svg", "--ks", "0.5,nan,2"),
])
def test_exit_nan_parameter(capsys, argv):
    code = main(list(argv))
    assert code == 2
    assert "NaN" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["inf", "-inf"])
def test_canonical_infinite_parameter_is_triangle(capsys, k):
    code, out = run(capsys, "canonical-svg", "--k", k)
    assert code == 0
    # the triangle member: three lines, drawn as branches and as asymptotes
    assert out.count("<path") == 3 and out.count("<line") == 3
