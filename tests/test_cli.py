import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from purecubic.cli import main
from purecubic.mordell import MordellCurve


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    records = [json.loads(line) for line in out.strip().splitlines()]
    return code, records, err


def assert_no_floats(node):
    assert not isinstance(node, float), f"float leaked into output: {node}"
    if isinstance(node, dict):
        for v in node.values():
            assert_no_floats(v)
    elif isinstance(node, list):
        for v in node:
            assert_no_floats(v)


class TestCurveOps:
    def test_add(self, capsys):
        code, out, _ = run(capsys, "curve-add", "-2", "3", "5", "3", "5")
        assert code == 0
        assert out.strip() == "(129/100, -383/1000)"

    def test_add_negative_rational_coordinates(self, capsys):
        code, out, _ = run(capsys, "curve-add", "-2", "129/100", "-383/1000", "3", "5")
        assert code == 0
        assert out.strip() == "(164323/29241, -66234835/5000211)"

    def test_add_infinity(self, capsys):
        code, out, _ = run(capsys, "curve-add", "-2", "inf", "3", "5")
        assert code == 0
        assert out.strip() == "(3, 5)"

    def test_double(self, capsys):
        code, out, _ = run(capsys, "curve-double", "-4", "2", "-2")
        assert code == 0
        assert out.strip() == "(5, 11)"

    def test_mul(self, capsys):
        code, out, _ = run(capsys, "curve-mul", "-2", "3", "3", "5")
        assert code == 0
        assert out.strip() == "(164323/29241, -66234835/5000211)"

    def test_mul_negative_scalar(self, capsys):
        code, out, _ = run(capsys, "curve-mul", "-2", "-1", "3", "5")
        assert code == 0
        assert out.strip() == "(3, -5)"

    def test_halve(self, capsys):
        code, records, _ = run_json(capsys, "halve", "-4", "5", "11")
        assert code == 0
        assert records[0]["preimages"] == [{"x": "2", "y": "-2"}]

    def test_halve_empty(self, capsys):
        code, out, _ = run(capsys, "halve", "-2", "3", "5")
        assert code == 0
        assert out.strip() == "(none)"

    def test_search(self, capsys):
        code, records, _ = run_json(
            capsys, "search", "-26", "--e-bound", "1", "--a-bound", "40"
        )
        assert code == 0
        points = records[0]["points"]
        assert {"x": "3", "y": "1"} in points
        assert {"x": "35", "y": "-207"} in points

    def test_search_bounds_after_equals(self, capsys):
        equals = run(capsys, "search", "-26", "--e-bound=1", "--a-bound=40")
        assert equals[0] == 0 and equals == run(capsys, "search", "-26", "--e-bound", "1", "--a-bound", "40")

    @pytest.mark.parametrize("bound", [" 5", "1_0", "\u0663", "5\n", "1/2", "2.0"])
    @pytest.mark.parametrize("form", ["separate", "equals"])
    def test_search_bound_in_the_integer_grammar(self, capsys, bound, form):
        flag = ["--e-bound", bound] if form == "separate" else [f"--e-bound={bound}"]
        code, out, err = run(capsys, "search", "-26", *flag, "--a-bound", "40")
        assert code == 2 and out == ""
        assert err.startswith("error: not a")

    @pytest.mark.parametrize("flag", ["--json=yes", "--json=true", "--json="])
    def test_json_takes_no_value(self, capsys, flag):
        code, out, err = run(capsys, flag, "norm", "2", "1", "1", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: --json takes no value")

    def test_search_requires_bounds(self, capsys):
        code, _, err = run(capsys, "search", "-26")
        assert code == 2
        assert "e-bound" in err


class TestElementOps:
    def test_from_point(self, capsys):
        code, records, _ = run_json(capsys, "from-point", "2", "1", "3", "5")
        assert code == 0
        assert records[0]["alpha"] == {"r": "-9/10", "s": "3/5", "t": "1/5", "m": "2"}
        assert records[0]["a"] == "129/100"

    def test_to_point(self, capsys):
        code, records, _ = run_json(capsys, "to-point", "2", "-9/10", "3/5", "1/5")
        assert code == 0
        assert records[0]["point"] == {"x": "3", "y": "5"}
        assert records[0]["b"] == "1"

    def test_to_point_of_a_rational_element(self, capsys):
        # alpha = 5 squares to 25 - 0*w: the point at infinity, with no twist y^2 = x^3 - 2*0^3
        code, out, _ = run(capsys, "to-point", "2", "5", "0", "0")
        assert code == 0
        assert out == "inf: alpha = 5 is rational, so b = 0 and there is no twist   [alpha^2 = 25]\n"
        code, records, _ = run_json(capsys, "to-point", "2", "5", "0", "0")
        assert records == [{"op": "to-point", "m": "2", "b": "0", "a": "25", "point": "inf"}]

    @pytest.mark.parametrize("argv", [
        ("from-point", "2", "0", "3", "5"),
        ("kappa", "113", "0", "97/4", "847/8"),
        ("ext-poly", "113", "0", "97/4", "847/8"),
    ], ids=["from-point", "kappa", "ext-poly"])
    def test_zero_twist_scale_is_domain_error(self, capsys, argv):
        # b = 0 leaves no twist: a named error like to-point's, not a usage error
        assert run(capsys, *argv) == (1, "", "ZeroElement: twist scale b must be nonzero\n")

    def test_to_point_not_binomial_is_domain_error(self, capsys):
        code, _, err = run(capsys, "to-point", "2", "1", "1", "1")
        assert code == 1
        assert "NotBinomial" in err

    def test_star_worked_example(self, capsys):
        code, records, _ = run_json(
            capsys,
            "star", "2",
            "9/10", "-3/5", "-1/5",
            "-16641/7660", "1290/383", "1000/383",
        )
        assert code == 0
        rec = records[0]
        assert rec["result"]["s"] == "-28099233/66234835"
        assert rec["result"]["t"] == "-5000211/66234835"
        assert rec["result"]["r"] == "27002048329/22652313570"
        assert rec["parts"]["S_minus"] == "-342/383"
        assert rec["parts"]["Sigma"] == "-6138414/733445"

    def test_square_test_positive(self, capsys):
        code, out, _ = run(capsys, "square-test", "4", "5", "1")
        assert code == 0
        assert out == "5 - (1)*w = gamma^2, gamma = -1 + 1*w + 1/2*w^2 (w = cbrt(4))\n"

    def test_square_test_negative(self, capsys):
        code, records, _ = run_json(capsys, "square-test", "26", "35", "1")
        assert code == 0
        assert records[0]["square"] is False and records[0]["root"] is None

    def test_norm(self, capsys):
        code, records, _ = run_json(capsys, "norm", "2", "5", "0", "-1")
        assert code == 0
        assert records[0]["norm"] == "121"
        assert records[0]["trace"] == "15"


class TestClassfieldOps:
    def test_kappa(self, capsys):
        code, records, _ = run_json(capsys, "kappa", "47", "1", "6", "13")
        assert code == 0
        rec = records[0]
        assert rec["a"] == "6" and rec["e"] == "1"
        assert rec["norm"] == "169" and rec["norm_sqrt"] == "13"
        assert rec["claims_unramified"] is False  # e is odd

    def test_ext_poly(self, capsys):
        code, out, _ = run(capsys, "ext-poly", "113", "3", "97/4", "847/8")
        assert code == 0
        assert out.strip() == "x^6 - 291x^4 + 28227x^2 - 717409"

    def test_ext_poly_square_alpha(self, capsys):
        code, _, err = run(capsys, "ext-poly", "4", "1", "5", "11")
        assert code == 1
        assert "AlphaIsSquare" in err

    @pytest.mark.parametrize("command", ["kappa", "ext-poly"])
    def test_exceeded_budget_is_loud(self, capsys, command):
        # 10P = 2*(5P), but halving it needs a factorization rho cannot finish
        C = MordellCurve(-2)
        P = C.scalar_mul(10, C.point(3, 5))
        code, out, err = run(capsys, command, "2", "1", str(P.x), str(P.y))
        assert code == 1 and out == ""
        assert err.startswith("EffortExceeded: rho: ") and "of 500000 iterations" in err

    def test_table1(self, capsys):
        code, records, _ = run_json(capsys, "table1")
        assert code == 0
        summary = records[-1]
        assert summary["op"] == "table1-summary"
        assert summary["rows"] == 25 and summary["all_passed"] is True
        m113 = [r for r in records if r.get("m") == "113"]
        assert len(m113) == 3 and all(r["sextic_match"] for r in m113)

    def test_table1_text_prints_sextics(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0
        assert "x^6 - 291x^4 + 28227x^2 - 717409" in out
        assert "x^6 + 261x^4 + 22707x^2 - 3404025" in out


class TestCliContract:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2
        assert "usage" in err

    def test_no_command(self, capsys):
        assert run(capsys, "--json")[0] == 2

    def test_malformed_rational(self, capsys):
        code, _, err = run(capsys, "curve-add", "-2", "3.5", "5", "3", "5")
        assert code == 2

    def test_domain_error_names_on_stderr(self, capsys):
        code, _, err = run(capsys, "curve-add", "-2", "3", "4", "3", "5")
        assert code == 1
        assert err.startswith("InvalidPoint")

    @pytest.mark.parametrize(
        "argv",
        [
            ("curve-add", "-2", "3", "5", "129/100", "-383/1000"),
            ("halve", "-4", "5", "11"),
            ("from-point", "2", "1", "3", "5"),
            ("square-test", "20", "-19", "-7"),
            ("kappa", "113", "3", "97/4", "847/8"),
            ("table1",),
        ],
    )
    def test_json_roundtrip_and_exactness(self, capsys, argv):
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 0
        for line in out.strip().splitlines():
            rec = json.loads(line)
            assert_no_floats(rec)
            # parse -> re-render is the identity
            assert json.dumps(rec) == line


needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                       reason="this interpreter has no int-to-str digit limit")


class TestCliRobustness:
    @needs_digit_limit
    def test_big_output_prints(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "curve-mul", "-2", "200", "3", "5")
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        curve = MordellCurve(-2)
        R = curve.scalar_mul(200, curve.point(3, 5))
        sys.set_int_max_str_digits(0)
        try:
            assert out.strip() == str(R)
        finally:
            sys.set_int_max_str_digits(limit)

    @needs_digit_limit
    def test_argv_keeps_int_digit_guard(self, capsys):
        huge = "1" * (sys.get_int_max_str_digits() + 1)
        assert run(capsys, "curve-add", "-2", huge, "5", "3", "5")[0] == 2

    def test_table_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "table1", "--table", str(tmp_path / "missing.json"))
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_table_without_rows(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        path.write_text('{"version": 1}')
        code, out, err = run(capsys, "table1", "--table", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "rows" in err

    def test_precision_is_an_unknown_flag(self, capsys):
        code, _, err = run(capsys, "square-test", "20", "-19", "-7", "--precision", "50")
        assert code == 2
        assert "unknown flag --precision" in err


_COMMAND_NAMES = ["curve-add", "curve-double", "curve-mul", "halve", "search", "from-point",
                  "to-point", "star", "square-test", "norm", "kappa", "ext-poly", "table1"]
_small_int = st.integers(-12, 12).map(str)
_small_rat = st.builds(lambda p, q: f"{p}/{q}", st.integers(-12, 12), st.integers(1, 4))
_junk = st.sampled_from(["inf", "x", "3.5", "1/0", "", "-", "--", "2_0", "--json=yes", "--effort=x"])
_flag = st.one_of(
    st.sampled_from([["--json"], ["--table", "/nonexistent"], ["--table"], ["--precision=8"]]),
    st.tuples(st.sampled_from(["--effort", "--precision", "--e-bound", "--a-bound"]), _small_int),
)
_argument = st.one_of(_small_int, _small_rat, _junk, st.text(max_size=3))


@given(st.sampled_from(_COMMAND_NAMES), st.lists(_argument, max_size=7), st.lists(_flag, max_size=3))
@example("table1", [], [["--table", "/nonexistent"]])
@settings(max_examples=300, deadline=None)
def test_any_argv_exits_with_a_code(command, arguments, flags):
    argv = [command, *arguments, *(tok for flag in flags for tok in flag)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)


def test_table_rows_not_a_list(capsys, tmp_path):
    path = tmp_path / "table.json"
    path.write_text('{"rows": 5}')
    code, out, err = run(capsys, "table1", "--table", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "rows" in err


def test_table_not_an_object(capsys, tmp_path):
    path = tmp_path / "table.json"
    path.write_text("[1, 2]")
    code, out, err = run(capsys, "table1", "--table", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, stdout", [
    (["-c", "import purecubic, sys; assert 'mpmath' not in sys.modules"], ""),
    (["-m", "purecubic.cli", "curve-add", "-2", "3", "5", "3", "5"], "(129/100, -383/1000)\n"),
    (["-c", "from purecubic import CubicField, sqrt_in_field; "
            "print(sqrt_in_field(CubicField(2).element(5, 0, -1)))"], "-1 + 1*w + 1*w^2 (w = cbrt(2))\n"),
    (["-c", "from purecubic.arith import rational_reconstruct; from fractions import Fraction; "
            "print(rational_reconstruct(Fraction(1, 2), 10), rational_reconstruct(Fraction(129, 100), 10**6))"],
     "1/2 129/100\n"),
])
def test_mpmath_is_not_imported(argv, stdout):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == stdout
    imported = {line.split("|")[-1].strip() for line in proc.stderr.splitlines() if line.count("|") == 2}
    assert "purecubic" in imported and "mpmath" not in imported


@pytest.mark.parametrize("row, field", [
    ({"m": 1, "field_m": None, "k": 2, "x_num": 1, "x_den": 1}, "field_m"),
    ({"m": 1, "field_m": 1, "k": 2, "x_num": 1, "x_den": 0}, "x_den"),
    ({"m": 1, "field_m": 0, "k": 2, "x_num": 1, "x_den": 1}, "field_m"),
], ids=["field_m-null", "x_den-zero", "field_m-zero"])
def test_table_row_field_is_a_usage_error(capsys, tmp_path, row, field):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"rows": [row]}))
    code, out, err = run(capsys, "table1", "--table", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: row 0 (m=1): ") and field in err.splitlines()[0]


def test_effort_is_an_unknown_flag(capsys):
    for argv in (["--effort", "5", "halve", "-2", "3", "5"], ["halve", "-2", "3", "5", "--effort=5"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: unknown flag --effort")


@pytest.mark.parametrize("field, value", [("alpha_b_coeff_printed", [1]), ("expected_sextics", [[None]])])
def test_table_row_check_field_is_a_usage_error(capsys, tmp_path, field, value):
    row = {"m": "11", "field_m": "11", "k": "-11", "x_num": "9", "x_den": "4", "alpha_a": "9",
           "alpha_b_coeff": "-4", "expected_flags": {}, field: value}
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"rows": [row]}))
    code, out, err = run(capsys, "table1", "--table", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: row 0 (m='11'): ") and field in err.splitlines()[0]


def _readme_commands():
    """The `purecubic ...` lines of README's CLI block, as argument lists."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("purecubic ")]


def test_readme_examples(capsys):
    commands = _readme_commands()
    assert len(commands) == 12
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0 and out and not err, argv
        code, records, err = run_json(capsys, *argv)
        assert code == 0 and records and not err, argv
        assert all(isinstance(r, dict) and "op" in r for r in records), argv
