"""Command-line interface: formats, exit codes, determinism, negative control."""

import io
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cuspbase import dimensions
from cuspbase.cli import main
from cuspbase.verify import PRINTED_SERIES


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_dims_row():
    code, text = run_cli(["dims", "--level", "2", "--weights", "2..18"])
    assert code == 0
    assert "level 2 dim_S: 0 0 0 1 1 2 2 3 3" in text
    assert text.startswith("# cuspbase.v1")


def test_dims_level9():
    code, text = run_cli(["dims", "--level", "9", "--weights", "2..16"])
    assert code == 0
    assert "level 9 dim_S: 0 1 3 5 7 9 11 13" in text


def test_dims_at_a_ten_digit_prime_level():
    # every invariant comes from one trial-division pass per call, so a
    # prime level near 10^9 is answered at once
    code, text = run_cli(["dims", "--level", "1000000007", "--weights", "4..4"])
    assert code == 0
    assert text.splitlines() == [
        "# cuspbase.v1 dims weights=4..4",
        "level 1000000007 dim_S: 250000001",
        "level 1000000007 dim_M: 250000003",
    ]


def test_dims_factorises_each_level_once(monkeypatch):
    # the default weights 2..16 are eight columns of two rows each, and
    # all sixteen cells read the level's invariants off one pass
    passes = []
    factorization = dimensions._factorization

    def counting(n):
        passes.append(n)
        return factorization(n)

    monkeypatch.setattr(dimensions, "_factorization", counting)
    dimensions._invariants.cache_clear()
    code, text = run_cli(["dims", "--level", "1000000007"])
    assert code == 0
    assert len(text.splitlines()) == 3
    assert passes == [1000000007]


def test_dims_trivial():
    code, text = run_cli(["dims", "--level", "1", "--weights", "2..2"])
    assert code == 0
    assert "level 1 dim_S: 0" in text


@pytest.mark.parametrize("level", ["0", "-4"])
def test_dims_level_below_one_is_a_usage_error(level, capsys):
    code, text = run_cli(["dims", "--level", level])
    assert code == 2 and text == ""
    assert capsys.readouterr().err.startswith("cuspbase: error:")


def test_basis_level2_weight8():
    code, text = run_cli(["basis", "--level", "2", "--weight", "8",
                          "--space", "cusp"])
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0].startswith("# cuspbase.v1 basis")
    assert lines[1].startswith("1 1: 0 1 -8 12 64 -210 -96 1016")


def test_basis_empty_space():
    code, text = run_cli(["basis", "--level", "3", "--weight", "2",
                          "--space", "cusp"])
    assert code == 0
    assert "rows=0" in text


def test_basis_level7_weight6():
    code, text = run_cli(["basis", "--level", "7", "--weight", "6",
                          "--space", "cusp"])
    assert code == 0
    rows = text.strip().split("\n")[1:]
    assert len(rows) == 3
    assert [r.split(":")[0] for r in rows] == ["1 1", "2 2", "3 3"]


def test_basis_jsonl():
    code, text = run_cli(["basis", "--level", "7", "--weight", "6",
                          "--space", "cusp", "--format", "jsonl"])
    assert code == 0
    lines = text.strip().split("\n")
    header = json.loads(lines[0])
    assert header["kind"] == "basis" and header["rows"] == 3
    rows = [json.loads(line) for line in lines[1:]]
    assert [r["valuation"] for r in rows] == [1, 2, 3]
    from fractions import Fraction

    for r in rows:
        assert set(r) == {"level", "weight", "space", "index", "valuation",
                          "coeffs"}
        for c in r["coeffs"]:
            assert isinstance(c, str)
            Fraction(c)  # every entry is a lossless "p" or "p/q" string


def test_basis_precision_floor():
    code, _ = run_cli(["basis", "--level", "2", "--weight", "8", "--prec", "2"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["expand", "--expr", "E4(1)", "--prec", "0"],
    ["basis", "--level", "2", "--weight", "8", "--prec", "0"],
])
def test_prec_zero_is_a_usage_error(argv, capsys):
    # an explicit --prec 0 is a value, not a missing option
    code, text = run_cli(argv)
    assert code == 2 and text == ""
    assert "cuspbase: error:" in capsys.readouterr().err


@pytest.mark.parametrize("expr, caret", [
    ("1/0", 2),
    ("0/0*E4(1)", 2),
    ("qser(0: 1,1/0)", 12),
    ("E4(0)", 3),
    ("E6(-2)", 3),
    ("2^-1", 2),
    ("E4(1)@0", 6),
    # atom arguments out of range: at the number, or at the atom's first
    # character when its constructor rejects the arguments together
    ("Ew2(0)", 4),
    ("delta(0)", 6),
    ("1+delta(11)", 8),
    ("wpa(0,0,0)", 0),
    ("2*wpa(1,2,3)", 2),
    ("eta(0:1)", 0),
    ("eta(1:1,1:2)", 0),
    # generator references are checked against the catalogue at the E
    ("E[2,4,7]", 0),
    ("E[2,11,0]", 0),
    # a lattice point is rejected by its TorsionPoint
    ("wpa(2,0,1)", 0),
    ("wpa(4,0,2)", 0),
])
def test_bad_number_is_a_positioned_usage_error(expr, caret, capsys):
    code, text = run_cli(["expand", "--expr", expr, "--prec", "3"])
    assert code == 2 and text == ""
    err = capsys.readouterr().err.splitlines()
    assert err[:2] == [expr, " " * caret + "^"]
    assert err[2].startswith("cuspbase: error:")
    assert err[2].endswith(f"(at position {caret})")


@pytest.mark.parametrize("level", [11, 0])
def test_delta_outside_the_catalogue_names_the_range(level, capsys):
    # every level has a structuring form; the catalogue's range is what the
    # level lies outside, named as for E[2,11,0], with the caret at the number
    expr = f"delta({level})"
    code, text = run_cli(["expand", "--expr", expr, "--prec", "3"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err.splitlines() == [
        expr, " " * 6 + "^",
        f"cuspbase: error: level {level} is outside the catalogued range "
        "1..10 (at position 6)",
    ]


@pytest.mark.parametrize("expr", ["E4(1)+E6(1)", "eta(1:1)"])
def test_weight_mismatch_is_a_usage_error(expr, capsys):
    # the tree came from the command line, so a bad weight is the user's
    code, text = run_cli(["expand", "--expr", expr, "--prec", "3"])
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("cuspbase: error:") and "WeightMismatch" not in err


def test_weight_mismatch_after_a_weightless_factor_is_found(capsys):
    # a qser literal has no weight, and the factors after it are still checked
    errors = []
    for expr in ("qser(0: 1)*(E4(1)+E6(1))", "(E4(1)+E6(1))*qser(0: 1)"):
        code, text = run_cli(["expand", "--expr", expr, "--prec", "5"])
        assert code == 2 and text == ""
        errors.append(capsys.readouterr().err)
    assert errors == ["cuspbase: error: sum mixes weights 4 and 6\n"] * 2


@pytest.mark.parametrize("argv", [["--wpa", "4,0,2"], ["--expr", "wpa(4,0,2)"]])
def test_lattice_point_is_a_usage_error(argv, capsys):
    # z = 2*tau is a lattice point for (1, 2*tau): the user typed it
    code, text = run_cli(["expand", *argv, "--prec", "3"])
    assert code == 2 and text == ""
    err = capsys.readouterr().err.splitlines()
    assert err[:2] == [argv[1], "^"]
    assert err[2].startswith("cuspbase: error:") and "LatticePoint" not in err[2]


@pytest.mark.parametrize("option, text, caret", [
    ("--eta", "2:16,2:-8", 0),   # duplicate scale, at the atom
    ("--eta", "2:16,x", 5),
    ("--wpa", "1,0", 3),         # a missing argument, at the end
    ("--wpa", "2,0,5,1", 5),     # trailing input
])
def test_eta_and_wpa_errors_are_positioned(option, text, caret, capsys):
    code, out = run_cli(["expand", option, text, "--prec", "3"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err.splitlines()
    assert err[:2] == [text, " " * caret + "^"]
    assert err[2].startswith("cuspbase: error:")
    assert err[2].endswith(f"(at position {caret})")


@pytest.mark.parametrize("text, line", [
    ("", "eta() = 1 + O(q^3)"),
    (" 2 : 16 , 1 : -8 ", "eta(2:16,1:-8) = q + 8*q^2 + O(q^3)"),
    # every whitespace the parser skips leaves the source text, so the
    # record stays on one line
    ("2:16,\t1:-8", "eta(2:16,1:-8) = q + 8*q^2 + O(q^3)"),
    ("2:16,\n1:-8\n", "eta(2:16,1:-8) = q + 8*q^2 + O(q^3)"),
])
def test_eta_text_with_spaces_or_no_factors_expands(text, line):
    code, out = run_cli(["expand", "--eta", text, "--prec", "3"])
    assert code == 0
    assert out.splitlines() == ["# cuspbase.v1 series prec=3", line]


def test_half_integer_weight_names_the_quotient(capsys):
    code, out = run_cli(["expand", "--expr", "eta(12:1)", "--prec", "3"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        "cuspbase: error: eta quotient eta(12:1) has half-integer weight 1/2\n")


def test_expand_eta():
    code, text = run_cli(["expand", "--eta", "4:8,2:-4", "--prec", "10"])
    assert code == 0
    assert "q + 4*q^3 + 6*q^5 + 8*q^7 + 13*q^9 + O(q^10)" in text


def test_expand_eta_below_valuation():
    code, text = run_cli(["expand", "--eta", "7:14,1:-2", "--prec", "3"])
    assert code == 0
    assert text.endswith("eta(7:14,1:-2) = 0 + O(q^3)\n")


def test_expand_expr_scaled_weierstrass():
    code, text = run_cli(["expand", "--expr=-3*wpa(2,0,2)", "--prec", "8"])
    assert code == 0
    assert "1 + 24*q + 24*q^2 + 96*q^3" in text


def test_expand_constant():
    code, text = run_cli(["expand", "--expr", "1", "--prec", "4"])
    assert code == 0
    assert "= 1 + O(q^4)" in text


def test_expand_syntax_error_exit():
    code, _ = run_cli(["expand", "--expr", "E[2,4", "--prec", "4"])
    assert code == 2
    code, _ = run_cli(["expand", "--eta", "2:16,2:-8", "--prec", "4"])
    assert code == 2


def test_verify_level_paper():
    code, text = run_cli(["verify", "--level", "2", "--suite", "paper"])
    assert code == 0
    assert "FAIL" not in text
    assert "PASS printed:F8_2_1" in text


def test_verify_corrupted_catalog_fails(monkeypatch):
    corrupted = dict(PRINTED_SERIES)
    level, name, first, coeffs = corrupted["printed:E6_7_2"]
    broken = list(coeffs)
    broken[3] += 1  # exponent first + 3 = 5
    corrupted["printed:E6_7_2"] = (level, name, first, broken)
    monkeypatch.setattr("cuspbase.verify.PRINTED_SERIES", corrupted)
    code, text = run_cli(["verify", "--level", "7", "--suite", "paper"])
    assert code == 1
    line = next(l for l in text.split("\n") if l.startswith("FAIL"))
    assert "printed:E6_7_2" in line
    assert "exponent 5" in line


def test_verify_output_deterministic():
    _, first = run_cli(["verify", "--level", "4", "--suite", "paper"])
    _, second = run_cli(["verify", "--level", "4", "--suite", "paper"])
    assert first == second


def test_basis_level_that_is_not_a_number_is_a_usage_error(capsys):
    code, text = run_cli(["basis", "--level", "x", "--weight", "4"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == \
        "cuspbase: error: level must be an integer, got 'x'\n"


@pytest.mark.parametrize("level", ["0", "11", "26"])
def test_verify_uncatalogued_level_is_a_usage_error(level, capsys):
    code, text = run_cli(["verify", "--level", level])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == \
        f"cuspbase: error: level {level} is outside the catalogued range 1..10\n"


def test_usage_errors():
    code, _ = run_cli(["dims", "--level", "2", "--weights", "3..7"])
    assert code == 2
    code, _ = run_cli(["dims", "--level", "x"])
    assert code == 2
    code, _ = run_cli(["verify", "--level", "26"])
    assert code == 2


def test_out_of_memory_is_a_usage_error_naming_the_request(monkeypatch, capsys):
    def exhausted(args, out):
        raise MemoryError

    monkeypatch.setattr("cuspbase.cli.cmd_expand", exhausted)
    code, text = run_cli(["expand", "--expr", "E4(1)", "--prec", "100000000"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == ("cuspbase: error: out of memory for request: "
                                       "expand --expr 'E4(1)' --prec 100000000\n")


def test_env_precision_override(monkeypatch):
    monkeypatch.setenv("CUSPBASE_PREC", "12")
    code, text = run_cli(["expand", "--eta", "2:16,1:-8"])
    assert code == 0
    assert "O(q^12)" in text
    monkeypatch.setenv("CUSPBASE_PREC", "zero")
    code, _ = run_cli(["expand", "--eta", "2:16,1:-8"])
    assert code == 2


def readme_examples():
    """The argument lists of the ``cuspbase`` lines in the README's command
    block, in order, leaving out ``verify`` (CI runs it as a step of its own)."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("\n```", 1)[0].splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("cuspbase ") and not line.startswith("cuspbase verify")]


def test_readme_examples_print_the_recorded_bytes():
    # tests/data/readme_examples.out is their stdout, also diffed in CI
    examples = readme_examples()
    assert len(examples) == 6
    out = io.StringIO()
    for argv in examples:
        assert main(argv, out=out) == 0
    recorded = Path(__file__).parent / "data" / "readme_examples.out"
    assert out.getvalue() == recorded.read_text()


def test_module_invocation():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "cuspbase", "dims", "--level", "5",
         "--weights", "2..16"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "level 5 dim_S: 0 1 1 3 3 5 5 7" in proc.stdout


def test_importing_the_cli_loads_no_dataclasses_inspect_or_json():
    # each is milliseconds of every command's start-up; json is imported by
    # the one writer that uses it
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; before = set(sys.modules); import cuspbase.cli; "
            "print(' '.join(sorted({'dataclasses', 'inspect', 'json'} "
            "& (set(sys.modules) - before))))")
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_basis_bytes_identical_across_processes():
    root = Path(__file__).resolve().parents[1]
    argv = [sys.executable, "-B", "-m", "cuspbase", "basis", "--level", "10",
            "--weight", "8", "--space", "cusp", "--format", "jsonl"]
    env = {"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"}
    first = subprocess.run(argv, capture_output=True, env=env)
    second = subprocess.run(argv, capture_output=True, env=env)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
