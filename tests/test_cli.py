"""Problem-file parsing, report rendering, exit codes, golden output."""

import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from brieskornlab.cli import (ChartData, FamilyData, ProblemSpec, Report, main,
                              parse_problem, parse_report, render_report)
from brieskornlab.gradedpoly import InputError

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
GOLDEN = Path(__file__).resolve().parent / "golden"

FULL_FILE = """\
# demo problem
variables = x y z
polynomial = x^2*y^2 + x*z^3 + y*z^3

[singular_point]
point = 1:0:0
chart = x
weights = 1/2 1/3

[singular_point]
point = 0 1 0
chart = y
weights = 1/2 1/3

[family]
direction = x*y*z^2
samples = 0 1

[policy]
window = 3
max_power = 12
"""


def test_parse_problem_full():
    spec = parse_problem(FULL_FILE, source="demo")
    assert spec.variables == ("x", "y", "z")
    assert spec.polynomial == "x^2*y^2 + x*z^3 + y*z^3"
    assert spec.singular_points == (
        ChartData((Fraction(1), Fraction(0), Fraction(0)), "x",
                  (Fraction(1, 2), Fraction(1, 3))),
        ChartData((Fraction(0), Fraction(1), Fraction(0)), "y",
                  (Fraction(1, 2), Fraction(1, 3))))
    assert spec.family == FamilyData("x*y*z^2", (Fraction(0), Fraction(1)))
    assert spec.policy == {"window": 3, "max_power": 12}


@pytest.mark.parametrize("text,needle", [
    ("polynomial = x^3\n", "missing 'variables'"),
    ("variables = x y z\n", "missing 'polynomial'"),
    ("variables = x y\npolynomial = x^2\n", "at least three"),
    ("variables = x y x\npolynomial = x^3\n", "distinct"),
    ("variables = x y z\npolynomial = x^3\npolynomial = y^3\n", "duplicate key"),
    ("variables = x y z\npolynomial = x^3\n[bogus]\n", "unknown section"),
    ("variables = x y z\npolynomial = x^3\ncolor = red\n", "unknown key"),
    ("variables = x y z\npolynomial = x^3\n[singular_point]\npoint = 0 0 1\n",
     "missing 'chart'"),
    ("variables = x y z\npolynomial = x^3\n[singular_point]\npoint = 0 0\n"
     "chart = z\nweights = 1/2 1/2\n", "coordinates"),
    ("variables = x y z\npolynomial = x^3\n[singular_point]\npoint = 0 0 1\n"
     "chart = w\nweights = 1/2 1/2\n", "not a variable"),
    ("variables = x y z\npolynomial = x^3\n[singular_point]\npoint = 0 0 1\n"
     "chart = z\nweights = 1/2\n", "one per non-chart"),
    ("variables = x y z\npolynomial = x^3\n[family]\ndirection = y^3\n"
     "[family]\ndirection = z^3\n", "only one [family]"),
    ("variables = x y z\npolynomial = x^3\n[policy]\nwindow = soon\n", "integer"),
    ("variables = x y z\npolynomial = x^3\nnonsense line\n", "key = value"),
    ("variables = x y z\npolynomial = x^3\n[singular_point]\npoint = 0 0 q\n"
     "chart = z\nweights = 1/2 1/2\n", "not a rational"),
])
def test_parse_problem_errors(text, needle):
    with pytest.raises(InputError) as exc:
        parse_problem(text, source="bad")
    assert needle in str(exc.value)


def test_parse_problem_reports_line_numbers():
    with pytest.raises(InputError) as exc:
        parse_problem("variables = x y z\npolynomial = x^3\n\n[what]\n", "f.txt")
    assert "f.txt:4" in str(exc.value)


def run_cli(capsys, *argv) -> tuple:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exit_zero_and_text_output(capsys):
    code, out, err = run_cli(capsys, "pole", "--input",
                             str(PROBLEMS / "fermat_cubic_curve.txt"), "--no-timing")
    assert code == 0 and err == ""
    assert "1  2  2" in out and "total 2" in out


def test_exit_one_on_malformed_polynomial(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("variables = x y z\npolynomial = x^2 + @\n")
    code, out, err = run_cli(capsys, "pole", "--input", str(bad))
    assert code == 1
    assert out == ""  # no partial report
    assert "position" in err


def test_exit_one_on_missing_file(capsys):
    code, out, err = run_cli(capsys, "pole", "--input", "/nonexistent/p.txt")
    assert code == 1 and "cannot read" in err


def test_exit_one_on_non_utf8_file(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"variables = x y z\npolynomial = x^3\xff\n")
    code, out, err = run_cli(capsys, "pole", "--input", str(p))
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot read {p}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_exit_one_without_input_flag(capsys):
    code, _, err = run_cli(capsys, "pole")
    assert code == 1 and "--input" in err


def test_exit_one_hodge_without_charts(capsys):
    code, out, err = run_cli(capsys, "hodge", "--input",
                             str(PROBLEMS / "cubic_surface_bs.txt"))
    assert code == 1 and "singular" in err
    assert out == ""


def test_exit_one_family_without_family_section(capsys):
    code, out, err = run_cli(capsys, "family", "--input",
                             str(PROBLEMS / "fermat_cubic_curve.txt"))
    assert code == 1 and "no [family] section" in err
    assert out == ""


@pytest.mark.parametrize("polynomial", [
    "(" * 3000 + "x" + ")" * 3000,
    "-" * 3000 + "x",
    "x^" + "9" * 5000,
    "1" * 5000 + "*x^3",
], ids=["deep-parentheses", "deep-minus", "long-exponent", "long-coefficient"])
def test_exit_one_on_hostile_polynomial(tmp_path, capsys, polynomial):
    p = tmp_path / "p.txt"
    p.write_text(f"variables = x y z\npolynomial = {polynomial}\n")
    code, out, err = run_cli(capsys, "pole", "--input", str(p))
    assert code == 1
    assert out == ""
    assert err.startswith("error: polynomial: ") and err.count("\n") == 1


def test_exit_one_when_a_degree_exceeds_the_basis_budget(tmp_path):
    """The smoothness probe of the degree-30 Fermat form in five variables
    lies in degree 141, with C(145, 4) monomials.  That basis is refused
    before it is built, so a process capped at 512 MiB of address space
    exits 1 with a one-line message instead of a MemoryError traceback."""
    p = tmp_path / "big.txt"
    p.write_text("variables = x y z t u\npolynomial = x^30+y^30+z^30+t^30+u^30\n")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "brieskornlab.cli", "jacobian", "--input", str(p)],
                          capture_output=True, text=True, env=env, preexec_fn=cap_memory,
                          timeout=120)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: degree 141 has 17666220 monomials")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


def test_exit_one_on_negative_q_max(capsys):
    code, out, err = run_cli(capsys, "family", "--input",
                             str(PROBLEMS / "fermat_pencil.txt"), "--q-max", "-3")
    assert code == 1 and "--q-max" in err
    assert out == ""


POLE_CHECK = "pole dims nondecreasing in q"
MILNOR_CHECK = "milnor eigenspace dims agree at both landing degrees"
HODGE_CHECK = "hodge dims within pole dims, equal where alpha forces it"
NABLA_CHECK = "graded connection well defined on the chosen presentations"


@pytest.mark.parametrize("command,sections,checks", [
    ("analyze", {"smoothness", "pole", "hodge", "alpha", "briancon_skoda", "milnor",
                 "jacobian", "family"},
     [POLE_CHECK, MILNOR_CHECK, HODGE_CHECK, NABLA_CHECK]),
    ("pole", {"pole"}, [POLE_CHECK]),
    ("hodge", {"smoothness", "hodge", "alpha"}, [HODGE_CHECK]),
    ("jacobian", {"smoothness", "jacobian"}, []),
    ("milnor", {"milnor"}, [MILNOR_CHECK]),
    ("bs", {"briancon_skoda"}, []),
    ("family", {"family"}, [NABLA_CHECK]),
])
def test_command_sections_and_checks(capsys, command, sections, checks):
    """Each command fills exactly its sections and lists the checks it ran."""
    code, out, err = run_cli(capsys, command, "--input",
                             str(PROBLEMS / "fermat_pencil.txt"),
                             "--json", "--no-timing", "--q-max", "1")
    assert code == 0, err
    report = parse_report(out)
    filled = {name for name in ("smoothness", "pole", "hodge", "alpha",
                                "briancon_skoda", "milnor", "jacobian", "family")
              if getattr(report, name) is not None}
    assert filled == sections
    assert [c["name"] for c in report.checks] == checks


def test_exit_two_on_stabilization_failure(tmp_path, capsys):
    """An unreachable landing-degree floor exhausts the power budget."""
    p = tmp_path / "p.txt"
    p.write_text("variables = x y z\npolynomial = x^3 + y^3 + z^3\n"
                 "[policy]\nwindow = 2\nmax_power = 3\nmin_target_degree = 500\n")
    code, out, err = run_cli(capsys, "pole", "--input", str(p))
    assert code == 2
    assert out == ""
    assert "invariant violation" in err


def test_family_command_samples_flag(capsys):
    code, out, err = run_cli(capsys, "family", "--input",
                             str(PROBLEMS / "fermat_pencil.txt"),
                             "--json", "--no-timing", "--samples", "0,1")
    assert code == 0
    data = json.loads(out)
    assert data["family"]["samples"] == ["0", "1"]
    assert data["family"]["pole_constant"] is True
    q1 = data["family"]["grp_nabla"][1]
    assert q1["q"] == 1 and q1["entries"] == [["-1"]]


def test_analyze_non_isolated_still_reports(tmp_path, capsys):
    """tjurina is unavailable along a one-dimensional singular locus, but the
    Brieskorn-module results still come out."""
    p = tmp_path / "ni.txt"
    p.write_text("variables = x y z t\npolynomial = x^2*t + y^2*z\n")
    code, out, err = run_cli(capsys, "analyze", "--input", str(p),
                             "--json", "--no-timing")
    assert code == 0
    data = json.loads(out)
    assert data["jacobian"]["tjurina"] is None
    assert "tjurina unavailable" in data["jacobian"]["note"]
    assert isinstance(data["briancon_skoda"]["holds"], bool)
    assert data["smoothness"] is False


def test_golden_two_cusp_json(capsys):
    """Byte-exact against the committed reference report."""
    code, out, err = run_cli(capsys, "analyze", "--input",
                             str(PROBLEMS / "two_cusp_quartic.txt"),
                             "--json", "--no-timing")
    assert code == 0
    assert out == (GOLDEN / "two_cusp_quartic.json").read_text()


def test_golden_round_trips():
    text = (GOLDEN / "two_cusp_quartic.json").read_text()
    rep = parse_report(text)
    assert render_report(rep, as_json=True) == text
    assert parse_report(render_report(rep, as_json=True)) == rep


def test_text_and_json_agree_on_dims(capsys):
    path = str(PROBLEMS / "fermat_quartic_surface.txt")
    code, text_out, _ = run_cli(capsys, "pole", "--input", path, "--no-timing")
    assert code == 0
    code, json_out, _ = run_cli(capsys, "pole", "--input", path,
                                "--json", "--no-timing")
    assert code == 0
    dims = json.loads(json_out)["pole"]["dims"]
    assert dims == [1, 20, 21, 21]
    assert "  ".join(str(v) for v in dims) in text_out


def test_timing_included_by_default(capsys):
    code, out, _ = run_cli(capsys, "bs", "--input",
                           str(PROBLEMS / "cuspidal_cubic.txt"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["timing"] is not None and data["timing"]["total_seconds"] >= 0


def test_schema_version_pinned(capsys):
    code, out, _ = run_cli(capsys, "milnor", "--input",
                           str(PROBLEMS / "fermat_cubic_curve.txt"),
                           "--json", "--no-timing")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "brieskorn-lab/1"
    assert data["milnor"]["total"] == 8
    with pytest.raises(InputError):
        Report.from_json({"schema": "brieskorn-lab/999"})


def test_all_problem_files_analyze(capsys):
    """Every shipped example runs the full pipeline, byte-exact against its
    committed reference report."""
    for path in sorted(PROBLEMS.glob("*.txt")):
        code, out, err = run_cli(capsys, "analyze", "--input", str(path),
                                 "--json", "--no-timing")
        assert code == 0, f"{path.name}: {err}"
        assert out == (GOLDEN / f"{path.stem}.json").read_text(), path.name
        assert "cross-checks" in render_report(parse_report(out), as_json=False)


NON_ISOLATED_PENCIL = """\
variables = x y z t
polynomial = x^2*z + y^3 + x*y*t

[family]
direction = x^3
samples = 0 1
"""


@pytest.mark.parametrize("command", ["family", "analyze"])
def test_family_with_non_isolated_fiber_still_reports(command, tmp_path, capsys):
    """A fiber with a positive-dimensional singular locus has no Tjurina
    number; the family section says so and keeps the pole table and the
    connection matrices."""
    p = tmp_path / "pencil.txt"
    p.write_text(NON_ISOLATED_PENCIL)
    code, out, err = run_cli(capsys, command, "--input", str(p), "--json", "--no-timing")
    assert code == 0, err
    fam = json.loads(out)["family"]
    assert fam["tjurina_table"] is None and fam["tjurina_jumps"] is None
    assert fam["note"].startswith("tjurina unavailable: ")
    assert "positive dimensional" in fam["note"]
    assert [row["s"] for row in fam["pole_table"]] == ["0", "1"]
    assert fam["pole_constant"] is True
    assert [(m["q"], m["target_dim"], m["source_dim"]) for m in fam["grp_nabla"]] == [
        (q, 0, 0) for q in range(4)]
    code, text, _ = run_cli(capsys, command, "--input", str(p), "--no-timing")
    assert code == 0
    assert "tjurina" not in text.replace("tjurina unavailable", "")
    assert "note: tjurina unavailable: " in text
    assert "graded connection matrix, q = 3" in text
