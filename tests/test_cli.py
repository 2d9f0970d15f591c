"""Problem-file parsing, report rendering, exit codes, golden output."""

import json
import os
import resource
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from brieskornlab import gradedpoly, jacobian
from brieskornlab.cli import _parser, load_problem, main, parse_problem, render_report
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
    assert parse_problem(FULL_FILE, source="demo") == {
        "variables": ["x", "y", "z"],
        "polynomial": "x^2*y^2 + x*z^3 + y*z^3",
        "singular_points": [
            {"point": ["1", "0", "0"], "chart": "x", "weights": ["1/2", "1/3"]},
            {"point": ["0", "1", "0"], "chart": "y", "weights": ["1/2", "1/3"]}],
        "family": {"direction": "x*y*z^2", "samples": ["0", "1"]},
        "policy": {"window": 3, "max_power": 12}}


@pytest.mark.parametrize("name", sorted(p.stem for p in PROBLEMS.glob("*.txt")))
def test_a_problem_parses_to_its_reports_input(name):
    """The parsed problem is the `input` object its report echoes, down to
    the key order the JSON is written in."""
    problem = load_problem(str(PROBLEMS / f"{name}.txt"))
    echoed = json.loads((GOLDEN / f"{name}.json").read_text())["input"]
    assert json.dumps(problem) == json.dumps(echoed)


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
    # a key its section does not list is refused at its own line, before
    # the section's missing keys are looked for
    ("variables = x y z\npolynomial = x^3\n[singular_point]\npoint = 0 0 1\n"
     "colour = red\n", "bad:5: unknown key 'colour' in [singular_point]"),
    ("variables = x y z\npolynomial = x^3\n\n[family]\nsamples = 0 1\n"
     "speed = 2\n", "bad:6: unknown key 'speed' in [family]"),
    ("variables = x y z\npolynomial = x^3\n[policy]\nwindow = 2\n[policy]\n"
     "patience = 9\n", "bad:6: unknown key 'patience' in [policy]"),
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


COMMANDS = ("analyze", "pole", "hodge", "jacobian", "milnor", "bs", "family")
BARE = {"command": None, "input": None, "q_max": None, "json": False, "samples": None,
        "stab_window": None, "stab_max": None, "no_timing": False}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_takes_every_option(command):
    assert vars(_parser().parse_args([command])) == {**BARE, "command": command}
    argv = [command, "--input", "p.txt", "--q-max", "-3", "--json", "--samples", "0, 1/2",
            "--stab-window", "4", "--stab-max", "12", "--no-timing"]
    assert vars(_parser().parse_args(argv)) == {
        "command": command, "input": "p.txt", "q_max": -3, "json": True,
        "samples": "0, 1/2", "stab_window": 4, "stab_max": 12, "no_timing": True}


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(f"\n  {name} " in out for name in COMMANDS)
    assert main([]) == 1   # no command: the same help, exit 1
    assert capsys.readouterr().out == out


def test_exit_two_on_an_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["poles", "--input", str(PROBLEMS / "nodal_cubic.txt")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument command: invalid choice: 'poles' (choose from "
        + ", ".join(repr(name) for name in COMMANDS) + ")\n")


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
    "(x+y+z)^3000",
    "x^700*y^701",
], ids=["deep-parentheses", "deep-minus", "long-exponent", "long-coefficient", "huge-power",
        "huge-product"])
def test_exit_one_on_hostile_polynomial(tmp_path, capsys, polynomial):
    p = tmp_path / "p.txt"
    p.write_text(f"variables = x y z\npolynomial = {polynomial}\n")
    code, out, err = run_cli(capsys, "pole", "--input", str(p))
    assert code == 1
    assert out == ""
    assert err.startswith("error: polynomial: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_refuses_a_constant_polynomial(tmp_path, capsys, command):
    """A constant is homogeneous of degree 0: every command reads n and d
    from the one context of f, which refuses it, and no report is printed."""
    p = tmp_path / "p.txt"
    p.write_text("variables = x y z\npolynomial = 3\n\n[family]\ndirection = 1\n")
    assert run_cli(capsys, command, "--input", str(p), "--json") == (
        1, "", "error: f must be nonconstant\n")


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


def watch_bases(monkeypatch) -> list:
    """Start from no cached context and rebind every binding of
    `monomial_basis` in the package to a wrapper that records the size of
    each basis the real builder returns; returns the sizes."""
    monkeypatch.setattr(jacobian, "_contexts", weakref.WeakKeyDictionary())
    sizes = []
    real = gradedpoly.monomial_basis

    def recorded(nvars, degree):
        basis = real(nvars, degree)
        sizes.append(len(basis))
        return basis

    for name, module in list(sys.modules.items()):
        if name == "brieskornlab" or name.startswith("brieskornlab."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, recorded)
    return sizes


def test_exit_one_before_the_reducedness_basis_outgrows_the_budget(monkeypatch, capsys, tmp_path):
    """x^700 + y^700 + z^700 parses (degree 700 has C(702, 2) = 245351
    monomials), but its squarefree test lies in degree 2d-3 = 1397, with
    C(1399, 2) = 977901.  `pole` refuses that basis before building it: exit
    1 with one line, and no monomial basis past the budget is built."""
    sizes = watch_bases(monkeypatch)
    p = tmp_path / "p.txt"
    p.write_text("variables = x y z\npolynomial = x^700 + y^700 + z^700\n")
    assert main(["pole", "--input", str(p)]) == 1
    assert capsys.readouterr() == ("", "error: degree 1397 has 977901 monomials in 3 variables, "
                                       "more than the limit of 250000\n")
    assert max(sizes, default=0) <= gradedpoly._MAX_BASIS_SIZE


@pytest.mark.parametrize("argv", [
    ("pole", "fermat_cubic_curve.txt", "--stab-window", "5000000", "--stab-max", "5000000"),
    ("family", "fermat_pencil.txt", "--q-max", "4000"),
])
def test_exit_one_before_a_smooth_window_outgrows_the_budget(monkeypatch, capsys, argv):
    """A proved-smooth certificate builds no basis, yet its window refuses
    the landing degree a scan would refuse: the relations of degree 711 of
    a plane cubic live in degree 708, with C(710, 2) = 251695 monomials."""
    sizes = watch_bases(monkeypatch)
    command, name, *rest = argv
    assert main([command, "--input", str(PROBLEMS / name), *rest]) == 1
    assert capsys.readouterr() == ("", "error: degree 708 has 251695 monomials in 3 variables, "
                                       "more than the limit of 250000\n")
    assert sizes and max(sizes) <= gradedpoly._MAX_BASIS_SIZE


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
    report = json.loads(out)
    filled = {name for name in ("smoothness", "pole", "hodge", "alpha",
                                "briancon_skoda", "milnor", "jacobian", "family")
              if report[name] is not None}
    assert filled == sections
    assert [c["name"] for c in report["checks"]] == checks


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


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_golden_round_trips(name):
    text = (GOLDEN / f"{name}.json").read_text()
    assert render_report(json.loads(text), as_json=True) == text


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


def pole_trace_lengths(out: str) -> list:
    return [len(c["values"]) for c in json.loads(out)["pole"]["certificates"]]


def test_stab_window_flag_lengthens_every_certificate(capsys):
    path = str(PROBLEMS / "fermat_cubic_curve.txt")
    code, out, err = run_cli(capsys, "pole", "--input", path, "--json", "--no-timing")
    assert code == 0, err
    assert pole_trace_lengths(out) == [3, 2, 2]
    code, out, err = run_cli(capsys, "pole", "--input", path, "--json", "--no-timing",
                             "--stab-window", "4")
    assert code == 0, err
    assert pole_trace_lengths(out) == [4, 4, 4]


def test_stab_window_flag_overrides_the_problem_file(tmp_path, capsys):
    p = tmp_path / "p.txt"
    p.write_text((PROBLEMS / "fermat_cubic_curve.txt").read_text() + "\n[policy]\nwindow = 2\n")
    code, out, err = run_cli(capsys, "pole", "--input", str(p), "--json", "--no-timing",
                             "--stab-window", "4")
    assert code == 0, err
    assert json.loads(out)["input"]["policy"] == {"window": 2}
    assert pole_trace_lengths(out) == [4, 4, 4]


def test_stab_max_below_the_window_exits_one(capsys):
    code, out, err = run_cli(capsys, "pole", "--input", str(PROBLEMS / "fermat_cubic_curve.txt"),
                             "--stab-max", "1")
    assert code == 1 and out == ""
    assert err == "error: stabilization max_power must be at least the window\n"


def test_all_problem_files_analyze(capsys):
    """Every shipped example runs the full pipeline, byte-exact against its
    committed reference report."""
    for path in sorted(PROBLEMS.glob("*.txt")):
        code, out, err = run_cli(capsys, "analyze", "--input", str(path),
                                 "--json", "--no-timing")
        assert code == 0, f"{path.name}: {err}"
        assert out == (GOLDEN / f"{path.stem}.json").read_text(), path.name
        assert "cross-checks" in render_report(json.loads(out), as_json=False)


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
