"""Command-line front end: problem files in, reports out.

A problem file is plain key/value text (schema in the README): variables and
the defining polynomial at top level, then optional repeated [singular_point]
sections, an optional [family] section, and optional [policy] sections; a key
its section does not list in `_KEYS` is refused at its line.  The file is
read into the plain dict its report echoes as `input`, and the section
builders index that dict.  A report is the JSON object itself, a plain dict;
it renders as aligned text or as versioned JSON ("brieskorn-lab/1"), which
`parse_report` reads back.  Every rational in it is a "p/q" string,
dimensions stay integers.

Exit codes: 0 success, 1 bad input, 2 a failed internal cross-check.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from .brieskorn import (StabilizationPolicy, briancon_skoda, hbar_certificate,
                        milnor_eigenspace_dim, pole_filtration_dims)
from .exactlinalg import InvariantError
from .families import PencilFamily, grp_nabla_matrix, pole_constancy_check, tjurina_scan
from .gradedpoly import InputError, ParseError, Poly, parse_poly
from .jacobian import (NonIsolatedError, _ctx, global_tjurina, jacobian_dims,
                       smoothness_test)
from .singularities import build_chart, hodge_filtration_dims, local_tjurina

SCHEMA = "brieskorn-lab/1"


# ---------------------------------------------------------------------------
# problem files

def _rational(text: str, where: str) -> str:
    """`text` as a normalized "p/q" string."""
    try:
        return str(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{where}: {text!r} is not a rational number") from None


def _rational_list(text: str, where: str) -> list:
    parts = text.replace(":", " ").replace(",", " ").split()
    if not parts:
        raise InputError(f"{where}: empty list")
    return [_rational(p, where) for p in parts]


# section -> the keys it may carry; None is the top level
_KEYS = {None: ("variables", "polynomial"),
         "singular_point": ("point", "chart", "weights"),
         "family": ("direction", "samples"),
         "policy": ("window", "max_power", "min_target_degree")}


def parse_problem(text: str, source: str = "<input>") -> dict:
    """Parse a problem file into its report's `input` object; errors carry the
    source name and line number.

    The object is JSON-native: `variables` a list, every rational a
    normalized "p/q" string, `family` and `policy` null when the file has
    none.  Each section is read into {key: (value, line)}; a
    [singular_point] or [family] section keeps its header's line, where a
    missing key is reported.  The polynomials stay text."""
    top: dict = {}
    points: list = []
    family: tuple | None = None
    policy: dict = {}
    section: str | None = None
    current: dict = top

    def fail(lineno: int, message: str):
        raise InputError(f"{source}:{lineno}: {message}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KEYS:
                fail(lineno, f"unknown section [{section}]")
            current = policy if section == "policy" else {}
            if section == "singular_point":
                points.append((lineno, current))
            elif section == "family":
                if family is not None:
                    fail(lineno, "only one [family] section is allowed")
                family = (lineno, current)
            continue
        if "=" not in line:
            fail(lineno, "expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS[section]:
            fail(lineno, f"unknown key {key!r}" + (f" in [{section}]" if section else ""))
        if not value:
            fail(lineno, f"empty value for {key!r}")
        if key in current:
            fail(lineno, f"duplicate key {key!r}")
        current[key] = (value, lineno)

    def take(entry: tuple, key: str, where: str) -> str:
        header, table = entry
        if key not in table:
            fail(header, f"missing {key!r} in {where}")
        return table[key][0]

    if "variables" not in top:
        raise InputError(f"{source}: missing 'variables' line")
    names, lineno = top["variables"]
    variables = names.split()
    if len(set(variables)) != len(variables):
        fail(lineno, "variable names must be distinct")
    if len(variables) < 3:
        fail(lineno, "need at least three variables (ambient projective dimension >= 2)")
    if "polynomial" not in top:
        raise InputError(f"{source}: missing 'polynomial' line")
    polynomial = top["polynomial"][0]

    charts = []
    for p in points:
        where, header = "[singular_point]", p[0]
        point = _rational_list(take(p, "point", where), where + " point")
        chart = take(p, "chart", where)
        weights = _rational_list(take(p, "weights", where), where + " weights")
        if len(point) != len(variables):
            fail(header, f"point needs {len(variables)} coordinates")
        if chart not in variables:
            fail(header, f"chart {chart!r} is not a variable")
        if len(weights) != len(variables) - 1:
            fail(header, f"weights: one per non-chart variable "
                         f"({len(variables) - 1} expected)")
        charts.append({"point": point, "chart": chart, "weights": weights})

    fam = None
    if family is not None:
        samples = family[1].get("samples")
        fam = {"direction": take(family, "direction", "[family]"),
               "samples": None if samples is None
               else _rational_list(samples[0], "[family] samples")}

    ints = {}
    for key, (value, lineno) in policy.items():
        try:
            ints[key] = int(value)
        except ValueError:
            fail(lineno, f"{key} must be an integer")

    return {"variables": variables, "polynomial": polynomial, "singular_points": charts,
            "family": fam, "policy": ints or None}


def load_problem(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}") from None
    return parse_problem(text, source=path)


# ---------------------------------------------------------------------------
# report assembly

def _new_report(command: str, problem: dict) -> dict:
    """The report before any section ran; its keys, in this order, are the JSON
    object's.  A section the command does not touch stays None, so text and
    JSON draw from one source.  Values are JSON-native, rationals "p/q"."""
    return {"schema": SCHEMA, "command": command, "input": problem,
            "smoothness": None, "pole": None, "hodge": None, "alpha": None,
            "briancon_skoda": None, "milnor": None, "jacobian": None, "family": None,
            "checks": [], "timing": None}


def _rat(x) -> str:
    if x == math.inf:
        return "infinity"
    return str(Fraction(x))


def _cert_json(cert) -> dict:
    return {"degree": cert.degree, "values": list(cert.values),
            "power": cert.power, "landing_degree": cert.landing_degree,
            "early_zero": cert.early_zero}


# ---------------------------------------------------------------------------
# section builders: each fills its report section(s) and lists the checks it ran

class _Job:
    """The parsed input every builder reads and the report it fills."""

    __slots__ = ("problem", "args", "f", "policy", "report")

    def __init__(self, problem: dict, args: argparse.Namespace, f: Poly,
                 policy: StabilizationPolicy, report: dict):
        self.problem = problem
        self.args = args
        self.f = f
        self.policy = policy
        self.report = report


class _NoData(InputError):
    """The problem file lacks the data a section needs."""


def _smoothness(job: _Job) -> None:
    job.report["smoothness"] = smoothness_test(job.f)


def _pole(job: _Job) -> None:
    rep = pole_filtration_dims(job.f, job.policy)
    job.report["pole"] = {"dims": list(rep.dims), "total_dim": rep.total_dim,
                          "certificates": [_cert_json(c) for c in rep.certificates]}
    job.report["checks"].append({"name": "pole dims nondecreasing in q", "passed": True})


def _briancon_skoda(job: _Job) -> None:
    res = briancon_skoda(job.f, job.policy)
    job.report["briancon_skoda"] = {"holds": res.holds, "witness_power": res.witness_power,
                                    "certificate": _cert_json(res.certificate)}


def _milnor(job: _Job) -> None:
    f, ctx = job.f, _ctx(job.f)
    n, d = ctx.n, ctx.d
    rows = []
    for i in range(d):
        dim = milnor_eigenspace_dim(f, i, job.policy)
        cert = hbar_certificate(f, (n + 2) * d - i, job.policy)
        rows.append({"i": i, "dim": dim, "certificate": _cert_json(cert)})
    job.report["milnor"] = {"eigenspaces": rows, "total": sum(r["dim"] for r in rows)}
    job.report["checks"].append(
        {"name": "milnor eigenspace dims agree at both landing degrees", "passed": True})


def _jacobian(job: _Job) -> None:
    f, ctx = job.f, _ctx(job.f)
    n, d = ctx.n, ctx.d
    socle = max((n + 1) * (d - 2), 0)
    k_max = socle + n + 3
    out = {"dims": None, "max_degree": k_max, "socle_degree": socle,
           "tjurina": None, "note": None}
    try:
        out["tjurina"] = global_tjurina(f)
    except NonIsolatedError as e:
        out["note"] = ("tjurina unavailable: " + str(e))
    # after the scan, so the dims past its certificate cost no elimination
    out["dims"] = jacobian_dims(f, k_max)
    job.report["jacobian"] = out


def _chart_json(chart, variables) -> dict:
    return {"point": [_rat(c) for c in chart.point],
            "chart": variables[chart.chart],
            "weights": [_rat(w) for w in chart.weights],
            "alpha": _rat(chart.alpha),
            "weighted_homogeneous": not chart.swh_tail,
            "local_tjurina": local_tjurina(chart)}


def _hodge(job: _Job) -> None:
    """Runs after _smoothness: a singular hypersurface needs its charts in the file."""
    problem, report = job.problem, job.report
    variables = problem["variables"]
    if not report["smoothness"] and not problem["singular_points"]:
        raise _NoData("hodge on a singular hypersurface needs [singular_point] "
                      "sections with weighted-homogeneous local data")
    charts = tuple(build_chart(job.f, p["point"], variables.index(p["chart"]), p["weights"])
                   for p in problem["singular_points"])
    rep = hodge_filtration_dims(job.f, charts, job.policy)
    report["hodge"] = {"alpha": _rat(rep.alpha),
                       "hodge_dims": list(rep.hodge_dims),
                       "pole_dims": list(rep.pole_dims),
                       "equal_range": list(rep.equal_range),
                       "strict_drop": list(rep.strict_drop),
                       "charts": [_chart_json(c, variables) for c in rep.charts],
                       "certificates": [_cert_json(c) for c in rep.certificates]}
    report["alpha"] = report["hodge"]["alpha"]
    if charts:
        report["checks"].append(
            {"name": "local tjurina numbers sum to the global one", "passed": True})
    report["checks"].append(
        {"name": "hodge dims within pole dims, equal where alpha forces it",
         "passed": True})


def _matrix_json(m) -> list:
    return [[_rat(m.entry(r, c)) for c in range(m.ncols)] for r in range(m.nrows)]


def _family(job: _Job) -> None:
    args, policy, family = job.args, job.policy, job.problem["family"]
    if family is None:
        raise _NoData("the problem file has no [family] section")
    samples = family["samples"]
    if args.samples is not None:
        samples = [_rational(s, "--samples") for s in args.samples.replace(",", " ").split()]
    direction = parse_poly(family["direction"], job.problem["variables"])
    fam = PencilFamily(job.f, direction)
    constancy = pole_constancy_check(fam, samples, policy)
    ss = tuple(s for s, _ in constancy.table)
    out = {
        "samples": [_rat(s) for s in ss],
        "pole_table": [{"s": _rat(s), "dims": list(dims)} for s, dims in constancy.table],
        "pole_constant": constancy.constant,
        "tjurina_table": None,
        "tjurina_jumps": None,
        "grp_nabla": None,
        "note": None,
    }
    job.report["family"] = out
    notes = []
    try:
        scan = tjurina_scan(fam, ss)
    except NonIsolatedError as e:
        notes.append("tjurina unavailable: " + str(e))
    else:
        out["tjurina_table"] = [{"s": _rat(r.sample), "tjurina": r.tjurina,
                                 "tail": list(r.tail)} for r in scan.rows]
        out["tjurina_jumps"] = [_rat(s) for s in scan.jumps]
    if not constancy.constant:
        notes.append("graded connection matrices refused: pole dims vary over the samples")
    out["note"] = "; ".join(notes) or None
    if not constancy.constant:
        return
    s0 = ss[0]
    q_max = args.q_max if args.q_max is not None else job.f.nvars - 1
    mats = []
    for q in range(q_max + 1):
        m = grp_nabla_matrix(fam, s0, q, policy, samples=ss)
        mats.append({"q": q, "s0": _rat(s0), "source_dim": m.ncols,
                     "target_dim": m.nrows, "entries": _matrix_json(m)})
    out["grp_nabla"] = mats
    job.report["checks"].append(
        {"name": "graded connection well defined on the chosen presentations",
         "passed": True})


_SECTIONS = {
    "smoothness": _smoothness,
    "pole": _pole,
    "briancon_skoda": _briancon_skoda,
    "milnor": _milnor,
    "jacobian": _jacobian,
    "hodge": _hodge,
    "family": _family,
}

# command -> (help text, sections computed in this order).  A section whose
# data the file lacks refuses when it is the command itself and is left out
# of a longer report.
_COMMANDS = {
    "analyze": ("full report: smoothness, pole/hodge dims, invariants",
                ("smoothness", "pole", "briancon_skoda", "milnor", "jacobian",
                 "hodge", "family")),
    "pole": ("pole-order filtration dims with certificates", ("pole",)),
    "hodge": ("hodge vs pole filtration (needs singular point data)",
              ("smoothness", "hodge")),
    "jacobian": ("jacobian ring dims and global tjurina number",
                 ("smoothness", "jacobian")),
    "milnor": ("milnor fiber monodromy eigenspace dims", ("milnor",)),
    "bs": ("does some power of f kill omega_0 in the brieskorn module",
           ("briancon_skoda",)),
    "family": ("pencil scan: pole constancy, tjurina jumps, connection", ("family",)),
}


# ---------------------------------------------------------------------------
# rendering

def _fmt_row(cells, widths) -> str:
    return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths)).rstrip()


def _table(headers, rows) -> list:
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    out = [_fmt_row(headers, widths)]
    for row in cells:
        out.append(_fmt_row(row, widths))
    return out


def _render_text(report: dict) -> str:
    lines = []
    echo = report["input"]
    lines.append(f"brieskorn-lab {report['command']}")
    lines.append(f"  f = {echo['polynomial']}  in  Q[{', '.join(echo['variables'])}]")
    if report["smoothness"] is not None:
        lines.append(f"  smooth: {'yes' if report['smoothness'] else 'no'}")
    if report["pole"] is not None:
        lines.append("")
        lines.append("pole filtration  dim P^(n-q), q = 0..n:")
        lines.append("  " + "  ".join(str(v) for v in report["pole"]["dims"])
                     + f"   (total {report['pole']['total_dim']})")
        rows = [(c["degree"], c["values"][-1], c["power"], c["landing_degree"],
                 " ".join(str(v) for v in c["values"]))
                for c in report["pole"]["certificates"]]
        for line in _table(("degree", "dim", "power", "landing", "rank trace"), rows):
            lines.append("  " + line)
    if report["hodge"] is not None:
        h = report["hodge"]
        lines.append("")
        lines.append(f"hodge filtration  (alpha = {h['alpha']}):")
        rows = [(q, h["hodge_dims"][q], h["pole_dims"][q],
                 "=" if h["hodge_dims"][q] == h["pole_dims"][q] else "<")
                for q in range(len(h["hodge_dims"]))]
        for line in _table(("q", "dim F^(n-q)", "dim P^(n-q)", ""), rows):
            lines.append("  " + line)
        if h["strict_drop"]:
            lines.append(f"  strict drop at q = {', '.join(str(q) for q in h['strict_drop'])}")
        else:
            lines.append("  hodge and pole filtrations agree")
        for c in h["charts"]:
            lines.append(f"  singular point ({':'.join(c['point'])}), chart {c['chart']}: "
                         f"weights ({', '.join(c['weights'])}), alpha = {c['alpha']}, "
                         f"local tjurina {c['local_tjurina']}")
    if report["alpha"] is not None and report["hodge"] is None:
        lines.append(f"  alpha: {report['alpha']}")
    if report["briancon_skoda"] is not None:
        b = report["briancon_skoda"]
        lines.append("")
        if b["holds"]:
            lines.append(f"briancon-skoda: holds, f^{b['witness_power']} omega_0 "
                         "lies in df ^ d(Omega^(n-1))")
        else:
            lines.append("briancon-skoda: fails (the class of omega_0 is nonzero "
                         "in the torsion-free quotient)")
    if report["milnor"] is not None:
        lines.append("")
        lines.append("milnor fiber monodromy eigenspaces  dim H^n(F)_(i/d):")
        rows = [(r["i"], r["dim"]) for r in report["milnor"]["eigenspaces"]]
        for line in _table(("i", "dim"), rows):
            lines.append("  " + line)
        lines.append(f"  total {report['milnor']['total']}")
    if report["jacobian"] is not None:
        j = report["jacobian"]
        lines.append("")
        lines.append(f"jacobian ring dims, degrees 0..{j['max_degree']} "
                     f"(socle degree {j['socle_degree']}):")
        lines.append("  " + " ".join(str(v) for v in j["dims"]))
        if j["tjurina"] is not None:
            lines.append(f"  global tjurina: {j['tjurina']}")
        if j["note"]:
            lines.append(f"  note: {j['note']}")
    if report["family"] is not None:
        fam = report["family"]
        lines.append("")
        lines.append("family f + s * direction:")
        rows = [(row["s"], " ".join(str(v) for v in row["dims"])) for row in fam["pole_table"]]
        for line in _table(("s", "pole dims"), rows):
            lines.append("  " + line)
        lines.append(f"  pole dims constant: {'yes' if fam['pole_constant'] else 'no'}")
        if fam["tjurina_table"] is not None:
            rows = [(row["s"], row["tjurina"], " ".join(str(v) for v in row["tail"]))
                    for row in fam["tjurina_table"]]
            for line in _table(("s", "tjurina", "jacobian tail"), rows):
                lines.append("  " + line)
            if fam["tjurina_jumps"]:
                lines.append("  tjurina jumps at s = " + ", ".join(fam["tjurina_jumps"]))
            else:
                lines.append("  no tjurina jumps over the samples")
        if fam["note"]:
            lines.append(f"  note: {fam['note']}")
        for m in fam["grp_nabla"] or ():
            lines.append(f"  graded connection matrix, q = {m['q']} at s0 = {m['s0']} "
                         f"({m['target_dim']} x {m['source_dim']}):")
            if not m["entries"] or not m["entries"][0]:
                lines.append("    (zero-dimensional)")
            else:
                width = max(len(e) for row in m["entries"] for e in row)
                for row in m["entries"]:
                    lines.append("    [ " + "  ".join(e.rjust(width) for e in row) + " ]")
    if report["checks"]:
        lines.append("")
        lines.append("cross-checks:")
        for c in report["checks"]:
            lines.append(f"  [{'pass' if c['passed'] else 'FAIL'}] {c['name']}")
    if report["timing"] is not None:
        lines.append("")
        total = report["timing"].get("total_seconds")
        lines.append(f"time: {total:.2f}s" if total is not None else "time: n/a")
    return "\n".join(lines) + "\n"


def render_report(report: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(report, indent=2, sort_keys=False) + "\n"
    return _render_text(report)


# each report value as the builders write it: its JSON type, or an object's keys,
# which the text renderer reads; a value `_new_report` starts at None may be null
_SHAPES = {
    "schema": str, "command": str, "smoothness": bool, "alpha": str, "checks": list,
    "input": ("variables", "polynomial", "singular_points", "family", "policy"),
    "pole": ("dims", "total_dim", "certificates"), "milnor": ("eigenspaces", "total"),
    "hodge": ("alpha", "hodge_dims", "pole_dims", "equal_range", "strict_drop", "charts",
              "certificates"),
    "briancon_skoda": ("holds", "witness_power", "certificate"), "timing": ("total_seconds",),
    "jacobian": ("dims", "max_degree", "socle_degree", "tjurina", "note"),
    "family": ("samples", "pole_table", "pole_constant", "tjurina_table", "tjurina_jumps",
               "grp_nabla", "note")}
_JSON_NAMES = {str: "a string", bool: "a boolean", dict: "an object", list: "an array"}


def parse_report(text: str) -> dict:
    """Read back a JSON report; refuses one `render_report` could not have
    written, down to the JSON type of each top-level value, the keys of each
    section and the shape of each check."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise InputError(f"a report must be JSON text: {e}") from None
    if not isinstance(data, dict):
        raise InputError("a report must be a JSON object")
    if data.get("schema") != SCHEMA:
        raise InputError(f"unsupported report schema {data.get('schema')!r}")
    fresh = _new_report("", {})
    missing, unexpected = fresh.keys() - data.keys(), data.keys() - fresh.keys()
    if missing or unexpected:
        raise InputError(f"report keys differ from {SCHEMA}: missing {sorted(missing)}, "
                         f"unexpected {sorted(unexpected)}")
    for key, value in data.items():
        shape = _SHAPES[key]
        kind = dict if isinstance(shape, tuple) else shape
        if not (isinstance(value, kind) or value is None and fresh[key] is None):
            raise InputError(f"report value {key!r} is not {_JSON_NAMES[kind]}"
                             + (" or null" if fresh[key] is None else ""))
        lacking = [k for k in shape if k not in value] if isinstance(value, dict) else []
        if lacking:
            raise InputError(f"report section {key!r} lacks {lacking}")
    for i, check in enumerate(data["checks"]):
        if not (isinstance(check, dict) and "name" in check and "passed" in check):
            raise InputError(f"report check {i} is not an object with 'name' and 'passed'")
    return data


# ---------------------------------------------------------------------------
# the driver

def _run(problem: dict, args) -> dict:
    """Compute the command's sections into one timed report."""
    try:
        f = parse_poly(problem["polynomial"], problem["variables"])
    except ParseError as e:
        raise InputError(f"polynomial: {e}") from None
    if f.is_zero() or not f.is_homogeneous():
        raise InputError("the defining polynomial must be homogeneous and nonzero")
    if args.q_max is not None and args.q_max < 0:
        raise InputError("--q-max must be nonnegative")
    overrides = dict(problem["policy"] or {})
    if args.stab_window is not None:
        overrides["window"] = args.stab_window
    if args.stab_max is not None:
        overrides["max_power"] = args.stab_max
    policy = StabilizationPolicy(**overrides)
    job = _Job(problem, args, f, policy, _new_report(args.command, problem))
    t0 = time.perf_counter()
    for name in _COMMANDS[args.command][1]:
        try:
            _SECTIONS[name](job)
        except _NoData:
            if name == args.command:
                raise
    if not args.no_timing:
        job.report["timing"] = {"total_seconds": round(time.perf_counter() - t0, 3)}
    return job.report


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="brieskorn-lab",
        description="Exact pole-order and Hodge filtration computations for\n"
                    "complements of projective hypersurfaces.",
        epilog="commands:\n" + "\n".join(f"  {name:<10}{help_text}"
                                         for name, (help_text, _) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", nargs="?", choices=_COMMANDS, metavar="command",
                    help="what to compute (see the list below)")
    ap.add_argument("--input", metavar="PATH", help="problem file")
    ap.add_argument("--q-max", type=int, default=None, metavar="INT",
                    help="largest q for the family connection matrices")
    ap.add_argument("--json", action="store_true", help="machine-readable report")
    ap.add_argument("--samples", metavar="LIST", default=None,
                    help="comma-separated rational parameter values")
    ap.add_argument("--stab-window", type=int, default=None, metavar="INT",
                    help="constant-run length accepted as stabilized")
    ap.add_argument("--stab-max", type=int, default=None, metavar="INT",
                    help="largest power of f tried before giving up")
    ap.add_argument("--no-timing", action="store_true",
                    help="omit wall-clock times (reproducible output)")
    return ap


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    if not args.command:
        ap.print_help()
        return 1
    try:
        if not args.input:
            raise InputError("--input PATH is required")
        report = _run(load_problem(args.input), args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InvariantError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(render_report(report, args.json))
    return 0


if __name__ == "__main__":
    sys.exit(main())
