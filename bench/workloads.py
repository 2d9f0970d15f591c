"""The benchmark's workloads: which CLI jobs a pass runs and how each answer is checked.

A job is one cold `brieskorn-lab` command on one problem file.  Its answer is
checked by the numbers in its `--json --no-timing` report (see `project`),
never by bytes and never by certificate traces, which legitimate changes to
the stabilization engine may alter.  Expected numbers come from two sources:

* `references.json`, recorded from the program by `record_references.py`,
  for the fixed corpus inputs;
* oracles that do not go through the program's elimination, for the seeded
  smooth inputs: the Jacobian ring of a smooth hypersurface is a complete
  intersection, so its Hilbert series is known in closed form, and the
  pole, Hodge, Milnor and Jacobian numbers all follow from it; pencil
  connection matrices are recomputed by a small dense elimination over
  Fractions in the Jacobian ring (`_JacobianRing`).

Seeded inputs are drawn with `random.Random(seed)`, so one seed always gives
the same problem files, pass by pass.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(BENCH_DIR, "references.json")
PROBLEMS = "problems"

WORKLOADS = ("corpus_cli", "dense_smooth", "pencil_scan")

# Extra samples make every pencil job evaluate many distinct fibers, so the
# per-polynomial caches fill with little reuse.  Every fiber at these values
# is reduced, and for the generated pencils also smooth (redrawn otherwise).
PENCIL_SAMPLES = {"fermat_pencil.txt": "0,1,-1,2,-2,1/2,3,-1/2",
                  "tjurina_jump_family.txt": "0,1,-1,2,-2,1/2"}
GENERATED_PENCIL_SAMPLES = "0,1,-1,2,1/2"
GENERATED_PENCIL_HEIGHTS = (1, 100, 1000)

# dense_smooth slots: (variables, degree, extra off-diagonal monomials or None
# for every monomial, coefficient height).  The plane quartics are fully
# dense.  A fully dense quintic or cubic surface takes tens of seconds per
# analyze, so those keep the diagonal terms plus a fixed set of mixed ones,
# which keeps a pass short and the cost of a slot steady across seeds; the
# seed draws every coefficient.  Heights spread over three orders of
# magnitude because coefficient growth is what elimination cost follows here.
DENSE_SLOTS = (
    ("x y z", 4, None, 1),
    ("x y z", 4, None, 1000),
    ("x y z", 5, ((4, 1, 0), (0, 3, 2), (1, 0, 4)), 3),
    ("x y z t", 3, ((2, 1, 0, 0), (0, 1, 1, 1)), 20),
)


@dataclass
class Job:
    """One CLI invocation and the numbers its report must contain."""
    name: str
    argv: list                      # arguments after the program name
    expected: dict                  # `project` of a correct report
    problem_text: str | None = None  # generated input, written before the pass
    info: dict = field(default_factory=dict)  # input description for the log


# ---------------------------------------------------------------------------
# checked numbers


def _family_projection(fam: dict | None):
    if fam is None:
        return None
    return {
        "samples": fam["samples"],
        "pole_table": fam["pole_table"],
        "pole_constant": fam["pole_constant"],
        "tjurina_table": fam["tjurina_table"],
        "tjurina_jumps": fam["tjurina_jumps"],
        "grp_nabla": fam["grp_nabla"],
        "refused": fam["note"] is not None,
    }


def project(report: dict) -> dict:
    """The numbers of a `--json --no-timing` report that a check compares.

    Leaves out certificates, the cross-check list, timing, the input echo and
    free-text notes (only whether a note is present is kept).
    """
    pole = report["pole"]
    hodge = report["hodge"]
    bs = report["briancon_skoda"]
    milnor = report["milnor"]
    jac = report["jacobian"]
    return {
        "command": report["command"],
        "smoothness": report["smoothness"],
        "pole": None if pole is None else {"dims": pole["dims"], "total_dim": pole["total_dim"]},
        "hodge": None if hodge is None else {
            "alpha": hodge["alpha"],
            "hodge_dims": hodge["hodge_dims"],
            "pole_dims": hodge["pole_dims"],
            "equal_range": hodge["equal_range"],
            "strict_drop": hodge["strict_drop"],
            "charts": [{"alpha": c["alpha"], "local_tjurina": c["local_tjurina"]}
                       for c in hodge["charts"]],
        },
        "alpha": report["alpha"],
        "briancon_skoda": None if bs is None else {
            "holds": bs["holds"], "witness_power": bs["witness_power"]},
        "milnor": None if milnor is None else {
            "dims": [row["dim"] for row in milnor["eigenspaces"]],
            "total": milnor["total"]},
        "jacobian": None if jac is None else {
            "dims": jac["dims"], "max_degree": jac["max_degree"],
            "socle_degree": jac["socle_degree"], "tjurina": jac["tjurina"],
            "refused": jac["note"] is not None},
        "family": _family_projection(report["family"]),
    }


def check(job: Job, stdout: str) -> str | None:
    """None when the report carries the expected numbers, else the reason."""
    try:
        got = project(json.loads(stdout))
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable report: {type(e).__name__}: {e}"
    if got == job.expected:
        return None
    for key in job.expected:
        if got.get(key) != job.expected[key]:
            return f"{key}: expected {job.expected[key]!r}, got {got.get(key)!r}"
    return "report differs from the expected numbers"


# ---------------------------------------------------------------------------
# polynomials as {exponent tuple: coefficient}, independent of the program


def monomials(nvars: int, degree: int) -> list:
    """Monomials of one degree in descending lex order (the program's column order)."""
    if degree < 0:
        return []
    if nvars == 1:
        return [(degree,)]
    return [(e,) + rest for e in range(degree, -1, -1)
            for rest in monomials(nvars - 1, degree - e)]


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _partial(p: dict, i: int) -> dict:
    out = {}
    for m, c in p.items():
        if m[i]:
            out[m[:i] + (m[i] - 1,) + m[i + 1:]] = c * m[i]
    return out


def _axpy(p: dict, s, q: dict) -> dict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + s * c
    return {m: c for m, c in out.items() if c}


def render(p: dict, names: list) -> str:
    """Problem-file text for p, terms in descending lex order."""
    pieces = []
    for m in sorted(p, reverse=True):
        c = p[m]
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, m) if e]
        body = "*".join([str(abs(c))] + factors) if abs(c) != 1 or not factors \
            else "*".join(factors)
        sign = "-" if c < 0 else "+"
        pieces.append((sign, body))
    text = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


# ---------------------------------------------------------------------------
# oracles for smooth hypersurfaces


def ci_hilbert(nvars: int, d: int) -> list:
    """dim R_k of the Jacobian ring of a smooth degree-d form in nvars variables.

    The partials form a regular sequence of nvars forms of degree d-1, so the
    Hilbert series is ((1 - t^(d-1)) / (1 - t))^nvars.
    """
    coeffs = [1]
    for _ in range(nvars):
        nxt = [0] * (len(coeffs) + d - 2)
        for i, a in enumerate(coeffs):
            for j in range(d - 1):
                nxt[i + j] += a
        coeffs = nxt
    return coeffs


def _r(hilbert: list, k: int) -> int:
    return hilbert[k] if 0 <= k < len(hilbert) else 0


def smooth_pole_dims(nvars: int, d: int) -> list:
    """dim P^(n-q), q = 0..n: partial sums of the primitive Hodge numbers."""
    n = nvars - 1
    hil = ci_hilbert(nvars, d)
    hodge = [_r(hil, q * d + d - n - 1) for q in range(n)]
    return [sum(hodge[:min(q, n - 1) + 1]) for q in range(n + 1)]


def smooth_analyze_expectation(nvars: int, d: int) -> dict:
    """`project` of a correct `analyze` report on a smooth hypersurface."""
    n = nvars - 1
    hil = ci_hilbert(nvars, d)
    pole = smooth_pole_dims(nvars, d)
    socle = max((n + 1) * (d - 2), 0)
    k_max = socle + n + 3
    # the eigenvalue-i part of H^n(F) is H-bar in degree (n+2)d - i, whose
    # dimension is the sum of R over the degrees below it spaced by d
    milnor = [sum(_r(hil, (n + 2) * d - i - n - 1 - j * d) for j in range(n + 3))
              for i in range(d)]
    return {
        "command": "analyze",
        "smoothness": True,
        "pole": {"dims": pole, "total_dim": pole[-1]},
        "hodge": {"alpha": "infinity", "hodge_dims": pole, "pole_dims": pole,
                  "equal_range": list(range(n + 1)), "strict_drop": [], "charts": []},
        "alpha": "infinity",
        "briancon_skoda": {"holds": False, "witness_power": None},
        "milnor": {"dims": milnor, "total": sum(milnor)},
        "jacobian": {"dims": [_r(hil, k) for k in range(k_max + 1)], "max_degree": k_max,
                     "socle_degree": socle, "tjurina": 0, "refused": False},
        "family": None,
    }


class _JacobianRing:
    """Graded pieces of C[x]/(partials of f) by dense Gauss-Jordan over Fractions.

    Each row of J_k is led by its highest column in the program's monomial
    order, so the columns left without a pivot are exactly the monomials a
    first-to-last greedy scan accepts: the basis the program's SpanSolver
    picks for the graded quotients of a pencil.
    """

    def __init__(self, f: dict, nvars: int):
        self.nvars = nvars
        self.partials = [_partial(f, i) for i in range(nvars)]
        self.d = sum(next(iter(f)))
        self._pieces: dict = {}

    def piece(self, k: int):
        """(column of each monomial, pivot rows by lead column, basis monomials)."""
        got = self._pieces.get(k)
        if got is None:
            monos = monomials(self.nvars, k)
            col = {m: i for i, m in enumerate(monos)}
            pivots: dict = {}
            for g in monomials(self.nvars, k - self.d + 1):
                for dp in self.partials:
                    row = {col[m]: c for m, c in _mul(dp, {g: 1}).items()}
                    self._insert(pivots, row)
            basis = [m for i, m in enumerate(monos) if i not in pivots]
            got = self._pieces[k] = (col, pivots, basis)
        return got

    @staticmethod
    def _insert(pivots: dict, row: dict) -> None:
        row = dict(row)
        for p in [p for p in row if p in pivots]:
            a = row.get(p)
            if a:
                for c, v in pivots[p].items():
                    s = row.get(c, 0) - a * v
                    if s:
                        row[c] = s
                    else:
                        row.pop(c, None)
        if not row:
            return
        lead = max(row)
        inv = Fraction(1) / row[lead]
        row = {c: v * inv for c, v in row.items()}
        for p, prow in pivots.items():
            a = prow.get(lead)
            if a:
                for c, v in row.items():
                    s = prow.get(c, 0) - a * v
                    if s:
                        prow[c] = s
                    else:
                        prow.pop(c, None)
        pivots[lead] = row

    def coordinates(self, p: dict, k: int) -> dict:
        """Coordinates of the class of p in degree k over the greedy basis."""
        col, pivots, basis = self.piece(k)
        vec = {col[m]: Fraction(c) for m, c in p.items()}
        for piv, prow in pivots.items():
            a = vec.get(piv)
            if a:
                for c, v in prow.items():
                    s = vec.get(c, 0) - a * v
                    if s:
                        vec[c] = s
                    else:
                        vec.pop(c, None)
        position = {col[m]: i for i, m in enumerate(basis)}
        return {position[c]: v for c, v in vec.items()}


def _rat(x) -> str:
    return str(Fraction(x))


def smooth_pencil_expectation(f: dict, g: dict, nvars: int, samples: list,
                              q_max: int) -> dict:
    """`project` of a correct `family` report on a pencil f + s*g whose
    sampled fibers are all smooth."""
    n = nvars - 1
    d = sum(next(iter(f)))
    pole = smooth_pole_dims(nvars, d)
    s0 = samples[0]
    ring = _JacobianRing(_axpy(f, s0, g), nvars)
    mats = []
    for q in range(q_max + 1):
        src_m, tgt_m = q * d - n - 1, (q + 1) * d - n - 1
        src = ring.piece(src_m)[2] if src_m >= 0 else []
        tgt = ring.piece(tgt_m)[2] if tgt_m >= 0 else []
        entries = [["0"] * len(src) for _ in tgt]
        if q:
            for c, mono in enumerate(src):
                image = _mul({m: -q * v for m, v in g.items()}, {mono: 1})
                for r, v in ring.coordinates(image, tgt_m).items():
                    entries[r][c] = _rat(v)
        mats.append({"q": q, "s0": _rat(s0), "source_dim": len(src),
                     "target_dim": len(tgt), "entries": entries})
    return {
        "command": "family", "smoothness": None, "pole": None, "hodge": None,
        "alpha": None, "briancon_skoda": None, "milnor": None, "jacobian": None,
        "family": {
            "samples": [_rat(s) for s in samples],
            "pole_table": [{"s": _rat(s), "dims": pole} for s in samples],
            "pole_constant": True,
            "tjurina_table": [{"s": _rat(s), "tjurina": 0, "tail": [0] * (n + 2)}
                              for s in samples],
            "tjurina_jumps": [],
            "grp_nabla": mats,
            "refused": False,
        },
    }


# ---------------------------------------------------------------------------
# seeded generation


class Generator:
    """Draws seeded problem inputs; rejects singular draws with the program's
    `smoothness_test` and counts each redraw."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.redraws = 0
        from brieskornlab.gradedpoly import parse_poly
        from brieskornlab.jacobian import smoothness_test
        self._parse, self._smooth = parse_poly, smoothness_test

    def _coeff(self, height: int) -> int:
        # magnitudes in [height/2, height]: every coefficient of a draw has
        # about the same bit length, which keeps a slot's cost steady
        return self.rng.choice((-1, 1)) * self.rng.randint((height + 1) // 2, height)

    def form(self, nvars: int, d: int, extra, height: int) -> dict:
        support = monomials(nvars, d) if extra is None else \
            [tuple(d if j == i else 0 for j in range(nvars)) for i in range(nvars)] + list(extra)
        return {m: self._coeff(height) for m in support}

    def sparse_form(self, nvars: int, d: int, terms: int, height: int) -> dict:
        return {m: self._coeff(height) for m in self.rng.sample(monomials(nvars, d), terms)}

    def is_smooth(self, p: dict, names: list) -> bool:
        return self._smooth(self._parse(render(p, names), names))

    def smooth_form(self, names: list, d: int, extra, height: int) -> dict:
        while True:
            f = self.form(len(names), d, extra, height)
            if self.is_smooth(f, names):
                return f
            self.redraws += 1


def _problem(names: list, f: dict, family: dict | None = None) -> str:
    text = f"variables = {' '.join(names)}\npolynomial = {render(f, names)}\n"
    if family is not None:
        text += f"\n[family]\ndirection = {render(family, names)}\n"
    return text


def _info(names: list, f: dict) -> dict:
    return {"nvars": len(names), "degree": sum(next(iter(f))), "terms": len(f),
            "height": max(abs(c) for c in f.values())}


def reference_argv(workload: str, name: str) -> list:
    """CLI arguments of a corpus input checked against `references.json`."""
    if workload == "pencil_scan":
        return ["family", "--input", f"{PROBLEMS}/{name}", "--q-max", "2",
                "--samples", PENCIL_SAMPLES[name], "--json", "--no-timing"]
    cmd = "family" if name in PENCIL_SAMPLES else "analyze"
    return [cmd, "--input", f"{PROBLEMS}/{name}", "--json", "--no-timing"]


def reference_inputs() -> dict:
    """{workload: corpus file names} to record: every problem file for
    corpus_cli, the two corpus pencils for pencil_scan."""
    files = sorted(n for n in os.listdir(PROBLEMS) if n.endswith(".txt"))
    return {"corpus_cli": files, "pencil_scan": sorted(PENCIL_SAMPLES)}


def reference_jobs(workload: str) -> list:
    """The recorded inputs of a workload; a problem file added later joins
    no workload until the references are recorded again."""
    with open(REFERENCES, encoding="utf-8") as fh:
        expected = json.load(fh)[workload]
    return [Job(name, reference_argv(workload, name), expected[name])
            for name in sorted(expected)]


def dense_job(gen: Generator, index: int, variables: str, d: int, extra, height: int) -> Job:
    names = variables.split()
    f = gen.smooth_form(names, d, extra, height)
    return Job(f"dense_{index}_d{d}_n{len(names) - 1}_h{height}",
               ["analyze", "--json", "--no-timing"],
               smooth_analyze_expectation(len(names), d),
               problem_text=_problem(names, f), info=_info(names, f))


def pencil_job(gen: Generator, index: int, d: int, height: int, samples: str) -> Job:
    """A plane-curve pencil f + s*g, f dense of the given height and g a
    sparse direction, redrawn until every sampled fiber is smooth."""
    names = ["x", "y", "z"]
    values = [Fraction(s) for s in samples.split(",")]
    while True:
        f = gen.smooth_form(names, d, None, height)
        g = gen.sparse_form(3, d, 4, 3)
        if all(gen.is_smooth(_axpy(f, s, g), names) for s in values):
            break
        gen.redraws += 1
    info = _info(names, f)
    info["samples"] = len(values)
    return Job(f"pencil_{index}_d{d}_h{height}",
               ["family", "--q-max", "2", "--samples", samples, "--json", "--no-timing"],
               smooth_pencil_expectation(f, g, 3, values, 2),
               problem_text=_problem(names, f, g), info=info)


class Workload:
    """The jobs of each pass of one workload.

    corpus_cli runs the same files every pass.  The seeded workloads draw
    fresh inputs for every pass from one stream, so a run averages over as
    many inputs as it has passes; the same seed gives the same sequence.
    """

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.gen = Generator(seed) if name != "corpus_cli" else None

    @property
    def redraws(self) -> int:
        return self.gen.redraws if self.gen else 0

    def draw(self) -> list:
        if self.name == "corpus_cli":
            return reference_jobs("corpus_cli")
        if self.name == "dense_smooth":
            return [dense_job(self.gen, i, *slot) for i, slot in enumerate(DENSE_SLOTS)]
        return reference_jobs("pencil_scan") + [
            pencil_job(self.gen, i, 4, height, GENERATED_PENCIL_SAMPLES)
            for i, height in enumerate(GENERATED_PENCIL_HEIGHTS)]
