"""Self-tests of the benchmark harness, on a few small jobs.

    python3 -m pytest bench/tests

They run the harness on cheap inputs of every kind the workloads use (corpus
files with and without singular points, a corpus pencil, a seeded smooth
form and a seeded pencil), so they take seconds, not a benchmark run.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402


class FixedJobs:
    """A job source that gives the same jobs every pass."""

    def __init__(self, jobs):
        self.jobs, self.redraws = jobs, 0

    def draw(self):
        return self.jobs


def _corpus(*names):
    return [j for j in workloads.reference_jobs("corpus_cli") if j.name in names]


def _small_jobs():
    gen = workloads.Generator(7)
    return {
        "corpus": _corpus("two_cusp_quartic.txt", "cuspidal_cubic.txt"),
        "pencil": [j for j in workloads.reference_jobs("pencil_scan")
                   if j.name == "fermat_pencil.txt"]
        + [workloads.pencil_job(gen, 0, 3, 5, "0,1,-1")],
        "dense": [workloads.dense_job(gen, 0, "x y z", 3, None, 9)],
    }


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """{kind: (untraced results, traced results)} for each small job set."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        workdir = str(tmp_path_factory.mktemp("bench"))
        out = {}
        for kind, jobs in _small_jobs().items():
            out[kind] = (run.run_pass(jobs, workdir, False, 1, run.clock() + 120),
                         run.run_pass(jobs, workdir, True, 1, run.clock() + 120))
        return out
    finally:
        os.chdir(cwd)


def test_every_small_job_passes_its_check(passes):
    for kind, (plain, traced) in passes.items():
        for r in plain + traced:
            assert r.error is None, (kind, r.job.name, r.error)


def test_traced_and_untraced_runs_give_identical_checked_numbers(passes):
    for plain, traced in passes.values():
        for a, b in zip(plain, traced, strict=True):
            assert workloads.project(json.loads(a.stdout)) == \
                workloads.project(json.loads(b.stdout))


# the layer metrics each workload kind is predicted to move, and those it
# is predicted to leave at zero
NONZERO = {
    "corpus": ("singularities.jets_s", "singularities.local_tjurina_s",
               "singularities.coverage_s", "jacobian.tjurina_s", "jacobian.degrees_scanned",
               "brieskorn.stabilize_s", "brieskorn.powers_tried", "exactlinalg.reduce_s",
               "exactlinalg.eliminate_s", "gradedpoly.parse_s", "cli.render_s"),
    "pencil": ("families.constancy_calls", "families.pole_dims_calls", "families.constancy_s",
               "families.nabla_s", "families.tjurina_scan_s", "exactlinalg.spansolver_s",
               "gradedpoly.mul_s", "brieskorn.powers_repeated", "jacobian.image_rows_s"),
    "dense": ("exactlinalg.eliminate_s", "exactlinalg.eliminate_calls", "exactlinalg.rows_in",
              "exactlinalg.rank_yield", "exactlinalg.max_coeff_bits", "exactlinalg.reduce_s",
              "exactlinalg.reduce_pivot_visits", "exactlinalg.reduce_nnz_in",
              "brieskorn.relation_rows_s"),
}
ZERO = {
    "dense": ("families.constancy_calls", "families.pole_dims_calls", "families.constancy_s",
              "families.nabla_s", "families.tjurina_scan_s", "singularities.jets_s"),
    "pencil": ("singularities.jets_s", "singularities.coverage_s"),
}


@pytest.mark.parametrize("kind", sorted(NONZERO))
def test_predicted_layer_metrics_are_measured(passes, kind):
    layer, worst = run.summarize(run.span_records(passes[kind][1]))
    assert worst <= run.RECONCILE_TOLERANCE_S
    for name in NONZERO[kind]:
        assert layer[name] > 0, name
    for name in ZERO.get(kind, ()):
        assert layer[name] == 0, name


def test_self_times_reconcile_with_compute_time(passes):
    layer, _ = run.summarize(run.span_records(passes["corpus"][1]))
    attributed = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    assert attributed + layer["trace.bookkeeping_s"] == pytest.approx(
        layer["trace.compute_s"], abs=1e-3)


def test_wrong_reference_value_counts_as_failure(monkeypatch):
    job = _corpus("cuspidal_cubic.txt")[0]
    job.expected = json.loads(json.dumps(job.expected))
    job.expected["milnor"]["total"] += 1
    monkeypatch.chdir(ROOT)
    result = run.run("corpus_cli", 0, 0, False, source=FixedJobs([job]), log=lambda *_: None)
    assert result["failed"] == 1 and result["attempted"] == 1
    assert result["correct"] is False


def test_result_carries_the_metrics_benchmark_json_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_oracle_pencil_matrix_on_the_fermat_pencil():
    # f = x^3+y^3+z^3, g = xyz: the q = 1 connection is multiplication by -xyz
    # from R_0 to R_3 = <xyz>, the value the recorded reference also holds
    f = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}
    g = {(1, 1, 1): 1}
    want = workloads.smooth_pencil_expectation(f, g, 3, [0, 1], 2)["family"]["grp_nabla"]
    with open(workloads.REFERENCES, encoding="utf-8") as fh:
        ref = json.load(fh)["pencil_scan"]["fermat_pencil.txt"]
    assert want == ref["family"]["grp_nabla"]
