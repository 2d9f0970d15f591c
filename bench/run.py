"""Benchmark of cold brieskorn-lab CLI jobs.

    python3 bench/run.py --workload corpus_cli --seed 1 --seconds 40 --trace 0

Run from the repository root; the program is imported from ./src.

Load model: a closed loop with one client.  Every job is a fresh
interpreter running one CLI command, and the next job starts only after the
previous one exited.  Jobs must be cold because the per-polynomial caches in
`brieskorn` and `jacobian` are process-global and never evicted, so a
repeat inside one process would measure a warm cache, not what a CLI user
pays.  A pass runs every job of the workload once; passes repeat while
another one fits in --seconds (at least one always runs), and the seeded
workloads draw fresh inputs for every pass.

End-to-end metrics (--trace 0), each the median over the run's passes:
  wall_s         first spawn to last exit of one pass
  setup_s        spawn to the end of problem parsing, median over all jobs
  slowest_job_s  wall time of the pass's slowest job
  peak_rss_mb    largest peak resident set of any job, from wait4's rusage
Jobs that exit non-zero or report wrong numbers are counted in `failed`
(the fail ratio is failed / attempted).

--trace 1 runs one untraced pass and then the same jobs traced
(bench/tracing.py), and reports the per-layer metrics instead, with
trace_overhead_ratio, the traced pass wall time over the untraced one.

The last line of stdout is the JSON result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
from dataclasses import dataclass

import workloads
from tracing import clock, summarize

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
JOB_SCRIPT = os.path.join(BENCH_DIR, "job.py")
HARD_LIMIT_S = 170.0     # every job is killed by then; the run must end within 180 s
RECONCILE_TOLERANCE_S = 0.002

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "slowest_job_s": "s", "peak_rss_mb": "MiB"}

# Layer times that read exactly zero on a workload that never enters the
# layer (families on dense_smooth, singularities on pencil_scan) are printed
# in the log only; their call counts go into the result instead.
LOG_ONLY = {"exactlinalg.spansolver_s", "singularities.jets_s", "singularities.local_tjurina_s",
            "singularities.coverage_s", "singularities.self_s", "families.constancy_s",
            "families.nabla_s", "families.tjurina_scan_s", "families.self_s"}
PER_LAYER = sorted(set(summarize([])[0]) - LOG_ONLY) + ["trace_overhead_ratio"]


@dataclass
class JobResult:
    job: workloads.Job
    spawn: float          # CLOCK_MONOTONIC before the process was spawned
    exit: float           # ... after it was reaped
    code: int
    rss_kib: int          # ru_maxrss of the job process
    killed: bool
    stdout: str = ""
    marks: dict | None = None
    error: str | None = None

    @property
    def wall(self) -> float:
        return self.exit - self.spawn


def _spawn(job, workdir: str, index: int, trace: bool, threads: int, deadline: float):
    """Run one job to completion; the only process the harness starts."""
    stem = os.path.join(workdir, f"job{index}")
    argv = list(job.argv)
    if job.problem_text is not None:
        argv += ["--input", os.path.join(workdir, f"{job.name}.txt")]
    if threads > 1 and argv[0] == "family":
        argv += ["--threads", str(threads)]
    cmd = [sys.executable, JOB_SCRIPT, stem + ".marks", "1" if trace else "0", *argv]
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    out_flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, stem + ".out", out_flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stem + ".err", out_flags, 0o644)]
    spawn = clock()
    pid = os.posix_spawn(sys.executable, cmd, env, file_actions=actions)
    killed = threading.Event()

    def kill():
        killed.set()
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(deadline - clock(), 0.0), kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
    end = clock()
    watchdog.join()
    return JobResult(job, spawn, end, os.waitstatus_to_exitcode(status), usage.ru_maxrss,
                     killed.is_set()), stem


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def run_pass(jobs, workdir: str, trace: bool, threads: int, deadline: float) -> list:
    """Run every job once, back to back, then check the answers."""
    for job in jobs:
        if job.problem_text is not None:
            with open(os.path.join(workdir, f"{job.name}.txt"), "w", encoding="utf-8") as fh:
                fh.write(job.problem_text)
    spawned = []
    for i, job in enumerate(jobs):
        spawned.append(_spawn(job, workdir, i, trace, threads, deadline))
        if spawned[-1][0].killed:
            break
    results = []
    for res, stem in spawned:
        res.stdout = _read(stem + ".out")
        marks = _read(stem + ".marks")
        res.marks = json.loads(marks) if marks else None
        if res.killed:
            res.error = "killed at the run's time limit"
        elif res.code != 0:
            last = _read(stem + ".err").strip().splitlines()[-1:] or ["no message"]
            res.error = f"exit code {res.code}: {last[0]}"
        elif res.marks is None or res.marks.get("setup_end") is None:
            res.error = "job did not record the end of its set-up"
        else:
            res.error = workloads.check(res.job, res.stdout)
        results.append(res)
        for suffix in (".out", ".err", ".marks"):
            if os.path.exists(stem + suffix):
                os.remove(stem + suffix)
    return results


def pass_metrics(results: list) -> dict:
    return {
        "wall_s": results[-1].exit - results[0].spawn,
        "slowest_job_s": max(r.wall for r in results),
        "peak_rss_mb": max(r.rss_kib for r in results) / 1024.0,
    }


def _log_pass(index: int, results: list, log) -> None:
    pm = pass_metrics(results)
    log(f"  pass {index}: wall {pm['wall_s']:.3f} s  slowest {pm['slowest_job_s']:.3f} s  "
        f"peak rss {pm['peak_rss_mb']:.1f} MiB")
    for r in results:
        setup = r.marks["setup_end"] - r.spawn if r.marks and r.marks.get("setup_end") else 0.0
        info = "  ".join(f"{k}={v}" for k, v in r.job.info.items())
        log(f"    {r.job.name:<28} wall {r.wall:7.3f} s  setup {setup:6.3f} s  "
            f"rss {r.rss_kib / 1024:6.1f} MiB  {info}".rstrip())


def run(workload: str, seed: int, seconds: float, trace: bool, threads: int = 1,
        source=None, log=print) -> dict:
    """One benchmark run; returns the result object printed as the last line.

    `source` supplies each pass's jobs through `draw()` and counts singular
    draws in `redraws`; it defaults to the named workload.
    """
    deadline = clock() + HARD_LIMIT_S
    source = source or workloads.Workload(workload, seed)
    log(f"workload {workload}  seed {seed}  closed loop, one client, one cold process per job")
    os.makedirs(".bench_work", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=".bench_work")
    plain, traced = [], None
    try:
        measure_from = clock()
        while True:
            jobs = source.draw()
            t = clock()
            results = run_pass(jobs, workdir, False, threads, deadline)
            took = clock() - t
            plain.append(results)
            _log_pass(len(plain), results, log)
            if any(r.killed for r in results) or len(results) < len(jobs):
                break
            if trace:
                traced = run_pass(jobs, workdir, True, threads, deadline)
                break
            if clock() - measure_from + took > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = [r for p in plain + [traced or []] for r in p]
    failed = [r for r in every if r.error is not None]
    for r in failed:
        log(f"  FAILED {r.job.name}: {r.error}")
    if source.redraws or workload != "corpus_cli":
        log(f"  singular draws redrawn: {source.redraws}")
    complete = [p for p in plain if not any(r.killed for r in p)]
    setups = [r.marks["setup_end"] - r.spawn for p in complete for r in p
              if r.marks and r.marks.get("setup_end")]
    correct = not failed and bool(complete)
    result = {"correct": correct, "attempted": len(every), "failed": len(failed),
              "metrics": {}}
    if not setups:
        return result
    per_pass = [pass_metrics(p) for p in complete]
    e2e = {k: statistics.median(pm[k] for pm in per_pass)
           for k in ("wall_s", "slowest_job_s", "peak_rss_mb")}
    e2e["setup_s"] = statistics.median(setups)
    log(f"  {'wall_s':<16}{e2e['wall_s']:>12.4f} s    median of {len(per_pass)} passes")
    log(f"  {'setup_s':<16}{e2e['setup_s']:>12.4f} s    median of {len(setups)} jobs")
    log(f"  {'slowest_job_s':<16}{e2e['slowest_job_s']:>12.4f} s    median of "
        f"{len(per_pass)} passes")
    log(f"  {'peak_rss_mb':<16}{e2e['peak_rss_mb']:>12.1f} MiB  median of "
        f"{len(per_pass)} passes")
    log(f"  {'fail_ratio':<16}{len(failed) / len(every):>12.4f}      "
        f"{len(failed)} of {len(every)} jobs")
    if not trace:
        result["metrics"] = {k: {"value": e2e[k], "unit": END_TO_END_UNITS[k]}
                             for k in END_TO_END_UNITS}
        return result
    layer, ok = layer_metrics(traced, per_pass[0]["wall_s"], log)
    result["correct"] = correct and ok
    result["metrics"] = {k: {"value": layer[k], "unit": unit_of(k)} for k in PER_LAYER}
    return result


def span_records(traced: list) -> list:
    """What `tracing.summarize` reads from each traced job."""
    return [{"spans": r.marks["spans"], "compute_s": r.marks["compute_s"]}
            for r in traced if r.marks and "spans" in r.marks]


def layer_metrics(traced: list, untraced_wall: float, log) -> tuple:
    """Per-layer metrics of the traced pass, and whether the layer self times
    reconciled with every job's time inside cli.main."""
    jobs = span_records(traced)
    layer, worst = summarize(jobs)
    layer["trace_overhead_ratio"] = pass_metrics(traced)["wall_s"] / untraced_wall
    self_sum = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    ok = len(jobs) == len(traced) and worst <= RECONCILE_TOLERANCE_S
    log(f"  traced pass: layer self times {self_sum:.4f} s + tracing bookkeeping "
        f"{layer['trace.bookkeeping_s']:.4f} s of {layer['trace.compute_s']:.4f} s inside "
        f"cli.main; largest per-job gap {worst * 1000:.3f} ms "
        f"({'reconciled' if ok else 'NOT RECONCILED'})")
    for k in sorted(layer):
        mark = "" if k in PER_LAYER else "   (log only)"
        log(f"  {k:<36}{layer[k]:>14.6g} {unit_of(k)}{mark}")
    return layer, ok


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_yield")):
        return "ratio"
    if metric.endswith("_bits"):
        return "bits"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=1,
                    help="--threads passed to family jobs (only for the comparison in "
                         "bench/NOTES.md; the gated runs use 1)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "brieskornlab", "cli.py")):
        print("error: src/brieskornlab not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    # end through SystemExit, so the running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.threads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
