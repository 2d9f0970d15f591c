"""Spans around brieskornlab's layers, recorded from outside the program.

`Recorder.install` replaces each entry point in `TARGETS` by a timing
wrapper.  A function is patched at every module-level binding inside the
package, so a name imported into another module (`rank_of_vectors` into
`brieskorn`, `jacobian` and `singularities`) is traced there too; a method
is patched on its class.  A span is (name, start, end, parent index,
counters); spans stay in memory and are written once, when the job ends.

Counters are computed outside the measured call, and the time they take is
recorded as `trace.bookkeeping` spans beside it, so no layer's self time
includes tracing work.  `summarize` turns the span lists of a pass's jobs
into the per-layer metrics.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Mapping
from fractions import Fraction

clock = time.monotonic   # CLOCK_MONOTONIC on Linux: comparable across processes

BOOKKEEPING = "trace.bookkeeping"

# (module, attribute path, metric group or None).  A group's time metric is
# the time inside its outermost spans; a span nested in another span of the
# same group is not counted twice.
TARGETS = (
    ("gradedpoly", "parse_poly", "parse"),
    ("gradedpoly", "Poly.__mul__", "mul"),
    ("gradedpoly", "Poly.__pow__", "mul"),
    ("gradedpoly", "Poly.shift", "mul"),
    ("exactlinalg", "rank_of_vectors", "eliminate"),
    ("exactlinalg", "Subspace.from_vectors", "eliminate"),
    ("exactlinalg", "Subspace._from_int_rows", "eliminate"),
    ("exactlinalg", "ExactMatrix.kernel_basis", "eliminate"),
    ("exactlinalg", "Subspace.reduce", "reduce"),
    ("exactlinalg", "SpanSolver.add", "spansolver"),
    ("exactlinalg", "SpanSolver.express", "spansolver"),
    ("brieskorn", "pole_filtration_dims", "stabilize"),
    ("brieskorn", "hbar_certificate", "stabilize"),
    ("brieskorn", "stabilized_span_rank", "stabilize"),
    ("brieskorn", "milnor_eigenspace_dim", "stabilize"),
    ("brieskorn", "briancon_skoda", "stabilize"),
    ("brieskorn", "_BrieskornContext.power_rank", "stabilize"),
    ("brieskorn", "_BrieskornContext.span_rank", "stabilize"),
    ("brieskorn", "_BrieskornContext.relation_rows", "relation_rows"),
    ("jacobian", "global_tjurina", "tjurina"),
    ("jacobian", "jacobian_dims", None),
    ("jacobian", "smoothness_test", None),
    ("jacobian", "_JacContext.dim_R", None),
    ("jacobian", "_JacContext.image_rows", "image_rows"),
    ("singularities", "build_chart", None),
    ("singularities", "hodge_filtration_dims", None),
    ("singularities", "global_jq_dim", None),
    ("singularities", "local_jq_jets", "jets"),
    ("singularities", "local_tjurina", "local_tjurina"),
    ("singularities", "verify_chart_coverage", "coverage"),
    ("families", "pole_constancy_check", "constancy"),
    ("families", "grp_nabla_matrix", "nabla"),
    ("families", "tjurina_scan", "tjurina_scan"),
    ("families", "specialize", None),
    ("cli", "render_report", "render"),
    ("cli", "main", None),
)

# the eliminations proper; kernel_basis runs two of them
_ELIMINATIONS = {"exactlinalg.rank_of_vectors", "exactlinalg.Subspace.from_vectors",
                 "exactlinalg.Subspace._from_int_rows"}


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(x).bit_length()


def _vector_values(v):
    return v.values() if isinstance(v, Mapping) else v


def _max_bits(vectors) -> int:
    return max((_bits(x) for v in vectors for x in _vector_values(v)), default=0)


def rebind(original, replacement, package: str = "brieskornlab") -> None:
    """Point every module-level name in the package that is `original` at
    `replacement`, including names imported from the defining module."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


class Recorder:
    """Span store of one job process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._powers_seen: set = set()

    # -- counters: before(args) -> (args, counters), after(args, result, counters)

    @staticmethod
    def _elimination_before(args):
        args = list(args)
        i = 1 if isinstance(args[0], type) else 0   # classmethods get cls first
        args[i] = list(args[i])
        return tuple(args), {"rows_in": len(args[i]), "bits": _max_bits(args[i])}

    @staticmethod
    def _elimination_after(args, result, counters):
        if isinstance(result, int):
            counters["rank"] = result
        else:
            counters["rank"] = result.dim
            counters["bits"] = max(counters["bits"], _max_bits(result.tails.values()))
        return counters

    @staticmethod
    def _reduce_before(args):
        space, v = args[0], args[1]
        nnz = sum(1 for x in _vector_values(v) if x)
        return args, {"pivot_visits": len(space.pivots), "nnz_in": nnz}

    def _power_before(self, args):
        ctx, k, power = args[0], args[1], args[2]
        key = (ctx.f, k, power)
        repeated = key in self._powers_seen
        self._powers_seen.add(key)
        return args, {"repeated": int(repeated)}

    @staticmethod
    def _render_after(args, result, counters):
        return {"bytes": len(result.encode("utf-8"))}

    def _counters(self, span_name: str):
        if span_name in _ELIMINATIONS:
            return self._elimination_before, self._elimination_after
        return {
            "exactlinalg.Subspace.reduce": (self._reduce_before, None),
            "brieskorn._BrieskornContext.power_rank": (self._power_before, None),
            "cli.render_report": (None, self._render_after),
        }.get(span_name, (None, None))

    # -- wrapping

    def wrap(self, fn, span_name: str):
        before, after = self._counters(span_name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            counters = None
            if before is not None:
                b0 = clock()
                args, counters = before(args)
                spans.append((BOOKKEEPING, b0, clock(), parent, None))
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (span_name, t0, t1, parent, counters)
            if after is not None:
                spans[idx] = (span_name, t0, t1, parent, after(args, result, counters))
                spans.append((BOOKKEEPING, t1, clock(), parent, None))
            return result

        return traced

    def install(self, package: str = "brieskornlab") -> None:
        """Wrap every target; raises LookupError when a target is missing."""
        for module_name, path, _ in TARGETS:
            module = sys.modules.get(f"{package}.{module_name}")
            if module is None:
                raise LookupError(f"{package}.{module_name} is not imported")
            span_name = f"{module_name}.{path}"
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = getattr(owner, "__dict__", {}).get(attr)
                if raw is None:
                    raise LookupError(f"no traceable {span_name}")
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(raw.__func__, span_name)))
                else:
                    setattr(owner, attr, self.wrap(raw, span_name))
                continue
            original = getattr(module, attr, None)
            if original is None:
                raise LookupError(f"no traceable {span_name}")
            rebind(original, self.wrap(original, span_name), package)


# ---------------------------------------------------------------------------
# parent side


GROUP_OF = {f"{module}.{path}": group for module, path, group in TARGETS if group}
# the time metric of each group, and the call count of the groups whose
# time metric is printed in the log only
GROUP_TIME = {
    "parse": "gradedpoly.parse_s", "mul": "gradedpoly.mul_s",
    "eliminate": "exactlinalg.eliminate_s", "reduce": "exactlinalg.reduce_s",
    "spansolver": "exactlinalg.spansolver_s", "stabilize": "brieskorn.stabilize_s",
    "relation_rows": "brieskorn.relation_rows_s", "tjurina": "jacobian.tjurina_s",
    "image_rows": "jacobian.image_rows_s", "jets": "singularities.jets_s",
    "local_tjurina": "singularities.local_tjurina_s", "coverage": "singularities.coverage_s",
    "constancy": "families.constancy_s", "nabla": "families.nabla_s",
    "tjurina_scan": "families.tjurina_scan_s", "render": "cli.render_s",
}
GROUP_CALLS = {
    "reduce": "exactlinalg.reduce_calls", "spansolver": "exactlinalg.spansolver_calls",
    "jets": "singularities.jets_calls", "local_tjurina": "singularities.local_tjurina_calls",
    "coverage": "singularities.coverage_calls", "constancy": "families.constancy_calls",
    "nabla": "families.nabla_calls", "tjurina_scan": "families.tjurina_scan_calls",
}
MODULES = ("gradedpoly", "exactlinalg", "brieskorn", "jacobian", "singularities", "families",
           "cli")
COUNTS = ("exactlinalg.eliminate_calls", "exactlinalg.rows_in", "exactlinalg.rank_out",
          "exactlinalg.max_coeff_bits", "exactlinalg.reduce_pivot_visits",
          "exactlinalg.reduce_nnz_in", "brieskorn.powers_tried", "brieskorn.powers_repeated",
          "jacobian.degrees_scanned", "families.pole_dims_calls", "cli.report_bytes",
          "trace.spans")


def self_times(spans: list) -> list:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - child[i] for i, (_, t0, t1, _, _) in enumerate(spans)]


def summarize(jobs: list) -> tuple:
    """Per-layer totals over the traced jobs of one pass.

    `jobs` holds one dict per job with its `spans` and its `compute_s`, the
    time the job spent inside `cli.main` as measured around the call.
    Returns (metrics, largest reconciliation error in seconds): per job, the
    self times of all spans must sum to compute_s and none may be negative.
    """
    m = dict.fromkeys(GROUP_TIME.values(), 0.0)
    m.update(dict.fromkeys(GROUP_CALLS.values(), 0))
    m.update(dict.fromkeys(COUNTS, 0))
    m.update({f"{module}.self_s": 0.0 for module in MODULES})
    m.update({"trace.compute_s": 0.0, "trace.bookkeeping_s": 0.0})
    worst = 0.0
    for job in jobs:
        spans = job["spans"]
        selfs = self_times(spans)
        # groups of each span's ancestors; parents precede children in the list
        above: list = [frozenset()] * len(spans)
        for i, (name, t0, t1, parent, counters) in enumerate(spans):
            if parent >= 0:
                pg = GROUP_OF.get(spans[parent][0])
                above[i] = above[parent] | {pg} if pg else above[parent]
            group = GROUP_OF.get(name)
            if group and group not in above[i]:
                m[GROUP_TIME[group]] += t1 - t0
            if group in GROUP_CALLS:
                m[GROUP_CALLS[group]] += 1
            if name == BOOKKEEPING:
                m["trace.bookkeeping_s"] += t1 - t0
            else:
                m[name.split(".", 1)[0] + ".self_s"] += selfs[i]
            if name in _ELIMINATIONS:
                m["exactlinalg.eliminate_calls"] += 1
                m["exactlinalg.rows_in"] += counters["rows_in"]
                m["exactlinalg.rank_out"] += counters["rank"]
                m["exactlinalg.max_coeff_bits"] = max(m["exactlinalg.max_coeff_bits"],
                                                      counters["bits"])
            elif name == "exactlinalg.Subspace.reduce":
                m["exactlinalg.reduce_pivot_visits"] += counters["pivot_visits"]
                m["exactlinalg.reduce_nnz_in"] += counters["nnz_in"]
            elif name in ("brieskorn._BrieskornContext.power_rank",
                          "brieskorn._BrieskornContext.span_rank"):
                m["brieskorn.powers_tried"] += 1
                if counters:
                    m["brieskorn.powers_repeated"] += counters["repeated"]
            elif name == "jacobian._JacContext.dim_R" and parent >= 0 \
                    and spans[parent][0] == "jacobian.global_tjurina":
                m["jacobian.degrees_scanned"] += 1
            elif name == "brieskorn.pole_filtration_dims" and "constancy" in above[i]:
                m["families.pole_dims_calls"] += 1
            elif name == "cli.render_report":
                m["cli.report_bytes"] += counters["bytes"]
        m["trace.spans"] += len(spans)
        m["trace.compute_s"] += job["compute_s"]
        if min(selfs, default=0.0) < -1e-6:
            worst = max(worst, -min(selfs))
        attributed = sum(selfs)
        worst = max(worst, abs(attributed - job["compute_s"]))
    rank_out = m.pop("exactlinalg.rank_out")
    m["exactlinalg.rank_yield"] = rank_out / m["exactlinalg.rows_in"] if rank_out else 0.0
    return m, worst
