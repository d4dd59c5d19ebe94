"""What the traced run wraps, and the per-layer metrics it reports.

Times are per query (ms/query) and counts per query (count/query), so the
number of passes in a run does not move them. `.ms` is the inclusive time
of the wrapped calls (summed over threads); `.self_ms` excludes the wrapped
calls nested in them. The synthgen times are per set-up call.

Each metric moves an end-to-end metric on a workload (qps: wall-clock qps
and qps_rel, its drift-corrected form):
  retrieval.query_topk.*          qps on bigdb_cli_k2 (near zero on sgv_k20)
  retrieval.build_index.ms        qps on bigdb_cli_k2
  matching.nn.ms                  query_ms_p50 on sgv_k20
  matching.match_features.*       qps on rir_k20
  spectral.score_candidates.self_ms  query_ms_p50 on bigdb_cli_k2
  spectral.compat.ms, .power_iter.ms and the spectral counts  qps on sgv_k20
  registration.ransac_register.*  qps on rir_k20, query_ms_p50 on sgv_k20
  registration.failures           failed_frac
  rerank.fallbacks                recall_at_1
  metrics.*, pipeline.*, storage.*, cli.main.self_ms  qps on bigdb_cli_k2
  synthgen.*                      setup_s
geometry gets no metric: nothing on the per-query path calls it from
outside, so its cost shows in its callers' self time.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

import spans
from spans import Target

POOL_MODULES = ("scanrank.spectral", "scanrank.rerank")


def _file_bytes(key):
    def record(span, args, result):
        span.info[key] = os.path.getsize(args[0])
    return record


def _score_candidates(span, args, result):
    span.info["n"] = int(result[1])
    span.info["candidates"] = len(args[1])


def _power_iteration(span, args, result):
    # iterations and converged flags exactly as the solver returns them
    span.info["iterations"] = np.array(result[2], dtype=np.int64)
    span.info["converged"] = np.array(result[3], dtype=bool)


TARGETS = [
    Target("scanrank.synthgen", "generate_world", "synthgen.generate_world"),
    Target("scanrank.synthgen", "export_world", "synthgen.export_world"),
    Target("scanrank.cli", "main", "cli.main"),
    Target("scanrank.pipeline", "load_dataset", "storage.load_dataset"),
    Target("scanrank.storage", "read_scan", "storage.read_scan", _file_bytes("bytes_read")),
    Target("scanrank.pipeline", "write_results", "storage.write_results",
           _file_bytes("bytes_written")),
    Target("scanrank.pipeline", "process_queries", "pipeline.process_queries"),
    Target("scanrank.pipeline", "build_report", "pipeline.build_report"),
    Target("scanrank.pipeline", "build_index", "retrieval.build_index"),
    Target("scanrank.pipeline", "query_topk", "retrieval.query_topk"),
    Target("scanrank.pipeline", "rerank_spectral", "rerank.rerank_spectral"),
    Target("scanrank.pipeline", "rerank_rir", "rerank.rerank_rir"),
    Target("scanrank.rerank", "score_candidates", "spectral.score_candidates", _score_candidates),
    # private: the batched path has no public entry for these two stages
    Target("scanrank.spectral", "_compat_values", "spectral.compat"),
    Target("scanrank.spectral", "_power_iteration_batch", "spectral.power_iter", _power_iteration),
    Target("scanrank.spectral", "nn_squared_distances", "matching.nn"),
    Target("scanrank.matching", "nn_squared_distances", "matching.nn"),
    Target("scanrank.spectral", "sample_query_points", "matching.sample_query_points"),
    Target("scanrank.matching", "sample_query_points", "matching.sample_query_points"),
    Target("scanrank.pipeline", "match_features", "matching.match_features"),
    Target("scanrank.rerank", "match_features", "matching.match_features"),
    Target("scanrank.pipeline", "ransac_register", "registration.ransac_register"),
    Target("scanrank.rerank", "ransac_register", "registration.ransac_register"),
    Target("scanrank.pipeline", "ground_truth_positives", "metrics.ground_truth_positives"),
    Target("scanrank.pipeline", "build_metric_report", "metrics.build_metric_report"),
]

# name -> unit, in report order
UNITS = {
    "retrieval.query_topk.ms": "ms/query",
    "retrieval.query_topk.calls": "count/query",
    "retrieval.build_index.ms": "ms/query",
    "matching.nn.ms": "ms/query",
    "matching.match_features.ms": "ms/query",
    "matching.match_features.calls": "count/query",
    "matching.sample_query_points.ms": "ms/query",
    "spectral.score_candidates.self_ms": "ms/query",
    "spectral.compat.ms": "ms/query",
    "spectral.power_iter.ms": "ms/query",
    "spectral.power_iters_p50": "iterations",
    "spectral.power_iters_p90": "iterations",
    "spectral.power_iters_max": "iterations",
    "spectral.nonconverged": "count/query",
    "spectral.candidates": "count/query",
    "spectral.matvec_flops": "flop/query",
    "registration.ransac_register.ms": "ms/query",
    "registration.ransac_register.calls": "count/query",
    "registration.failures": "count/query",
    "rerank.self_ms": "ms/query",
    "rerank.fallbacks": "count/query",
    "metrics.ground_truth_positives.ms": "ms/query",
    "metrics.build_metric_report.ms": "ms/query",
    "pipeline.process_queries.self_ms": "ms/query",
    "pipeline.build_report.ms": "ms/query",
    "storage.load_dataset.ms": "ms/query",
    "storage.read_scan.calls": "count/query",
    "storage.write_results.ms": "ms/query",
    "storage.bytes_read": "B/query",
    "storage.bytes_written": "B/query",
    "synthgen.generate_world.ms": "ms/call",
    "synthgen.export_world.ms": "ms/call",
    "cli.main.self_ms": "ms/query",
    "trace.qps_rel": "queries/ref",
}

# counts that must repeat exactly across two traced runs of one seed
EXACT = ("retrieval.query_topk.calls", "matching.match_features.calls",
         "spectral.power_iters_p50", "spectral.power_iters_p90", "spectral.power_iters_max",
         "spectral.nonconverged", "spectral.candidates", "spectral.matvec_flops",
         "registration.ransac_register.calls", "registration.failures", "rerank.fallbacks",
         "storage.read_scan.calls", "storage.bytes_read")


def _nearest_rank(values: np.ndarray, q: float) -> float:
    # invariant to repeating the same data, so the pass count cannot move it
    return float(np.percentile(values, q, method="inverted_cdf")) if values.size else 0.0


def layer_metrics(all_spans: list[spans.Span], analysis: spans.Analysis,
                  queries: int, traced_qps_rel: float) -> dict:
    incl = defaultdict(int)
    self_ = defaultdict(int)
    calls = defaultdict(int)
    errors = defaultdict(int)
    info = defaultdict(int)
    for s in all_spans:
        incl[s.name] += s.ns
        self_[s.name] += analysis.self_ns[s.id]
        calls[s.name] += 1
        errors[s.name] += s.error
        for key in ("bytes_read", "bytes_written", "candidates"):
            info[key] += s.info.get(key, 0)

    iterations, converged, flops = [], [], 0
    for s in all_spans:
        if s.name != "spectral.power_iter":
            continue
        owner = analysis.by_id.get(s.parent)
        while owner is not None and owner.name != "spectral.score_candidates":
            owner = analysis.by_id.get(owner.parent)
        if owner is None:
            raise spans.WrapperDrift("power iteration ran outside score_candidates")
        n = owner.info["n"]
        iterations.append(s.info["iterations"])
        converged.append(s.info["converged"])
        flops += int(s.info["iterations"].sum()) * 2 * n * n  # computed, not counted
    iters = np.concatenate(iterations) if iterations else np.zeros(0, dtype=np.int64)
    conv = np.concatenate(converged) if converged else np.zeros(0, dtype=bool)

    q = float(queries)
    ms = 1e-6 / q
    rerank = ("rerank.rerank_spectral", "rerank.rerank_rir")
    values = {
        "retrieval.query_topk.ms": incl["retrieval.query_topk"] * ms,
        "retrieval.query_topk.calls": calls["retrieval.query_topk"] / q,
        "retrieval.build_index.ms": incl["retrieval.build_index"] * ms,
        "matching.nn.ms": incl["matching.nn"] * ms,
        "matching.match_features.ms": incl["matching.match_features"] * ms,
        "matching.match_features.calls": calls["matching.match_features"] / q,
        "matching.sample_query_points.ms": incl["matching.sample_query_points"] * ms,
        "spectral.score_candidates.self_ms": self_["spectral.score_candidates"] * ms,
        "spectral.compat.ms": incl["spectral.compat"] * ms,
        "spectral.power_iter.ms": incl["spectral.power_iter"] * ms,
        "spectral.power_iters_p50": _nearest_rank(iters, 50),
        "spectral.power_iters_p90": _nearest_rank(iters, 90),
        "spectral.power_iters_max": float(iters.max()) if iters.size else 0.0,
        "spectral.nonconverged": int((~conv).sum()) / q,
        "spectral.candidates": info["candidates"] / q,
        "spectral.matvec_flops": flops / q,
        "registration.ransac_register.ms": incl["registration.ransac_register"] * ms,
        "registration.ransac_register.calls": calls["registration.ransac_register"] / q,
        "registration.failures": errors["registration.ransac_register"] / q,
        "rerank.self_ms": sum(self_[r] for r in rerank) * ms,
        "rerank.fallbacks": sum(errors[r] for r in rerank) / q,
        "metrics.ground_truth_positives.ms": incl["metrics.ground_truth_positives"] * ms,
        "metrics.build_metric_report.ms": incl["metrics.build_metric_report"] * ms,
        "pipeline.process_queries.self_ms":
            (self_["pipeline.process_queries"] + self_[spans.QUERY]) * ms,
        "pipeline.build_report.ms": incl["pipeline.build_report"] * ms,
        "storage.load_dataset.ms": incl["storage.load_dataset"] * ms,
        "storage.read_scan.calls": calls["storage.read_scan"] / q,
        "storage.write_results.ms": incl["storage.write_results"] * ms,
        "storage.bytes_read": info["bytes_read"] / q,
        "storage.bytes_written": info["bytes_written"] / q,
        "synthgen.generate_world.ms":
            incl["synthgen.generate_world"] * 1e-6 / max(calls["synthgen.generate_world"], 1),
        "synthgen.export_world.ms":
            incl["synthgen.export_world"] * 1e-6 / max(calls["synthgen.export_world"], 1),
        "cli.main.self_ms": self_["cli.main"] * ms,
        "trace.qps_rel": traced_qps_rel,
    }
    return {name: (values[name], unit) for name, unit in UNITS.items()}


def from_trace(all_spans: list[spans.Span], required: frozenset, queries: int,
               traced_qps_rel: float, rtol: float) -> tuple[dict, tuple, int]:
    """Per-layer metrics of a traced run, its reconciliation check and span count.

    Raises WrapperDrift when a stage the workload must call never ran, or a
    span has no parent (work in a thread the tracer does not link).
    """
    missing = sorted(required - {s.name for s in all_spans})
    if missing:
        raise spans.WrapperDrift(f"stages never called: {', '.join(missing)}")
    orphans = spans.orphans(all_spans)
    if orphans:
        raise spans.WrapperDrift(f"spans with no parent (unlinked thread?): {orphans}")
    analysis = spans.analyse(all_spans)
    rec = spans.reconcile(all_spans, analysis)
    check = (rec["max_rel_residual"] <= rtol,
             f"{rec['groups']} groups, max residual {rec['max_rel_residual']:.2e} <= {rtol:g}")
    return layer_metrics(all_spans, analysis, queries, traced_qps_rel), check, len(all_spans)
