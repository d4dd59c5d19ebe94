"""The traced benchmark's contract with the library, without any timing.

`bench/run.py --trace 1` wraps the library names listed in
`bench/layers.py` and fails with `WrapperDrift` when a stage a workload
requires never runs under its wrapped name, or when a span has no parent.
This runs the traced stages once on small worlds, so a change that stops
calling a wrapped name (say, building positives without
`ground_truth_positives`) fails here rather than in the benchmark. It reads
`bench/` and changes nothing there.
"""

import contextlib
import dataclasses
import io
import sys
from pathlib import Path

import pytest

from scanrank import cli, pipeline, synthgen
from scanrank.pipeline import RunConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import layers
        import spans
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return layers, spans, workloads


def test_traced_stages_run_under_their_wrapped_names(bench, tmp_path):
    # set-up and passes are opened as the benchmark opens them, so every
    # library span must hang below one of them
    layers, spans, workloads = bench
    tracer = spans.Tracer()
    tracer.install(layers.TARGETS, layers.POOL_MODULES)
    try:
        with workloads._span_cm(tracer, spans.SETUP, None):
            world = synthgen.generate_world(synthgen.WorldConfig(
                seed=3, num_places=12, num_queries=4, points_per_scan=32))
            manifest = synthgen.export_world(world, tmp_path / "world")
        cfg = RunConfig(strategy="spectral", n_topk=3, threads=2)
        with workloads._span_cm(tracer, spans.PASS, (1, None)):
            outcomes = pipeline.process_queries(world.database, world.queries, cfg)
            pipeline.build_report(outcomes, cfg, len(world.database))
            # query expansion re-retrieves, which must not open a query span
            qe = RunConfig(strategy="alpha_qe", n_topk=3, n_qe=5, threads=2)
            pipeline.process_queries(world.database, world.queries, qe)
        argv = ["run", "--manifest", str(manifest), "--strategy", "spectral",
                "--n-topk", "2", "--threads", "2", "--out", str(tmp_path / "results.jsonl")]
        with workloads._span_cm(tracer, spans.PASS, (2, None)):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
    finally:
        tracer.uninstall()

    required = workloads._COMMON | workloads._SPECTRAL | workloads._CLI
    assert sorted(required - {s.name for s in tracer.spans}) == []
    assert spans.orphans(tracer.spans) == []
    # what the traced run computes from these spans raises no WrapperDrift,
    # and the self times add up (an integer identity, not a timing bound)
    # three query runs: spectral and QE in memory, spectral through the CLI;
    # each query is one `pipeline.query` span opened by its one retrieval
    queries = 3 * len(world.queries)
    assert sum(s.name == spans.QUERY for s in tracer.spans) == queries
    metrics, reconciles, count = layers.from_trace(
        tracer.spans, required, queries, 1.0, workloads.RECONCILE_RTOL)
    assert reconciles[0], reconciles[1]
    assert count == len(tracer.spans)
    assert metrics["retrieval.query_topk.calls"][0] == 1.0
    assert metrics["storage.bytes_written"][0] > 0


def test_eigvalsh_spot_check_passes_on_the_pool_path(bench, monkeypatch, tmp_path):
    # the benchmark's only call of score_candidates with workers > 1: its
    # s* against eigvalsh of build_compatibility_matrix, on two threads
    # even on a one-CPU host
    _, _, workloads = bench
    monkeypatch.setattr(workloads, "nproc", lambda: 2)
    world = synthgen.generate_world(synthgen.WorldConfig(
        seed=3, num_places=12, num_queries=4, points_per_scan=32))
    wl = dataclasses.replace(workloads.WORKLOADS["sgv_k20"], threads=2)
    ctx = workloads.Context(wl, world_seed=3, run_seed=3, workdir=tmp_path, world=world)
    assert ctx.threads == 2
    assert workloads.eigvalsh_spot_check(ctx) <= workloads.EIG_RTOL


def test_traced_rir_pool_spans_hang_below_their_query(bench):
    # RANSAC-RIR registers its candidates in a pool; the tracer links worker
    # spans only through the pools of the modules in POOL_MODULES, so a pool
    # built elsewhere leaves the workers' spans without a parent
    layers, spans, workloads = bench
    tracer = spans.Tracer()
    tracer.install(layers.TARGETS, layers.POOL_MODULES)
    try:
        with workloads._span_cm(tracer, spans.SETUP, None):
            world = synthgen.generate_world(synthgen.WorldConfig(
                seed=3, num_places=12, num_queries=4, points_per_scan=32))
        cfg = RunConfig(strategy="ransac_rir", n_topk=3, threads=2)
        with workloads._span_cm(tracer, spans.PASS, (1, None)):
            outcomes = pipeline.process_queries(world.database, world.queries, cfg)
            pipeline.build_report(outcomes, cfg, len(world.database))
    finally:
        tracer.uninstall()

    assert spans.orphans(tracer.spans) == []
    queries = len(world.queries)
    # n_topk candidate registrations and the top-1 registration per query
    registrations = sum(s.name == "registration.ransac_register" for s in tracer.spans)
    assert registrations == (cfg.n_topk + 1) * queries
    _, reconciles, count = layers.from_trace(
        tracer.spans, workloads.WORKLOADS["rir_k20"].required, queries, 1.0,
        workloads.RECONCILE_RTOL)
    assert reconciles[0], reconciles[1]
    assert count == len(tracer.spans)
