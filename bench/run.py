"""scanrank benchmark: one workload per process, or every workload with --report.

    python3 bench/run.py --workload sgv_k20 --seed 0 --seconds 45 --trace 0
    python3 bench/run.py --report [--seed 0] [--seconds 45] [--out bench/BASELINE]

A workload run sets up its world, then times whole passes (process_queries
+ build_report in memory, or `scanrank run` in-process for the CLI
workload) until --seconds have passed, with at least 3 passes and 100
query latencies, and times the yardstick (yardstick.py) before each pass
and after the last. It checks the outputs, prints one DETAIL line (host facts,
checks, summary digest), and ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
library is wrapped by bench/spans.py and the metrics are per layer.
`attempted` counts queries run in timed passes and `failed` those left
without a pose estimate. A failed check makes the exit code 1.

The world seed and the run seed default to --seed; --world-seed and
--run-seed set them apart. The program receives only the generated world.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Fixed before numpy loads: workers x BLAS threads must not exceed nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--world-seed", type=int, default=None)
    p.add_argument("--run-seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true",
                   help="run every workload in fresh processes and print all metrics")
    p.add_argument("--out", type=Path, default=None,
                   help="with --report: write <out>.json and <out>.md")
    args = p.parse_args(argv)
    if not args.report and not args.workload:
        p.error("--workload or --report is required")
    return args


def run_workload(args) -> int:
    import layers
    import spans
    import workloads as W

    wl = W.WORKLOADS[args.workload]
    world_seed = args.seed if args.world_seed is None else args.world_seed
    run_seed = args.seed if args.run_seed is None else args.run_seed
    tracer = spans.Tracer() if args.trace else None
    with W.workdir_for(ROOT, wl.name) as workdir:
        ctx = W.Context(wl, world_seed, run_seed, workdir, tracer)
        if tracer is not None:
            tracer.install(layers.TARGETS, layers.POOL_MODULES)
        try:
            W.setup(ctx)
            passes = W.measure(ctx, args.seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
                ctx.tracer = None  # the checks below run untraced
        checks = W.checks(ctx, passes)
        attempted = sum(p.queries for p in passes)
        failed = sum(p.no_pose for p in passes)
        detail = {"workload": wl.name, "world_seed": world_seed, "run_seed": run_seed,
                  "threads": ctx.threads, "passes": len(passes),
                  "qps_per_pass": [p.queries / p.wall_s for p in passes],
                  "qps_rel_per_pass": W.qps_rel_per_pass(ctx, passes),
                  "yardstick_s": ctx.yardstick_s,
                  "latency_samples": attempted, "summary_digest": W.summary_digest(passes),
                  "host": W.host_facts()}
        e2e = W.end_to_end(ctx, passes)
        if tracer is not None:
            metrics, checks["self_time_reconciles"], detail["spans"] = layers.from_trace(
                tracer.spans, wl.required, attempted, e2e["qps_rel"][0], W.RECONCILE_RTOL)
        else:
            metrics = {k: v for k, v in e2e.items() if k not in W.JSON_EXCLUDED}
    detail["checks"] = {k: {"ok": ok, "detail": d} for k, (ok, d) in checks.items()}
    detail["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    correct = all(ok for ok, _ in checks.values())
    print("DETAIL " + json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "scanrank" / "__init__.py").is_file():
        print(f"bench: library source not found under {SRC.relative_to(ROOT)}/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.report:
        import report
        return report.main(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
