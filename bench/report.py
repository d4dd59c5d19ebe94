"""Run every workload in fresh processes and print all metrics with their checks.

    python3 bench/run.py --report [--seed 0] [--seconds 45] [--out bench/BASELINE]

Per workload: one untraced run (end-to-end metrics) and two traced runs of
the same seed (per-layer metrics; their exact counts must agree). Prints
host facts, an end-to-end table, every check, the per-layer table and the
tracing overhead (traced qps_rel against untraced qps_rel), and exits 1 when any
run or check fails. With --out, writes the same as <out>.md and <out>.json.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import layers
import workloads as W

RUN = Path(__file__).with_name("run.py")
RUN_TIMEOUT_S = 600


def _run(args, workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    for flag, value in (("--world-seed", args.world_seed), ("--run-seed", args.run_seed)):
        if value is not None:
            cmd += [flag, str(value)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    details = [json.loads(l[len("DETAIL "):]) for l in lines if l.startswith("DETAIL ")]
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"code": proc.returncode, "detail": details[-1] if details else {},
            "result": result, "stderr": proc.stderr[-2000:]}


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _table(header: list[str], rows: list[list]) -> list[str]:
    out = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    out += ["| " + " | ".join(_fmt(c) for c in row) + " |" for row in rows]
    return out


def main(args) -> int:
    names = list(W.WORKLOADS)
    runs = {}
    for name in names:
        runs[name] = {"untraced": _run(args, name, 0),
                      "traced": [_run(args, name, 1), _run(args, name, 1)]}
        print(f"ran {name}", file=sys.stderr, flush=True)

    failures: list[str] = []
    for name in names:
        for label, r in [("untraced", runs[name]["untraced"])] + \
                [(f"traced #{i + 1}", t) for i, t in enumerate(runs[name]["traced"])]:
            if r["code"] != 0 or r["result"] is None:
                failures.append(f"{name} {label}: exit {r['code']}: {r['stderr'].strip()}")

    host = runs[names[0]]["untraced"]["detail"].get("host", {})
    lines = ["# scanrank benchmark report", "",
             f"seed {args.seed}, {args.seconds:g} s measured per run, each run a fresh process.",
             "Host: " + ", ".join(f"{k} {v}" for k, v in host.items()), ""]

    e2e = {n: runs[n]["untraced"]["detail"].get("end_to_end", {}) for n in names}
    first = next(iter(e2e.values()))
    rows = [[k, first[k]["unit"]] + [e2e[n].get(k, {}).get("value", "") for n in names]
            for k in first]
    rows.append(["latency samples", "count"] +
                [runs[n]["untraced"]["detail"].get("latency_samples", "") for n in names])
    rows.append(["summary digest", "sha256/16"] +
                [runs[n]["untraced"]["detail"].get("summary_digest", "") for n in names])
    lines += ["## End to end (untraced run)", ""] + _table(["metric", "unit"] + names, rows)

    check_rows = []
    for name in names:
        r = runs[name]
        for label, run in [("untraced", r["untraced"]), ("traced #1", r["traced"][0]),
                           ("traced #2", r["traced"][1])]:
            for check, c in run["detail"].get("checks", {}).items():
                check_rows.append([name, label, check, "ok" if c["ok"] else "FAIL", c["detail"]])
                if not c["ok"]:
                    failures.append(f"{name} {label}: {check}: {c['detail']}")
        digests = {run["detail"].get("summary_digest") for run in [r["untraced"]] + r["traced"]}
        same = len(digests) == 1
        check_rows.append([name, "all three", "summary digest equal", "ok" if same else "FAIL",
                           ", ".join(sorted(map(str, digests)))])
        if not same:
            failures.append(f"{name}: summary digests differ across runs: {digests}")
        metrics = [t["result"]["metrics"] if t["result"] else {} for t in r["traced"]]
        differ = [k for k in layers.EXACT
                  if metrics[0].get(k, {}).get("value") != metrics[1].get(k, {}).get("value")]
        check_rows.append([name, "traced #1 vs #2", "exact counts repeat",
                           "ok" if not differ else "FAIL",
                           f"{len(layers.EXACT) - len(differ)}/{len(layers.EXACT)} identical"])
        if differ:
            failures.append(f"{name}: counts differ across traced runs: {differ}")
    lines += ["", "## Checks", ""] + _table(["workload", "run", "check", "result", "detail"],
                                           check_rows)

    layer = {n: (runs[n]["traced"][0]["result"] or {}).get("metrics", {}) for n in names}
    rows = [[k, unit] + [layer[n].get(k, {}).get("value", "") for n in names]
            for k, unit in layers.UNITS.items()]
    lines += ["", "## Per layer (traced run #1)", ""] + _table(["metric", "unit"] + names, rows)

    rows = []
    for n in names:
        plain = e2e[n].get("qps_rel", {}).get("value")
        traced = layer[n].get("trace.qps_rel", {}).get("value")
        ratio = traced / plain - 1.0 if plain and traced else ""
        rows.append([n, plain, traced, ratio])
    lines += ["", "## Tracing overhead", ""] + _table(
        ["workload", "untraced qps_rel", "traced qps_rel", "traced/untraced - 1"], rows)
    lines += ["", "Result: " + ("all checks pass" if not failures else "FAILED")]
    lines += [f"- {f}" for f in failures]

    text = "\n".join(lines) + "\n"
    print(text)
    if args.out is not None:
        args.out.with_suffix(".md").write_text(text, encoding="utf-8")
        record = {"seed": args.seed, "seconds": args.seconds, "host": host,
                  "workloads": {n: {"untraced": runs[n]["untraced"]["detail"],
                                    "end_to_end": runs[n]["untraced"]["result"],
                                    "per_layer": [t["result"] for t in runs[n]["traced"]],
                                    "traced_detail": [t["detail"] for t in runs[n]["traced"]]}
                                for n in names},
                  "failures": failures}
        args.out.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True)
                                                 + "\n", encoding="utf-8")
    return 1 if failures else 0
