"""Command-line front end: synth, run, bench and report subcommands.

Config files are UTF-8 `key = value` lines with `#` comments; unknown keys
are errors. Exit codes: 0 success, 1 usage/config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .errors import InvalidConfigError, ScanrankError
from .pipeline import RunConfig, bench_table, run_bench, run_from_manifest
from .registration import RansacParams
from .rerank import Strategy
from .spectral import SpectralParams
from .storage import DatasetManifest, load_dataset, read_manifest, read_results
from .synthgen import WorldConfig, export_world, generate_world

_USAGE_EXIT = 1
_RUNTIME_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_USAGE_EXIT)


def _parse_value(raw: str, target_type, key: str, path, lineno: int):
    raw = raw.strip()
    try:
        if target_type is bool:
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        if target_type is str:
            return raw
        if target_type == "int_tuple":
            return tuple(int(v) for v in raw.split(",") if v.strip())
        if target_type == "float_tuple":
            return tuple(float(v) for v in raw.split(",") if v.strip())
        if target_type == "str_tuple":
            return tuple(v.strip() for v in raw.split(",") if v.strip())
        if target_type == "optional_int":
            return None if raw.lower() in ("none", "") else int(raw)
    except ValueError as exc:
        raise InvalidConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    raise InvalidConfigError(f"{path}:{lineno}: unhandled type for {key!r}")


def _read_kv(path) -> list[tuple[str, str, int]]:
    p = Path(path)
    if not p.exists():
        raise InvalidConfigError(f"config file not found: {p}")
    entries = []
    for lineno, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfigError(f"{p}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        entries.append((key.strip(), value.strip(), lineno))
    return entries


_WORLD_TYPES = {f.name: f.type for f in fields(WorldConfig)}


def load_world_config(path, seed_override: int | None = None) -> WorldConfig:
    values = {}
    for key, raw, lineno in _read_kv(path):
        if key not in _WORLD_TYPES:
            raise InvalidConfigError(f"{path}:{lineno}: unknown key {key!r}")
        ftype = {"int": int, "float": float, "str": str}[_WORLD_TYPES[key]]
        values[key] = _parse_value(raw, ftype, key, path, lineno)
    if seed_override is not None:
        values["seed"] = seed_override
    return WorldConfig(**values)


_RUN_KEYS = {
    "manifest": str, "strategy": str, "n_topk": int, "n_qe": "optional_int",
    "alpha": float, "radii": "float_tuple", "recall_ks": "int_tuple",
    "seed": int, "threads": int, "out": str,
    "d_thr": float, "n_max": int, "tol": float, "max_iters": int, "mutual": bool,
    "inlier_threshold": float, "ransac_iterations": int, "confidence": float,
    "bench_n_topk": "int_tuple", "bench_strategies": "str_tuple",
}
_SPECTRAL_KEYS = {"d_thr", "n_max", "tol", "max_iters", "mutual"}
_RANSAC_KEYS = {"inlier_threshold", "ransac_iterations", "confidence"}


def load_run_config(path, args: argparse.Namespace) -> tuple[RunConfig, DatasetManifest]:
    """Config file values, overridden by flags, validated before any scan loads.

    The manifest is parsed here too, once per run, so a malformed one (an
    unknown role, a duplicate id, a path escaping its directory) is a config
    error; the parsed manifest is returned for loading.
    """
    plain: dict = {}
    spectral: dict = {}
    ransac: dict = {}
    if path:
        for key, raw, lineno in _read_kv(path):
            if key not in _RUN_KEYS:
                raise InvalidConfigError(f"{path}:{lineno}: unknown key {key!r}")
            value = _parse_value(raw, _RUN_KEYS[key], key, path, lineno)
            if key in _SPECTRAL_KEYS:
                spectral[key] = value
            elif key in _RANSAC_KEYS:
                ransac["max_iterations" if key == "ransac_iterations" else key] = value
            else:
                plain[key] = value
    for attr in ("manifest", "strategy", "n_topk", "seed", "threads", "out"):
        value = getattr(args, attr, None)
        if value is not None:
            plain[attr] = value
    try:
        cfg = RunConfig(
            spectral=SpectralParams(**spectral),
            ransac=RansacParams(**ransac),
            **plain,
        )
    except (ValueError, ScanrankError) as exc:
        raise InvalidConfigError(f"{path}: {exc}" if path else str(exc)) from exc
    if not cfg.manifest:
        raise InvalidConfigError("a manifest is required (config key 'manifest' or --manifest)")
    try:
        return cfg, read_manifest(cfg.manifest)
    except ScanrankError as exc:
        raise InvalidConfigError(str(exc)) from exc


def _cmd_synth(args) -> int:
    cfg = load_world_config(args.config, args.seed) if args.config else WorldConfig(
        seed=args.seed if args.seed is not None else 0
    )
    world = generate_world(cfg)
    manifest = export_world(world, args.out)
    print(manifest)
    return 0


def _cmd_run(args) -> int:
    cfg, manifest = load_run_config(args.config, args)
    report = run_from_manifest(cfg, manifest)
    _print_summary(report.summary)
    if cfg.out:
        print(f"results written to {cfg.out}")
    return 0


def _cmd_bench(args) -> int:
    cfg, manifest = load_run_config(args.config, args)
    database, queries = load_dataset(manifest)
    rows, report = run_bench(database, queries, cfg)
    print(bench_table(rows))
    if cfg.out:
        print(f"results written to {cfg.out}")
    return 0


def _print_summary(summary: dict) -> None:
    if "bench" in summary:
        for row in summary["bench"]:
            print(f"{row['strategy']:<12} n_topk={row['n_topk']:<4d} "
                  f"t={row['mean_rerank_ms']:.3f} ms R@1={row['recall_at_1']:.2f} "
                  f"MRR={row['mrr']:.2f}")
        return
    for stage in ("baseline", "reranked"):
        if stage not in summary:
            continue
        block = summary[stage]
        print(f"[{stage}]")
        for radius, by_k in sorted(block["recall"].items(), key=lambda kv: float(kv[0])):
            recalls = " ".join(
                f"R@{k}={v:.2f}" for k, v in sorted(by_k.items(), key=lambda kv: int(kv[0]))
            )
            print(f"  {float(radius):g} m: {recalls} MRR={block['mrr'][radius]:.2f}")
        if "success_rate" in block:
            print(f"  success={block['success_rate']:.2f}% "
                  f"mean_rte={block['mean_rte']:.3f} m mean_rre={block['mean_rre']:.3f} deg")
    if "top1_distance" in summary:
        for radius, stats in sorted(summary["top1_distance"].items(), key=lambda kv: float(kv[0])):
            print(f"  top-1 distance {float(radius):g} m: violations={stats['violations']} "
                  f"top1 dist {stats['mean_top1_distance_before']:.2f} -> "
                  f"{stats['mean_top1_distance_after']:.2f} m")


def _cmd_report(args) -> int:
    report = read_results(args.results)
    if report.config:
        print(f"config: {report.config}")
    _print_summary(report.summary)
    if report.timing:
        print(f"timing: {report.timing}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scanrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--config", type=str, default=None)
    p_synth.add_argument("--out", type=str, required=True)
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.set_defaults(func=_cmd_synth)

    for name, func in (("run", _cmd_run), ("bench", _cmd_bench)):
        p = sub.add_parser(name, help=f"{name} the retrieve/re-rank pipeline")
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--manifest", type=str, default=None)
        p.add_argument("--strategy", type=str, default=None,
                       choices=[s.value for s in Strategy])
        p.add_argument("--n-topk", dest="n_topk", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads for RANSAC-RIR re-ranking only (0 = one per CPU)")
        p.add_argument("--out", type=str, default=None)
        p.set_defaults(func=func)

    p_report = sub.add_parser("report", help="pretty-print a results file")
    p_report.add_argument("results", type=str)
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvalidConfigError as exc:
        print(f"scanrank: config error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except ScanrankError as exc:
        print(f"scanrank: error: {exc}", file=sys.stderr)
        return _RUNTIME_EXIT
    except OSError as exc:
        print(f"scanrank: io error: {exc}", file=sys.stderr)
        return _RUNTIME_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
