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
from .pipeline import RunConfig, run_bench, run_from_manifest
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


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _tuple(item):
    return lambda raw: tuple(item(v.strip()) for v in raw.split(",") if v.strip())


# one parser per field annotation; a field typed otherwise fails the import
_PARSERS = {
    "str": str, "int": int, "float": float, "bool": _bool,
    "int | None": lambda raw: None if raw.lower() in ("none", "") else int(raw),
    "tuple[int, ...]": _tuple(int), "tuple[float, ...]": _tuple(float),
    "tuple[str, ...]": _tuple(str),
}


def _keys(cls, group=None, skip=()) -> dict:
    """field name -> (group, field name, parser) for each field of `cls`."""
    return {f.name: (group, f.name, _PARSERS[f.type]) for f in fields(cls) if f.name not in skip}


# Every field is a key but the RANSAC seed, which the run seed replaces per
# query; `ransac_iterations` is the one key renamed.
_RUN_KEYS = {
    **_keys(RunConfig, skip=("spectral", "ransac")),
    **_keys(SpectralParams, "spectral"),
    **_keys(RansacParams, "ransac", skip=("seed",)),
}
_RUN_KEYS["ransac_iterations"] = _RUN_KEYS.pop("max_iterations")
_WORLD_KEYS = _keys(WorldConfig)


def _read_config(path, args, table) -> dict:
    """Field values by group: the config file's `key = value` lines, then
    the flags in `args` named like a key, which override them."""
    values: dict = {group: {} for group, _, _ in table.values()}
    lines: list[str] = []
    if path:
        if not Path(path).exists():
            raise InvalidConfigError(f"config file not found: {path}")
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise InvalidConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in table:
            raise InvalidConfigError(f"{path}:{lineno}: unknown key {key!r}")
        group, name, parse = table[key]
        try:
            values[group][name] = parse(value)
        except ValueError as exc:
            raise InvalidConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    for key, (group, name, _) in table.items():
        flag = getattr(args, key, None)
        if flag is not None:
            values[group][name] = flag
    return values


def load_world_config(path, args: argparse.Namespace | None = None) -> WorldConfig:
    return WorldConfig(**_read_config(path, args, _WORLD_KEYS)[None])


def load_run_config(path, args: argparse.Namespace) -> tuple[RunConfig, DatasetManifest]:
    """Config file values, overridden by flags, validated before any scan loads.

    The manifest is parsed here too, once per run, so a malformed one (an
    unknown role, a duplicate id, a path escaping its directory) is a config
    error; the parsed manifest is returned for loading.
    """
    values = _read_config(path, args, _RUN_KEYS)
    try:
        cfg = RunConfig(
            spectral=SpectralParams(**values["spectral"]),
            ransac=RansacParams(**values["ransac"]),
            **values[None],
        )
    except (ValueError, ScanrankError) as exc:
        raise InvalidConfigError(str(exc)) from exc
    if not cfg.manifest:
        raise InvalidConfigError("a manifest is required (config key 'manifest' or --manifest)")
    try:
        return cfg, read_manifest(cfg.manifest)
    except ScanrankError as exc:
        raise InvalidConfigError(str(exc)) from exc


def _cmd_synth(args) -> int:
    world = generate_world(load_world_config(args.config, args))
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
    _, report = run_bench(database, queries, cfg)
    _print_summary(report.summary)
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
            # the mean errors are null when no query registered
            rte, rre = ("n/a" if block[key] is None else f"{block[key]:.3f}"
                        for key in ("mean_rte", "mean_rre"))
            print(f"  success={block['success_rate']:.2f}% "
                  f"mean_rte={rte} m mean_rre={rre} deg")
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
