"""Bit-exact file formats: scan archives, dataset manifests, results files.

Archive layout (all little-endian):
    magic "SGV1" | N:u32 | d':u32 | d:u32 | id_len:u32 | id bytes (UTF-8) |
    points N*3 f32 row-major | features N*d' f32 row-major | descriptor d f32 |
    gt_pose 16 f32 row-major 4x4 homogeneous | geo_location 3 f32

Manifest: UTF-8 text, one `<role> <id> <relative-path>` record per line with
role `db` or `query`; `#` starts a comment line. Paths stay inside the
manifest's directory: absolute paths and `..` components are rejected.

Results file: newline-delimited JSON records with deterministic key order; a
leading header record carries the run configuration, per-query records follow,
and a summary record closes the file. A query record's `ranked_pre` and
`ranked_post` hold the first D ids of each ranking, D = min(N, max(n_topk,
max(recall_ks), the first-positive rank of both lists at every radius)).
A positive lies in the top k exactly when the first-positive rank is <= k,
so recall@k at any k and MRR read the same from the record as from the full
ranking. The file is written to a temporary file and renamed onto the
target, so a failed write leaves any earlier file intact. Reading checks
that the summary's metric blocks and bench rows hold every field, of the
type, that `build_report` and `run_bench` write.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DimMismatchError,
    DuplicateIdError,
    InconsistentDimsError,
    IoError,
    MagicMismatchError,
    MissingFileError,
    TruncatedFileError,
)
from .geometry import ROTATION_TOL_F32, RigidTransform, ScanRecord

MAGIC = b"SGV1"
_HEADER = struct.Struct("<4sIIII")


def write_scan(path, record: ScanRecord) -> None:
    """Serialize one record; floats are stored exactly as the record holds them."""
    path = Path(path)
    id_bytes = record.id.encode("utf-8")
    n, dp = record.local_features.shape
    d = record.global_descriptor.shape[0]
    pose32 = record.gt_pose.matrix4().astype(np.float32)
    parts = [
        _HEADER.pack(MAGIC, n, dp, d, len(id_bytes)),
        id_bytes,
        np.ascontiguousarray(record.cloud, dtype="<f4").tobytes(),
        np.ascontiguousarray(record.local_features, dtype="<f4").tobytes(),
        np.ascontiguousarray(record.global_descriptor, dtype="<f4").tobytes(),
        np.ascontiguousarray(pose32, dtype="<f4").tobytes(),
        np.ascontiguousarray(record.geo_location, dtype="<f4").tobytes(),
    ]
    try:
        path.write_bytes(b"".join(parts))
    except OSError as exc:
        raise IoError(f"cannot write scan archive {path}: {exc}") from exc


def read_scan(path) -> ScanRecord:
    """Read one archive; a missing or malformed one raises a `ScanrankError`
    that names the file."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError as exc:
        raise MissingFileError(f"scan archive not found: {path}") from exc
    try:  # one read of the size the file has; a short read fails the length checks below
        data = os.read(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)
    if len(data) < _HEADER.size:
        raise TruncatedFileError(f"{path}: shorter than header")
    magic, n, dp, d, id_len = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise MagicMismatchError(f"{path}: bad magic {magic!r}")
    if n < 1 or dp < 1 or d < 1:
        raise DimMismatchError(f"{path}: non-positive dims N={n} d'={dp} d={d}")
    off = _HEADER.size
    if len(data) < off + id_len:
        raise TruncatedFileError(f"{path}: id truncated")
    id_bytes = data[off:off + id_len]
    off += id_len

    counts = (n * 3, n * dp, d, 16, 3)
    total = sum(counts) * 4
    if len(data) - off < total:
        raise TruncatedFileError(
            f"{path}: payload has {len(data) - off} bytes, header declares {total}"
        )
    if len(data) - off > total:
        raise DimMismatchError(
            f"{path}: payload has {len(data) - off} bytes, header declares {total}"
        )

    # read-only views of `data`, which ScanRecord keeps without copying
    floats = np.frombuffer(data, dtype="<f4", offset=off)
    i, j, k = n * 3, n * 3 + n * dp, n * 3 + n * dp + d
    cloud = floats[:i].reshape(n, 3)
    feats = floats[i:j].reshape(n, dp)
    desc = floats[j:k]
    pose = floats[k:k + 16].reshape(4, 4)
    geo = floats[k + 16:]
    try:
        gt_pose = RigidTransform.from_matrix(pose, orthonormal_tol=ROTATION_TOL_F32)
        scan_id = id_bytes.decode("utf-8")
        if scan_id and np.isfinite(floats).all():
            return ScanRecord._from_archive(scan_id, cloud, feats, desc, gt_pose, geo)
        # the validating constructor names the fault, in the order it checks
        return ScanRecord(scan_id, cloud, feats, desc, gt_pose, geo)
    except ValueError as exc:  # UnicodeDecodeError is a ValueError too
        raise IoError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class DatasetManifest:
    """Parsed manifest: ordered (id, path) per role. Each path is a `str`,
    the manifest's directory joined with the line's relative path."""

    database: tuple[tuple[str, str], ...]
    queries: tuple[tuple[str, str], ...]


def _read_lines(path: Path, what: str) -> list[str]:
    """The UTF-8 text lines of `path`; a missing or undecodable file raises
    an error that names it."""
    if not path.exists():
        raise MissingFileError(f"{what} not found: {path}")
    try:
        return path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise IoError(f"{path}: not UTF-8 text: {exc}") from exc


def read_manifest(path) -> DatasetManifest:
    path = Path(path)
    lines = _read_lines(path, "manifest")
    base = os.path.dirname(path)
    db: list[tuple[str, str]] = []
    queries: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3:
            raise IoError(f"{path}:{lineno}: expected '<role> <id> <path>', got {raw!r}")
        role, scan_id, rel = fields
        if scan_id in seen:
            raise DuplicateIdError(f"{path}:{lineno}: duplicate id {scan_id!r}")
        seen.add(scan_id)
        # string checks and joins, not Path parts: this runs once per line of
        # manifests with thousands of lines; either slash counts as a separator
        if os.path.isabs(rel) or ".." in rel.replace("\\", "/").split("/"):
            raise IoError(f"{path}:{lineno}: path {rel!r} escapes the dataset directory")
        target = os.path.join(base, rel)
        if role == "db":
            db.append((scan_id, target))
        elif role == "query":
            queries.append((scan_id, target))
        else:
            raise IoError(f"{path}:{lineno}: unknown role {role!r}")
    return DatasetManifest(tuple(db), tuple(queries))


def load_dataset(manifest) -> tuple[list[ScanRecord], list[ScanRecord]]:
    """Load all scans of a manifest, given as a path or as a parsed
    `DatasetManifest`, in manifest order; checks ids and dim consistency."""
    if not isinstance(manifest, DatasetManifest):
        manifest = read_manifest(manifest)

    def load(entries):
        records = []
        for scan_id, p in entries:
            rec = read_scan(p)
            if rec.id != scan_id:
                raise IoError(f"{p}: archive id {rec.id!r} != manifest id {scan_id!r}")
            records.append(rec)
        return records

    database = load(manifest.database)
    queries = load(manifest.queries)
    dims = {(r.feature_dim, r.descriptor_dim) for r in database + queries}
    if len(dims) > 1:
        raise InconsistentDimsError(f"mixed (d', d) across dataset: {sorted(dims)}")
    return database, queries


@dataclass
class ResultsReport:
    """In-memory form of a results file."""

    config: dict
    per_query: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)


def _dump(kind: str, payload: dict) -> str:
    return json.dumps({"kind": kind, **payload}, sort_keys=True)


def write_results(path, report: ResultsReport) -> None:
    """Write header, per-query, timing and summary records, one JSON per line.

    Key order is sorted so identical reports produce identical bytes. The
    summary record carries no timing fields; aggregate timings go into a
    separate record so summaries compare bytewise across hosts. The bytes go
    to a temporary file in the target's directory, which then replaces the
    target; on failure the temporary file is removed and `IoError` raised.
    """
    lines = [_dump("header", {"config": report.config})]
    lines += [_dump("query", q) for q in report.per_query]
    if report.timing:
        lines.append(_dump("timing", report.timing))
    lines.append(_dump("summary", {"summary": report.summary}))
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise IoError(f"cannot write results to {path}: {exc}") from exc


class _Malformed(Exception):
    pass


_NUMBER = (int, float)
_NUMBER_OR_NULL = (int, float, type(None))
_KINDS = {dict: "a JSON object", list: "a JSON array", str: "a string", int: "an integer",
          _NUMBER: "a number", _NUMBER_OR_NULL: "a number or null"}


def _get(obj: dict, key: str, kind, where: str):
    """obj[key] if it is a `kind`; `where` names obj in the error."""
    if key not in obj:
        raise _Malformed(f"{where} has no {key!r}")
    if not isinstance(obj[key], kind):
        raise _Malformed(f"{where}[{key!r}] is not {_KINDS[kind]}, "
                         f"got {type(obj[key]).__name__}")
    return obj[key]


def _check_key(key: str, parse, where: str) -> None:
    """`float` or `int` must parse the JSON key `key` of `where`."""
    try:
        parse(key)
    except ValueError:
        raise _Malformed(f"{where} has the key {key!r}, which is not "
                         f"{_KINDS[_NUMBER if parse is float else int]}") from None


def _check_summary(summary: dict) -> None:
    """Raise `_Malformed` where a metric block of a summary lacks a field, or
    holds one of another type, that `build_report` or `run_bench` writes."""
    if "bench" in summary:
        for i, row in enumerate(_get(summary, "bench", list, "summary")):
            where = f"summary['bench'][{i}]"
            if not isinstance(row, dict):
                raise _Malformed(f"{where} is not a JSON object, got {type(row).__name__}")
            _get(row, "strategy", str, where)
            _get(row, "n_topk", int, where)
            for name in ("mean_rerank_ms", "recall_at_1", "mrr"):
                _get(row, name, _NUMBER, where)
    for stage in ("baseline", "reranked"):
        if stage not in summary:
            continue
        where = f"summary[{stage!r}]"
        block = _get(summary, stage, dict, "summary")
        recall = _get(block, "recall", dict, where)
        mrr = _get(block, "mrr", dict, where)
        for radius in recall:
            _check_key(radius, float, f"{where}['recall']")
            by_k = _get(recall, radius, dict, f"{where}['recall']")
            for k in by_k:
                _check_key(k, int, f"{where}['recall'][{radius!r}]")
                _get(by_k, k, _NUMBER, f"{where}['recall'][{radius!r}]")
            _get(mrr, radius, _NUMBER, f"{where}['mrr']")
        if "success_rate" in block:
            _get(block, "success_rate", _NUMBER, where)
            _get(block, "mean_rte", _NUMBER_OR_NULL, where)
            _get(block, "mean_rre", _NUMBER_OR_NULL, where)
    if "top1_distance" in summary:
        by_radius = _get(summary, "top1_distance", dict, "summary")
        for radius in by_radius:
            _check_key(radius, float, "summary['top1_distance']")
            where = f"summary['top1_distance'][{radius!r}]"
            stats = _get(by_radius, radius, dict, "summary['top1_distance']")
            _get(stats, "violations", int, where)
            _get(stats, "mean_top1_distance_before", _NUMBER, where)
            _get(stats, "mean_top1_distance_after", _NUMBER, where)


def read_results(path) -> ResultsReport:
    path = Path(path)
    objects: dict = {"config": {}, "summary": {}}  # the header's config, the summary's summary
    timing: dict = {}
    per_query: list[dict] = []
    for lineno, line in enumerate(_read_lines(path, "results file"), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise IoError(f"{path}:{lineno}: invalid record: {exc}") from exc
        if not isinstance(rec, dict):
            raise IoError(f"{path}:{lineno}: expected a JSON object, got {type(rec).__name__}")
        kind = rec.pop("kind", None)
        if kind == "query":
            per_query.append(rec)
        elif kind == "timing":
            timing = rec
        elif kind in ("header", "summary"):
            key = "config" if kind == "header" else "summary"
            if key not in rec:
                raise IoError(f"{path}:{lineno}: {kind} record has no {key!r}")
            if not isinstance(rec[key], dict):
                raise IoError(f"{path}:{lineno}: {kind} record's {key!r} is not a JSON object, "
                              f"got {type(rec[key]).__name__}")
            if kind == "summary":
                try:
                    _check_summary(rec[key])
                except _Malformed as exc:
                    raise IoError(f"{path}:{lineno}: {exc}") from None
            objects[key] = rec[key]
        else:
            raise IoError(f"{path}:{lineno}: unknown record kind {kind!r}")
    return ResultsReport(per_query=per_query, timing=timing, **objects)


def summary_line(path) -> str:
    """Return the raw summary record line (used for byte-level comparisons)."""
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith('{"kind": "summary"'):
            return line
    raise IoError(f"{path}: no summary record")
