"""End-to-end runs: retrieve, re-rank, register, evaluate, report.

`process_queries` runs stage by stage over blocks of queries: retrieval,
re-ranking, top-1 registration, then the outcomes, each stage for every
query of a block before the next starts. Per-query failures degrade to
worst-case outcomes (identity ranking, no pose) instead of aborting a run.
All randomness derives from the run seed via per-query seed sequences, so
outcomes do not depend on the order the queries' calls run in. Only
RANSAC-RIR spreads its candidates over `threads` workers, each seeded by its
ordinal, so identical configs produce identical metric summaries regardless
of thread count. A RANSAC-RIR run opens one pool of those workers for all
its queries; every other strategy opens none.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Executor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ScanrankError
from .geometry import ScanRecord
from .matching import match_features
from .metrics import (
    QueryOutcome,
    build_metric_report,
    top1_distance_regressions,
    ground_truth_positives,
    pose_errors,
)
from .registration import RansacParams, ransac_register
from .rerank import (
    Strategy,
    rerank_alpha_qe,
    rerank_average_qe,
    rerank_rir,
    rerank_spectral,
    rir_pool,
)
from .retrieval import Database, RankedList, build_index, query_topk
from .spectral import SpectralParams
from .storage import DatasetManifest, ResultsReport, load_dataset, write_results


@dataclass(frozen=True)
class RunConfig:
    manifest: str = ""
    strategy: str = "spectral"     # a Strategy value
    n_topk: int = 20
    n_qe: int | None = None        # defaults to n_topk
    alpha: float = 3.0
    radii: tuple[float, ...] = (5.0, 20.0)
    recall_ks: tuple[int, ...] = (1, 5, 20)
    seed: int = 0
    threads: int = 0               # RANSAC-RIR workers; 0 = one per CPU
    out: str = ""
    spectral: SpectralParams = field(default_factory=SpectralParams)
    ransac: RansacParams = field(default_factory=RansacParams)
    bench_n_topk: tuple[int, ...] = (2, 20)
    bench_strategies: tuple[str, ...] = ("spectral", "ransac_rir")

    def __post_init__(self) -> None:
        known = [s.value for s in Strategy]
        for name in (self.strategy, *self.bench_strategies):
            if name not in known:
                raise ValueError(f"unknown strategy {name!r}, expected one of {known}")
        if self.n_topk < 1:
            raise ValueError(f"n_topk must be >= 1, got {self.n_topk}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.threads < 0:
            raise ValueError(f"threads must be >= 0 (0 = one per CPU), got {self.threads}")
        if not all(k >= 1 for k in self.bench_n_topk):
            raise ValueError(f"every bench_n_topk must be >= 1, got {self.bench_n_topk}")
        if self.n_qe is not None and self.n_qe < 0:
            raise ValueError(f"n_qe must be >= 0, got {self.n_qe}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.radii or not all(r > 0 for r in self.radii):
            raise ValueError(f"radii must be one or more values > 0, got {self.radii}")
        if not all(k >= 1 for k in self.recall_ks):
            raise ValueError(f"every recall k must be >= 1, got {self.recall_ks}")

    def threads_used(self, strategies) -> int:
        """Threads a run of `strategies` spreads work over: only RANSAC-RIR
        uses `threads` workers (0 = one per CPU), every other strategy runs
        on one."""
        if Strategy.RANSAC_RIR.value not in strategies:
            return 1
        return self.threads if self.threads > 0 else len(os.sched_getaffinity(0))


def _query_seed(run_seed: int, query_ordinal: int, stream: int) -> int:
    """Stable per-query seed; stream 0 re-ranks, stream 1 registers."""
    return int(np.random.SeedSequence([run_seed, query_ordinal, stream]).generate_state(1)[0])


def _rerank(
    cfg: RunConfig,
    query: ScanRecord,
    ranked: RankedList,
    query_ordinal: int,
    pool: Executor | None,
) -> RankedList:
    strategy = Strategy(cfg.strategy)
    if strategy is Strategy.NONE:
        return ranked
    if strategy is Strategy.SPECTRAL:
        return rerank_spectral(query, ranked, cfg.n_topk, cfg.spectral)
    if strategy is Strategy.RANSAC_RIR:
        ransac = replace(cfg.ransac, seed=_query_seed(cfg.seed, query_ordinal, 0))
        return rerank_rir(query, ranked, cfg.n_topk, cfg.spectral, ransac, pool)
    n_qe = min(_n_qe(cfg), len(ranked))
    # the new list holds as many rows as the old; its keys order the rest
    if strategy is Strategy.AVERAGE_QE:
        return rerank_average_qe(query.global_descriptor, ranked, n_qe, k=len(ranked))
    return rerank_alpha_qe(query.global_descriptor, ranked, n_qe, cfg.alpha, k=len(ranked))


def _n_qe(cfg: RunConfig) -> int:
    return cfg.n_topk if cfg.n_qe is None else cfg.n_qe


# Queries per block. Within a block each stage runs for every query before
# the next stage starts, so a stage's code and data stay in cache from one
# call to the next; the block bounds the rankings held between stages (each
# carries an N-float key vector) at _BLOCK · N floats.
_BLOCK = 64


def process_queries(
    database: list[ScanRecord],
    queries: list[ScanRecord],
    cfg: RunConfig,
) -> list[QueryOutcome]:
    """Retrieve, re-rank and register every query; never aborts on one query.

    Queries go in blocks of `_BLOCK`, stage by stage: retrieval for every
    query of the block, then re-ranking, then top-1 matching and RANSAC,
    then the outcomes. Every call gets the arguments and seeds it would get
    query by query, and no stage reads another query's state, so the
    outcomes do not depend on the block size. Each timing covers that
    query's own call.

    Each outcome holds the first-positive rank of the full ranking before
    and after re-ranking at every radius, from one row mask per radius,
    and the first D ids of both rankings for the results file, D = min(N,
    max(n_topk, max(recall_ks), every first-positive rank)). So a record
    lists every first positive and the top k at every recall k.

    Retrieval sorts only the first k0 = min(N, max(n_topk, max(recall_ks),
    n_qe)) rows, all that a re-ranker reads; the lists extend to D through
    their keys. `query_topk` runs once per query and the geo distances
    once, for the positives, the ranks and the top-1 distances.
    """
    db = build_index(database)
    k0 = min(len(db), max(cfg.n_topk, *cfg.recall_ks, _n_qe(cfg)))

    def retrieve(qi: int, query: ScanRecord) -> RankedList:
        return query_topk(db, query.global_descriptor, k=k0)

    def rerank(qi: int, query: ScanRecord, ranked_pre: RankedList) -> RankedList:
        try:
            return _rerank(cfg, query, ranked_pre, qi, pool)
        except ScanrankError:
            return ranked_pre

    def register(qi: int, query: ScanRecord, ranked_post: RankedList) -> tuple:
        """(estimated pose, ground-truth relative pose) of the top-1, or Nones."""
        top1 = db.records[ranked_post.rows[0]]
        try:
            corrs = match_features(query, top1, cfg.spectral.n_max, cfg.spectral.mutual)
            params = replace(cfg.ransac, seed=_query_seed(cfg.seed, qi, 1))
            return (ransac_register(corrs, params).transform,
                    top1.gt_pose.inverse().compose(query.gt_pose))
        except ScanrankError:
            return None, None

    outcomes: list[QueryOutcome] = []
    with rir_pool(cfg.threads_used((cfg.strategy,))) as pool:
        for start in range(0, len(queries), _BLOCK):
            block = list(enumerate(queries[start:start + _BLOCK], start))
            pre, retrieve_ms = _timed_stage(retrieve, block)
            post, rerank_ms = _timed_stage(rerank, block, pre)
            poses, register_ms = _timed_stage(register, block, post)
            for i, (_, query) in enumerate(block):
                timings = {"retrieve_ms": retrieve_ms[i], "rerank_ms": rerank_ms[i],
                           "register_ms": register_ms[i]}
                outcomes.append(_outcome(db, cfg, query, pre[i], post[i], poses[i], timings))
    return outcomes


def _timed_stage(fn, block: list[tuple[int, ScanRecord]], *columns) -> tuple[list, list[float]]:
    """fn(ordinal, query, *that query's column entries) for every query of
    `block` in order; returns the results and each call's time in ms."""
    results, ms = [], []
    for (qi, query), *args in zip(block, *columns):
        t0 = time.perf_counter()
        results.append(fn(qi, query, *args))
        ms.append((time.perf_counter() - t0) * 1e3)
    return results, ms


def _outcome(
    db: Database,
    cfg: RunConfig,
    query: ScanRecord,
    ranked_pre: RankedList,
    ranked_post: RankedList,
    registration: tuple,
    timings: dict[str, float],
) -> QueryOutcome:
    distances = db.distances_to(query.geo_location)
    positives = {r: ground_truth_positives(db, distances, r) for r in cfg.radii}
    first_pre, first_post = {}, {}
    for r in cfg.radii:
        mask = distances <= r
        first_pre[r] = ranked_pre.first_rank(mask)
        first_post[r] = ranked_post.first_rank(mask)
    ranks = [k for k in (*first_pre.values(), *first_post.values()) if k is not None]
    depth = min(len(db), max(cfg.n_topk, *cfg.recall_ks, *ranks))
    pose, gt_rel = registration
    return QueryOutcome(
        query_id=query.id,
        ranked_ids_pre=ranked_pre.top_ids(depth),
        ranked_ids_post=ranked_post.top_ids(depth),
        positives=positives,
        first_rank_pre=first_pre,
        first_rank_post=first_post,
        top1_distance_pre=float(distances[ranked_pre.rows[0]]),
        top1_distance_post=float(distances[ranked_post.rows[0]]),
        pose_estimate=pose,
        gt_relative=gt_rel,
        timings=timings,
    )


def _query_record(outcome: QueryOutcome, radii: tuple[float, ...]) -> dict:
    rec: dict = {
        "query_id": outcome.query_id,
        "ranked_pre": list(outcome.ranked_ids_pre),
        "ranked_post": list(outcome.ranked_ids_post),
        "positives": {str(r): sorted(outcome.positives[r]) for r in radii},
        "top1_distance_pre": outcome.top1_distance_pre,
        "top1_distance_post": outcome.top1_distance_post,
        "first_positive_rank": {str(r): outcome.first_rank_post[r] for r in radii},
        "timings": outcome.timings,
    }
    if outcome.pose_estimate is not None and outcome.gt_relative is not None:
        rte, rre = pose_errors(outcome.pose_estimate, outcome.gt_relative)
        rec["rte"] = rte
        rec["rre"] = rre
    else:
        rec["rte"] = None
        rec["rre"] = None
    return rec


def build_report(
    outcomes: list[QueryOutcome],
    cfg: RunConfig,
    database_size: int,
) -> ResultsReport:
    """Assemble the results file content for one run.

    The summary carries only metric numbers (no timings), so two runs with
    identical seeds compare byte-for-byte; aggregate timings go into a
    separate timing record.
    """
    reranked = Strategy(cfg.strategy) is not Strategy.NONE
    baseline = build_metric_report(outcomes, cfg.recall_ks, cfg.radii,
                                   reranked=False, include_pose=not reranked)
    summary: dict = {
        "strategy": cfg.strategy,
        "n_topk": cfg.n_topk,
        "seed": cfg.seed,
        "num_database": database_size,
        "num_queries": len(outcomes),
        "baseline": baseline.to_dict(),
    }
    if reranked:
        summary["reranked"] = build_metric_report(outcomes, cfg.recall_ks, cfg.radii,
                                                  reranked=True, include_pose=True).to_dict()
        summary["top1_distance"] = {}
        for r in cfg.radii:
            violations, pre, post = top1_distance_regressions(outcomes, r)
            summary["top1_distance"][str(r)] = {
                "violations": violations,
                "mean_top1_distance_before": pre,
                "mean_top1_distance_after": post,
            }

    timing = {
        "mean_retrieve_ms": float(np.mean([o.timings["retrieve_ms"] for o in outcomes])),
        "mean_rerank_ms": float(np.mean([o.timings["rerank_ms"] for o in outcomes])),
        "mean_register_ms": float(np.mean([o.timings["register_ms"] for o in outcomes])),
        "threads": cfg.threads_used((cfg.strategy,)),
    } if outcomes else {}

    # the header leaves out fields that cannot change a result: the thread
    # count, the output path, the bench grid, and the RANSAC seed, which the
    # run seed replaces per query
    config_record = asdict(cfg)
    for key in ("threads", "out", "bench_n_topk", "bench_strategies"):
        del config_record[key]
    del config_record["ransac"]["seed"]
    config_record["manifest"] = str(cfg.manifest)
    return ResultsReport(
        config=config_record,
        per_query=[_query_record(o, cfg.radii) for o in outcomes],
        summary=summary,
        timing=timing,
    )


def run(database: list[ScanRecord], queries: list[ScanRecord], cfg: RunConfig) -> ResultsReport:
    outcomes = process_queries(database, queries, cfg)
    report = build_report(outcomes, cfg, len(database))
    if cfg.out:
        write_results(cfg.out, report)
    return report


def run_from_manifest(cfg: RunConfig, manifest: DatasetManifest | None = None) -> ResultsReport:
    """Load and run `cfg.manifest`, or `manifest` if the caller already parsed it."""
    database, queries = load_dataset(cfg.manifest if manifest is None else manifest)
    return run(database, queries, cfg)


@dataclass(frozen=True)
class BenchRow:
    strategy: str
    n_topk: int
    mean_rerank_ms: float
    recall_at_1: float     # 5 m radius, post re-rank
    mrr: float             # 5 m radius, post re-rank


def run_bench(
    database: list[ScanRecord],
    queries: list[ScanRecord],
    cfg: RunConfig,
) -> tuple[list[BenchRow], ResultsReport]:
    """Grid over strategies and n_topk; reports mean re-rank time and recall."""
    rows: list[BenchRow] = []
    radius = cfg.radii[0]
    for strategy in cfg.bench_strategies:
        for n_topk in cfg.bench_n_topk:
            run_cfg = replace(cfg, strategy=strategy, n_topk=n_topk, out="")
            outcomes = process_queries(database, queries, run_cfg)
            report = build_metric_report(outcomes, (1,), (radius,),
                                         reranked=True, include_pose=False)
            rows.append(BenchRow(
                strategy=strategy,
                n_topk=n_topk,
                mean_rerank_ms=float(np.mean([o.timings["rerank_ms"] for o in outcomes])),
                recall_at_1=report.recall_at[radius][1],
                mrr=report.mrr[radius],
            ))
    report = ResultsReport(
        config={"manifest": str(cfg.manifest), "seed": cfg.seed,
                "bench_strategies": list(cfg.bench_strategies),
                "bench_n_topk": list(cfg.bench_n_topk)},
        per_query=[],
        summary={"bench": [asdict(r) for r in rows], "radius": radius},
        timing={"threads": cfg.threads_used(cfg.bench_strategies)},
    )
    if cfg.out:
        write_results(cfg.out, report)
    return rows, report

