"""Evaluation metrics: Recall@k, MRR, top-1 distance checks, pose errors.

A query is *evaluable* at a radius when the database contains at least one
scan within that radius of it; recall, MRR and the top-1 distance check all
share that denominator. Recall and MRR read only each outcome's
first-positive ranks; an evaluable query whose ranking holds no positive
(rank None) misses at every k and contributes 0 to MRR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoEvaluableQueriesError
from .geometry import RigidTransform
from .retrieval import Database


@dataclass(frozen=True)
class QueryOutcome:
    """Everything the metrics and the results file need about one query.

    `first_rank_pre` and `first_rank_post` map each revisit radius to the
    1-based rank of the first positive in the full ranking before and after
    re-ranking, None if it holds none. Recall@k and MRR read only these,
    and so does the results record's rank field. `ranked_ids_pre` and
    `ranked_ids_post` are the first D ids of each ranking (D as in
    `process_queries`), which the results file lists.
    """

    query_id: str
    ranked_ids_pre: tuple[str, ...]
    ranked_ids_post: tuple[str, ...]
    positives: dict[float, frozenset[str]]  # revisit radius -> db ids
    first_rank_pre: dict[float, int | None]   # revisit radius -> rank
    first_rank_post: dict[float, int | None]
    top1_distance_pre: float
    top1_distance_post: float
    pose_estimate: RigidTransform | None = None  # relative query -> top-1 candidate
    gt_relative: RigidTransform | None = None
    timings: dict[str, float] = field(default_factory=dict)


def ground_truth_positives(database: Database, distances: np.ndarray, radius: float) -> frozenset[str]:
    """Ids of database scans within `radius` meters of a query.

    `distances` are the query's geo distances to every row, in row order, as
    `database.distances_to(query.geo_location)` returns them; a caller that
    needs several radii computes them once. `process_queries` thresholds
    the same array into the row masks whose `RankedList.first_rank` gives
    the first-positive ranks, so positives and ranks agree bit for bit.
    """
    if not radius > 0:
        raise ValueError(f"radius must be > 0, got {radius}")
    distances = np.asarray(distances)
    if distances.shape != (len(database),):
        raise ValueError(f"distances must have shape ({len(database)},), got {distances.shape}")
    within = np.flatnonzero(distances <= radius)
    return frozenset(database.ids[i] for i in within)


def _evaluable(outcomes: list[QueryOutcome], radius: float) -> list[QueryOutcome]:
    selected = [o for o in outcomes if o.positives[radius]]
    if not selected:
        raise NoEvaluableQueriesError(f"no query has a positive within {radius} m")
    return selected


def _first_ranks(outcomes: list[QueryOutcome], radius: float, reranked: bool) -> list[int | None]:
    """First-positive ranks of the evaluable queries at `radius`, in query order."""
    return [(o.first_rank_post if reranked else o.first_rank_pre)[radius]
            for o in _evaluable(outcomes, radius)]


def recall_at_k(outcomes: list[QueryOutcome], k: int, radius: float, reranked: bool = True) -> float:
    """Percentage of evaluable queries with a positive in their top k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranks = _first_ranks(outcomes, radius, reranked)
    hits = sum(1 for rank in ranks if rank is not None and rank <= k)
    return 100.0 * hits / len(ranks)


def mean_reciprocal_rank(outcomes: list[QueryOutcome], radius: float, reranked: bool = True) -> float:
    """Mean of 1/rank of the first positive over evaluable queries, as a percentage."""
    ranks = _first_ranks(outcomes, radius, reranked)
    total = 0.0
    for rank in ranks:
        if rank is not None:
            total += 1.0 / rank
    return 100.0 * total / len(ranks)


def top1_distance_regressions(outcomes: list[QueryOutcome], radius: float) -> tuple[int, float, float]:
    """Count queries whose top-1 geo distance increased after re-ranking.

    Returns (violating_query_count, mean_top1_distance_before, mean after),
    over the evaluable queries at `radius`.
    """
    selected = _evaluable(outcomes, radius)
    violations = sum(1 for o in selected if o.top1_distance_post > o.top1_distance_pre)
    mean_pre = float(np.mean([o.top1_distance_pre for o in selected]))
    mean_post = float(np.mean([o.top1_distance_post for o in selected]))
    return violations, mean_pre, mean_post


def pose_errors(estimate: RigidTransform, truth: RigidTransform) -> tuple[float, float]:
    """(RTE meters, RRE degrees) between two relative transforms."""
    rte = float(np.linalg.norm(estimate.translation - truth.translation))
    cos_angle = (np.trace(truth.rotation.T @ estimate.rotation) - 1.0) / 2.0
    rre = math.degrees(math.acos(min(1.0, max(-1.0, cos_angle))))
    return rte, rre


def success_rate(
    outcomes: list[QueryOutcome],
    rte_threshold: float = 2.0,
    rre_threshold: float = 5.0,
) -> float:
    """Percentage of all queries localized within the thresholds (inclusive).

    Queries without a pose estimate count as unsuccessful.
    """
    if not outcomes:
        raise NoEvaluableQueriesError("no outcomes to evaluate")
    successes = 0
    for o in outcomes:
        if o.pose_estimate is None or o.gt_relative is None:
            continue
        rte, rre = pose_errors(o.pose_estimate, o.gt_relative)
        if rte <= rte_threshold and rre <= rre_threshold:
            successes += 1
    return 100.0 * successes / len(outcomes)


def mean_pose_errors(outcomes: list[QueryOutcome]) -> tuple[float, float] | None:
    """Mean (RTE, RRE) over queries with a pose estimate; None if there are none."""
    errors = [
        pose_errors(o.pose_estimate, o.gt_relative)
        for o in outcomes
        if o.pose_estimate is not None and o.gt_relative is not None
    ]
    if not errors:
        return None
    rte = float(np.mean([e[0] for e in errors]))
    rre = float(np.mean([e[1] for e in errors]))
    return rte, rre


@dataclass(frozen=True)
class MetricReport:
    """Aggregated metrics for one ranking stage."""

    recall_at: dict[float, dict[int, float]]  # radius -> k -> percentage
    mrr: dict[float, float]                   # radius -> percentage
    success_rate: float | None = None
    mean_rte: float | None = None
    mean_rre: float | None = None

    def to_dict(self) -> dict:
        out: dict = {
            "recall": {str(r): {str(k): v for k, v in ks.items()}
                       for r, ks in self.recall_at.items()},
            "mrr": {str(r): v for r, v in self.mrr.items()},
        }
        if self.success_rate is not None:
            out["success_rate"] = self.success_rate
            out["mean_rte"] = self.mean_rte
            out["mean_rre"] = self.mean_rre
        return out


def build_metric_report(
    outcomes: list[QueryOutcome],
    ks: tuple[int, ...],
    radii: tuple[float, ...],
    reranked: bool,
    include_pose: bool,
) -> MetricReport:
    recall = {
        r: {k: recall_at_k(outcomes, k, r, reranked) for k in ks}
        for r in radii
    }
    mrr = {r: mean_reciprocal_rank(outcomes, r, reranked) for r in radii}
    if include_pose:
        sr = success_rate(outcomes)
        means = mean_pose_errors(outcomes)
        rte, rre = means if means is not None else (None, None)
        return MetricReport(recall, mrr, sr, rte, rre)
    return MetricReport(recall, mrr)
