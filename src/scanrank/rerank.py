"""Re-ranking strategies over an initial retrieval list.

Two geometric-verification strategies (spectral fitness, registered inlier
ratio) permute the top-k prefix of the input list; two query-expansion
strategies aggregate descriptors and re-retrieve from the list's whole
database, so their output may contain rows absent from the input list.
"""

from __future__ import annotations

from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import AbstractContextManager, nullcontext
from dataclasses import replace
from enum import Enum
from functools import partial

import numpy as np

from .errors import (
    DegenerateConfigurationError,
    DimMismatchError,
    TooFewCorrespondencesError,
    ZeroVectorError,
)
from .geometry import ScanRecord
from .matching import match_features
from .registration import RansacParams, ransac_register
from .retrieval import RankedList, query_topk
from .spectral import SpectralParams, score_candidates


class Strategy(Enum):
    """Every re-ranking strategy a run can use; the one list of their names."""

    NONE = "none"
    SPECTRAL = "spectral"
    RANSAC_RIR = "ransac_rir"
    AVERAGE_QE = "average_qe"
    ALPHA_QE = "alpha_qe"


def _reorder_prefix(ranked: RankedList, fitness: np.ndarray) -> RankedList:
    """Stable descending sort of the first len(fitness) rows by fitness; the
    tail keeps its original order, and the keys order the rows past it."""
    order = np.argsort(-np.asarray(fitness, dtype=np.float64), kind="stable")
    rows = ranked.rows.copy()
    rows[:order.size] = ranked.rows[order]
    return RankedList(ranked.database, rows, ranked.keys)


def rerank_spectral(
    query: ScanRecord,
    ranked: RankedList,
    n_topk: int,
    spectral: SpectralParams = SpectralParams(),
) -> RankedList:
    """Re-rank the top-k prefix by descending spectral fitness s*, scored in
    one batched stack on the calling thread."""
    scans = ranked.scans(n_topk)
    scores, _ = score_candidates(query, scans, spectral, order=True)
    return _reorder_prefix(ranked, scores)


def _rir_fitness(
    query: ScanRecord,
    spectral: SpectralParams,
    ransac: RansacParams,
    cand: ScanRecord,
    ordinal: int,
) -> float:
    # Candidates that cannot produce a score get fitness 0 rather than
    # failing the query: the re-ranker must always return a full list.
    try:
        corrs = match_features(query, cand, spectral.n_max, spectral.mutual)
        return ransac_register(corrs, replace(ransac, seed=ransac.seed ^ ordinal)).inlier_ratio
    except (TooFewCorrespondencesError, DegenerateConfigurationError):
        return 0.0


def rir_pool(workers: int) -> AbstractContextManager[Executor | None]:
    """The pool `rerank_rir` registers candidates on for a whole run: a
    `workers`-thread pool, shut down on exit, or None below 2 workers."""
    return ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()


def rerank_rir(
    query: ScanRecord,
    ranked: RankedList,
    n_topk: int,
    spectral: SpectralParams = SpectralParams(),
    ransac: RansacParams = RansacParams(),
    pool: Executor | None = None,
) -> RankedList:
    """Re-rank the top-k prefix by inlier ratio after per-candidate RANSAC.

    The candidates register on `pool` (one `rir_pool` per run), or on the
    calling thread if it is None. Each candidate registers with a seed
    derived from its ordinal, so the result is independent of scheduling.
    """
    scans = ranked.scans(n_topk)
    fitness = (map if pool is None else pool.map)(
        partial(_rir_fitness, query, spectral, ransac), scans, range(len(scans)))
    return _reorder_prefix(ranked, np.fromiter(fitness, np.float64, len(scans)))


def _expansion(
    descriptor: np.ndarray, ranked: RankedList, n_qe: int
) -> tuple[np.ndarray, np.ndarray]:
    """The query descriptor and the descriptors of its first n_qe candidates."""
    g = np.asarray(descriptor, dtype=np.float64).ravel()
    if g.shape[0] != ranked.database.dim:
        raise DimMismatchError(f"query dim {g.shape[0]} != index dim {ranked.database.dim}")
    if not 0 <= n_qe <= len(ranked):
        raise ValueError(f"n_qe={n_qe} must lie in [0, {len(ranked)}], the ranked list length")
    return g, ranked.database.descriptors[ranked.rows[:n_qe]]


def rerank_average_qe(
    descriptor: np.ndarray,
    ranked: RankedList,
    n_qe: int,
    k: int,
) -> RankedList:
    """Mean-aggregate the query with its first n_qe candidates, re-retrieve."""
    g, expansion = _expansion(descriptor, ranked, n_qe)
    return query_topk(ranked.database, np.mean(np.vstack([g, expansion]), axis=0), k)


def rerank_alpha_qe(
    descriptor: np.ndarray,
    ranked: RankedList,
    n_qe: int,
    alpha: float,
    k: int,
) -> RankedList:
    """Cosine-weighted aggregation: candidate i contributes with weight
    max(0, cos(g, g_i))^alpha on L2-normalized descriptors.

    Re-retrieval uses the cosine metric: the expanded query is unit-norm,
    so Euclidean distance against raw descriptors would not even reproduce
    the original ranking in the degenerate n_qe = 0 case.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    g, expansion = _expansion(descriptor, ranked, n_qe)
    gn = np.linalg.norm(g)
    if gn == 0.0:
        raise ZeroVectorError("query descriptor has zero norm")
    g_unit = g / gn
    acc = g_unit.copy()
    for gi in expansion:
        norm = np.linalg.norm(gi)
        if norm == 0.0:
            continue
        gi_unit = gi / norm
        w = max(0.0, float(g_unit @ gi_unit)) ** alpha
        acc += w * gi_unit
    total = np.linalg.norm(acc)
    if total == 0.0:
        raise ZeroVectorError("expanded query collapsed to the zero vector")
    return query_topk(ranked.database, acc / total, k, metric="cosine")
