"""Feature nearest-neighbour correspondences between two scans, and the one mutual-pair rule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, EmptyScanError
from .geometry import ScanRecord


@dataclass(frozen=True)
class CorrespondenceSet:
    """Ordered correspondences, stored as aligned arrays.

    Query indices are unique (one match per sampled query point) and the
    set is ordered by query index.
    """

    query_indices: np.ndarray      # (n,) int64
    candidate_indices: np.ndarray  # (n,) int64
    query_points: np.ndarray       # (n, 3) float64
    candidate_points: np.ndarray   # (n, 3) float64
    feature_distances: np.ndarray  # (n,) float64

    def __post_init__(self) -> None:
        qi = np.asarray(self.query_indices, dtype=np.int64)
        if len(np.unique(qi)) != qi.shape[0]:
            raise ValueError("query indices must be unique within a correspondence set")
        object.__setattr__(self, "query_indices", qi)
        object.__setattr__(self, "candidate_indices",
                           np.asarray(self.candidate_indices, dtype=np.int64))
        object.__setattr__(self, "query_points",
                           np.asarray(self.query_points, dtype=np.float64).reshape(-1, 3))
        object.__setattr__(self, "candidate_points",
                           np.asarray(self.candidate_points, dtype=np.float64).reshape(-1, 3))
        object.__setattr__(self, "feature_distances",
                           np.asarray(self.feature_distances, dtype=np.float64))

    def __len__(self) -> int:
        return int(self.query_indices.shape[0])


def sample_query_points(scan: ScanRecord, n_max: int) -> np.ndarray:
    """Deterministic uniform-stride subsample of point indices.

    Returns min(n_max, N) strictly increasing indices; identical inputs
    always yield identical output.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    n_points = scan.cloud.shape[0]
    if n_points == 0:
        raise EmptyScanError("cannot sample from an empty scan")
    if n_max >= n_points:
        return np.arange(n_points, dtype=np.int64)
    return (np.arange(n_max, dtype=np.int64) * n_points) // n_max


def nn_squared_distances(query_feats: np.ndarray, candidate_feats: np.ndarray) -> np.ndarray:
    """Squared feature distances (..., n, N) between n query features and
    the N features of each candidate, (N, d) for one or (b, N, d) for b.

    |q|^2 + |c|^2 - 2 q.c as one GEMM per candidate over augmented vectors,
    with no broadcast adds: u_i = [|q_i|^2, 1, -2 q_i] against
    w_j = [1, |c_j|^2, c_j]. Scaling by -2 and by 1 is exact; entries may dip
    a hair below zero. A stack of candidates is one matmul call that runs
    each candidate's GEMM at the shape of a call on it alone, so its slice
    has the bits of that call, whatever shares the stack. (One GEMM over
    many candidates' features side by side was not: the kernel rounds edge
    columns apart, so exactly equal features got unequal distances and a
    tie's winner depended on the batch.) Each GEMM stays one candidate's
    size, so a threaded BLAS gains no reason to wake its worker threads:
    with OpenBLAS at its default thread count on 2 vCPUs, `score_candidates` at 20
    candidates took 3.83 against 4.56 ms per query for one GEMM and two
    broadcast adds per candidate (medians of 10 interleaved runs).
    """
    q = np.asarray(query_feats, dtype=np.float64)
    c = np.asarray(candidate_feats, dtype=np.float64)
    u = np.empty((q.shape[0], q.shape[1] + 2))
    u[:, 0] = np.einsum("ij,ij->i", q, q)
    u[:, 1] = 1.0
    np.multiply(q, -2.0, out=u[:, 2:])
    w = np.empty(c.shape[:-2] + (c.shape[-1] + 2, c.shape[-2]))  # w_j in column j
    w[..., 0, :] = 1.0
    w[..., 1, :] = np.einsum("...ij,...ij->...i", c, c)
    w[..., 2:, :] = np.swapaxes(c, -1, -2)
    return np.matmul(u, w)


def mutual_pairs(d2: np.ndarray, nn: np.ndarray) -> np.ndarray:
    """Keep mask (..., n): row i of d2 (..., n, N) keeps (i, nn[..., i]),
    nn = d2.argmin(axis=-1), when nn[..., i]'s nearest row is i, ties going
    to the first. Never empty: d2's first smallest entry in row-major order
    is the first smallest of its row and column."""
    return np.take_along_axis(d2.argmin(axis=-2), nn, axis=-1) == np.arange(d2.shape[-2])


def match_features(
    query: ScanRecord,
    candidate: ScanRecord,
    n_max: int = 1000,
    mutual: bool = False,
) -> CorrespondenceSet:
    """Match sampled query points to candidate points by L2 feature distance.

    For each sampled query index the closest candidate feature wins, ties
    going to the smallest candidate index. With `mutual` set, only the pairs
    that `mutual_pairs` keeps survive, at least one. Output is ordered by
    query index.
    """
    if query.feature_dim != candidate.feature_dim:
        raise DimMismatchError(
            f"feature dims differ: query d'={query.feature_dim}, "
            f"candidate d'={candidate.feature_dim}"
        )
    if candidate.cloud.shape[0] == 0:
        raise EmptyScanError("candidate scan has no points")
    sampled = sample_query_points(query, n_max)
    qf = query.local_features[sampled].astype(np.float64)
    d2 = nn_squared_distances(qf, candidate.local_features)
    nn = d2.argmin(axis=1)
    rows = np.flatnonzero(mutual_pairs(d2, nn)) if mutual else np.arange(sampled.shape[0])
    cand_idx = nn[rows]
    return CorrespondenceSet(
        query_indices=sampled[rows],
        candidate_indices=cand_idx,
        query_points=query.cloud[sampled[rows]].astype(np.float64),
        candidate_points=candidate.cloud[cand_idx].astype(np.float64),
        feature_distances=np.sqrt(np.maximum(d2[rows, cand_idx], 0.0)),
    )
