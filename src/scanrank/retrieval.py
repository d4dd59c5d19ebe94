"""The database of one run and exact top-k similarity search over it."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatchError,
    DuplicateIdError,
    EmptyDatabaseError,
    UnresolvedCandidateError,
)
from .geometry import ScanRecord


@dataclass(frozen=True, eq=False)
class Database:
    """Database scans in manifest order, indexed once per run.

    Row i of `records`, `ids`, `descriptors` (N, d) and `locations` (N, 3)
    describes one scan. Both arrays are float64 and read-only. Clouds and
    features stay in their records: stacking them would copy every scan.
    """

    records: tuple[ScanRecord, ...]
    ids: tuple[str, ...]
    descriptors: np.ndarray
    locations: np.ndarray

    def __len__(self) -> int:
        return len(self.records)

    @property
    def dim(self) -> int:
        return self.descriptors.shape[1]

    def distances_to(self, location) -> np.ndarray:
        """Geo distance in meters from `location` to every scan, in row
        order; bitwise equal to `geo_distance` row by row."""
        d = np.asarray(location, dtype=np.float64) - self.locations
        # one 3-term dot per row, summed in the order np.linalg.norm uses
        # for one vector; norm(axis=1) and einsum differ in the last bit
        return np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())


@dataclass(frozen=True, eq=False)
class RankedList:
    """A ranking over `database`: its rows, best first.

    `rows` is a read-only int64 array of distinct rows in
    [0, len(database)); rows out of range raise `UnresolvedCandidateError`.
    A re-ranked list is only sorted over its re-scored prefix; rows past
    the prefix keep their original order.
    """

    database: Database
    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.array(self.rows)  # a copy: the caller's array stays its own
        if rows.ndim != 1 or rows.size == 0:
            raise ValueError(f"ranked list must be a non-empty 1-D array, got shape {rows.shape}")
        if rows.dtype.kind not in "iu":
            raise TypeError(f"ranked rows must be integers, got {rows.dtype}")
        rows = rows.astype(np.int64, copy=False)
        n = len(self.database)
        if rows.min() < 0 or rows.max() >= n:
            bad = rows[(rows < 0) | (rows >= n)]
            raise UnresolvedCandidateError(f"ranked rows {bad.tolist()} outside the {n}-scan database")
        seen = np.zeros(n, dtype=bool)
        seen[rows] = True
        if np.count_nonzero(seen) != rows.size:
            raise ValueError("rows must be unique within a ranked list")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return self.rows.size

    @property
    def ids(self) -> tuple[str, ...]:
        """Scan ids in ranked order."""
        return self.top_ids(self.rows.size)

    def top_ids(self, n: int) -> tuple[str, ...]:
        """Ids of the first n rows, in ranked order."""
        rows = self.rows[:n].tolist()
        if len(rows) < 2:  # itemgetter of one row returns the bare id
            return tuple(self.database.ids[i] for i in rows)
        return operator.itemgetter(*rows)(self.database.ids)

    def scans(self, n: int) -> list[ScanRecord]:
        """Records of the first n rows, in ranked order."""
        records = self.database.records
        return [records[i] for i in self.rows[:n].tolist()]


def build_index(database: list[ScanRecord]) -> Database:
    """Index database scans, preserving manifest order."""
    if not database:
        raise EmptyDatabaseError("cannot index an empty database")
    dims = {r.descriptor_dim for r in database}
    if len(dims) > 1:
        raise DimMismatchError(f"mixed descriptor dims in database: {sorted(dims)}")
    ids = tuple(r.id for r in database)
    if len(set(ids)) != len(ids):
        raise DuplicateIdError("database ids must be unique")
    descriptors = np.stack([r.global_descriptor for r in database]).astype(np.float64)
    locations = np.stack([r.geo_location for r in database]).astype(np.float64)
    descriptors.setflags(write=False)
    locations.setflags(write=False)
    return Database(tuple(database), ids, descriptors, locations)


def query_topk(
    index: Database,
    descriptor: np.ndarray,
    k: int,
    metric: str = "euclidean",
) -> RankedList:
    """Exact top-k search, ascending by descriptor distance.

    Ties resolve to database order (stable sort). k larger than the
    database returns the full ranking. `metric` is `euclidean` (default)
    or `cosine` (distance = 1 - cosine similarity).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    g = np.asarray(descriptor, dtype=np.float64).ravel()
    if g.shape[0] != index.dim:
        raise DimMismatchError(f"query dim {g.shape[0]} != index dim {index.dim}")
    if metric == "euclidean":
        distances = np.sqrt(((index.descriptors - g) ** 2).sum(axis=1))
    elif metric == "cosine":
        norms = np.linalg.norm(index.descriptors, axis=1) * np.linalg.norm(g)
        norms = np.where(norms == 0.0, 1.0, norms)
        distances = 1.0 - (index.descriptors @ g) / norms
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return RankedList(index, np.argsort(distances, kind="stable")[:k])
