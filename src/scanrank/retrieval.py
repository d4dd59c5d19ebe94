"""The database of one run and exact top-k similarity search over it."""

from __future__ import annotations

import math
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


def _stable_prefix(keys: np.ndarray, k: int) -> np.ndarray:
    """The first k rows of `np.argsort(keys, kind="stable")`.

    A partition at k finds the k-th key; only the rows with a key at or
    below it are sorted: k rows, plus any further rows tied with it. k >= N,
    or a k-th key that is not finite, sorts every row.
    """
    if k >= keys.size:
        return np.argsort(keys, kind="stable")
    kth = np.partition(keys, k - 1)[k - 1]
    if not math.isfinite(kth):
        return np.argsort(keys, kind="stable")[:k]
    rows = np.flatnonzero(keys <= kth)  # ascending, so ties stay in row order
    return rows[np.argsort(keys[rows], kind="stable")[:k]]


def _rows_before(keys: np.ndarray, p: int) -> int:
    """How many rows precede row p in the stable key order (NaN last)."""
    kp = keys[p]
    if np.isnan(kp):
        return int(keys.size - np.count_nonzero(np.isnan(keys)) + np.count_nonzero(np.isnan(keys[:p])))
    return int(np.count_nonzero(keys < kp) + np.count_nonzero(keys[:p] == kp))


@dataclass(frozen=True, eq=False)
class RankedList:
    """A ranking over `database`: its rows, best first, and the keys that
    order the rows it does not hold.

    `rows` is a read-only int64 array of distinct rows in
    [0, len(database)); rows out of range raise `UnresolvedCandidateError`.
    `keys` is a read-only float64 vector with one key per database row.
    The invariant: `rows` is a permutation of the first `len(rows)` rows of
    the stable key order (`np.argsort(keys, kind="stable")`), and every
    later row follows that order. So a list may hold only a prefix of its
    ranking: `top_rows(n)` and `top_ids(n)` extend past the held rows, and
    `first_rank` counts ranks beyond them. A re-ranked list permutes a
    prefix of the held rows and keeps the keys. The constructor checks the
    keys' shape, not the invariant; `query_topk` and the re-rankers keep it.
    """

    database: Database
    rows: np.ndarray
    keys: np.ndarray

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
        keys = np.asarray(self.keys, dtype=np.float64)
        if keys.shape != (n,):
            raise ValueError(f"ranked keys must have shape ({n},), got {keys.shape}")
        if keys.flags.writeable:  # a read-only vector is shared, as re-rankers pass it on
            keys = keys.copy()
            keys.setflags(write=False)
        object.__setattr__(self, "keys", keys)

    def __len__(self) -> int:
        return self.rows.size

    @property
    def ids(self) -> tuple[str, ...]:
        """Scan ids of the held rows, in ranked order."""
        return self.top_ids(self.rows.size)

    def top_rows(self, n: int) -> np.ndarray:
        """The first min(n, N) rows of the ranking, read-only; past the held
        rows they follow the stable key order."""
        if n <= self.rows.size:
            return self.rows[:n]
        # by the invariant the first len(rows) of these are the held rows
        rows = np.concatenate((self.rows, _stable_prefix(self.keys, n)[self.rows.size:]))
        rows.setflags(write=False)
        return rows

    def top_ids(self, n: int) -> tuple[str, ...]:
        """Ids of the first min(n, N) rows, in ranked order."""
        rows = self.top_rows(n).tolist()
        if len(rows) < 2:  # itemgetter of one row returns the bare id
            return tuple(self.database.ids[i] for i in rows)
        return operator.itemgetter(*rows)(self.database.ids)

    def first_rank(self, mask: np.ndarray) -> int | None:
        """1-based rank of the first row where the boolean row mask is set,
        None if it is set nowhere.

        The held rows are scanned. Past them, the first masked row p in
        (key, row) order comes next, so its rank is counted without sorting:
        1 + #{key < key_p} + #{j < p : key_j = key_p}.
        """
        hits = np.flatnonzero(mask[self.rows])
        if hits.size:
            return int(hits[0]) + 1
        masked = np.flatnonzero(mask)
        if not masked.size:
            return None
        p = masked[np.argsort(self.keys[masked], kind="stable")[0]]
        return 1 + _rows_before(self.keys, p)

    def scans(self, n: int) -> list[ScanRecord]:
        """Records of the first n held rows, in ranked order: the prefix a
        re-ranker scores, so n is its n_topk and must be at least 1."""
        if n < 1:
            raise ValueError(f"n_topk must be >= 1, got {n}")
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

    The list holds exactly the first min(k, N) rows of
    `np.argsort(distances, kind="stable")`, so ties resolve to database
    order, and keeps every row's distance as its key: `top_ids(n)` and
    `first_rank` read the full ranking past the first k rows. `metric` is
    `euclidean` (default) or `cosine` (distance = 1 - cosine similarity).
    A descriptor with a NaN or infinite entry raises `ValueError`: every
    distance would be NaN or infinite, and the list database order.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    g = np.asarray(descriptor, dtype=np.float64).ravel()
    if g.shape[0] != index.dim:
        raise DimMismatchError(f"query dim {g.shape[0]} != index dim {index.dim}")
    if not np.isfinite(g).all():
        raise ValueError("query descriptor must be finite")
    if metric == "euclidean":
        distances = np.sqrt(((index.descriptors - g) ** 2).sum(axis=1))
    elif metric == "cosine":
        norms = np.linalg.norm(index.descriptors, axis=1) * np.linalg.norm(g)
        norms = np.where(norms == 0.0, 1.0, norms)
        distances = 1.0 - (index.descriptors @ g) / norms
    else:
        raise ValueError(f"unknown metric {metric!r}")
    distances.setflags(write=False)
    return RankedList(index, _stable_prefix(distances, k), distances)
