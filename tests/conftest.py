import threading
import time

import numpy as np
import pytest

from scanrank.geometry import RigidTransform, ScanRecord
from scanrank.retrieval import RankedList


def make_scan(
    scan_id: str,
    cloud: np.ndarray,
    features: np.ndarray | None = None,
    descriptor: np.ndarray | None = None,
    pose: RigidTransform | None = None,
    geo: np.ndarray | None = None,
) -> ScanRecord:
    """Scan record with sane defaults for tests."""
    cloud = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
    n = cloud.shape[0]
    if features is None:
        features = np.arange(n, dtype=np.float64)[:, None] * np.ones((1, 4))
    if descriptor is None:
        descriptor = np.zeros(8)
    if pose is None:
        pose = RigidTransform.identity()
    if geo is None:
        geo = np.zeros(3)
    return ScanRecord(scan_id, cloud, features, descriptor, pose, geo)


def listed(database, rows) -> RankedList:
    """A list holding `rows` in the given order. Its keys are the list
    positions, and +inf past the list, so the rows it does not hold follow
    in database order."""
    keys = np.full(len(database), np.inf)
    keys[rows] = np.arange(len(rows))
    return RankedList(database, rows, keys)


def first_positive_rank(ids, positives) -> int | None:
    """Brute force: the 1-based rank of the first id in `positives`, None
    if no id is."""
    for rank, scan_id in enumerate(ids, start=1):
        if scan_id in positives:
            return rank
    return None


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# how long a test's leftover threads get to finish before they count as leaked
THREAD_JOIN_S = 5.0


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves alive a Python thread it started: a run's
    worker pool must be shut down by the time the run returns."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + THREAD_JOIN_S
    for thread in set(threading.enumerate()) - before:
        thread.join(max(0.0, deadline - time.monotonic()))
    leaked = [t.name for t in set(threading.enumerate()) - before]
    if leaked:
        pytest.fail(f"threads left alive: {sorted(leaked)}")
