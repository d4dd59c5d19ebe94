"""A fixed reference computation that measures how fast the host runs now.

The benchmark's host is a share of a machine whose speed drifts by up to a
factor of two within minutes, so the wall-clock qps of the same code on the
same seed spreads too widely across runs to hold a regression bound. The
timed passes are therefore interleaved with this yardstick: it runs a few
times before every pass and after the last, and `qps_rel` scales each
pass's qps by the yardstick time measured around it. That is the number of
queries the program finishes in the time the yardstick takes on the same
host at the same moment, so most host drift cancels and a change to the program
does not.

The yardstick imports nothing from scanrank, so a change to the program
cannot move it, and its inputs come from a fixed seed, not from --seed. It
mixes the kinds of work a query does, each taking a similar share of its
time: one numpy call per record in a Python loop (as in positives and geo
distances), a batched power iteration, 3x3 SVDs (as in registration), a
pairwise feature distance matrix with argmins (as in matching), JSON
encoding (as in the results file) and plain interpreter arithmetic. No one
kind dominates because they do not slow down alike: on a 2-vCPU share the
per-record numpy loop slowed by about 1.5 times as much as sgv_k20 did.
"""

from __future__ import annotations

import json
import time

import numpy as np

REPS = 5  # yardstick runs in each gap between passes

_rng = np.random.default_rng(20221010)
_GEO = [p.astype(np.float32) for p in _rng.uniform(0.0, 1000.0, (2000, 3))]
_M = _rng.random((20, 96, 96))
_M = _M + _M.transpose(0, 2, 1)
_CLOUDS = _rng.random((40, 96, 3))
_FA = _rng.random((96, 16))
_FB = _rng.random((96, 16))
_RECORDS = [{"id": f"q{i}", "ids": [f"p{j}" for j in range(20)],
             "scores": _rng.random(20).tolist()} for i in range(50)]


def _work() -> None:
    pq = np.asarray(_GEO[0], dtype=np.float64)
    sum(1 for g in _GEO if float(np.linalg.norm(pq - np.asarray(g, dtype=np.float64))) <= 50.0)
    for _ in range(2):
        v = np.ones((20, 96))
        for _ in range(30):
            v = np.einsum("bij,bj->bi", _M, v)
            v /= np.linalg.norm(v, axis=1, keepdims=True)
    for _ in range(5):
        for c in _CLOUDS:
            centred = c - c.mean(axis=0)
            np.linalg.svd(centred.T @ centred[::-1])
    for _ in range(15):
        d = (_FA ** 2).sum(1)[:, None] + (_FB ** 2).sum(1)[None, :] - 2.0 * _FA @ _FB.T
        for _ in range(20):
            d.argmin(axis=1)
            d.argmin(axis=0)
    for _ in range(5):
        json.dumps(_RECORDS)
    total = 0
    for i in range(90000):
        total += i * i


def gap() -> list[float]:
    """Time REPS yardstick runs back to back; seconds each."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return times
