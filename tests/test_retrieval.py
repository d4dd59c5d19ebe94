import functools
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scanrank.errors import (
    DimMismatchError,
    DuplicateIdError,
    EmptyDatabaseError,
    UnresolvedCandidateError,
)
from scanrank.rerank import _reorder_prefix, rerank_alpha_qe, rerank_average_qe
from scanrank.retrieval import RankedList, _stable_prefix, build_index, query_topk

from conftest import listed, make_scan


def db_of(descriptors):
    return [
        make_scan(f"s{i}", [[0, 0, 0]], descriptor=np.atleast_1d(np.asarray(d, dtype=np.float64)))
        for i, d in enumerate(descriptors)
    ]


class TestBuildIndex:
    def test_preserves_order(self):
        index = build_index(db_of([[0.0], [1.0], [2.0]]))
        assert index.ids == ("s0", "s1", "s2")
        assert index.descriptors.shape == (3, 1)

    def test_empty_database(self):
        with pytest.raises(EmptyDatabaseError):
            build_index([])

    def test_mixed_dims(self):
        scans = [
            make_scan("a", [[0, 0, 0]], descriptor=np.zeros(4)),
            make_scan("b", [[0, 0, 0]], descriptor=np.zeros(8)),
        ]
        with pytest.raises(DimMismatchError):
            build_index(scans)

    def test_duplicate_ids(self):
        with pytest.raises(DuplicateIdError):
            build_index([make_scan("a", [[0, 0, 0]]), make_scan("a", [[1, 1, 1]])])

    def test_read_only_stacks(self):
        index = build_index(db_of([[0.0], [1.0], [2.0]]))
        assert index.locations.shape == (3, 3) and index.locations.dtype == np.float64
        with pytest.raises(ValueError):
            index.descriptors[0, 0] = 1.0
        with pytest.raises(ValueError):
            index.locations[0, 0] = 1.0
        with pytest.raises(ValueError):
            index.sq_norms[0] = 1.0

    @pytest.mark.parametrize("dim", [1, 3, 16, 32, 129, 256])
    def test_norms_are_bitwise_the_linalg_norms(self, rng, dim):
        # the cosine metric reads sqrt(sq_norms) where it read norm(axis=1)
        scales = 10.0 ** rng.uniform(-3, 3, (300, 1))
        index = build_index(db_of(rng.standard_normal((300, dim)) * scales))
        assert np.array_equal(np.sqrt(index.sq_norms), np.linalg.norm(index.descriptors, axis=1))


class TestRankedList:
    def test_top_ids(self):
        scans = db_of([[0.0], [1.0], [2.0]])
        rl = listed(build_index(scans), [2, 0])
        assert rl.ids == ("s2", "s0")
        assert rl.ids[:1] == ("s2",)
        assert rl.scans(1) == [scans[2]]
        assert rl.scans(5) == [scans[2], scans[0]]
        assert len(rl) == 2
        # past the held rows the keys rank the rest: here database order
        assert rl.top_ids(3) == rl.top_ids(9) == ("s2", "s0", "s1")
        assert rl.top_rows(1).tolist() == [2]

    def test_keys_are_a_read_only_copy_unless_already_read_only(self):
        index = build_index(db_of([[0.0], [1.0]]))
        keys = np.array([1.0, 0.0])
        rl = RankedList(index, [1, 0], keys)
        keys[0] = -1.0
        assert rl.keys.tolist() == [1.0, 0.0]
        assert not rl.keys.flags.writeable
        assert RankedList(index, [0, 1], rl.keys).keys is rl.keys  # shared, not copied

    @pytest.mark.parametrize("keys", [np.zeros(2), np.zeros(4), np.zeros((3, 1))])
    def test_rejects_keys_not_one_per_row(self, keys):
        with pytest.raises(ValueError, match=r"keys must have shape \(3,\)"):
            RankedList(build_index(db_of([[0.0], [1.0], [2.0]])), [0], keys)

    def test_rows_are_a_read_only_int64_copy(self):
        rows = np.array([1, 0], dtype=np.int32)
        rl = RankedList(build_index(db_of([[0.0], [1.0]])), rows, np.zeros(2))
        assert rl.rows.dtype == np.int64
        rows[0] = 0
        assert rl.rows.tolist() == [1, 0]
        with pytest.raises(ValueError):
            rl.rows[0] = 0

    @pytest.mark.parametrize("n, rows", [
        (3, [0, 0]), (3, [2, 1, 0, 2]), (3, [1, 2, 1]), (50, [17, 17]),
        # a full list of a 50-row database with one row repeated
        (50, [49] + list(range(1, 49)) + [49]), (50, list(range(11)) + list(range(10, 49))),
        (50, list(range(49)) + [48]),
    ])
    def test_rejects_duplicate_rows(self, n, rows):
        with pytest.raises(ValueError, match="rows must be unique within a ranked list"):
            RankedList(build_index(db_of(np.arange(n, dtype=float)[:, None])), rows, np.zeros(n))

    @pytest.mark.parametrize("rows", [[0, 3], [-1], [0, 1, 2, 3], [7]])
    def test_rejects_rows_outside_the_database(self, rows):
        with pytest.raises(UnresolvedCandidateError, match="outside the 3-scan database"):
            RankedList(build_index(db_of([[0.0], [1.0], [2.0]])), rows, np.zeros(3))

    @pytest.mark.parametrize("rows", [[], np.zeros(0, dtype=np.int64), [[0, 1]]])
    def test_rejects_empty_or_nested_rows(self, rows):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            RankedList(build_index(db_of([[0.0], [1.0], [2.0]])), rows, np.zeros(3))

    @pytest.mark.parametrize("rows", [[0.0, 1.0], [True, False]])
    def test_rejects_non_integer_rows(self, rows):
        with pytest.raises(TypeError, match="integers"):
            RankedList(build_index(db_of([[0.0], [1.0], [2.0]])), rows, np.zeros(3))


class TestQueryTopk:
    def test_exact_match_first(self):
        index = build_index(db_of([[0.0, 1.0], [3.0, 4.0], [5.0, 5.0]]))
        out = query_topk(index, np.array([3.0, 4.0]), k=1)
        assert out.database is index
        assert out.rows.tolist() == [1]
        assert out.ids == ("s1",)

    def test_one_dimensional_example(self):
        index = build_index(db_of([[0.0], [1.0], [5.0]]))
        out = query_topk(index, np.array([0.9]), k=2)
        assert out.rows.tolist() == [1, 0]  # distances 0.1, 0.9, 4.1
        assert out.ids == ("s1", "s0")
        assert query_topk(index, np.array([3.1]), k=3).rows.tolist() == [2, 1, 0]

    def test_k_larger_than_db_clamps(self):
        index = build_index(db_of([[0.0], [1.0], [5.0]]))
        assert len(query_topk(index, np.array([0.0]), k=100)) == 3

    def test_dim_mismatch(self):
        index = build_index(db_of([[0.0, 0.0]]))
        with pytest.raises(DimMismatchError):
            query_topk(index, np.zeros(3), k=1)

    def test_invalid_k(self):
        index = build_index(db_of([[0.0]]))
        with pytest.raises(ValueError):
            query_topk(index, np.zeros(1), k=0)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_descriptor_rejected(self, metric, bad):
        # every distance would be NaN or infinite: the list would silently
        # be database order
        index = build_index(db_of([[0.0, 1.0], [3.0, 4.0], [5.0, 5.0]]))
        with pytest.raises(ValueError, match="query descriptor must be finite"):
            query_topk(index, np.array([1.0, bad]), k=2, metric=metric)

    def test_ties_resolve_to_database_order(self):
        index = build_index(db_of([[1.0], [1.0], [0.0]]))
        out = query_topk(index, np.array([1.0]), k=3)
        assert out.rows.tolist() == [0, 1, 2]
        assert out.ids == ("s0", "s1", "s2")

    def test_brute_force_oracle_equivalence(self, rng):
        for trial in range(10):
            n = 1000 if trial == 0 else int(rng.integers(1, 300))
            dim = int(rng.integers(1, 8))
            descs = rng.standard_normal((n, dim))
            if n > 2:
                descs[1] = descs[0]  # exercise ties
            index = build_index(db_of(descs))
            g = rng.standard_normal(dim)
            k = int(rng.integers(1, n + 2))
            out = query_topk(index, g, k)
            dists = np.linalg.norm(descs - g, axis=1)
            order = np.argsort(dists, kind="stable")[: min(k, n)]
            assert np.array_equal(out.rows, order)
            assert out.ids == tuple(f"s{i}" for i in order)

    def test_prefix_consistency(self, rng):
        descs = rng.standard_normal((50, 4))
        index = build_index(db_of(descs))
        g = rng.standard_normal(4)
        full = np.argsort(np.linalg.norm(descs - g, axis=1), kind="stable")
        for k in range(1, 50):
            out = query_topk(index, g, k).rows
            assert np.array_equal(out, query_topk(index, g, k + 1).rows[:k])
            assert np.array_equal(out, full[:k])

    def test_cosine_metric_option(self):
        index = build_index(db_of([[1.0, 0.0], [0.0, 1.0], [10.0, 0.1]]))
        out = query_topk(index, np.array([2.0, 0.0]), k=3, metric="cosine")
        # parallel vector first regardless of norm, orthogonal vector last
        assert out.rows.tolist() == [0, 2, 1]


# The partial ranking against its oracle, the full stable argsort. Keys
# come from a small alphabet, so ties are heavy, and include -0.0, +-inf
# and NaN, which the partition must order as the sort does.
KEY_VALUES = [-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, np.inf, np.nan]
tied_keys = st.integers(1, 30).flatmap(lambda n: arrays(
    np.float64, n, elements=st.one_of(st.sampled_from(KEY_VALUES), st.floats(-2, 2))))


@functools.lru_cache(maxsize=None)
def index_of_size(n):
    return build_index(db_of(np.zeros((n, 1))))


def first_masked(order, mask):
    hits = np.flatnonzero(mask[order])
    return int(hits[0]) + 1 if hits.size else None


@settings(max_examples=300, deadline=None)
@given(keys=tied_keys)
def test_stable_prefix_is_the_argsort_prefix(keys):
    full = np.argsort(keys, kind="stable")
    for k in range(1, keys.size + 3):
        assert np.array_equal(_stable_prefix(keys, k), full[:k])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), metric=st.sampled_from(["euclidean", "cosine"]))
def test_query_topk_is_the_argsort_prefix_on_tied_descriptors(data, metric):
    # integer-valued descriptors tie often. A non-finite query is rejected
    # (TestQueryTopk); infinite and NaN keys are ordered by the partition
    # alone, which test_stable_prefix_is_the_argsort_prefix checks
    n, dim = data.draw(st.integers(1, 24)), data.draw(st.integers(1, 3))
    descs = data.draw(arrays(np.float64, (n, dim), elements=st.integers(-2, 2).map(float)))
    g = data.draw(arrays(np.float64, dim, elements=st.sampled_from(
        [-2.0, -1.0, 0.0, 1.0, 2.0])))
    index = build_index(db_of(descs))
    if metric == "euclidean":
        key = np.sqrt(((descs - g) ** 2).sum(axis=1))
    else:
        norms = np.linalg.norm(descs, axis=1) * np.linalg.norm(g)
        key = 1.0 - (descs @ g) / np.where(norms == 0.0, 1.0, norms)
    full = np.argsort(key, kind="stable")
    for k in range(1, n + 3):
        out = query_topk(index, g, k, metric=metric)
        assert np.array_equal(out.rows, full[:k])
        assert np.array_equal(out.keys, key)
        assert not out.keys.flags.writeable
        assert out.top_ids(n) == tuple(f"s{i}" for i in full)


def direct_distances(descs, g):
    """The Euclidean keys as the sum of squared differences."""
    return np.sqrt(((descs - g) ** 2).sum(axis=1))


def certificate_bound(descs, g):
    """delta: the absolute error bound on a product-form d^2."""
    reach = np.linalg.norm(g) + np.linalg.norm(descs, axis=1).max()
    return 2 * (descs.shape[1] + 2) * 2.0**-53 * reach**2


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_query_topk_orders_float_descriptors_by_their_exact_distances(data):
    # against exact rational d^2: each key is within delta of it, and the
    # order differs from the argsort of the direct distances only between
    # rows whose exact d^2 lie within 2 delta of each other. Exact
    # duplicates keep equal keys, in row order
    n, dim = data.draw(st.integers(1, 24)), data.draw(st.integers(1, 64))
    scale = 10.0 ** data.draw(st.integers(-3, 3))
    # entries of 0 or at least 2^-60 in size: the bound holds where no square
    # underflows, and the direct sum's keys underflow there too
    unit = st.floats(-1, 1).filter(lambda x: x == 0 or abs(x) >= 2.0**-60)
    descs = data.draw(arrays(np.float64, (n, dim), elements=unit)) * scale
    g = data.draw(arrays(np.float64, dim, elements=unit)) * scale
    for _ in range(data.draw(st.integers(0, n // 2))):  # exact and near duplicates
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        descs[j] = descs[i]
        if data.draw(st.booleans()):
            descs[j, 0] = np.nextafter(descs[j, 0], np.float32(np.inf), dtype=np.float32)
    index = build_index(db_of(descs))
    descs = index.descriptors  # the float32 values the records hold
    exact = [sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(row, g)) for row in descs]
    delta = certificate_bound(descs, g)
    out = query_topk(index, g, n)
    for key, d2 in zip(out.keys.tolist(), exact):
        assert abs(Fraction(key) ** 2 - d2) <= Fraction(delta) + Fraction(2.0**-50) * d2
    oracle = np.argsort(np.linalg.norm(descs - g, axis=1), kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[out.rows] = np.arange(n)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = oracle[i], oracle[j]
            if rank[a] > rank[b]:
                assert abs(exact[a] - exact[b]) <= 2 * Fraction(delta)
            if a < b and np.array_equal(descs[a], descs[b]):
                assert out.keys[a] == out.keys[b] and rank[a] < rank[b]


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
@pytest.mark.parametrize("n, dim", [(7, 8), (2003, 32), (2001, 129)])
def test_exact_duplicate_rows_stay_tied_in_row_order(rng, n, dim, metric):
    # copies at the start, the middle and among the last N mod 4 rows, which
    # OpenBLAS's matrix-vector product computes with another kernel
    descs = rng.standard_normal((n, dim))
    copies = np.array([0, n // 2, n - 3, n - 2, n - 1])
    descs[copies] = descs[1]
    index = build_index(db_of(descs))
    rows = np.r_[1, copies]
    for g in rng.standard_normal((20, dim)):
        out = query_topk(index, g, n, metric=metric)
        assert np.unique(out.keys[rows]).size == 1
        assert np.array_equal(out.rows[np.isin(out.rows, rows)], np.sort(rows))


def test_certified_keys_agree_with_the_direct_sum_to_2_pow_minus_30(rng):
    index = build_index(db_of(rng.standard_normal((2000, 32))))
    g = rng.standard_normal(32)
    keys = query_topk(index, g, 1).keys
    direct = direct_distances(index.descriptors, g)
    assert np.all(np.abs(keys - direct) <= 2.0**-30 * direct)
    assert not np.array_equal(keys, direct)  # the product form, not the fallback


@pytest.mark.parametrize("offset", [1e8, -1e8])
def test_uncertified_query_falls_back_to_the_direct_sum_bitwise(rng, offset):
    # norms of 1e8 against distances of about 6: the product form's error
    # bound exceeds every d^2, so the keys are the direct sum's
    index = build_index(db_of(offset + rng.standard_normal((50, 16))))
    descs = index.descriptors
    g = offset + rng.standard_normal(16)
    product = np.sqrt(np.maximum(
        index.sq_norms - 2 * np.einsum("ij,j->i", descs, g) + g @ g, 0.0))
    assert np.min(product**2) < 2.0**30 * certificate_bound(descs, g)
    keys = query_topk(index, g, 5).keys
    assert np.array_equal(keys, direct_distances(descs, g))
    assert not np.array_equal(keys, product)


_KEYS_UNDER_THREADS = """
import hashlib, sys
import numpy as np
from scanrank.geometry import RigidTransform, ScanRecord
from scanrank.retrieval import build_index, query_topk
rng = np.random.default_rng(7)
for n in (2000, 20000):
    descs = rng.standard_normal((n, 32))
    g = rng.standard_normal(32)
    cloud, feats, pose = np.zeros((1, 3)), np.zeros((1, 1)), RigidTransform.identity()
    index = build_index([ScanRecord(f"s{i}", cloud, feats, d, pose, np.zeros(3))
                         for i, d in enumerate(descs)])
    for metric in ("euclidean", "cosine"):
        keys = query_topk(index, g, 1, metric=metric).keys
        print(n, metric, hashlib.sha256(keys.tobytes()).hexdigest())
"""


def test_keys_are_bitwise_equal_across_blas_thread_counts():
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", _KEYS_UNDER_THREADS], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        digests.append(run.stdout)
    assert len(digests[0].splitlines()) == 4
    assert digests[0] == digests[1]


def test_query_topk_allocates_no_n_by_d_temporary(rng):
    n, dim = 2000, 32
    index = build_index(db_of(rng.standard_normal((n, dim))))
    g = rng.standard_normal(dim)
    query_topk(index, g, 2)
    tracemalloc.start()
    try:
        query_topk(index, g, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * dim * 8


@settings(max_examples=200, deadline=None)
@given(data=st.data(), keys=tied_keys)
def test_held_prefix_extends_and_counts_as_the_full_ranking(data, keys):
    # a list holding k rows reads like the list holding all N: top_rows(n)
    # and top_ids(n) past the held rows, and first_rank for a mask whose
    # first row lies past them; the same after re-ranking a prefix
    n = keys.size
    index = index_of_size(n)
    full = np.argsort(keys, kind="stable")
    mask = data.draw(arrays(np.bool_, n))
    k = data.draw(st.integers(1, n))
    fitness = data.draw(arrays(np.float64, data.draw(st.integers(0, k)),
                               elements=st.integers(0, 2).map(float)))
    held = RankedList(index, _stable_prefix(keys, k), keys)
    whole = RankedList(index, full, keys)
    pairs = [(held, whole), (_reorder_prefix(held, fitness), _reorder_prefix(whole, fitness))]
    for part, ref in pairs:
        assert len(part) == k
        for depth in range(1, n + 3):
            assert np.array_equal(part.top_rows(depth), ref.rows[:depth])
            assert part.top_ids(depth) == ref.top_ids(depth)
        assert part.first_rank(mask) == first_masked(ref.rows, mask)
        assert part.first_rank(np.zeros(n, dtype=bool)) is None
        for row in range(n):  # one masked row at every rank
            one = np.zeros(n, dtype=bool)
            one[row] = True
            assert part.first_rank(one) == first_masked(ref.rows, one)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_query_expansion_lists_extend_as_the_full_ranking(data):
    # QE re-retrieves only as deep as its input list; past that, its keys
    # order the rows as re-retrieving every row would
    n, dim = data.draw(st.integers(2, 20)), data.draw(st.integers(1, 3))
    descs = data.draw(arrays(np.float64, (n, dim), elements=st.integers(-2, 2).map(float)))
    g = data.draw(arrays(np.float64, dim, elements=st.integers(-2, 2).map(float)))
    index = build_index(db_of(descs))
    k = data.draw(st.integers(1, n))
    n_qe = data.draw(st.integers(0, k))
    mask = data.draw(arrays(np.bool_, n))
    held, whole = query_topk(index, g, k), query_topk(index, g, n)
    expand = [lambda r, depth: rerank_average_qe(g, r, n_qe, k=depth)]
    if np.any(g):  # alpha QE rejects a zero query
        expand.append(lambda r, depth: rerank_alpha_qe(g, r, n_qe, 3.0, k=depth))
    for qe in expand:
        part, ref = qe(held, k), qe(whole, n)
        assert len(part) == k and len(ref) == n
        for depth in range(1, n + 3):
            assert np.array_equal(part.top_rows(depth), ref.rows[:depth])
        assert part.first_rank(mask) == first_masked(ref.rows, mask)
