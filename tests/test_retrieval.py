import functools

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
