import numpy as np
import pytest

from scanrank.errors import (
    DimMismatchError,
    DuplicateIdError,
    EmptyDatabaseError,
    UnresolvedCandidateError,
)
from scanrank.retrieval import RankedList, build_index, query_topk

from conftest import make_scan


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
        rl = RankedList(build_index(scans), [2, 0])
        assert rl.ids == ("s2", "s0")
        assert rl.ids[:1] == ("s2",)
        assert rl.scans(1) == [scans[2]]
        assert rl.scans(5) == [scans[2], scans[0]]
        assert len(rl) == 2

    def test_rows_are_a_read_only_int64_copy(self):
        rows = np.array([1, 0], dtype=np.int32)
        rl = RankedList(build_index(db_of([[0.0], [1.0]])), rows)
        assert rl.rows.dtype == np.int64
        rows[0] = 0
        assert rl.rows.tolist() == [1, 0]
        with pytest.raises(ValueError):
            rl.rows[0] = 0

    @pytest.mark.parametrize("rows", [[0, 0], [2, 1, 0, 2], [1, 2, 1]])
    def test_rejects_duplicate_rows(self, rows):
        with pytest.raises(ValueError, match="unique"):
            RankedList(build_index(db_of([[0.0], [1.0], [2.0]])), rows)

    @pytest.mark.parametrize("rows", [[0, 3], [-1], [0, 1, 2, 3], [7]])
    def test_rejects_rows_outside_the_database(self, rows):
        with pytest.raises(UnresolvedCandidateError, match="outside the 3-scan database"):
            RankedList(build_index(db_of([[0.0], [1.0], [2.0]])), rows)

    @pytest.mark.parametrize("rows", [[], np.zeros(0, dtype=np.int64), [[0, 1]]])
    def test_rejects_empty_or_nested_rows(self, rows):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            RankedList(build_index(db_of([[0.0], [1.0], [2.0]])), rows)

    @pytest.mark.parametrize("rows", [[0.0, 1.0], [True, False]])
    def test_rejects_non_integer_rows(self, rows):
        with pytest.raises(TypeError, match="integers"):
            RankedList(build_index(db_of([[0.0], [1.0], [2.0]])), rows)


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
