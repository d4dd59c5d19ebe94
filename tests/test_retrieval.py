import numpy as np
import pytest

from scanrank.errors import (
    DimMismatchError,
    DuplicateIdError,
    EmptyDatabaseError,
    UnresolvedCandidateError,
)
from scanrank.geometry import OrderingKind
from scanrank.retrieval import build_index, query_topk

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

    def test_rows_scans_and_read_only_stacks(self):
        scans = db_of([[0.0], [1.0], [2.0]])
        index = build_index(scans)
        assert index.rows == {"s0": 0, "s1": 1, "s2": 2}
        assert index.scans(["s2", "s0"]) == [scans[2], scans[0]]
        assert index.locations.shape == (3, 3) and index.locations.dtype == np.float64
        with pytest.raises(ValueError):
            index.descriptors[0, 0] = 1.0
        with pytest.raises(UnresolvedCandidateError, match="s9"):
            index.scans(["s1", "s9"])


class TestQueryTopk:
    def test_exact_match_first(self):
        index = build_index(db_of([[0.0, 1.0], [3.0, 4.0], [5.0, 5.0]]))
        out = query_topk(index, np.array([3.0, 4.0]), k=1)
        assert out.entries == (("s1", 0.0),)
        assert out.ordering_kind is OrderingKind.ASCENDING_DISTANCE

    def test_one_dimensional_example(self):
        index = build_index(db_of([[0.0], [1.0], [5.0]]))
        out = query_topk(index, np.array([0.9]), k=2)
        assert out.ids == ("s1", "s0")
        np.testing.assert_allclose(out.scores, [0.1, 0.9], atol=1e-12)

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
            assert out.ids == tuple(f"s{i}" for i in order)

    def test_prefix_consistency(self, rng):
        descs = rng.standard_normal((50, 4))
        index = build_index(db_of(descs))
        g = rng.standard_normal(4)
        for k in range(1, 50):
            assert query_topk(index, g, k).entries == query_topk(index, g, k + 1).entries[:k]

    def test_cosine_metric_option(self):
        index = build_index(db_of([[1.0, 0.0], [0.0, 1.0], [10.0, 0.1]]))
        out = query_topk(index, np.array([2.0, 0.0]), k=3, metric="cosine")
        assert out.ids[0] == "s0"          # parallel vector wins regardless of norm
        assert out.ids[-1] == "s1"         # orthogonal vector last
