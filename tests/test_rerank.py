import numpy as np
import pytest

from scanrank.errors import UnresolvedCandidateError, ZeroVectorError
from scanrank.geometry import OrderingKind, RankedList
from scanrank.rerank import (
    RerankParams,
    rerank_alpha_qe,
    rerank_average_qe,
    rerank_rir,
    rerank_spectral,
)
from scanrank.retrieval import build_index, query_topk
from scanrank.spectral import SpectralParams
from scanrank.synthgen import WorldConfig, generate_world

from conftest import make_scan


def feature_world(rng, n_candidates=6, n_points=40, dim=6):
    """Query plus candidates: candidate 0 is a copy of the query (best),
    the rest have random geometry and features."""
    cloud = rng.random((n_points, 3)) * 20
    feats = rng.standard_normal((n_points, dim))
    query = make_scan("q", cloud, features=feats, descriptor=np.zeros(4))
    cands = [make_scan("c0", cloud, features=feats, descriptor=np.zeros(4))]
    for i in range(1, n_candidates):
        cands.append(make_scan(
            f"c{i}", rng.random((n_points, 3)) * 20,
            features=rng.standard_normal((n_points, dim)), descriptor=np.zeros(4),
        ))
    ranked = RankedList(tuple((c.id, float(i)) for i, c in enumerate(cands)))
    return query, build_index(cands), ranked


class TestRerankSpectral:
    def test_n_topk_1_keeps_order(self, rng):
        query, db, ranked = feature_world(rng)
        out = rerank_spectral(query, db, ranked, RerankParams(n_topk=1))
        assert out.ids == ranked.ids

    def test_promotes_geometrically_consistent_candidate(self, rng):
        query, db, ranked = feature_world(rng)
        # descriptor order put the copy last; spectral fitness pulls it to 1
        reversed_ranked = RankedList(tuple(reversed(ranked.entries)))
        out = rerank_spectral(query, db, reversed_ranked, RerankParams(n_topk=6))
        assert out.ids[0] == "c0"
        assert out.ordering_kind is OrderingKind.DESCENDING_FITNESS

    def test_identical_copies_keep_stable_order(self, rng):
        cloud = rng.random((30, 3)) * 10
        feats = rng.standard_normal((30, 5))
        query = make_scan("q", cloud, features=feats, descriptor=np.zeros(4))
        cands = [make_scan(f"c{i}", cloud, features=feats, descriptor=np.zeros(4))
                 for i in range(4)]
        ranked = RankedList(tuple((c.id, float(i)) for i, c in enumerate(cands)))
        out = rerank_spectral(query, build_index(cands), ranked, RerankParams(n_topk=4))
        assert out.ids == ranked.ids  # exact score ties keep input order

    def test_tail_beyond_n_topk_untouched(self, rng):
        query, db, ranked = feature_world(rng)
        out = rerank_spectral(query, db, ranked, RerankParams(n_topk=3))
        assert out.entries[3:] == ranked.entries[3:]

    def test_permutation_of_input_ids(self, rng):
        query, db, ranked = feature_world(rng)
        out = rerank_spectral(query, db, ranked, RerankParams(n_topk=6))
        assert sorted(out.ids) == sorted(ranked.ids)

    def test_unresolved_candidate(self, rng):
        query, db, ranked = feature_world(rng)
        partial = build_index(list(db.records[:-1]))
        with pytest.raises(UnresolvedCandidateError):
            rerank_spectral(query, partial, ranked, RerankParams(n_topk=6))

    def test_workers_do_not_change_result(self, rng):
        query, db, ranked = feature_world(rng, n_candidates=9)
        params = RerankParams(n_topk=9)
        base = rerank_spectral(query, db, ranked, params, workers=1)
        for workers in (2, 4):
            assert rerank_spectral(query, db, ranked, params, workers=workers).entries \
                == base.entries


class TestRerankRir:
    def test_n_topk_1_keeps_order(self, rng):
        query, db, ranked = feature_world(rng)
        out = rerank_rir(query, db, ranked, RerankParams(n_topk=1))
        assert out.ids == ranked.ids

    def test_perfect_copy_beats_random_geometry(self, rng):
        query, db, ranked = feature_world(rng)
        reversed_ranked = RankedList(tuple(reversed(ranked.entries)))
        out = rerank_rir(query, db, reversed_ranked,
                         RerankParams(n_topk=6))
        assert out.ids[0] == "c0"
        assert dict(out.entries)["c0"] == 1.0  # RIR of an exact copy

    def test_too_few_correspondences_gets_zero_fitness(self, rng):
        query, db, ranked = feature_world(rng)
        params = RerankParams(n_topk=6, spectral=SpectralParams(n_max=2))
        out = rerank_rir(query, db, ranked, params)
        assert len(out) == len(ranked)
        assert all(s == 0.0 for _, s in out.entries[:6])  # 2 corrs < minimum of 3

    def test_scheduling_independence(self, rng):
        query, db, ranked = feature_world(rng, n_candidates=8)
        params = RerankParams(n_topk=8)
        base = rerank_rir(query, db, ranked, params, workers=1)
        again = rerank_rir(query, db, ranked, params, workers=4)
        assert base.entries == again.entries


def descriptor_db(descriptors):
    return [
        make_scan(f"s{i}", [[0, 0, 0]], descriptor=np.asarray(d, dtype=np.float64))
        for i, d in enumerate(descriptors)
    ]


class TestAverageQe:
    def test_n_qe_zero_is_identity(self, rng):
        descs = rng.standard_normal((8, 4))
        index = build_index(descriptor_db(descs))
        g = rng.standard_normal(4)
        original = query_topk(index, g, k=8)
        out = rerank_average_qe(index, g, original, n_qe=0, k=8)
        assert out.entries == original.entries

    def test_hand_arithmetic_two_descriptors(self):
        index = build_index(descriptor_db([[0.0], [10.0]]))
        original = query_topk(index, np.array([1.0]), k=2)
        assert original.ids == ("s0", "s1")
        out = rerank_average_qe(index, np.array([1.0]), original, n_qe=1, k=2)
        # expanded query = (1 + 0) / 2 = 0.5; ranking unchanged
        assert out.ids == ("s0", "s1")
        np.testing.assert_allclose(out.scores, [0.5, 9.5], atol=1e-12)

    def test_fixed_point_when_query_is_db_row(self, rng):
        descs = rng.standard_normal((5, 3))
        index = build_index(descriptor_db(descs))
        g = descs[2].copy()
        original = query_topk(index, g, k=5)
        assert original.ids[0] == "s2"
        out = rerank_average_qe(index, g, original, n_qe=1, k=5)
        assert out.ids[0] == "s2"  # mean of the row with itself

    def test_n_qe_exceeding_list_rejected(self, rng):
        index = build_index(descriptor_db(rng.standard_normal((3, 2))))
        original = query_topk(index, np.zeros(2), k=3)
        with pytest.raises(ValueError):
            rerank_average_qe(index, np.zeros(2), original, n_qe=4, k=3)

    @pytest.mark.parametrize("rerank", [
        lambda *a: rerank_average_qe(*a, k=3),
        lambda *a: rerank_alpha_qe(*a, alpha=3.0, k=3),
    ])
    def test_negative_n_qe_rejected(self, rng, rerank):
        # a negative n_qe would slice ids[:-1] and expand silently
        index = build_index(descriptor_db(rng.standard_normal((3, 2))))
        original = query_topk(index, np.ones(2), k=3)
        with pytest.raises(ValueError, match="n_qe=-1"):
            rerank(index, np.ones(2), original, -1)


class TestAlphaQe:
    def test_n_qe_zero_identity_on_unit_descriptors(self, rng):
        # with unit-norm descriptors, cosine and euclidean orders coincide,
        # so the degenerate expansion reproduces the original ranking
        descs = rng.standard_normal((8, 4))
        descs /= np.linalg.norm(descs, axis=1, keepdims=True)
        index = build_index(descriptor_db(descs))
        g = rng.standard_normal(4)
        original = query_topk(index, g, k=8)
        out = rerank_alpha_qe(index, g, original, n_qe=0, alpha=3.0, k=8)
        assert out.ids == original.ids

    def test_large_alpha_dominated_by_parallel_candidate(self):
        g = np.array([1.0, 0.0])
        near = np.array([0.999, np.sqrt(1 - 0.999 ** 2)])
        orth = np.array([0.0, 1.0])
        far = np.array([-0.8, 0.6])
        index = build_index(descriptor_db([near, orth, far]))
        original = query_topk(index, g, k=3)
        out = rerank_alpha_qe(index, g, original, n_qe=3, alpha=50.0, k=3)
        assert out.ids[0] == "s0"
        assert out.ids[-1] in ("s1", "s2")

    def test_orthogonal_candidate_has_no_influence(self, rng):
        g = np.array([1.0, 0.0, 0.0])
        orth = np.array([0.0, 1.0, 0.0])
        other = np.array([0.9, 0.1, 0.0]) / np.linalg.norm([0.9, 0.1, 0.0])
        index = build_index(descriptor_db([orth, other]))
        ranked = RankedList((("s0", 0.0),))  # only the orthogonal candidate expands
        out = rerank_alpha_qe(index, g, ranked, n_qe=1, alpha=3.0, k=2)
        baseline = query_topk(index, g, k=2, metric="cosine")
        assert out.entries == baseline.entries  # weight 0: expansion = g alone

    def test_zero_query_vector_rejected(self, rng):
        index = build_index(descriptor_db(rng.standard_normal((3, 2))))
        ranked = query_topk(index, np.ones(2), k=3)
        with pytest.raises(ZeroVectorError):
            rerank_alpha_qe(index, np.zeros(2), ranked, n_qe=1, alpha=3.0, k=3)


class TestAliasedWorldRerank:
    def test_decoy_demoted_on_aliased_world(self):
        # seeded world where descriptor retrieval ranks some decoys first;
        # spectral re-ranking must repair every such query
        world = generate_world(WorldConfig(
            seed=12, num_places=30, num_queries=15, alias_fraction=0.4,
            points_per_scan=48, outlier_rate=0.2,
        ))
        index = build_index(world.database)
        params = RerankParams(n_topk=10)
        repaired = 0
        for query in world.queries:
            ranked = query_topk(index, query.global_descriptor, k=len(world.database))
            positives = world.truth[query.id]
            if ranked.ids[0] in positives:
                continue
            out = rerank_spectral(query, index, ranked, params)
            assert out.ids[0] in positives
            repaired += 1
        assert repaired >= 2  # the seed produces several aliased failures
