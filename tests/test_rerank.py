from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from scanrank.errors import UnresolvedCandidateError, ZeroVectorError
from scanrank.matching import match_features
from scanrank.registration import RansacParams, ransac_register
from scanrank.rerank import (
    rerank_alpha_qe,
    rerank_average_qe,
    rerank_rir,
    rerank_spectral,
)
from scanrank.retrieval import RankedList, build_index, query_topk
from scanrank.spectral import SpectralParams, score_candidates
from scanrank.synthgen import WorldConfig, generate_world

from conftest import listed, make_scan
from make_golden import WORLDS


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
    return query, listed(build_index(cands), np.arange(len(cands)))


def reversed_list(ranked):
    """The same candidates with the copy of the query last."""
    return listed(ranked.database, ranked.rows[::-1])


class TestRerankSpectral:
    def test_n_topk_1_keeps_order(self, rng):
        query, ranked = feature_world(rng)
        out = rerank_spectral(query, reversed_list(ranked), 1)
        assert out.database is ranked.database
        assert out.rows.tolist() == [5, 4, 3, 2, 1, 0]

    def test_promotes_geometrically_consistent_candidate(self, rng):
        query, ranked = feature_world(rng)
        # descriptor order put the copy last; spectral fitness pulls it to 1
        out = rerank_spectral(query, reversed_list(ranked), 6)
        assert out.rows[0] == 0
        assert out.ids[0] == "c0"

    def test_identical_copies_keep_stable_order(self, rng):
        cloud = rng.random((30, 3)) * 10
        feats = rng.standard_normal((30, 5))
        query = make_scan("q", cloud, features=feats, descriptor=np.zeros(4))
        cands = [make_scan(f"c{i}", cloud, features=feats, descriptor=np.zeros(4))
                 for i in range(4)]
        ranked = listed(build_index(cands), [2, 0, 3, 1])
        out = rerank_spectral(query, ranked, 4)
        assert out.rows.tolist() == [2, 0, 3, 1]  # exact score ties keep input order

    def test_tail_beyond_n_topk_untouched(self, rng):
        query, ranked = feature_world(rng)
        reversed_ranked = reversed_list(ranked)
        out = rerank_spectral(query, reversed_ranked, 3)
        assert out.rows[3:].tolist() == reversed_ranked.rows[3:].tolist() == [2, 1, 0]
        assert sorted(out.rows[:3].tolist()) == [3, 4, 5]

    def test_permutation_of_input_ids(self, rng):
        query, ranked = feature_world(rng)
        out = rerank_spectral(query, reversed_list(ranked), 6)
        assert sorted(out.rows.tolist()) == list(range(6))
        assert sorted(out.ids) == sorted(ranked.ids)

    def test_unresolved_candidate(self, rng):
        # a list cannot name rows its database does not have
        _, ranked = feature_world(rng)
        partial = build_index(list(ranked.database.records[:-1]))
        with pytest.raises(UnresolvedCandidateError):
            RankedList(partial, ranked.rows, np.zeros(len(partial)))


@pytest.fixture(scope="module", params=[(w, seed) for w in WORLDS for seed in (0, 1)],
                ids=lambda p: f"{p[0]}-seed{p[1]}")
def seeded_world(request):
    name, seed = request.param
    world = generate_world(replace(WORLDS[name], seed=seed))
    return world, build_index(world.database)


@pytest.mark.parametrize("mutual", [False, True], ids=["plain", "mutual"])
@pytest.mark.parametrize("k", [2, 20])
def test_order_mode_permutes_as_tol_mode_scores_sort(seeded_world, k, mutual):
    # rerank_spectral stops each candidate once its rank is proven; its
    # order must equal the stable descending argsort of the converged s*
    world, index = seeded_world
    spectral = SpectralParams(mutual=mutual)
    for query in world.queries:
        ranked = query_topk(index, query.global_descriptor, k=k)
        s_star, _ = score_candidates(query, ranked.scans(k), spectral)
        want = ranked.rows[np.argsort(-s_star, kind="stable")].tolist()
        assert rerank_spectral(query, ranked, k, spectral).rows.tolist() == want


class TestRerankRir:
    def test_n_topk_1_keeps_order(self, rng):
        query, ranked = feature_world(rng)
        out = rerank_rir(query, reversed_list(ranked), 1)
        assert out.rows.tolist() == [5, 4, 3, 2, 1, 0]

    def test_perfect_copy_beats_random_geometry(self, rng):
        query, ranked = feature_world(rng)
        out = rerank_rir(query, reversed_list(ranked), 6)
        assert out.rows[0] == 0
        assert out.ids[0] == "c0"
        copy = ranked.database.records[0]
        spectral = SpectralParams()
        corrs = match_features(query, copy, spectral.n_max, spectral.mutual)
        assert ransac_register(corrs, RansacParams()).inlier_ratio == 1.0  # RIR of an exact copy

    def test_too_few_correspondences_gets_zero_fitness(self, rng):
        # 2 corrs < minimum of 3: every fitness is 0, so the stable sort
        # keeps the input order even with the exact copy last
        query, ranked = feature_world(rng)
        out = rerank_rir(query, reversed_list(ranked), 6, SpectralParams(n_max=2))
        assert out.rows.tolist() == [5, 4, 3, 2, 1, 0]

    def test_scheduling_independence(self, rng):
        # on a caller's 4-worker pool the candidates rank as on the calling thread
        query, ranked = feature_world(rng, n_candidates=8)
        base = rerank_rir(query, reversed_list(ranked), 8)
        with ThreadPoolExecutor(max_workers=4) as pool:
            again = rerank_rir(query, reversed_list(ranked), 8, pool=pool)
        assert np.array_equal(base.rows, again.rows)
        assert base.rows[0] == 0


@pytest.mark.parametrize("rerank", [rerank_spectral, rerank_rir])
def test_n_topk_0_is_rejected(rng, rerank):
    # an empty prefix would return the input order as if it were re-ranked
    query, ranked = feature_world(rng)
    with pytest.raises(ValueError, match="n_topk must be >= 1, got 0"):
        rerank(query, ranked, 0)


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
        out = rerank_average_qe(g, original, n_qe=0, k=8)
        assert out.database is index
        assert np.array_equal(out.rows, original.rows)

    def test_hand_arithmetic_two_descriptors(self):
        index = build_index(descriptor_db([[-3.0], [-1.0], [4.0], [1.0]]))
        original = query_topk(index, np.array([1.0]), k=4)
        assert original.rows.tolist() == [3, 1, 2, 0]  # distances 0, 2, 3, 4
        out = rerank_average_qe(np.array([1.0]), original, n_qe=2, k=4)
        # expanded query = (1 + 1 - 1) / 3 = 1/3: distances 2/3, 4/3, 10/3, 11/3
        # to s3, s1, s0, s2. The query alone, the sum (1) and the means at
        # n_qe 1 or 3 (1, 1.25) keep s2 before s0; the candidates' mean
        # without the query (0) puts s1 first.
        assert out.rows.tolist() == [3, 1, 0, 2]

    def test_fixed_point_when_query_is_db_row(self, rng):
        descs = rng.standard_normal((5, 3))
        index = build_index(descriptor_db(descs))
        g = descs[2].copy()
        original = query_topk(index, g, k=5)
        assert original.ids[0] == "s2"
        out = rerank_average_qe(g, original, n_qe=1, k=5)
        assert out.ids[0] == "s2"  # mean of the row with itself

    def test_n_qe_exceeding_list_rejected(self, rng):
        index = build_index(descriptor_db(rng.standard_normal((3, 2))))
        original = query_topk(index, np.zeros(2), k=3)
        with pytest.raises(ValueError):
            rerank_average_qe(np.zeros(2), original, n_qe=4, k=3)

    @pytest.mark.parametrize("rerank", [
        lambda *a: rerank_average_qe(*a, k=3),
        lambda *a: rerank_alpha_qe(*a, alpha=3.0, k=3),
    ])
    def test_negative_n_qe_rejected(self, rng, rerank):
        # a negative n_qe would slice ids[:-1] and expand silently
        index = build_index(descriptor_db(rng.standard_normal((3, 2))))
        original = query_topk(index, np.ones(2), k=3)
        with pytest.raises(ValueError, match="n_qe=-1"):
            rerank(np.ones(2), original, -1)


class TestAlphaQe:
    def test_n_qe_zero_identity_on_unit_descriptors(self, rng):
        # with unit-norm descriptors, cosine and euclidean orders coincide,
        # so the degenerate expansion reproduces the original ranking
        descs = rng.standard_normal((8, 4))
        descs /= np.linalg.norm(descs, axis=1, keepdims=True)
        index = build_index(descriptor_db(descs))
        g = rng.standard_normal(4)
        original = query_topk(index, g, k=8)
        out = rerank_alpha_qe(g, original, n_qe=0, alpha=3.0, k=8)
        assert np.array_equal(out.rows, original.rows)

    def test_large_alpha_dominated_by_parallel_candidate(self):
        g = np.array([1.0, 0.0])
        near = np.array([0.999, np.sqrt(1 - 0.999 ** 2)])
        orth = np.array([0.0, 1.0])
        far = np.array([-0.8, 0.6])
        index = build_index(descriptor_db([near, orth, far]))
        original = query_topk(index, g, k=3)
        out = rerank_alpha_qe(g, original, n_qe=3, alpha=50.0, k=3)
        assert out.ids[0] == "s0"
        assert out.ids[-1] in ("s1", "s2")

    def test_orthogonal_candidate_has_no_influence(self, rng):
        g = np.array([1.0, 0.0, 0.0])
        orth = np.array([0.0, 1.0, 0.0])
        other = np.array([0.9, 0.1, 0.0]) / np.linalg.norm([0.9, 0.1, 0.0])
        index = build_index(descriptor_db([orth, other]))
        ranked = listed(index, [0])  # only the orthogonal candidate expands
        out = rerank_alpha_qe(g, ranked, n_qe=1, alpha=3.0, k=2)
        baseline = query_topk(index, g, k=2, metric="cosine")
        assert np.array_equal(out.rows, baseline.rows)  # weight 0: expansion = g alone

    def test_zero_query_vector_rejected(self, rng):
        index = build_index(descriptor_db(rng.standard_normal((3, 2))))
        ranked = query_topk(index, np.ones(2), k=3)
        with pytest.raises(ZeroVectorError):
            rerank_alpha_qe(np.zeros(2), ranked, n_qe=1, alpha=3.0, k=3)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan])
    def test_alpha_that_is_not_positive_rejected(self, rng, alpha):
        # a NaN alpha would make every weight and key NaN: database order
        index = build_index(descriptor_db(rng.standard_normal((3, 2))))
        ranked = query_topk(index, np.ones(2), k=3)
        with pytest.raises(ValueError, match="alpha must be > 0"):
            rerank_alpha_qe(np.ones(2), ranked, n_qe=1, alpha=alpha, k=3)


class TestAliasedWorldRerank:
    def test_decoy_demoted_on_aliased_world(self):
        # seeded world where descriptor retrieval ranks some decoys first;
        # spectral re-ranking must repair every such query
        world = generate_world(WorldConfig(
            seed=12, num_places=30, num_queries=15, alias_fraction=0.4,
            points_per_scan=48, outlier_rate=0.2,
        ))
        index = build_index(world.database)
        repaired = 0
        for query in world.queries:
            ranked = query_topk(index, query.global_descriptor, k=len(world.database))
            positives = world.truth[query.id]
            if ranked.ids[0] in positives:
                continue
            out = rerank_spectral(query, ranked, 10)
            assert out.ids[0] in positives
            repaired += 1
        assert repaired >= 2  # the seed produces several aliased failures
