import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scanrank import spectral
from scanrank.errors import DimMismatchError, EmptyScanError
from scanrank.matching import (
    CorrespondenceSet,
    match_features,
    mutual_pairs,
    nn_squared_distances,
    sample_query_points,
)

from conftest import make_scan


def feature_scan(scan_id, features, cloud=None):
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    n = features.shape[0]
    if cloud is None:
        cloud = np.arange(n * 3, dtype=np.float64).reshape(n, 3)
    return make_scan(scan_id, cloud, features=features)


class TestSampleQueryPoints:
    def test_no_subsampling_when_n_max_large(self):
        scan = make_scan("s", np.zeros((10, 3)) + np.arange(10)[:, None])
        assert sample_query_points(scan, 20).tolist() == list(range(10))

    def test_stride_two(self):
        scan = make_scan("s", np.zeros((10, 3)) + np.arange(10)[:, None])
        assert sample_query_points(scan, 5).tolist() == [0, 2, 4, 6, 8]

    def test_uneven_stride_deterministic(self):
        scan = make_scan("s", np.zeros((10, 3)) + np.arange(10)[:, None])
        idx = sample_query_points(scan, 3)
        assert idx.tolist() == [0, 3, 6]
        assert sample_query_points(scan, 3).tolist() == idx.tolist()

    def test_empty_scan_guard(self):
        fake = types.SimpleNamespace(cloud=np.zeros((0, 3)))
        with pytest.raises(EmptyScanError):
            sample_query_points(fake, 5)

    def test_invalid_n_max(self):
        scan = make_scan("s", [[0, 0, 0]])
        with pytest.raises(ValueError):
            sample_query_points(scan, 0)


class TestMatchFeatures:
    def test_self_match_identity(self):
        scan = feature_scan("a", np.arange(6, dtype=float))
        out = match_features(scan, scan, n_max=100)
        assert out.query_indices.tolist() == list(range(6))
        assert out.candidate_indices.tolist() == list(range(6))
        assert np.all(out.feature_distances == 0.0)

    def test_two_point_nearest(self):
        # brute force over the 4 pairs: |0-0.1| < |0-9.9|, |10-9.9| < |10-0.1|
        query = feature_scan("q", [0.0, 10.0])
        cand = feature_scan("c", [0.1, 9.9])
        out = match_features(query, cand, n_max=10)
        assert out.candidate_indices.tolist() == [0, 1]
        # features are stored as float32, so distances carry f32 rounding
        np.testing.assert_allclose(out.feature_distances, [0.1, 0.1], rtol=1e-5)

    def test_tie_breaks_to_smallest_candidate_index(self):
        query = feature_scan("q", [1.0])
        cand = feature_scan("c", [1.0, 1.0, 1.0])
        out = match_features(query, cand, n_max=10)
        assert out.candidate_indices.tolist() == [0]

    def test_mutual_keeps_only_reciprocal_pair(self):
        # both query points' nearest candidate is c0; c0's nearest query is q0
        query = feature_scan("q", [0.0, 0.3])
        cand = feature_scan("c", [0.1, 9.0])
        plain = match_features(query, cand, n_max=10, mutual=False)
        assert plain.candidate_indices.tolist() == [0, 0]
        out = match_features(query, cand, n_max=10, mutual=True)
        assert out.query_indices.tolist() == [0]
        assert out.candidate_indices.tolist() == [0]

    def test_dim_mismatch(self):
        query = make_scan("q", [[0, 0, 0]], features=np.zeros((1, 4)))
        cand = make_scan("c", [[0, 0, 0]], features=np.zeros((1, 5)))
        with pytest.raises(DimMismatchError):
            match_features(query, cand)

    def test_output_size_without_mutual(self, rng):
        for _ in range(10):
            nq = int(rng.integers(1, 40))
            nc = int(rng.integers(1, 40))
            n_max = int(rng.integers(1, 50))
            q = feature_scan("q", rng.standard_normal((nq, 3)))
            c = feature_scan("c", rng.standard_normal((nc, 3)))
            out = match_features(q, c, n_max=n_max)
            assert len(out) == min(n_max, nq)

    def test_brute_force_oracle_equivalence(self, rng):
        for trial in range(30):
            # mostly small instances, with full-size 200-point ones mixed in
            high = 200 if trial % 10 == 0 else 60
            nq = int(rng.integers(2, high))
            nc = int(rng.integers(2, high))
            dim = int(rng.integers(1, 6))
            qf = rng.standard_normal((nq, dim))
            cf = rng.standard_normal((nc, dim))
            # inject exact duplicates to exercise tie-breaking
            if nc > 3:
                cf[1] = cf[0]
            query = feature_scan("q", qf)
            cand = feature_scan("c", cf)
            n_max = int(rng.integers(1, nq + 1))
            mutual = bool(trial % 2)
            out = match_features(query, cand, n_max=n_max, mutual=mutual)

            sampled = sample_query_points(query, n_max)
            qf32 = query.local_features.astype(np.float64)
            cf32 = cand.local_features.astype(np.float64)
            expected = []
            for i in sampled:
                dists = [float(np.linalg.norm(qf32[i] - cf32[j])) for j in range(nc)]
                best = int(np.argmin(dists))
                if mutual:
                    back = [float(np.linalg.norm(cf32[best] - qf32[k])) for k in sampled]
                    if sampled[int(np.argmin(back))] != i:
                        continue
                expected.append((int(i), best))
            assert [(int(a), int(b)) for a, b in
                    zip(out.query_indices, out.candidate_indices)] == expected

    def test_determinism(self, rng):
        q = feature_scan("q", rng.standard_normal((30, 4)))
        c = feature_scan("c", rng.standard_normal((40, 4)))
        a = match_features(q, c, n_max=20)
        b = match_features(q, c, n_max=20)
        assert np.array_equal(a.candidate_indices, b.candidate_indices)
        assert np.array_equal(a.feature_distances, b.feature_distances)


shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))


# small integer d^2 is mostly ties; the first smallest entry in row-major
# order must survive, and every kept row must pass the brute-force rule
@settings(max_examples=300, deadline=None)
@given(d2=arrays(np.int64, shapes, elements=st.integers(0, 3))
       | arrays(np.float64, shapes, elements=st.floats(-1.0, 1e3)))
def test_mutual_pairs_is_never_empty(d2):
    nn = d2.argmin(axis=1)
    keep = mutual_pairs(d2, nn)
    assert keep.shape == (d2.shape[0],) and keep.any()
    assert keep[np.unravel_index(d2.argmin(), d2.shape)[0]]
    assert keep.tolist() == [int(np.argmin(d2[:, j])) == i for i, j in enumerate(nn)]


class TestNnSquaredDistances:
    @pytest.mark.parametrize("b, n, big_n, dim", [(20, 96, 96, 16), (22, 13, 13, 8), (15, 73, 42, 16)])
    def test_stack_equals_each_candidate_alone_bitwise(self, rng, b, n, big_n, dim):
        # candidates sit side by side in one float32 buffer with point counts
        # big_n .. big_n + 2, most of them off the BLAS kernel width; each
        # one's distances must not depend on where it sits in that buffer
        counts = big_n + np.arange(b) % 3
        stack = rng.standard_normal((counts.sum(), dim)).astype(np.float32)
        query = feature_scan("q", rng.standard_normal((n, dim)).astype(np.float32))
        qf = query.local_features.astype(np.float64)
        for lo, hi in zip(np.cumsum(counts) - counts, np.cumsum(counts)):
            d2 = nn_squared_distances(qf, stack[lo:hi])
            assert d2.shape == (n, hi - lo)
            assert np.array_equal(d2, nn_squared_distances(qf, stack[lo:hi].copy()))
            corrs = match_features(query, feature_scan("c", stack[lo:hi]), n_max=n)
            assert np.array_equal(corrs.candidate_indices, d2.argmin(axis=1))

    @pytest.mark.parametrize("duplicated", [False, True])
    @pytest.mark.parametrize("spread", [3, 1])
    @pytest.mark.parametrize("b, n, big_n, dim", [(20, 96, 96, 16), (22, 13, 13, 8), (15, 73, 42, 16)])
    def test_score_candidates_matches_each_candidate_alone(self, rng, monkeypatch, b, n, big_n,
                                                           dim, spread, duplicated):
        # score_candidates' batched NN picks the neighbours and mutual flags of
        # match_features on each candidate alone. Point counts run big_n ..
        # big_n + spread - 1: mixed, or all equal. With `duplicated`, every
        # candidate holds the same features, each odd row a copy of the row
        # before it, and the query holds copies of them, so rows and columns
        # tie exactly, within a candidate and across the batch
        seen = {}

        def spy(name, fn):
            def wrapped(*args):
                seen[name] = args
                return fn(*args)
            monkeypatch.setattr(spectral, name, wrapped)

        spy("_compat_values", spectral._compat_values)
        spy("_power_iteration_batch", spectral._power_iteration_batch)
        sizes = big_n + np.arange(b) % spread
        for _ in range(4):  # a tie decided apart shows in some draws only
            if duplicated:
                pool = rng.standard_normal((big_n + spread, dim))
                pool[1::2] = pool[0::2][:pool[1::2].shape[0]]
                query_feats = pool[rng.integers(0, big_n, n)]
                query_feats[::2] += 0.1 * rng.standard_normal(query_feats[::2].shape)
                cand_feats = [pool[:m] for m in sizes]
            else:
                query_feats = rng.standard_normal((n, dim))
                cand_feats = [rng.standard_normal((m, dim)) for m in sizes]
            query = make_scan("q", rng.random((n, 3)) * 20, features=query_feats)
            cands = [make_scan(f"c{i}", rng.random((feats.shape[0], 3)) * 20, features=feats)
                     for i, feats in enumerate(cand_feats)]
            for mutual in (False, True):
                spectral.score_candidates(query, cands, spectral.SpectralParams(mutual=mutual))
                for k, cand in enumerate(cands):
                    corrs = match_features(query, cand, n_max=1000, mutual=mutual)
                    if mutual:
                        keep = seen["_power_iteration_batch"][1][k]
                        assert np.flatnonzero(keep).tolist() == corrs.query_indices.tolist()
                    else:  # the clouds' points are distinct, so points identify neighbours
                        points = seen["_compat_values"][0]
                        assert np.array_equal(points[1 + k], corrs.candidate_points)

    @pytest.mark.parametrize("b, n, big_n, dim", [(20, 96, 96, 16), (22, 13, 13, 8), (15, 73, 42, 16),
                                                  (3, 1, 1, 4), (2, 5, 1, 3)])
    def test_stacked_slices_have_the_bits_of_each_candidate_alone(self, rng, b, n, big_n, dim):
        # a slice of one stacked call is the call on its candidate alone, bit
        # for bit, and so are its mutual flags; exactly equal features
        # (every odd row a copy of the row before it, the query built from
        # copies) tie within a candidate and across the stack
        pool = rng.standard_normal((big_n + 1, dim))
        pool[1::2] = pool[0::2][:pool[1::2].shape[0]]
        query = pool[rng.integers(0, big_n, n)]
        query[::2] += 0.1 * rng.standard_normal(query[::2].shape)
        stack = np.stack([pool[:big_n]] * (b // 2) + [rng.standard_normal((big_n, dim))
                                                      for _ in range(b - b // 2)])
        d2 = nn_squared_distances(query, stack)
        nn = d2.argmin(axis=2)
        keep = mutual_pairs(d2, nn)
        for k in range(b):
            alone = nn_squared_distances(query, stack[k])
            assert np.array_equal(d2[k], alone)
            assert np.array_equal(keep[k], mutual_pairs(alone, alone.argmin(axis=1)))

    def test_matches_direct_differences(self, rng):
        query = rng.standard_normal((7, 5))
        cand = rng.standard_normal((9, 5))
        direct = ((query[:, None, :] - cand[None, :, :]) ** 2).sum(axis=-1)
        np.testing.assert_allclose(nn_squared_distances(query, cand), direct, atol=1e-12)


class TestCorrespondenceSet:
    def test_rejects_duplicate_query_indices(self):
        with pytest.raises(ValueError, match="unique"):
            CorrespondenceSet(
                np.array([0, 0]), np.array([0, 1]),
                np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2),
            )
