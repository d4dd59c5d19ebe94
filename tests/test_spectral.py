from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanrank.errors import EmptyMatrixError, NonPositiveThresholdError
from scanrank.geometry import RigidTransform, random_rotation
from scanrank.matching import CorrespondenceSet, match_features, sample_query_points
from scanrank import spectral
from scanrank.spectral import (
    CompatibilityMatrix,
    SpectralParams,
    build_compatibility_matrix,
    power_iterate,
    score_candidates,
)

from conftest import make_scan


class TestSpectralParams:
    @pytest.mark.parametrize("d_thr", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_rejects_d_thr_outside_zero_to_inf(self, d_thr):
        with pytest.raises(NonPositiveThresholdError, match="d_thr must be finite and > 0"):
            SpectralParams(d_thr=d_thr)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
    @pytest.mark.parametrize("use", ["params", "power_iterate"])
    def test_rejects_tol_outside_zero_to_inf(self, tol, use):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            if use == "params":
                SpectralParams(tol=tol)
            else:
                power_iterate(CompatibilityMatrix(np.ones((3, 3)) - np.eye(3), 0.5), tol=tol)

    def test_accepts_small_and_large_finite_values(self):
        params = SpectralParams(d_thr=1e-300, tol=1e300)
        assert (params.d_thr, params.tol) == (1e-300, 1e300)


def corr_set(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    return CorrespondenceSet(np.arange(n), np.arange(n), x, y, np.zeros(n))


def random_corr_set(rng, n, inlier_rate=0.6, scale=20.0, noise=0.01):
    x = rng.random((n, 3)) * scale
    inlier = rng.random(n) < inlier_rate
    y = np.where(inlier[:, None], x + rng.standard_normal((n, 3)) * noise,
                 rng.random((n, 3)) * scale)
    return corr_set(x, y)


def laid_out(a, layout):
    """`a` as a C-contiguous, strided ([..., ::2]) or Fortran-ordered array."""
    if layout == "strided":
        wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
        wide[..., ::2] = a
        return wide[..., ::2]
    return np.asfortranarray(a) if layout == "fortran" else np.ascontiguousarray(a)


def top_eigenvalue(matrix: CompatibilityMatrix) -> float:
    if matrix.n == 0:
        return 0.0
    return float(np.linalg.eigvalsh(matrix.values)[-1])


class TestBuildCompatibilityMatrix:
    def test_consistent_pair_gives_ones(self):
        m = build_compatibility_matrix(
            corr_set([[0, 0, 0], [1, 0, 0]], [[0, 0, 0], [1, 0, 0]]), d_thr=0.5
        )
        np.testing.assert_array_equal(m.values, [[0.0, 1.0], [1.0, 0.0]])

    def test_partial_compatibility_value(self):
        # d12 = |1 - 1.4| = 0.4, m = 1 - 0.16/0.25 = 0.36
        m = build_compatibility_matrix(
            corr_set([[0, 0, 0], [1, 0, 0]], [[0, 0, 0], [1.4, 0, 0]]), d_thr=0.5
        )
        assert m.values[0, 1] == pytest.approx(0.36, rel=1e-9)
        assert m.values[0, 0] == 0.0

    def test_clamped_to_zero_beyond_threshold(self):
        m = build_compatibility_matrix(
            corr_set([[0, 0, 0], [1, 0, 0]], [[0, 0, 0], [2, 0, 0]]), d_thr=0.5
        )
        np.testing.assert_array_equal(m.values, np.zeros((2, 2)))

    def test_non_positive_threshold(self):
        with pytest.raises(NonPositiveThresholdError):
            build_compatibility_matrix(corr_set([[0, 0, 0]], [[0, 0, 0]]), d_thr=0.0)

    @pytest.mark.parametrize("d_thr", [float("nan"), float("inf")])
    def test_non_finite_threshold(self, d_thr):
        with pytest.raises(NonPositiveThresholdError):
            build_compatibility_matrix(corr_set([[0, 0, 0]], [[0, 0, 0]]), d_thr=d_thr)

    def test_exact_symmetry_and_range(self, rng):
        for _ in range(20):
            corrs = random_corr_set(rng, int(rng.integers(2, 80)))
            m = build_compatibility_matrix(corrs, d_thr=0.5).values
            assert np.array_equal(m, m.T)
            assert m.min() >= 0.0 and m.max() <= 1.0
            assert np.all(np.diagonal(m) == 0.0)

    @pytest.mark.parametrize("layout", ["contiguous", "strided", "fortran"])
    @pytest.mark.parametrize("n", [1, 2, 13, 73, 96, 199, 2000])
    def test_stack_is_exactly_symmetric_with_zero_diagonal(self, rng, n, layout):
        # symmetric by construction, not by a mirror, for any memory layout of
        # the points: clouds 60 m across at up to 1e5 m from the origin, where
        # d^2 = (sq_i + sq_j) - 2G cancels most of its digits; a third of the
        # candidate points are outliers, the rest give entries inside (0, 1).
        # With OpenBLAS, p @ p.T of a strided (199, 3) operand is not exactly
        # symmetric, so the build must take G from a contiguous copy
        b = 1 if n == 2000 else 3
        offset = rng.uniform(-1e5, 1e5, 3)
        x = offset + rng.uniform(-30.0, 30.0, (n, 3))
        y = x + rng.standard_normal((b, n, 3)) * 0.2
        y[:, ::3] = offset + rng.uniform(-30.0, 30.0, y[:, ::3].shape)
        stack = spectral._compat_values(laid_out(np.concatenate([x[None], y]), layout), 0.5)
        x, y = laid_out(x, layout), laid_out(y, layout)
        built = [build_compatibility_matrix(corr_set(x, yi), 0.5).values for yi in y]
        for m in list(stack) + built:
            assert np.array_equal(m, m.T)
            assert np.all(np.diagonal(m) == 0.0)
            assert m.min() >= 0.0 and m.max() <= 1.0

    def test_empty_set_gives_empty_matrix(self):
        empty = CorrespondenceSet(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                                  np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
        assert build_compatibility_matrix(empty, 0.5).n == 0

    def test_validation_rejects_asymmetric(self):
        bad = np.array([[0.0, 0.5], [0.4, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            CompatibilityMatrix(bad, 0.5)

    def test_validation_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            CompatibilityMatrix(np.array([[0.1]]), 0.5)

    def test_doubling_threshold_is_entrywise_monotone(self, rng):
        for _ in range(10):
            corrs = random_corr_set(rng, 40)
            m1 = build_compatibility_matrix(corrs, 0.5).values
            m2 = build_compatibility_matrix(corrs, 1.0).values
            assert np.all(m2 >= m1)
            assert top_eigenvalue(CompatibilityMatrix(m2, 1.0)) >= \
                top_eigenvalue(CompatibilityMatrix(m1, 0.5)) - 1e-9

    @pytest.mark.parametrize("b, n", [(1, 1), (3, 13), (20, 96), (4, 199)])
    def test_query_slice_and_candidate_slices_are_built_as_alone(self, rng, b, n):
        # the one distance stack: slice 0 holds the query's distances, the
        # rest the candidates', each bitwise as if built without the others
        offset = rng.uniform(-1e3, 1e3, 3)
        x = offset + rng.uniform(-30.0, 30.0, (n, 3))
        y = x + rng.standard_normal((b, n, 3))
        d = spectral._pairwise_distances(np.concatenate([x[None], y]), 0.5)
        assert np.array_equal(d[0], spectral._pairwise_distances(x, 0.5))
        assert np.array_equal(d[1:], spectral._pairwise_distances(y, 0.5))


@st.composite
def outer_sum_cases(draw):
    """Squared norms over 1-3 leading axes and n = 1..300, from 0 up to
    1e150 (subnormals included), laid out contiguous, strided or as the
    diagonal of a matrix stack."""
    lead = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    n = draw(st.integers(1, 300))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = lead + (n,)
    sq = r.random(shape) * 10.0 ** r.integers(-320, 151, shape)
    sq[r.random(shape) < draw(st.floats(0.0, 0.5))] = 0.0
    layout = draw(st.sampled_from(["contiguous", "strided", "diagonal"]))
    if layout == "strided":
        wide = np.zeros(lead + (2 * n,))
        wide[..., ::2] = sq
        sq = wide[..., ::2]
    elif layout == "diagonal":
        square = np.zeros(shape + (n,))
        np.einsum("...ii->...i", square)[...] = sq
        sq = np.diagonal(square, axis1=-2, axis2=-1)
    return sq


@settings(max_examples=120, deadline=None)
@given(sq=outer_sum_cases())
def test_outer_sum_gemm_equals_the_broadcast_sum_bitwise(sq):
    expected = sq[..., :, None] + sq[..., None, :]
    assert np.array_equal(spectral._outer_sum(sq), expected)


class TestPowerIterate:
    def test_complete_graph_eigenpair(self):
        values = np.ones((4, 4)) - np.eye(4)
        res = power_iterate(CompatibilityMatrix(values, 1.0))
        assert res.s_star == pytest.approx(3.0, abs=1e-9)
        np.testing.assert_allclose(res.v_star, [0.5] * 4, atol=1e-9)
        assert res.converged

    def test_two_node_eigenpair_matches_dense_oracle(self):
        m = CompatibilityMatrix(np.array([[0.0, 0.36], [0.36, 0.0]]), 0.5)
        res = power_iterate(m)
        assert res.s_star == pytest.approx(top_eigenvalue(m), abs=1e-12)
        np.testing.assert_allclose(res.v_star, [1 / np.sqrt(2)] * 2, atol=1e-9)

    def test_zero_matrix_defined_case(self):
        res = power_iterate(CompatibilityMatrix(np.zeros((3, 3)), 0.5))
        assert res.s_star == 0.0
        assert res.converged
        assert res.iterations == 1
        np.testing.assert_allclose(res.v_star, np.full(3, 1 / np.sqrt(3)))

    def test_empty_matrix_raises(self):
        with pytest.raises(EmptyMatrixError):
            power_iterate(CompatibilityMatrix(np.zeros((0, 0)), 0.5))

    def test_unit_norm_and_recomputed_s_star(self, rng):
        for _ in range(20):
            m = build_compatibility_matrix(random_corr_set(rng, int(rng.integers(2, 60))), 0.5)
            res = power_iterate(m)
            assert abs(np.linalg.norm(res.v_star) - 1.0) < 1e-9
            recomputed = float(res.v_star @ m.values @ res.v_star)
            assert abs(res.s_star - recomputed) < 1e-9

    def test_rayleigh_bound(self, rng):
        for _ in range(30):
            m = build_compatibility_matrix(random_corr_set(rng, int(rng.integers(2, 100))), 0.5)
            res = power_iterate(m)
            assert res.s_star <= top_eigenvalue(m) + 1e-6

    def test_convergence_matches_dense_oracle(self, rng):
        for _ in range(30):
            m = build_compatibility_matrix(random_corr_set(rng, int(rng.integers(2, 100))), 0.5)
            res = power_iterate(m, tol=1e-9, max_iters=20000)
            lam = top_eigenvalue(m)
            assert abs(res.s_star - lam) <= 1e-6 * max(1.0, lam)

    def test_stops_at_the_first_iteration_that_meets_tol(self, rng):
        # iterations are checked in blocks, so also pin that a run reports
        # (and returns) the exact iterate where its stopping rule fired
        for _ in range(10):
            m = build_compatibility_matrix(random_corr_set(rng, int(rng.integers(5, 60))), 0.5)
            full = power_iterate(m, max_iters=1000)
            assert full.converged and full.iterations > 1
            exact = power_iterate(m, max_iters=full.iterations)
            assert exact.converged and exact.iterations == full.iterations
            assert np.array_equal(exact.v_star, full.v_star)
            short = power_iterate(m, max_iters=full.iterations - 1)
            assert not short.converged and short.iterations == full.iterations - 1

    def test_non_convergence_returns_stale_rayleigh(self, rng):
        m = build_compatibility_matrix(random_corr_set(rng, 60, inlier_rate=0.1), 0.5)
        res = power_iterate(m, tol=1e-15, max_iters=2)
        assert not res.converged
        assert res.iterations == 2
        assert res.s_star >= 0.0


class TestBatchedPowerIteration:
    """Tol mode, the float64 power iteration of a batch, and the float32
    sweep of order mode at large n."""

    def mixed_stack(self, rng, n=30):
        # slow and fast convergers, a complete graph and a zero matrix
        stack = [build_compatibility_matrix(random_corr_set(rng, n, inlier_rate=r), 0.5).values
                 for r in (0.05, 0.2, 0.4, 0.6, 0.9)]
        stack += [np.ones((n, n)) - np.eye(n), np.zeros((n, n))]
        return np.stack(stack)

    @pytest.mark.parametrize("max_iters", range(1, 41))
    def test_batch_equals_solo_bitwise_under_every_budget(self, rng, max_iters):
        stack = self.mixed_stack(rng)
        keep = np.ones(stack.shape[:2], dtype=bool)
        v, lam, iters, conv = spectral._power_iteration_batch(stack, keep, 1e-6, max_iters)
        assert np.all(iters <= max_iters)
        for i, m in enumerate(stack):
            solo = power_iterate(CompatibilityMatrix(m, 0.5), 1e-6, max_iters)
            assert np.array_equal(v[i], solo.v_star)
            assert lam[i] == solo.s_star
            assert (iters[i], conv[i]) == (solo.iterations, solo.converged)

    @pytest.mark.parametrize("order", [False, True], ids=["tol", "order"])
    def test_iterations_count_every_matvec_run(self, rng, monkeypatch, order):
        # the copy of slice 1 ties with it, so order mode falls back to tol
        # mode for both, and their tol-mode steps must be counted too
        stack = self.mixed_stack(rng)
        stack = np.concatenate([stack, stack[1:2]])
        keep = np.ones(stack.shape[:2], dtype=bool)
        run = []
        matmul = np.matmul

        def counting(a, b, *args, **kwargs):
            if b.ndim == 3 and b.shape[-1] == 1 and (a[:, 0, 0] == spectral._SHIFT).all():
                run.append(a.shape[0])  # one matvec on M + sigma*I per slice
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting)
        _, _, iters, _ = spectral._power_iteration_batch(stack, keep, 1e-6, 100, order)
        assert sum(run) == iters.sum()
        assert not order or iters[-1] > 100

    def test_small_gap_converges_to_float64_accuracy(self):
        # two disconnected cliques whose eigenvalues 47 and 46.765 differ by
        # 0.5%: tol = 1e-9 is reached to float64 accuracy within 3140
        # iterations (3094 measured)
        m = np.zeros((96, 96))
        m[:48, :48] = 1.0
        m[48:, 48:] = 0.995
        np.fill_diagonal(m, 0.0)
        res = power_iterate(CompatibilityMatrix(m, 0.5), tol=1e-9, max_iters=20000)
        lam = np.linalg.eigvalsh(m)[-1]
        assert res.converged
        assert res.iterations <= 3140
        assert abs(res.s_star - lam) <= 1e-9 * lam

    @pytest.mark.parametrize("a, b, bound", [(30, 60, 1150), (100, 200, 3800)])
    def test_complete_bipartite_converges_despite_a_step_ratio_near_1(self, a, b, bound):
        # K(a, b) has eigenvalues +/- sqrt(ab), so each step shrinks by
        # (lambda - 1/4) / (lambda + 1/4): 0.988 and 0.996, and the float64
        # iteration still converges (1083 and 3606 iterations measured)
        n = a + b
        m = np.zeros((n, n))
        m[:a, a:] = m[a:, :a] = 1.0
        res = power_iterate(CompatibilityMatrix(m, 0.5), tol=1e-6, max_iters=20000)
        lam = np.sqrt(a * b)
        assert res.converged
        assert res.iterations <= bound
        assert abs(res.s_star - lam) <= 1e-9 * lam

    @pytest.mark.parametrize("case", ["all_ones", "two_cliques"])
    def test_large_n_does_not_overflow_float32(self, monkeypatch, case):
        # n = 2000: each float32 step of order mode grows the norm by up to
        # n, the bound its block length is chosen for. Two copies of one
        # matrix tie, so the sweep runs every block of its 40 steps; all
        # ones (lambda 1999) and two disconnected cliques of 1000 (weights 1
        # and 0.9, lambda 999) grow the norm at about n and n / 2 per step.
        n, h = 2000, 1000
        m = np.ones((n, n))
        if case == "two_cliques":
            m[:h, h:] = m[h:, :h] = 0.0
            m[h:, h:] = 0.9
        np.fill_diagonal(m, 0.0)
        seen = []
        bracket = spectral._bracket

        def spy(u, w, nonzero):
            seen.append((u, w))
            return bracket(u, w, nonzero)

        monkeypatch.setattr(spectral, "_bracket", spy)
        keep = np.ones((2, n), dtype=bool)
        _, _, iters, _ = spectral._power_iteration_batch(np.stack([m, m]), keep, 1e-9, 40, order=True)
        assert len(seen) == 8 and (iters >= 40).all()  # blocks of 5 at n = 2000
        for u, w in seen:
            assert np.isfinite(w).all() and (np.linalg.norm(u, axis=1) > 1.0).all()
        res = power_iterate(CompatibilityMatrix(m, 0.5), tol=1e-9, max_iters=1000)
        assert res.converged
        assert res.s_star == pytest.approx(n - 1.0 if case == "all_ones" else h - 1.0, rel=1e-9)

    @pytest.mark.parametrize("case", ["n_max_1", "zero_matrix", "one_mutual_pair"])
    def test_degenerate_inputs_score_zero_in_one_iteration(self, rng, monkeypatch, case):
        seen = []
        batch = spectral._power_iteration_batch

        def spy(*args):
            seen.append(batch(*args))
            return seen[-1]

        monkeypatch.setattr(spectral, "_power_iteration_batch", spy)
        query = identity_feature_scan("q", rng)
        params = SpectralParams(n_max=1) if case == "n_max_1" else SpectralParams()
        cand = query
        if case == "one_mutual_pair":
            # every sampled query point matches the candidate's one point,
            # whose nearest query point keeps the only mutual pair
            params = SpectralParams(mutual=True)
            cand = make_scan("c", query.cloud[:1], features=query.local_features[5:6] + 0.1,
                             descriptor=np.zeros(4))
            assert len(match_features(query, cand, params.n_max, mutual=True)) == 1
        if case == "zero_matrix":
            # every pairwise distance is stretched 100x, so no pair is compatible
            cand = make_scan("c", query.cloud.astype(np.float64) * 100.0,
                             features=query.local_features, descriptor=np.zeros(4))
            corrs = match_features(query, cand, params.n_max)
            assert not build_compatibility_matrix(corrs, params.d_thr).values.any()
        (s,), _ = score_candidates(query, [cand], params)
        (_, _, iters, conv), = seen
        assert s == 0.0
        assert conv[0] and iters[0] == 1


class TestSpectralFitness:
    def test_all_consistent_gives_n_minus_1(self):
        values = np.ones((4, 4)) - np.eye(4)
        res = power_iterate(CompatibilityMatrix(values, 0.5))
        assert res.s_star == pytest.approx(3.0, abs=1e-9)

    def test_single_correspondence_scores_zero(self):
        res = power_iterate(CompatibilityMatrix(np.zeros((1, 1)), 0.5))
        assert res.s_star == 0.0

    def test_three_consistent_beat_two_consistent(self):
        # same geometry, one extra inlier: 3 mutually consistent + 1 stray
        # versus 2 consistent + 2 strays; dense oracle confirms the ordering
        x = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]], dtype=float)
        y3 = x.copy(); y3[3] = [40, 40, 40]
        y2 = x.copy(); y2[2] = [-30, 7, 12]; y2[3] = [40, 40, 40]
        m3 = build_compatibility_matrix(corr_set(x, y3), 0.5)
        m2 = build_compatibility_matrix(corr_set(x, y2), 0.5)
        s3 = power_iterate(m3).s_star
        s2 = power_iterate(m2).s_star
        assert s3 == pytest.approx(top_eigenvalue(m3), abs=1e-9)
        assert s2 == pytest.approx(top_eigenvalue(m2), abs=1e-9)
        assert s3 > s2

    def test_monotone_in_inliers_on_enumerated_configs(self, rng):
        # inliers are exactly consistent, outliers are consistent with nothing;
        # upgrading one outlier to an inlier never lowers the dense-oracle score
        for n in (4, 5, 6):
            x = rng.random((n, 3)) * 10
            far = 1000.0 + np.arange(n)[:, None] * np.array([[100.0, 0.0, 0.0]])
            scores = []
            for inliers in range(n + 1):
                y = far.copy()
                y[:inliers] = x[:inliers]
                m = build_compatibility_matrix(corr_set(x, y), 0.5)
                scores.append(top_eigenvalue(m))
            assert all(b >= a - 1e-9 for a, b in zip(scores, scores[1:]))


def identity_feature_scan(scan_id, rng, n=48, dim=6, cloud=None):
    if cloud is None:
        cloud = rng.random((n, 3)) * 20
    feats = rng.standard_normal((n, dim))
    return make_scan(scan_id, cloud, features=feats, descriptor=np.zeros(4))


@st.composite
def corr_sets(draw):
    n = draw(st.integers(2, 60))
    rate = draw(st.floats(0.0, 1.0))
    return random_corr_set(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, rate)


def oracle_s_star(corrs):
    return power_iterate(build_compatibility_matrix(corrs, 0.5), tol=1e-9, max_iters=20000).s_star


class TestScoreInvariance:
    """s* depends only on the pairwise distances within each side of the set."""

    @settings(max_examples=60, deadline=None)
    @given(corrs=corr_sets(), seed=st.integers(0, 2**32 - 1), t_norm=st.floats(0.0, 100.0))
    def test_rigid_motion_of_the_candidate_points(self, corrs, seed, t_norm):
        r = np.random.default_rng(seed)
        direction = r.standard_normal(3)
        T = RigidTransform(random_rotation(r), direction / np.linalg.norm(direction) * t_norm)
        s = oracle_s_star(corrs)
        moved = oracle_s_star(corr_set(corrs.query_points, T.apply(corrs.candidate_points)))
        assert abs(moved - s) <= 1e-9 * max(1.0, s)

    @settings(max_examples=60, deadline=None)
    @given(corrs=corr_sets(), seed=st.integers(0, 2**32 - 1))
    def test_permutation_of_the_correspondences(self, corrs, seed):
        perm = np.random.default_rng(seed).permutation(len(corrs))
        s = oracle_s_star(corrs)
        permuted = oracle_s_star(corr_set(corrs.query_points[perm], corrs.candidate_points[perm]))
        assert abs(permuted - s) <= 1e-9 * max(1.0, s)


class TestScoreCandidate:
    def test_self_match_scores_n_minus_1(self, rng):
        scan = identity_feature_scan("a", rng)
        (s,), n = score_candidates(scan, [scan])
        assert s == pytest.approx(n - 1, abs=1e-6 * (n - 1))

    def test_rigid_invariance(self, rng):
        scan = identity_feature_scan("a", rng)
        (s_self,), n = score_candidates(scan, [scan])
        for _ in range(10):
            T = RigidTransform(random_rotation(rng), rng.standard_normal(3) * 15)
            moved = make_scan("b", T.apply(scan.cloud.astype(np.float64)),
                              features=scan.local_features.astype(np.float64),
                              descriptor=np.zeros(4))
            (s_moved,), _ = score_candidates(scan, [moved])
            assert abs(s_moved - s_self) < 1e-5 * (n - 1)

    def test_permuted_features_score_low(self, rng):
        # all correspondences become outliers; empirical worst case over
        # 30 seeds was 0.086 * (n-1), asserted here at the 0.2 bound
        for seed in range(10):
            r = np.random.default_rng(seed)
            n = int(r.integers(20, 120))
            cloud = r.random((n, 3)) * 20
            feats = r.standard_normal((n, 8))
            q = make_scan("q", cloud, features=feats, descriptor=np.zeros(4))
            c = make_scan("c", cloud, features=feats[r.permutation(n)], descriptor=np.zeros(4))
            (s,), n_used = score_candidates(q, [c])
            assert s < 0.2 * (n_used - 1)

    def test_composition_matches_manual_pipeline(self, rng):
        query = identity_feature_scan("q", rng, n=30)
        cand = identity_feature_scan("c", rng, n=40)
        params = SpectralParams(n_max=25)
        (s,), n = score_candidates(query, [cand], params)
        corrs = match_features(query, cand, params.n_max, params.mutual)
        matrix = build_compatibility_matrix(corrs, params.d_thr)
        expected = power_iterate(matrix, params.tol, params.max_iters)
        assert n == len(corrs)
        assert s == expected.s_star  # identical arithmetic, bitwise equal


class TestBatchedScoring:
    def test_batch_equals_individual_bitwise(self, rng):
        query = identity_feature_scan("q", rng)
        cands = [identity_feature_scan(f"c{i}", rng, n=int(rng.integers(20, 60)))
                 for i in range(12)]
        batch, _ = score_candidates(query, cands)
        solo = np.array([score_candidates(query, [c])[0][0] for c in cands])
        assert np.array_equal(batch, solo)

    @pytest.mark.parametrize("equal_features, mutual", [(False, False), (True, False), (True, True)])
    @pytest.mark.parametrize("b, n, big_n, dim", [(20, 96, 96, 16), (22, 13, 13, 8), (15, 73, 42, 16)])
    def test_batch_of_mixed_point_counts_equals_individual_bitwise(self, rng, b, n, big_n, dim,
                                                                   equal_features, mutual):
        # one batch mixes candidate point counts big_n .. big_n + 2, most of
        # them off the BLAS kernel width. With `equal_features` the NN step
        # ties exactly: every candidate holds the same features, each odd row
        # a copy of the row before it, and the query copies of them; a few
        # draws, as a tie decided apart shows in some draws only
        params = SpectralParams(mutual=mutual)
        for _ in range(4 if equal_features else 1):
            if equal_features:
                pool = rng.standard_normal((big_n + 2, dim))
                pool[1::2] = pool[0::2][:pool[1::2].shape[0]]
                feats = pool[rng.integers(0, big_n, n)]
                feats[::2] += 0.1 * rng.standard_normal(feats[::2].shape)
                query = make_scan("q", rng.random((n, 3)) * 20, features=feats)
                cands = [make_scan(f"c{i}", rng.random((big_n + i % 3, 3)) * 20,
                                   features=pool[:big_n + i % 3]) for i in range(b)]
            else:
                query = identity_feature_scan("q", rng, n=n, dim=dim)
                cands = [identity_feature_scan(f"c{i}", rng, n=big_n + i % 3, dim=dim)
                         for i in range(b)]
            batch, _ = score_candidates(query, cands, params)
            solo = np.array([score_candidates(query, [c], params)[0][0] for c in cands])
            assert np.array_equal(batch, solo)

    def test_stack_equals_build_compatibility_matrix_bitwise(self, rng, monkeypatch):
        stacks = []
        compat = spectral._compat_values

        def spy(points, d_thr):
            stacks.append(compat(points, d_thr))
            return stacks[-1]

        monkeypatch.setattr(spectral, "_compat_values", spy)
        params = SpectralParams(n_max=40)
        query = identity_feature_scan("q", rng)
        cands = []
        for i in range(12):
            # rigidly moved copies with a random share of displaced points
            T = RigidTransform(random_rotation(rng), rng.standard_normal(3) * 15)
            moved = T.apply(query.cloud.astype(np.float64))
            displaced = rng.random(len(moved)) < rng.random()
            moved[displaced] = rng.random((displaced.sum(), 3)) * 20
            cands.append(make_scan(f"c{i}", moved, features=query.local_features,
                                   descriptor=np.zeros(4)))
        score_candidates(query, cands, params)
        (stack,) = stacks
        assert stack.shape == (len(cands), params.n_max, params.n_max)
        for m, cand in zip(stack, cands):
            corrs = match_features(query, cand, params.n_max)
            assert np.array_equal(m, build_compatibility_matrix(corrs, params.d_thr).values)

    def test_worker_count_never_changes_scores(self, rng):
        query = identity_feature_scan("q", rng)
        cands = [identity_feature_scan(f"c{i}", rng) for i in range(9)]
        base, _ = score_candidates(query, cands, workers=1)
        for workers in (2, 3, 8):
            again, _ = score_candidates(query, cands, workers=workers)
            assert np.array_equal(base, again)

    def test_mutual_path_matches_manual(self, rng):
        # bitwise: the plain matrix with the dropped pairs' rows and columns
        # zeroed, iterated from the keep mask; the mutual set scored alone
        # iterates the same block, so it agrees up to rounding
        params = SpectralParams(mutual=True, n_max=40)
        query = identity_feature_scan("q", rng)
        cands = [identity_feature_scan(f"c{i}", rng) for i in range(4)]
        scores, n = score_candidates(query, cands, params)
        for cand, s in zip(cands, scores):
            corrs = match_features(query, cand, params.n_max, mutual=True)
            keep = np.isin(sample_query_points(query, params.n_max), corrs.query_indices)
            assert n == keep.size > keep.sum() >= 1
            plain = build_compatibility_matrix(match_features(query, cand, params.n_max),
                                               params.d_thr).values
            masked = plain * (keep[:, None] & keep[None, :])
            v, lam, _, conv = spectral._power_iteration_batch(masked[None], keep[None],
                                                              params.tol, params.max_iters)
            assert s == lam[0]
            assert not v[0, ~keep].any()  # the dropped pairs' entries stay exactly 0
            alone = build_compatibility_matrix(corrs, params.d_thr)
            single = power_iterate(alone, params.tol, params.max_iters).s_star
            assert abs(s - single) <= 1e-9 * max(1.0, single)
            if conv[0]:
                top = top_eigenvalue(alone)
                assert abs(s - top) <= 1e-6 * max(1.0, top)

    @pytest.mark.parametrize("b, n, big_n, dim", [(20, 96, 96, 16), (22, 13, 13, 8), (15, 73, 42, 16)])
    def test_mutual_batch_of_mixed_point_counts_equals_individual_bitwise(self, rng, b, n, big_n, dim):
        # candidates share a random share of the query's features, so the
        # mutual sets range from a few pairs to nearly all of them
        params = SpectralParams(mutual=True)
        query = identity_feature_scan("q", rng, n=n, dim=dim)
        cands = []
        for i in range(b):
            cand = identity_feature_scan(f"c{i}", rng, n=big_n + i % 3, dim=dim)
            shared = rng.random(min(n, big_n)) < rng.random()
            feats = cand.local_features.copy()
            feats[:shared.size][shared] = query.local_features[:shared.size][shared]
            cands.append(make_scan(f"c{i}", cand.cloud, features=feats, descriptor=np.zeros(4)))
        batch, _ = score_candidates(query, cands, params)
        solo = np.array([score_candidates(query, [c], params)[0][0] for c in cands])
        assert np.array_equal(batch, solo)

    def test_mutual_path_equals_batched_path_when_nothing_is_dropped(self, rng):
        # candidates share the query's features, so every pair is mutual and
        # both paths score the same correspondences; rigidly moved copies
        # with a random share of displaced points make M far from uniform
        params = SpectralParams(n_max=40)
        query = identity_feature_scan("q", rng)
        cloud = query.cloud.astype(np.float64)
        cands = []
        for i in range(50):
            T = RigidTransform(random_rotation(rng), rng.standard_normal(3) * 15)
            moved = T.apply(cloud)
            displaced = rng.random(len(cloud)) < rng.random()
            moved[displaced] = rng.random((displaced.sum(), 3)) * 20
            cands.append(make_scan(f"c{i}", moved, features=query.local_features,
                                   descriptor=np.zeros(4)))
        for cand in cands:
            assert len(match_features(query, cand, params.n_max, mutual=True)) == params.n_max
        batched, n = score_candidates(query, cands, params)
        mutual, n_mutual = score_candidates(query, cands, replace(params, mutual=True))
        assert n == n_mutual == params.n_max
        assert np.array_equal(batched, mutual)

    def test_empty_candidate_list(self, rng):
        query = identity_feature_scan("q", rng)
        scores, n = score_candidates(query, [])
        assert scores.shape == (0,)
        assert n == 48


@st.composite
def bracket_cases(draw):
    """A non-negative symmetric M with a zero diagonal (random, bipartite,
    block-diagonal or with zero rows), a keep mask and a sweep depth."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["random", "bipartite", "blocks", "zero_rows"]))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = r.random((n, n)) * (r.random((n, n)) < draw(st.floats(0.0, 1.0)))
    if kind == "bipartite":
        side = r.random(n) < 0.5
        m *= side[:, None] != side[None, :]
    elif kind == "blocks":
        block = r.integers(0, draw(st.integers(1, 5)), n)
        m *= block[:, None] == block[None, :]
    elif kind == "zero_rows":
        dead = r.random(n) < draw(st.floats(0.0, 1.0))
        m[dead] = 0.0
        m[:, dead] = 0.0
    m = np.triu(m, 1)
    m = m + m.T
    # the solver's contract: only all-zero rows may start at 0
    keep = m.any(axis=1) if draw(st.booleans()) and m.any() else np.ones(n, dtype=bool)
    return m, keep, draw(st.integers(0, 40))


def sweep_bracket(m, keep, steps):
    """The bracket of M from the float32 step after `steps` normalised steps."""
    m32, u = spectral._shifted(m[None], keep[None], np.float32)
    for _ in range(steps):
        u = np.matmul(m32, u)
        u /= np.linalg.norm(u)
    lo, hi = spectral._bracket(u, np.matmul(m32, u), m.any(axis=1)[None])
    return lo[0], hi[0]


def order_and_tol(stack):
    """Both modes' results for a stack scored on every pair, max_iters = 100."""
    keep = np.ones(stack.shape[:2], dtype=bool)
    order = spectral._power_iteration_batch(stack, keep, 1e-6, 100, order=True)
    return order, spectral._power_iteration_batch(stack, keep, 1e-6, 100)


class TestOrderMode:
    """The re-ranker's mode: a slice stops once its rank is proven."""

    @settings(max_examples=150, deadline=None)
    @given(case=bracket_cases())
    def test_every_bracket_contains_lambda_1(self, case):
        m, keep, steps = case
        lo, hi = sweep_bracket(m, keep, steps)
        lam = np.linalg.eigvalsh(m)[-1]
        slack = 8 * m.shape[0] * np.finfo(np.float64).eps * lam  # eigvalsh's own error
        assert lo - slack <= lam <= hi + slack

    def test_zero_iterate_entry_on_a_non_zero_row_gives_no_upper_bound(self):
        # M u <= 1 * u for u = (1, 0), yet lambda_1 = 5: skipping that 0/0
        # would give an upper bound of 1
        m = np.diag([1.0, 5.0])
        u = np.array([[[1.0], [0.0]]], dtype=np.float32)
        w = np.matmul((m + 0.25 * np.eye(2)).astype(np.float32), u)
        lo, hi = spectral._bracket(u, w, np.ones((1, 2), dtype=bool))
        assert lo[0] <= 1.0 and hi[0] >= 5.0

    def test_zero_matrix(self):
        m = np.zeros((5, 5))
        assert sweep_bracket(m, np.ones(5, dtype=bool), 3) == (0.0, pytest.approx(0.0, abs=1e-5))
        # alone it is certified at once; two of them tie and fall back
        (_, key, iters, conv), _ = order_and_tol(m[None])
        assert key[0] == 0.0 and conv[0] and iters[0] == 8
        (_, key, iters, _), (_, lam, tol_iters, _) = order_and_tol(np.stack([m, m]))
        assert np.array_equal(key, lam) and key.tolist() == [0.0, 0.0]
        assert np.array_equal(iters, 100 + tol_iters)

    def test_separated_eigenvalues_give_the_eigvalsh_order(self, rng):
        n = 40
        rounding = 2 * (2 * spectral._U32 * (n + 2) / (1 - spectral._U32 * (n + 2)) + spectral._U32)
        for _ in range(20):
            stack = np.stack([build_compatibility_matrix(
                random_corr_set(rng, n, inlier_rate=rng.random()), 0.5).values for _ in range(12)])
            lam = np.linalg.eigvalsh(stack)[:, -1]
            (_, key, _, _), _ = order_and_tol(stack)
            wide = np.abs(lam[:, None] - lam[None, :]) > rounding * np.maximum(lam[:, None], lam)
            agree = np.sign(key[:, None] - key[None, :]) == np.sign(lam[:, None] - lam[None, :])
            assert agree[wide].all()

    def test_exact_ties_fall_back_to_tol_mode_and_keep_input_order(self, rng):
        a, b, c = (build_compatibility_matrix(random_corr_set(rng, 30, inlier_rate=r), 0.5).values
                   for r in (0.3, 0.6, 0.9))
        stack = np.stack([a, b, a, c, a])
        (_, key, iters, conv), (_, lam, tol_iters, tol_conv) = order_and_tol(stack)
        ties = [0, 2, 4]
        assert np.array_equal(key[ties], lam[ties])  # tol mode's s*, bit for bit
        assert np.array_equal(iters[ties], 100 + tol_iters[ties])
        assert np.array_equal(conv[ties], tol_conv[ties])
        assert conv[[1, 3]].all() and (iters[[1, 3]] < 100).all()
        order = np.argsort(-key, kind="stable")
        assert order.tolist() == np.argsort(-lam, kind="stable").tolist()
        assert [i for i in order if i in ties] == ties

    def test_a_certified_key_is_a_lower_bound(self, rng):
        stack = np.stack([build_compatibility_matrix(
            random_corr_set(rng, 50, inlier_rate=r), 0.5).values for r in np.linspace(0.1, 0.9, 9)])
        (_, key, iters, conv), (_, lam, _, _) = order_and_tol(stack)
        top = np.linalg.eigvalsh(stack)[:, -1]
        assert conv.all() and (iters < 100).all()
        assert (key <= top).all()
        assert np.array_equal(np.argsort(-key, kind="stable"), np.argsort(-lam, kind="stable"))

    def test_an_s_star_on_the_wrong_side_rescores_the_whole_batch(self):
        # two copies of A tie and fall back to tol mode, whose s* at a loose
        # tol (9.1958) stops below the certified key of C = 0.999 A (9.1981);
        # keeping it would rank C above A, so every slice is scored by tol
        # mode instead
        rng = np.random.default_rng(5)
        a = build_compatibility_matrix(random_corr_set(rng, 40, inlier_rate=0.3), 0.5).values
        stack = np.stack([a, a, 0.999 * a])
        keep = np.ones(stack.shape[:2], dtype=bool)
        _, key, iters, conv = spectral._power_iteration_batch(stack, keep, 0.2, 100, order=True)
        _, lam, tol_iters, tol_conv = spectral._power_iteration_batch(stack, keep, 0.2, 100)
        assert np.array_equal(key, lam) and np.array_equal(conv, tol_conv)
        assert (iters > tol_iters).all()
        assert np.argsort(-key, kind="stable").tolist() == [0, 1, 2]

    def test_zero_rows_with_zero_entries_are_skipped(self):
        # a dropped mutual pair: its row of M is zero and it starts at 0
        m = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        lo, hi = sweep_bracket(m, np.array([True, True, False]), 2)
        assert lo == pytest.approx(1.0, rel=1e-5) and hi == pytest.approx(1.0, rel=1e-5)
