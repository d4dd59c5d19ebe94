import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scanrank.errors import (
    DegenerateConfigurationError,
    EmptySetError,
    NonPositiveThresholdError,
    TooFewCorrespondencesError,
)
from scanrank.geometry import RigidTransform, random_rotation, rotation_about_z
from scanrank.matching import CorrespondenceSet
from scanrank.metrics import pose_errors
from scanrank.registration import (
    RansacParams,
    RegistrationResult,
    _batched_kabsch,
    _inlier_counts,
    _kabsch_arrays,
    _residuals,
    kabsch_fit,
    ransac_register,
    registered_inlier_ratio,
)


def corrs_from(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    return CorrespondenceSet(np.arange(n), np.arange(n), x, y, np.zeros(n))


TETRA = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


class TestKabschFit:
    def test_identity(self):
        T = kabsch_fit([(p, p) for p in TETRA])
        np.testing.assert_allclose(T.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(T.translation, np.zeros(3), atol=1e-12)

    def test_pure_translation(self):
        t = np.array([1.0, 2.0, 3.0])
        T = kabsch_fit([(p, p + t) for p in TETRA])
        np.testing.assert_allclose(T.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(T.translation, t, atol=1e-12)

    def test_recovers_rot_z_90(self):
        R = rotation_about_z(np.pi / 2)
        T = kabsch_fit([(p, R @ p) for p in TETRA])
        np.testing.assert_allclose(T.rotation, R, atol=1e-9)
        np.testing.assert_allclose(T.translation, np.zeros(3), atol=1e-9)

    def test_too_few_pairs(self):
        with pytest.raises(DegenerateConfigurationError):
            kabsch_fit([(TETRA[0], TETRA[0]), (TETRA[1], TETRA[1])])

    def test_collinear_points_degenerate(self):
        line = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        with pytest.raises(DegenerateConfigurationError):
            kabsch_fit([(p, p) for p in line])

    def test_never_returns_reflection(self, rng):
        for _ in range(50):
            x = rng.standard_normal((5, 3))
            y = rng.standard_normal((5, 3))
            try:
                T = kabsch_fit(list(zip(x, y)))
            except DegenerateConfigurationError:
                continue
            assert np.linalg.det(T.rotation) == pytest.approx(1.0, abs=1e-9)

    def test_local_optimality_under_small_twists(self, rng):
        # perturbing the fit never reduces the squared residual
        for _ in range(20):
            x = rng.standard_normal((10, 3)) * 5
            T_true = RigidTransform(random_rotation(rng), rng.standard_normal(3))
            y = T_true.apply(x) + rng.standard_normal((10, 3)) * 0.05
            T = kabsch_fit(list(zip(x, y)))
            base = np.sum((T.apply(x) - y) ** 2)
            for _ in range(20):
                axis = rng.standard_normal(3)
                axis /= np.linalg.norm(axis)
                angle = rng.uniform(-1e-3, 1e-3)
                k = np.array([
                    [0, -axis[2], axis[1]],
                    [axis[2], 0, -axis[0]],
                    [-axis[1], axis[0], 0],
                ])
                dr = (np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k))
                perturbed = RigidTransform(
                    dr @ T.rotation,
                    T.translation + rng.standard_normal(3) * 1e-4,
                    orthonormal_tol=1e-6,
                )
                assert np.sum((perturbed.apply(x) - y) ** 2) >= base - 1e-12


class TestRansacParams:
    @pytest.mark.parametrize("tau", [0.0, -0.5, float("nan"), float("inf"), float("-inf")])
    def test_rejects_inlier_threshold_outside_zero_to_inf(self, tau):
        with pytest.raises(ValueError, match="inlier_threshold must be finite and > 0"):
            RansacParams(inlier_threshold=tau)

    def test_rejects_a_negative_seed(self):
        # rerank_rir derives each candidate's seed as seed ^ ordinal
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            RansacParams(seed=-1)

    def test_accepts_a_large_finite_threshold(self):
        assert RansacParams(inlier_threshold=1e300).inlier_threshold == 1e300


class TestRansacRegister:
    def make_problem(self, rng, n=60, outlier_rate=0.0, scale=10.0):
        x = rng.random((n, 3)) * scale
        T_true = RigidTransform(random_rotation(rng), rng.standard_normal(3) * 3)
        y = T_true.apply(x)
        if outlier_rate > 0:
            out = rng.random(n) < outlier_rate
            y[out] = rng.random((int(out.sum()), 3)) * scale
        return corrs_from(x, y), T_true

    def test_outlier_free_recovers_exactly(self, rng):
        corrs, T_true = self.make_problem(rng)
        for seed in (0, 1, 99):
            res = ransac_register(corrs, RansacParams(seed=seed))
            rte, rre = pose_errors(res.transform, T_true)
            assert rte < 1e-6 and rre < 1e-6
            assert res.inlier_ratio == 1.0

    def test_half_outliers_recovers_pose(self, rng):
        # verified per seed: recovery is ~1e-15 m, far inside 0.1 m / 1 deg
        corrs, T_true = self.make_problem(rng, outlier_rate=0.5)
        res = ransac_register(
            corrs, RansacParams(inlier_threshold=0.3, max_iterations=1000, seed=7)
        )
        rte, rre = pose_errors(res.transform, T_true)
        assert rte < 0.1
        assert rre < 1.0

    def test_too_few_correspondences(self):
        with pytest.raises(TooFewCorrespondencesError):
            ransac_register(corrs_from([[0, 0, 0], [1, 1, 1]], [[0, 0, 0], [1, 1, 1]]))

    def test_all_triples_degenerate(self):
        line = np.linspace(0, 1, 5)[:, None] * np.array([[1.0, 0.0, 0.0]])
        with pytest.raises(DegenerateConfigurationError):
            ransac_register(corrs_from(line, line), RansacParams(max_iterations=50))

    def test_deterministic_per_seed(self, rng):
        corrs, _ = self.make_problem(rng, outlier_rate=0.4)
        a = ransac_register(corrs, RansacParams(seed=5))
        b = ransac_register(corrs, RansacParams(seed=5))
        assert np.array_equal(a.transform.rotation, b.transform.rotation)
        assert np.array_equal(a.transform.translation, b.transform.translation)
        assert np.array_equal(a.inlier_mask, b.inlier_mask)
        assert a.inlier_ratio == b.inlier_ratio

    def test_ratio_consistent_with_returned_transform(self, rng):
        for seed in range(5):
            corrs, _ = self.make_problem(rng, outlier_rate=0.3)
            params = RansacParams(seed=seed)
            res = ransac_register(corrs, params)
            recomputed = registered_inlier_ratio(corrs, res.transform, params.inlier_threshold)
            assert res.inlier_ratio == recomputed
            assert res.inlier_ratio == res.inlier_mask.sum() / len(corrs)


def einsum_squared_residuals(rot, t, x, y):
    """Oracle for block scoring: (m, n) squared residuals from the einsum
    that scored blocks before the batched matmul replaced it."""
    return (((np.einsum("mij,nj->mni", rot, x) + t[:, None, :]) - y[None]) ** 2).sum(axis=2)


def eager_ransac_register(corrs, params, needed_at=None):
    """Reference RANSAC: every hypothesis's keys drawn up front, then fitted
    and scored in fixed blocks of 128 with the same adaptive exit. Scoring
    uses the einsum oracle. If given, `needed_at` receives the exit bound
    `needed` as it stands before each hypothesis index is examined."""
    n = len(corrs)
    x, y, tau = corrs.query_points, corrs.candidate_points, params.inlier_threshold
    rng = np.random.default_rng(params.seed)
    triples = np.argpartition(rng.random((params.max_iterations, n)), 2, axis=1)[:, :3]
    best_count, best_rot, best_t = -1, None, None
    needed = float(params.max_iterations)
    stop = False
    for start in range(0, params.max_iterations, 128):
        if stop or start >= needed:
            break
        blk = triples[start:start + 128]
        rot, t, valid = _batched_kabsch(x[blk], y[blk])
        counts = (einsum_squared_residuals(rot, t, x, y) < tau * tau).sum(axis=1)
        for j in range(blk.shape[0]):
            if needed_at is not None:
                needed_at.append(needed)
            if start + j >= needed:
                stop = True
                break
            if not valid[j]:
                continue
            c = int(counts[j])
            if c > best_count:
                best_count, best_rot, best_t = c, rot[j], t[j]
                w = c / n
                if w >= 1.0:
                    stop = True
                    break
                log_fail = np.log(1.0 - w ** 3)
                if log_fail < 0.0:
                    needed = min(needed, np.log(1.0 - params.confidence) / log_fail)
    if best_rot is None:
        raise DegenerateConfigurationError("every sampled triple was degenerate")
    transform = RigidTransform(best_rot, best_t, orthonormal_tol=1e-7)
    mask = _residuals(transform.rotation, transform.translation, x, y) < tau
    if int(mask.sum()) >= 3:
        try:
            transform = _kabsch_arrays(x[mask], y[mask])
            mask = _residuals(transform.rotation, transform.translation, x, y) < tau
        except DegenerateConfigurationError:
            pass
    return RegistrationResult(transform, mask, float(int(mask.sum()) / n))


def exact_inlier_problem(n, inlier_fraction, seed):
    """n pairs: round(inlier_fraction * n) exact inliers of one rigid motion,
    the rest uniform in the same 10 m cube."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, 3)) * 10.0
    y = RigidTransform(random_rotation(rng), rng.standard_normal(3)).apply(x)
    k = n - round(inlier_fraction * n)
    y[:k] = rng.random((k, 3)) * 10.0
    return corrs_from(x, y)


# (n, inlier fraction, bounds) whose adaptive exit lands inside the second
# block (hypotheses 16..47) or the third (48..111), at a fractional `needed`
# (19.66, 28.39, 37.96, 51.73 and 72.30 at confidence 0.999)
EXIT_INSIDE_LATER_BLOCKS = [
    (60, 0.66, 16, 48), (60, 0.6, 16, 48), (40, 0.55, 16, 48),
    (100, 0.5, 48, 112), (100, 0.45, 48, 112),
]


def outcome(register, corrs, params):
    try:
        res = register(corrs, params)
    except DegenerateConfigurationError as exc:
        return ("raised", type(exc), str(exc))
    return (res.transform.rotation.tobytes(), res.transform.translation.tobytes(),
            res.inlier_mask.tobytes(), res.inlier_ratio)


class TestBlockwiseDrawsMatchEagerReference:
    """Drawing each block's keys just before it runs must give bitwise the
    result of drawing every key up front."""

    @pytest.mark.parametrize("n", [3, 13, 96, 300])
    @pytest.mark.parametrize("outlier_rate", [0.0, 0.3, 0.9])
    def test_bitwise_equal(self, n, outlier_rate):
        rng = np.random.default_rng(1000 * n + int(10 * outlier_rate))
        x = rng.random((n, 3)) * 10.0
        y = RigidTransform(random_rotation(rng), rng.standard_normal(3)).apply(x)
        out = rng.random(n) < outlier_rate
        y[out] = rng.random((int(out.sum()), 3)) * 10.0
        corrs = corrs_from(x, y)
        for seed in (0, 1, 12345):
            for max_iterations in (1, 15, 50, 129, 1000):
                params = RansacParams(inlier_threshold=0.3, max_iterations=max_iterations,
                                      seed=seed)
                assert outcome(ransac_register, corrs, params) == \
                    outcome(eager_ransac_register, corrs, params)

    @pytest.mark.parametrize("n, inliers, lo, hi", EXIT_INSIDE_LATER_BLOCKS)
    def test_bitwise_equal_when_the_exit_lands_inside_a_later_block(self, n, inliers, lo, hi):
        corrs = exact_inlier_problem(n, inliers, seed=7 * n)
        for seed in (0, 1, 12345):
            params = RansacParams(inlier_threshold=0.3, max_iterations=1000, seed=seed)
            needed_at = []
            expected = outcome(lambda c, p: eager_ransac_register(c, p, needed_at),
                               corrs, params)
            final = needed_at[-1]
            assert lo < final < hi and final != math.floor(final)
            assert outcome(ransac_register, corrs, params) == expected

    @pytest.mark.parametrize("n, inliers, max_iterations", [
        *((n, inliers, 1000) for n, inliers, _, _ in EXIT_INSIDE_LATER_BLOCKS),
        (96, 0.7, 15), (96, 0.7, 50), (96, 0.1, 129), (13, 1.0, 1000), (300, 0.3, 1000),
    ])
    def test_no_block_draws_keys_past_the_exit(self, monkeypatch, n, inliers, max_iterations):
        corrs = exact_inlier_problem(n, inliers, seed=7 * n)
        default_rng = np.random.default_rng
        for seed in (0, 1):
            params = RansacParams(inlier_threshold=0.3, max_iterations=max_iterations,
                                  seed=seed)
            needed_at = []
            expected = outcome(lambda c, p: eager_ransac_register(c, p, needed_at),
                               corrs, params)
            rows = []

            class RecordingGenerator:
                """Checks each block's draw against `needed` as it stood when
                the block started, before passing it to the real generator."""

                def __init__(self, rng):
                    self._rng = rng

                def random(self, shape):
                    start = sum(rows)
                    assert start < len(needed_at), "drew a block the exit never reaches"
                    assert 0 < shape[0] <= math.ceil(needed_at[start]) - start
                    rows.append(shape[0])
                    return self._rng.random(shape)

            monkeypatch.setattr(np.random, "default_rng",
                                lambda s: RecordingGenerator(default_rng(s)))
            got = outcome(ransac_register, corrs, params)
            monkeypatch.undo()
            assert got == expected
            # every hypothesis the reference examined was drawn
            examined = sum(1 for j, needed in enumerate(needed_at) if j < needed)
            assert sum(rows) >= examined

    def test_all_degenerate_raises_the_same_error(self):
        line = np.linspace(0, 1, 7)[:, None] * np.array([[1.0, 2.0, 0.5]])
        for max_iterations in (1, 15, 129, 300):
            params = RansacParams(max_iterations=max_iterations, seed=3)
            got = outcome(ransac_register, corrs_from(line, line), params)
            assert got[0] == "raised"
            assert got == outcome(eager_ransac_register, corrs_from(line, line), params)

    def test_memory_does_not_grow_with_max_iterations(self, rng):
        # drawing 20k x 96 keys up front peaks near 30 MB (keys + argpartition)
        x = rng.random((96, 3)) * 10.0
        corrs = corrs_from(x, RigidTransform(random_rotation(rng), np.ones(3)).apply(x))
        params = RansacParams(max_iterations=20_000, seed=0)
        tracemalloc.start()
        try:
            res = ransac_register(corrs, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.inlier_ratio == 1.0
        assert peak < 2_000_000


@st.composite
def scoring_blocks(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 8))
    coord = st.floats(-1e3, 1e3)
    x = draw(arrays(np.float64, (n, 3), elements=coord))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rot = np.stack([random_rotation(rng) for _ in range(m)])
    t = draw(arrays(np.float64, (m, 3), elements=coord))
    tau = draw(st.floats(0.05, 5.0))
    # y lies within a few tau of hypothesis 0's image of x, so its count is mixed
    offsets = draw(arrays(np.float64, (n, 3), elements=st.floats(-3.0, 3.0)))
    y = x @ rot[0].T + t[0] + offsets * tau
    return rot, t, x, y, tau


class TestInlierCounts:
    @settings(max_examples=300, deadline=None)
    @given(scoring_blocks())
    def test_equal_the_einsum_oracle_away_from_tau(self, block):
        rot, t, x, y, tau = block
        sq = einsum_squared_residuals(rot, t, x, y)
        assume((np.abs(sq - tau * tau) > 1e-9 * max(1.0, tau * tau)).all())
        np.testing.assert_array_equal(_inlier_counts(rot, t, x, y, tau),
                                      (sq < tau * tau).sum(axis=1))


class TestRegisteredInlierRatio:
    @pytest.mark.parametrize("tau", [0.0, float("nan"), float("inf")])
    def test_rejects_tau_outside_zero_to_inf(self, tau):
        x = np.random.default_rng(0).random((4, 3))
        with pytest.raises(NonPositiveThresholdError):
            registered_inlier_ratio(corrs_from(x, x), RigidTransform.identity(), tau)

    def test_exact_correspondences(self):
        x = np.random.default_rng(0).random((10, 3))
        assert registered_inlier_ratio(corrs_from(x, x), RigidTransform.identity(), 0.5) == 1.0

    def test_all_beyond_threshold(self):
        x = np.random.default_rng(0).random((10, 3))
        y = x + np.array([2.0 * 0.5, 0.0, 0.0])  # displaced by 2*tau
        assert registered_inlier_ratio(corrs_from(x, y), RigidTransform.identity(), 0.5) == 0.0

    def test_constructed_half_and_half(self):
        tau = 0.4
        x = np.zeros((8, 3))
        x[:, 0] = np.arange(8) * 10.0
        y = x.copy()
        y[:4, 1] = tau / 2    # inside
        y[4:, 1] = 3 * tau    # outside
        assert registered_inlier_ratio(corrs_from(x, y), RigidTransform.identity(), tau) == 0.5

    def test_empty_set(self):
        empty = CorrespondenceSet(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                                  np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(EmptySetError):
            registered_inlier_ratio(empty, RigidTransform.identity(), 0.5)
