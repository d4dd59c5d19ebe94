import tracemalloc

import numpy as np
import pytest

from scanrank.errors import (
    DegenerateConfigurationError,
    EmptySetError,
    TooFewCorrespondencesError,
)
from scanrank.geometry import RigidTransform, random_rotation, rotation_about_z
from scanrank.matching import CorrespondenceSet
from scanrank.metrics import pose_errors
from scanrank.registration import (
    RansacParams,
    RegistrationResult,
    _batched_kabsch,
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


def eager_ransac_register(corrs, params):
    """Reference RANSAC: every hypothesis's keys drawn up front, then fitted
    and scored in fixed blocks of 128 with the same adaptive exit."""
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
        tx = np.einsum("mij,nj->mni", rot, x) + t[:, None, :]
        counts = ((((tx - y[None]) ** 2).sum(axis=2)) < tau * tau).sum(axis=1)
        for j in range(blk.shape[0]):
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


class TestRegisteredInlierRatio:
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
