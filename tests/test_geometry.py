import re

import numpy as np
import pytest

from scanrank import geometry
from scanrank.geometry import (
    ROTATION_TOL,
    ROTATION_TOL_F32,
    RigidTransform,
    ScanRecord,
    geo_distance,
    quantize_pose_f32,
    random_rotation,
    rotation_about_z,
)

from conftest import make_scan


def rot_z_transform(deg, t=(0.0, 0.0, 0.0)):
    return RigidTransform(rotation_about_z(np.radians(deg)), np.asarray(t, dtype=np.float64))


class TestSe3Apply:
    def test_identity(self):
        p = RigidTransform.identity().apply(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(p, [1.0, 2.0, 3.0])

    def test_pure_translation(self):
        T = RigidTransform(np.eye(3), np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(T.apply(np.zeros(3)), [1.0, 0.0, 0.0])

    def test_rot_z_90(self):
        # hand evaluation: R(90deg) @ (1,0,0) = (0,1,0)
        p = rot_z_transform(90.0).apply(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(p, [0.0, 1.0, 0.0], atol=1e-12)


class TestComposeInverse:
    def test_compose_identity(self):
        T = rot_z_transform(33.0, (1.0, 2.0, 3.0))
        out = T.compose(RigidTransform.identity())
        np.testing.assert_allclose(out.rotation, T.rotation, atol=1e-15)
        np.testing.assert_allclose(out.translation, T.translation, atol=1e-15)

    def test_inverse_gives_identity(self, rng):
        for _ in range(20):
            T = RigidTransform(random_rotation(rng), rng.standard_normal(3) * 10)
            I = T.compose(T.inverse())
            assert np.linalg.norm(I.rotation - np.eye(3)) < 1e-9
            assert np.linalg.norm(I.translation) < 1e-9

    def test_rotation_angles_add(self):
        # rot_z(30) . rot_z(60) = rot_z(90), checked against the matrix product
        out = rot_z_transform(30.0).compose(rot_z_transform(60.0))
        np.testing.assert_allclose(out.rotation, rotation_about_z(np.radians(90.0)), atol=1e-12)

    def test_compose_applies_right_first(self):
        A = rot_z_transform(90.0)
        B = RigidTransform(np.eye(3), np.array([1.0, 0.0, 0.0]))
        # B first, then A: (0,0,0) -> (1,0,0) -> (0,1,0)
        p = A.compose(B).apply(np.zeros(3))
        np.testing.assert_allclose(p, [0.0, 1.0, 0.0], atol=1e-12)


class TestGeoDistance:
    def test_zero(self):
        assert geo_distance([0, 0, 0], [0, 0, 0]) == 0.0

    def test_3_4_5(self):
        assert geo_distance([0, 0, 0], [3, 4, 0]) == 5.0

    def test_sqrt3(self):
        assert geo_distance([1, 1, 1], [2, 2, 2]) == pytest.approx(np.sqrt(3), rel=1e-15)

    def test_metric_axioms(self, rng):
        for _ in range(200):
            a, b, c = rng.standard_normal((3, 3)) * 10
            dab, dba = geo_distance(a, b), geo_distance(b, a)
            assert dab >= 0.0
            assert dab == dba
            assert dab <= geo_distance(a, c) + geo_distance(c, b) + 1e-12

    def test_rigid_motion_preserves_distances(self, rng):
        for _ in range(200):
            T = RigidTransform(random_rotation(rng), rng.standard_normal(3) * 5)
            p, q = rng.standard_normal((2, 3)) * 10
            before = geo_distance(p, q)
            after = geo_distance(T.apply(p), T.apply(q))
            assert abs(before - after) < 1e-9


class TestRigidTransformValidation:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            RigidTransform(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        R = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(R, np.zeros(3))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            RigidTransform(np.eye(3), np.array([np.nan, 0.0, 0.0]))

    def test_immutable_arrays(self):
        T = RigidTransform.identity()
        with pytest.raises(ValueError):
            T.rotation[0, 0] = 2.0

    def test_caller_arrays_stay_writeable(self):
        R, t = np.eye(3), np.zeros(3)
        T = RigidTransform(R, t)
        assert R.flags.writeable and t.flags.writeable
        R[0, 0] = t[0] = 2.0
        assert T.rotation[0, 0] == 1.0 and T.translation[0] == 0.0

    def test_read_only_input_is_kept_without_copy(self):
        R = np.eye(3)
        R.setflags(write=False)
        assert RigidTransform(R, np.zeros(3)).rotation is R

    def test_derived_poses_keep_their_fresh_arrays_without_copy(self, rng, monkeypatch):
        # compose, inverse and quantize_pose_f32 build arrays no caller holds
        # and freeze them, so the validation never copies them
        kept = []
        read_only = geometry._read_only

        def spy(a, source):
            out = read_only(a, source)
            kept.append(out is a)
            return out

        T = RigidTransform(random_rotation(rng), rng.standard_normal(3))
        U = RigidTransform(random_rotation(rng), rng.standard_normal(3))
        monkeypatch.setattr(geometry, "_read_only", spy)
        for derived in (T.compose(U), T.inverse(), quantize_pose_f32(T)):
            assert not derived.rotation.flags.writeable
            assert not derived.translation.flags.writeable
        assert len(kept) == 6 and all(kept)

    @pytest.mark.parametrize("tol", [2 * ROTATION_TOL_F32, 1e-3, np.nan])
    def test_tolerance_above_the_f32_ceiling_raises(self, tol):
        with pytest.raises(ValueError, match="orthonormal_tol"):
            RigidTransform(np.eye(3), np.zeros(3), orthonormal_tol=tol)

    def test_matrix4_round_trip(self, rng):
        T = RigidTransform(random_rotation(rng), rng.standard_normal(3))
        back = RigidTransform.from_matrix(T.matrix4())
        np.testing.assert_array_equal(back.rotation, T.rotation)
        np.testing.assert_array_equal(back.translation, T.translation)

    def test_quantize_through_f32_is_idempotent(self, rng):
        T = quantize_pose_f32(RigidTransform(random_rotation(rng), rng.standard_normal(3)))
        again = quantize_pose_f32(T)
        np.testing.assert_array_equal(T.rotation, again.rotation)
        np.testing.assert_array_equal(T.translation, again.translation)

    def test_quantize_returns_an_f32_exact_pose_itself(self):
        T = RigidTransform(rotation_about_z(np.pi / 2).round(), np.array([0.5, -2.0, 3.25]))
        assert quantize_pose_f32(T) is T

    def test_quantize_rounds_a_pose_that_is_not_f32_exact(self, rng):
        T = RigidTransform(random_rotation(rng), rng.standard_normal(3))
        q = quantize_pose_f32(T)
        assert q is not T
        assert q.rotation.tobytes() == T.rotation.astype(np.float32).astype(np.float64).tobytes()
        assert q.translation.tobytes() == T.translation.astype(np.float32).astype(np.float64).tobytes()


class TestScalarRotationCheck:
    """`RigidTransform` checks its rotation on Python scalars; numpy's
    ||R^T R - I||_F and det are the oracle."""

    @staticmethod
    def rotations(rng, count=2000):
        # exact rotations, rotations perturbed by 1e-9 to 1e-4 per entry,
        # and every eighth one an exact reflection, so both checks reject some
        for k in range(count):
            R = random_rotation(rng)
            if k % 2:
                R = R + rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-9, -4)
            if k % 8 == 6:
                R[:, 2] *= -1.0
            yield R

    def test_error_and_det_match_numpy(self, rng):
        for R in self.rotations(rng):
            err, det = geometry._rotation_error(R.ravel().tolist())
            assert abs(err - np.linalg.norm(R.T @ R - np.eye(3))) <= 1e-15
            assert abs(det - np.linalg.det(R)) <= 1e-15

    @pytest.mark.parametrize("tol", [ROTATION_TOL, ROTATION_TOL_F32])
    def test_accepts_what_numpy_accepts(self, rng, tol):
        det_tol = max(tol, 1e-9) * 10
        outcomes = set()
        for R in self.rotations(rng):
            err, det = np.linalg.norm(R.T @ R - np.eye(3)), np.linalg.det(R)
            if abs(err - tol) <= 1e-15 or abs(abs(det - 1.0) - det_tol) <= 1e-15:
                continue  # within rounding of a bound
            expected = "orthonormal" if err > tol else "det" if abs(det - 1.0) > det_tol else None
            try:
                RigidTransform(R, np.zeros(3), tol)
                got = None
            except ValueError as exc:
                got = "orthonormal" if "orthonormal" in str(exc) else "det"
            assert got == expected
            outcomes.add(got)
        assert outcomes == {None, "orthonormal", "det"}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["rotation", "translation", "matrix"])
    def test_nonfinite_entry_names_its_array(self, bad, name):
        R, t, m = np.eye(3), np.zeros(3), np.eye(4)
        {"rotation": R, "translation": t, "matrix": m}[name].flat[2] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            if name == "matrix":
                RigidTransform.from_matrix(m)
            else:
                RigidTransform(R, t)

    @pytest.mark.parametrize("col", range(4))
    def test_from_matrix_requires_the_homogeneous_bottom_row(self, col):
        m = np.eye(4)
        m[3, col] = 5.0
        got = re.escape(str(tuple(m[3].tolist())))
        with pytest.raises(ValueError, match=rf"^matrix bottom row must be \(0, 0, 0, 1\), got {got}$"):
            RigidTransform.from_matrix(m)


class TestScanRecord:
    def test_feature_rows_must_match_points(self):
        with pytest.raises(ValueError, match="match cloud points"):
            make_scan("a", np.zeros((2, 3)), features=np.zeros((3, 4)))

    def test_rejects_empty_cloud(self):
        with pytest.raises(ValueError):
            make_scan("a", np.zeros((0, 3)))

    def test_payloads_stored_as_f32(self):
        rec = make_scan("a", [[0.1, 0.2, 0.3]])
        assert rec.cloud.dtype == np.float32
        assert rec.local_features.dtype == np.float32
        assert rec.global_descriptor.dtype == np.float32

    def test_arrays_read_only(self):
        rec = make_scan("a", [[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            rec.cloud[0, 0] = 1.0

    @staticmethod
    def record_of(cloud):
        return ScanRecord("a", cloud, np.zeros((len(cloud), 4)), np.zeros(8),
                          RigidTransform.identity(), np.zeros(3))

    def test_caller_cloud_stays_writeable(self):
        cloud = np.zeros((2, 3), dtype=np.float32)
        rec = self.record_of(cloud)
        assert cloud.flags.writeable
        cloud[0, 0] = 1.0
        assert rec.cloud[0, 0] == 0.0

    def test_read_only_cloud_is_kept_without_copy(self):
        cloud = np.zeros((2, 3), dtype=np.float32)
        cloud.setflags(write=False)
        assert self.record_of(cloud).cloud is cloud

    def test_rejects_nonfinite_features(self):
        with pytest.raises(ValueError, match="finite"):
            make_scan("a", [[0.0, 0.0, 0.0]], features=np.array([[np.inf, 0, 0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_geo_location(self, bad):
        with pytest.raises(ValueError, match="geo_location must be finite"):
            make_scan("a", [[0.0, 0.0, 0.0]], geo=np.array([0.0, bad, 0.0]))
