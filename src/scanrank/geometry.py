"""Core geometric and domain primitives: points, rigid poses, scans.

All types are immutable value objects; every pipeline stage is a pure
function over them, so they are safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np
from numpy.typing import NDArray

Vec3 = NDArray[np.float64]   # shape (3,)
Mat3 = NDArray[np.float64]   # shape (3, 3)
Points = NDArray[np.float64]  # shape (N, 3)

# Orthonormality tolerance for rotations built in double precision.
ROTATION_TOL = 1e-9
# Looser tolerance for rotations that round-tripped through float32 storage:
# quantizing a perfect rotation to f32 perturbs R^T R away from I by ~1e-7.
ROTATION_TOL_F32 = 1e-5


def _read_only(a: np.ndarray, source) -> np.ndarray:
    """`a` made read-only; copied first if it is writeable memory of `source`,
    so a caller's array is never frozen and a read-only one is never copied.
    Code that builds a fresh array for a `RigidTransform` passes it through
    `frozen` first, so no one copies an array that no caller holds."""
    if a.flags.writeable:
        if a is source or a.base is not None:
            a = a.copy()
        a.setflags(write=False)
    return a


def frozen(a: np.ndarray) -> np.ndarray:
    """`a` itself, made read-only: for fresh arrays that no caller holds."""
    a.setflags(write=False)
    return a


def _as_finite_array(x, shape, name: str) -> tuple[np.ndarray, list[float]]:
    """`x` as a read-only float64 array of `shape`, with its values as a flat
    list of Python floats; checked on the scalars, which beats numpy calls
    on a handful of values."""
    a = np.asarray(x, dtype=np.float64)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    values = a.tolist()
    if a.ndim == 2:  # row lists joined: cheaper than a flattening copy of a view
        values = sum(values, [])
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be finite")
    return _read_only(a, x), values


def _rotation_error(r: list[float]) -> tuple[float, float]:
    """(||R^T R - I||_F, det R) of a row-major 3x3 rotation given as 9 floats.

    R^T R has the column dot products as entries; the norm takes the three
    diagonal deviations and the three distinct off-diagonal entries twice,
    and the determinant is the cofactor expansion along the first row. Both
    agree with `np.linalg.norm(R.T @ R - np.eye(3))` and `np.linalg.det(R)`
    to within 1e-15 on rotations perturbed by up to 1e-4.
    """
    a, b, c, d, e, f, g, h, i = r
    g01 = a * b + d * e + g * h
    g02 = a * c + d * f + g * i
    g12 = b * c + e * f + h * i
    err = math.hypot(a * a + d * d + g * g - 1.0, b * b + e * e + h * h - 1.0,
                     c * c + f * f + i * i - 1.0, g01, g01, g02, g02, g12, g12)
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return err, det


def _check_rotation(r: list[float], orthonormal_tol: float) -> None:
    """The checks of a `RigidTransform` rotation given as 9 row-major floats:
    the tolerance ceiling, orthonormality and det +1."""
    if not orthonormal_tol <= ROTATION_TOL_F32:
        raise ValueError(f"orthonormal_tol {orthonormal_tol} exceeds {ROTATION_TOL_F32}")
    err, det = _rotation_error(r)
    if err > orthonormal_tol:
        raise ValueError(f"rotation not orthonormal: ||R^T R - I|| = {err:.3e}")
    if abs(det - 1.0) > max(orthonormal_tol, 1e-9) * 10:
        raise ValueError(f"rotation must have det +1, got {det:.12f}")


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) pose: proper rotation matrix plus translation in meters.

    The rotation is validated at construction: orthonormal with
    determinant +1 within `orthonormal_tol` (Frobenius). The default
    tolerance assumes double-precision construction; poses lifted from
    float32 storage use `ROTATION_TOL_F32`, which is also the ceiling: a
    looser tolerance raises `ValueError`, so every pose satisfies the f32
    checks and `quantize_pose_f32` need not repeat them. The checks run on
    the 12 values as Python floats, which is several times faster than
    numpy calls on arrays this small.
    """

    rotation: Mat3
    translation: Vec3
    orthonormal_tol: InitVar[float] = ROTATION_TOL

    def __post_init__(self, orthonormal_tol: float) -> None:
        R, r = _as_finite_array(self.rotation, (3, 3), "rotation")
        t, _ = _as_finite_array(self.translation, (3,), "translation")
        _check_rotation(r, orthonormal_tol)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, m, orthonormal_tol: float = ROTATION_TOL) -> "RigidTransform":
        """Build from a 4x4 homogeneous matrix, whose bottom row must be (0, 0, 0, 1).

        The matrix is converted and checked once: the rotation checks run on
        its floats, and the fields are read-only views of the checked matrix,
        so `__post_init__` does not convert them again.
        """
        m, values = _as_finite_array(m, (4, 4), "matrix")
        if values[12:] != [0.0, 0.0, 0.0, 1.0]:
            raise ValueError(f"matrix bottom row must be (0, 0, 0, 1), got {tuple(values[12:])}")
        _check_rotation(values[0:3] + values[4:7] + values[8:11], orthonormal_tol)
        pose = object.__new__(cls)
        pose.__dict__.update(rotation=m[:3, :3], translation=m[:3, 3])
        return pose

    def matrix4(self) -> NDArray[np.float64]:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def apply(self, points: Points) -> Points:
        """Apply to one point (3,) or a stack of points (N, 3)."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Returns the transform applying `other` first, then `self`.

        Validated at the f32 tolerance so poses lifted from storage can be
        composed; results of double-precision inputs stay at ~1e-15.
        """
        return RigidTransform(
            frozen(self.rotation @ other.rotation),
            frozen(self.rotation @ other.translation + self.translation),
            orthonormal_tol=ROTATION_TOL_F32,
        )

    def inverse(self) -> "RigidTransform":
        Rt = self.rotation.T  # a view of the read-only rotation, so read-only too
        return RigidTransform(Rt, frozen(-(Rt @ self.translation)),
                              orthonormal_tol=ROTATION_TOL_F32)


def geo_distance(a, b) -> float:
    """Euclidean distance in meters between two points."""
    pa = np.asarray(a, dtype=np.float64)
    pb = np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm(pa - pb))


def rotation_about_z(angle_rad: float) -> Mat3:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_rotation(rng: np.random.Generator) -> Mat3:
    """Uniform-ish proper rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1.0
    return q


def quantize_pose_f32(pose: RigidTransform) -> RigidTransform:
    """Round a pose through float32 so it round-trips storage bit-exactly.

    The result's values are exactly representable in f32; validation uses
    the f32 tolerance since quantization perturbs orthonormality. A pose
    already exact in f32 is returned itself: it was validated at a tolerance
    no looser than `ROTATION_TOL_F32` when it was built.
    """
    R = pose.rotation.astype(np.float32)
    t = pose.translation.astype(np.float32)
    if (R == pose.rotation).all() and (t == pose.translation).all():
        return pose
    return RigidTransform(frozen(R.astype(np.float64)), frozen(t.astype(np.float64)),
                          ROTATION_TOL_F32)


@dataclass(frozen=True)
class ScanRecord:
    """One place observation.

    Float payloads are stored as float32, matching the on-disk archive
    format exactly, so write -> read reproduces a record bit-for-bit.
    Numerical routines convert to float64 at their boundaries. The pose
    is quantized through float32 at construction for the same reason, which
    keeps a pose already exact in float32 as it is. Writeable input arrays
    are copied, read-only ones kept. `storage.read_scan` builds records
    through `_from_archive`, which skips the checks it has already made.
    """

    id: str
    cloud: np.ndarray            # (N, 3) float32, N >= 1
    local_features: np.ndarray   # (N, d') float32
    global_descriptor: np.ndarray  # (d,) float32
    gt_pose: RigidTransform      # scan-to-world
    geo_location: np.ndarray     # (3,) float32, world meters

    def __post_init__(self) -> None:
        cloud = np.ascontiguousarray(self.cloud, dtype=np.float32)
        feats = np.ascontiguousarray(self.local_features, dtype=np.float32)
        desc = np.ascontiguousarray(self.global_descriptor, dtype=np.float32)
        geo = np.ascontiguousarray(self.geo_location, dtype=np.float32)
        if not self.id:
            raise ValueError("scan id must be non-empty")
        if cloud.ndim != 2 or cloud.shape[1] != 3 or cloud.shape[0] < 1:
            raise ValueError(f"cloud must be (N>=1, 3), got {cloud.shape}")
        if feats.ndim != 2 or feats.shape[0] != cloud.shape[0]:
            raise ValueError(
                f"local_features rows ({feats.shape}) must match cloud points ({cloud.shape[0]})"
            )
        if feats.shape[1] < 1:
            raise ValueError(f"local_features must have d' >= 1 columns, got {feats.shape}")
        if desc.ndim != 1 or desc.shape[0] < 1:
            raise ValueError(f"global_descriptor must be a non-empty vector, got {desc.shape}")
        if geo.shape != (3,):
            raise ValueError(f"geo_location must be shape (3,), got {geo.shape}")
        for name, a in (("cloud", cloud), ("local_features", feats),
                        ("global_descriptor", desc), ("geo_location", geo)):
            if not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, _read_only(a, getattr(self, name)))
        object.__setattr__(self, "gt_pose", quantize_pose_f32(self.gt_pose))

    @classmethod
    def _from_archive(cls, scan_id: str, cloud: np.ndarray, local_features: np.ndarray,
                      global_descriptor: np.ndarray, gt_pose: RigidTransform,
                      geo_location: np.ndarray) -> "ScanRecord":
        """A record of arrays that `storage.read_scan` has already checked,
        kept as given; `read_scan` is its only caller.

        `read_scan` takes over every check of `__post_init__`:
        - the shapes, from the archive header: cloud (N >= 1, 3), features
          (N, d'), descriptor (d >= 1,) and geo location (3,);
        - the dtype and layout: all four are read-only, C-contiguous float32
          views of the file's bytes, so they are kept without a copy;
        - finiteness, by one `np.isfinite` over the whole float32 payload;
        - a non-empty id, decoded from UTF-8;
        - the pose, built by `RigidTransform.from_matrix` from float32 values,
          so it is exact in float32 and `quantize_pose_f32` would return it
          unchanged.
        """
        record = object.__new__(cls)
        record.__dict__.update(id=scan_id, cloud=cloud, local_features=local_features,
                               global_descriptor=global_descriptor, gt_pose=gt_pose,
                               geo_location=geo_location)
        return record

    @property
    def feature_dim(self) -> int:
        return self.local_features.shape[1]

    @property
    def descriptor_dim(self) -> int:
        return self.global_descriptor.shape[0]
