"""Deterministic synthetic worlds with known ground truth.

Each place is a rigid layout of landmarks on a widely spaced grid. Per-point
features encode landmark identity (plus noise), which gives exact control of
the correspondence inlier rate. A configurable fraction of places are decoys:
geometric clones of another place, placed far away, with a small perturbation
on 10% of their landmarks and a near-identical global descriptor, so that
descriptor retrieval confuses them while geometric checks can tell them
apart. Queries revisit places under a noisy pose; the aliased/plain mix
follows a fixed 3:2 cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidConfigError, IoError
from .geometry import RigidTransform, ScanRecord, frozen, rotation_about_z
from .metrics import ground_truth_positives
from .retrieval import build_index
from .storage import write_scan

TRUTH_RADIUS = 5.0           # meters; matches the tighter revisit threshold
DECOY_PERTURBED_FRACTION = 0.1
DECOY_SHIFT_RANGE = (0.5, 1.0)  # meters; breaks pairwise consistency at d_thr=0.5
_ALIAS_PATTERN = (True, True, True, False, False)


@dataclass(frozen=True)
class WorldConfig:
    seed: int = 0
    num_places: int = 200
    num_queries: int = 50
    place_spacing: float = 50.0
    points_per_scan: int = 96
    crop_radius: float = 15.0
    alias_fraction: float = 0.3
    feature_noise_sigma: float = 0.05
    outlier_rate: float = 0.3
    descriptor_noise_sigma: float = 0.1
    pose_trans_sigma: float = 0.5    # meters
    pose_rot_sigma_deg: float = 5.0
    descriptor_dim: int = 32
    feature_dim: int = 16

    def __post_init__(self) -> None:
        checks = [
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
            (self.num_places >= 1, "num_places must be >= 1"),
            (self.num_queries >= 0, "num_queries must be >= 0"),
            (self.place_spacing > 0, "place_spacing must be > 0"),
            (self.points_per_scan >= 1, "points_per_scan must be >= 1"),
            (self.crop_radius > 0, "crop_radius must be > 0"),
            (0.0 <= self.alias_fraction <= 1.0, "alias_fraction must be in [0, 1]"),
            (0.0 <= self.outlier_rate <= 1.0, "outlier_rate must be in [0, 1]"),
            (self.feature_noise_sigma >= 0, "feature_noise_sigma must be >= 0"),
            (self.descriptor_noise_sigma >= 0, "descriptor_noise_sigma must be >= 0"),
            (self.pose_trans_sigma >= 0, "pose_trans_sigma must be >= 0"),
            (self.pose_rot_sigma_deg >= 0, "pose_rot_sigma_deg must be >= 0"),
            (self.descriptor_dim >= 1, "descriptor_dim must be >= 1"),
            (self.feature_dim >= 1, "feature_dim must be >= 1"),
        ]
        for ok, msg in checks:
            if not ok:
                raise InvalidConfigError(msg)
        if self.num_places - self.num_decoys < 1:
            raise InvalidConfigError(
                "alias_fraction leaves no original place to clone from"
            )

    @property
    def num_decoys(self) -> int:
        return int(round(self.alias_fraction * self.num_places))


@dataclass(frozen=True)
class SyntheticWorld:
    database: list[ScanRecord]
    queries: list[ScanRecord]
    truth: dict[str, frozenset[str]]          # query id -> positive db ids (5 m)
    landmark_ids: dict[str, np.ndarray]       # scan id -> per-point landmark identity
    query_sources: dict[str, str] = field(default_factory=dict)  # query id -> revisited db id


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    rows = rng.standard_normal((count, dim))
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / np.maximum(norms, 1e-12)


def _ball_points(rng: np.random.Generator, count: int, radius: float) -> np.ndarray:
    directions = _unit_rows(rng, count, 3)
    radii = radius * rng.random(count) ** (1.0 / 3.0)
    return directions * radii[:, None]


def generate_world(config: WorldConfig) -> SyntheticWorld:
    """Build database and query scans, deterministic per seed."""
    cfg = config
    n_decoys = cfg.num_decoys
    n_orig = cfg.num_places - n_decoys
    n_landmarks = cfg.points_per_scan

    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(3 + cfg.num_places + cfg.num_queries)
    rng_tables = np.random.default_rng(children[0])
    rng_decoy = np.random.default_rng(children[1])
    rng_assign = np.random.default_rng(children[2])
    place_seeds = children[3:3 + cfg.num_places]
    query_seeds = children[3 + cfg.num_places:]

    # identity -> feature embedding / descriptor contribution
    vocab = n_orig * n_landmarks
    embeddings = _unit_rows(rng_tables, vocab, cfg.feature_dim)
    descriptor_table = rng_tables.standard_normal((vocab, cfg.descriptor_dim))

    side = int(np.ceil(np.sqrt(cfg.num_places)))
    grid = frozen(np.array([
        [(p % side) * cfg.place_spacing, (p // side) * cfg.place_spacing, 0.0]
        for p in range(cfg.num_places)
    ]))

    # layouts and identities; decoys clone an original and perturb a few landmarks
    layouts: list[np.ndarray] = []
    identities: list[np.ndarray] = []
    place_rngs = [np.random.default_rng(s) for s in place_seeds]
    for p in range(n_orig):
        layouts.append(_ball_points(place_rngs[p], n_landmarks, cfg.crop_radius))
        identities.append(np.arange(p * n_landmarks, (p + 1) * n_landmarks, dtype=np.int64))
    source_perm = rng_assign.permutation(n_orig)
    decoy_sources = [int(source_perm[j % n_orig]) for j in range(n_decoys)]
    for j, src in enumerate(decoy_sources):
        layout = layouts[src].copy()
        k = max(1, int(round(DECOY_PERTURBED_FRACTION * n_landmarks)))
        idx = rng_decoy.choice(n_landmarks, size=k, replace=False)
        shift = _unit_rows(rng_decoy, k, 3) * rng_decoy.uniform(*DECOY_SHIFT_RANGE, size=(k, 1))
        layout[idx] += shift
        layouts.append(layout)
        identities.append(identities[src].copy())

    def clean_descriptor(ids: np.ndarray) -> np.ndarray:
        return descriptor_table[ids].sum(axis=0) / np.sqrt(n_landmarks)

    database: list[ScanRecord] = []
    landmark_ids: dict[str, np.ndarray] = {}
    yaws = np.empty(cfg.num_places)
    for p in range(cfg.num_places):
        rng_p = place_rngs[p]
        yaws[p] = rng_p.uniform(0.0, 2.0 * np.pi)
        pose = RigidTransform(frozen(rotation_about_z(yaws[p])), grid[p])
        feats = embeddings[identities[p]] + rng_p.standard_normal(
            (n_landmarks, cfg.feature_dim)) * cfg.feature_noise_sigma
        desc = clean_descriptor(identities[p]) + rng_p.standard_normal(
            cfg.descriptor_dim) * cfg.descriptor_noise_sigma
        record = ScanRecord(
            id=f"db{p:04d}",
            cloud=layouts[p],
            local_features=feats,
            global_descriptor=desc,
            gt_pose=pose,
            geo_location=grid[p],
        )
        database.append(record)
        landmark_ids[record.id] = identities[p].copy()

    cloned = list(dict.fromkeys(decoy_sources))  # order of first cloning
    uncloned = [p for p in range(n_orig) if p not in set(cloned)]
    rng_assign.shuffle(cloned)
    rng_assign.shuffle(uncloned)

    queries: list[ScanRecord] = []
    query_sources: dict[str, str] = {}
    alias_i = plain_i = 0
    for qi in range(cfg.num_queries):
        want_alias = _ALIAS_PATTERN[qi % len(_ALIAS_PATTERN)]
        if want_alias and cloned:
            place = cloned[alias_i % len(cloned)]
            alias_i += 1
        elif uncloned:
            place = uncloned[plain_i % len(uncloned)]
            plain_i += 1
        else:
            place = cloned[alias_i % len(cloned)]
            alias_i += 1

        rng_q = np.random.default_rng(query_seeds[qi])
        offset = rng_q.normal(0.0, cfg.pose_trans_sigma, size=3)
        dyaw = np.radians(rng_q.normal(0.0, cfg.pose_rot_sigma_deg))
        pose = RigidTransform(frozen(rotation_about_z(yaws[place] + dyaw)),
                              frozen(grid[place] + offset))
        world_landmarks = database[place].gt_pose.apply(layouts[place])
        local = pose.inverse().apply(world_landmarks)
        perm = rng_q.permutation(n_landmarks)

        feats = embeddings[identities[place][perm]] + rng_q.standard_normal(
            (n_landmarks, cfg.feature_dim)) * cfg.feature_noise_sigma
        outliers = rng_q.random(n_landmarks) < cfg.outlier_rate
        if outliers.any():
            feats[outliers] = _unit_rows(rng_q, int(outliers.sum()), cfg.feature_dim)
        desc = clean_descriptor(identities[place]) + rng_q.standard_normal(
            cfg.descriptor_dim) * cfg.descriptor_noise_sigma

        record = ScanRecord(
            id=f"q{qi:04d}",
            cloud=local[perm],
            local_features=feats,
            global_descriptor=desc,
            gt_pose=pose,
            geo_location=pose.translation,
        )
        queries.append(record)
        landmark_ids[record.id] = identities[place][perm].copy()
        query_sources[record.id] = database[place].id

    index = build_index(database)
    truth = {q.id: ground_truth_positives(index, index.distances_to(q.geo_location), TRUTH_RADIUS)
             for q in queries}

    return SyntheticWorld(database, queries, truth, landmark_ids, query_sources)


def export_world(world: SyntheticWorld, out_dir) -> Path:
    """Write scan archives plus a manifest; returns the manifest path."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out}: {exc}") from exc
    lines = ["# role id path"]
    for role, scans in (("db", world.database), ("query", world.queries)):
        for record in scans:
            write_scan(out / f"{record.id}.sgv", record)
            lines.append(f"{role} {record.id} {record.id}.sgv")
    manifest = out / "manifest.txt"
    try:
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write manifest {manifest}: {exc}") from exc
    return manifest
