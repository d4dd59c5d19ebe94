import numpy as np
import pytest
from scipy.stats import spearmanr

from scanrank.errors import InvalidConfigError, IoError
from scanrank.geometry import geo_distance
from scanrank.matching import match_features
from scanrank.retrieval import build_index, query_topk
from scanrank.spectral import score_candidates
from scanrank.storage import load_dataset
from scanrank.synthgen import WorldConfig, export_world, generate_world


def small_config(**overrides):
    defaults = dict(seed=3, num_places=16, num_queries=8, points_per_scan=32)
    defaults.update(overrides)
    return WorldConfig(**defaults)


class TestConfigValidation:
    def test_rejects_bad_alias_fraction(self):
        with pytest.raises(InvalidConfigError):
            WorldConfig(alias_fraction=1.5)

    def test_rejects_negative_sigma(self):
        with pytest.raises(InvalidConfigError):
            WorldConfig(feature_noise_sigma=-0.1)

    def test_rejects_negative_seed(self):
        with pytest.raises(InvalidConfigError, match="seed must be >= 0, got -1"):
            WorldConfig(seed=-1)

    def test_rejects_all_places_aliased(self):
        with pytest.raises(InvalidConfigError):
            WorldConfig(num_places=4, alias_fraction=1.0)


class TestGenerateWorld:
    def test_noiseless_world_retrieves_perfectly(self):
        cfg = small_config(alias_fraction=0.0, outlier_rate=0.0,
                           feature_noise_sigma=0.0, descriptor_noise_sigma=0.0,
                           pose_trans_sigma=0.0, pose_rot_sigma_deg=0.0)
        world = generate_world(cfg)
        index = build_index(world.database)
        for query in world.queries:
            top = query_topk(index, query.global_descriptor, k=1)
            assert top.ids[0] == world.query_sources[query.id]

    def test_same_seed_is_bitwise_identical(self):
        a = generate_world(small_config())
        b = generate_world(small_config())
        for ra, rb in zip(a.database + a.queries, b.database + b.queries):
            assert ra.id == rb.id
            assert np.array_equal(ra.cloud, rb.cloud)
            assert np.array_equal(ra.local_features, rb.local_features)
            assert np.array_equal(ra.global_descriptor, rb.global_descriptor)
            assert np.array_equal(ra.gt_pose.matrix4(), rb.gt_pose.matrix4())
        assert a.truth == b.truth

    def test_different_seed_differs(self):
        a = generate_world(small_config(seed=3))
        b = generate_world(small_config(seed=4))
        assert not np.array_equal(a.database[0].cloud, b.database[0].cloud)

    def test_truth_matches_metrics_positives(self):
        # brute force over every (query, scan) pair, independent of the
        # vectorised `Database.distances_to` that the generator calls
        world = generate_world(small_config(alias_fraction=0.25))
        for query in world.queries:
            expected = frozenset(r.id for r in world.database
                                 if geo_distance(query.geo_location, r.geo_location) <= 5.0)
            assert world.truth[query.id] == expected

    def test_queries_revisit_within_truth_radius(self):
        world = generate_world(small_config())
        for query in world.queries:
            assert world.query_sources[query.id] in world.truth[query.id]

    def test_calibration_decoy_confusable_but_spectrally_worse(self):
        # the generator's calibration check: with zero feature noise the
        # decoy descriptor is within noise of the true place's, yet the
        # spectral score separates them for every aliased query
        cfg = WorldConfig(seed=5, num_places=20, num_queries=10, alias_fraction=0.5,
                          points_per_scan=48, feature_noise_sigma=0.0)
        world = generate_world(cfg)
        by_id = {r.id: r for r in world.database}
        layouts = {r.id: world.landmark_ids[r.id] for r in world.database}
        checked = 0
        for query in world.queries:
            source = by_id[world.query_sources[query.id]]
            decoys = [
                r for r in world.database
                if r.id != source.id and np.array_equal(layouts[r.id], layouts[source.id])
            ]
            if not decoys:
                continue
            decoy = decoys[0]
            g = query.global_descriptor.astype(np.float64)
            d_true = np.linalg.norm(g - source.global_descriptor.astype(np.float64))
            d_decoy = np.linalg.norm(g - decoy.global_descriptor.astype(np.float64))
            # both distances are pure descriptor noise, so they are comparable
            noise_scale = cfg.descriptor_noise_sigma * np.sqrt(2 * cfg.descriptor_dim)
            assert abs(d_true - d_decoy) < 5 * noise_scale
            (s_true,), _ = score_candidates(query, [source])
            (s_decoy,), _ = score_candidates(query, [decoy])
            assert s_true > s_decoy
            checked += 1
        assert checked >= 4

    def test_inlier_rate_decreases_with_outlier_rate(self):
        rates = [0.0, 0.25, 0.5, 0.75, 1.0]
        inlier_fractions = []
        for rate in rates:
            fractions = []
            for seed in range(3):
                world = generate_world(small_config(seed=seed, outlier_rate=rate,
                                                    alias_fraction=0.0))
                by_id = {r.id: r for r in world.database}
                for query in world.queries[:4]:
                    source = by_id[world.query_sources[query.id]]
                    corrs = match_features(query, source, n_max=1000)
                    q_ids = world.landmark_ids[query.id][corrs.query_indices]
                    c_ids = world.landmark_ids[source.id][corrs.candidate_indices]
                    fractions.append(float(np.mean(q_ids == c_ids)))
            inlier_fractions.append(np.mean(fractions))
        rho = spearmanr(rates, inlier_fractions).statistic
        assert rho < 0

    def test_num_decoys_rounding(self):
        assert WorldConfig(num_places=10, alias_fraction=0.25).num_decoys == 2


class TestExportWorld:
    def test_round_trip_through_storage(self, tmp_path):
        configs = (small_config(),
                   small_config(seed=11, num_places=9, points_per_scan=5,
                                feature_dim=3, descriptor_dim=7, pose_rot_sigma_deg=40.0))
        for n, config in enumerate(configs):
            world = generate_world(config)
            manifest = export_world(world, tmp_path / f"world{n}")
            database, queries = load_dataset(manifest)
            assert [r.id for r in database] == [r.id for r in world.database]
            assert [r.id for r in queries] == [r.id for r in world.queries]
            for loaded, original in zip(database + queries, world.database + world.queries):
                for name in ("cloud", "local_features", "global_descriptor", "geo_location"):
                    a, b = getattr(loaded, name), getattr(original, name)
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()
                    assert not a.flags.writeable
                for name in ("rotation", "translation"):
                    a, b = getattr(loaded.gt_pose, name), getattr(original.gt_pose, name)
                    assert a.tobytes() == b.tobytes() and not a.flags.writeable

    def test_export_writes_expected_files(self, tmp_path):
        world = generate_world(small_config(num_places=3, num_queries=1, alias_fraction=0.0))
        manifest = export_world(world, tmp_path / "w")
        files = sorted(p.name for p in (tmp_path / "w").iterdir())
        assert "manifest.txt" in files
        assert len([f for f in files if f.endswith(".sgv")]) == 4

    def test_unwritable_directory_raises(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        world = generate_world(small_config(num_places=2, num_queries=1, alias_fraction=0.0))
        with pytest.raises(IoError):
            export_world(world, blocker / "sub")
