import json

import numpy as np
import pytest

from scanrank import rerank, spectral
from scanrank.geometry import geo_distance
from scanrank.metrics import ground_truth_positives, recall_at_k, success_rate
from scanrank.pipeline import RunConfig, build_report, process_queries, run, run_bench
from scanrank.registration import RansacParams
from scanrank.rerank import Strategy
from scanrank.retrieval import build_index
from scanrank.spectral import SpectralParams
from scanrank.storage import read_results, summary_line, write_results
from scanrank.synthgen import WorldConfig, export_world, generate_world


def small_world(**overrides):
    defaults = dict(seed=7, num_places=24, num_queries=10, points_per_scan=40,
                    alias_fraction=0.25)
    defaults.update(overrides)
    return generate_world(WorldConfig(**defaults))


@pytest.fixture(scope="module")
def aliased_world():
    return small_world()


class TestProcessQueries:
    def test_noiseless_world_is_perfect(self):
        world = small_world(alias_fraction=0.0, outlier_rate=0.0, feature_noise_sigma=0.0,
                            descriptor_noise_sigma=0.0, pose_trans_sigma=0.0,
                            pose_rot_sigma_deg=0.0)
        cfg = RunConfig(strategy="spectral", threads=1)
        outcomes = process_queries(world.database, world.queries, cfg)
        assert recall_at_k(outcomes, 1, 5.0) == 100.0
        assert success_rate(outcomes) == 100.0

    def test_rerank_never_hurts_on_aliased_world(self, aliased_world):
        cfg_none = RunConfig(strategy="none", threads=1)
        cfg_sgv = RunConfig(strategy="spectral", threads=1)
        base = process_queries(aliased_world.database, aliased_world.queries, cfg_none)
        sgv = process_queries(aliased_world.database, aliased_world.queries, cfg_sgv)
        assert recall_at_k(sgv, 1, 5.0) >= recall_at_k(base, 1, 5.0)

    def test_outcome_lists_are_full_rankings(self, aliased_world):
        cfg = RunConfig(strategy="none", threads=1)
        outcomes = process_queries(aliased_world.database, aliased_world.queries, cfg)
        assert all(len(o.ranked_ids_pre) == len(aliased_world.database) for o in outcomes)

    def test_registration_failure_degrades_not_aborts(self, aliased_world):
        # n_max=2 leaves too few correspondences for RANSAC everywhere
        cfg = RunConfig(strategy="none", threads=1, spectral=SpectralParams(n_max=2))
        outcomes = process_queries(aliased_world.database, aliased_world.queries, cfg)
        assert len(outcomes) == len(aliased_world.queries)
        assert all(o.pose_estimate is None for o in outcomes)
        assert success_rate(outcomes) == 0.0


class TestDistances:
    def test_positives_and_top1_distances_equal_geo_distance_loop(self):
        # 20,000 query-to-scan distances: a row norm that sums the three
        # squares in another order differs from geo_distance in the last bit
        # on a few tenths of a percent of them
        world = small_world(num_places=400, num_queries=50, points_per_scan=8)
        database = build_index(world.database)
        cfg = RunConfig(strategy="none", threads=1, spectral=SpectralParams(n_max=2))
        outcomes = process_queries(world.database, world.queries, cfg)
        for query, outcome in zip(world.queries, outcomes):
            expected = np.array([geo_distance(query.geo_location, r.geo_location)
                                 for r in world.database])
            assert np.array_equal(database.distances_to(query.geo_location), expected)
            for radius in cfg.radii:
                loop = {r.id for r, d in zip(world.database, expected) if d <= radius}
                assert ground_truth_positives(query, database, radius) == loop
                assert outcome.positives[radius] == loop
            top1 = database.ids.index(outcome.ranked_ids_pre[0])
            assert outcome.top1_distance_pre == expected[top1]


class TestRunConfig:
    @pytest.mark.parametrize("bad", [
        dict(strategy="sorcery"), dict(strategy="None"), dict(bench_strategies=("rir",)),
        dict(n_topk=0), dict(bench_n_topk=(2, 0)), dict(n_qe=-1), dict(alpha=0.0),
        dict(alpha=float("nan")), dict(radii=()), dict(radii=(5.0, 0.0)), dict(recall_ks=(1, 0)),
        dict(threads=-1), dict(threads=-4),
    ])
    def test_rejects_out_of_range_values(self, bad):
        with pytest.raises(ValueError):
            RunConfig(**bad)

    def test_n_qe_zero_is_allowed(self):
        assert RunConfig(n_qe=0).n_qe == 0


class TestReports:
    def test_baseline_only_when_strategy_none(self, aliased_world):
        cfg = RunConfig(strategy="none", threads=1)
        outcomes = process_queries(aliased_world.database, aliased_world.queries, cfg)
        report = build_report(outcomes, cfg, len(aliased_world.database))
        assert "reranked" not in report.summary
        assert "top1_distance" not in report.summary
        assert "success_rate" in report.summary["baseline"]

    def test_header_is_the_config_that_sets_the_results(self, aliased_world):
        # threads, out, the bench grid and the RANSAC seed (replaced per
        # query by one drawn from the run seed) stay out of the header
        cfg = RunConfig(
            manifest="world/manifest.txt", strategy="alpha_qe", n_topk=7, n_qe=3, alpha=2.5,
            radii=(4.0, 9.0), recall_ks=(1, 3), seed=5, threads=2, out="elsewhere.jsonl",
            spectral=SpectralParams(d_thr=0.4, n_max=64, tol=1e-7, max_iters=50, mutual=True),
            ransac=RansacParams(inlier_threshold=0.4, max_iterations=200, seed=11,
                                confidence=0.99),
            bench_n_topk=(3,), bench_strategies=("none",),
        )
        outcomes = process_queries(aliased_world.database, aliased_world.queries, cfg)
        header = build_report(outcomes, cfg, len(aliased_world.database)).config
        assert json.loads(json.dumps(header)) == {
            "manifest": "world/manifest.txt", "strategy": "alpha_qe", "n_topk": 7, "n_qe": 3,
            "alpha": 2.5, "radii": [4.0, 9.0], "recall_ks": [1, 3], "seed": 5,
            "spectral": {"d_thr": 0.4, "n_max": 64, "tol": 1e-7, "max_iters": 50,
                         "mutual": True},
            "ransac": {"inlier_threshold": 0.4, "max_iterations": 200, "confidence": 0.99},
        }

    def test_summary_recomputable_from_query_records(self, aliased_world, tmp_path):
        cfg = RunConfig(strategy="spectral", threads=1, recall_ks=(1, 5))
        outcomes = process_queries(aliased_world.database, aliased_world.queries, cfg)
        report = build_report(outcomes, cfg, len(aliased_world.database))
        path = tmp_path / "results.jsonl"
        write_results(path, report)
        back = read_results(path)

        for radius in ("5.0", "20.0"):
            for k in (1, 5):
                hits = evaluable = 0
                for rec in back.per_query:
                    positives = set(rec["positives"][radius])
                    if not positives:
                        continue
                    evaluable += 1
                    hits += bool(set(rec["ranked_post"][:k]) & positives)
                expected = back.summary["reranked"]["recall"][radius][str(k)]
                assert 100.0 * hits / evaluable == expected

            mrr = 0.0
            evaluable = 0
            for rec in back.per_query:
                positives = set(rec["positives"][radius])
                if not positives:
                    continue
                evaluable += 1
                for rank, cid in enumerate(rec["ranked_post"], 1):
                    if cid in positives:
                        mrr += 1.0 / rank
                        break
            assert 100.0 * mrr / evaluable == back.summary["reranked"]["mrr"][radius]

        successes = sum(
            1 for rec in back.per_query
            if rec["rte"] is not None and rec["rte"] <= 2.0 and rec["rre"] <= 5.0
        )
        assert 100.0 * successes / len(back.per_query) == \
            back.summary["reranked"]["success_rate"]

    def test_summary_has_no_timing_fields(self, aliased_world, tmp_path):
        cfg = RunConfig(strategy="spectral", threads=1)
        outcomes = process_queries(aliased_world.database, aliased_world.queries, cfg)
        report = build_report(outcomes, cfg, len(aliased_world.database))
        assert "ms" not in json.dumps(report.summary)
        assert report.timing["mean_rerank_ms"] > 0.0


class TestDeterminism:
    def test_thread_count_does_not_change_summary(self, aliased_world, tmp_path):
        for strategy in Strategy:
            lines = []
            for threads in (1, 3):
                out = tmp_path / f"{strategy.value}{threads}.jsonl"
                cfg = RunConfig(strategy=strategy.value, threads=threads, out=str(out))
                run(aliased_world.database, aliased_world.queries, cfg)
                lines.append(summary_line(out))
            assert lines[0] == lines[1], strategy

    def test_spectral_starts_no_thread_pool(self, aliased_world, tmp_path, monkeypatch):
        # the spectral re-rank scores its batch on the calling thread, so
        # --threads 3 starts no pool and writes the threads=1 summary
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("the spectral re-rank started a thread pool")

        lines = []
        for threads in (1, 3):
            out = tmp_path / f"spectral{threads}.jsonl"
            cfg = RunConfig(strategy="spectral", threads=threads, out=str(out))
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "ThreadPoolExecutor", NoPool)
                patch.setattr(rerank, "ThreadPoolExecutor", NoPool)
                run(aliased_world.database, aliased_world.queries, cfg)
            lines.append(summary_line(out))
        assert lines[0] == lines[1]

    def test_rir_strategy_deterministic_across_threads(self, aliased_world, tmp_path):
        lines = []
        for threads in (1, 4):
            cfg = RunConfig(strategy="ransac_rir", threads=threads, n_topk=5,
                            out=str(tmp_path / f"rir{threads}.jsonl"))
            run(aliased_world.database, aliased_world.queries, cfg)
            lines.append(summary_line(tmp_path / f"rir{threads}.jsonl"))
        assert lines[0] == lines[1]


class TestBench:
    def test_bench_shape_and_metrics(self, aliased_world):
        cfg = RunConfig(threads=1, bench_n_topk=(2, 5), bench_strategies=("spectral", "ransac_rir"))
        rows, report = run_bench(aliased_world.database, aliased_world.queries, cfg)
        assert [(r.strategy, r.n_topk) for r in rows] == [
            ("spectral", 2), ("spectral", 5), ("ransac_rir", 2), ("ransac_rir", 5),
        ]
        assert all(r.mean_rerank_ms > 0 for r in rows)
        assert len(report.summary["bench"]) == 4

    def test_single_thread_flag_keeps_recall(self, aliased_world):
        cfg1 = RunConfig(threads=1, bench_n_topk=(2,), bench_strategies=("spectral",))
        cfg2 = RunConfig(threads=3, bench_n_topk=(2,), bench_strategies=("spectral",))
        rows1, _ = run_bench(aliased_world.database, aliased_world.queries, cfg1)
        rows2, _ = run_bench(aliased_world.database, aliased_world.queries, cfg2)
        assert rows1[0].recall_at_1 == rows2[0].recall_at_1
        assert rows1[0].mrr == rows2[0].mrr


class TestManifestRun:
    def test_run_from_manifest(self, tmp_path):
        world = small_world(num_places=8, num_queries=3, alias_fraction=0.0)
        manifest = export_world(world, tmp_path / "w")
        from scanrank.pipeline import run_from_manifest
        cfg = RunConfig(manifest=str(manifest), strategy="spectral", threads=1,
                        out=str(tmp_path / "out.jsonl"))
        report = run_from_manifest(cfg)
        assert report.summary["num_queries"] == 3
        assert (tmp_path / "out.jsonl").exists()
