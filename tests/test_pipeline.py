import dataclasses
import json
import threading

import numpy as np
import pytest

from scanrank import pipeline, rerank, retrieval, spectral
from scanrank.errors import DimMismatchError, ScanrankError
from scanrank.geometry import geo_distance
from scanrank.metrics import (
    build_metric_report,
    ground_truth_positives,
    recall_at_k,
    success_rate,
)
from scanrank.pipeline import RunConfig, build_report, process_queries, run, run_bench
from scanrank.registration import RansacParams
from scanrank.rerank import Strategy
from scanrank.retrieval import build_index, query_topk
from scanrank.spectral import SpectralParams
from scanrank.storage import read_results, summary_line, write_results
from scanrank.synthgen import WorldConfig, export_world, generate_world

from conftest import first_positive_rank


def small_world(**overrides):
    defaults = dict(seed=7, num_places=24, num_queries=10, points_per_scan=40,
                    alias_fraction=0.25)
    defaults.update(overrides)
    return generate_world(WorldConfig(**defaults))


@pytest.fixture(scope="module")
def aliased_world():
    return small_world()


@pytest.fixture(scope="module")
def noisy_world():
    # noisy global descriptors push some first positives several ranks down
    return small_world(num_places=60, descriptor_noise_sigma=1.0)


def positives_of(query, db, radius):
    return ground_truth_positives(db, db.distances_to(query.geo_location), radius)


def full_rankings(world, cfg):
    """Per query, the ids of the whole ranking before and after re-ranking:
    `query_topk` over every scan, then the strategy, as `process_queries`
    runs them, falling back to the retrieval order where re-ranking fails."""
    db = build_index(world.database)
    rankings = []
    for qi, query in enumerate(world.queries):
        pre = query_topk(db, query.global_descriptor, k=len(db))
        try:
            post = pipeline._rerank(cfg, query, pre, qi, None)
        except ScanrankError:
            post = pre
        assert len(pre.ids) == len(post.ids) == len(db)
        rankings.append((pre.ids, post.ids))
    return rankings


def rule_depth(cfg, query, db, full):
    """D = min(N, max(n_topk, max(recall_ks), every first-positive rank of
    both full rankings at every radius))."""
    ranks = [first_positive_rank(ids, positives_of(query, db, r))
             for ids in full for r in cfg.radii]
    return min(len(db), max([cfg.n_topk, *cfg.recall_ks, *(k for k in ranks if k is not None)]))


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

    @pytest.mark.parametrize("strategy", [s.value for s in Strategy])
    def test_outcome_lists_are_the_rankings_to_their_depth(self, noisy_world, strategy):
        # each list is exactly the first D ids of the full ranking, with D
        # exactly the rule, and each first-positive rank is that of the full
        # ranking; some D reaches past every k, and some is cut. Places lie
        # 50 m apart, so the first radius finds positives sooner than the
        # second and D must come from the last one
        cfg = RunConfig(strategy=strategy, n_topk=4, recall_ks=(1, 3), radii=(60.0, 5.0),
                        threads=1)
        outcomes = process_queries(noisy_world.database, noisy_world.queries, cfg)
        db = build_index(noisy_world.database)
        depths = []
        for query, outcome, full in zip(noisy_world.queries, outcomes,
                                        full_rankings(noisy_world, cfg)):
            depth = rule_depth(cfg, query, db, full)
            assert outcome.ranked_ids_pre == full[0][:depth]
            assert outcome.ranked_ids_post == full[1][:depth]
            for r in cfg.radii:
                positives = positives_of(query, db, r)
                assert outcome.first_rank_pre[r] == first_positive_rank(full[0], positives)
                assert outcome.first_rank_post[r] == first_positive_rank(full[1], positives)
            depths.append(depth)
        assert max(depths) > cfg.n_topk
        assert max(depths) < len(db)

    @pytest.mark.parametrize("strategy", ["none", "spectral"])
    def test_metrics_do_not_read_the_kept_ids(self, noisy_world, strategy):
        # recall and MRR come from the stored first-positive ranks alone:
        # cutting every list to one id changes no number, although some
        # first positives lie deeper than that
        cfg = RunConfig(strategy=strategy, n_topk=4, radii=(5.0, 60.0), threads=1)
        outcomes = process_queries(noisy_world.database, noisy_world.queries, cfg)
        assert any((rank or 0) > 1 for o in outcomes for rank in o.first_rank_post.values())
        cut = [dataclasses.replace(o, ranked_ids_pre=o.ranked_ids_pre[:1],
                                   ranked_ids_post=o.ranked_ids_post[:1]) for o in outcomes]
        for reranked in (False, True):
            want = build_metric_report(outcomes, (1, 3, 20), cfg.radii, reranked, True)
            assert build_metric_report(cut, (1, 3, 20), cfg.radii, reranked, True) == want

    def test_written_lists_reach_the_deepest_first_positive(self, noisy_world, tmp_path):
        # at n_topk 1 and recall k 1 only the first-positive ranks set D,
        # and some lie deeper than 1: the written lists still reach them.
        # Here the first radius sets D
        cfg = RunConfig(strategy="spectral", n_topk=1, recall_ks=(1,), radii=(5.0, 60.0),
                        threads=1)
        outcomes = process_queries(noisy_world.database, noisy_world.queries, cfg)
        path = tmp_path / "results.jsonl"
        write_results(path, build_report(outcomes, cfg, len(noisy_world.database)))
        records = read_results(path).per_query
        db = build_index(noisy_world.database)
        deepest = 0
        for query, rec, full in zip(noisy_world.queries, records,
                                    full_rankings(noisy_world, cfg)):
            for r in cfg.radii:
                positives = positives_of(query, db, r)
                assert set(rec["positives"][str(r)]) == positives
                for key, ids in zip(("ranked_pre", "ranked_post"), full):
                    rank = first_positive_rank(ids, positives)
                    assert rank is not None
                    assert len(rec[key]) >= rank
                    assert first_positive_rank(tuple(rec[key]), positives) == rank
                    deepest = max(deepest, rank)
                assert rec["first_positive_rank"][str(r)] == \
                    first_positive_rank(full[1], positives)
            depth = rule_depth(cfg, query, db, full)
            assert rec["ranked_pre"] == list(full[0][:depth])
            assert rec["ranked_post"] == list(full[1][:depth])
        assert deepest > 1

    def test_registration_failure_degrades_not_aborts(self, aliased_world):
        # n_max=2 leaves too few correspondences for RANSAC everywhere
        cfg = RunConfig(strategy="none", threads=1, spectral=SpectralParams(n_max=2))
        outcomes = process_queries(aliased_world.database, aliased_world.queries, cfg)
        assert len(outcomes) == len(aliased_world.queries)
        assert all(o.pose_estimate is None for o in outcomes)
        assert success_rate(outcomes) == 0.0


@pytest.fixture(scope="module")
def deep_world():
    # noisy descriptors on a heavily aliased world: at n_topk 1 and recall
    # k 1, first positives lie far past what retrieval sorts
    return generate_world(WorldConfig(seed=3, descriptor_noise_sigma=3.0, alias_fraction=0.8))


def comparable(report):
    """A report's per-query records without their timings, and its summary."""
    records = [{key: v for key, v in rec.items() if key != "timings"} for rec in report.per_query]
    return json.dumps(records, sort_keys=True), json.dumps(report.summary, sort_keys=True)


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("strategy,n_qe", [(s.value, None) for s in Strategy]
                         + [(Strategy.ALPHA_QE.value, 6)])
def test_partial_rankings_write_the_records_of_full_rankings(deep_world, strategy, n_qe, threads):
    # retrieval sorts only k0 = max(n_topk, max(recall_ks), n_qe) rows; the
    # records must equal those of a run whose retrievals sort every row
    cfg = RunConfig(strategy=strategy, n_topk=1, n_qe=n_qe, recall_ks=(1,), threads=threads)
    world, n = deep_world, len(deep_world.database)
    k0 = max(1, n_qe or 1)
    query_topk = retrieval.query_topk
    asked = []

    def spying(index, descriptor, k, metric="euclidean"):
        asked.append(k)
        return query_topk(index, descriptor, k, metric)

    def every_row(index, descriptor, k, metric="euclidean"):
        return query_topk(index, descriptor, len(index), metric)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(pipeline, "query_topk", spying)
        report = build_report(process_queries(world.database, world.queries, cfg), cfg, n)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(pipeline, "query_topk", every_row)
        m.setattr(rerank, "query_topk", every_row)
        reference = build_report(process_queries(world.database, world.queries, cfg), cfg, n)
    assert asked == [k0] * len(world.queries)  # one retrieval per query, k0 deep
    assert comparable(report) == comparable(reference)
    deepest = max(len(rec[key]) for rec in report.per_query for key in ("ranked_pre", "ranked_post"))
    assert k0 < deepest < n


@pytest.fixture(scope="module")
def default_world():
    return generate_world(WorldConfig())


@pytest.fixture(scope="module")
def hard_world():
    return generate_world(WorldConfig(outlier_rate=0.85, feature_noise_sigma=0.2))


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
@pytest.mark.parametrize("world_name", ["default_world", "hard_world", "deep_world"])
def test_block_size_does_not_change_the_results(request, world_name, strategy, threads):
    # at block size 1 the stages run query by query; 50 queries leave a
    # partial last block of 2 at block size 3. RANSAC runs to its iteration
    # cap on most hard-world pairs, so a lower cap and, for RANSAC-RIR, which
    # registers every candidate, 5 candidates keep the test short
    world = request.getfixturevalue(world_name)
    assert len(world.queries) % 3 != 0
    n_topk = 5 if strategy == Strategy.RANSAC_RIR.value else 20
    cfg = RunConfig(strategy=strategy, n_topk=n_topk, threads=threads, seed=2,
                    ransac=RansacParams(max_iterations=100))
    results = []
    for block in (1, 3, pipeline._BLOCK):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(pipeline, "_BLOCK", block)
            outcomes = process_queries(world.database, world.queries, cfg)
        results.append(comparable(build_report(outcomes, cfg, len(world.database))))
    assert results[1] == results[0]
    assert results[2] == results[0]


class TestFailureInsideABlock:
    """One query's failure inside a block degrades that query alone."""

    FAILING = 4  # mid-block at block size 3 and at the default

    def records(self, world, cfg):
        outcomes = process_queries(world.database, world.queries, cfg)
        return [{key: v for key, v in rec.items() if key != "timings"}
                for rec in build_report(outcomes, cfg, len(world.database)).per_query]

    @pytest.mark.parametrize("block", [3, None])
    def test_a_failed_rerank_keeps_that_querys_retrieval_order(self, noisy_world, block,
                                                               monkeypatch):
        cfg = RunConfig(strategy="spectral", n_topk=5, threads=1)
        expected = self.records(noisy_world, cfg)
        failing_id = noisy_world.queries[self.FAILING].id
        rerank_spectral = pipeline.rerank_spectral

        def failing(query, *args, **kwargs):
            if query.id == failing_id:
                raise ScanrankError("planted re-rank failure")
            return rerank_spectral(query, *args, **kwargs)

        monkeypatch.setattr(pipeline, "rerank_spectral", failing)
        if block is not None:
            monkeypatch.setattr(pipeline, "_BLOCK", block)
        got = self.records(noisy_world, cfg)
        assert got[self.FAILING]["ranked_post"] == got[self.FAILING]["ranked_pre"]
        assert expected[self.FAILING]["ranked_post"] != expected[self.FAILING]["ranked_pre"]
        for qi, (rec, ref) in enumerate(zip(got, expected)):
            if qi != self.FAILING:
                assert rec == ref, qi

    @pytest.mark.parametrize("block", [3, None])
    def test_a_failed_registration_loses_that_querys_pose_only(self, noisy_world, block,
                                                               monkeypatch):
        cfg = RunConfig(strategy="spectral", n_topk=5, threads=1)
        expected = self.records(noisy_world, cfg)
        failing_seed = pipeline._query_seed(cfg.seed, self.FAILING, 1)
        ransac_register = pipeline.ransac_register

        def failing(corrs, params):
            if params.seed == failing_seed:
                raise ScanrankError("planted registration failure")
            return ransac_register(corrs, params)

        monkeypatch.setattr(pipeline, "ransac_register", failing)
        if block is not None:
            monkeypatch.setattr(pipeline, "_BLOCK", block)
        got = self.records(noisy_world, cfg)
        assert expected[self.FAILING]["rte"] is not None
        assert got[self.FAILING] == {**expected[self.FAILING], "rte": None, "rre": None}
        for qi, (rec, ref) in enumerate(zip(got, expected)):
            if qi != self.FAILING:
                assert rec == ref, qi

    @pytest.mark.parametrize("threads", [1, 3])
    def test_a_failed_rir_candidate_fails_only_its_query_on_the_shared_pool(
            self, noisy_world, threads, monkeypatch):
        # the candidates of every query share the run's pool; a typed error
        # raised inside it for one query's candidates re-ranks that query
        # not at all and leaves the other queries and the pool's threads be
        cfg = RunConfig(strategy="ransac_rir", n_topk=5, threads=threads)
        expected = self.records(noisy_world, cfg)
        failing_id = noisy_world.queries[self.FAILING].id
        match_features = rerank.match_features

        def failing(query, *args, **kwargs):
            if query.id == failing_id:
                raise DimMismatchError("planted matching failure")
            return match_features(query, *args, **kwargs)

        monkeypatch.setattr(rerank, "match_features", failing)
        before = set(threading.enumerate())
        got = self.records(noisy_world, cfg)
        assert set(threading.enumerate()) <= before
        assert got[self.FAILING]["ranked_post"] == got[self.FAILING]["ranked_pre"]
        assert expected[self.FAILING]["ranked_post"] != expected[self.FAILING]["ranked_pre"]
        for qi, (rec, ref) in enumerate(zip(got, expected)):
            if qi != self.FAILING:
                assert rec == ref, qi


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
                assert positives_of(query, database, radius) == loop
                assert outcome.positives[radius] == loop
            top1 = database.ids.index(outcome.ranked_ids_pre[0])
            assert outcome.top1_distance_pre == expected[top1]


class TestRunConfig:
    @pytest.mark.parametrize("bad", [
        dict(strategy="sorcery"), dict(strategy="None"), dict(bench_strategies=("rir",)),
        dict(n_topk=0), dict(bench_n_topk=(2, 0)), dict(n_qe=-1), dict(alpha=0.0),
        dict(alpha=float("nan")), dict(radii=()), dict(radii=(5.0, 0.0)), dict(recall_ks=(1, 0)),
        dict(threads=-1), dict(threads=-4), dict(seed=-1),
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

        for stage, key in (("baseline", "ranked_pre"), ("reranked", "ranked_post")):
            for radius in ("5.0", "20.0"):
                for k in (1, 5):
                    hits = evaluable = 0
                    for rec in back.per_query:
                        positives = set(rec["positives"][radius])
                        if not positives:
                            continue
                        evaluable += 1
                        hits += bool(set(rec[key][:k]) & positives)
                    expected = back.summary[stage]["recall"][radius][str(k)]
                    assert 100.0 * hits / evaluable == expected

                mrr = 0.0
                evaluable = 0
                for rec in back.per_query:
                    positives = set(rec["positives"][radius])
                    if not positives:
                        continue
                    evaluable += 1
                    for rank, cid in enumerate(rec[key], 1):
                        if cid in positives:
                            mrr += 1.0 / rank
                            break
                assert 100.0 * mrr / evaluable == back.summary[stage]["mrr"][radius]

        successes = sum(
            1 for rec in back.per_query
            if rec["rte"] is not None and rec["rte"] <= 2.0 and rec["rre"] <= 5.0
        )
        assert 100.0 * successes / len(back.per_query) == \
            back.summary["reranked"]["success_rate"]

    @pytest.mark.parametrize("strategy, threads, reported", [
        ("ransac_rir", 3, 3), ("ransac_rir", 1, 1), ("none", 3, 1), ("alpha_qe", 2, 1),
    ])
    def test_timing_threads_are_the_threads_that_ran(self, aliased_world, strategy, threads,
                                                     reported):
        # only RANSAC-RIR spreads its candidates over a pool
        cfg = RunConfig(strategy=strategy, threads=threads, n_topk=3)
        outcomes = process_queries(aliased_world.database, aliased_world.queries, cfg)
        report = build_report(outcomes, cfg, len(aliased_world.database))
        assert report.timing["threads"] == reported

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

    @pytest.mark.parametrize("strategy,threads,pools", [
        ("ransac_rir", 2, 1), ("ransac_rir", 1, 0), ("spectral", 2, 0)])
    def test_a_run_opens_at_most_one_pool(self, aliased_world, monkeypatch,
                                          strategy, threads, pools):
        # RANSAC-RIR registers the candidates of every query on one pool
        opened = []

        class CountedPool(rerank.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(rerank, "ThreadPoolExecutor", CountedPool)
        cfg = RunConfig(strategy=strategy, n_topk=3, threads=threads)
        assert len(aliased_world.queries) >= 4
        process_queries(aliased_world.database, aliased_world.queries, cfg)
        assert len(opened) == pools

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
        assert report.summary["bench"] == [dataclasses.asdict(r) for r in rows]

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
