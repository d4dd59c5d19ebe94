import argparse
import hashlib
import json
import re
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

from scanrank import cli
from scanrank.cli import build_parser, main
from scanrank.pipeline import RunConfig
from scanrank.registration import RansacParams
from scanrank.rerank import Strategy
from scanrank.spectral import SpectralParams
from scanrank.storage import read_results
from scanrank.synthgen import WorldConfig

from conftest import MISPLACED_RECORDS


def tree_digest(root: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir()) if p.is_file()
    }


def write_config(path: Path, **kv) -> Path:
    lines = ["# test config"] + [f"{k} = {v}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    cfg = write_config(
        root / "world.cfg",
        seed=9, num_places=16, num_queries=6, points_per_scan=32,
        alias_fraction=0.25, outlier_rate=0.3,
    )
    assert main(["synth", "--config", str(cfg), "--out", str(root / "world")]) == 0
    return root / "world" / "manifest.txt"


class TestSynth:
    def test_writes_manifest_and_archives(self, tmp_path):
        out = tmp_path / "w"
        cfg = write_config(tmp_path / "c.cfg", num_places=4, num_queries=2,
                           points_per_scan=16, alias_fraction=0.0)
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "manifest.txt").exists()
        assert len(list(out.glob("*.sgv"))) == 6

    def test_repeated_seed_identical_output(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", seed=5, num_places=4, num_queries=2,
                           points_per_scan=16, alias_fraction=0.0)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_malformed_config_exits_1_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("num_places = 4\nwhatever\n")
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "w")]) == 1
        assert ":2:" in capsys.readouterr().err

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        bad = write_config(tmp_path / "bad.cfg", not_a_key=3)
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "w")]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        assert main(["synth", "--seed", "-1", "--out", str(tmp_path / "w")]) == 1
        assert capsys.readouterr().err == "scanrank: config error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "w").exists()

    @pytest.mark.parametrize("command", ["synth", "run"])
    def test_non_utf8_config_exits_1_naming_the_file(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"seed = 1\n# caf\xe9\n")
        argv = [command, "--config", str(bad)] + (["--out", str(tmp_path / "w")]
                                                    if command == "synth" else [])
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            f"scanrank: config error: {bad}: not UTF-8 text")


def readme_run_keys() -> set[str]:
    """The run/bench config keys the README lists."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listing = text.split("config keys for `run`/`bench`:", 1)[1].split("`synth` accepts", 1)[0]
    return set(re.findall(r"`([a-z_]+)`", listing))


class TestConfigSchema:
    """Every config key, set to a value other than its default, loads to the
    dataclass field it names."""

    RUN = dict(
        strategy="alpha_qe", n_topk=7, n_qe=3, alpha=2.5, radii="4,9.5", recall_ks="1,3",
        seed=11, threads=2, out="elsewhere.jsonl", d_thr=0.4, n_max=64, tol=1e-7,
        max_iters=50, mutual="true", inlier_threshold=0.7, ransac_iterations=300,
        confidence=0.99, bench_n_topk="3,5", bench_strategies="none,average_qe",
    )
    WORLD = dict(
        seed=3, num_places=40, num_queries=7, place_spacing=30.0, points_per_scan=24,
        crop_radius=9.0, alias_fraction=0.1, feature_noise_sigma=0.02, outlier_rate=0.2,
        descriptor_noise_sigma=0.3, pose_trans_sigma=0.25, pose_rot_sigma_deg=2.0,
        descriptor_dim=8, feature_dim=4,
    )

    def test_every_run_key_sets_its_field(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("db a a.sgv\n")
        path = write_config(tmp_path / "run.cfg", manifest=manifest, **self.RUN)
        cfg, _ = cli.load_run_config(path, argparse.Namespace())
        assert cfg == RunConfig(
            manifest=str(manifest), strategy="alpha_qe", n_topk=7, n_qe=3, alpha=2.5,
            radii=(4.0, 9.5), recall_ks=(1, 3), seed=11, threads=2, out="elsewhere.jsonl",
            spectral=SpectralParams(d_thr=0.4, n_max=64, tol=1e-7, max_iters=50, mutual=True),
            ransac=RansacParams(inlier_threshold=0.7, max_iterations=300, confidence=0.99),
            bench_n_topk=(3, 5), bench_strategies=("none", "average_qe"),
        )
        assert cfg.ransac.seed == RansacParams().seed  # the run seed replaces it per query

    def test_every_world_key_sets_its_field(self, tmp_path):
        path = write_config(tmp_path / "world.cfg", **self.WORLD)
        assert cli.load_world_config(path) == WorldConfig(**self.WORLD)
        assert set(self.WORLD) == {f.name for f in fields(WorldConfig)}

    def test_run_keys_are_the_readme_list(self, tmp_path, capsys):
        # 20 keys, set above; no field name outside the list is a key
        assert set(self.RUN) | {"manifest"} == readme_run_keys() == set(cli._RUN_KEYS)
        assert len(readme_run_keys()) == 20
        assert set(cli._WORLD_KEYS) == set(self.WORLD)
        names = {f.name for cls in (RunConfig, SpectralParams, RansacParams)
                 for f in fields(cls)}
        for name in sorted(names - readme_run_keys()):
            path = write_config(tmp_path / f"{name}.cfg", **{name: 1})
            assert main(["run", "--config", str(path)]) == 1
            assert f"unknown key {name!r}" in capsys.readouterr().err

    def test_a_field_without_a_parser_has_no_key(self):
        @dataclass
        class Odd:
            x: complex = 0j

        with pytest.raises(KeyError):
            cli._keys(Odd)


class TestRun:
    def test_full_run_and_report(self, small_dataset, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        code = main([
            "run", "--manifest", str(small_dataset), "--strategy", "spectral",
            "--threads", "1", "--out", str(out),
        ])
        assert code == 0
        report = read_results(out)
        assert report.summary["strategy"] == "spectral"
        assert "reranked" in report.summary
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        shown = capsys.readouterr().out
        assert "baseline" in shown and "reranked" in shown

    def test_a_run_where_no_query_registers_prints_and_reports(self, small_dataset, tmp_path,
                                                               capsys):
        # n_max 2 leaves RANSAC too few correspondences, so the mean pose
        # errors are null
        cfg = write_config(tmp_path / "r.cfg", n_max=2)
        out = tmp_path / "results.jsonl"
        assert main(["run", "--config", str(cfg), "--manifest", str(small_dataset),
                     "--threads", "1", "--out", str(out)]) == 0
        assert read_results(out).summary["reranked"]["mean_rte"] is None
        shown = capsys.readouterr().out
        assert "success=0.00% mean_rte=n/a m mean_rre=n/a deg" in shown
        assert main(["report", str(out)]) == 0
        assert "success=0.00% mean_rte=n/a m mean_rre=n/a deg" in capsys.readouterr().out

    def test_spectral_run_reports_the_one_thread_it_ran_on(self, small_dataset, tmp_path,
                                                           capsys):
        out = tmp_path / "results.jsonl"
        assert main(["run", "--manifest", str(small_dataset), "--strategy", "spectral",
                     "--threads", "4", "--out", str(out)]) == 0
        assert read_results(out).timing["threads"] == 1
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "'threads': 1" in capsys.readouterr().out

    def test_config_file_with_overrides(self, small_dataset, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", manifest=str(small_dataset),
                           strategy="none", n_topk=5, seed=3)
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(cfg), "--strategy", "average_qe",
                     "--out", str(out), "--threads", "1"]) == 0
        report = read_results(out)
        assert report.summary["strategy"] == "average_qe"
        assert report.summary["n_topk"] == 5

    def test_missing_manifest_exits_1(self, tmp_path):
        assert main(["run", "--manifest", str(tmp_path / "none.txt")]) == 1

    def test_manifest_path_escaping_its_directory_exits_1(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("db a a.sgv\nquery q ../q.sgv\n")
        assert main(["run", "--manifest", str(manifest), "--threads", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("scanrank: config error: ")
        assert f"{manifest}:2: path '../q.sgv' escapes the dataset directory" in err

    def test_unknown_strategy_exits_1(self, small_dataset, tmp_path):
        cfg = write_config(tmp_path / "r.cfg", manifest=str(small_dataset),
                           strategy="sorcery")
        assert main(["run", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("argv, config, message", [
        (["--strategy", "spectral", "--n-topk", "0"], {}, "n_topk must be >= 1"),
        (["--strategy", "ransac_rir", "--n-topk", "0"], {}, "n_topk must be >= 1"),
        (["--strategy", "average_qe", "--n-topk", "0"], {}, "n_topk must be >= 1"),
        (["--strategy", "alpha_qe"], {"alpha": 0}, "alpha must be > 0"),
        (["--strategy", "average_qe"], {"n_qe": -1}, "n_qe must be >= 0"),
        ([], {"radii": "5,-1"}, "radii must be"),
        ([], {"recall_ks": "1,0"}, "every recall k must be >= 1"),
        ([], {"d_thr": "nan"}, "d_thr must be finite and > 0, got nan"),
        ([], {"d_thr": "inf"}, "d_thr must be finite and > 0, got inf"),
        ([], {"tol": "nan"}, "tol must be finite and > 0, got nan"),
        ([], {"inlier_threshold": "nan"}, "inlier_threshold must be finite and > 0, got nan"),
        ([], {"inlier_threshold": "inf"}, "inlier_threshold must be finite and > 0, got inf"),
        (["--threads", "-1"], {}, "threads must be >= 0 (0 = one per CPU), got -1"),
        (["--seed", "-1"], {}, "seed must be >= 0, got -1"),
    ])
    def test_out_of_range_value_is_a_config_error(self, small_dataset, tmp_path, capsys,
                                                  monkeypatch, argv, config, message):
        def no_loading(*args):
            raise AssertionError("the dataset was loaded before the config was checked")

        monkeypatch.setattr(cli, "run_from_manifest", no_loading)
        cfg = write_config(tmp_path / "r.cfg", manifest=str(small_dataset), **config)
        assert main(["run", "--config", str(cfg), "--threads", "1", *argv]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("scanrank: config error: ")
        assert message in err
        assert out == ""

    def test_a_flags_bad_value_does_not_blame_the_config_file(self, small_dataset, tmp_path,
                                                               capsys):
        cfg = write_config(tmp_path / "r.cfg", n_topk=3)
        assert main(["run", "--config", str(cfg), "--manifest", str(small_dataset),
                     "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "seed must be >= 0, got -1" in err
        assert str(cfg) not in err and "r.cfg" not in err

    def test_strategy_choices_are_the_strategy_enum(self):
        names = {s.value for s in Strategy}
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for command in ("run", "bench"):
            action = next(a for a in sub.choices[command]._actions if a.dest == "strategy")
            assert set(action.choices) == names
        for name in names:
            assert RunConfig(strategy=name).strategy == name
        with pytest.raises(ValueError):
            RunConfig(strategy="sorcery")

    @pytest.mark.parametrize("record", [
        "[1, 2]", '{"kind": "header"}', '{"kind": "summary", "mrr": 1.0}',
        '{"kind": "header", "config": "x"}', '{"kind": "summary", "summary": "baseline"}',
        '{"kind": "summary", "summary": {"baseline": {"recall": 1}}}',
        '{"kind": "summary", "summary": {"bench": [{"strategy": "none", "n_topk": 2}]}}',
    ], ids=["array", "header-without-config", "summary-without-summary",
            "config-not-an-object", "summary-not-an-object", "metric-block-not-an-object",
            "bench-row-without-metrics"])
    def test_report_on_a_malformed_record_exits_2(self, tmp_path, capsys, record):
        path = tmp_path / "r.jsonl"
        path.write_text(record + "\n")
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"scanrank: error: {path}:1: ")

    @pytest.mark.parametrize("lines, where, message", [case[1:] for case in MISPLACED_RECORDS],
                             ids=[case[0] for case in MISPLACED_RECORDS])
    def test_report_without_one_header_and_one_summary_exits_2(self, tmp_path, capsys, lines,
                                                               where, message):
        path = tmp_path / "r.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        assert main(["report", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"scanrank: error: {path}{where}: {message}\n"

    def test_usage_error_exits_1(self):
        assert main(["run", "--strategy", "not-a-choice"]) == 1

    def test_runtime_failure_exits_2(self, small_dataset, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["run", "--manifest", str(small_dataset), "--threads", "1",
                     "--out", str(blocker / "sub" / "r.jsonl")])
        assert code == 2

    def test_corrupt_archive_exits_2_naming_the_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", num_places=4, num_queries=2,
                           points_per_scan=16, alias_fraction=0.0)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "w")]) == 0
        archive = tmp_path / "w" / "db0001.sgv"
        data = bytearray(archive.read_bytes())
        data[20:21] = b"\xff"  # first byte of the scan id: not UTF-8
        archive.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["run", "--manifest", str(tmp_path / "w" / "manifest.txt"),
                     "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scanrank: error: ")
        assert str(archive) in err

    def test_determinism_across_thread_counts(self, small_dataset, tmp_path):
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"d{threads}.jsonl"
            assert main(["run", "--manifest", str(small_dataset), "--strategy",
                         "spectral", "--seed", "4", "--threads", threads,
                         "--out", str(out)]) == 0
            summary = [
                line for line in out.read_text().splitlines()
                if '"kind": "summary"' in line
            ]
            digests.append(summary)
        assert digests[0] == digests[1]


class TestBench:
    def test_bench_table_rows(self, small_dataset, tmp_path, capsys):
        cfg = write_config(tmp_path / "b.cfg", manifest=str(small_dataset),
                           bench_n_topk="2,4", bench_strategies="spectral,ransac_rir")
        out = tmp_path / "bench.jsonl"
        assert main(["bench", "--config", str(cfg), "--threads", "1",
                     "--out", str(out)]) == 0
        shown = capsys.readouterr().out
        assert "spectral" in shown and "ransac_rir" in shown
        rows = read_results(out).summary["bench"]
        assert [(r["strategy"], r["n_topk"]) for r in rows] == [
            ("spectral", 2), ("spectral", 4), ("ransac_rir", 2), ("ransac_rir", 4),
        ]

    @pytest.mark.parametrize("strategies, threads", [
        ("spectral", 1), ("spectral,ransac_rir", 3),
    ])
    def test_bench_records_the_threads_that_ran(self, small_dataset, tmp_path, capsys,
                                                strategies, threads):
        # the rule run uses: RANSAC-RIR's worker count if it is in the grid, else 1
        cfg = write_config(tmp_path / "b.cfg", manifest=str(small_dataset),
                           bench_n_topk="2", bench_strategies=strategies)
        out = tmp_path / "bench.jsonl"
        assert main(["bench", "--config", str(cfg), "--threads", "3",
                     "--out", str(out)]) == 0
        assert read_results(out).timing["threads"] == threads

    def test_bench_prints_the_lines_report_prints(self, small_dataset, tmp_path, capsys):
        cfg = write_config(tmp_path / "b.cfg", manifest=str(small_dataset),
                           bench_n_topk="2,4", bench_strategies="spectral,ransac_rir")
        out = tmp_path / "bench.jsonl"
        assert main(["bench", "--config", str(cfg), "--threads", "1",
                     "--out", str(out)]) == 0
        *bench_lines, written = capsys.readouterr().out.splitlines()
        assert written == f"results written to {out}"
        assert main(["report", str(out)]) == 0
        config, *report_lines, timing = capsys.readouterr().out.splitlines()
        assert config.startswith("config: ") and timing.startswith("timing: ")
        assert bench_lines == report_lines
        assert [line.split()[:2] for line in bench_lines] == [
            ["spectral", "n_topk=2"], ["spectral", "n_topk=4"],
            ["ransac_rir", "n_topk=2"], ["ransac_rir", "n_topk=4"],
        ]

    def test_report_on_bench_file(self, small_dataset, tmp_path, capsys):
        cfg = write_config(tmp_path / "b.cfg", manifest=str(small_dataset),
                           bench_n_topk="2", bench_strategies="spectral")
        out = tmp_path / "bench.jsonl"
        assert main(["bench", "--config", str(cfg), "--threads", "1",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "spectral" in capsys.readouterr().out
