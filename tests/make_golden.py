"""Write the ranking pins that tests/test_golden.py checks.

    PYTHONPATH=src python tests/make_golden.py

For each pinned case (world, strategy) it runs `process_queries` on one
thread and records the ids of the first `N_TOPK` rows after re-ranking
(one space-separated string per query), plus recall@{1, 5, 20} and MRR at
5 m and 20 m, all exact, and a sha256 of the run's per-query results
records (`build_report(...).per_query`) without their timings, as
sorted-key JSON lines. The default world is the acceptance world, where
both geometric re-rankers reach 100% R@1, so only the order of the other
candidates can show a change; on the hard world (more outliers and
feature noise) spectral re-ranking lifts R@1 from 54% to 74%. A case
named "spectral+mutual" re-ranks by spectral fitness over mutual matches
only (`SpectralParams(mutual=True)`); a case named "spectral@2" re-ranks
only the first 2 candidates (`n_topk` = 2) and records the same 20 rows.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from scanrank.metrics import build_metric_report
from scanrank.pipeline import RunConfig, build_report, process_queries
from scanrank.rerank import Strategy
from scanrank.spectral import SpectralParams
from scanrank.synthgen import WorldConfig, generate_world

PINS = Path(__file__).with_name("golden_rankings.json")
N_TOPK = 20
RADII = (5.0, 20.0)
RECALL_KS = (1, 5, 20)
WORLDS = {
    "default": WorldConfig(),
    "hard": WorldConfig(outlier_rate=0.85, feature_noise_sigma=0.2),
}
MUTUAL = "+mutual"
CASES = ([("default", s.value) for s in Strategy] + [("hard", "none"), ("hard", "spectral")]
         + [("default", "spectral" + MUTUAL), ("hard", "spectral" + MUTUAL)]
         + [("default", "spectral@2"), ("hard", "spectral@2")])


def pinned_ranking(world, strategy: str, threads: int) -> dict:
    """The ranking record of one run, in the form stored in the pins."""
    strategy, _, n_topk = strategy.partition("@")
    spectral = SpectralParams(mutual=strategy.endswith(MUTUAL))
    cfg = RunConfig(strategy=strategy.removesuffix(MUTUAL), n_topk=int(n_topk or N_TOPK),
                    seed=0, threads=threads, spectral=spectral)
    outcomes = process_queries(world.database, world.queries, cfg)
    metrics = build_metric_report(outcomes, RECALL_KS, RADII, reranked=True,
                                  include_pose=False).to_dict()
    records = build_report(outcomes, cfg, len(world.database)).per_query
    lines = "\n".join(json.dumps({k: v for k, v in rec.items() if k != "timings"}, sort_keys=True)
                      for rec in records)
    return {
        "top": {o.query_id: " ".join(o.ranked_ids_post[:N_TOPK]) for o in outcomes},
        "recall": metrics["recall"],
        "mrr": metrics["mrr"],
        "records_sha256": hashlib.sha256(lines.encode()).hexdigest(),
    }


def main() -> None:
    worlds = {name: generate_world(cfg) for name, cfg in WORLDS.items()}
    pins = {f"{w}/{s}": pinned_ranking(worlds[w], s, threads=1) for w, s in CASES}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
