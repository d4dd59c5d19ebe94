"""
Re-ranking cost versus candidate count
======================================

Times the two geometric-verification strategies while the number of
re-ranked candidates grows. Per-candidate registration scales linearly;
the spectral score is one batched computation on the calling thread whose
fixed costs amortize across candidates. `threads` spreads only the
registration candidates over a pool.
"""

from scanrank import WorldConfig, generate_world
from scanrank.pipeline import RunConfig, run_bench

world = generate_world(WorldConfig(seed=0, num_places=80, num_queries=20))
cfg = RunConfig(
    seed=0,
    threads=0,  # RANSAC-RIR workers: one per CPU
    bench_n_topk=(2, 5, 10, 20),
    bench_strategies=("spectral", "ransac_rir"),
)

rows, _ = run_bench(world.database, world.queries, cfg)
print(f"{'strategy':<12} {'n_topk':>6} {'t_rerank_ms':>12} {'R@1':>7} {'MRR':>7}")
for r in rows:
    print(f"{r.strategy:<12} {r.n_topk:>6d} {r.mean_rerank_ms:>12.3f} "
          f"{r.recall_at_1:>7.2f} {r.mrr:>7.2f}")

by = {(r.strategy, r.n_topk): r.mean_rerank_ms for r in rows}
for strategy in cfg.bench_strategies:
    ratio = by[(strategy, 20)] / by[(strategy, 2)]
    print(f"{strategy}: t(20)/t(2) = {ratio:.1f}")
