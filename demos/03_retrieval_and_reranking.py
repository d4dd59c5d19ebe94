"""
Descriptor retrieval and geometric re-ranking
=============================================

Generates a synthetic world containing structurally aliased places (decoys
that clone another place's geometry), shows descriptor-only retrieval being
fooled, and repairs the ranking with the registration-free spectral score.
Query-expansion re-ranking, which never looks at geometry, is shown for
contrast.
"""

from scanrank import (
    SpectralParams,
    WorldConfig,
    build_index,
    generate_world,
    query_topk,
    rerank_average_qe,
    rerank_spectral,
    score_candidates,
)

world = generate_world(WorldConfig(
    seed=12, num_places=30, num_queries=15, alias_fraction=0.4,
    points_per_scan=48, outlier_rate=0.2,
))
db = build_index(world.database)  # one Database serves retrieval and every re-ranker
n_topk, spectral = 10, SpectralParams()

fooled = repaired = 0
for query in world.queries:
    ranked = query_topk(db, query.global_descriptor, k=len(db))
    positives = world.truth[query.id]
    if ranked.ids[0] in positives:
        continue
    fooled += 1
    decoy = ranked.ids[0]
    out = rerank_spectral(query, ranked, n_topk, spectral)
    if out.ids[0] in positives:
        repaired += 1
    true_id = world.query_sources[query.id]
    (s_true, s_decoy), _ = score_candidates(
        query, [db.records[db.ids.index(true_id)], db.records[ranked.rows[0]]], spectral)
    print(f"{query.id}: descriptor picked {decoy}, spectral picked {out.ids[0]} "
          f"(s* true {s_true:.1f} vs decoy {s_decoy:.1f})")

print(f"\ndescriptor-only retrieval fooled on {fooled}/{len(world.queries)} queries; "
      f"spectral re-ranking repaired {repaired}/{fooled}")

# Query expansion re-retrieves with an aggregated descriptor. Averaging ten
# mostly-wrong candidates into the query just produces a noisier query.
qe_correct = base_correct = 0
for query in world.queries:
    ranked = query_topk(db, query.global_descriptor, k=len(db))
    base_correct += ranked.ids[0] in world.truth[query.id]
    expanded = rerank_average_qe(query.global_descriptor, ranked, n_qe=10, k=len(db))
    qe_correct += expanded.ids[0] in world.truth[query.id]

print(f"top-1 correct: baseline {base_correct}/{len(world.queries)}, "
      f"average query expansion {qe_correct}/{len(world.queries)}")
