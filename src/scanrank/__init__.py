"""Registration-free geometric verification for point-cloud retrieval re-ranking.

The library covers the full retrieve / re-rank / pose-estimate pipeline:

- `geometry`: SE(3) poses, scan records
- `storage`: binary scan archives, dataset manifests, results files
- `matching`: feature nearest-neighbour correspondences
- `spectral`: compatibility matrices and the spectral fitness score
- `registration`: Kabsch + seeded RANSAC, registered inlier ratio
- `retrieval`: the run's `Database`, ranked lists of its rows, exact top-k search
- `rerank`: spectral, RANSAC-inlier-ratio and query-expansion re-ranking
- `metrics`: Recall@k, MRR, top-1 distance checks, pose errors
- `synthgen`: deterministic synthetic worlds with structural aliasing
- `pipeline` / `cli`: end-to-end runs and the benchmark harness
"""

from .geometry import RigidTransform, ScanRecord, geo_distance
from .matching import CorrespondenceSet, match_features, sample_query_points
from .metrics import (
    MetricReport,
    QueryOutcome,
    top1_distance_regressions,
    ground_truth_positives,
    mean_reciprocal_rank,
    pose_errors,
    recall_at_k,
    success_rate,
)
from .registration import (
    RansacParams,
    RegistrationResult,
    kabsch_fit,
    ransac_register,
    registered_inlier_ratio,
)
from .rerank import (
    Strategy,
    rerank_alpha_qe,
    rerank_average_qe,
    rerank_rir,
    rerank_spectral,
)
from .retrieval import Database, RankedList, build_index, query_topk
from .spectral import (
    CompatibilityMatrix,
    SpectralParams,
    SpectralResult,
    build_compatibility_matrix,
    power_iterate,
    score_candidates,
)
from .storage import load_dataset, read_results, read_scan, write_results, write_scan
from .synthgen import SyntheticWorld, WorldConfig, export_world, generate_world

__version__ = "0.1.0"

__all__ = [
    "CompatibilityMatrix",
    "CorrespondenceSet",
    "Database",
    "MetricReport",
    "QueryOutcome",
    "RankedList",
    "RansacParams",
    "RegistrationResult",
    "RigidTransform",
    "ScanRecord",
    "SpectralParams",
    "SpectralResult",
    "Strategy",
    "SyntheticWorld",
    "WorldConfig",
    "build_compatibility_matrix",
    "build_index",
    "top1_distance_regressions",
    "export_world",
    "generate_world",
    "geo_distance",
    "ground_truth_positives",
    "kabsch_fit",
    "load_dataset",
    "match_features",
    "mean_reciprocal_rank",
    "pose_errors",
    "power_iterate",
    "query_topk",
    "ransac_register",
    "read_results",
    "read_scan",
    "recall_at_k",
    "registered_inlier_ratio",
    "rerank_alpha_qe",
    "rerank_average_qe",
    "rerank_rir",
    "rerank_spectral",
    "sample_query_points",
    "score_candidates",
    "success_rate",
    "write_results",
    "write_scan",
]
