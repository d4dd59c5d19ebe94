import numpy as np
import pytest

from scanrank.errors import EmptyDatabaseError, NoEvaluableQueriesError
from scanrank.geometry import RigidTransform, rotation_about_z
from scanrank.metrics import (
    QueryOutcome,
    top1_distance_regressions,
    ground_truth_positives,
    mean_reciprocal_rank,
    pose_errors,
    recall_at_k,
    success_rate,
)
from scanrank.retrieval import build_index

from conftest import first_positive_rank, make_scan


def outcome(query_id, ranked_post, positives, ranked_pre=None, pre_dist=0.0, post_dist=0.0,
            pose=None, gt=None):
    """An outcome at radius 5 m whose first-positive ranks are counted by
    brute force over the given lists."""
    ranked_post = tuple(ranked_post)
    ranked_pre = tuple(ranked_pre) if ranked_pre is not None else ranked_post
    positives = frozenset(positives)
    return QueryOutcome(
        query_id=query_id,
        ranked_ids_pre=ranked_pre,
        ranked_ids_post=ranked_post,
        positives={5.0: positives},
        first_rank_pre={5.0: first_positive_rank(ranked_pre, positives)},
        first_rank_post={5.0: first_positive_rank(ranked_post, positives)},
        top1_distance_pre=pre_dist,
        top1_distance_post=post_dist,
        pose_estimate=pose,
        gt_relative=gt,
    )


class TestGroundTruthPositives:
    @staticmethod
    def positives(q, db, radius):
        return ground_truth_positives(db, db.distances_to(q.geo_location), radius)

    def test_colocated_included(self):
        q = make_scan("q", [[0, 0, 0]], geo=np.zeros(3))
        db = build_index([make_scan("a", [[0, 0, 0]], geo=np.zeros(3))])
        assert self.positives(q, db, 5.0) == {"a"}

    def test_threshold_straddle(self):
        q = make_scan("q", [[0, 0, 0]], geo=np.zeros(3))
        db = build_index([make_scan("a", [[0, 0, 0]], geo=np.array([10.0, 0.0, 0.0]))])
        assert self.positives(q, db, 5.0) == set()
        assert self.positives(q, db, 20.0) == {"a"}

    def test_reads_the_given_distances(self):
        db = build_index([make_scan(s, [[0, 0, 0]]) for s in ("a", "b", "c")])
        assert ground_truth_positives(db, np.array([6.0, 5.0, 0.0]), 5.0) == {"b", "c"}

    @pytest.mark.parametrize("distances", [np.zeros(2), np.zeros(4), np.zeros((3, 1))])
    def test_rejects_distances_of_another_shape(self, distances):
        db = build_index([make_scan(s, [[0, 0, 0]]) for s in ("a", "b", "c")])
        with pytest.raises(ValueError, match=r"distances must have shape \(3,\)"):
            ground_truth_positives(db, distances, 5.0)

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan])
    def test_rejects_a_radius_that_is_not_positive(self, radius):
        db = build_index([make_scan("a", [[0, 0, 0]])])
        with pytest.raises(ValueError, match="radius must be > 0"):
            ground_truth_positives(db, np.zeros(1), radius)

    def test_empty_database(self):
        # an empty database fails loudly when indexed, before any positives
        with pytest.raises(EmptyDatabaseError):
            ground_truth_positives(build_index([]), np.zeros(0), 5.0)


class TestRecallAtK:
    def test_both_top1_correct(self):
        outcomes = [outcome("q0", ["a", "b"], {"a"}), outcome("q1", ["c", "d"], {"c"})]
        assert recall_at_k(outcomes, 1, 5.0) == 100.0

    def test_rank3_hit_counts_at_5_not_1(self):
        outcomes = [
            outcome("q0", ["a", "b", "c", "d", "e"], {"a"}),
            outcome("q1", ["a", "b", "c", "d", "e"], {"c"}),
        ]
        assert recall_at_k(outcomes, 1, 5.0) == 50.0
        assert recall_at_k(outcomes, 5, 5.0) == 100.0

    def test_query_without_positives_excluded(self):
        outcomes = [
            outcome("q0", ["a"], {"a"}),
            outcome("q1", ["b"], set()),  # nearest scan 50 m away
        ]
        assert recall_at_k(outcomes, 1, 5.0) == 100.0

    def test_no_evaluable_queries(self):
        with pytest.raises(NoEvaluableQueriesError):
            recall_at_k([outcome("q0", ["a"], set())], 1, 5.0)

    def test_monotone_in_k(self, rng):
        for _ in range(20):
            ids = [f"c{i}" for i in range(20)]
            outcomes = []
            for q in range(10):
                order = list(rng.permutation(ids))
                pos = set(rng.choice(ids, size=3, replace=False))
                outcomes.append(outcome(f"q{q}", order, pos))
            values = [recall_at_k(outcomes, k, 5.0) for k in range(1, 21)]
            assert all(b >= a for a, b in zip(values, values[1:]))


class TestMeanReciprocalRank:
    def test_all_rank_one(self):
        outcomes = [outcome("q0", ["a"], {"a"}), outcome("q1", ["b"], {"b"})]
        assert mean_reciprocal_rank(outcomes, 5.0) == 100.0

    def test_ranks_one_and_two(self):
        outcomes = [
            outcome("q0", ["a", "b"], {"a"}),
            outcome("q1", ["b", "a"], {"a"}),
        ]
        assert mean_reciprocal_rank(outcomes, 5.0) == 75.0

    def test_missing_positive_contributes_zero(self):
        outcomes = [
            outcome("q0", ["a"], {"a"}),
            outcome("q1", ["b"], {"z"}),  # positive exists but never retrieved
        ]
        assert mean_reciprocal_rank(outcomes, 5.0) == 50.0

    def test_sandwich_between_r1_and_rmax(self, rng):
        for _ in range(30):
            ids = [f"c{i}" for i in range(15)]
            outcomes = []
            for q in range(int(rng.integers(2, 50))):
                order = list(rng.permutation(ids))
                pos = set(rng.choice(ids, size=int(rng.integers(1, 4)), replace=False))
                outcomes.append(outcome(f"q{q}", order, pos))
            mrr = mean_reciprocal_rank(outcomes, 5.0)
            assert recall_at_k(outcomes, 1, 5.0) <= mrr + 1e-9
            assert mrr <= recall_at_k(outcomes, 15, 5.0) + 1e-9


class TestEq3Violations:
    def test_unchanged_lists_no_violations(self):
        outcomes = [outcome("q0", ["a"], {"a"}, pre_dist=2.0, post_dist=2.0)]
        violations, pre, post = top1_distance_regressions(outcomes, 5.0)
        assert violations == 0
        assert pre == post == 2.0

    def test_improvement_counts_zero_and_mean_drops(self):
        outcomes = [outcome("q0", ["a"], {"a"}, pre_dist=21.0, post_dist=3.0)]
        violations, pre, post = top1_distance_regressions(outcomes, 5.0)
        assert violations == 0
        assert (pre, post) == (21.0, 3.0)

    def test_regression_is_a_violation(self):
        outcomes = [outcome("q0", ["a"], {"a"}, pre_dist=3.0, post_dist=21.0)]
        assert top1_distance_regressions(outcomes, 5.0)[0] == 1


class TestPoseErrors:
    def test_identical_transforms(self):
        T = RigidTransform(rotation_about_z(0.3), np.array([1.0, 2.0, 3.0]))
        assert pose_errors(T, T) == (0.0, 0.0)

    def test_pure_translation_offset(self):
        a = RigidTransform(np.eye(3), np.array([1.0, 0.0, 0.0]))
        b = RigidTransform.identity()
        rte, rre = pose_errors(a, b)
        assert rte == 1.0 and rre == 0.0

    def test_ten_degree_rotation(self):
        a = RigidTransform(rotation_about_z(np.radians(10.0)), np.zeros(3))
        rte, rre = pose_errors(a, RigidTransform.identity())
        assert rte == 0.0
        assert rre == pytest.approx(10.0, abs=1e-9)

    def test_zero_iff_equal(self, rng):
        from scanrank.geometry import random_rotation
        for _ in range(20):
            T = RigidTransform(random_rotation(rng), rng.standard_normal(3))
            U = RigidTransform(random_rotation(rng), rng.standard_normal(3))
            rte, rre = pose_errors(T, U)
            same = np.allclose(T.rotation, U.rotation) and np.allclose(T.translation, U.translation)
            assert (rte < 1e-9 and rre < 1e-6) == same


class TestSuccessRate:
    def exact(self):
        T = RigidTransform(rotation_about_z(0.5), np.array([3.0, 1.0, 0.0]))
        return T, T

    def test_all_exact(self):
        pose, gt = self.exact()
        outcomes = [outcome(f"q{i}", ["a"], {"a"}, pose=pose, gt=gt) for i in range(3)]
        assert success_rate(outcomes) == 100.0

    def test_one_of_two_beyond_rte(self):
        pose, gt = self.exact()
        bad = RigidTransform(gt.rotation, gt.translation + np.array([3.0, 0.0, 0.0]))
        outcomes = [
            outcome("q0", ["a"], {"a"}, pose=pose, gt=gt),
            outcome("q1", ["a"], {"a"}, pose=bad, gt=gt),
        ]
        assert success_rate(outcomes) == 50.0

    def test_boundary_inside(self):
        gt = RigidTransform.identity()
        pose = RigidTransform(
            rotation_about_z(np.radians(4.9)), np.array([1.9, 0.0, 0.0])
        )
        assert success_rate([outcome("q0", ["a"], {"a"}, pose=pose, gt=gt)]) == 100.0

    def test_missing_pose_counts_unsuccessful(self):
        pose, gt = self.exact()
        outcomes = [
            outcome("q0", ["a"], {"a"}, pose=pose, gt=gt),
            outcome("q1", ["a"], {"a"}, pose=None, gt=None),
        ]
        assert success_rate(outcomes) == 50.0
