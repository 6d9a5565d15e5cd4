"""Ranking metric against the pair-counting oracle; log-loss identities."""

import math

import numpy as np
import pytest

from tensorfm import MetricError, auc, bce_from_score, evaluate, logloss

from oracles import auc_pair_oracle


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_ties_is_half(self):
        assert auc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5

    def test_hand_counted_pairs(self):
        # pairs: (0.8>0.6)=1, (0.8>0.2)=1, (0.6 vs 0.6)=1/2, (0.6>0.2)=1
        assert auc([0.8, 0.6, 0.6, 0.2], [1, 0, 1, 0]) == 0.875

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            auc([0.1, 0.9], [1, 1])
        with pytest.raises(MetricError):
            auc([0.1, 0.9], [0, 0])

    def test_matches_pair_oracle_exactly(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(2, 201))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # heavy ties: scores drawn from a small discrete set
            scores = rng.choice([0.1, 0.25, 0.5, 0.75], size=n)
            assert auc(scores, labels) == auc_pair_oracle(scores, labels)

    def test_invariant_under_strictly_increasing_transforms(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=300)
        labels = rng.integers(0, 2, size=300)
        labels[0], labels[1] = 0, 1
        base = auc(scores, labels)
        assert abs(auc(2.0 * scores + 1.0, labels) - base) < 1e-12
        assert abs(auc(np.tanh(scores), labels) - base) < 1e-12


class TestLogloss:
    def test_zero_scores_give_ln_two(self):
        assert abs(logloss([0.0, 0.0, 0.0], [1, 0, 1]) - math.log(2)) < 1e-15

    def test_saturated_correct_predictions(self):
        assert logloss([40.0, -40.0], [1, 0]) < 1e-17

    def test_matches_mean_of_per_instance_loss(self):
        scores = [0.3, -1.2, 2.0]
        labels = [1, 0, 1]
        per_instance = [float(bce_from_score(s, y)) for s, y in zip(scores, labels)]
        assert abs(logloss(scores, labels) - np.mean(per_instance)) < 1e-15

    def test_non_negative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            scores = rng.normal(scale=5, size=20)
            labels = rng.integers(0, 2, size=20)
            assert logloss(scores, labels) >= 0.0

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            logloss([], [])


class TestEvaluate:
    def test_report_fields(self):
        rep = evaluate([0.8, 0.6, 0.6, 0.2], [1, 0, 1, 0])
        assert rep.auc == 0.875
        assert rep.n_pos == 2 and rep.n_neg == 2
        assert 0.0 <= rep.auc <= 1.0 and rep.logloss >= 0.0
