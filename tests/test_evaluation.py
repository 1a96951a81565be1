"""Ranking metrics against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amlgraph import evaluation as ev
from amlgraph.errors import MetricError


def auc_oracle(scores, labels):
    """All-pairs comparison: ties credit one half."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def ap_oracle(scores, labels):
    """Literal descending-order step sum with stable tie order."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    tp = 0
    total = 0.0
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            tp += 1
            total += tp / rank
    return total / labels.sum()


def random_instance(rng, n_max=50, ties=True):
    n = int(rng.integers(2, n_max + 1))
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    if ties:
        scores = rng.integers(0, 6, size=n) / 5.0
    else:
        scores = rng.random(n)
    return scores, labels


class TestAuc:
    def test_hand_case(self):
        scores = [0.9, 0.8, 0.7, 0.1]
        labels = [1, 0, 1, 0]
        assert ev.roc_auc(scores, labels) == 0.75

    def test_perfect_separation(self):
        assert ev.roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        scores = rng.random(10_000)
        labels = rng.integers(0, 2, size=10_000)
        assert abs(ev.roc_auc(scores, labels) - 0.5) < 0.02

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            scores, labels = random_instance(rng)
            assert ev.roc_auc(scores, labels) == auc_oracle(scores, labels)

    def test_all_ties_is_half(self):
        assert ev.roc_auc([0.5, 0.5, 0.5], [1, 0, 1]) == 0.5

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        scores, labels = random_instance(rng, ties=False)
        a = ev.roc_auc(scores, labels)
        assert ev.roc_auc(np.exp(3 * scores), labels) == a
        assert ev.roc_auc(scores ** 3, labels) == pytest.approx(a, abs=1e-12)

    def test_flip_labels_negate_scores(self):
        rng = np.random.default_rng(3)
        scores, labels = random_instance(rng)
        assert ev.roc_auc(-scores, 1 - labels) == pytest.approx(
            ev.roc_auc(scores, labels), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            ev.roc_auc([0.1, 0.2], [1, 1])
        with pytest.raises(MetricError):
            ev.roc_auc([], [])

    def test_bad_labels_rejected(self):
        with pytest.raises(MetricError):
            ev.roc_auc([0.1, 0.2], [0, 2])


class TestAveragePrecision:
    def test_all_positives_first(self):
        assert ev.average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_single_positive_rank_k(self):
        for k in range(1, 6):
            scores = np.linspace(1.0, 0.1, 6)
            labels = np.zeros(6, dtype=int)
            labels[k - 1] = 1
            assert ev.average_precision(scores, labels) == pytest.approx(1.0 / k)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            scores, labels = random_instance(rng)
            assert ev.average_precision(scores, labels) == ap_oracle(scores,
                                                                     labels)

    def test_random_scores_near_prevalence(self):
        rng = np.random.default_rng(5)
        scores = rng.random(10_000)
        labels = (rng.random(10_000) < 0.3).astype(int)
        prevalence = labels.mean()
        assert abs(ev.average_precision(scores, labels) - prevalence) < 0.02

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_oracle_property(self, seed):
        rng = np.random.default_rng(seed)
        scores, labels = random_instance(rng)
        assert ev.average_precision(scores, labels) == ap_oracle(scores, labels)
        assert ev.roc_auc(scores, labels) == auc_oracle(scores, labels)


def loop_roc_auc(scores, labels):
    """`roc_auc` as it was written with a Python loop over tie groups."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.float64)
    boundaries = np.flatnonzero(np.diff(scores[order])) + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [scores.size]])
    for a, b in zip(starts, stops):
        ranks[order[a:b]] = (a + b + 1) / 2.0
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def loop_average_precision(scores, labels):
    """`average_precision` as it was written with a Python loop over hits."""
    hits = labels[np.argsort(-scores, kind="stable")]
    cum = np.cumsum(hits)
    precision = cum / np.arange(1, hits.size + 1)
    total = 0.0
    for p in precision[hits == 1]:
        total += float(p)
    return float(total / cum[-1])


class TestLoopFree:
    """The array forms of the metrics keep the loops' bits."""

    @pytest.mark.parametrize("levels", [None, 50, 3, 1],
                             ids=["untied", "tied", "heavily-tied", "one-value"])
    def test_bitwise_equal_to_loops(self, levels):
        rng = np.random.default_rng(11)
        for n in (2, 3, 17, 256, 5000):
            for _ in range(5):
                labels = rng.integers(0, 2, size=n)
                labels[:2] = (0, 1)
                scores = (rng.random(n) if levels is None
                          else rng.integers(0, levels, size=n) / 7.0)
                assert (ev.roc_auc(scores, labels).hex()
                        == loop_roc_auc(scores, labels).hex())
                assert (ev.average_precision(scores, labels).hex()
                        == loop_average_precision(scores, labels).hex())


class TestRocCurve:
    def test_two_point_separation(self):
        c = ev.roc_curve([0.9, 0.1], [1, 0])
        np.testing.assert_array_equal(c.fpr, [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(c.tpr, [0.0, 1.0, 1.0])

    def test_monotone_and_endpoints(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            scores, labels = random_instance(rng)
            c = ev.roc_curve(scores, labels)
            assert (np.diff(c.fpr) >= 0).all() and (np.diff(c.tpr) >= 0).all()
            assert c.fpr[0] == 0.0 and c.tpr[0] == 0.0
            assert c.fpr[-1] == 1.0 and c.tpr[-1] == 1.0

    def test_area_equals_auc(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            scores, labels = random_instance(rng)
            c = ev.roc_curve(scores, labels)
            assert c.area() == pytest.approx(ev.roc_auc(scores, labels), abs=1e-12)

    def test_export_format(self):
        text = ev.export_roc(ev.roc_curve([0.9, 0.1], [1, 0]))
        lines = text.strip().split("\n")
        assert lines[0] == "fpr\ttpr\tthreshold"
        assert len(lines) == 4
