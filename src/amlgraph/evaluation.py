"""Binary ranking metrics: ROC AUC, average precision, ROC curve."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricError


def _validate(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if scores.shape != labels.shape:
        raise MetricError(f"scores and labels differ in length: "
                          f"{scores.size} vs {labels.size}")
    if scores.size == 0:
        raise MetricError("no examples")
    if not np.all(np.isfinite(scores)):
        raise MetricError("scores must be finite")
    if not ((labels == 0) | (labels == 1)).all():
        raise MetricError("labels must be 0 or 1")
    labels = labels.astype(np.int64)
    if labels.min() == labels.max():
        raise MetricError("both classes must be present")
    return scores, labels


def roc_auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative (ties = 1/2).

    Computed from midranks, so it equals the trapezoidal area under the
    ROC curve exactly.
    """
    scores, labels = _validate(scores, labels)
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    # midranks: average the 1-based rank over each tie group
    boundaries = np.flatnonzero(np.diff(sorted_scores)) + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [scores.size]])
    ranks[order] = np.repeat((starts + stops + 1) / 2.0, stops - starts)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def average_precision(scores, labels) -> float:
    """Step-sum AP over descending scores; ties keep stable input order."""
    scores, labels = _validate(scores, labels)
    order = np.argsort(-scores, kind="stable")
    hits = labels[order]
    cum = np.cumsum(hits)
    precision = cum / np.arange(1, hits.size + 1)
    # cumsum adds in order: bitwise-equal to rank-by-rank enumeration
    total = np.cumsum(precision[hits == 1])[-1]
    return float(total / cum[-1])


@dataclass(frozen=True)
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray

    def area(self) -> float:
        return float(np.trapezoid(self.tpr, self.fpr))


def roc_curve(scores, labels) -> RocCurve:
    """One point per distinct score threshold, with (0,0) and (1,1) ends.

    A point's coordinates count examples with score >= its threshold.
    """
    scores, labels = _validate(scores, labels)
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    hits = labels[order]
    # last index of each tie group
    last = np.flatnonzero(np.diff(s) != 0)
    idx = np.concatenate([last, [s.size - 1]])
    tp = np.cumsum(hits)[idx].astype(np.float64)
    fp = (idx + 1) - tp
    n_pos = tp[-1]
    n_neg = fp[-1]
    fpr = np.concatenate([[0.0], fp / n_neg])
    tpr = np.concatenate([[0.0], tp / n_pos])
    thresholds = np.concatenate([[np.inf], s[idx]])
    return RocCurve(fpr, tpr, thresholds)


def export_roc(curve: RocCurve) -> str:
    """Delimited rows (fpr, tpr, threshold) for external plotting."""
    lines = ["fpr\ttpr\tthreshold"]
    for f, t, th in zip(curve.fpr, curve.tpr, curve.thresholds):
        lines.append(f"{float(f)!r}\t{float(t)!r}\t{float(th)!r}")
    return "\n".join(lines) + "\n"
