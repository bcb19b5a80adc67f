"""Multi-class evaluation: confusion matrix, per-class and weighted scores, ROC.

Conventions fixed here and relied on everywhere else:
  - confusion matrix rows are actual classes, columns are predicted classes;
  - a per-class zero denominator never raises: the metric is 0.0 and the
    affected class carries a flag in the report;
  - weighted averages are support-weighted: sum(n_i * m_i) / N.

Precondition: one prediction per label, each a class index 0..K-1, and at
least one label (cli.cmd_eval and trainer.evaluate_classifier).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import write_atomic

N_CLASSES = 4
CLASS_NAMES = ("Suicidal", "Prodigal", "Greedy", "Normal")


class MetricsError(ValueError):
    pass


def confusion_matrix(predicted, actual, n_classes: int = N_CLASSES) -> np.ndarray:
    """Count matrix cm[actual, predicted] from class-index arrays (0-based)."""
    predicted = np.asarray(predicted, dtype=np.int64)
    actual = np.asarray(actual, dtype=np.int64)
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (actual, predicted), 1)
    return cm


def accuracy(cm: np.ndarray) -> float:
    return float(np.trace(cm) / cm.sum())


def _safe_divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros(len(num), dtype=np.float64)
    ok = den != 0
    out[ok] = num[ok] / den[ok]
    return out


def recall_per_class(cm: np.ndarray) -> np.ndarray:
    """diag / row sums; 0.0 for classes with no actual samples."""
    return _safe_divide(np.diag(cm).astype(np.float64), cm.sum(axis=1))


def precision_per_class(cm: np.ndarray) -> np.ndarray:
    """diag / column sums; 0.0 for classes never predicted."""
    return _safe_divide(np.diag(cm).astype(np.float64), cm.sum(axis=0))


def f_beta_per_class(precision, recall, beta: float = 1.0) -> np.ndarray:
    """Weighted harmonic mean of precision and recall (beta=1 gives F1)."""
    precision = np.asarray(precision, dtype=np.float64)
    recall = np.asarray(recall, dtype=np.float64)
    b2 = beta * beta
    return _safe_divide((1 + b2) * precision * recall, b2 * precision + recall)


def weighted(values, supports) -> float:
    """Support-weighted average sum(n_i * v_i) / N."""
    values = np.asarray(values, dtype=np.float64)
    supports = np.asarray(supports, dtype=np.float64)
    return float(np.dot(supports, values) / supports.sum())


def roc_curve(scores, positive) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-vs-rest ROC points from scores and boolean positives.

    Thresholds sweep the distinct scores in descending order; tied scores
    share a single step. Returns (fpr, tpr, thresholds) with the (0, 0)
    anchor prepended; the last point is always (1, 1).
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    n_pos = int(positive.sum())
    n_neg = int(positive.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise MetricsError("ROC needs at least one positive and one negative")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    p = positive[order]
    # indices where a run of equal scores ends
    last_of_run = np.nonzero(np.append(np.diff(s) != 0, True))[0]
    tp = np.cumsum(p)[last_of_run]
    fp = last_of_run + 1 - tp
    fpr = np.concatenate(([0.0], fp / n_neg))
    tpr = np.concatenate(([0.0], tp / n_pos))
    thresholds = np.concatenate(([np.inf], s[last_of_run]))
    return fpr, tpr, thresholds


def auc(fpr, tpr) -> float:
    """Trapezoidal area under a ROC curve."""
    fpr = np.asarray(fpr, dtype=np.float64)
    tpr = np.asarray(tpr, dtype=np.float64)
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))


@dataclass
class ClassReport:
    label: int  # 1-based class label
    name: str
    support: int
    precision: float
    recall: float
    fbeta: float
    auc: float | None = None
    flags: list[str] = field(default_factory=list)
    roc: tuple | None = field(default=None, repr=False)  # (fpr, tpr, thresholds); not serialised


@dataclass
class MetricsReport:
    accuracy: float
    per_class: list[ClassReport]
    weighted: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class": [
                {
                    "class": c.label,
                    "name": c.name,
                    "support": c.support,
                    "precision": c.precision,
                    "recall": c.recall,
                    "fbeta": c.fbeta,
                    "auc": c.auc,
                    "flags": c.flags,
                }
                for c in self.per_class
            ],
            "weighted": self.weighted,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)


def report(cm: np.ndarray, scores=None, labels=None) -> MetricsReport:
    """Assemble the full report from a confusion matrix.

    scores (n, K) class probabilities and labels (n,) actual class indices
    are optional; when given, each class's one-vs-rest ROC curve and AUC are
    filled in, or it is flagged auc_undefined.
    """
    if scores is not None:
        scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels, dtype=np.int64)
    k = cm.shape[0]
    supports = cm.sum(axis=1)
    predicted_counts = cm.sum(axis=0)
    rec = recall_per_class(cm)
    prec = precision_per_class(cm)
    fb = f_beta_per_class(prec, rec)
    per_class = []
    for i in range(k):
        flags = []
        if supports[i] == 0:
            flags.append("no_actual_samples")
        if predicted_counts[i] == 0:
            flags.append("never_predicted")
        if supports[i] and predicted_counts[i] and prec[i] + rec[i] == 0:
            flags.append("zero_precision_and_recall")
        curve = None
        if scores is not None:
            try:
                curve = roc_curve(scores[:, i], labels == i)
            except MetricsError:
                flags.append("auc_undefined")
        name = CLASS_NAMES[i] if k == N_CLASSES else f"class-{i + 1}"
        per_class.append(
            ClassReport(
                label=i + 1,
                name=name,
                support=int(supports[i]),
                precision=float(prec[i]),
                recall=float(rec[i]),
                fbeta=float(fb[i]),
                auc=None if curve is None else auc(*curve[:2]),
                flags=flags,
                roc=curve,
            )
        )
    weights = {
        "recall": weighted(rec, supports),
        "precision": weighted(prec, supports),
        "fbeta": weighted(fb, supports),
    }
    return MetricsReport(accuracy=accuracy(cm), per_class=per_class, weighted=weights)


def _csv(rows) -> str:
    """``rows`` as CSV text with \\r\\n line ends; no field needs quoting."""
    return "".join(",".join(map(str, row)) + "\r\n" for row in rows)


def write_confusion_csv(cm: np.ndarray, path) -> None:
    """Rows are actual classes, columns predicted."""
    k = cm.shape[0]
    write_atomic(path, _csv([["actual\\predicted"] + [f"Type-{j + 1}" for j in range(k)]]
                            + [[f"Type-{i + 1}"] + [int(x) for x in cm[i]] for i in range(k)]))


def write_roc_csv(label: int, curve: tuple[np.ndarray, np.ndarray, np.ndarray], path) -> None:
    """One class's curve (fpr, tpr, thresholds); label is 1-based."""
    fpr, tpr, thresholds = (column.tolist() for column in curve)
    write_atomic(path, "class,threshold,fpr,tpr\r\n" + "".join(
        f"Type-{label},{'inf' if math.isinf(t) else repr(t)},{x!r},{y!r}\r\n"
        for x, y, t in zip(fpr, tpr, thresholds)))
