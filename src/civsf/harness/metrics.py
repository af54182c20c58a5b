"""Evaluation metrics and forecast-horizon bucketing."""

from __future__ import annotations

import numpy as np

from civsf.errors import DomainError, ShapeError

BUCKET_LABELS = ("0 - 25 days", "25 - 50 days", "50 - 100 days", "More than 100 days")
_BUCKET_EDGES = (25, 50, 100)


def _pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError(f"prediction shape {pred.shape} != truth shape {truth.shape}")
    if pred.size == 0:
        raise DomainError("metric over empty input")
    return pred, truth


def mse(pred, truth) -> float:
    pred, truth = _pair(pred, truth)
    return float(((pred - truth) ** 2).mean())


def macro_f1(pred, truth, n_classes: int) -> float:
    """Unweighted mean of per-class F1; classes absent from both prediction
    and truth are excluded from the mean."""
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.shape != truth.shape:
        raise ShapeError(f"prediction shape {pred.shape} != truth shape {truth.shape}")
    if pred.size == 0:
        raise DomainError("macro-F1 over empty input")
    if n_classes < 1:
        raise DomainError(f"n_classes must be >= 1, got {n_classes}")
    scores = []
    for k in range(n_classes):
        tp = int(np.sum((pred == k) & (truth == k)))
        fp = int(np.sum((pred == k) & (truth != k)))
        fn = int(np.sum((pred != k) & (truth == k)))
        if tp + fp + fn == 0:
            continue
        scores.append(2.0 * tp / (2.0 * tp + fp + fn))
    if not scores:
        raise DomainError("no class present in prediction or truth")
    return float(np.mean(scores))


def bucketize(delta_days) -> str:
    """Half-open horizon buckets: [0,25), [25,50), [50,100), [100, inf)."""
    d = float(delta_days)
    if d < 0:
        raise DomainError(f"negative forecast horizon {delta_days}")
    for edge, label in zip(_BUCKET_EDGES, BUCKET_LABELS):
        if d < edge:
            return label
    return BUCKET_LABELS[-1]


def bucket_means(values, deltas) -> dict[str, float]:
    """Per-bucket means of per-instance metric values, plus the overall mean
    under key "all". Buckets with no instances are omitted."""
    values = np.asarray(values, dtype=np.float64)
    deltas = np.asarray(deltas)
    if values.shape != deltas.shape:
        raise ShapeError(f"{values.shape} values vs {deltas.shape} deltas")
    if values.size == 0:
        raise DomainError("bucket means over empty input")
    labels = np.array([bucketize(d) for d in deltas])
    out = {"all": float(values.mean())}
    for label in BUCKET_LABELS:
        hit = labels == label
        if hit.any():
            out[label] = float(values[hit].mean())
    return out
