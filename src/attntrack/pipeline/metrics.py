"""Overlap metrics for tracked sequences (one-pass evaluation style)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..localize import BoundingBox

SUCCESS_THRESHOLDS = np.round(np.arange(0.0, 1.0001, 0.05), 10)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes in continuous geometry.

    Both areas are taken from the same rounded corner spans as the
    intersection, so a box scores exactly 1 against itself, and, rounding
    being monotone, the result never leaves [0, 1].
    """
    ax0, ay0, aw, ah = a.as_corner()
    bx0, by0, bw, bh = b.as_corner()
    ax1, ay1, bx1, by1 = ax0 + aw, ay0 + ah, bx0 + bw, by0 + bh
    ix = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    iy = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = ix * iy
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union if union > 0 else 0.0


@dataclass
class TrackingMetrics:
    per_frame_iou: list[float]
    mean_iou: float
    success_at_05: float
    success_at_075: float
    auc: float

    def to_dict(self) -> dict:
        return {
            "mean_iou": self.mean_iou,
            "success_at_0.50": self.success_at_05,
            "success_at_0.75": self.success_at_075,
            "success_auc": self.auc,
            "per_frame_iou": self.per_frame_iou,
        }


def evaluate(pred: list[BoundingBox], truth: list[BoundingBox]) -> TrackingMetrics:
    """Per-frame IoU, mean IoU, success rates, and success-curve AUC.

    Success at threshold t counts frames with IoU >= t, so a perfect run
    scores AUC exactly 1.
    """
    if len(pred) != len(truth):
        raise ValueError(f"prediction/truth length mismatch: {len(pred)} vs {len(truth)}")
    if not pred:
        raise ValueError("empty sequences cannot be evaluated")
    ious = np.array([iou(p, t) for p, t in zip(pred, truth)])
    success = np.array([(ious >= t).mean() for t in SUCCESS_THRESHOLDS])
    return TrackingMetrics(
        per_frame_iou=[float(v) for v in ious],
        mean_iou=float(ious.mean()),
        success_at_05=float((ious >= 0.5).mean()),
        success_at_075=float((ious >= 0.75).mean()),
        auc=float(success.mean()),
    )
