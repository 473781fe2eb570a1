"""Training objective for the offline model.

The score target is a Gaussian bump with a size-adaptive spread, peaking
at exactly 1 on the low-resolution cell containing the ground-truth
center. Classification uses a penalty-reduced pixel-wise focal loss; the
offset and size heads take L1 penalties evaluated only at that cell. The
joint objective is the unweighted sum of the three terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .localize import STRIDE
from .tensor import Tensor

CLAMP_EPS = 1e-7

# focal exponents of CornerNet (Law & Deng, ECCV 2018): alpha down-weights
# cells the score already gets right, beta reduces the penalty on negatives
# near the labelled peak
FOCAL_ALPHA = 2.0
FOCAL_BETA = 4.0

# a box whose corners shift by up to 3 sigma keeps IoU >= MIN_OVERLAP with
# the truth; sigma never falls below SIGMA_FLOOR cells
MIN_OVERLAP = 0.7
SIGMA_FLOOR = 0.5


@dataclass
class GroundTruth:
    """Localization targets for one search patch."""
    center: tuple[float, float]        # patch pixels
    cell: tuple[int, int]              # low-resolution cell (x, y) of center
    norm_size: tuple[float, float]     # box size / patch extent
    label: np.ndarray = field(repr=False)  # (Hs, Ws), peak exactly 1 at cell


def adaptive_sigma(box_w: float, box_h: float) -> float:
    """Spread from the largest corner-shift radius keeping IoU >= MIN_OVERLAP.

    The three quadratic cases bound the radius for a box whose corners move
    inward, outward, or one of each; sigma is radius/3, floored so tiny
    boxes still get a usable bump. Box extents are in grid cells.
    """
    if box_w <= 0 or box_h <= 0:
        raise ValueError("box extents must be positive")
    o = MIN_OVERLAP
    h, w = box_h, box_w

    b1 = h + w
    c1 = w * h * (1 - o) / (1 + o)
    r1 = (b1 - math.sqrt(b1 * b1 - 4 * c1)) / 2

    b2 = 2 * (h + w)
    c2 = (1 - o) * w * h
    r2 = (b2 - math.sqrt(b2 * b2 - 16 * c2)) / 8

    b3 = -2 * o * (h + w)
    c3 = (o - 1) * w * h
    r3 = (b3 + math.sqrt(b3 * b3 - 16 * o * c3)) / (8 * o)

    return max(min(r1, r2, r3) / 3.0, SIGMA_FLOOR)


def gaussian_label(cell: tuple[int, int], sigma: float, hs: int, ws: int) -> np.ndarray:
    """exp(-((x-cx)^2 + (y-cy)^2) / (2 sigma^2)) over the (hs, ws) grid."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    cx, cy = cell
    ys, xs = np.meshgrid(np.arange(hs, dtype=np.float64),
                         np.arange(ws, dtype=np.float64), indexing="ij")
    label = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma * sigma))
    label[cy, cx] = 1.0
    return label


def make_ground_truth(center: tuple[float, float], box_size: tuple[float, float],
                      side: int) -> GroundTruth:
    """Build all targets for a ground-truth box inside a square search patch
    of ``side`` pixels, a multiple of ``STRIDE``.

    Raises ``ValueError`` when the centre falls outside the patch.
    """
    cx, cy = center
    if not (0.0 <= cx < side and 0.0 <= cy < side):
        raise ValueError(f"ground-truth centre ({cx}, {cy}) lies outside the "
                         f"{side}x{side} patch")
    grid = side // STRIDE
    cell = (int(cx // STRIDE), int(cy // STRIDE))
    sigma = adaptive_sigma(box_size[0] / STRIDE, box_size[1] / STRIDE)
    return GroundTruth(
        center=(cx, cy),
        cell=cell,
        norm_size=(box_size[0] / side, box_size[1] / side),
        label=gaussian_label(cell, sigma, grid, grid),
    )


def focal_loss(score: Tensor, label: np.ndarray) -> Tensor:
    """Penalty-reduced pixel-wise focal loss, summed without normalization.

    Cells where the label equals exactly 1 contribute
    -(1-Y)^alpha log(Y); every other cell contributes
    -(1-label)^beta Y^alpha log(1-Y), with alpha = FOCAL_ALPHA and
    beta = FOCAL_BETA.
    """
    if score.shape != label.shape:
        raise ShapeError(f"score {score.shape} vs label {label.shape}")
    y = T.clamp(score, CLAMP_EPS, 1.0 - CLAMP_EPS)
    pos = (label == 1.0).astype(np.float64)
    neg_weight = (1.0 - label) ** FOCAL_BETA
    pos_term = T.mul(T.mul(T.power(T.sub(1.0, y), FOCAL_ALPHA), T.log(y)), pos)
    neg_term = T.mul(T.mul(T.power(y, FOCAL_ALPHA), T.log(T.sub(1.0, y))),
                     neg_weight * (1.0 - pos))
    return T.mul(T.tensor_sum(T.add(pos_term, neg_term)), -1.0)


def _at_cell(field: Tensor, cell) -> Tensor:
    """The channel vectors of a (B, Hs, Ws, C) field at (B, 2) cells, one
    (x, y) cell per sample: (B, C)."""
    cells = np.asarray(cell, dtype=np.int64)
    if field.ndim != 4 or cells.shape != (field.shape[0], 2):
        raise ShapeError(f"expected a (B, Hs, Ws, C) field and (B, 2) cells, "
                         f"got {field.shape} and {cells.shape}")
    return T.take(field, (np.arange(field.shape[0]), cells[:, 1], cells[:, 0]))


def offset_loss(offset: Tensor, center, cell) -> Tensor:
    """L1 between the predicted offsets at the target cells and the true
    residuals, summed over the batch.

    ``offset`` is a (B, Hs, Ws, 2) batch of maps; ``center`` and ``cell``
    hold one (x, y) pair per sample.
    """
    residual = np.asarray(center, dtype=np.float64) / STRIDE - np.asarray(cell)
    return T.tensor_sum(T.absolute(T.sub(_at_cell(offset, cell), residual)))


def size_loss(size: Tensor, norm_size, cell) -> Tensor:
    """L1 between the predicted normalized sizes at the target cells and
    the truth, summed over the batch.

    ``size`` is a (B, Hs, Ws, 2) batch of maps; ``norm_size`` and ``cell``
    hold one pair per sample.
    """
    return T.tensor_sum(T.absolute(T.sub(_at_cell(size, cell),
                                         np.asarray(norm_size, dtype=np.float64))))


def joint_loss(score_loss: Tensor, off_loss: Tensor, sz_loss: Tensor) -> Tensor:
    """The training objective: the unweighted sum of the three terms."""
    return T.add(score_loss, T.add(off_loss, sz_loss))
