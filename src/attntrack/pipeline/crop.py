"""Template/search patch extraction with mean-value padding.

Crops follow the classic context rule: the template covers a square of
side sqrt((w + p)(h + p)) with p = (w + h)/2 around the target, and the
search patch scales that square by search_size / template_size. Samples
that fall outside the source image take the per-channel image mean and
are flagged in the pad mask. Each crop comes out with a side that is a
multiple of the backbone's stride: a size that is not one is sampled as
asked, then extended at the bottom/right by flagged mean pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError, TrackingError
from ..localize import STRIDE, BoundingBox


@dataclass
class CropResult:
    """A resampled square patch plus the affine map back to image space.

    Patch pixel (u, v) samples image coordinate
    (origin[0] + u * scale, origin[1] + v * scale) in (x, y) order.
    """
    patch: np.ndarray          # (3, T, T) float64, T a multiple of STRIDE
    pad_mask: np.ndarray       # (T, T) bool, True where no in-image coverage
    scale: float               # image pixels per patch pixel
    origin: tuple[float, float]


def aligned_side(size: int) -> int:
    """The side of a crop sampled at ``size`` pixels: the next multiple of
    ``STRIDE``, so the backbone's grid tiles it exactly."""
    return (size + STRIDE - 1) // STRIDE * STRIDE


def context_side(box: BoundingBox) -> float:
    pad = (box.w + box.h) / 2.0
    return math.sqrt((box.w + pad) * (box.h + pad))


def _taps(coords: np.ndarray, extent: int) -> tuple[np.ndarray, np.ndarray]:
    """The two bilinear taps of each 1-D sample coordinate.

    Returns source indices clipped into the image and their weights, both
    (2, n); a tap that falls outside [0, extent) gets weight 0.
    """
    i0 = np.floor(coords).astype(np.int64)
    frac = coords - i0
    index = np.stack([i0, i0 + 1])
    weight = np.stack([1.0 - frac, frac]) * ((index >= 0) & (index < extent))
    return np.clip(index, 0, extent - 1), weight


def _bilinear_mean_pad(image: np.ndarray, ys: np.ndarray, xs: np.ndarray,
                       means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample (3,H,W) image on the grid rows ys x columns xs; outside taps use means.

    The bilinear weights of the four taps sum to 1, so mean padding is
    ``mean + sum(w_y * w_x * (image - mean))`` over the in-image taps, and
    the sum separates into a column pass and a row pass over the
    mean-centred image. Columns go first: the larger second gather then
    copies whole rows, and its second tap needs only one channel's buffer.
    """
    _, h, w = image.shape
    row_index, row_weight = _taps(ys, h)
    col_index, col_weight = _taps(xs, w)
    centred = image - means[:, None, None]
    cols = np.take(centred, col_index[0], axis=2) * col_weight[0]
    cols += np.take(centred, col_index[1], axis=2) * col_weight[1]
    out = np.take(cols, row_index[0], axis=1)
    out *= row_weight[0][:, None]
    mask = (row_weight.sum(axis=0) == 0.0)[:, None] \
        | (col_weight.sum(axis=0) == 0.0)[None, :]
    tap = np.empty(out.shape[1:])
    for channel, col_blend, mean in zip(out, cols, means):
        np.take(col_blend, row_index[1], axis=0, out=tap)
        tap *= row_weight[1][:, None]
        channel += tap
        channel += mean
        # zero-coverage pixels are exactly the channel mean, by definition
        channel[mask] = mean
    return out, mask


def _crop(frame: np.ndarray, center: tuple[float, float], side: float,
          out_size: int) -> CropResult:
    """Sample ``out_size`` pixels across the square, then mean-extend the
    bottom/right edges to ``aligned_side(out_size)``. The extension is
    flagged in the pad mask, so the positional-code masking treats it like
    any other out-of-image area, and the affine map covers it too."""
    # image pixel i is centered at coordinate i; patch pixel u samples the
    # center of its cell inside the [center - side/2, center + side/2] square
    means = frame.reshape(3, -1).mean(axis=1)
    scale = side / out_size
    origin = (center[0] - side / 2.0 + 0.5 * scale,
              center[1] - side / 2.0 + 0.5 * scale)
    idx = np.arange(out_size, dtype=np.float64)
    patch, mask = _bilinear_mean_pad(frame, origin[1] + idx * scale,
                                     origin[0] + idx * scale, means)
    extra = aligned_side(out_size) - out_size
    if extra:
        patch = np.pad(patch, ((0, 0), (0, extra), (0, extra)))
        patch[:, out_size:, :] = means[:, None, None]
        patch[:, :, out_size:] = means[:, None, None]
        mask = np.pad(mask, ((0, extra), (0, extra)), constant_values=True)
    return CropResult(patch=patch, pad_mask=mask, scale=scale, origin=origin)


def _check_box(frame: np.ndarray, box: BoundingBox) -> None:
    if frame.ndim != 3 or frame.shape[0] != 3:
        raise ShapeError(f"frame must be a (3, H, W) array, got shape {frame.shape}")
    _, img_h, img_w = frame.shape
    if not all(math.isfinite(v) for v in (box.cx, box.cy, box.w, box.h)):
        raise TrackingError(f"box {box} has a non-finite field")
    x, y, w, h = box.as_corner()
    if x + w <= 0 or y + h <= 0 or x >= img_w or y >= img_h:
        raise TrackingError(f"box {box} lies fully outside the {img_w}x{img_h} image")
    if box.w <= 0 or box.h <= 0:
        raise TrackingError(f"box {box} has non-positive extent")


def crop_template(frame: np.ndarray, box: BoundingBox, out_size: int) -> CropResult:
    """Context-padded square around the target, resampled to out_size."""
    _check_box(frame, box)
    return _crop(frame, (box.cx, box.cy), context_side(box), out_size)


def crop_search(frame: np.ndarray, prev_box: BoundingBox, search_size: int,
                template_size: int) -> CropResult:
    """Search patch: the template square scaled by search_size/template_size."""
    _check_box(frame, prev_box)
    side = context_side(prev_box) * search_size / template_size
    return _crop(frame, (prev_box.cx, prev_box.cy), side, search_size)


def patch_to_image(point: tuple[float, float], crop: CropResult) -> tuple[float, float]:
    return (crop.origin[0] + point[0] * crop.scale,
            crop.origin[1] + point[1] * crop.scale)


def image_to_patch(point: tuple[float, float], crop: CropResult) -> tuple[float, float]:
    return ((point[0] - crop.origin[0]) / crop.scale,
            (point[1] - crop.origin[1]) / crop.scale)
