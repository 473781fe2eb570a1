"""Template/search patch extraction with mean-value padding.

Crops follow the classic context rule: the template covers a square of
side sqrt((w + p)(h + p)) with p = (w + h)/2 around the target, and the
search patch scales that square by search_size / template_size. Samples
that fall outside the source image take the per-channel image mean and
are flagged in the pad mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import TrackingError
from ..localize import BoundingBox


@dataclass
class CropResult:
    """A resampled square patch plus the affine map back to image space.

    Patch pixel (u, v) samples image coordinate
    (origin[0] + u * scale, origin[1] + v * scale) in (x, y) order.
    """
    patch: np.ndarray          # (3, T, T) float64
    pad_mask: np.ndarray       # (T, T) bool, True where no in-image coverage
    scale: float               # image pixels per patch pixel
    origin: tuple[float, float]
    channel_means: np.ndarray  # (3,)


def context_side(box: BoundingBox) -> float:
    pad = (box.w + box.h) / 2.0
    return math.sqrt((box.w + pad) * (box.h + pad))


def _bilinear_mean_pad(image: np.ndarray, ys: np.ndarray, xs: np.ndarray,
                       means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample (3,H,W) image at float (y, x) grids; outside taps use means."""
    _, h, w = image.shape
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    fy = ys - y0
    fx = xs - x0

    out = np.zeros((3,) + ys.shape)
    coverage = np.zeros(ys.shape)
    taps = ((y0, x0, (1 - fy) * (1 - fx)), (y0, x0 + 1, (1 - fy) * fx),
            (y0 + 1, x0, fy * (1 - fx)), (y0 + 1, x0 + 1, fy * fx))
    for ty, tx, weight in taps:
        valid = (ty >= 0) & (ty < h) & (tx >= 0) & (tx < w)
        cy = np.clip(ty, 0, h - 1)
        cx = np.clip(tx, 0, w - 1)
        vals = np.where(valid[None], image[:, cy, cx], means[:, None, None])
        out += weight[None] * vals
        coverage += weight * valid
    mask = coverage == 0.0
    # zero-coverage pixels are exactly the channel mean, by definition
    out[:, mask] = np.broadcast_to(means[:, None], (3, int(mask.sum())))
    return out, mask


def _crop(frame: np.ndarray, center: tuple[float, float], side: float,
          out_size: int) -> CropResult:
    # image pixel i is centered at coordinate i; patch pixel u samples the
    # center of its cell inside the [center - side/2, center + side/2] square
    means = frame.reshape(3, -1).mean(axis=1)
    scale = side / out_size
    origin = (center[0] - side / 2.0 + 0.5 * scale,
              center[1] - side / 2.0 + 0.5 * scale)
    idx = np.arange(out_size, dtype=np.float64)
    xs = origin[0] + idx[None, :] * scale + np.zeros((out_size, 1))
    ys = origin[1] + idx[:, None] * scale + np.zeros((1, out_size))
    patch, mask = _bilinear_mean_pad(frame, ys, xs, means)
    return CropResult(patch=patch, pad_mask=mask, scale=scale, origin=origin,
                      channel_means=means)


def _check_box(frame: np.ndarray, box: BoundingBox) -> None:
    _, img_h, img_w = frame.shape
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


def pad_to_multiple(crop: CropResult, multiple: int) -> CropResult:
    """Mean-extend the patch bottom/right so its side divides ``multiple``.

    The extension is flagged in the pad mask, so the positional-code
    masking treats it like any other out-of-image area. The affine map is
    unchanged (the new pixels simply extend the sampled grid).
    """
    t = crop.patch.shape[1]
    target = ((t + multiple - 1) // multiple) * multiple
    if target == t:
        return crop
    extra = target - t
    patch = np.pad(crop.patch, ((0, 0), (0, extra), (0, extra)))
    patch[:, t:, :] = crop.channel_means[:, None, None]
    patch[:, :, t:] = crop.channel_means[:, None, None]
    mask = np.pad(crop.pad_mask, ((0, extra), (0, extra)), constant_values=True)
    return CropResult(patch=patch, pad_mask=mask, scale=crop.scale,
                      origin=crop.origin, channel_means=crop.channel_means)
