"""Template/search patch extraction with mean-value padding.

Crops follow the classic context rule: the template covers a square of
side sqrt((w + p)(h + p)) with p = (w + h)/2 around the target, and the
search patch scales that square by search_size / template_size. Each
crop comes out with a side that is a multiple of the backbone's stride: a
size that is not one is sampled as asked, then extended at the
bottom/right.

A sample is covered when at least one of its bilinear taps lands in the
image. Sample coordinates increase along each axis, so the covered
samples form one window, and only that window is resampled. Every other
pixel of the patch, the extension included, is the per-channel image
mean by definition and is flagged in the pad mask.

The crop takes a ``Frame`` and reads it once, into one C-contiguous
channel-planar float64 array of its pixel values: 8-bit samples divided
by ``maxval``, float64 values as they are. The channel means and the
window both come from that array, so a frame crops bit for bit like the
planar float64 frame of its values, whatever its dtype and layout.
``planar_frame`` does that read on its own, for a caller that takes
several crops of one frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import TrackingError
from ..localize import STRIDE, BoundingBox
from .seqio import Frame


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
    # a coordinate below -2 or past the extent has both taps outside either
    # way; clipping keeps the cast to int64 in range for a huge square
    coords = np.clip(coords, -2.0, extent)
    i0 = np.floor(coords).astype(np.int64)
    frac = coords - i0
    index = np.stack([i0, i0 + 1])
    weight = np.stack([1.0 - frac, frac]) * ((index >= 0) & (index < extent))
    return np.clip(index, 0, extent - 1), weight


def _covered(weight: np.ndarray) -> tuple[int, int]:
    """The run [lo, hi) of samples with an in-image tap, from (2, n) tap
    weights. Sample coordinates increase, so the uncovered samples are a
    prefix and a suffix of the axis."""
    hit = np.flatnonzero(weight.sum(axis=0))
    return (int(hit[0]), int(hit[-1]) + 1) if hit.size else (0, 0)


def _planar_values(frame: Frame) -> np.ndarray:
    """The frame's pixel values as one C-contiguous (3, H, W) float64
    array: float64 values as they are, or copied planar, and 8-bit samples
    over maxval, written into a fresh array."""
    if frame.pixels.dtype == np.float64:
        return np.ascontiguousarray(frame.pixels)
    values = np.empty(frame.pixels.shape)
    np.divide(frame.pixels, frame.maxval, out=values)
    return values


def planar_frame(frame: Frame) -> Frame:
    """``frame`` read once: a float64 frame of its planar pixel values.
    Every crop of it is bit for bit the crop of ``frame``, and no crop of
    it reads the frame again, so several crops of one frame share one read."""
    return Frame(_planar_values(frame), frame.index)


def _sample_window(values: np.ndarray, means: np.ndarray,
                   rows: tuple[np.ndarray, np.ndarray],
                   cols: tuple[np.ndarray, np.ndarray],
                   out: np.ndarray) -> None:
    """Write into ``out`` (3, rows, cols) the bilinear samples of planar
    frame values at covered sample rows x columns, each axis given as its
    ``_taps`` (index, weight).

    The bilinear weights of the four taps sum to 1, so mean padding is
    ``mean + sum(w_y * w_x * (image - mean))`` over the in-image taps, and
    the sum separates into a column pass and a row pass over the
    mean-centred image. Columns go first: the larger second gather then
    copies whole rows. The column pass reads only the block of the image
    that the taps reach. Each channel runs both passes on its own, in
    buffers that the three channels share, so they stay in cache.
    """
    row_index, row_weight = rows
    col_index, col_weight = cols
    top, bottom = row_index.min(), row_index.max() + 1
    left, right = col_index.min(), col_index.max() + 1
    row_index, col_index = row_index - top, col_index - left
    row_weight = row_weight[:, :, None]
    # the indices are in range already; in mode "clip" np.take fills the
    # buffer it is given, where mode "raise" would take into a copy
    blend = np.empty((bottom - top, col_index.shape[1]))
    col_tap = np.empty_like(blend)
    row_tap = np.empty(out.shape[1:])
    for channel, plane, mean in zip(out, values, means):
        centred = plane[top:bottom, left:right] - mean
        np.take(centred, col_index[0], axis=1, out=blend, mode="clip")
        blend *= col_weight[0]
        np.take(centred, col_index[1], axis=1, out=col_tap, mode="clip")
        col_tap *= col_weight[1]
        blend += col_tap
        np.take(blend, row_index[0], axis=0, out=row_tap, mode="clip")
        np.multiply(row_tap, row_weight[0], out=channel)
        np.take(blend, row_index[1], axis=0, out=row_tap, mode="clip")
        row_tap *= row_weight[1]
        channel += row_tap
        channel += mean


def _crop(frame: Frame, box: BoundingBox, side: float,
          out_size: int) -> CropResult:
    """Sample ``out_size`` pixels across the square of ``side`` around
    ``box`` into a patch of side ``aligned_side(out_size)``. Only the
    covered window is sampled; the rest of the patch, the stride alignment
    at the bottom/right included, is the channel mean and is flagged in
    the pad mask. Raises ``TrackingError`` naming the box when the crop's
    scale is not finite and positive."""
    scale = side / out_size
    if not (math.isfinite(scale) and scale > 0.0):
        raise TrackingError(f"box {box} gives a crop scale of {scale}: "
                            f"its context square overflows or underflows")
    values = _planar_values(frame)
    means = values.reshape(3, -1).mean(axis=1)
    _, h, w = values.shape
    # image pixel i is centered at coordinate i; patch pixel u samples the
    # center of its cell inside the [center - side/2, center + side/2] square
    origin = (box.cx - side / 2.0 + 0.5 * scale,
              box.cy - side / 2.0 + 0.5 * scale)
    idx = np.arange(out_size, dtype=np.float64)
    rows = _taps(origin[1] + idx * scale, h)
    cols = _taps(origin[0] + idx * scale, w)
    r0, r1 = _covered(rows[1])
    c0, c1 = _covered(cols[1])
    aligned = aligned_side(out_size)
    patch = np.empty((3, aligned, aligned))
    fill = means[:, None, None]
    patch[:, :r0] = fill
    patch[:, r1:] = fill
    patch[:, r0:r1, :c0] = fill
    patch[:, r0:r1, c1:] = fill
    mask = np.ones((aligned, aligned), dtype=bool)
    if r0 < r1 and c0 < c1:
        _sample_window(values, means, tuple(a[:, r0:r1] for a in rows),
                       tuple(a[:, c0:c1] for a in cols),
                       patch[:, r0:r1, c0:c1])
        mask[r0:r1, c0:c1] = False
    return CropResult(patch=patch, pad_mask=mask, scale=scale, origin=origin)


def _check_box(frame: Frame, box: BoundingBox) -> None:
    """Raise ``TrackingError`` unless ``box`` is usable on ``frame``."""
    _, img_h, img_w = frame.pixels.shape
    if not all(math.isfinite(v) for v in (box.cx, box.cy, box.w, box.h)):
        raise TrackingError(f"box {box} has a non-finite field")
    x, y, w, h = box.as_corner()
    if x + w <= 0 or y + h <= 0 or x >= img_w or y >= img_h:
        raise TrackingError(f"box {box} lies fully outside the {img_w}x{img_h} image")
    if box.w <= 0 or box.h <= 0:
        raise TrackingError(f"box {box} has non-positive extent")


def crop_template(frame: Frame, box: BoundingBox,
                  out_size: int) -> CropResult:
    """Context-padded square around the target in ``frame``, resampled to
    out_size."""
    _check_box(frame, box)
    return _crop(frame, box, context_side(box), out_size)


def crop_search(frame: Frame, prev_box: BoundingBox,
                search_size: int, template_size: int) -> CropResult:
    """Search patch of ``frame``: the template square around ``prev_box``,
    scaled by search_size/template_size."""
    _check_box(frame, prev_box)
    side = context_side(prev_box) * search_size / template_size
    return _crop(frame, prev_box, side, search_size)


def patch_to_image(point: tuple[float, float], crop: CropResult) -> tuple[float, float]:
    return (crop.origin[0] + point[0] * crop.scale,
            crop.origin[1] + point[1] * crop.scale)


def image_to_patch(point: tuple[float, float], crop: CropResult) -> tuple[float, float]:
    return ((point[0] - crop.origin[0]) / crop.scale,
            (point[1] - crop.origin[1]) / crop.scale)
