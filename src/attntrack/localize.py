"""Prediction heads and center/size decoding on the output grid.

Three independent head stacks (score, center offset, normalized size) map
the decoder output to sigmoid-bounded maps. Decoding finds the peak of the
window-suppressed score map, refines it with the local offset, and scales
the normalized size by the search patch extent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Conv, Tensor

# output stride: one grid cell of the heads' maps (and of the backbone's
# tokens) spans STRIDE x STRIDE search-patch pixels
STRIDE = 8


@dataclass
class BoundingBox:
    """Axis-aligned box in pixel coordinates, center format."""
    cx: float
    cy: float
    w: float
    h: float

    def as_corner(self) -> tuple[float, float, float, float]:
        return (self.cx - self.w / 2.0, self.cy - self.h / 2.0, self.w, self.h)

    @staticmethod
    def from_corner(x: float, y: float, w: float, h: float) -> "BoundingBox":
        return BoundingBox(x + w / 2.0, y + h / 2.0, w, h)


@dataclass
class HeadMaps:
    """Sigmoid-bounded prediction maps on the output grids of a batch of
    search patches.

    score: (B, Hs, Ws, 1) target-presence probability;
    offset: (B, Hs, Ws, 2) sub-cell center correction, channels (x, y);
    size: (B, Hs, Ws, 2) box size normalized by patch extent, channels (w, h).
    """
    score: Tensor
    offset: Tensor
    size: Tensor


@dataclass
class HeadStack:
    """Three 1x1 convolutions; relu after the first two, sigmoid at the end."""
    conv: list[Conv]


@dataclass
class HeadWeights:
    score: HeadStack
    offset: HeadStack
    size: HeadStack


@dataclass
class CosineWindow:
    window: np.ndarray       # (Hs, Ws), peak 1 at the grid center
    influence: float


def _init_stack(rng: np.random.Generator, d: int, out_channels: int,
                final_bias: float) -> HeadStack:
    widths = [d, d, out_channels]
    conv = []
    c_in = d
    for i, c_out in enumerate(widths):
        kernel = Tensor(T.xavier_uniform(rng, (c_out, c_in, 1, 1)), requires_grad=True)
        bias = np.full(c_out, final_bias if i == len(widths) - 1 else 0.0)
        conv.append(Conv(kernel, Tensor(bias, requires_grad=True)))
        c_in = c_out
    return HeadStack(conv=conv)


def init_head_weights(rng: np.random.Generator, d: int,
                      score_bias: float = -2.0) -> HeadWeights:
    # negative initial score bias starts the presence map near zero, which
    # keeps the early focal-loss negatives cheap
    return HeadWeights(score=_init_stack(rng, d, 1, score_bias),
                       offset=_init_stack(rng, d, 2, 0.0),
                       size=_init_stack(rng, d, 2, 0.0))


def _run_stack(rows: Tensor, stack: HeadStack) -> Tensor:
    x = rows
    last = len(stack.conv) - 1
    for i, conv in enumerate(stack.conv):
        x = T.conv1x1(x, conv.kernel, conv.bias, relu=i < last)
    return T.sigmoid(x)


def heads_forward(decoder_out: Tensor, weights: HeadWeights) -> HeadMaps:
    """Run the three head stacks over a (B, Hs, Ws, d) decoder output.

    The 1x1 convs are products over the (cells, d) token rows, so the maps
    keep every leading axis of the input.
    """
    grid = decoder_out.shape[:-1]
    rows = T.reshape(decoder_out, (-1, decoder_out.shape[-1]))
    maps = [T.reshape(_run_stack(rows, stack), grid + (stack.conv[-1].kernel.shape[0],))
            for stack in (weights.score, weights.offset, weights.size)]
    return HeadMaps(score=maps[0], offset=maps[1], size=maps[2])


def make_cosine_window(hs: int, ws: int, influence: float) -> CosineWindow:
    """Separable raised-cosine window, renormalized so the peak is exactly 1.

    An axis of fewer than 3 cells is flat: ``np.hanning`` is zero at both
    ends, so on 2 cells it would be all zeros.
    """
    wy = np.hanning(hs) if hs > 2 else np.ones(hs)
    wx = np.hanning(ws) if ws > 2 else np.ones(ws)
    win = np.outer(wy, wx)
    win = win / win.max()
    return CosineWindow(window=win, influence=float(influence))


def apply_window(score: np.ndarray, win: CosineWindow) -> np.ndarray:
    """Weighted blend of the raw score map with the centered window prior."""
    if score.shape != win.window.shape:
        raise ShapeError(f"score {score.shape} vs window {win.window.shape}")
    lam = win.influence
    return (1.0 - lam) * score + lam * win.window


def peak_cell(score: np.ndarray) -> tuple[int, int]:
    """Grid (x, y) of the maximum; ties break at the smallest row-major index."""
    flat = int(np.argmax(score))
    gy, gx = divmod(flat, score.shape[1])
    return gx, gy


def decode_center(score: np.ndarray, offset: np.ndarray) -> tuple[float, float]:
    """Peak cell plus its local offset, scaled to search-patch pixels."""
    gx, gy = peak_cell(score)
    off = offset[gy, gx]
    return (STRIDE * (gx + float(off[0])), STRIDE * (gy + float(off[1])))


def decode_size(size: np.ndarray, cell: tuple[int, int],
                patch_w: int, patch_h: int) -> tuple[float, float]:
    """Normalized (w, h) at the peak cell scaled by the patch extent."""
    gx, gy = cell
    return (patch_w * float(size[gy, gx, 0]), patch_h * float(size[gy, gx, 1]))


def smooth_size(prev: tuple[float, float], pred: tuple[float, float],
                gamma: float) -> tuple[float, float]:
    """Per-component linear interpolation from the previous size."""
    return ((1.0 - gamma) * prev[0] + gamma * pred[0],
            (1.0 - gamma) * prev[1] + gamma * pred[1])
