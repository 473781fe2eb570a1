"""Seeded synthetic sequences: a textured rectangle over a textured field.

Frames are deterministic functions of the seed and the spec. The target
carries its own texture tile (stretched to the current box), so its
appearance is stable as it translates and rescales; an optional distractor
rectangle on a fixed path, a late multiplicative brightness drift and a late
change of the target's texture provide controlled nuisance factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..localize import BoundingBox
from .seqio import Frame

# cells per side of the coarse background grid before upsampling
TEXTURE_CELLS = 7
# the distractor's (cx, cy, w, h) on frame 0 and its motion in pixels / frame
DISTRACTOR_START = (28.0, 80.0, 22.0, 16.0)
DISTRACTOR_VELOCITY = (-1.0, -0.8)


@dataclass
class SequenceSpec:
    image_size: tuple[int, int] = (112, 112)           # (H, W)
    start_box: tuple[float, float, float, float] = (56.0, 56.0, 26.0, 20.0)
    velocity: tuple[float, float] = (1.5, 1.0)         # pixels / frame
    size_rate: float = 0.0                             # fractional growth / frame
    distractor: bool = False
    brightness_drift: float = 0.0                      # total drop by final frame
    drift_start: float = 0.5                           # fraction of sequence
    # the target's tile blends linearly towards a second tile, reaching
    # this weight on the final frame; 0 draws no second tile
    appearance_change: float = 0.0
    change_start: float = 0.5                          # fraction of sequence
    # fine static grain keeps background positions distinguishable even
    # after frames round-trip through 8-bit files
    background_noise: float = 0.02

    def __post_init__(self):
        # written so that NaN fails too
        if not all(side >= 1 for side in self.image_size):
            raise ConfigurationError(
                f"image_size sides must be at least 1, got {self.image_size}")
        for name in ("brightness_drift", "drift_start", "appearance_change",
                     "change_start"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {getattr(self, name)}")


def _smooth_texture(rng: np.random.Generator, cells: int, h: int, w: int) -> np.ndarray:
    """Coarse random grid upsampled bilinearly to (3, h, w)."""
    coarse = rng.uniform(0.1, 0.9, size=(3, cells, cells))
    ys = np.linspace(0, cells - 1, h)
    xs = np.linspace(0, cells - 1, w)
    y0 = np.minimum(ys.astype(int), cells - 2)
    x0 = np.minimum(xs.astype(int), cells - 2)
    fy = (ys - y0)[None, :, None]
    fx = (xs - x0)[None, None, :]
    c00 = coarse[:, y0][:, :, x0]
    c01 = coarse[:, y0][:, :, x0 + 1]
    c10 = coarse[:, y0 + 1][:, :, x0]
    c11 = coarse[:, y0 + 1][:, :, x0 + 1]
    return (c00 * (1 - fy) * (1 - fx) + c01 * (1 - fy) * fx
            + c10 * fy * (1 - fx) + c11 * fy * fx)


def _paint_rect(canvas: np.ndarray, box: BoundingBox, tile: np.ndarray) -> None:
    """Nearest-sample the tile across the box footprint (clipped to canvas)."""
    _, img_h, img_w = canvas.shape
    x0 = int(round(box.cx - box.w / 2.0))
    y0 = int(round(box.cy - box.h / 2.0))
    x1 = int(round(box.cx + box.w / 2.0))
    y1 = int(round(box.cy + box.h / 2.0))
    cx0, cy0 = max(x0, 0), max(y0, 0)
    cx1, cy1 = min(x1, img_w), min(y1, img_h)
    if cx1 <= cx0 or cy1 <= cy0:
        return
    th, tw = tile.shape[1], tile.shape[2]
    ys = ((np.arange(cy0, cy1) - y0) * th // max(y1 - y0, 1)).clip(0, th - 1)
    xs = ((np.arange(cx0, cx1) - x0) * tw // max(x1 - x0, 1)).clip(0, tw - 1)
    canvas[:, cy0:cy1, cx0:cx1] = tile[:, ys][:, :, xs]


def _ramp(t: int, start: float, n_frames: int) -> float:
    """0 at frame ``start``, rising linearly to 1 on the final frame."""
    return (t - start) / max(n_frames - 1 - start, 1e-9)


def generate_synthetic_sequence(seed: int, n_frames: int,
                                spec: SequenceSpec | None = None
                                ) -> tuple[list[Frame], list[BoundingBox]]:
    """Render n_frames frames and exact ground-truth boxes."""
    if n_frames < 1:
        raise ConfigurationError(f"n_frames must be at least 1, got {n_frames}")
    if spec is None:
        spec = SequenceSpec()
    rng = np.random.default_rng(seed)
    img_h, img_w = spec.image_size
    background = _smooth_texture(rng, TEXTURE_CELLS, img_h, img_w)
    if spec.background_noise > 0.0:
        background = background + rng.uniform(-spec.background_noise,
                                              spec.background_noise,
                                              background.shape)
    target_tile = rng.uniform(0.0, 1.0, size=(3, 6, 6))
    distractor_tile = rng.uniform(0.0, 1.0, size=(3, 6, 6))
    # drawn after every other draw, and only when used, so a sequence
    # without the change is the one the same seed gave before it existed
    if spec.appearance_change > 0.0:
        changed_tile = rng.uniform(0.0, 1.0, size=(3, 6, 6))

    frames, boxes = [], []
    cx, cy, w, h = spec.start_box
    dx0, dy0, dw, dh = DISTRACTOR_START
    drift_from = spec.drift_start * (n_frames - 1)
    change_from = spec.change_start * (n_frames - 1)
    for t in range(n_frames):
        canvas = background.copy()
        if spec.distractor:
            dbox = BoundingBox(dx0 + t * DISTRACTOR_VELOCITY[0],
                               dy0 + t * DISTRACTOR_VELOCITY[1], dw, dh)
            _paint_rect(canvas, dbox, distractor_tile)
        scale = (1.0 + spec.size_rate) ** t
        box = BoundingBox(cx + t * spec.velocity[0], cy + t * spec.velocity[1],
                          w * scale, h * scale)
        tile = target_tile
        if spec.appearance_change > 0.0 and t > change_from:
            mix = spec.appearance_change * _ramp(t, change_from, n_frames)
            tile = (1.0 - mix) * target_tile + mix * changed_tile
        _paint_rect(canvas, box, tile)
        if spec.brightness_drift > 0.0 and t > drift_from:
            canvas = canvas * (1.0 - spec.brightness_drift
                               * _ramp(t, drift_from, n_frames))
        frames.append(Frame(pixels=np.clip(canvas, 0.0, 1.0), index=t))
        boxes.append(box)
    return frames, boxes
