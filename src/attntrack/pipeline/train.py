"""Fixed-learning-rate training loop for desk-scale experiments.

Builds (template, search, target) triples from a sequence with exact
ground truth, then minimizes the joint objective (focal score loss plus
L1 offset/size losses) with Adam at a constant learning rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import tensor as T
from ..errors import ConfigurationError, ShapeError, TrainingDivergence
from ..localize import STRIDE, BoundingBox, HeadMaps
from ..loss import (GroundTruth, focal_loss, joint_loss, make_ground_truth,
                    offset_loss, size_loss)
from ..tensor import Tensor
from .crop import (CropResult, context_side, crop_search, crop_template,
                   image_to_patch)
from .seqio import Frame
from .tracker import (ModelWeights, TrackerConfig, decode_search,
                      encode_template, extract_features)

# not called here: the benchmark's tracer wraps these names on this module
from ..localize import heads_forward  # noqa: F401
from ..transformer import build_positional_encoding, decode, encode  # noqa: F401


@dataclass
class TrainSettings:
    steps: int = 500
    lr: float = 1e-3
    seed: int = 0
    batch_size: int = 2                 # sampled crops averaged per step
    center_jitter_cells: float = 2.0    # crop-center jitter, in grid cells
    scale_jitter: float = 0.2           # log-uniform crop-side perturbation
    lambda_offset: float = 1.0
    lambda_size: float = 1.0

    def __post_init__(self):
        for name in ("steps", "batch_size"):
            if not getattr(self, name) >= 1:
                raise ConfigurationError(
                    f"{name} must be at least 1, got {getattr(self, name)}")


@dataclass
class TrainingPair:
    search_crop: CropResult
    target: GroundTruth


# Adam's moment decay rates and denominator guard (Kingma & Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Plain Adam, constant learning rate."""

    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1 ** self.t)
            vhat = self.v[i] / (1 - b2 ** self.t)
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def sample_training_pair(frames: list[Frame], boxes: list[BoundingBox],
                         config: TrackerConfig, rng: np.random.Generator,
                         center_jitter_cells: float,
                         scale_jitter: float) -> TrainingPair:
    """A random frame cropped around a perturbed previous-frame box.

    The crop center is jittered by up to the given number of grid cells
    and the crop side by a log-uniform scale factor, so the offset and
    size fields get supervised across cells and crop geometries (the way
    the tracker will actually read them).
    """
    t = int(rng.integers(1, len(frames)))
    prev = boxes[t - 1]
    scale = context_side(prev) / config.template_size   # image px per patch px
    jitter = center_jitter_cells * STRIDE * scale
    factor = float(np.exp(rng.uniform(-scale_jitter, scale_jitter)))
    center = BoundingBox(prev.cx + rng.uniform(-jitter, jitter),
                         prev.cy + rng.uniform(-jitter, jitter),
                         prev.w * factor, prev.h * factor)
    crop = crop_search(frames[t].pixels, center, config.search_size,
                       config.template_size)
    truth = boxes[t]
    center_patch = image_to_patch((truth.cx, truth.cy), crop)
    size_patch = (truth.w / crop.scale, truth.h / crop.scale)
    return TrainingPair(
        search_crop=crop,
        target=make_ground_truth(center_patch, size_patch, crop.patch.shape[1]))


def forward_pair(model: ModelWeights, config: TrackerConfig, memory: Tensor,
                 template_pe: Tensor,
                 searches: Sequence[CropResult]) -> HeadMaps:
    """Tape-recorded decode of a batch of search crops against an encoded
    template, in one forward; the maps carry the batch axis."""
    return decode_search(model, extract_features(searches, model, config),
                         memory, template_pe)


def pair_loss(maps: HeadMaps, targets: Sequence[GroundTruth],
              lambda_offset: float, lambda_size: float):
    """Joint objective of a batch of pairs, one target per map.

    Returns (total, score, offset, size), each the mean over the batch.
    """
    b, hs, ws, _ = maps.score.shape
    if len(targets) != b:
        raise ShapeError(f"{len(targets)} targets for a batch of {b} maps")
    cells = [t.cell for t in targets]
    sums = (focal_loss(T.reshape(maps.score, (b, hs, ws)),
                       np.stack([t.label for t in targets])),
            offset_loss(maps.offset, [t.center for t in targets], cells),
            size_loss(maps.size, [t.norm_size for t in targets], cells))
    ly, lo, ls = (T.mul(part, 1.0 / b) for part in sums)
    return joint_loss(ly, lo, ls, lambda_offset, lambda_size), ly, lo, ls


def train_toy(model: ModelWeights, config: TrackerConfig, frames: list[Frame],
              boxes: list[BoundingBox], settings: TrainSettings | None = None,
              log=None) -> list[float]:
    """Overfit the model to one sequence; returns the per-step loss history.

    Each step encodes the template once and sends the batch's search crops
    through one forward.
    """
    if settings is None:
        settings = TrainSettings()
    if len(frames) < 2:
        raise ValueError("need at least two frames to build training pairs")
    if len(boxes) < len(frames):
        raise ValueError(f"ground truth has {len(boxes)} boxes for "
                         f"{len(frames)} frames")
    rng = np.random.default_rng(settings.seed)
    template = crop_template(frames[0].pixels, boxes[0], config.template_size)
    params = T.parameters(model)
    optimizer = Adam(params, lr=settings.lr)
    history = []
    for step in range(settings.steps):
        for p in params:
            p.zero_grad()
        memory, template_pe = encode_template(model, config, template)
        pairs = [sample_training_pair(frames, boxes, config, rng,
                                      settings.center_jitter_cells,
                                      settings.scale_jitter)
                 for _ in range(settings.batch_size)]
        maps = forward_pair(model, config, memory, template_pe,
                            [pair.search_crop for pair in pairs])
        batch, ly, lo, ls = pair_loss(maps, [pair.target for pair in pairs],
                                      settings.lambda_offset,
                                      settings.lambda_size)
        value = batch.item()
        if not np.isfinite(value):
            raise TrainingDivergence(f"loss became non-finite at step {step}")
        batch.backward()
        optimizer.step()
        history.append(value)
        if log is not None and (step % 25 == 0 or step == settings.steps - 1):
            log(f"step {step:4d}  loss {value:.4f}  "
                f"(score {ly.item():.4f} offset {lo.item():.4f} "
                f"size {ls.item():.4f})")
    return history
