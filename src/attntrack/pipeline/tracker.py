"""The model's forward path and the per-sequence tracking state machine.

One batched chain serves tracking and training alike. ``extract_features``
runs the backbone once over a batch of crops, which ``crop`` already
aligned to the stride, so it pads nothing. It returns channel-last
(B, h, w, d) tokens plus each grid's pad mask; it is the only place the
``pe_mask`` setting is read.
``encode_template`` runs the encoder over one template crop and returns
the memory with the template's positional code. ``decode_search`` decodes
a batch of search features against that one memory (self-attention stays
within each crop, every crop cross-attends to the same memory) and reads
the head maps, which keep the batch axis. ``Tracker.init`` encodes the
template once and freezes the memory; ``Tracker.track`` crops a search
patch around the last box, decodes it as a batch of one, and maps the
decoded box back to image coordinates. ``train_toy`` calls the same two
functions on the tape, with a step's search crops as one batch. The
optional online branch keeps a sample memory over the backbone's
mid-level features. ``Tracker.init`` fits both layers of its filter with a
joint Gauss-Newton/CG solve; each tracked frame then refits only the score
filter w2 with one linear CG solve, and w1 keeps its init fit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import tensor as T
from ..errors import ConfigurationError, ShapeError, TrackingError
from ..localize import (STRIDE, BoundingBox, CosineWindow, HeadMaps,
                        HeadWeights, apply_window, decode_center, decode_size,
                        heads_forward, init_head_weights, make_cosine_window,
                        peak_cell, smooth_size)
from ..loss import adaptive_sigma, gaussian_label
from ..online import (OnlineFilter, TrainingMemory, blend, init_online_filter,
                      online_forward, solve_cg, update_memory)
from ..tensor import Tensor, load_checkpoint, named_parameters, save_checkpoint
from ..transformer import (AttentionTrace, TransformerWeights,
                           build_positional_encoding, decode, encode,
                           init_transformer)
from .backbone import BackboneWeights, backbone_forward, init_backbone
from .crop import (CropResult, aligned_side, context_side, crop_search,
                   crop_template, image_to_patch, patch_to_image)
from .seqio import Frame


@dataclass
class TrackerConfig:
    template_size: int = 127
    search_size: int = 255
    d: int = 32
    n_heads: int = 4
    ffn_hidden: int = 0                  # 0 -> 8 * d
    n_encoder_layers: int = 1
    n_decoder_layers: int = 1
    c_mid: int = 32
    window_influence: float = 0.4
    size_smoothing: float = 0.3
    blend_weight: float = 0.6
    online: bool = False
    pe_mask: bool = True
    online_hidden: int = 64
    online_kernel: int = 4
    online_reg: float = 1e-2
    memory_capacity: int = 50
    # sample decay 0.1 / refresh every frame keep the filter tracking the
    # target under appearance drift; slower schedules leave it anchored to
    # the first-frame appearance and drag the blended map behind the target
    memory_lr: float = 0.1
    # init fits w1 and w2 jointly (GN steps x CG iterations); each frame's
    # update refits w2 alone, a linear problem, so one GN step is one CG solve
    online_init_gn_steps: int = 10
    online_init_cg_iters: int = 10
    online_update_gn_steps: int = 1
    online_update_cg_iters: int = 5

    def __post_init__(self):
        if self.search_size < self.template_size:
            raise ConfigurationError("search size must be >= template size")
        if self.d % 4:
            raise ConfigurationError("model width must be divisible by 4")
        if self.d % self.n_heads:
            raise ConfigurationError("head count must divide model width")
        if self.n_encoder_layers < 1 or self.n_decoder_layers < 1:
            raise ConfigurationError("need at least one encoder and decoder layer")
        if not (0.0 <= self.window_influence <= 1.0 and 0.0 <= self.blend_weight <= 1.0):
            raise ConfigurationError("window and blend weights must be in [0, 1]")
        # each check is written so that NaN fails too
        if not 0.0 < self.memory_lr <= 1.0:
            raise ConfigurationError(f"memory_lr must be in (0, 1], got {self.memory_lr}")
        for name in ("memory_capacity", "online_hidden", "online_kernel",
                     "online_init_cg_iters", "online_update_cg_iters"):
            if not getattr(self, name) >= 1:
                raise ConfigurationError(
                    f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("online_init_gn_steps", "online_update_gn_steps", "online_reg"):
            if not getattr(self, name) >= 0:
                raise ConfigurationError(
                    f"{name} must not be negative, got {getattr(self, name)}")

    @property
    def ffn_width(self) -> int:
        return self.ffn_hidden if self.ffn_hidden else 8 * self.d


@dataclass
class ModelWeights:
    backbone: BackboneWeights
    transformer: TransformerWeights
    heads: HeadWeights


def build_model(rng: np.random.Generator, config: TrackerConfig) -> ModelWeights:
    return ModelWeights(
        backbone=init_backbone(rng, config.c_mid, config.d),
        transformer=init_transformer(rng, config.d, config.n_heads,
                                     config.n_encoder_layers,
                                     config.n_decoder_layers,
                                     config.ffn_width),
        heads=init_head_weights(rng, config.d),
    )


def save_model(path, model: ModelWeights, config: TrackerConfig) -> None:
    """Checkpoint the parameters plus the config scalars needed to rebuild."""
    entries = [(f"config.{f.name}", Tensor(float(getattr(config, f.name))))
               for f in dataclasses.fields(config)]
    entries.extend(named_parameters(model))
    save_checkpoint(entries, path)


def load_model(path) -> tuple[ModelWeights, TrackerConfig]:
    """Rebuild a model from a checkpoint, rejecting entries it cannot use.

    Raises ``ValueError`` naming the entry for a missing, misshapen, unknown
    or non-finite one.
    """
    data = load_checkpoint(path)
    for name, value in data.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"checkpoint entry {name!r} is not finite")
    kwargs = {}
    for f in dataclasses.fields(TrackerConfig):
        key = f"config.{f.name}"
        if key in data:
            # ints and flags round-trip through the float checkpoint; each
            # field's default has the field's type
            cast = type(f.default)
            value = float(data.pop(key))
            kwargs[f.name] = value if cast is float else cast(round(value))
    config = TrackerConfig(**kwargs)
    model = build_model(np.random.default_rng(0), config)
    for name, param in named_parameters(model):
        value = data.pop(name, None)
        if value is None:
            raise ValueError(f"checkpoint is missing parameter {name!r}")
        if value.shape != param.data.shape:
            raise ValueError(f"checkpoint shape mismatch for {name!r}: "
                             f"{value.shape} vs {param.data.shape}")
        param.data = value
    unknown = sorted(data)
    if unknown:
        raise ValueError(f"checkpoint has unknown entries: {unknown}")
    return model, config


def grid_pad_mask(pixel_mask: np.ndarray) -> np.ndarray:
    """A grid cell counts as padded when its whole STRIDE x STRIDE pixel
    block is padded."""
    h, w = pixel_mask.shape
    blocks = pixel_mask.reshape(h // STRIDE, STRIDE, w // STRIDE, STRIDE)
    return blocks.all(axis=(1, 3))


@dataclass
class PatchFeatures:
    """Backbone outputs for a batch of crops, one per leading index."""
    tokens: Tensor               # (B, h, w, d) channel-last feature grids
    mid: np.ndarray              # (B, c_mid, h, w) online-branch tap
    mask: np.ndarray             # (B, h, w) cells whose positional code is zeroed


def extract_features(crops: Sequence[CropResult], model: ModelWeights,
                     config: TrackerConfig) -> PatchFeatures:
    """Run the backbone once over a batch of crops and mask each grid.

    The crops must be of one size. With ``config.pe_mask`` off the mask is
    all False, so every cell keeps its positional code.
    """
    sides = {crop.patch.shape for crop in crops}
    if len(sides) != 1:
        raise ShapeError(f"a batch needs crops of one size, got {sorted(sides)}")
    mid, tokens = backbone_forward(Tensor(np.stack([crop.patch for crop in crops])),
                                   model.backbone)
    mask = np.stack([grid_pad_mask(crop.pad_mask) for crop in crops])
    return PatchFeatures(tokens=tokens, mid=mid.data,
                         mask=mask if config.pe_mask else np.zeros_like(mask))


def _positional_encoding(feats: PatchFeatures) -> Tensor:
    _, h, w, d = feats.tokens.shape
    return build_positional_encoding(h, w, d, feats.mask)


def encode_template(model: ModelWeights, config: TrackerConfig,
                    crop: CropResult, trace: AttentionTrace | None = None
                    ) -> tuple[Tensor, Tensor]:
    """Backbone and encoder over a template crop.

    Returns the encoder memory and the template's positional code, which
    the decoder's cross-attention keys need.
    """
    feats = extract_features([crop], model, config)
    pe = _positional_encoding(feats)
    return encode(feats.tokens, model.transformer.encoder, pe, trace=trace), pe


def decode_search(model: ModelWeights, feats: PatchFeatures, memory: Tensor,
                  template_pe: Tensor,
                  trace: AttentionTrace | None = None) -> HeadMaps:
    """Decoder and heads over a batch of search features, against one
    template memory; the maps carry the batch axis."""
    decoded = decode(feats.tokens, memory, template_pe,
                     model.transformer.decoder, _positional_encoding(feats),
                     trace=trace)
    return heads_forward(decoded, model.heads)


@dataclass
class FrameDiagnostics:
    score_map: np.ndarray                  # raw head output
    windowed_map: np.ndarray               # after cosine-window suppression
    blended_map: np.ndarray | None         # after online blending (if enabled)
    online_map: np.ndarray | None
    peak_score: float
    lost: bool
    crop: CropResult


@dataclass
class TrackerState:
    template_memory: Tensor
    template_pe: Tensor
    box: BoundingBox
    window: CosineWindow
    online_filter: OnlineFilter | None = None
    online_memory: TrainingMemory | None = None


class Tracker:
    """Single-target tracker; one instance owns one sequence's state."""

    def __init__(self, model: ModelWeights, config: TrackerConfig | None = None):
        self.model = model
        self.config = config or TrackerConfig()
        self.state: TrackerState | None = None

    # -- initialization -----------------------------------------------------

    def init(self, frame: Frame, box: BoundingBox,
             trace: AttentionTrace | None = None) -> TrackerState:
        cfg = self.config
        with T.no_grad():
            crop = crop_template(frame, box, cfg.template_size)
            memory, pe = encode_template(self.model, cfg, crop, trace=trace)

        grid = aligned_side(cfg.search_size) // STRIDE
        window = make_cosine_window(grid, grid, cfg.window_influence)
        self.state = TrackerState(template_memory=memory,
                                  template_pe=pe, box=box, window=window)
        if cfg.online:
            self._init_online(frame, box)
        return self.state

    def _online_label(self, center_patch: tuple[float, float],
                      box_patch: tuple[float, float], grid: int) -> np.ndarray:
        cell = (int(np.clip(center_patch[0] // STRIDE, 0, grid - 1)),
                int(np.clip(center_patch[1] // STRIDE, 0, grid - 1)))
        sigma = adaptive_sigma(max(box_patch[0] / STRIDE, 0.25),
                               max(box_patch[1] / STRIDE, 0.25))
        return gaussian_label(cell, sigma, grid, grid)

    def _init_online(self, frame: Frame, box: BoundingBox) -> None:
        cfg = self.config
        rng = np.random.default_rng(0)
        self.state.online_filter = init_online_filter(
            rng, cfg.c_mid, cfg.online_hidden, cfg.online_kernel, cfg.online_reg)
        self.state.online_memory = TrainingMemory(cfg.memory_capacity)

        shift_patch = cfg.search_size / 8.0
        shifts = [(0.0, 0.0), (shift_patch, 0.0), (-shift_patch, 0.0),
                  (0.0, shift_patch), (0.0, -shift_patch)]
        scale = context_side(box) / cfg.template_size
        with T.no_grad():
            for dx, dy in shifts:
                shifted_box = BoundingBox(box.cx + dx * scale,
                                          box.cy + dy * scale, box.w, box.h)
                try:
                    crop = crop_search(frame, shifted_box, cfg.search_size,
                                       cfg.template_size)
                except TrackingError:
                    continue
                mid = extract_features([crop], self.model, cfg).mid[0]
                center_patch = image_to_patch((box.cx, box.cy), crop)
                label = self._online_label(
                    center_patch, (box.w / crop.scale, box.h / crop.scale),
                    mid.shape[-1])
                update_memory(self.state.online_memory, mid, label,
                              cfg.memory_lr)
        result = solve_cg(self.state.online_filter, self.state.online_memory,
                          n_iters=cfg.online_init_cg_iters,
                          gn_steps=cfg.online_init_gn_steps)
        if not result.degraded:
            self.state.online_filter = result.filter

    # -- per-frame update ----------------------------------------------------

    def track(self, frame: Frame, trace: AttentionTrace | None = None
              ) -> tuple[BoundingBox, FrameDiagnostics]:
        if self.state is None:
            raise TrackingError("tracker not initialized")
        cfg = self.config
        state = self.state

        with T.no_grad():
            crop = crop_search(frame, state.box, cfg.search_size,
                               cfg.template_size)
            feats = extract_features([crop], self.model, cfg)
            maps = decode_search(self.model, feats, state.template_memory,
                                 state.template_pe, trace=trace)
        mid = feats.mid[0]
        offset, size = maps.offset.data[0], maps.size.data[0]

        raw = maps.score.data[0, :, :, 0]
        windowed = apply_window(raw, state.window)
        online_map = None
        blended = None
        if cfg.online and state.online_filter is not None:
            online_map = np.clip(online_forward(state.online_filter, mid),
                                 0.0, 1.0)
            blended = blend(windowed, online_map, cfg.blend_weight)
            decode_map = blended
        else:
            decode_map = windowed

        if not np.all(np.isfinite(decode_map)):
            diag = FrameDiagnostics(score_map=raw, windowed_map=windowed,
                                    blended_map=blended, online_map=online_map,
                                    peak_score=float("nan"), lost=True,
                                    crop=crop)
            return state.box, diag

        cell = peak_cell(decode_map)
        peak_score = float(decode_map[cell[1], cell[0]])
        center_patch = decode_center(decode_map, offset)
        side = crop.patch.shape[1]
        size_patch = decode_size(size, cell, side, side)

        center_img = patch_to_image(center_patch, crop)
        size_img = (size_patch[0] * crop.scale, size_patch[1] * crop.scale)
        new_w, new_h = smooth_size((state.box.w, state.box.h), size_img,
                                   cfg.size_smoothing)
        _, img_h, img_w = frame.pixels.shape
        new_box = BoundingBox(
            cx=float(np.clip(center_img[0], 0.0, img_w - 1.0)),
            cy=float(np.clip(center_img[1], 0.0, img_h - 1.0)),
            w=max(new_w, 1.0), h=max(new_h, 1.0))
        state.box = new_box

        if cfg.online and state.online_filter is not None:
            # label the sample memory at the offline decode: anchoring the
            # filter to the sharper focal-trained map avoids reinforcing the
            # online branch's own blur through its training targets
            center_off = decode_center(windowed, offset)
            self._online_step(mid, center_off, size_patch)

        diag = FrameDiagnostics(score_map=raw, windowed_map=windowed,
                                blended_map=blended, online_map=online_map,
                                peak_score=peak_score, lost=False,
                                crop=crop)
        return new_box, diag

    def _online_step(self, mid: np.ndarray, center_patch, size_patch) -> None:
        """Add the frame's sample to the memory and refit w2, w1 fixed."""
        cfg = self.config
        state = self.state
        label = self._online_label(center_patch, size_patch, mid.shape[-1])
        update_memory(state.online_memory, mid, label, cfg.memory_lr)
        result = solve_cg(state.online_filter, state.online_memory,
                          n_iters=cfg.online_update_cg_iters,
                          gn_steps=cfg.online_update_gn_steps, train_w1=False)
        if not result.degraded:
            state.online_filter = result.filter


def track_sequence(model: ModelWeights, config: TrackerConfig,
                   frames: list[Frame], init_box: BoundingBox
                   ) -> list[BoundingBox]:
    """Track a whole sequence; the first output echoes the init box."""
    if not frames:
        raise TrackingError("empty sequence")
    tracker = Tracker(model, config)
    tracker.init(frames[0], init_box)
    boxes = [init_box]
    for frame in frames[1:]:
        box, _ = tracker.track(frame)
        boxes.append(box)
    return boxes
