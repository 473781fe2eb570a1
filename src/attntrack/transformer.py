"""Encoder-decoder stack over flattened feature grids.

The encoder self-attends over the template feature sequence; the decoder
self-attends over the search feature sequence and cross-attends to the
encoder output (queries carry search positions, keys carry template
positions, values carry no positions). Grid cells flagged as padding get
all-zero positional rows, so equal-feature padded cells receive identical
attention treatment.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attention import (AttentionInputs, FfnWeights, LayerNormWeights,
                        MultiHeadWeights, ffn, init_ffn, init_layernorm,
                        init_multi_head, multi_head_attention, residual_norm)
from .errors import ConfigurationError, ShapeError
from .tensor import Tensor


@dataclass
class EncoderLayerWeights:
    attn: MultiHeadWeights
    attn_norm: LayerNormWeights
    ffn: FfnWeights


@dataclass
class DecoderLayerWeights:
    self_attn: MultiHeadWeights
    self_norm: LayerNormWeights
    cross_attn: MultiHeadWeights
    cross_norm: LayerNormWeights
    ffn: FfnWeights


@dataclass
class TransformerWeights:
    encoder: list[EncoderLayerWeights]
    decoder: list[DecoderLayerWeights]


@dataclass
class AttentionTrace:
    """Diagnostic capture of attention weight maps, keyed by call site."""
    maps: dict = field(default_factory=dict)

    def sink(self, key: str) -> list:
        return self.maps.setdefault(key, [])


def init_transformer(rng: np.random.Generator, d: int, n_heads: int,
                     n_encoder_layers: int, n_decoder_layers: int,
                     ffn_hidden: int) -> TransformerWeights:
    if n_encoder_layers < 1 or n_decoder_layers < 1:
        raise ConfigurationError("need at least one encoder and one decoder layer")
    encoder = [EncoderLayerWeights(attn=init_multi_head(rng, d, n_heads),
                                   attn_norm=init_layernorm(d),
                                   ffn=init_ffn(rng, d, ffn_hidden))
               for _ in range(n_encoder_layers)]
    decoder = [DecoderLayerWeights(self_attn=init_multi_head(rng, d, n_heads),
                                   self_norm=init_layernorm(d),
                                   cross_attn=init_multi_head(rng, d, n_heads),
                                   cross_norm=init_layernorm(d),
                                   ffn=init_ffn(rng, d, ffn_hidden))
               for _ in range(n_decoder_layers)]
    return TransformerWeights(encoder=encoder, decoder=decoder)


# base of the geometric frequency ladder, as in "Attention Is All You Need"
PE_TEMPERATURE = 10000.0


@functools.lru_cache(maxsize=16)
def _sinusoid_table(height: int, width: int, d: int) -> np.ndarray:
    """The unmasked (height*width, d) code; cached, so callers copy it."""
    half = d // 2
    freatios = np.arange(half, dtype=np.float64)
    inv_freq = PE_TEMPERATURE ** (2.0 * (freatios // 2) / half)

    ys, xs = np.meshgrid(np.arange(height, dtype=np.float64),
                         np.arange(width, dtype=np.float64), indexing="ij")
    table = np.zeros((height * width, d))
    for channel_base, coords in ((0, ys), (half, xs)):
        phase = coords.reshape(-1, 1) / inv_freq[None, :]      # (hw, half)
        code = np.empty_like(phase)
        code[:, 0::2] = np.sin(phase[:, 0::2])
        code[:, 1::2] = np.cos(phase[:, 1::2])
        table[:, channel_base:channel_base + half] = code
    table.setflags(write=False)
    return table


def build_positional_encoding(height: int, width: int, d: int,
                              pad_mask: np.ndarray | None = None) -> Tensor:
    """Sinusoidal grid code: one (d,) row per grid cell, row-major; the
    first d/2 channels encode y, the rest encode x.

    Within each half, sin/cos pairs run over geometrically spaced
    frequencies. Rows whose grid cell is marked padded are exactly zero,
    which is what makes padded positions interchangeable under attention.
    A (B, height, width) mask gives the B grids' codes one after another,
    (B*height*width, d), each zeroed by its own mask.
    """
    if d % 4:
        raise ConfigurationError(f"positional encoding needs d divisible by 4, got {d}")
    base = _sinusoid_table(height, width, d)
    if pad_mask is None:
        return Tensor(base.copy())
    if pad_mask.shape[-2:] != (height, width) or pad_mask.ndim not in (2, 3):
        raise ShapeError(f"pad mask {pad_mask.shape} does not match grid "
                         f"{height}x{width}")
    table = np.tile(base, (pad_mask.size // base.shape[0], 1))
    table[pad_mask.reshape(-1)] = 0.0
    return Tensor(table)


def flatten_grid(x: Tensor) -> Tensor:
    """(h, w, d) -> (h*w, d), row-major; a (B, h, w, d) batch gives (B*h*w, d)."""
    return T.reshape(x, (-1, x.shape[-1]))


def _grid_count(features: Tensor) -> int:
    """Grids in an (h, w, d) grid (one) or a (B, h, w, d) batch (B)."""
    if features.ndim not in (3, 4):
        raise ShapeError(f"expected (h, w, d) or (B, h, w, d) features, "
                         f"got {features.shape}")
    return features.shape[0] if features.ndim == 4 else 1


def encode(features: Tensor, layers: list[EncoderLayerWeights],
           pe: Tensor, trace: AttentionTrace | None = None) -> Tensor:
    """Run the encoder stack over the flattened template grid.

    A (B, h, w, d) batch self-attends within each grid; the memory rows
    come out grid after grid.
    """
    groups = _grid_count(features)
    x = flatten_grid(features)
    for i, layer in enumerate(layers):
        sink = trace.sink(f"encoder{i}.self") if trace is not None else None
        attn = multi_head_attention(
            AttentionInputs(xq=x, xkv=x, pq=pe, pk=pe),
            layer.attn, attn_sink=sink, groups=groups)
        x = residual_norm(attn, x, layer.attn_norm)
        x = ffn(x, layer.ffn)
    return x


def decode(features: Tensor, memory: Tensor, pe_template: Tensor,
           layers: list[DecoderLayerWeights], pe: Tensor,
           trace: AttentionTrace | None = None) -> Tensor:
    """Run the decoder stack; every layer cross-attends to ``memory``.

    ``features`` is one (h, w, d) search grid or a (B, h, w, d) batch, with
    ``pe`` holding the grids' codes one after another. Self-attention stays
    within each grid. Cross-attention needs no grouping: every query row
    attends to the same template memory. The output has the input's shape.
    """
    groups = _grid_count(features)
    d = features.shape[-1]
    if memory.shape[1] != d:
        raise ShapeError(f"memory width {memory.shape[1]} != decoder width {d}")
    x = flatten_grid(features)
    for i, layer in enumerate(layers):
        self_sink = trace.sink(f"decoder{i}.self") if trace is not None else None
        attn = multi_head_attention(
            AttentionInputs(xq=x, xkv=x, pq=pe, pk=pe),
            layer.self_attn, attn_sink=self_sink, groups=groups)
        x = residual_norm(attn, x, layer.self_norm)

        cross_sink = trace.sink(f"decoder{i}.cross") if trace is not None else None
        attn = multi_head_attention(
            AttentionInputs(xq=x, xkv=memory, pq=pe, pk=pe_template),
            layer.cross_attn, attn_sink=cross_sink)
        x = residual_norm(attn, x, layer.cross_norm)
        x = ffn(x, layer.ffn)
    return T.reshape(x, features.shape)
