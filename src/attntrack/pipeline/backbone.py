"""Small strided convnet standing in for a deep backbone.

Three 4x4 stride-2 stages halve the grid exactly (even inputs only),
reaching overall stride 8 (``localize.STRIDE``); a stride-1 3x3 stage
follows, and a final 1x1 projection reduces channels to the transformer
width. The stage-3 activation is the mid-level tap that feeds the online
classifier branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import tensor as T
from ..errors import ConfigurationError
from ..localize import STRIDE
from ..tensor import Conv, Tensor


@dataclass
class BackboneWeights:
    stage: list[Conv]            # three 4x4 stride-2 stages, one 3x3 stride-1
    reduce: Conv                 # 1x1 channel reduction to d
    strides = (2, 2, 2, 1)


def init_backbone(rng: np.random.Generator, c_mid: int, d: int) -> BackboneWeights:
    channels = [3, 8, 16, c_mid, c_mid]
    sizes = (4, 4, 4, 3)
    stage = [Conv(Tensor(T.xavier_uniform(rng, (c_out, c_in, k, k)), requires_grad=True),
                  Tensor(np.zeros(c_out), requires_grad=True))
             for (c_in, c_out), k in zip(zip(channels[:-1], channels[1:]), sizes)]
    return BackboneWeights(
        stage=stage,
        reduce=Conv(Tensor(T.xavier_uniform(rng, (d, c_mid, 1, 1)), requires_grad=True),
                    Tensor(np.zeros(d), requires_grad=True)),
    )


def backbone_forward(patch: Tensor, weights: BackboneWeights) -> tuple[Tensor, Tensor]:
    """(B, 3, T, T) -> (mid (B, c_mid, T/8, T/8), tokens (B, T/8, T/8, d)).

    Each stage is one conv over the whole batch. The 1x1 reduction is a
    product over channel-last rows, so the tokens come out channel-last.
    """
    patch = T.astensor(patch)
    h, w = patch.shape[-2:]
    if h % STRIDE or w % STRIDE:
        raise ConfigurationError(f"backbone input must be a multiple of {STRIDE}, got {h}x{w}")
    x = patch
    mid = None
    for i, (conv, stride) in enumerate(zip(weights.stage, weights.strides)):
        x = T.conv2d(x, conv.kernel, stride=stride, padding=1, bias=conv.bias,
                     relu=True)
        if i == 2:
            mid = x
    channel_last = T.transpose(x, (0, 2, 3, 1))
    grid = channel_last.shape[:-1]
    rows = T.reshape(channel_last, (-1, channel_last.shape[-1]))
    tokens = T.conv1x1(rows, weights.reduce.kernel, weights.reduce.bias)
    return mid, T.reshape(tokens, grid + (weights.reduce.kernel.shape[0],))
