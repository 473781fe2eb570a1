"""Small strided convnet standing in for a deep backbone.

Three 4x4 stride-2 stages halve the grid exactly (even inputs only),
reaching overall stride 8; a stride-1 3x3 stage follows, and a final 1x1
projection reduces channels to the transformer width. The stage-3
activation is the mid-level tap that feeds the online classifier branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import tensor as T
from ..errors import ConfigurationError
from ..tensor import Tensor


@dataclass
class BackboneWeights:
    kernels: list[Tensor]        # three 4x4 stride-2 stages, one 3x3 stride-1
    biases: list[Tensor]
    reduce_kernel: Tensor        # 1x1 channel reduction to d
    reduce_bias: Tensor
    strides = (2, 2, 2, 1)

    def named_parameters(self, prefix: str = "backbone"):
        for i, (k, b) in enumerate(zip(self.kernels, self.biases)):
            yield f"{prefix}.stage{i}.kernel", k
            yield f"{prefix}.stage{i}.bias", b
        yield f"{prefix}.reduce.kernel", self.reduce_kernel
        yield f"{prefix}.reduce.bias", self.reduce_bias


def init_backbone(rng: np.random.Generator, c_mid: int = 32, d: int = 32) -> BackboneWeights:
    channels = [3, 8, 16, c_mid, c_mid]
    sizes = (4, 4, 4, 3)
    kernels, biases = [], []
    for (c_in, c_out), k in zip(zip(channels[:-1], channels[1:]), sizes):
        kernels.append(Tensor(T.xavier_uniform(rng, (c_out, c_in, k, k)),
                              requires_grad=True))
        biases.append(Tensor(np.zeros(c_out), requires_grad=True))
    return BackboneWeights(
        kernels=kernels, biases=biases,
        reduce_kernel=Tensor(T.xavier_uniform(rng, (d, c_mid, 1, 1)), requires_grad=True),
        reduce_bias=Tensor(np.zeros(d), requires_grad=True),
    )


def backbone_forward(patch: Tensor, weights: BackboneWeights) -> tuple[Tensor, Tensor]:
    """(B, 3, T, T) -> (mid (B, c_mid, T/8, T/8), tokens (B, T/8, T/8, d)).

    Each stage is one conv over the whole batch. The 1x1 reduction is a
    product over channel-last rows, so the tokens come out channel-last. A
    single (3, T, T) patch gives mid and tokens without the batch axis.
    """
    patch = T.astensor(patch)
    h, w = patch.shape[-2:]
    if h % 8 or w % 8:
        raise ConfigurationError(f"backbone input must be a multiple of 8, got {h}x{w}")
    x = patch
    mid = None
    for i, (kernel, bias, stride) in enumerate(zip(weights.kernels, weights.biases,
                                                   weights.strides)):
        x = T.relu(T.conv2d(x, kernel, stride=stride, padding=1, bias=bias))
        if i == 2:
            mid = x
    lead = x.ndim - 3
    channel_last = T.transpose(x, tuple(range(lead)) + (lead + 1, lead + 2, lead))
    grid = channel_last.shape[:-1]
    rows = T.reshape(channel_last, (-1, channel_last.shape[-1]))
    tokens = T.conv1x1(rows, weights.reduce_kernel, weights.reduce_bias)
    return mid, T.reshape(tokens, grid + (weights.reduce_kernel.shape[0],))
