"""Query-key-value attention blocks.

The building blocks here operate on flattened token sequences (rows are
positions). Positional codes are added to the query and key inputs before
projection and never to the value input; padded positions carry all-zero
positional rows, which makes their attention columns indistinguishable
whenever their features are equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, ShapeError
from .tensor import Tensor


@dataclass
class MultiHeadWeights:
    """Packed (d, d) projections; head h owns columns h*d_head:(h+1)*d_head
    of wq, wk and wv. wo maps the head concatenation back to width d."""
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    n_heads: int


@dataclass
class LayerNormWeights:
    gain: Tensor
    bias: Tensor


@dataclass
class FfnWeights:
    """Two-layer pointwise MLP (d -> hidden -> d) with trailing layernorm."""
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    norm: LayerNormWeights


@dataclass
class AttentionInputs:
    """Token sequences plus positional codes for one attention call.

    xq: (Nq, d) query-side features; xkv: (Nkv, d) key/value-side features.
    pq/pk: positional codes of matching shapes; rows may be zero (masked).
    """
    xq: Tensor
    xkv: Tensor
    pq: Tensor
    pk: Tensor


def init_layernorm(d: int) -> LayerNormWeights:
    return LayerNormWeights(gain=Tensor(np.ones(d), requires_grad=True),
                            bias=Tensor(np.zeros(d), requires_grad=True))


def init_multi_head(rng: np.random.Generator, d: int, n_heads: int) -> MultiHeadWeights:
    if n_heads < 1 or d % n_heads:
        raise ConfigurationError(f"head count {n_heads} must divide model width {d}")
    d_head = d // n_heads
    # drawn block by block (head 0's q, k, v, then head 1's, ...), so seeded
    # weights, and checkpoints that store the blocks, agree with the packing
    blocks = [[T.xavier_uniform(rng, (d, d_head)) for _ in range(3)]
              for _ in range(n_heads)]
    wq, wk, wv = (Tensor(np.concatenate(cols, axis=1), requires_grad=True)
                  for cols in zip(*blocks))
    wo = Tensor(T.xavier_uniform(rng, (d, d)), requires_grad=True)
    return MultiHeadWeights(wq=wq, wk=wk, wv=wv, wo=wo, n_heads=n_heads)


def init_ffn(rng: np.random.Generator, d: int, hidden: int) -> FfnWeights:
    return FfnWeights(
        w1=Tensor(T.xavier_uniform(rng, (d, hidden)), requires_grad=True),
        b1=Tensor(np.zeros(hidden), requires_grad=True),
        w2=Tensor(T.xavier_uniform(rng, (hidden, d)), requires_grad=True),
        b2=Tensor(np.zeros(d), requires_grad=True),
        norm=init_layernorm(d),
    )


def project_qkv(inputs: AttentionInputs, w: MultiHeadWeights):
    """Q = (Xq+Pq)Wq, K = (Xkv+Pk)Wk, V = Xkv Wv (no positions on values)."""
    if inputs.xq.shape != inputs.pq.shape or inputs.xkv.shape != inputs.pk.shape:
        raise ShapeError("positional codes must match their input sequences")
    q = T.matmul(T.add(inputs.xq, inputs.pq), w.wq)
    k = T.matmul(T.add(inputs.xkv, inputs.pk), w.wk)
    v = T.matmul(inputs.xkv, w.wv)
    return q, k, v


def multi_head_attention(inputs: AttentionInputs, w: MultiHeadWeights,
                         attn_sink: list | None = None,
                         groups: int = 1) -> Tensor:
    """Attend with every head at once, then project the head concatenation.

    With ``groups`` G the rows form G equal runs on both sides and run g
    attends only to run g (a batch of G sequences in one call). When
    ``attn_sink`` is a list, each weight map is appended to it (as a plain
    array, head-major) for diagnostics.
    """
    q, k, v = project_qkv(inputs, w)
    heads = T.multi_head_softmax_attention(q, k, v, w.n_heads, maps=attn_sink,
                                           groups=groups)
    return T.matmul(heads, w.wo)


def residual_norm(attn_out: Tensor, xq: Tensor, ln: LayerNormWeights) -> Tensor:
    """layernorm(attention output + query-side input)."""
    if attn_out.shape != xq.shape:
        raise ShapeError(f"residual shapes differ: {attn_out.shape} vs {xq.shape}")
    return T.layernorm(T.add(attn_out, xq), ln.gain, ln.bias)


def ffn(x: Tensor, w: FfnWeights) -> Tensor:
    """layernorm(x + W2 relu(x W1 + b1) + b2)."""
    hidden = T.matmul(x, w.w1, bias=w.b1, relu=True)
    out = T.matmul(hidden, w.w2, bias=w.b2)
    return T.layernorm(T.add(x, out), w.norm.gain, w.norm.bias)

