"""Query-key-value attention blocks.

The building blocks here operate on flattened token sequences (rows are
positions). Positional codes are added to the query and key inputs before
projection and never to the value input; padded positions carry all-zero
positional rows, which makes their attention columns indistinguishable
whenever their features are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, ShapeError
from .tensor import Tensor


@dataclass
class AttentionHeadWeights:
    """Projection matrices for one head: each maps d -> d_head."""
    wq: Tensor
    wk: Tensor
    wv: Tensor


@dataclass
class MultiHeadWeights:
    heads: list[AttentionHeadWeights]
    wo: Tensor

    @property
    def n_heads(self) -> int:
        return len(self.heads)


@dataclass
class LayerNormWeights:
    gain: Tensor
    bias: Tensor
    eps: float = 1e-5


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
    heads = [AttentionHeadWeights(
        wq=Tensor(T.xavier_uniform(rng, (d, d_head)), requires_grad=True),
        wk=Tensor(T.xavier_uniform(rng, (d, d_head)), requires_grad=True),
        wv=Tensor(T.xavier_uniform(rng, (d, d_head)), requires_grad=True),
    ) for _ in range(n_heads)]
    wo = Tensor(T.xavier_uniform(rng, (d, d)), requires_grad=True)
    return MultiHeadWeights(heads=heads, wo=wo)


def init_ffn(rng: np.random.Generator, d: int, hidden: int) -> FfnWeights:
    return FfnWeights(
        w1=Tensor(T.xavier_uniform(rng, (d, hidden)), requires_grad=True),
        b1=Tensor(np.zeros(hidden), requires_grad=True),
        w2=Tensor(T.xavier_uniform(rng, (hidden, d)), requires_grad=True),
        b2=Tensor(np.zeros(d), requires_grad=True),
        norm=init_layernorm(d),
    )


def project_qkv(inputs: AttentionInputs, w: AttentionHeadWeights):
    """Q = (Xq+Pq)Wq, K = (Xkv+Pk)Wk, V = Xkv Wv (no positions on values)."""
    if inputs.xq.shape != inputs.pq.shape or inputs.xkv.shape != inputs.pk.shape:
        raise ShapeError("positional codes must match their input sequences")
    q = T.matmul(T.add(inputs.xq, inputs.pq), w.wq)
    k = T.matmul(T.add(inputs.xkv, inputs.pk), w.wk)
    v = T.matmul(inputs.xkv, w.wv)
    return q, k, v


def attention_weights(q: Tensor, k: Tensor) -> Tensor:
    """Row-stochastic map A[i, j] = softmax_j(q_i . k_j / sqrt(d_head))."""
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"query/key widths differ: {q.shape} vs {k.shape}")
    scale = 1.0 / math.sqrt(q.shape[1])
    logits = T.mul(T.matmul(q, T.transpose(k)), scale)
    return T.softmax_rows(logits)


def multi_head_attention(inputs: AttentionInputs, w: MultiHeadWeights,
                         attn_sink: list | None = None) -> Tensor:
    """Concatenate the per-head outputs on the channel axis, then project.

    When ``attn_sink`` is a list, each head's weight map is appended to it
    (as a plain array) for diagnostics.
    """
    d = inputs.xq.shape[1]
    if d % w.n_heads:
        raise ConfigurationError(f"{w.n_heads} heads do not divide width {d}")
    outputs = []
    for head in w.heads:
        q, k, v = project_qkv(inputs, head)
        a = attention_weights(q, k)
        if attn_sink is not None:
            attn_sink.append(a.data.copy())
        outputs.append(T.matmul(a, v))
    joined = T.concat(outputs, axis=1) if len(outputs) > 1 else outputs[0]
    return T.matmul(joined, w.wo)


def residual_norm(attn_out: Tensor, xq: Tensor, ln: LayerNormWeights) -> Tensor:
    """layernorm(attention output + query-side input)."""
    if attn_out.shape != xq.shape:
        raise ShapeError(f"residual shapes differ: {attn_out.shape} vs {xq.shape}")
    return T.layernorm(T.add(attn_out, xq), ln.gain, ln.bias, ln.eps)


def ffn(x: Tensor, w: FfnWeights) -> Tensor:
    """layernorm(x + W2 relu(x W1 + b1) + b2)."""
    hidden = T.relu(T.add(T.matmul(x, w.w1), w.b1))
    out = T.add(T.matmul(hidden, w.w2), w.b2)
    return T.layernorm(T.add(x, out), w.norm.gain, w.norm.bias, w.norm.eps)


def named_multi_head(prefix: str, w: MultiHeadWeights):
    for i, head in enumerate(w.heads):
        yield f"{prefix}.head{i}.wq", head.wq
        yield f"{prefix}.head{i}.wk", head.wk
        yield f"{prefix}.head{i}.wv", head.wv
    yield f"{prefix}.wo", w.wo


def named_layernorm(prefix: str, w: LayerNormWeights):
    yield f"{prefix}.gain", w.gain
    yield f"{prefix}.bias", w.bias


def named_ffn(prefix: str, w: FfnWeights):
    yield f"{prefix}.w1", w.w1
    yield f"{prefix}.b1", w.b1
    yield f"{prefix}.w2", w.w2
    yield f"{prefix}.b2", w.b2
    yield from named_layernorm(f"{prefix}.norm", w.norm)
