"""Finite-difference verification of every differentiable operation.

Each check builds small random instances, projects the operation output
onto a fixed random direction to get a scalar, and compares analytic
gradients against central differences. Shared by the test suite and the
``gradcheck`` CLI subcommand.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import (AttentionInputs, ffn, init_ffn, init_layernorm,
                        init_multi_head, multi_head_attention, residual_norm)
from .localize import STRIDE, heads_forward, init_head_weights
from .loss import focal_loss, joint_loss, make_ground_truth, offset_loss, size_loss
from .pipeline.backbone import backbone_forward, init_backbone
from .tensor import Tensor, finite_difference_check, parameters
from .transformer import (build_positional_encoding, decode, encode,
                          init_transformer)


@dataclass
class CheckResult:
    name: str
    worst_rel_error: float
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _projected(out: Tensor, direction: np.ndarray) -> Tensor:
    return T.tensor_sum(T.mul(out, direction))


def _leaf(rng, *shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def check_matmul(rng) -> tuple[float, int]:
    a = _leaf(rng, 3, 4)
    b = _leaf(rng, 4, 2)
    r = rng.standard_normal((3, 2))
    return finite_difference_check(lambda: _projected(T.matmul(a, b), r), [a, b])


def check_matmul_bias(rng) -> tuple[float, int]:
    """A biased product, plain and rectified, sharing its operands."""
    a = _leaf(rng, 3, 4)
    b = _leaf(rng, 4, 2)
    bias = _leaf(rng, 2)
    r = rng.standard_normal((3, 2))
    r_relu = rng.standard_normal((3, 2))

    def loss():
        return T.add(_projected(T.matmul(a, b, bias=bias), r),
                     _projected(T.matmul(a, b, bias=bias, relu=True), r_relu))

    return finite_difference_check(loss, [a, b, bias])


def check_conv2d(rng, batch: int = 1) -> tuple[float, int]:
    x = _leaf(rng, batch, 2, 7, 7)
    k = _leaf(rng, 3, 2, 3, 3)
    r = rng.standard_normal((batch, 3, 4, 4))
    return finite_difference_check(
        lambda: _projected(T.conv2d(x, k, stride=2, padding=1), r), [x, k])


def check_conv2d_bias(rng, batch: int = 1) -> tuple[float, int]:
    """A 3x3 conv at stride 2 (padded), plain and rectified, a 3x3 conv at
    stride 1 and a 1x1 conv, sharing one bias, over a batch of ``batch``
    inputs."""
    x = _leaf(rng, batch, 2, 7, 7)
    k3 = _leaf(rng, 3, 2, 3, 3)
    k1 = _leaf(rng, 3, 2, 1, 1)
    bias = _leaf(rng, 3)
    convs = [(k3, 2, 1, False), (k3, 1, 0, False), (k1, 1, 0, False),
             (k3, 2, 1, True)]
    rs = [rng.standard_normal((batch, 3, 4, 4)), rng.standard_normal((batch, 3, 5, 5)),
          rng.standard_normal((batch, 3, 7, 7)), rng.standard_normal((batch, 3, 4, 4))]

    def loss():
        terms = [_projected(T.conv2d(x, k, stride=s, padding=p, bias=bias,
                                     relu=relu), r)
                 for (k, s, p, relu), r in zip(convs, rs)]
        return T.add(T.add(terms[0], terms[1]), T.add(terms[2], terms[3]))

    return finite_difference_check(loss, [x, k3, k1, bias])


def check_softmax(rng) -> tuple[float, int]:
    x = _leaf(rng, 3, 5)
    r = rng.standard_normal((3, 5))
    return finite_difference_check(lambda: _projected(T.softmax_rows(x), r), [x])


def check_multi_head_softmax_attention(rng) -> tuple[float, int]:
    heads, dh, nq, nk = 3, 2, 4, 5
    q = _leaf(rng, nq, heads * dh)
    k = _leaf(rng, nk, heads * dh)
    v = _leaf(rng, nk, heads * dh)
    r = rng.standard_normal((nq, heads * dh))
    return finite_difference_check(
        lambda: _projected(T.multi_head_softmax_attention(q, k, v, heads), r),
        [q, k, v])


def check_block_diagonal_attention(rng) -> tuple[float, int]:
    heads, dh, groups, nq, nk = 2, 2, 2, 3, 4
    q = _leaf(rng, groups * nq, heads * dh)
    k = _leaf(rng, groups * nk, heads * dh)
    v = _leaf(rng, groups * nk, heads * dh)
    r = rng.standard_normal((groups * nq, heads * dh))
    return finite_difference_check(
        lambda: _projected(T.multi_head_softmax_attention(q, k, v, heads,
                                                          groups=groups), r),
        [q, k, v])


def spread_attention_case(rng):
    """q, k, v, a projection, heads and groups whose logits spread over
    about 20 and whose softmax bound sits 3 to 40 above each row max.

    Per head, queries lie near the diagonal c (1, 1) and keys near the
    anti-diagonal t (1, -1): the keys' bounding box reaches far past where
    any key projects onto a query, so the bound is loose, yet far below
    where the op would redo a block with the exact row max.
    """
    heads, groups, nq, nk = 2, 2, 3, 4
    q = Tensor(6.0 + 0.5 * rng.standard_normal((groups * nq, 2 * heads)),
               requires_grad=True)
    t = rng.uniform(-6.0, 6.0, (groups * nk, heads, 1))
    u = rng.uniform(-1.5, 1.5, (groups * nk, heads, 1))
    k = Tensor((t * [1.0, -1.0] + u).reshape(groups * nk, 2 * heads),
               requires_grad=True)
    v = _leaf(rng, groups * nk, 2 * heads)
    r = rng.standard_normal((groups * nq, 2 * heads))
    return q, k, v, r, heads, groups


def check_spread_attention(rng) -> tuple[float, int]:
    q, k, v, r, heads, groups = spread_attention_case(rng)
    return finite_difference_check(
        lambda: _projected(T.multi_head_softmax_attention(q, k, v, heads,
                                                          groups=groups), r),
        [q, k, v])


def check_layernorm(rng) -> tuple[float, int]:
    x = _leaf(rng, 4, 6)
    gain = Tensor(rng.uniform(0.5, 1.5, 6), requires_grad=True)
    bias = Tensor(rng.standard_normal(6), requires_grad=True)
    r = rng.standard_normal((4, 6))
    return finite_difference_check(
        lambda: _projected(T.layernorm(x, gain, bias), r), [x, gain, bias])


def check_elementwise(rng) -> tuple[float, int]:
    x = Tensor(rng.uniform(0.3, 2.0, (4, 4)), requires_grad=True)
    y = _leaf(rng, 4, 4)
    r = rng.standard_normal((4, 4))

    def loss():
        mix = T.add(T.mul(T.sigmoid(y), T.log(x)), T.power(x, 1.7))
        return _projected(T.add(mix, T.absolute(y)), r)

    return finite_difference_check(loss, [x, y])


def check_attention(rng) -> tuple[float, int]:
    d, heads, nq, nkv = 8, 2, 3, 4
    w = init_multi_head(rng, d, heads)
    ln = init_layernorm(d)
    xq = _leaf(rng, nq, d)
    xkv = _leaf(rng, nkv, d)
    pq = Tensor(rng.standard_normal((nq, d)))
    pk = Tensor(rng.standard_normal((nkv, d)))
    r = rng.standard_normal((nq, d))
    params = [xq, xkv, *parameters(ln), *parameters(w)]

    def loss():
        out = multi_head_attention(AttentionInputs(xq, xkv, pq, pk), w)
        return _projected(residual_norm(out, xq, ln), r)

    return finite_difference_check(loss, params)


def check_ffn(rng) -> tuple[float, int]:
    d = 6
    w = init_ffn(rng, d, 12)
    x = _leaf(rng, 3, d)
    r = rng.standard_normal((3, d))
    params = [x, *parameters(w)]
    return finite_difference_check(lambda: _projected(ffn(x, w), r), params)


def check_heads(rng) -> tuple[float, int]:
    d = 6
    weights = init_head_weights(rng, d, score_bias=-0.5)
    x = _leaf(rng, 1, 3, 3, d)
    rs = rng.standard_normal((1, 3, 3, 1))
    ro = rng.standard_normal((1, 3, 3, 2))
    params = [x, *parameters(weights)]

    def loss():
        maps = heads_forward(x, weights)
        return T.add(_projected(maps.score, rs),
                     T.add(_projected(maps.offset, ro),
                           _projected(maps.size, ro)))

    return finite_difference_check(loss, params)


def check_losses(rng) -> tuple[float, int]:
    hs = ws = 4
    target = make_ground_truth(center=(13.0, 17.5), box_size=(10.0, 14.0),
                               side=hs * STRIDE)
    logits = Tensor(rng.uniform(-1.5, 1.5, (hs, ws)), requires_grad=True)
    off = Tensor(rng.uniform(0.1, 0.9, (1, hs, ws, 2)), requires_grad=True)
    size = Tensor(rng.uniform(0.1, 0.9, (1, hs, ws, 2)), requires_grad=True)

    def loss():
        return joint_loss(focal_loss(T.sigmoid(logits), target.label),
                          offset_loss(off, [target.center], [target.cell]),
                          size_loss(size, [target.norm_size], [target.cell]))

    return finite_difference_check(loss, [logits, off, size])


def check_backbone(rng) -> tuple[float, int]:
    weights = init_backbone(rng, c_mid=4, d=4)
    x = Tensor(rng.uniform(0.0, 1.0, (1, 3, 16, 16)), requires_grad=True)
    r1 = rng.standard_normal((1, 4, 2, 2))
    r2 = rng.standard_normal((1, 2, 2, 4))
    params = [x, *parameters(weights)]

    def loss():
        mid, out = backbone_forward(x, weights)
        return T.add(_projected(mid, r1), _projected(out, r2))

    return finite_difference_check(loss, params, max_entries=24, rng=rng)


def check_full_stack(rng) -> tuple[float, int]:
    """Template grid 2x2, search grid 4x4, width 8, 2 heads: the whole model."""
    h, w, hh, ww, d, heads = 2, 2, 4, 4, 8, 2
    weights = init_transformer(rng, d, heads, 1, 1, ffn_hidden=2 * d)
    head_weights = init_head_weights(rng, d, score_bias=-0.5)
    z = _leaf(rng, 1, h, w, d)
    x = _leaf(rng, 1, hh, ww, d)
    target = make_ground_truth(center=(17.0, 14.0), box_size=(12.0, 9.0),
                               side=hh * STRIDE)
    params = [z, x, *parameters(weights), *parameters(head_weights)]
    pe_z = build_positional_encoding(h, w, d)
    pe_x = build_positional_encoding(hh, ww, d)

    def loss():
        memory = encode(z, weights.encoder, pe_z)
        decoded = decode(x, memory, pe_z, weights.decoder, pe_x)
        maps = heads_forward(decoded, head_weights)
        score2d = T.reshape(maps.score, (hh, ww))
        return joint_loss(focal_loss(score2d, target.label),
                          offset_loss(maps.offset, [target.center], [target.cell]),
                          size_loss(maps.size, [target.norm_size], [target.cell]))

    return finite_difference_check(loss, params, max_entries=12, rng=rng)


_CHECKS = [
    ("matmul", check_matmul),
    ("matmul_bias", check_matmul_bias),
    ("conv2d", check_conv2d),
    ("conv2d_batched", functools.partial(check_conv2d, batch=2)),
    ("conv2d_bias", check_conv2d_bias),
    ("conv2d_batched_bias", functools.partial(check_conv2d_bias, batch=2)),
    ("softmax_rows", check_softmax),
    ("multi_head_softmax_attention", check_multi_head_softmax_attention),
    ("block_diagonal_attention", check_block_diagonal_attention),
    ("spread_attention", check_spread_attention),
    ("layernorm", check_layernorm),
    ("elementwise", check_elementwise),
    ("attention", check_attention),
    ("ffn", check_ffn),
    ("heads", check_heads),
    ("losses", check_losses),
    ("backbone", check_backbone),
    ("full_stack", check_full_stack),
]


def run_gradcheck(seed: int = 0, instances: int = 3) -> list[CheckResult]:
    """Run every check on several random instances; aggregate worst errors.

    The whole-model check, by far the slowest, runs on one instance.
    """
    results = []
    for name, fn in _CHECKS:
        n = 1 if name == "full_stack" else instances
        worst = 0.0
        failures = 0
        for i in range(n):
            rng = np.random.default_rng(seed * 1000 + i)
            w, fails = fn(rng)
            worst = max(worst, w)
            failures += len(fails)
        results.append(CheckResult(name=name, worst_rel_error=worst,
                                   failures=failures))
    return results
