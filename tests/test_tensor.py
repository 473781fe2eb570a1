import dataclasses
import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from attntrack import tensor as T
from attntrack.errors import ShapeError, TrackingError
from attntrack.tensor import (Tensor, finite_difference_check, load_checkpoint,
                              save_checkpoint)


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for kk in range(k):
                out[i, j] += a[i, kk] * b[kk, j]
    return out


def conv_oracle(x, kernel, stride=1, padding=0):
    c, h, w = x.shape
    o, _, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((o, oh, ow))
    for oc in range(o):
        for i in range(oh):
            for j in range(ow):
                for ic in range(c):
                    for u in range(kh):
                        for v in range(kw):
                            out[oc, i, j] += (kernel[oc, ic, u, v]
                                              * xp[ic, i * stride + u, j * stride + v])
    return out


def conv_oracle_grads(x, kernel, grad, stride=1, padding=0):
    """Input and kernel gradients of ``sum(conv(x, kernel) * grad)`` by loops."""
    c, h, w = x.shape
    o, _, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    dxp = np.zeros_like(xp)
    dk = np.zeros_like(kernel)
    _, oh, ow = grad.shape
    for oc in range(o):
        for i in range(oh):
            for j in range(ow):
                for u in range(kh):
                    for v in range(kw):
                        r, s = i * stride + u, j * stride + v
                        dxp[:, r, s] += kernel[oc, :, u, v] * grad[oc, i, j]
                        dk[oc, :, u, v] += xp[:, r, s] * grad[oc, i, j]
    return dxp[:, padding:padding + h, padding:padding + w], dk


def rowmajor_conv2d(x, kernel, grad, stride=1, padding=0):
    """The row-major im2col conv2d that ``T.conv2d`` replaced: output, dx, dk.

    Columns are ``(oh*ow, C*kh*kw)``, copied from windows in (oh, ow, C, kh,
    kw) order; the product is transposed back to ``(O, oh, ow)``.
    """
    c, h, w = x.shape
    o, _, kh, kw = kernel.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    padded = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    cols = windows.transpose(1, 2, 0, 3, 4).reshape(oh * ow, c * kh * kw)
    wmat = kernel.reshape(o, c * kh * kw)
    out = (cols @ wmat.T).T.reshape(o, oh, ow)
    gmat = grad.reshape(o, oh * ow).T
    dk = (gmat.T @ cols).reshape(kernel.shape)
    dwin = (gmat @ wmat).reshape(oh, ow, c, kh, kw)
    dpad = np.zeros_like(padded)
    for u in range(kh):
        for v in range(kw):
            dpad[:, u:u + oh * stride:stride, v:v + ow * stride:stride] += \
                dwin[:, :, :, u, v].transpose(2, 0, 1)
    return out, dpad[:, padding:padding + h, padding:padding + w], dk


def scatter_conv2d(x, kernel, grad, stride=1, padding=0, bias=None):
    """The channel-major im2col conv2d that ``T.conv2d``'s stride phases
    replaced: output, dx, dk and db of a (B,C,H,W) batch.

    The output is one GEMM of the kernel with ``(C*kh*kw, B*oh*ow)``
    columns plus a broadcast bias, the kernel gradient is the output
    gradient times the columns, and the input gradient is ``wmat.T @ gmat``
    scattered back with kh*kw strided adds.
    """
    b, c, h, w = x.shape
    o, _, kh, kw = kernel.shape
    _, _, oh, ow = grad.shape
    padded = np.zeros((c, b, h + 2 * padding, w + 2 * padding))
    padded[:, :, padding:padding + h, padding:padding + w] = x.transpose(1, 0, 2, 3)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]                 # (C, B, oh, ow, kh, kw)
    cols = windows.transpose(0, 4, 5, 1, 2, 3).reshape(c * kh * kw, b * oh * ow)
    wmat = kernel.reshape(o, c * kh * kw)
    out = (wmat @ cols).reshape(o, b, oh, ow).transpose(1, 0, 2, 3)
    gmat = grad.transpose(1, 0, 2, 3).reshape(o, b * oh * ow)
    dk = (gmat @ cols.T).reshape(kernel.shape)
    dcols = (wmat.T @ gmat).reshape(c, kh, kw, b, oh, ow)
    dpad = np.zeros_like(padded)
    for u in range(kh):
        for v in range(kw):
            dpad[:, :, u:u + oh * stride:stride, v:v + ow * stride:stride] += \
                dcols[:, u, v]
    dx = dpad[:, :, padding:padding + h, padding:padding + w].transpose(1, 0, 2, 3)
    if bias is None:
        return out, dx, dk, None
    return out + bias[:, None, None], dx, dk, grad.sum(axis=(0, 2, 3))


def relu(a) -> Tensor:
    """max(a, 0) as a tape node of its own, masking the gradient by a > 0:
    the layers' relu before it fused into the conv or matmul that makes
    its input, kept as the oracle of the fused form."""
    a = T.astensor(a)
    data = np.maximum(a.data, 0.0)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * (a.data > 0.0))

    return T._make(data, (a,), backward)


def assert_relative(actual, expected, tol=1e-12):
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= tol * np.abs(expected).max()


def check_conv_against_oracles(rng, c, o, kh, kw, h, w, stride, padding):
    """A batch of one against the lone-sample oracles."""
    x = Tensor(rng.standard_normal((1, c, h, w)), requires_grad=True)
    kernel = Tensor(rng.standard_normal((o, c, kh, kw)), requires_grad=True)
    out = T.conv2d(x, kernel, stride=stride, padding=padding)
    grad = rng.standard_normal(out.shape)
    T.tensor_sum(T.mul(out, grad)).backward()
    x0, g0 = x.data[0], grad[0]
    ref_out, ref_dx, ref_dk = rowmajor_conv2d(x0, kernel.data, g0, stride, padding)
    loop_dx, loop_dk = conv_oracle_grads(x0, kernel.data, g0, stride, padding)
    for actual, expected in ((out.data[0], ref_out), (x.grad[0], ref_dx),
                             (kernel.grad, ref_dk),
                             (out.data[0], conv_oracle(x0, kernel.data, stride, padding)),
                             (x.grad[0], loop_dx), (kernel.grad, loop_dk)):
        assert_relative(actual, expected)


def check_conv_against_scatter(rng, b, c, o, kh, kw, h, w, stride, padding, biased):
    x = Tensor(rng.standard_normal((b, c, h, w)), requires_grad=True)
    kernel = Tensor(rng.standard_normal((o, c, kh, kw)), requires_grad=True)
    bias = Tensor(rng.standard_normal(o), requires_grad=True) if biased else None
    out = T.conv2d(x, kernel, stride=stride, padding=padding, bias=bias)
    grad = rng.standard_normal(out.shape)
    T.tensor_sum(T.mul(out, grad)).backward()
    ref = scatter_conv2d(x.data, kernel.data, grad, stride, padding,
                         bias.data if biased else None)
    for got, expected in zip((out.data, x.grad, kernel.grad), ref):
        assert_relative(got, expected)
    if biased:
        assert_relative(bias.grad, ref[3])


@st.composite
def scatter_geometries(draw):
    """(B, C, O, kh, kw, H, W, stride, padding, biased): strides 1-3,
    kernels 1-5, padding 0-2, batch 1-3, H and W drawn apart."""
    b, c, o = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kh, kw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    stride, padding = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    oh, ow = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    h = (oh - 1) * stride + kh - 2 * padding
    w = (ow - 1) * stride + kw - 2 * padding
    assume(h >= 1 and w >= 1)
    return b, c, o, kh, kw, h, w, stride, padding, draw(st.booleans())


@st.composite
def conv_geometries(draw):
    """Conv shapes with an integral output extent and a kernel that fits."""
    c, o, kh, kw = (draw(st.integers(1, 4)) for _ in range(4))
    stride, padding = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    oh, ow = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h = (oh - 1) * stride + kh - 2 * padding
    w = (ow - 1) * stride + kw - 2 * padding
    assume(h >= 1 and w >= 1)
    return c, o, kh, kw, h, w, stride, padding


class TestMatmul:
    def test_identity(self):
        m = np.array([[2.0, 3.0], [5.0, 7.0]])
        out = T.matmul(Tensor(np.eye(2)), Tensor(m))
        assert np.array_equal(out.data, m)

    def test_by_hand(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        out = T.matmul(Tensor(a), Tensor(b))
        assert np.abs(out.data - matmul_oracle(a, b)).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_bias_matches_a_broadcast_add(self):
        # the bias is added in place on the product, with the same rounding
        # as a separate add node, and its gradient is the column sums
        rng = np.random.default_rng(10)
        a = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        bias = Tensor(rng.standard_normal(4), requires_grad=True)
        grad = rng.standard_normal((5, 4))
        out = T.matmul(a, b, bias=bias)
        T.tensor_sum(T.mul(out, grad)).backward()
        assert np.array_equal(out.data, a.data @ b.data + bias.data)
        assert np.array_equal(bias.grad, grad.sum(axis=0))
        assert np.array_equal(a.grad, grad @ b.data.T)
        assert np.array_equal(b.grad, a.data.T @ grad)

    def test_conv1x1_passes_the_bias(self):
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((6, 3))
        kernel, bias = rng.standard_normal((2, 3, 1, 1)), rng.standard_normal(2)
        out = T.conv1x1(Tensor(rows), Tensor(kernel), Tensor(bias))
        assert np.array_equal(out.data, rows @ kernel[:, :, 0, 0].T + bias)

    @pytest.mark.parametrize("shape", [(3,), (1,), (1, 2), ()])
    def test_bias_of_wrong_length_rejected(self, shape):
        with pytest.raises(ShapeError, match="bias"):
            T.matmul(Tensor(np.ones((4, 3))), Tensor(np.ones((3, 2))),
                     bias=Tensor(np.ones(shape)))


# pre-activation values whose relu gradient is easy to get wrong
SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])


def assert_fused_relu_matches(op, leaves, rng):
    """``op(*leaves, relu=True)`` against ``relu(op(*leaves))`` under one
    random output gradient: the output and every leaf gradient, bit for
    bit. Returns the unfused pre-activations."""
    results, grad = [], None
    with np.errstate(all="ignore"):         # NaN and inf run through the GEMMs
        for fused in (True, False):
            for t in leaves:
                t.zero_grad()
            pre = None if fused else op(*leaves)
            out = op(*leaves, relu=True) if fused else relu(pre)
            if grad is None:
                grad = rng.standard_normal(out.shape)
            T.tensor_sum(T.mul(out, grad)).backward()
            results.append([out.data] + [t.grad for t in leaves])
    for got, expected in zip(*results):
        assert got.shape == expected.shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expected).tobytes()
    return pre.data


def assert_holds_specials(pre):
    assert np.isnan(pre).any() and np.isposinf(pre).any() and np.isneginf(pre).any()
    assert (pre == 0.0).any() and (pre > 0.0).any() and (pre < 0.0).any()


class TestFusedRelu:
    """``relu=True`` on conv2d, matmul and conv1x1 is ``relu`` of the unfused
    op: the value and the input, weight or kernel and bias gradients."""

    def test_mask_of_the_output_is_the_mask_of_the_input(self):
        # the fused backward masks by out > 0 where out = max(in, 0); a GEMM
        # sums from +0.0, so -0.0 reaches this only through the bias
        pre = np.concatenate([SPECIALS, [-1e-300, 1e-300, -2.0, 3.0]])
        out = np.maximum(pre, 0.0)
        assert np.array_equal(out > 0.0, pre > 0.0)

    # no bias; -0.0 and zeros in the bias; NaN and infinities in it
    @pytest.mark.parametrize("bias", [None, [-0.0, 0.0, 0.5, -0.25, 1.0],
                                      list(SPECIALS)])
    def test_matmul(self, bias):
        rng = np.random.default_rng(40)
        a = rng.standard_normal((7, 3))
        a[0, 0], a[1] = np.nan, 0.0         # a NaN row and an exact-zero row
        b = rng.standard_normal((3, 5))
        b[0, 1], b[0, 2] = np.inf, -np.inf  # infinite columns, NaN at a zero
        leaves = [Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)]
        if bias is not None:
            leaves.append(Tensor(np.array(bias), requires_grad=True))
        pre = assert_fused_relu_matches(
            lambda a, b, *bias, relu=False: T.matmul(a, b, *bias, relu=relu),
            leaves, rng)
        assert_holds_specials(pre)

    def test_conv1x1(self):
        rng = np.random.default_rng(42)
        rows = rng.standard_normal((6, 3))
        rows[0, 1], rows[1, 2], rows[2] = np.inf, np.nan, 0.0
        kernel = rng.standard_normal((5, 3, 1, 1))
        leaves = [Tensor(rows, requires_grad=True), Tensor(kernel, requires_grad=True),
                  Tensor(np.concatenate([SPECIALS[3:], [0.1, -0.1, 2.0]]),
                         requires_grad=True)]
        pre = assert_fused_relu_matches(
            lambda r, k, bias, relu=False: T.conv1x1(r, k, bias, relu=relu),
            leaves, rng)
        assert_holds_specials(pre)

    # (B, C, O, kh, kw, H, W, stride, padding): the backbone's 4x4 stride-2
    # and 3x3 stride-1 stages, and a kernel that is not a stride multiple
    @pytest.mark.parametrize("biased", [False, True])
    @pytest.mark.parametrize("geometry", [
        (2, 3, 5, 4, 4, 16, 16, 2, 1), (2, 4, 5, 3, 3, 8, 8, 1, 1),
        (3, 2, 5, 3, 3, 9, 7, 2, 1),
    ])
    def test_conv2d(self, geometry, biased):
        b, c, o, kh, kw, h, w, stride, padding = geometry
        rng = np.random.default_rng(43)
        x = rng.standard_normal((b, c, h, w))
        x[0, 0, 1, 1], x[0, 1, h - 2, w - 2] = np.inf, -np.inf
        x[0, 0, h // 2, 1] = np.nan
        x[-1] = 0.0                          # a blank sample: exact zeros
        leaves = [Tensor(x, requires_grad=True),
                  Tensor(rng.standard_normal((o, c, kh, kw)), requires_grad=True)]
        if biased:
            leaves.append(Tensor(np.array([-0.0, 0.0, 0.3, -0.3, 1.0]),
                                 requires_grad=True))
        pre = assert_fused_relu_matches(
            lambda x, k, bias=None, relu=False: T.conv2d(
                x, k, stride=stride, padding=padding, bias=bias, relu=relu),
            leaves, rng)
        assert_holds_specials(pre)


class TestSigmoid:
    def test_saturates_to_exact_limits_without_overflow(self):
        x = Tensor(np.array([-1000.0, -745.0, 745.0, 1000.0]), requires_grad=True)
        out = T.sigmoid(x)
        assert out.data.tolist() == [0.0, 0.0, 1.0, 1.0]
        T.tensor_sum(out).backward()
        assert x.grad.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_matches_the_plain_formula_bit_for_bit(self):
        x = np.linspace(-709.0, 709.0, 10001)
        assert np.array_equal(T.sigmoid(x).data, 1.0 / (1.0 + np.exp(-x)))

    def test_nan_stays_nan(self):
        assert np.isnan(T.sigmoid(np.array([np.nan])).data).all()

    def test_scalar(self):
        assert T.sigmoid(-1000.0).item() == 0.0


class TestSoftmaxRows:
    def test_uniform(self):
        out = T.softmax_rows(Tensor(np.zeros((1, 4))))
        assert np.allclose(out.data, 0.25, atol=1e-15)

    def test_closed_form(self):
        out = T.softmax_rows(Tensor([[0.0, math.log(3.0)]]))
        assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_stabilized(self):
        out = T.softmax_rows(Tensor([[1000.0, 1000.0]]))
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 7)) * 10
        out = T.softmax_rows(Tensor(x))
        assert np.abs(out.data.sum(axis=1) - 1.0).max() < 1e-9
        shifted = T.softmax_rows(Tensor(x + 123.456))
        assert np.abs(out.data - shifted.data).max() < 1e-12


class TestLayernorm:
    def test_constant_row(self):
        out = T.layernorm(Tensor([[3.0, 3.0, 3.0]]), Tensor(np.ones(3)),
                          Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0)

    def test_closed_form(self):
        out = T.layernorm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)),
                          Tensor(np.zeros(2)))
        expected = np.array([[-1.0, 1.0]]) / np.sqrt(1.0 + T.LAYERNORM_EPS)
        assert np.allclose(out.data, expected, rtol=0.0, atol=1e-12)

    def test_row_statistics(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 8)) * 3 + 1
        out = T.layernorm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert np.abs(out.data.mean(axis=1)).max() < 1e-9
        var = out.data.var(axis=1)
        assert np.all(var > 1 - 1e-4) and np.all(var < 1 + 1e-4)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 6))
        gain = Tensor(rng.uniform(0.5, 2.0, 6))
        bias = Tensor(rng.standard_normal(6))
        a = T.layernorm(Tensor(x), gain, bias)
        b = T.layernorm(Tensor(x + 42.0), gain, bias)
        assert np.abs(a.data - b.data).max() < 1e-6

    @staticmethod
    def formula(x, gain, bias, grad):
        """Value and (x, gain, bias) gradients, the mean subtracted twice."""
        mu = x.mean(axis=1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + T.LAYERNORM_EPS)
        xhat = (x - mu) * inv_std
        gxhat = grad * gain
        gx = (gxhat - gxhat.mean(axis=1, keepdims=True)
              - xhat * (gxhat * xhat).mean(axis=1, keepdims=True)) * inv_std
        return (xhat * gain + bias, gx, (grad * xhat).sum(axis=0),
                grad.sum(axis=0))

    @pytest.mark.parametrize("constant", [False, True])
    def test_bitwise_against_the_formula(self, constant):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((64, 32)) * 3.0 + 1.0
        if constant:
            x[:] = rng.standard_normal((64, 1))
        gain, bias, grad = (rng.standard_normal(s) for s in (32, 32, (64, 32)))
        leaves = [Tensor(a, requires_grad=True) for a in (x, gain, bias)]
        out = T.layernorm(*leaves)
        T.tensor_sum(T.mul(out, grad)).backward()
        expected = self.formula(x, gain, bias, grad)
        for got, want in zip([out.data] + [t.grad for t in leaves], expected):
            assert np.array_equal(got, want)


class TestConv2d:
    def test_one_by_one_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 1, 4, 4))
        k = np.ones((1, 1, 1, 1))
        out = T.conv2d(Tensor(x), Tensor(k))
        assert np.array_equal(out.data, x)

    def test_sum_of_ones(self):
        out = T.conv2d(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.ones((1, 1, 2, 2))))
        assert np.array_equal(out.data, np.full((1, 1, 2, 2), 4.0))

    def test_against_naive_loops(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 2, 5, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        out = T.conv2d(Tensor(x), Tensor(k))
        assert np.abs(out.data[0] - conv_oracle(x[0], k)).max() < 1e-12

    def test_stride_and_padding_against_loops(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 2, 7, 7))
        k = rng.standard_normal((4, 2, 3, 3))
        out = T.conv2d(Tensor(x), Tensor(k), stride=2, padding=1)
        assert np.abs(out.data[0] - conv_oracle(x[0], k, stride=2, padding=1)).max() < 1e-12

    def test_non_integral_extent(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.ones((1, 1, 6, 6))), Tensor(np.ones((1, 1, 3, 3))),
                     stride=2, padding=1)

    def test_zero_stride_rejected(self):
        with pytest.raises(ShapeError, match="stride"):
            T.conv2d(Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 2, 2))), stride=0)

    def test_negative_padding_rejected(self):
        with pytest.raises(ShapeError, match="padding"):
            T.conv2d(Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 2, 2))),
                     padding=-1)

    def test_kernel_larger_than_padded_input_rejected(self):
        with pytest.raises(ShapeError, match="larger"):
            T.conv2d(Tensor(np.ones((1, 1, 3, 5))), Tensor(np.ones((1, 1, 4, 2))))

    # (C, O, kh, kw, H, W, stride, padding): the four backbone stages, then
    # the reduce conv and the head convs
    @pytest.mark.parametrize("geometry", [
        (3, 8, 4, 4, 16, 16, 2, 1), (8, 16, 4, 4, 8, 8, 2, 1),
        (16, 32, 4, 4, 8, 8, 2, 1), (32, 32, 3, 3, 4, 4, 1, 1),
        (32, 32, 1, 1, 4, 4, 1, 0), (32, 2, 1, 1, 4, 3, 1, 0),
        (32, 1, 1, 1, 4, 3, 1, 0),
    ])
    def test_model_geometries_match_rowmajor_and_loop_oracles(self, geometry):
        check_conv_against_oracles(np.random.default_rng(11), *geometry)

    @settings(max_examples=60, deadline=None)
    @given(geometry=conv_geometries(), seed=st.integers(0, 2**32 - 1))
    def test_random_geometries_match_oracles(self, geometry, seed):
        check_conv_against_oracles(np.random.default_rng(seed), *geometry)

    @pytest.mark.parametrize("geometry", [
        (3, 8, 4, 4, 16, 16, 2, 1), (32, 32, 3, 3, 4, 4, 1, 1),
        (32, 2, 1, 1, 4, 3, 1, 0),
    ])
    def test_batch_matches_per_sample_oracle(self, geometry):
        c, o, kh, kw, h, w, stride, padding = geometry
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((3, c, h, w)), requires_grad=True)
        kernel = Tensor(rng.standard_normal((o, c, kh, kw)), requires_grad=True)
        out = T.conv2d(x, kernel, stride=stride, padding=padding)
        grad = rng.standard_normal(out.shape)
        T.tensor_sum(T.mul(out, grad)).backward()
        samples = [rowmajor_conv2d(xi, kernel.data, gi, stride, padding)
                   for xi, gi in zip(x.data, grad)]
        assert_relative(out.data, np.stack([ref_out for ref_out, _, _ in samples]))
        assert_relative(x.grad, np.stack([ref_dx for _, ref_dx, _ in samples]))
        assert_relative(kernel.grad, sum(ref_dk for _, _, ref_dk in samples))

    # (B, C, O, kh, kw, H, W, stride, padding): the backbone stages of a
    # training step's search (128) and template (64) crops, batch 2, of the
    # 255 search crop (padded to 256), batch 1, and of the 128 search crop
    # or 127 template crop, batch 1
    @pytest.mark.parametrize("geometry", [
        (2, 3, 8, 4, 4, 128, 128, 2, 1), (2, 8, 16, 4, 4, 64, 64, 2, 1),
        (2, 16, 32, 4, 4, 32, 32, 2, 1), (2, 32, 32, 3, 3, 16, 16, 1, 1),
        (2, 3, 8, 4, 4, 64, 64, 2, 1), (2, 8, 16, 4, 4, 32, 32, 2, 1),
        (2, 16, 32, 4, 4, 16, 16, 2, 1), (2, 32, 32, 3, 3, 8, 8, 1, 1),
        (1, 3, 8, 4, 4, 256, 256, 2, 1), (1, 8, 16, 4, 4, 128, 128, 2, 1),
        (1, 16, 32, 4, 4, 64, 64, 2, 1), (1, 32, 32, 3, 3, 32, 32, 1, 1),
        (1, 3, 8, 4, 4, 128, 128, 2, 1), (1, 8, 16, 4, 4, 64, 64, 2, 1),
        (1, 16, 32, 4, 4, 32, 32, 2, 1), (1, 32, 32, 3, 3, 16, 16, 1, 1),
    ])
    def test_workload_stages_match_scatter_oracle(self, geometry):
        check_conv_against_scatter(np.random.default_rng(13), *geometry, biased=True)

    # kernels that are not a multiple of the stride, strides above the
    # kernel, stride 3, non-square inputs, each with and without a bias
    @pytest.mark.parametrize("biased", [False, True])
    @pytest.mark.parametrize("geometry", [
        (1, 2, 3, 3, 3, 7, 7, 2, 1), (2, 3, 2, 5, 5, 9, 11, 2, 2),
        (3, 2, 4, 5, 3, 9, 7, 3, 1), (2, 2, 3, 1, 1, 5, 7, 2, 0),
        (1, 3, 2, 2, 4, 7, 9, 3, 2), (3, 1, 2, 4, 2, 10, 5, 1, 0),
        (2, 4, 3, 1, 1, 4, 6, 1, 0), (2, 2, 2, 1, 1, 3, 5, 1, 2),
    ])
    def test_odd_geometries_match_scatter_oracle(self, geometry, biased):
        check_conv_against_scatter(np.random.default_rng(14), *geometry, biased)

    @settings(max_examples=80, deadline=None)
    @given(geometry=scatter_geometries(), seed=st.integers(0, 2**32 - 1))
    def test_random_geometries_match_scatter_oracle(self, geometry, seed):
        check_conv_against_scatter(np.random.default_rng(seed), *geometry)

    @pytest.mark.parametrize("biased", [False, True])
    def test_single_sample_matches_scatter_oracle(self, biased):
        # a batch of one, with a 4x4 kernel at stride 2 and a 1x1 kernel
        rng = np.random.default_rng(15)
        for geometry in ((1, 3, 4, 4, 4, 10, 8, 2, 1), (1, 4, 2, 1, 1, 3, 5, 1, 0)):
            check_conv_against_scatter(rng, *geometry, biased)

    def test_pointwise_view_of_a_conv_output_with_bias(self):
        # a 1x1 conv of a previous conv's output, a strided view cropped
        # out of that conv's wide product
        rng = np.random.default_rng(16)
        x = Tensor(rng.standard_normal((2, 3, 6, 5)), requires_grad=True)
        k1 = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        k2 = Tensor(rng.standard_normal((2, 4, 1, 1)), requires_grad=True)
        bias = Tensor(rng.standard_normal(2), requires_grad=True)
        mid = T.conv2d(x, k1, padding=1)
        out = T.conv2d(mid, k2, bias=bias)
        grad = rng.standard_normal(out.shape)
        T.tensor_sum(T.mul(out, grad)).backward()
        ref_out, ref_dmid, ref_dk2, ref_db = scatter_conv2d(
            mid.data, k2.data, grad, bias=bias.data)
        _, ref_dx, ref_dk1, _ = scatter_conv2d(x.data, k1.data, ref_dmid, padding=1)
        for got, expected in ((out.data, ref_out), (k2.grad, ref_dk2),
                              (bias.grad, ref_db), (k1.grad, ref_dk1), (x.grad, ref_dx)):
            assert_relative(got, expected)

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("geometry", [
        (3, 8, 4, 4, 256, 2), (8, 16, 4, 4, 128, 2), (16, 32, 4, 4, 64, 2),
        (32, 32, 3, 3, 32, 1), (3, 8, 4, 4, 64, 2), (32, 32, 3, 3, 8, 1),
    ])
    def test_constant_input_gives_equal_interior_outputs(self, batch, geometry):
        # every output whose window stays off the zero padding reads the
        # same values, so it must come out bit for bit the same
        c, o, kh, kw, size, stride = geometry
        rng = np.random.default_rng(18)
        x = np.full((batch, c, size, size), 0.37)
        kernel = rng.standard_normal((o, c, kh, kw))
        bias = rng.standard_normal(o)
        out = T.conv2d(Tensor(x), Tensor(kernel), stride=stride, padding=1,
                       bias=Tensor(bias)).data
        inner = out[:, :, 1:-1, 1:-1]
        assert inner.size
        assert np.array_equal(inner, np.broadcast_to(inner[:1, :, :1, :1], inner.shape))

    # (B, C, O, kh, kw, H, W, stride, padding)
    @pytest.mark.parametrize("geometry", [
        (2, 3, 4, 4, 4, 16, 16, 2, 1), (2, 4, 3, 3, 3, 8, 8, 1, 1),
        (2, 2, 3, 3, 3, 9, 7, 2, 1), (1, 2, 2, 2, 5, 13, 10, 3, 2),
        (3, 1, 2, 1, 1, 5, 7, 2, 0),
    ])
    def test_nan_pixel_reaches_only_the_windows_that_read_it(self, geometry):
        # the junk columns and rows of the wide product read across row and
        # sample edges; none of that may reach a kept output
        b, c, o, kh, kw, h, w, stride, padding = geometry
        rng = np.random.default_rng(19)
        kernel = rng.standard_normal((o, c, kh, kw))
        oh = (h + 2 * padding - kh) // stride + 1
        ow = (w + 2 * padding - kw) // stride + 1
        for sample, channel, y, x in ((0, 0, 0, 0), (b - 1, c - 1, h - 1, w - 1),
                                      (b // 2, 0, h // 2, w - 1), (0, c - 1, h - 1, 0)):
            pixels = rng.standard_normal((b, c, h, w))
            pixels[sample, channel, y, x] = np.nan
            out = T.conv2d(Tensor(pixels), Tensor(kernel), stride=stride,
                           padding=padding).data
            py, px = y + padding, x + padding
            rows = (np.arange(oh) * stride <= py) & (py < np.arange(oh) * stride + kh)
            cols = (np.arange(ow) * stride <= px) & (px < np.arange(ow) * stride + kw)
            expected = np.zeros(out.shape, dtype=bool)
            expected[sample, :, rows[:, None] & cols[None, :]] = True
            assert np.array_equal(np.isnan(out), expected)

    @pytest.mark.parametrize("shape", [(3,), (1,), (2, 1), ()])
    def test_bias_of_wrong_length_rejected(self, shape):
        with pytest.raises(ShapeError, match="bias"):
            T.conv2d(Tensor(np.ones((2, 1, 4, 4))), Tensor(np.ones((2, 1, 3, 3))),
                     bias=Tensor(np.ones(shape)))

    def test_batched_input_must_be_four_dimensional(self):
        with pytest.raises(ShapeError, match="expects"):
            T.conv2d(Tensor(np.ones((1, 1, 1, 4, 4))), Tensor(np.ones((1, 1, 2, 2))))


TAPE_OPS = {
    # a fused relu's backward reads the output array, not the output tensor
    "relu": lambda x: T.conv2d(T.reshape(T.matmul(x, x, relu=True), (1, 1, 3, 3)),
                               np.ones((1, 1, 2, 2)), relu=True),
    "sigmoid": T.sigmoid, "absolute": T.absolute,
    "clamp": lambda x: T.clamp(x, -0.5, 0.5), "transpose": T.transpose,
    "take": lambda x: T.take(x, 1), "matmul": lambda x: T.matmul(x, x),
    "softmax_rows": T.softmax_rows,
    "multi_head_softmax_attention":
        lambda x: T.multi_head_softmax_attention(x, x, x, 3),
    "layernorm": lambda x: T.layernorm(x, np.ones(3), np.zeros(3)),
    "conv2d": lambda x: T.conv2d(T.reshape(x, (1, 1, 3, 3)), np.ones((1, 1, 2, 2))),
}


class TestBackward:
    def test_linear_closed_form(self):
        rng = np.random.default_rng(6)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        x = Tensor(rng.standard_normal((4, 2)))
        T.tensor_sum(T.matmul(w, x)).backward()
        # d(sum(Wx))/dW = outer structure: row-constant sums of x rows
        expected = np.tile(x.data.sum(axis=1), (3, 1))
        assert np.allclose(w.grad, expected, atol=1e-12)

    def test_disconnected_parameter(self):
        used = Tensor(np.ones((2, 2)), requires_grad=True)
        unused = Tensor(np.ones((2, 2)), requires_grad=True)
        T.tensor_sum(T.mul(used, 2.0)).backward()
        assert unused.grad is None  # never touched == exactly zero

    def test_non_scalar_raises(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            T.add(t, 1.0).backward()

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        a = Tensor(rng.uniform(0.5, 1.5, (3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 3)), requires_grad=True)

        def loss():
            return T.tensor_sum(T.mul(T.sigmoid(T.matmul(a, b)), T.log(a)))

        worst, failures = finite_difference_check(loss, [a, b])
        assert not failures
        assert worst < 1e-4

    def test_tensor_added_to_itself(self):
        x = Tensor(np.array([[1.0, -2.0], [3.0, 0.5]]), requires_grad=True)
        r = np.array([[2.0, 3.0], [5.0, 7.0]])
        T.tensor_sum(T.mul(T.add(x, x), r)).backward()
        assert np.array_equal(x.grad, 2.0 * r)

    def test_two_reshapes_of_one_tensor(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        r1, r2 = np.arange(6.0), np.arange(6.0).reshape(3, 2) ** 2
        loss = T.add(T.tensor_sum(T.mul(T.reshape(x, (6,)), r1)),
                     T.tensor_sum(T.mul(T.reshape(x, (3, 2)), r2)))
        loss.backward()
        assert np.array_equal(x.grad, r1.reshape(2, 3) + r2.reshape(2, 3))

    def test_leaf_gradients_survive_and_interior_ones_are_dropped(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.full((2, 2), 3.0), requires_grad=True)
        mid = T.add(a, b)
        loss = T.tensor_sum(T.mul(mid, mid))
        loss.backward()
        assert np.array_equal(a.grad, np.full((2, 2), 8.0))
        assert np.array_equal(b.grad, np.full((2, 2), 8.0))
        assert mid.grad is None and loss.grad is None

    @pytest.mark.parametrize("shared_first", [True, False])
    def test_gradient_shared_by_two_leaves_is_not_written(self, shared_first):
        # add hands one gradient array to both operands; a later gradient
        # for one of them must not reach the other through that array
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        shared = T.tensor_sum(T.add(a, b))
        own = T.tensor_sum(T.mul(a, 2.0))
        (T.add(shared, own) if shared_first else T.add(own, shared)).backward()
        assert np.array_equal(a.grad, np.full(3, 3.0))
        assert np.array_equal(b.grad, np.ones(3))

    def test_second_backward_adds_without_writing_the_first_gradient(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        T.tensor_sum(T.mul(x, 3.0)).backward()
        first = x.grad
        T.tensor_sum(T.mul(x, 5.0)).backward()
        assert np.array_equal(first, [3.0, 3.0])
        assert np.array_equal(x.grad, [8.0, 8.0])

    @pytest.mark.parametrize("op, inside", [
        (relu, lambda x: x > 0.0),
        (lambda x: T.clamp(x, -0.5, 0.5), lambda x: (x > -0.5) & (x < 0.5)),
    ])
    def test_mask_gradients_are_exact_and_keep_nan(self, op, inside):
        x = Tensor(np.array([-1.0, -0.5, 0.0, 0.25, 0.5, 2.0, -3.0, 0.1]),
                   requires_grad=True)
        grad = np.array([1.5, 2.0, -3.0, 0.7, 4.0, np.nan, np.nan, -np.inf])
        T.tensor_sum(T.mul(op(x), grad)).backward()
        # masked entries are grad * 0.0: zero, or nan for a non-finite grad
        with np.errstate(invalid="ignore"):
            expected = np.where(inside(x.data), grad, grad * 0.0)
        assert np.array_equal(x.grad, expected, equal_nan=True)

    def test_grad_accumulates_across_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = T.add(T.mul(x, 3.0), T.mul(x, 5.0))
        T.tensor_sum(y).backward()
        assert np.allclose(x.grad, [8.0])

    @pytest.mark.parametrize("op", sorted(TAPE_OPS))
    def test_tape_freed_without_cycle_collector(self, op):
        # a backward closure that captures its result forms a cycle that
        # only the cyclic collector frees
        x = Tensor(np.random.default_rng(9).standard_normal((3, 3)),
                   requires_grad=True)
        gc.disable()
        try:
            mid = TAPE_OPS[op](x)
            loss = T.tensor_sum(T.mul(mid, mid))
            loss.backward()
            alive = weakref.ref(mid.data)   # Tensor has __slots__, no weakref
            del mid, loss
            assert alive() is None
        finally:
            gc.enable()


class TestNoGrad:
    def test_suppresses_graph(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with T.no_grad():
            y = T.mul(x, 3.0)
        assert not y.requires_grad and y._parents == ()

    def test_other_threads_no_grad_does_not_leak(self):
        # thread A sits inside no_grad while this thread records an op
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        entered = threading.Barrier(2, timeout=30)
        release = threading.Barrier(2, timeout=30)

        def hold():
            with T.no_grad():
                entered.wait()
                release.wait()

        other = threading.Thread(target=hold)
        other.start()
        try:
            entered.wait()
            y = T.mul(x, 3.0)
        finally:
            release.wait()
            other.join(timeout=30)
        assert not other.is_alive()
        assert y.requires_grad and y._backward is not None

    def test_threads_toggling_no_grad_each_see_their_own_switch(self):
        # more threads than cores, switching often: every op recorded
        # outside no_grad must be on the tape and none inside it
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        wrong = []

        def worker():
            for _ in range(300):
                with T.no_grad():
                    if T.mul(x, 2.0).requires_grad:
                        wrong.append("recorded inside no_grad")
                if not T.mul(x, 2.0).requires_grad:
                    wrong.append("dropped outside no_grad")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


@dataclasses.dataclass
class _Leaf:
    w: Tensor
    n_heads: int = 2
    eps: float = 1e-5


@dataclasses.dataclass
class _Tree:
    first: Tensor
    convs: list
    leaf: _Leaf
    layers: list
    width: int = 4


class TestNamedParameters:
    def _tree(self):
        t = [Tensor(np.full(2, float(i)), requires_grad=True) for i in range(7)]
        tree = _Tree(first=t[0], convs=[T.Conv(t[1], t[2]), T.Conv(t[3], t[4])],
                     leaf=_Leaf(t[5]), layers=[t[6]])
        return tree, t

    def test_field_paths_in_declaration_order(self):
        tree, t = self._tree()
        named = list(T.named_parameters(tree))
        assert [name for name, _ in named] == [
            "first", "convs0.kernel", "convs0.bias", "convs1.kernel",
            "convs1.bias", "leaf.w", "layers0"]
        assert all(p is q for (_, p), q in zip(named, t))

    def test_prefix_and_parameters(self):
        tree, t = self._tree()
        assert next(T.named_parameters(tree.leaf, "net.leaf."))[0] == "net.leaf.w"
        params = T.parameters(tree)
        assert len(params) == len(t) and all(p is q for p, q in zip(params, t))


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        params = [("a.weight", Tensor(rng.standard_normal((3, 4)))),
                  ("b.bias", Tensor(rng.standard_normal(5))),
                  ("c.scalar", Tensor(1.25))]
        path = tmp_path / "model.trtr"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert set(loaded) == {"a.weight", "b.bias", "c.scalar"}
        for name, tensor in params:
            assert loaded[name].shape == tensor.data.shape
            assert np.array_equal(loaded[name], tensor.data)

    def test_header_line(self, tmp_path):
        path = tmp_path / "model.trtr"
        save_checkpoint([("x", Tensor([1.0]))], path)
        with open(path, "rb") as fh:
            assert fh.readline() == b"TRTR-CKPT v1\n"

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.trtr"
        path.write_bytes(b"NOT-A-CKPT\n0\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims", ["2 -2 -3", "1 -4", "2 100000 100000",
                                      "3 2 2", "1 7"])
    def test_rejects_shape_the_file_cannot_hold(self, tmp_path, dims):
        # negative or missing dims, or more elements than the rest of the
        # file holds, must fail before any read or allocation of that size
        path = tmp_path / "bad.trtr"
        path.write_bytes(b"TRTR-CKPT v1\n1\nenc.w " + dims.encode()
                         + b"\n" + bytes(48))
        with pytest.raises(ValueError, match="enc.w"):
            load_checkpoint(path)

    @pytest.mark.parametrize("body, match", [
        (b"3\na 1 1\n" + bytes(8), "entry 1 of 3 has no header"),   # count too large
        (b"2\n", "entry 0 of 2 has no header"),                      # cut after the count
        (b"1\nw\n", "entry 0 'w' has malformed dims"),               # header of one field
        (b"1\nw 1 x\n" + bytes(8), "entry 0 'w' has malformed dims"),
        (b"two\n", "entry count"),
        (b"", "entry count"),
        (b"-1\n", "entry count"),
    ])
    def test_short_header_names_the_entry(self, tmp_path, body, match):
        path = tmp_path / "bad.trtr"
        path.write_bytes(b"TRTR-CKPT v1\n" + body)
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)

    def test_rejects_duplicate_names(self, tmp_path):
        params = [("w", Tensor([1.0])), ("w", Tensor([2.0]))]
        with pytest.raises(ValueError):
            save_checkpoint(params, tmp_path / "dup.trtr")


def _valid_checkpoint() -> bytes:
    """A 3-entry archive as ``save_checkpoint`` writes it."""
    head = b"TRTR-CKPT v1\n3\n"
    entries = [(b"enc.w 2 2 3\n", np.arange(6.0)), (b"enc.b 1 2\n", np.array([0.5, -1.0])),
               (b"scale 0 \n", np.array([1.25]))]
    return head + b"".join(line + values.astype("<f8").tobytes() for line, values in entries)


@st.composite
def damaged_checkpoints(draw):
    """The valid archive with up to 4 bytes replaced, then maybe truncated."""
    data = bytearray(_valid_checkpoint())
    for _ in range(draw(st.integers(0, 4))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data[:draw(st.integers(0, len(data)))])


class TestCheckpointFuzz:
    def test_valid_archive_is_what_save_writes(self, tmp_path):
        path = tmp_path / "ok.trtr"
        save_checkpoint([("enc.w", Tensor(np.arange(6.0).reshape(2, 3))),
                         ("enc.b", Tensor([0.5, -1.0])), ("scale", Tensor(1.25))], path)
        assert path.read_bytes() == _valid_checkpoint()

    @settings(max_examples=800, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=damaged_checkpoints())
    def test_load_checkpoint(self, tmp_path, data):
        path = tmp_path / "model.trtr"
        path.write_bytes(data)
        try:
            entries = load_checkpoint(path)
        except (ValueError, ShapeError, TrackingError):
            return
        for array in entries.values():
            assert array.dtype == np.float64
