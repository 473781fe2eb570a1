import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from attntrack import tensor as T
from attntrack.errors import ShapeError
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


def assert_relative(actual, expected, tol=1e-12):
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= tol * np.abs(expected).max()


def check_conv_against_oracles(rng, c, o, kh, kw, h, w, stride, padding):
    x = Tensor(rng.standard_normal((c, h, w)), requires_grad=True)
    kernel = Tensor(rng.standard_normal((o, c, kh, kw)), requires_grad=True)
    out = T.conv2d(x, kernel, stride=stride, padding=padding)
    grad = rng.standard_normal(out.shape)
    T.tensor_sum(T.mul(out, grad)).backward()
    ref_out, ref_dx, ref_dk = rowmajor_conv2d(x.data, kernel.data, grad, stride, padding)
    loop_dx, loop_dk = conv_oracle_grads(x.data, kernel.data, grad, stride, padding)
    for actual, expected in ((out.data, ref_out), (x.grad, ref_dx), (kernel.grad, ref_dk),
                             (out.data, conv_oracle(x.data, kernel.data, stride, padding)),
                             (x.grad, loop_dx), (kernel.grad, loop_dk)):
        assert_relative(actual, expected)


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
                          Tensor(np.zeros(2)), eps=0.0)
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-12)

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


class TestConv2d:
    def test_one_by_one_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 4, 4))
        k = np.ones((1, 1, 1, 1))
        out = T.conv2d(Tensor(x), Tensor(k))
        assert np.array_equal(out.data, x)

    def test_sum_of_ones(self):
        out = T.conv2d(Tensor(np.ones((1, 3, 3))), Tensor(np.ones((1, 1, 2, 2))))
        assert np.array_equal(out.data, np.full((1, 2, 2), 4.0))

    def test_against_naive_loops(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 5, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        out = T.conv2d(Tensor(x), Tensor(k))
        assert np.abs(out.data - conv_oracle(x, k)).max() < 1e-12

    def test_stride_and_padding_against_loops(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 7, 7))
        k = rng.standard_normal((4, 2, 3, 3))
        out = T.conv2d(Tensor(x), Tensor(k), stride=2, padding=1)
        assert np.abs(out.data - conv_oracle(x, k, stride=2, padding=1)).max() < 1e-12

    def test_non_integral_extent(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.ones((1, 6, 6))), Tensor(np.ones((1, 1, 3, 3))),
                     stride=2, padding=1)

    def test_zero_stride_rejected(self):
        with pytest.raises(ShapeError, match="stride"):
            T.conv2d(Tensor(np.ones((1, 4, 4))), Tensor(np.ones((1, 1, 2, 2))), stride=0)

    def test_negative_padding_rejected(self):
        with pytest.raises(ShapeError, match="padding"):
            T.conv2d(Tensor(np.ones((1, 4, 4))), Tensor(np.ones((1, 1, 2, 2))), padding=-1)

    def test_kernel_larger_than_padded_input_rejected(self):
        with pytest.raises(ShapeError, match="larger"):
            T.conv2d(Tensor(np.ones((1, 3, 5))), Tensor(np.ones((1, 1, 4, 2))))

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


TAPE_OPS = {
    "relu": T.relu, "sigmoid": T.sigmoid, "absolute": T.absolute,
    "clamp": lambda x: T.clamp(x, -0.5, 0.5), "transpose": T.transpose,
    "concat": lambda x: T.concat([x, x], axis=1),
    "take": lambda x: T.take(x, 1), "matmul": lambda x: T.matmul(x, x),
    "softmax_rows": T.softmax_rows,
    "multi_head_softmax_attention":
        lambda x: T.multi_head_softmax_attention(x, x, x, 3),
    "layernorm": lambda x: T.layernorm(x, np.ones(3), np.zeros(3)),
    "conv2d": lambda x: T.conv2d(T.reshape(x, (1, 3, 3)), np.ones((1, 1, 2, 2))),
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

    def test_rejects_duplicate_names(self, tmp_path):
        params = [("w", Tensor([1.0])), ("w", Tensor([2.0]))]
        with pytest.raises(ValueError):
            save_checkpoint(params, tmp_path / "dup.trtr")
