"""Dense float64 arrays with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array plus an optional gradient buffer.
Operations record a ``backward(grad)`` closure on a tape (the implicit
graph of ``_parents`` links); calling :meth:`Tensor.backward` on a scalar
result walks the graph in reverse topological order and accumulates
``grad`` on every tensor that was created with ``requires_grad=True``.

Ops are module functions (``T.add``, ``T.matmul``, ``T.take``, ...), not
operators or methods: a tensor has no ``+``, ``@``, ``[]`` or ``.sum()``,
so each op has one spelling.

Everything is float64: the whole package is sized for gradient checking
and desk-scale experiments, not throughput.
"""

from __future__ import annotations

import contextvars
import dataclasses
import math
import os
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ShapeError

Array = np.ndarray


def _as_array(data) -> Array:
    arr = np.asarray(data, dtype=np.float64)
    return arr


class Tensor:
    """N-dimensional float64 array with optional gradient accumulation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data: Array = _as_array(data)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[Array], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph bookkeeping -------------------------------------------------

    def _accumulate(self, g: Array) -> None:
        # the first gradient is kept as it is and later ones are added out
        # of place, so a gradient array that several nodes share (``add``
        # hands the same one to both operands) is never written to
        self.grad = np.asarray(g) if self.grad is None else self.grad + g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from a scalar result to every reachable parameter.

        Leaves keep their gradients. An interior node's gradient is dropped
        once its closure has passed it on, so it is freed as soon as no
        parent holds a view of it.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                grad, node.grad = node.grad, None
                node._backward(grad)


def astensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


class no_grad:
    """Context manager that suspends tape recording (inference mode).

    The switch is context-local: a thread (or asyncio task) inside
    ``no_grad`` does not stop another one from recording.
    """

    def __enter__(self):
        self._token = _grad_enabled.set(False)
        return self

    def __exit__(self, *exc):
        _grad_enabled.reset(self._token)
        return False


def _make(data: Array, parents: Sequence[Tensor], backward: Callable[[Array], None]) -> Tensor:
    """Create a result node; skip tape recording when no parent needs grads.

    ``backward(grad)`` accumulates the result's gradient into the parents.
    It must not capture the result: then the tape holds no reference
    cycles, and a node is freed as soon as it is dropped, without the
    cyclic garbage collector. It must not write into ``grad`` either, which
    may be shared with other nodes.
    """
    out = Tensor(data, requires_grad=_grad_enabled.get() and any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcasted gradient back to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- elementwise ops --------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    data = a.data + b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad, b.shape))

    return _make(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    data = a.data - b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-grad, b.shape))

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    data = a.data * b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * a.data, b.shape))

    return _make(data, (a, b), backward)


def power(a, exponent: float) -> Tensor:
    """a ** exponent for a scalar exponent (a > 0 where exponent < 1)."""
    a = astensor(a)
    exponent = float(exponent)
    data = a.data ** exponent

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * exponent * a.data ** (exponent - 1.0))

    return _make(data, (a,), backward)


def relu(a) -> Tensor:
    a = astensor(a)
    data = np.maximum(a.data, 0.0)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * (a.data > 0.0))

    return _make(data, (a,), backward)


def sigmoid(a) -> Tensor:
    a = astensor(a)
    data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * data * (1.0 - data))

    return _make(data, (a,), backward)


def log(a) -> Tensor:
    a = astensor(a)
    data = np.log(a.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad / a.data)

    return _make(data, (a,), backward)


def absolute(a) -> Tensor:
    a = astensor(a)
    data = np.abs(a.data)

    def backward(grad):
        if a.requires_grad:
            sign = np.sign(a.data)
            a._accumulate(grad * sign)

    return _make(data, (a,), backward)


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only where the input was interior."""
    a = astensor(a)
    data = np.clip(a.data, lo, hi)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * ((a.data > lo) & (a.data < hi)))

    return _make(data, (a,), backward)


# -- reductions and reshaping -------------------------------------------------


def tensor_sum(a) -> Tensor:
    """Sum of every element, as a scalar."""
    a = astensor(a)
    data = np.sum(a.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(grad, a.shape).copy())

    return _make(data, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = astensor(a)
    data = a.data.reshape(shape)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad.reshape(a.shape))

    return _make(data, (a,), backward)


def transpose(a, axes=None) -> Tensor:
    a = astensor(a)
    data = np.transpose(a.data, axes)

    def backward(grad):
        if a.requires_grad:
            inverse = None if axes is None else np.argsort(axes)
            a._accumulate(np.transpose(grad, inverse))

    return _make(data, (a,), backward)


def take(a, index) -> Tensor:
    """Tape-tracked basic/advanced indexing (gradient scatter-adds)."""
    a = astensor(a)
    data = a.data[index]
    if np.isscalar(data) or data.ndim == 0:
        data = np.asarray(data, dtype=np.float64)

    def backward(grad):
        if a.requires_grad:
            g = np.zeros_like(a.data)
            np.add.at(g, index, grad)
            a._accumulate(g)

    return _make(data, (a,), backward)


# -- linear algebra and structured ops ----------------------------------------


def matmul(a, b, bias=None) -> Tensor:
    """(M, K) @ (K, N), plus an optional (N,) ``bias`` added to every row.

    The bias is added in place on the fresh product, so a biased layer is
    one tape node; its gradient is the column sums of the output gradient.
    """
    a, b = astensor(a), astensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    if bias is not None:
        bias = astensor(bias)
        if bias.shape != (b.shape[1],):
            raise ShapeError(f"matmul bias must be ({b.shape[1]},), got {bias.shape}")
    data = a.data @ b.data
    if bias is not None:
        data += bias.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ grad)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=0))

    return _make(data, (a, b) if bias is None else (a, b, bias), backward)


def softmax_rows(x) -> Tensor:
    """Row-wise softmax with max-subtraction stabilization."""
    x = astensor(x)
    if x.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-D tensor, got {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(s * (grad - (grad * s).sum(axis=1, keepdims=True)))

    return _make(s, (x,), backward)


# Bytes of one attention-map block: about 512 KB of rows stays in cache
# from the logits product through exp and the product with v.
_ATTENTION_BLOCK_BYTES = 1 << 19

# A block whose smallest row sum falls below this, or is not finite, is
# redone with its exact row max: the bound sat more than about 460 above a
# row's largest logit, or an input is not finite.
_ATTENTION_MIN_ROW_SUM = 1e-200


def multi_head_softmax_attention(q, k, v, n_heads: int,
                                 maps: list | None = None,
                                 groups: int = 1) -> Tensor:
    """Scaled dot-product attention over packed heads.

    q: (Nq, d), k and v: (Nk, d); head h owns columns h*dh:(h+1)*dh with
    dh = d / n_heads. Returns the (Nq, d) concatenation of the head outputs
    softmax_j(q_h . k_h / sqrt(dh)) @ v_h. The scale is folded into q.

    With ``groups`` G > 1 the attention is block-diagonal: q and k/v are
    split into G equal runs of rows, and run g of the queries attends only
    to run g of the keys, as G separate calls would. Each (head, group)
    pair is one map.

    Each block of map rows is one GEMM, ``exp`` in place and one GEMM.
    Softmax does not change under a per-row shift, so the shift is an
    upper bound on each query's logits over the bounding box of its keys,
    ``b_i = sum_c max(q_ic kmax_c, q_ic kmin_c)``, not the row max. It
    rides in the first GEMM as a ``-b`` column of q against a ones row of
    k^T, so that GEMM returns the logits minus the bound. A ones column on
    v makes the second GEMM return the unnormalised head output next to
    its row sums, and the (rows, dh) output is divided once. A block whose
    smallest row sum is below 1e-200 or not finite (the bound sat more than
    about 460 above a row max, or an input is not finite) is redone with
    its exact row max. Off the tape one block is live at a time; the
    (h*G, Nq/G, Nk/G) stack of normalised maps is kept when the node is
    recorded for backward, or when ``maps`` is a list, which then gets a
    copy of each map, head-major.

    Backward takes the softmax row term from the output, rowsum(dO * O)
    over (Nq, dh) rather than rowsum(dA * A) over the map, and gets
    dA - rowsum from one GEMM, [dO, -rowsum] @ [v, 1]^T.
    """
    q, k, v = astensor(q), astensor(k), astensor(v)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError(f"attention expects 2-D q/k/v, got {q.shape}, {k.shape}, {v.shape}")
    (nq, d), nk = q.shape, k.shape[0]
    if k.shape != (nk, d) or v.shape != (nk, d):
        raise ShapeError(f"q/k/v shapes disagree: {q.shape}, {k.shape}, {v.shape}")
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"{n_heads} heads do not divide width {d}")
    if groups < 1 or nq % groups or nk % groups:
        raise ShapeError(f"{groups} groups do not divide {nq} query and {nk} key rows")
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)
    stacks = n_heads * groups
    nqg, nkg = nq // groups, nk // groups

    def heads_of(a: Array) -> Array:     # (G*r, d) -> view (h, G, r, dh)
        return a.reshape(groups, -1, n_heads, dh).transpose(2, 0, 1, 3)

    def merge(a: Array) -> Array:        # (h*G, r, dh) -> (G*r, d)
        rows = a.shape[1]
        return a.reshape(n_heads, groups, rows, dh).transpose(1, 2, 0, 3) \
            .reshape(groups * rows, d)

    def widened(a: Array, rows: int, last: float) -> Array:
        """(h*G, rows, dh + 1) stack of a's heads with ``last`` as column dh."""
        wide = np.empty((stacks, rows, dh + 1))
        wide.reshape(n_heads, groups, rows, dh + 1)[..., :dh] = heads_of(a)
        wide[..., dh] = last
        return wide

    qa = widened(q.data * scale, nqg, 0.0)         # [q, -b]
    qs = qa[..., :dh]
    kt = widened(k.data, nkg, 1.0).transpose(0, 2, 1).copy()   # [k, 1]^T
    va = widened(v.data, nkg, 1.0)                 # [v, 1]
    kmax, kmin = kt[:, :dh].max(axis=2), kt[:, :dh].min(axis=2)
    qa[..., dh] = -np.maximum(qs * kmax[:, None], qs * kmin[:, None]).sum(axis=2)

    record = _grad_enabled.get() and (q.requires_grad or k.requires_grad
                                      or v.requires_grad)
    keep = record or maps is not None
    step = max(1, _ATTENTION_BLOCK_BYTES // (8 * nkg))
    weights = np.empty((stacks, nqg, nkg) if keep else (min(step, nqg), nkg))
    sums = np.empty((min(step, nqg), dh + 1))      # [A v, rowsum A] of a block
    out = np.empty((stacks, nqg, dh))
    for s in range(stacks):
        for start in range(0, nqg, step):
            rows = slice(start, min(start + step, nqg))
            a = weights[s, rows] if keep else weights[:rows.stop - start]
            head = sums[:rows.stop - start]
            np.matmul(qa[s, rows], kt[s], out=a)
            np.exp(a, out=a)
            np.matmul(a, va[s], out=head)
            total = head[:, dh:]
            if not (total.min() >= _ATTENTION_MIN_ROW_SUM and total.max() < np.inf):
                np.matmul(qs[s, rows], kt[s, :dh], out=a)
                a -= a.max(axis=1, keepdims=True)
                np.exp(a, out=a)
                np.matmul(a, va[s], out=head)
            np.divide(head[:, :dh], total, out=out[s, rows])
            if keep:
                a /= total
    if maps is not None:
        maps.extend(head_map.copy() for head_map in weights)
    data = merge(out)

    def backward(grad):
        # [dO, -rowsum(dO * O)]; its first dh columns are the heads of dO
        ga = widened(grad, nqg, 0.0)
        gh = ga[..., :dh]
        if v.requires_grad:
            v._accumulate(merge(np.matmul(weights.transpose(0, 2, 1), gh)))
        if not (q.requires_grad or k.requires_grad):
            return
        ga[..., dh] = -np.einsum("hgid,hgid->hgi", heads_of(grad),
                                 heads_of(data)).reshape(stacks, nqg)
        # softmax adjoint: dS = A * (dA - rowsum(dA * A)) with dA = dO V^T;
        # rowsum(dA * A) = rowsum(dO * O), so the bracket is ga @ [v, 1]^T
        ds = np.matmul(ga, va.transpose(0, 2, 1))
        ds *= weights
        if q.requires_grad:
            q._accumulate(merge(np.matmul(ds, kt[:, :dh].transpose(0, 2, 1))) * scale)
        if k.requires_grad:
            k._accumulate(merge(np.matmul(ds.transpose(0, 2, 1), qs)))

    return _make(data, (q, k, v), backward)


# added to each row's variance before the square root
LAYERNORM_EPS = 1e-5


def layernorm(x, gain, bias) -> Tensor:
    """Per-row normalization to zero mean / unit variance, then affine."""
    x, gain, bias = astensor(x), astensor(gain), astensor(bias)
    if x.ndim != 2:
        raise ShapeError(f"layernorm expects a 2-D tensor, got {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("layernorm gain/bias must match the row width")
    mu = x.data.mean(axis=1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = (x.data - mu) * inv_std
    data = xhat * gain.data + bias.data

    def backward(grad):
        if gain.requires_grad:
            gain._accumulate((grad * xhat).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=0))
        if x.requires_grad:
            gxhat = grad * gain.data
            term = gxhat - gxhat.mean(axis=1, keepdims=True) \
                - xhat * (gxhat * xhat).mean(axis=1, keepdims=True)
            x._accumulate(term * inv_std)

    return _make(data, (x, gain, bias), backward)


@dataclasses.dataclass
class Conv:
    """A convolution's (O, C, kh, kw) kernel and its (O,) bias."""
    kernel: Tensor
    bias: Tensor


def conv2d(x, kernel, stride: int = 1, padding: int = 0, bias=None) -> Tensor:
    """2-D cross-correlation of a (B,C,H,W) batch with an (O,C,kh,kw) kernel,
    plus an optional (O,) ``bias``.

    A single (C,H,W) input is taken as a batch of one and comes back as
    (O,oh,ow). The im2col columns are channel-major, ``(C*kh*kw, B*oh*ow)``:
    row ``(c, u, v)`` holds kernel tap ``(u, v)`` of channel ``c`` at every
    output position of every sample. So the batch is one GEMM, building the
    columns copies along output rows, and ``kernel.reshape(O, C*kh*kw) @
    cols`` is the output in channel-major memory, returned as a (B,O,oh,ow)
    view without a transpose. The bias is added in place on that fresh
    product, so a biased layer is one tape node; its gradient is the row
    sums of the output gradient. The padded input is laid out channel-major
    too. For a 1x1, stride-1, unpadded conv of an input in channel-major
    memory (one sample, or the output of a previous conv) the columns are a
    view of the input, not a copy.

    The input gradient is one GEMM over stride phases. Kernel tap ``u =
    s*a + r`` reaches only padded-input rows of residue r mod s, so row
    ``s*Y + r`` of the input gradient is a stride-1 full correlation of the
    output gradient with the taps ``a`` of phase r, flipped. The phase
    kernel is ``(s*s*C, O*ka*kb)`` with ka = ceil(kh/s), kb = ceil(kw/s) (the
    kernel zero-extended to ``(ka*s, kb*s)``), the windows of the output
    gradient padded by ka-1 and kb-1 are ``(O*ka*kb, B*ph*pw)`` with ph =
    oh+ka-1 and pw = ow+kb-1, and their product is interleaved once into the
    ``(C, B, s*ph, s*pw)`` padded-input gradient, then cropped to the input.
    """
    x, kernel = astensor(x), astensor(kernel)
    if x.ndim not in (3, 4) or kernel.ndim != 4:
        raise ShapeError(f"conv2d expects (B,C,H,W) or (C,H,W) and (O,C,kh,kw), "
                         f"got {x.shape}, {kernel.shape}")
    batched = x.ndim == 4
    xb = x.data if batched else x.data[None]
    b, c, h, w = xb.shape
    o, ck, kh, kw = kernel.shape
    if ck != c:
        raise ShapeError(f"conv2d channel mismatch: input {c}, kernel {ck}")
    if bias is not None:
        bias = astensor(bias)
        if bias.shape != (o,):
            raise ShapeError(f"conv2d bias must be ({o},), got {bias.shape}")
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv2d needs stride >= 1 and padding >= 0, "
                         f"got stride {stride}, padding {padding}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(
            f"conv2d kernel {kh}x{kw} larger than the padded input {hp}x{wp}")
    if (hp - kh) % stride or (wp - kw) % stride:
        raise ShapeError(
            f"conv2d output extent not integral for input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {stride}, padding {padding}")
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    inner = (slice(None), slice(None), slice(padding, padding + h),
             slice(padding, padding + w))

    if padding:
        padded = np.zeros((c, b, hp, wp)).transpose(1, 0, 2, 3)
        padded[inner] = xb
    else:
        padded = xb
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]                 # (B, C, oh, ow, kh, kw)
    cols = windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, b * oh * ow)
    prod = kernel.data.reshape(o, c * kh * kw) @ cols
    if bias is not None:
        prod += bias.data[:, None]
    out = prod.reshape(o, b, oh, ow).transpose(1, 0, 2, 3)
    data = out if batched else out[0]

    def backward(grad):
        g = grad if batched else grad[None]
        gmat = g.transpose(1, 0, 2, 3).reshape(o, b * oh * ow)
        if kernel.requires_grad:
            kernel._accumulate((gmat @ cols.T).reshape(kernel.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(gmat.sum(axis=1))
        if x.requires_grad:
            dx = _conv2d_input_grad(g, kernel.data, stride).transpose(1, 0, 2, 3)[inner]
            x._accumulate(dx if batched else dx[0])

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return _make(data, parents, backward)


def _conv2d_input_grad(g: Array, kernel: Array, s: int) -> Array:
    """Gradient of a stride-``s`` conv with respect to its padded input, from
    the (B, O, oh, ow) output gradient: (C, B, s*ph, s*pw), channel-major."""
    b, o, oh, ow = g.shape
    _, c, kh, kw = kernel.shape
    ka, kb = -(-kh // s), -(-kw // s)
    ph, pw = oh + ka - 1, ow + kb - 1
    # tap (s*a + r, s*a' + r') of the zero-extended kernel goes to row
    # (r, r', c) and column (o, ka-1-a, kb-1-a') of the phase kernel
    ext = np.zeros((o, c, ka * s, kb * s))
    ext[:, :, :kh, :kw] = kernel
    phases = ext.reshape(o, c, ka, s, kb, s)[:, :, ::-1, :, ::-1] \
        .transpose(3, 5, 1, 0, 2, 4).reshape(s * s * c, o * ka * kb)
    gpad = np.zeros((o, b, oh + 2 * (ka - 1), ow + 2 * (kb - 1)))
    gpad[:, :, ka - 1:ka - 1 + oh, kb - 1:kb - 1 + ow] = g.transpose(1, 0, 2, 3)
    windows = np.lib.stride_tricks.sliding_window_view(gpad, (ka, kb), axis=(2, 3))
    gwin = windows.transpose(0, 4, 5, 1, 2, 3).reshape(o * ka * kb, b * ph * pw)
    dphase = (phases @ gwin).reshape(s, s, c, b, ph, pw)
    if s == 1:
        return dphase[0, 0]
    # one strided copy per phase: a single transposed copy would run its
    # innermost loop over the s phases and took 2-3x as long
    dpad = np.empty((c, b, s * ph, s * pw))
    for r in range(s):
        for q in range(s):
            dpad[:, :, r::s, q::s] = dphase[r, q]
    return dpad


def conv1x1(rows, kernel, bias=None) -> Tensor:
    """A 1x1 convolution over channel-last rows: (M, C) rows, an (O, C, 1, 1)
    kernel and an optional (O,) bias give (M, O). The kernel keeps conv2d's
    layout."""
    kernel = astensor(kernel)
    if kernel.ndim != 4 or kernel.shape[2:] != (1, 1):
        raise ShapeError(f"conv1x1 expects an (O,C,1,1) kernel, got {kernel.shape}")
    return matmul(rows, transpose(reshape(kernel, kernel.shape[:2])), bias)


# -- parameters and checkpoints ------------------------------------------------


def named_parameters(weights, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
    """Every tensor of a tree of weight dataclasses, with its field path.

    Fields are visited in declaration order. A ``Tensor`` field is named
    ``prefix + field``, a dataclass field recurses with ``field.`` appended
    to the prefix, and item i of a list field is named ``<field><i>``. Other
    values, such as head counts, are skipped. These names are the
    checkpoint's entry names.
    """
    for f in dataclasses.fields(weights):
        yield from _named(getattr(weights, f.name), prefix + f.name)


def _named(value, name: str) -> Iterator[tuple[str, Tensor]]:
    if isinstance(value, Tensor):
        yield name, value
    elif dataclasses.is_dataclass(value):
        yield from named_parameters(value, name + ".")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _named(item, f"{name}{i}")


def parameters(weights) -> list[Tensor]:
    """The tensors of :func:`named_parameters`, in the same order."""
    return [p for _, p in named_parameters(weights)]


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> Array:
    if len(shape) == 2:
        fan_in, fan_out = shape[0], shape[1]
    else:
        receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
        fan_out = shape[0] * receptive
        fan_in = shape[1] * receptive
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


CHECKPOINT_MAGIC = "TRTR-CKPT v1"


def save_checkpoint(named_params: Iterable[tuple[str, Tensor]], path) -> None:
    """Write parameters as the flat "TRTR-CKPT v1" key/value archive."""
    items = list(named_params)
    names = [name for name, _ in items]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate parameter names: {dupes}")
    with open(path, "wb") as fh:
        fh.write((CHECKPOINT_MAGIC + "\n").encode("ascii"))
        fh.write(f"{len(items)}\n".encode("ascii"))
        for name, tensor in items:
            if any(ch.isspace() for ch in name):
                raise ValueError(f"parameter name contains whitespace: {name!r}")
            dims = " ".join(str(d) for d in tensor.shape)
            fh.write(f"{name} {len(tensor.shape)} {dims}\n".encode("ascii"))
            fh.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> dict[str, Array]:
    """Read a "TRTR-CKPT v1" archive into {name: array}."""
    def read_line(fh) -> str:
        return fh.readline().rstrip(b"\n").decode("ascii")

    out: dict[str, Array] = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = read_line(fh)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a {CHECKPOINT_MAGIC} file: header {magic!r}")
        count_line = read_line(fh)
        try:
            count = int(count_line)
        except ValueError:
            count = -1
        if count < 0:
            raise ValueError(f"checkpoint entry count is not a non-negative "
                             f"integer: {count_line!r}")
        for index in range(count):
            fields = read_line(fh).split()
            if not fields:
                raise ValueError(f"checkpoint entry {index} of {count} has no header")
            name = fields[0]
            try:
                ndim, *shape = (int(v) for v in fields[1:])
            except ValueError:      # no dims, or one that is not an integer
                ndim, shape = -1, []
            shape = tuple(shape)
            # checked before the read, so a corrupt header cannot ask for
            # more memory than the file holds
            if len(shape) != ndim or any(d < 0 for d in shape):
                raise ValueError(f"checkpoint entry {index} {name!r} has malformed "
                                 f"dims {' '.join(fields[1:])!r}")
            n = math.prod(shape)
            left = size - fh.tell()
            if 8 * n > left:
                raise ValueError(f"truncated checkpoint: {name!r} of shape "
                                 f"{shape} needs {8 * n} bytes, {left} left")
            buf = fh.read(8 * n)
            out[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).astype(np.float64)
    return out


# -- gradient checking ---------------------------------------------------------

# central-difference step, and the tolerances a component must meet: relative
# where the gradient is at least FD_SMALL, absolute below that
FD_STEP = 1e-5
FD_REL_TOL = 1e-4
FD_ABS_TOL = 1e-7
FD_SMALL = 1e-3


def finite_difference_check(loss_fn: Callable[[], Tensor],
                            params: Sequence[Tensor],
                            max_entries: int | None = None,
                            rng: np.random.Generator | None = None):
    """Central-difference check of d(loss)/d(param) for every listed tensor.

    Components with |analytic| >= ``FD_SMALL`` must match to relative error
    ``FD_REL_TOL``; smaller components must match to absolute error
    ``FD_ABS_TOL``. Returns (worst_relative_error, failures) where failures is a list of
    (param_index, flat_index, analytic, numeric) tuples.
    """
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]

    worst = 0.0
    failures = []
    for pi, p in enumerate(params):
        flat = p.data.reshape(-1)
        n = flat.size
        if max_entries is not None and n > max_entries:
            if rng is None:
                rng = np.random.default_rng(0)
            idxs = rng.choice(n, size=max_entries, replace=False)
        else:
            idxs = range(n)
        for i in idxs:
            keep = flat[i]
            flat[i] = keep + FD_STEP
            up = loss_fn().item()
            flat[i] = keep - FD_STEP
            down = loss_fn().item()
            flat[i] = keep
            numeric = (up - down) / (2.0 * FD_STEP)
            an = analytic[pi].reshape(-1)[i]
            denom = max(abs(an), abs(numeric))
            if denom >= FD_SMALL:
                err = abs(an - numeric) / denom
                worst = max(worst, err)
                if err >= FD_REL_TOL:
                    failures.append((pi, int(i), float(an), float(numeric)))
            else:
                if abs(an - numeric) >= FD_ABS_TOL:
                    failures.append((pi, int(i), float(an), float(numeric)))
    return worst, failures
