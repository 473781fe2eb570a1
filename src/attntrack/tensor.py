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


class Tensor:
    """N-dimensional float64 array with optional gradient accumulation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data: Array = np.asarray(data, dtype=np.float64)
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


# exp(-a) overflows for a below this
_SIGMOID_FLOOR = -math.log(np.finfo(np.float64).max)


def sigmoid(a) -> Tensor:
    """1 / (1 + exp(-a)). Below ``_SIGMOID_FLOOR`` exp(-a) is left at inf
    instead of overflowing, so those entries read exactly 0."""
    a = astensor(a)
    tail = a.data < _SIGMOID_FLOOR
    data = 1.0 / (1.0 + np.exp(-a.data, where=~tail, out=np.full(a.shape, np.inf)))

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


def matmul(a, b, bias=None, relu: bool = False) -> Tensor:
    """(M, K) @ (K, N), plus an optional (N,) ``bias`` added to every row,
    then, with ``relu``, max(., 0).

    The bias and the relu are applied in place on the fresh product, so a
    biased, rectified layer is one tape node that keeps one array; the bias
    gradient is the column sums of the output gradient. The relu masks the
    incoming gradient by ``out > 0``, which is ``in > 0`` for every input,
    NaN, infinities and signed zeros included.
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
    if relu:
        np.maximum(data, 0.0, out=data)

    def backward(grad):
        if relu:
            grad = grad * (data > 0.0)
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


# Bytes of one key-major block of an attention map, (keys, query columns),
# which stays in cache from the logits product through exp and the product
# with [v^T; 1]. Timed on decoder self- and cross-attention inputs of a
# search-255 episode (2-vCPU Xeon VM, OpenBLAS, one thread): 256 KB to
# 768 KB ran alike, and 128 KB (16 columns of 1024 keys) and 1 MB took
# 18-25% longer.
_ATTENTION_BLOCK_BYTES = 1 << 19

# A query whose row sum falls below this, or is not finite, has its block
# redone with the exact per-query max: the bound sat more than about 460
# above the query's largest logit, or an input is not finite.
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

    Maps are laid out key-major, keys x queries, and each block of query
    columns is one GEMM, ``exp`` in place and one GEMM. Softmax does not
    change under a per-query shift, so the shift is an upper bound on each
    query's logits over the bounding box of its keys,
    ``b_i = sum_c max(q_ic kmax_c, q_ic kmin_c)``, not the exact max. It
    rides in the first GEMM as a ``-b`` row under the scaled q^T, against
    a ones column beside k: ``[k, 1] @ [q^T; -b]`` is the logits minus the
    bound. A ones row under v^T makes the second GEMM, ``[v^T; 1] @ E``,
    write a block's unnormalised head output and its row sums into one
    (h*G, dh + 1, Nq/G) array. After all blocks, one check runs over the
    row sums, and only the blocks holding a query whose sum is below
    1e-200 or not finite (the bound sat more than about 460 above that
    query's largest logit, or an input is not finite) are redone with
    their exact per-query max. One divide then gives the output. One
    block is live at a time, on the tape or off it: the recorded node keeps
    no map, only ``[k, 1]``, ``[q^T; -b]``, ``[v^T; 1]``, the row sums and
    which blocks were redone. When ``maps`` is a list it gets a head-major
    (Nq/G, Nk/G) copy of each map, transposed block by block as the blocks
    are made.

    Backward recomputes each (head, group) map into one reused (Nk/G,
    Nq/G) buffer, block by block with the forward's own operations (the
    bound GEMM and ``exp``, or the exact-max redo where the forward took
    it), and divides it by the row sums, so it holds the forward's map bit
    for bit. The v gradient is read from it. The softmax row term comes
    from the output, rowsum(dO * O) over (Nq, dh) rather than rowsum(dA *
    A) over the map, so (dA - rowsum)^T is [v, 1] @ [dO, -rowsum]^T,
    key-major like the map. It is taken in runs of keys smaller than a
    block and multiplied into the buffer, which becomes the softmax
    adjoint dS^T in place; each map's q and k gradients are written before
    the next map is made. So backward holds one map and a fraction of one.
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

    ka = widened(k.data, nkg, 1.0)                 # [k, 1]
    qt = np.empty((stacks, dh + 1, nqg))           # [q^T; -b], q scaled
    np.multiply(heads_of(q.data).transpose(0, 1, 3, 2), scale,
                out=qt.reshape(n_heads, groups, dh + 1, nqg)[:, :, :dh])
    qs = qt[:, :dh]
    vt = np.empty((stacks, dh + 1, nkg))           # [v^T; 1]
    vt.reshape(n_heads, groups, dh + 1, nkg)[:, :, :dh] = \
        heads_of(v.data).transpose(0, 1, 3, 2)
    vt[:, dh] = 1.0
    # per (head, group): the keys' bounding box, over (G, Nk/G, h, dh) runs
    runs = k.data.reshape(groups, nkg, n_heads, dh)
    kmax, kmin = (box.transpose(1, 0, 2).reshape(stacks, dh)
                  for box in (runs.max(axis=1), runs.min(axis=1)))

    step = max(1, _ATTENTION_BLOCK_BYTES // (8 * nkg))     # query columns
    blocks = [slice(start, min(start + step, nqg)) for start in range(0, nqg, step)]
    buffer = np.empty(nkg * min(step, nqg))
    # the sink's head-major maps, each block written while it is in cache
    sink = np.empty((stacks, nqg, nkg)) if maps is not None else None
    # [A^T v, rowsum A]^T: each head's unnormalised output over its row sums
    heads = np.empty((stacks, dh + 1, nqg))
    totals = heads[:, dh]
    bound = np.empty((2, stacks, dh, nqg))
    # the (stack, block) pairs redone at their exact max, as backward redoes them
    redone = np.zeros((stacks, len(blocks)), dtype=bool)

    def bounded_exp(s: int, cols: slice, a: Array) -> None:
        np.matmul(ka[s], qt[s, :, cols], out=a)
        np.exp(a, out=a)

    def exact_exp(s: int, cols: slice, a: Array) -> None:
        np.matmul(ka[s, :, :dh], qs[s, :, cols], out=a)
        a -= a.max(axis=0)
        np.exp(a, out=a)

    def block(cols: slice) -> Array:
        return buffer[:nkg * (cols.stop - cols.start)].reshape(nkg, -1)

    caller_errors = np.geterr()
    # the bound pass may overflow; its row sums catch that, and the blocks
    # are redone at the exact per-query max under the caller's error settings
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(qs, kmax[..., None], out=bound[0])
        np.multiply(qs, kmin[..., None], out=bound[1])
        np.maximum(bound[0], bound[1], out=bound[0])
        np.sum(bound[0], axis=1, out=qt[:, dh])
        np.negative(qt[:, dh], out=qt[:, dh])
        for s in range(stacks):
            for cols in blocks:
                a = block(cols)
                bounded_exp(s, cols, a)
                np.matmul(vt[s], a, out=heads[s, :, cols])
                if sink is not None:
                    sink[s, cols] = a.T
        if not (totals.min() >= _ATTENTION_MIN_ROW_SUM and totals.max() < np.inf):
            failed = ~((totals >= _ATTENTION_MIN_ROW_SUM) & (totals < np.inf))
            with np.errstate(**caller_errors):
                for s in range(stacks):
                    for j, cols in enumerate(blocks):
                        if not failed[s, cols].any():
                            continue
                        redone[s, j] = True
                        a = block(cols)
                        exact_exp(s, cols, a)
                        np.matmul(vt[s], a, out=heads[s, :, cols])
                        if sink is not None:
                            sink[s, cols] = a.T
        if sink is not None:
            sink /= totals[..., None]
            maps.extend(sink)
        data = np.empty((nq, d))
        np.divide(heads[:, :dh].reshape(n_heads, groups, dh, nqg),
                  heads[:, dh:].reshape(n_heads, groups, 1, nqg),
                  out=data.reshape(groups, nqg, n_heads, dh).transpose(2, 0, 3, 1))

    def backward(grad):
        # [dO, -rowsum(dO * O)]; its first dh columns are the heads of dO
        ga = widened(grad, nqg, 0.0)
        adjoint = q.requires_grad or k.requires_grad
        if adjoint:
            ga[..., dh] = -np.einsum("hgid,hgid->hgi", heads_of(grad),
                                     heads_of(data)).reshape(stacks, nqg)
        # softmax adjoint, key-major: dS^T = A^T * (dA - rowsum(dA * A))^T
        # with dA = dO V^T; rowsum(dA * A) = rowsum(dO * O), so the bracket
        # is [v, 1] @ ga^T. Each (head, group) map is recomputed into one
        # buffer, which becomes dS^T in place, so one map is live at a time.
        amap = np.empty((nkg, nqg))
        # the bracket is taken in runs of about a quarter block of keys,
        # each a contiguous run of the buffer's rows; a last run of one key
        # joins the run before it, since numpy takes a one-row product as a
        # matrix-vector one, whose sums differ from the whole product's
        keys = max(2, _ATTENTION_BLOCK_BYTES // (32 * nqg))
        edges = list(range(0, nkg, keys)) + [nkg]
        if len(edges) > 2 and edges[-1] - edges[-2] == 1:
            del edges[-2]
        runs = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        bracket = np.empty(nqg * max(run.stop - run.start for run in runs))
        gq = np.empty((stacks, nqg, dh)) if q.requires_grad else None
        gk = np.empty((stacks, nkg, dh)) if k.requires_grad else None
        gv = np.empty((stacks, nkg, dh)) if v.requires_grad else None
        for s in range(stacks):
            for j, cols in enumerate(blocks):
                (exact_exp if redone[s, j] else bounded_exp)(s, cols, amap[:, cols])
            with np.errstate(over="ignore", invalid="ignore"):  # as the forward's
                amap /= totals[s]
            if gv is not None:
                np.matmul(amap, ga[s, :, :dh], out=gv[s])
            if not adjoint:
                continue
            for run in runs:
                b = bracket[:nqg * (run.stop - run.start)].reshape(-1, nqg)
                np.matmul(vt[s, :, run].T, ga[s].T, out=b)
                amap[run] *= b
            if gq is not None:
                np.matmul(amap.T, ka[s, :, :dh], out=gq[s])
            if gk is not None:
                np.matmul(amap, qs[s].T, out=gk[s])
        if gv is not None:
            v._accumulate(merge(gv))
        if gq is not None:
            q._accumulate(merge(gq) * scale)
        if gk is not None:
            k._accumulate(merge(gk))

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
    xhat = x.data - x.data.mean(axis=1, keepdims=True)
    var = np.square(xhat).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat *= inv_std
    data = xhat * gain.data
    data += bias.data

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


def conv2d(x, kernel, stride: int = 1, padding: int = 0, bias=None,
           relu: bool = False) -> Tensor:
    """2-D cross-correlation of a (B,C,H,W) batch with an (O,C,kh,kw) kernel,
    plus an optional (O,) ``bias``, then, with ``relu``, max(., 0).

    Both directions work by stride phases, and no im2col columns are built.
    Kernel tap ``u = s*a + r`` reads only padded-input rows of residue r mod
    s, at phase row ``Y = i + a`` for output row i (columns alike). So the
    padded input is copied once into its s*s phases, laid out as rows
    ``(r, r', c)`` by columns ``(b, Y, X)``: ``(s*s*C, B*ph*pw)`` with ph =
    oh+ka-1, pw = ow+kb-1, ka = ceil(kh/s) and kb = ceil(kw/s), plus a zero
    tail. Tap block ``(a, a')`` of the kernel, its taps regrouped as rows
    ``(r, r', c)``, times that array shifted by ``a*pw + a'`` is the block's
    share of every output of every sample, computed on wide rows of pw
    columns; the ka*kb products sum to the wide output, which is cropped to
    ``(oh, ow)`` per sample and returned as a (B,O,oh,ow) view of
    channel-major memory. The columns past ow and the rows past oh are
    junk: they read across row and sample edges, and nothing keeps them. A
    kernel that is not a multiple of the stride gives partial blocks at its
    end, and those multiply only the phases that hold real taps, so no
    output reads a pixel outside its window. The bias is added in place to
    the wide sum, so a biased layer is one tape node; its gradient is the
    sums of the output gradient over everything but the channel. The relu
    is applied in place to the wide sum after the bias, junk included, so a
    rectified layer keeps one array; it masks the incoming gradient by
    ``out > 0``, as :func:`matmul` does.

    The kernel gradient is the same per-block products with the output
    gradient zero-extended over the junk positions, against the phase array
    that the tape keeps. A non-finite input pixel that a junk position reads
    therefore turns those taps' gradient NaN too (0 * inf is NaN), where
    only the taps whose windows read it would be. The input gradient is one GEMM
    over the same phases, by :func:`_conv2d_input_grad`.
    """
    x, kernel = astensor(x), astensor(kernel)
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d expects (B,C,H,W) and (O,C,kh,kw), "
                         f"got {x.shape}, {kernel.shape}")
    b, c, h, w = x.shape
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
    s = stride
    oh = (hp - kh) // s + 1
    ow = (wp - kw) // s + 1
    ka, kb = -(-kh // s), -(-kw // s)
    ph, pw = oh + ka - 1, ow + kb - 1
    n = b * ph * pw
    # the zero tail keeps the last sample's junk positions inside the
    # array; only the padding around each phase's copy is zeroed besides,
    # which faulted in fewer fresh pages than a zero-filled allocation
    flat = np.empty((s * s * c, n + (ka - 1) * pw + kb - 1))
    flat[:, n:] = 0.0
    phases = flat[:, :n].reshape(s, s, c, b, ph, pw)
    src = x.data.transpose(1, 0, 2, 3)
    for r in range(s):
        # input row t sits at phase r = (t + padding) % s, row (t + padding) // s
        t0 = (r - padding) % s
        y0 = (t0 + padding) // s
        residue_rows = src[:, :, t0::s]
        y1 = y0 + residue_rows.shape[2]
        for q in range(s):
            u0 = (q - padding) % s
            x0 = (u0 + padding) // s
            block = residue_rows[:, :, :, u0::s]
            x1 = x0 + block.shape[3]
            phase = phases[r, q]
            phase[:, :, :y0] = phase[:, :, y1:] = 0.0
            phase[:, :, :, :x0] = phase[:, :, :, x1:] = 0.0
            phase[:, :, y0:y1, x0:x1] = block
    blocks = _conv2d_blocks(kh, kw, s, c, pw)
    wide = np.empty((o, n))
    prod = np.empty((o, n))
    for i, (taps, rows, shift) in enumerate(blocks):
        kmat = kernel.data[:, :, taps[0], taps[1]].transpose(0, 2, 3, 1).reshape(o, -1)
        np.matmul(kmat, flat[rows, shift:shift + n], out=wide if i == 0 else prod)
        if i:
            wide += prod
    if bias is not None:
        wide += bias.data[:, None]
    if relu:
        np.maximum(wide, 0.0, out=wide)
    data = wide.reshape(o, b, ph, pw)[:, :, :oh, :ow].transpose(1, 0, 2, 3)
    inner = (slice(None), slice(None), slice(padding, padding + h),
             slice(padding, padding + w))

    def backward(grad):
        if relu:
            grad = grad * (data > 0.0)
        if kernel.requires_grad:
            # (B*ph*pw, O): of the layouts tried, the product of a phase
            # view with this one ran fastest
            gwide = np.zeros((b, ph, pw, o))
            gwide[:, :oh, :ow] = grad.transpose(0, 2, 3, 1)
            gwide = gwide.reshape(n, o)
            dk = np.empty(kernel.shape)
            for taps, rows, shift in blocks:
                dtaps = dk[:, :, taps[0], taps[1]]
                dtaps[...] = (flat[rows, shift:shift + n] @ gwide).reshape(
                    dtaps.shape[2:] + (c, o)).transpose(3, 2, 0, 1)
            kernel._accumulate(dk)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.transpose(1, 0, 2, 3).reshape(o, -1).sum(axis=1))
        if x.requires_grad:
            x._accumulate(_conv2d_input_grad(grad, kernel.data, stride)
                          .transpose(1, 0, 2, 3)[inner])

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return _make(data, parents, backward)


def _conv2d_blocks(kh: int, kw: int, s: int, c: int, pw: int
                   ) -> list[tuple[tuple[slice, slice], slice, int]]:
    """The tap blocks of a stride-``s`` conv over the phase array of
    :func:`conv2d`: for each, the kernel taps it holds (row and column
    slices), the phase-array rows they multiply and the column shift.

    Block ``(a, a')`` holds taps ``s*a + r``, ``s*a' + r'`` for the phases
    that exist, r < kh - s*a and r' < kw - s*a'. Its rows ``(r, r', c)`` are
    one run of the phase array when it has every r' phase or one r phase;
    otherwise it is split into one block per r.
    """
    blocks = []
    for a in range(-(-kh // s)):
        n_r = min(s, kh - s * a)
        for a2 in range(-(-kw // s)):
            n_q = min(s, kw - s * a2)
            runs = [(0, n_r)] if n_q == s else [(r, r + 1) for r in range(n_r)]
            for r0, r1 in runs:
                start = r0 * s * c
                stop = start + ((r1 - r0 - 1) * s + n_q) * c
                taps = (slice(s * a + r0, s * a + r1), slice(s * a2, s * a2 + n_q))
                blocks.append((taps, slice(start, stop), a * pw + a2))
    return blocks


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


def conv1x1(rows, kernel, bias=None, relu: bool = False) -> Tensor:
    """A 1x1 convolution over channel-last rows: (M, C) rows, an (O, C, 1, 1)
    kernel and an optional (O,) bias give (M, O), rectified in place with
    ``relu`` as :func:`matmul` does. The kernel keeps conv2d's layout."""
    kernel = astensor(kernel)
    if kernel.ndim != 4 or kernel.shape[2:] != (1, 1):
        raise ShapeError(f"conv1x1 expects an (O,C,1,1) kernel, got {kernel.shape}")
    return matmul(rows, transpose(reshape(kernel, kernel.shape[:2])), bias,
                  relu=relu)


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
