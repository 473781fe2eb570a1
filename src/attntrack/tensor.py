"""Dense float64 arrays with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array plus an optional gradient buffer.
Operations record a ``backward(grad)`` closure on a tape (the implicit
graph of ``_parents`` links); calling :meth:`Tensor.backward` on a scalar
result walks the graph in reverse topological order and accumulates
``grad`` on every tensor that was created with ``requires_grad=True``.

Everything is float64: the whole package is sized for gradient checking
and desk-scale experiments, not throughput.
"""

from __future__ import annotations

import contextvars
import math
import os
from typing import Callable, Iterable, Sequence

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
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph bookkeeping -------------------------------------------------

    def _accumulate(self, g: Array) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from a scalar result to every reachable parameter."""
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
                node._backward(node.grad)

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, index):
        return take(self, index)

    def sum(self, axis=None):
        return tensor_sum(self, axis)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)

    @property
    def T(self):
        return transpose(self)


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
    cyclic garbage collector.
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
            mask = (a.data > 0.0).astype(np.float64)
            a._accumulate(grad * mask)

    return _make(data, (a,), backward)


def sigmoid(a) -> Tensor:
    a = astensor(a)
    data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * data * (1.0 - data))

    return _make(data, (a,), backward)


def exp(a) -> Tensor:
    a = astensor(a)
    data = np.exp(a.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * data)

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
            mask = ((a.data > lo) & (a.data < hi)).astype(np.float64)
            a._accumulate(grad * mask)

    return _make(data, (a,), backward)


# -- reductions and reshaping -------------------------------------------------


def tensor_sum(a, axis=None) -> Tensor:
    a = astensor(a)
    data = np.sum(a.data, axis=axis)

    def backward(grad):
        if not a.requires_grad:
            return
        g = grad
        if axis is not None:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape).copy())

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


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [astensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(grad):
        splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
        pieces = np.split(grad, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(piece)

    return _make(data, tensors, backward)


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


def matmul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    data = a.data @ b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ grad)

    return _make(data, (a, b), backward)


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
# from the logits product through the shift, exp, row sum and product with v.
_ATTENTION_BLOCK_BYTES = 1 << 19


def multi_head_softmax_attention(q, k, v, n_heads: int,
                                 maps: list | None = None) -> Tensor:
    """Scaled dot-product attention over packed heads.

    q: (Nq, d), k and v: (Nk, d); head h owns columns h*dh:(h+1)*dh with
    dh = d / n_heads. Returns the (Nq, d) concatenation of the head outputs
    softmax_j(q_h . k_h / sqrt(dh)) @ v_h. The scale is folded into q. Each
    block of map rows goes through logits, max-shift and exp in place, and
    its product with v is divided by the row sums, so the map itself is
    only normalised when it is kept. Off the tape one block is live at a
    time; the (h, Nq, Nk) stack of maps is kept when the node is recorded
    for backward, or when ``maps`` is a list, which then gets a copy of
    each head's map.
    """
    q, k, v = astensor(q), astensor(k), astensor(v)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError(f"attention expects 2-D q/k/v, got {q.shape}, {k.shape}, {v.shape}")
    (nq, d), nk = q.shape, k.shape[0]
    if k.shape != (nk, d) or v.shape != (nk, d):
        raise ShapeError(f"q/k/v shapes disagree: {q.shape}, {k.shape}, {v.shape}")
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"{n_heads} heads do not divide width {d}")
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)

    def split(a: Array, rows: int) -> Array:        # (rows, d) -> (h, rows, dh)
        return np.ascontiguousarray(a.reshape(rows, n_heads, dh).transpose(1, 0, 2))

    qh, kh, vh = split(q.data * scale, nq), split(k.data, nk), split(v.data, nk)
    record = _grad_enabled.get() and (q.requires_grad or k.requires_grad
                                      or v.requires_grad)
    keep = record or maps is not None
    step = max(1, _ATTENTION_BLOCK_BYTES // (8 * nk))
    weights = np.empty((n_heads, nq, nk) if keep else (min(step, nq), nk))
    out = np.empty((n_heads, nq, dh))
    for h in range(n_heads):
        for start in range(0, nq, step):
            rows = slice(start, min(start + step, nq))
            a = weights[h, rows] if keep else weights[:rows.stop - start]
            np.matmul(qh[h, rows], kh[h].T, out=a)
            a -= a.max(axis=1, keepdims=True)
            np.exp(a, out=a)
            total = a.sum(axis=1, keepdims=True)
            head_out = out[h, rows]
            np.matmul(a, vh[h], out=head_out)
            head_out /= total
            if keep:
                a /= total
    if maps is not None:
        maps.extend(head_map.copy() for head_map in weights)
    data = out.transpose(1, 0, 2).reshape(nq, d)

    def backward(grad):
        gh = split(grad, nq)
        if v.requires_grad:
            v._accumulate(np.matmul(weights.transpose(0, 2, 1), gh)
                          .transpose(1, 0, 2).reshape(nk, d))
        if not (q.requires_grad or k.requires_grad):
            return
        # softmax adjoint: dS = A * (dA - rowsum(dA * A)), with dA = G V^T
        ds = np.matmul(gh, vh.transpose(0, 2, 1))
        ds -= np.einsum("hij,hij->hi", ds, weights)[:, :, None]
        ds *= weights
        if q.requires_grad:
            q._accumulate(np.matmul(ds, kh).transpose(1, 0, 2).reshape(nq, d) * scale)
        if k.requires_grad:
            k._accumulate(np.matmul(ds.transpose(0, 2, 1), qh)
                          .transpose(1, 0, 2).reshape(nk, d))

    return _make(data, (q, k, v), backward)


def layernorm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Per-row normalization to zero mean / unit variance, then affine."""
    x, gain, bias = astensor(x), astensor(gain), astensor(bias)
    if x.ndim != 2:
        raise ShapeError(f"layernorm expects a 2-D tensor, got {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("layernorm gain/bias must match the row width")
    mu = x.data.mean(axis=1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
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


def conv2d(x, kernel, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of a (C,H,W) input with an (O,C,kh,kw) kernel.

    The im2col columns are channel-major, ``(C*kh*kw, oh*ow)``: row
    ``(c, u, v)`` holds kernel tap ``(u, v)`` of channel ``c`` at every
    output position, so building them copies along output rows, and the
    output is ``kernel.reshape(O, C*kh*kw) @ cols`` reshaped to
    ``(O, oh, ow)`` without a transpose. For a 1x1, stride-1, unpadded conv
    of a contiguous input the columns are a view of the input, not a copy.
    """
    x, kernel = astensor(x), astensor(kernel)
    if x.ndim != 3 or kernel.ndim != 4:
        raise ShapeError(f"conv2d expects (C,H,W) and (O,C,kh,kw), got {x.shape}, {kernel.shape}")
    c, h, w = x.shape
    o, ck, kh, kw = kernel.shape
    if ck != c:
        raise ShapeError(f"conv2d channel mismatch: input {c}, kernel {ck}")
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv2d needs stride >= 1 and padding >= 0, "
                         f"got stride {stride}, padding {padding}")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ShapeError(
            f"conv2d kernel {kh}x{kw} larger than the padded input "
            f"{h + 2 * padding}x{w + 2 * padding}")
    if (h + 2 * padding - kh) % stride or (w + 2 * padding - kw) % stride:
        raise ShapeError(
            f"conv2d output extent not integral for input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {stride}, padding {padding}")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1

    padded = np.pad(x.data, ((0, 0), (padding, padding), (padding, padding))) \
        if padding else x.data
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]                    # (C, oh, ow, kh, kw)
    cols = windows.transpose(0, 3, 4, 1, 2).reshape(c * kh * kw, oh * ow)
    wmat = kernel.data.reshape(o, c * kh * kw)
    data = (wmat @ cols).reshape(o, oh, ow)

    def backward(grad):
        gmat = grad.reshape(o, oh * ow)
        if kernel.requires_grad:
            kernel._accumulate((gmat @ cols.T).reshape(kernel.shape))
        if x.requires_grad:
            dcols = (wmat.T @ gmat).reshape(c, kh, kw, oh, ow)
            dpad = np.zeros_like(padded)
            for u in range(kh):
                for v in range(kw):
                    dpad[:, u:u + oh * stride:stride, v:v + ow * stride:stride] += \
                        dcols[:, u, v]
            if padding:
                dpad = dpad[:, padding:padding + h, padding:padding + w]
            x._accumulate(dpad)

    return _make(data, (x, kernel), backward)


# -- parameters and checkpoints ------------------------------------------------


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int | None = None, fan_out: int | None = None) -> Array:
    if fan_in is None or fan_out is None:
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
        raw = bytearray()
        while True:
            ch = fh.read(1)
            if not ch or ch == b"\n":
                break
            raw += ch
        return raw.decode("ascii")

    out: dict[str, Array] = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = read_line(fh)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a {CHECKPOINT_MAGIC} file: header {magic!r}")
        count = int(read_line(fh))
        for _ in range(count):
            fields = read_line(fh).split()
            name, ndim = fields[0], int(fields[1])
            shape = tuple(int(v) for v in fields[2:2 + ndim])
            n = math.prod(shape)
            # checked before the read, so a corrupt header cannot ask for
            # more memory than the file holds
            if len(fields) != 2 + ndim or any(d < 0 for d in shape):
                raise ValueError(f"checkpoint entry {name!r} has malformed "
                                 f"dims {' '.join(fields[1:])!r}")
            left = size - fh.tell()
            if 8 * n > left:
                raise ValueError(f"truncated checkpoint: {name!r} of shape "
                                 f"{shape} needs {8 * n} bytes, {left} left")
            buf = fh.read(8 * n)
            out[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).astype(np.float64)
    return out


# -- gradient checking ---------------------------------------------------------


def finite_difference_check(loss_fn: Callable[[], Tensor],
                            params: Sequence[Tensor],
                            h: float = 1e-5,
                            rel_tol: float = 1e-4,
                            abs_tol: float = 1e-7,
                            small: float = 1e-3,
                            max_entries: int | None = None,
                            rng: np.random.Generator | None = None):
    """Central-difference check of d(loss)/d(param) for every listed tensor.

    Components with |analytic| >= ``small`` must match to relative error
    ``rel_tol``; smaller components must match to absolute error ``abs_tol``.
    Returns (worst_relative_error, failures) where failures is a list of
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
            flat[i] = keep + h
            up = loss_fn().item()
            flat[i] = keep - h
            down = loss_fn().item()
            flat[i] = keep
            numeric = (up - down) / (2.0 * h)
            an = analytic[pi].reshape(-1)[i]
            denom = max(abs(an), abs(numeric))
            if denom >= small:
                err = abs(an - numeric) / denom
                worst = max(worst, err)
                if err >= rel_tol:
                    failures.append((pi, int(i), float(an), float(numeric)))
            else:
                if abs(an - numeric) >= abs_tol:
                    failures.append((pi, int(i), float(an), float(numeric)))
    return worst, failures
