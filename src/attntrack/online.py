"""Online appearance classifier trained during inference.

A two-layer convolutional filter (1x1 channel reduction, then a single
k x k output channel) maps mid-level backbone features to a score map on
the output grid. It is fit to a weighted memory of (features, target map)
pairs by Gauss-Newton: each outer step linearizes the filter around the
current point (fixed relu mask) and solves the regularized normal
equations with conjugate gradient, started from zero so its first
residual is the right-hand side and costs no product. A backtracking
acceptance step keeps the squared-error objective non-increasing.

The tracker never fits w1: it takes w1 = I, so its filter is one linear
k x k conv on the mid-level features F, as correlation filters (MOSSE)
and ECO's factorized convolution are linear in theirs. The backbone's
mid-level tap comes after a relu, so F >= 0 and relu(I F) = F: the
hidden layer passes F through unchanged, and w2 has c_in x k^2
unknowns. With w1 fixed the residuals are linear in w2, so init and
every frame fit w2 alone: one linear least-squares problem solved by
CG, whose Jacobian products skip the w1 GEMMs and whose full CG step is
accepted (CG iterates lower a quadratic). The filter's shape and ridge,
the memory's rate and the CG iteration counts are constants of the
method, as in ATOM. The joint w1/w2 solve, from a random
``init_online_filter``, is kept as the general Gauss-Newton solver that
the CG criteria test.

``project_memory`` swaps a memory's backbone features, as ATOM does, for
their projection relu(w1 F), and records each sample's residual at the
filter. From there on a sample enters the memory projected, with its
residual, and a w2 solve reads both as they are: it starts from the
residuals the last accepted solve left, and runs the hidden layer for no
stored sample.

The memory holds its samples stacked as the solver reads them, so a
solve copies none of them, and each filter the solve visits runs forward
once: the linearization that gives a filter's objective value is the one
the next Gauss-Newton step uses when the filter is accepted. The
linearizations of one solve share one set of padded work buffers, and
the strided views over them are built once and live as long as the set.
The relu mask, kept as 0.0/1.0, multiplies each fresh product in place:
no product allocates for it, and no input or memory array is written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ShapeError
from .tensor import xavier_uniform

KERNEL, RIDGE = 4, 1e-2     # the score filter's k, its ridge
# a new sample's weight: 0.1 a frame follows appearance drift, while slower
# rates anchor the filter to the first frame and drag the blend behind it
MEMORY_LR = 0.1
# CG iterations of the init's w2 solve and of each frame's refit. With w1
# fixed the init's fit is linear, so it is one unbroken CG run: restarting
# CG every 10 iterations throws its Krylov space away. 50 is the smallest
# multiple of 10 whose final objective was never above ten restarted runs
# of 10 on the init memories tested. The init solve takes about 9 ms at
# 64/128 and 42 ms at 127/255 (one core of a 2-vCPU VM, one BLAS thread)
INIT_CG_ITERS, FRAME_CG_ITERS = 50, 5


@dataclass
class OnlineFilter:
    """Filter weights; w1: (hidden, c_in, 1, 1), w2: (1, hidden, k, k)."""
    w1: np.ndarray
    w2: np.ndarray
    reg: float

    @property
    def kernel(self) -> int:
        return self.w2.shape[2]

    def copy(self) -> "OnlineFilter":
        return OnlineFilter(self.w1.copy(), self.w2.copy(), self.reg)


@dataclass
class TrainingMemory:
    """Weighted (features, target map) samples side by side, in insertion
    order, so one GEMM applies a filter to all of them.

    A new memory holds backbone features. Once ``project_memory`` has run,
    ``features`` holds their projection relu(w1 F) under one fixed w1, and
    ``residuals`` each sample's residual at the current filter.
    """
    capacity: int
    # (c, S, H, W), channel-major: reshape(c, -1) is a view; c is the
    # filter's input channels, or its hidden channels once projected
    features: np.ndarray = field(default_factory=lambda: np.empty((0, 0, 0, 0)))
    labels: np.ndarray = field(default_factory=lambda: np.empty((0, 0, 0)))
    weights: np.ndarray = field(default_factory=lambda: np.empty(0))
    # (S, H, W) score map minus label per sample; None until projected
    residuals: np.ndarray | None = None

    def __post_init__(self):
        if not self.capacity >= 1:
            raise ValueError(f"capacity must be at least 1, got {self.capacity}")

    def __len__(self) -> int:
        return self.weights.size

    @property
    def projected(self) -> bool:
        return self.residuals is not None


@dataclass
class CgUpdate:
    """Result of solve_cg: the new filter plus the objective trajectory."""
    filter: OnlineFilter
    objectives: list[float]
    degraded: bool = False
    # the new filter's residual maps on the memory; None when degraded
    residuals: np.ndarray | None = None


def init_online_filter(rng: np.random.Generator, c_in: int, hidden: int,
                       kernel: int, reg: float) -> OnlineFilter:
    w1 = xavier_uniform(rng, (hidden, c_in, 1, 1))
    w2 = xavier_uniform(rng, (1, hidden, kernel, kernel))
    return OnlineFilter(w1=w1, w2=w2, reg=reg)


def _pad_before(kernel: int) -> int:
    # the conv reads the grid zero-padded by (kernel-1)//2 before and
    # kernel//2 after: total pad kernel-1 keeps the output grid equal to
    # the input grid
    return (kernel - 1) // 2


class _Padded:
    """Work buffers of the k x k conv on maps of one shape (S, H, W).

    ``shift_sum`` and ``place`` write only the interior of their
    zero-padded buffers, so the zero borders hold, and one set serves
    every product on a memory. The buffers and the views over them live
    as long as the set. Every set sums taps, so their buffer is made with
    it; the placement buffers are made on the first ``place``, so a set
    that only sums taps, as ``online_forward``'s does, makes none. The
    array ``place`` returns is reused by the next call.
    """

    def __init__(self, kernel: int, shape: tuple[int, int, int]):
        n, h, w = shape
        lo = _pad_before(kernel)
        self.kernel, self.shape = kernel, shape
        padded = np.zeros((kernel, kernel, n, h + kernel - 1, w + kernel - 1))
        su, sv, ss, sy, sx = padded.strides
        # the interior shift_sum writes, and its strided read of every tap
        self.taps = padded[:, :, :, lo:lo + h, lo:lo + w]
        self.reads = np.lib.stride_tricks.as_strided(
            padded, (kernel, kernel, n, h, w), (su + sy, sv + sx, ss, sy, sx),
            writeable=False)

    @cached_property
    def _place_views(self) -> tuple[np.ndarray, ...]:
        """(interior of the padded maps, the flipped windows, the placed
        copies as the windows' shape and as rows)."""
        k, (n, h, w) = self.kernel, self.shape
        hi = k - 1 - _pad_before(k)
        padded = np.zeros((n, h + k - 1, w + k - 1))
        windows = np.lib.stride_tricks.sliding_window_view(padded, (h, w), axis=(1, 2))
        # C-contiguous like a fresh copy: a placed array with other strides
        # is read by the GEMMs after it with other rounding
        rows = np.empty((k * k, n * h * w))
        return (padded[:, hi:hi + h, hi:hi + w],
                windows[:, ::-1, ::-1].transpose(1, 2, 0, 3, 4),
                rows.reshape((k, k) + self.shape), rows)

    def shift_sum(self, taps: np.ndarray) -> np.ndarray:
        """Second half of the k x k conv: taps (k*k, S, H, W) -> maps (S, H, W).

        Tap u*k+v holds every grid cell's contribution through kernel
        offset (u, v); the output cell sums the k*k taps read at its
        offsets on the zero-padded grid. A strided view puts tap (u, v)'s
        read for each cell at [u, v, s, y, x], and the sum runs over the
        two kernel axes.
        """
        self.taps[...] = taps.reshape(self.taps.shape)
        return self.reads.sum(axis=(0, 1))

    def place(self, maps: np.ndarray) -> np.ndarray:
        """Adjoint of shift_sum: maps (S, H, W) -> k*k placed copies (k*k, S*H*W).

        Copy u*k+v is the map shifted by offset (u, v) on the zero-padded
        grid and cropped back to the grid; the cells it shifts off the
        grid are dropped. On the map zero-padded by k-1-lo before and lo
        after, that copy is the grid-sized window at (k-1-u, k-1-v), so
        the copies are the windows flipped along both kernel axes.
        """
        interior, flipped, placed, rows = self._place_views
        interior[...] = maps
        placed[...] = flipped
        return rows


def _relu(w1: np.ndarray, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden layer on channel-major features: (relu mask as 0.0/1.0, activations)."""
    act = w1[:, :, 0, 0] @ features
    mask = (act > 0.0).astype(act.dtype)
    # a product with the mask in place on the fresh GEMM output, not
    # np.where or np.maximum: a non-finite input must stay non-finite
    act *= mask
    return mask, act


def _conv(act: np.ndarray, w2: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """k x k single-output conv: activations (hidden, S*H*W) -> (S, H, W)."""
    hidden, k = w2.shape[1], w2.shape[2]
    taps = w2[0].reshape(hidden, k * k).T @ act
    return _Padded(k, shape).shift_sum(taps.reshape((k * k,) + shape))


# non-finite inputs are expected here (a NaN frame, a diverged filter) and
# are reported by the result, not by floating-point warnings
_quiet_fp = np.errstate(invalid="ignore", over="ignore")


@_quiet_fp
def project(filt: OnlineFilter, features: np.ndarray) -> np.ndarray:
    """Hidden layer relu(w1 F) of one feature grid: (c_in, H, W) -> (hidden, H, W)."""
    if features.ndim != 3 or features.shape[0] != filt.w1.shape[1]:
        raise ShapeError(f"features {features.shape} do not match filter "
                         f"input channels {filt.w1.shape[1]}")
    _, act = _relu(filt.w1, features.reshape(features.shape[0], -1))
    return act.reshape((-1,) + features.shape[1:])


@_quiet_fp
def online_forward(filt: OnlineFilter, hidden: np.ndarray) -> np.ndarray:
    """Score map of one grid's hidden activations ``project(filt, F)``:
    (hidden, H, W) -> (H, W); range unconstrained."""
    if hidden.ndim != 3 or hidden.shape[0] != filt.w2.shape[1]:
        raise ShapeError(f"hidden activations {hidden.shape} do not match "
                         f"filter hidden channels {filt.w2.shape[1]}")
    return _conv(hidden.reshape(hidden.shape[0], -1), filt.w2,
                 (1,) + hidden.shape[1:])[0]


def blend(score: np.ndarray, online_score: np.ndarray, weight: float) -> np.ndarray:
    """weight * offline map + (1 - weight) * online map, elementwise."""
    if score.shape != online_score.shape:
        raise ShapeError(f"blend shapes differ: {score.shape} vs {online_score.shape}")
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"blend weight must be in [0, 1], got {weight}")
    return weight * score + (1.0 - weight) * online_score


def update_memory(memory: TrainingMemory, features: np.ndarray,
                  label: np.ndarray, lr: float,
                  residual: np.ndarray | None = None) -> TrainingMemory:
    """Append a sample with weight lr, decaying and renormalizing the rest;
    over capacity, evict the first lowest weight, the new sample's included.

    A projected memory takes the sample projected, ``project(filt, F)``,
    with its ``residual`` at the current filter; a feature memory takes
    neither.
    """
    if not 0.0 < lr <= 1.0:
        raise ValueError(f"memory learning rate must be in (0, 1], got {lr}")
    if features.shape[1:] != label.shape:
        raise ShapeError(f"feature grid {features.shape[1:]} vs label {label.shape}")
    if (residual is None) == memory.projected:
        raise ValueError("a projected memory takes each sample's residual, "
                         "and only a projected memory does")
    if residual is not None and residual.shape != label.shape:
        raise ShapeError(f"residual {residual.shape} vs label {label.shape}")
    n = len(memory)
    if not n:
        # an empty memory takes the first sample's shape
        memory.features = np.empty((features.shape[0], 0) + label.shape)
        memory.labels = np.empty((0,) + label.shape)
    c_in, _, *grid = memory.features.shape
    if features.shape != (c_in, *grid):
        raise ShapeError(f"sample features {features.shape} do not match the "
                         f"memory's {(c_in, *grid)}")
    weights = np.append(memory.weights * (1.0 - lr), lr)
    # index n + 1, past the new sample, evicts none
    drop = int(np.argmin(weights)) if n >= memory.capacity else n + 1

    def restack(stacked: np.ndarray, sample: np.ndarray, axis: int) -> np.ndarray:
        # the samples on ``axis`` but the dropped one, then the new one
        before, _, after = np.split(stacked, [drop, drop + 1], axis=axis)
        kept = [before, after]
        if drop != n:
            kept.append(np.expand_dims(sample, axis))
        return np.concatenate(kept, axis=axis)

    memory.features = restack(memory.features, features, 1)
    memory.labels = restack(memory.labels, label, 0)
    if residual is not None:
        memory.residuals = restack(memory.residuals, residual, 0)
    weights = weights[np.arange(n + 1) != drop]
    # summed left to right: np.sum's pairwise order rounds differently
    memory.weights = weights / sum(weights.tolist())
    return memory


@_quiet_fp
def project_memory(filt: OnlineFilter, memory: TrainingMemory) -> TrainingMemory:
    """Replace the stored features with their projection relu(w1 F) under
    ``filt``'s w1, and record each sample's residual at ``filt``.

    From then on a solve on the memory fits w2 alone, and w1 must stay
    the one given here.
    """
    if memory.projected:
        raise ValueError("the memory is projected already")
    # what a w2 solve on the features starts from, kept
    lin = _Linearization(filt, memory, train_w1=False)
    memory.features = lin.act.reshape((-1,) + memory.labels.shape)
    memory.residuals = lin.residual
    return memory


def conjugate_gradient(matvec, b: np.ndarray, n_iters: int,
                       residual_history: list | None = None) -> np.ndarray:
    """Standard CG for a symmetric positive-definite operator, started from
    zero (so the first residual is b, with no product); stops at a zero residual."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    if residual_history is not None:
        residual_history.append(np.sqrt(rs))
    for _ in range(n_iters):
        if rs == 0.0:
            break
        ap = matvec(p)
        denom = float(p @ ap)
        if denom <= 0.0 or not np.isfinite(denom):
            break
        alpha = rs / denom
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        if residual_history is not None:
            residual_history.append(np.sqrt(rs_new))
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def objective(filt: OnlineFilter, memory: TrainingMemory,
              lin: _Linearization | None = None) -> float:
    """Weighted squared error over the memory plus the ridge penalty.

    ``lin``, when given, must be ``filt``'s linearization on ``memory``;
    its residual is read instead of computing it again.
    """
    r = (lin or _Linearization(filt, memory, train_w1=False)).residual
    total = float(memory.weights @ np.sum(r * r, axis=(1, 2)))
    return total + filt.reg * (float(np.sum(filt.w1 ** 2))
                               + float(np.sum(filt.w2 ** 2)))


def _pack(filt: OnlineFilter, train_w1: bool) -> np.ndarray:
    parts = [filt.w1.ravel(), filt.w2.ravel()] if train_w1 else [filt.w2.ravel()]
    return np.concatenate(parts)


def _unpack(theta: np.ndarray, filt: OnlineFilter, train_w1: bool) -> OnlineFilter:
    out = filt.copy()
    n_w1 = out.w1.size if train_w1 else 0
    if train_w1:
        out.w1 = theta[:n_w1].reshape(out.w1.shape).copy()
    out.w2 = theta[n_w1:].reshape(out.w2.shape).copy()
    return out


class _Linearization:
    """One filter's relu mask, activations and residual maps on the memory,
    and its Jacobian J at that mask: each product with J or its transpose
    is a few GEMMs over all samples. Parameters are packed as in _pack.

    On a projected memory the activations are the memory's own, and only
    w2 may train. ``residual``, when given, is ``filt``'s residual maps
    on the memory, read instead of computed. ``base``, a linearization on
    the same memory, lends its padded buffers and, when w1 is frozen, its
    hidden layer.
    """

    def __init__(self, filt: OnlineFilter, memory: TrainingMemory, train_w1: bool,
                 residual: np.ndarray | None = None,
                 base: _Linearization | None = None):
        self.train_w1 = train_w1
        self.features = memory.features.reshape(memory.features.shape[0], -1)
        self.weights = memory.weights
        if memory.projected:
            self.mask, self.act = None, self.features
        elif base is not None and not train_w1:
            self.mask, self.act = base.mask, base.act
        else:
            self.mask, self.act = _relu(filt.w1, self.features)
        self.shape = memory.labels.shape
        self.pads = base.pads if base else _Padded(filt.kernel, self.shape)
        self.w2 = filt.w2[0].reshape(filt.w2.shape[1], -1)     # (hidden, k*k)
        if residual is None:
            residual = self._sum_taps(self.w2.T @ self.act) - memory.labels
        self.residual = residual
        self.n_w1 = filt.w1.size if train_w1 else 0
        self.lam = filt.reg
        self.theta = _pack(filt, train_w1)

    def _sum_taps(self, taps: np.ndarray) -> np.ndarray:
        return self.pads.shift_sum(taps.reshape((-1,) + self.shape))

    def jvp(self, vec: np.ndarray) -> np.ndarray:
        """J vec as score maps (S, H, W)."""
        hidden = self.w2.shape[0]
        taps = vec[self.n_w1:].reshape(hidden, -1).T @ self.act
        if self.train_w1:
            v1 = vec[:self.n_w1].reshape(hidden, -1)
            pre = v1 @ self.features
            pre *= self.mask
            taps += self.w2.T @ pre
        return self._sum_taps(taps)

    def vjp(self, maps: np.ndarray) -> np.ndarray:
        """J^T maps for score-space maps (S, H, W), packed like vec."""
        placed = self.pads.place(maps)
        w2_part = (self.act @ placed.T).ravel()
        if not self.train_w1:
            return w2_part
        gpre = self.w2 @ placed
        gpre *= self.mask
        return np.concatenate([(gpre @ self.features.T).ravel(), w2_part])

    def gradient(self) -> np.ndarray:
        """Objective gradient at theta: J^T W r + lam theta, W the sample weights."""
        return (self.lam * self.theta
                + self.vjp(self.weights[:, None, None] * self.residual))

    def normal_matvec(self, vec: np.ndarray) -> np.ndarray:
        """Gauss-Newton normal matrix times vec: (J^T W J + lam I) vec."""
        weighted = self.weights[:, None, None] * self.jvp(vec)
        return self.lam * vec + self.vjp(weighted)


@_quiet_fp
def solve_cg(filt: OnlineFilter, memory: TrainingMemory, n_iters: int,
             gn_steps: int, train_w1: bool = True) -> CgUpdate:
    """Gauss-Newton refinement of the filter against the training memory.

    Each outer step fixes the relu activation pattern, solves the
    regularized normal equations with ``n_iters`` CG iterations, and
    accepts the (possibly backtracked) step only if the true objective
    does not increase. With ``train_w1`` False only w2 moves; a projected
    memory allows only that, and its residuals must be ``filt``'s. A
    non-finite intermediate aborts the whole update and returns the input
    filter flagged as degraded.
    """
    if not len(memory):
        raise ValueError("training memory is empty")
    if not n_iters >= 1:
        raise ValueError(f"n_iters must be at least 1, got {n_iters}")
    if not gn_steps >= 0:
        raise ValueError(f"gn_steps must not be negative, got {gn_steps}")
    if train_w1 and memory.projected:
        raise ValueError("a projected memory holds no features to fit w1 on")

    current = filt.copy()
    # a projected memory carries the starting residuals: the hidden layer
    # and the first forward run for no stored sample
    lin = _Linearization(current, memory, train_w1, residual=memory.residuals)
    objectives = [objective(current, memory, lin)]

    for _ in range(gn_steps):
        delta = conjugate_gradient(lin.normal_matvec, -lin.gradient(), n_iters)
        if not np.all(np.isfinite(delta)):
            return CgUpdate(filter=filt, objectives=objectives, degraded=True)

        accepted = None
        step = 1.0
        for _ in range(5):
            candidate = _unpack(lin.theta + step * delta, current, train_w1)
            # with w1 frozen every filter the solve visits has the starting
            # hidden layer, so relu(w1 F) runs at most once per solve
            trial = _Linearization(candidate, memory, train_w1, base=lin)
            value = objective(candidate, memory, trial)
            if not np.isfinite(value):
                return CgUpdate(filter=filt, objectives=objectives, degraded=True)
            if value <= objectives[-1]:
                accepted = (candidate, trial, value)
                break
            # free a rejected candidate's linearization before the next is built
            del trial
            step *= 0.5
        if accepted is None:
            # deterministic recomputation would reject again; stop early
            break
        # the accepted candidate's linearization is the next step's
        current, lin, value = accepted
        objectives.append(value)

    return CgUpdate(filter=current, objectives=objectives, residuals=lin.residual)
