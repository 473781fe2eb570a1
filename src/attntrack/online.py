"""Online appearance classifier trained during inference.

A two-layer convolutional filter (1x1 channel reduction, then a single
k x k output channel) maps mid-level backbone features to a score map on
the output grid. It is fit to a weighted memory of (features, target map)
pairs by Gauss-Newton: each outer step linearizes the filter around the
current point (fixed relu mask) and solves the regularized normal
equations with conjugate gradient, started from zero so its first
residual is the right-hand side and costs no product. A backtracking
acceptance step keeps the squared-error objective non-increasing.

The tracker fits both layers jointly on the first frame, then refits only
w2 once per tracked frame. With w1 frozen the residuals are linear in w2,
so a frame's update is one linear least-squares problem solved by CG: its
Jacobian products skip the w1 GEMMs, its full CG step is accepted (CG
iterates lower a quadratic), and the hidden activations relu(w1 F) are
computed once per solve.

The memory holds its samples stacked as the solver reads them, so a
solve copies none of them, and each filter the solve visits runs forward
once: the linearization that gives a filter's objective value is the one
the next Gauss-Newton step uses when the filter is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .tensor import xavier_uniform


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
    order, so one GEMM applies a filter to all of them."""
    capacity: int
    # (c_in, S, H, W), channel-major: reshape(c_in, -1) is a view
    features: np.ndarray = field(default_factory=lambda: np.empty((0, 0, 0, 0)))
    labels: np.ndarray = field(default_factory=lambda: np.empty((0, 0, 0)))
    weights: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __len__(self) -> int:
        return self.weights.size


@dataclass
class CgUpdate:
    """Result of solve_cg: the new filter plus the objective trajectory."""
    filter: OnlineFilter
    objectives: list[float]
    degraded: bool = False


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


def _shift_sum(taps: np.ndarray, kernel: int) -> np.ndarray:
    """Second half of the k x k conv: taps (k*k, S, H, W) -> maps (S, H, W).

    Tap u*k+v holds every grid cell's contribution through kernel offset
    (u, v); the output cell sums the k*k taps read at its offsets on the
    zero-padded grid. A strided view puts tap (u, v)'s read for each cell
    at [u, v, s, y, x], and the sum runs over the two kernel axes.
    """
    lo = _pad_before(kernel)
    n, h, w = taps.shape[1:]
    padded = np.zeros((kernel, kernel, n, h + kernel - 1, w + kernel - 1))
    padded[:, :, :, lo:lo + h, lo:lo + w] = taps.reshape(padded.shape[:3] + (h, w))
    su, sv, ss, sy, sx = padded.strides
    reads = np.lib.stride_tricks.as_strided(
        padded, (kernel, kernel, n, h, w), (su + sy, sv + sx, ss, sy, sx),
        writeable=False)
    return reads.sum(axis=(0, 1))


def _place(maps: np.ndarray, kernel: int) -> np.ndarray:
    """Adjoint of _shift_sum: maps (S, H, W) -> k*k placed copies (k*k, S*H*W).

    Copy u*k+v is the map shifted by offset (u, v) on the zero-padded grid
    and cropped back to the grid; the cells it shifts off the grid are
    dropped. On the map zero-padded by k-1-lo before and lo after, that
    copy is the grid-sized window at (k-1-u, k-1-v), so the copies are the
    windows flipped along both kernel axes.
    """
    lo = _pad_before(kernel)
    hi = kernel - 1 - lo
    n, h, w = maps.shape
    padded = np.zeros((n, h + kernel - 1, w + kernel - 1))
    padded[:, hi:hi + h, hi:hi + w] = maps
    windows = np.lib.stride_tricks.sliding_window_view(padded, (h, w), axis=(1, 2))
    # copied explicitly: on some grids the reshape alone would keep a
    # negative-stride view, which later products read with other rounding
    placed = np.ascontiguousarray(windows[:, ::-1, ::-1].transpose(1, 2, 0, 3, 4))
    return placed.reshape(kernel * kernel, -1)


def _relu(w1: np.ndarray, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden layer on channel-major features: (relu mask, activations)."""
    pre = w1[:, :, 0, 0] @ features
    mask = pre > 0.0
    # a product with the bool mask (cast to exact 0.0/1.0), not np.where:
    # a non-finite input must stay non-finite
    return mask, pre * mask


def _conv(act: np.ndarray, w2: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """k x k single-output conv: activations (hidden, S*H*W) -> (S, H, W)."""
    hidden, k = w2.shape[1], w2.shape[2]
    taps = w2[0].reshape(hidden, k * k).T @ act
    return _shift_sum(taps.reshape((k * k,) + shape), k)


# non-finite inputs are expected here (a NaN frame, a diverged filter) and
# are reported by the result, not by floating-point warnings
_quiet_fp = np.errstate(invalid="ignore", over="ignore")


@_quiet_fp
def online_forward(filt: OnlineFilter, features: np.ndarray) -> np.ndarray:
    """Score map for one feature grid; range unconstrained."""
    if features.ndim != 3 or features.shape[0] != filt.w1.shape[1]:
        raise ShapeError(f"features {features.shape} do not match filter "
                         f"input channels {filt.w1.shape[1]}")
    _, act = _relu(filt.w1, features.reshape(features.shape[0], -1))
    return _conv(act, filt.w2, (1,) + features.shape[1:])[0]


def blend(score: np.ndarray, online_score: np.ndarray, weight: float) -> np.ndarray:
    """weight * offline map + (1 - weight) * online map, elementwise."""
    if score.shape != online_score.shape:
        raise ShapeError(f"blend shapes differ: {score.shape} vs {online_score.shape}")
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"blend weight must be in [0, 1], got {weight}")
    return weight * score + (1.0 - weight) * online_score


def update_memory(memory: TrainingMemory, features: np.ndarray,
                  label: np.ndarray, lr: float) -> TrainingMemory:
    """Append a sample with weight lr, decaying and renormalizing the rest;
    over capacity, evict the first lowest weight, the new sample's included."""
    if not 0.0 < lr <= 1.0:
        raise ValueError(f"memory learning rate must be in (0, 1], got {lr}")
    if features.shape[1:] != label.shape:
        raise ShapeError(f"feature grid {features.shape[1:]} vs label {label.shape}")
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
    features_kept = [memory.features[:, :drop], memory.features[:, drop + 1:]]
    labels_kept = [memory.labels[:drop], memory.labels[drop + 1:]]
    if drop != n:
        features_kept.append(features[:, None])
        labels_kept.append(label[None])
    memory.features = np.concatenate(features_kept, axis=1)
    memory.labels = np.concatenate(labels_kept)
    weights = weights[np.arange(n + 1) != drop]
    # summed left to right: np.sum's pairwise order rounds differently
    memory.weights = weights / sum(weights.tolist())
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

    ``hidden``, the (mask, activations) of a filter with this ``w1`` on
    the same memory, is reused instead of running the hidden layer again.
    """

    def __init__(self, filt: OnlineFilter, memory: TrainingMemory, train_w1: bool,
                 hidden: tuple[np.ndarray, np.ndarray] | None = None):
        self.train_w1 = train_w1
        self.features = memory.features.reshape(memory.features.shape[0], -1)
        self.weights = memory.weights
        self.mask, self.act = hidden or _relu(filt.w1, self.features)
        self.residual = _conv(self.act, filt.w2, memory.labels.shape) - memory.labels
        self.kernel = filt.kernel
        self.w2 = filt.w2[0].reshape(filt.w2.shape[1], -1)     # (hidden, k*k)
        self.n_w1 = filt.w1.size if train_w1 else 0
        self.lam = filt.reg
        self.theta = _pack(filt, train_w1)

    def jvp(self, vec: np.ndarray) -> np.ndarray:
        """J vec as score maps (S, H, W)."""
        hidden = self.w2.shape[0]
        taps = vec[self.n_w1:].reshape(hidden, -1).T @ self.act
        if self.train_w1:
            v1 = vec[:self.n_w1].reshape(hidden, -1)
            taps += self.w2.T @ (self.mask * (v1 @ self.features))
        return _shift_sum(taps.reshape((-1,) + self.residual.shape), self.kernel)

    def vjp(self, maps: np.ndarray) -> np.ndarray:
        """J^T maps for score-space maps (S, H, W), packed like vec."""
        placed = _place(maps, self.kernel)
        w2_part = (self.act @ placed.T).ravel()
        if not self.train_w1:
            return w2_part
        gpre = (self.w2 @ placed) * self.mask
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
    does not increase. With ``train_w1`` False only w2 moves. A non-finite
    intermediate aborts the whole update and returns the input filter
    flagged as degraded.
    """
    if not len(memory):
        raise ValueError("training memory is empty")
    if n_iters < 1:
        raise ValueError("need at least one CG iteration")

    current = filt.copy()
    lin = _Linearization(current, memory, train_w1)
    objectives = [objective(current, memory, lin)]
    # with w1 frozen every filter the solve visits has the starting hidden
    # layer, so relu(w1 F) runs once per solve
    hidden = None if train_w1 else (lin.mask, lin.act)

    for _ in range(gn_steps):
        delta = conjugate_gradient(lin.normal_matvec, -lin.gradient(), n_iters)
        if not np.all(np.isfinite(delta)):
            return CgUpdate(filter=filt, objectives=objectives, degraded=True)

        accepted = None
        step = 1.0
        for _ in range(5):
            candidate = _unpack(lin.theta + step * delta, current, train_w1)
            trial = _Linearization(candidate, memory, train_w1, hidden)
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

    return CgUpdate(filter=current, objectives=objectives, degraded=False)
