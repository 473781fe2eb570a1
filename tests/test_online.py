import copy
import sys
from collections import Counter, namedtuple

import numpy as np
import pytest

from attntrack import online
from attntrack.errors import ShapeError
from attntrack.online import (INIT_CG_ITERS, OnlineFilter, TrainingMemory,
                              _Linearization, _Padded, blend,
                              conjugate_gradient, init_online_filter,
                              objective, online_forward, project,
                              project_memory, solve_cg, update_memory)
from attntrack.pipeline import (SequenceSpec, Tracker, TrackerConfig,
                                build_model, generate_synthetic_sequence)

Sample = namedtuple("Sample", "features label weight")


def samples(memory):
    """The memory's samples one at a time, as views of its stacked arrays."""
    return [Sample(memory.features[:, i], memory.labels[i], memory.weights[i])
            for i in range(len(memory))]


def forward_oracle(filt: OnlineFilter, feat: np.ndarray) -> np.ndarray:
    """Naive-loop two-layer conv with grid-preserving padding."""
    hidden, c_in = filt.w1.shape[:2]
    _, h, w = feat.shape
    act = np.zeros((hidden, h, w))
    for o in range(hidden):
        for c in range(c_in):
            act[o] += filt.w1[o, c, 0, 0] * feat[c]
    act = np.maximum(act, 0.0)
    k = filt.kernel
    lo, hi = (k - 1) // 2, k // 2
    padded = np.pad(act, ((0, 0), (lo, hi), (lo, hi)))
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            for c in range(hidden):
                for u in range(k):
                    for v in range(k):
                        out[i, j] += filt.w2[0, c, u, v] * padded[c, i + u, j + v]
    return out


class TestOnlineForward:
    def test_zero_filter_gives_zero_map(self):
        filt = OnlineFilter(np.zeros((4, 2, 1, 1)), np.zeros((1, 4, 4, 4)), 1e-2)
        features = np.random.default_rng(0).uniform(0, 1, (2, 6, 6))
        out = online_forward(filt, project(filt, features))
        assert np.array_equal(out, np.zeros((6, 6)))

    def test_dead_second_layer(self):
        rng = np.random.default_rng(1)
        filt = OnlineFilter(rng.standard_normal((4, 2, 1, 1)),
                            np.zeros((1, 4, 4, 4)), 1e-2)
        out = online_forward(filt, project(filt, rng.uniform(0, 1, (2, 6, 6))))
        assert np.array_equal(out, np.zeros((6, 6)))

    def test_output_grid_matches_input_grid(self):
        rng = np.random.default_rng(2)
        for k in (1, 2, 3, 4):
            filt = init_online_filter(rng, c_in=3, hidden=5, kernel=k, reg=1e-2)
            out = online_forward(filt, project(filt, rng.standard_normal((3, 7, 9))))
            assert out.shape == (7, 9)

    def test_against_naive_loops(self):
        rng = np.random.default_rng(3)
        filt = init_online_filter(rng, c_in=2, hidden=3, kernel=4, reg=1e-2)
        feat = rng.standard_normal((2, 5, 5))
        assert np.abs(online_forward(filt, project(filt, feat))
                      - forward_oracle(filt, feat)).max() < 1e-12

    def test_channel_mismatch(self):
        filt = init_online_filter(np.random.default_rng(0), c_in=4, hidden=64,
                                  kernel=4, reg=1e-2)
        with pytest.raises(ShapeError, match="input channels"):
            project(filt, np.zeros((3, 6, 6)))

    def test_projected_grid_gives_the_map_of_its_features(self):
        # online_forward is the second layer alone: it reads hidden
        # activations, and a grid of features is not one
        rng = np.random.default_rng(4)
        filt = init_online_filter(rng, c_in=3, hidden=5, kernel=4, reg=1e-2)
        features = rng.standard_normal((3, 7, 9))
        hidden = project(filt, features)
        assert np.abs(online_forward(filt, hidden)
                      - _oracle_conv(hidden, filt.w2)).max() < 1e-12
        with pytest.raises(ShapeError, match="hidden activations"):
            online_forward(filt, features)


class TestBlend:
    def test_weight_one_is_pure_offline(self):
        rng = np.random.default_rng(4)
        a, b = rng.uniform(0, 1, (5, 5)), rng.uniform(0, 1, (5, 5))
        assert np.array_equal(blend(a, b, 1.0), a)

    def test_constant_maps(self):
        out = blend(np.ones((3, 3)), np.zeros((3, 3)), 0.6)
        assert np.allclose(out, 0.6, atol=1e-15)

    def test_fixed_point(self):
        rng = np.random.default_rng(5)
        y = rng.uniform(0, 1, (4, 4))
        for w in (0.0, 0.3, 0.6, 1.0):
            assert np.abs(blend(y, y, w) - y).max() < 1e-15

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            blend(np.ones((2, 2)), np.ones((2, 2)), 1.5)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            blend(np.ones((2, 2)), np.ones((3, 3)), 0.5)


class TestMemory:
    def test_first_insert_normalizes_to_one(self):
        memory = TrainingMemory(capacity=5)
        update_memory(memory, np.zeros((2, 4, 4)), np.zeros((4, 4)), lr=0.01)
        assert len(memory) == 1
        assert memory.weights.tolist() == [1.0]

    def test_eviction_drops_lowest_weight(self):
        memory = TrainingMemory(capacity=2)
        for i in range(3):
            update_memory(memory, np.full((1, 2, 2), float(i)),
                          np.zeros((2, 2)), lr=0.5)
        assert len(memory) == 2
        kept = sorted(memory.features[0, :, 0, 0])
        assert kept == [1.0, 2.0]              # the oldest sample is gone

    def test_weights_always_sum_to_one(self):
        rng = np.random.default_rng(6)
        memory = TrainingMemory(capacity=10)
        for _ in range(40):
            update_memory(memory, rng.standard_normal((1, 3, 3)),
                          rng.standard_normal((3, 3)), lr=0.05)
            total = sum(memory.weights.tolist())
            assert abs(total - 1.0) < 1e-12

    def test_recent_samples_weigh_more(self):
        # the very first sample keeps an elevated weight (its initial weight
        # was normalized to 1); among later samples recency wins
        memory = TrainingMemory(capacity=10)
        for _ in range(5):
            update_memory(memory, np.zeros((1, 2, 2)), np.zeros((2, 2)), lr=0.1)
        weights = memory.weights.tolist()
        assert weights[1:] == sorted(weights[1:])
        assert all(w > 0 for w in weights)
        assert weights[0] == max(weights)


    @pytest.mark.parametrize("lr", [0.0, -0.1, 1.5, float("nan")])
    def test_learning_rate_outside_unit_interval_rejected(self, lr):
        # 1.5 used to give weights [0.25, -0.75, 1.5]; 0 divided by zero
        memory = TrainingMemory(capacity=5)
        update_memory(memory, np.zeros((1, 2, 2)), np.zeros((2, 2)), lr=0.5)
        with pytest.raises(ValueError, match="learning rate"):
            update_memory(memory, np.zeros((1, 2, 2)), np.zeros((2, 2)), lr=lr)
        assert memory.weights.tolist() == [1.0]

    def test_learning_rate_one_keeps_only_the_new_sample_weight(self):
        memory = TrainingMemory(capacity=5)
        for _ in range(2):
            update_memory(memory, np.zeros((1, 2, 2)), np.zeros((2, 2)), lr=1.0)
        assert memory.weights.tolist() == [0.0, 1.0]

    def test_sample_of_another_shape_rejected(self):
        # it used to be stored, and the next solve failed inside np.stack
        memory = TrainingMemory(capacity=5)
        update_memory(memory, np.zeros((2, 4, 4)), np.zeros((4, 4)), lr=0.5)
        for features in (np.zeros((3, 4, 4)), np.zeros((2, 4, 5))):
            with pytest.raises(ShapeError) as info:
                update_memory(memory, features, np.zeros(features.shape[1:]),
                              lr=0.5)
            assert str(features.shape) in str(info.value)
            assert "(2, 4, 4)" in str(info.value)
        assert len(memory) == 1 and memory.features.shape == (2, 1, 4, 4)

    @pytest.mark.parametrize("capacity,lr", [(1, 0.1), (3, 0.5), (5, 1.0),
                                             (50, 0.1)])
    def test_same_samples_and_weights_as_one_sample_at_a_time(self, capacity, lr):
        # the rule kept per sample: decay, append, evict the first lowest
        # weight over all of them (the new one included), then divide by a
        # left-to-right sum
        rng = np.random.default_rng([capacity, 16])
        memory = TrainingMemory(capacity=capacity)
        reference = []
        for _ in range(capacity + 12):
            features = rng.standard_normal((2, 3, 4))
            label = rng.standard_normal((3, 4))
            update_memory(memory, features, label, lr)
            for s in reference:
                s[2] *= 1.0 - lr
            reference.append([features, label, lr])
            if len(reference) > capacity:
                reference.pop(min(range(len(reference)),
                                  key=lambda i: reference[i][2]))
            total = sum(s[2] for s in reference)
            for s in reference:
                s[2] /= total
            assert memory.weights.tolist() == [s[2] for s in reference]
            assert np.array_equal(memory.features,
                                  np.stack([s[0] for s in reference], axis=1))
            assert np.array_equal(memory.labels,
                                  np.stack([s[1] for s in reference]))
        assert memory.features.flags.c_contiguous

    @pytest.mark.parametrize("capacity", [0, -1, float("nan")])
    def test_capacity_below_one_rejected(self, capacity):
        # a zero capacity used to store nothing, and the first solve then
        # failed with "training memory is empty"
        with pytest.raises(ValueError, match="capacity"):
            TrainingMemory(capacity=capacity)

    def test_solver_reads_the_memory_without_copying_it(self):
        rng = np.random.default_rng(17)
        filt, memory = random_problem(rng, kernel=3, n_samples=4)
        lin = _Linearization(filt, memory, train_w1=True)
        assert np.shares_memory(lin.features, memory.features)


class TestConjugateGradient:
    def test_identity_system_converges_in_one_iteration(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal(6)
        x = conjugate_gradient(lambda v: v, b, n_iters=1)
        assert np.abs(x - b).max() < 1e-14

    def test_spd_system_exact_in_n_iterations(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((6, 6))
        a = m @ m.T + 0.5 * np.eye(6)
        b = rng.standard_normal(6)
        history = []
        x = conjugate_gradient(lambda v: a @ v, b, n_iters=6,
                               residual_history=history)
        assert np.linalg.norm(a @ x - b) < 1e-8
        assert np.linalg.norm(x - np.linalg.solve(a, b)) < 1e-8

    def test_zero_start_skips_the_first_product(self):
        rng = np.random.default_rng(15)
        m = rng.standard_normal((6, 6))
        a = m @ m.T + 0.5 * np.eye(6)
        b = rng.standard_normal(6)
        calls = []

        def matvec(v):
            calls.append(v.copy())
            return a @ v

        conjugate_gradient(matvec, b, n_iters=4)
        assert len(calls) == 4                    # one product per iteration
        assert np.array_equal(calls[0], b)        # the first direction is b

    def test_residual_history_non_increasing(self):
        # checked on regularized normal-equation systems, the class the
        # filter solver actually builds (JtJ + lam*I with tall J)
        rng = np.random.default_rng(9)
        for trial in range(50):
            j = rng.standard_normal((40, 8))
            a = j.T @ j + 0.01 * np.eye(8)
            b = rng.standard_normal(8)
            history = []
            conjugate_gradient(lambda v: a @ v, b, n_iters=8,
                               residual_history=history)
            for prev, cur in zip(history, history[1:]):
                assert cur <= prev + 1e-9


def linear_six_parameter_problem(rng, n_samples=3, reg=0.0):
    """Six trainable second-layer weights over a frozen positive first layer.

    Positive frozen first-layer weights over positive multi-channel
    features keep every relu active, so the map is exactly linear in the
    six w2 entries (with independent activation channels) and a dense
    least squares solve is an independent oracle.
    """
    c_in, hidden = 6, 6
    filt = OnlineFilter(w1=np.abs(rng.standard_normal((hidden, c_in, 1, 1))) + 0.2,
                        w2=rng.standard_normal((1, hidden, 1, 1)) * 0.1,
                        reg=reg)
    feats, labels = [], []
    for _ in range(n_samples):
        feats.append(np.abs(rng.standard_normal((c_in, 4, 4))) + 0.1)
        labels.append(rng.standard_normal((4, 4)))
    memory = TrainingMemory(capacity=10, features=np.stack(feats, axis=1),
                            labels=np.stack(labels),
                            weights=np.full(n_samples, 1.0 / n_samples))
    return filt, memory


def dense_design_matrix(filt, memory):
    rows, targets, weights = [], [], []
    for s in samples(memory):
        act = np.maximum(np.einsum("oc,chw->ohw", filt.w1[:, :, 0, 0],
                                   s.features), 0.0)
        for i in range(s.label.shape[0]):
            for j in range(s.label.shape[1]):
                rows.append(act[:, i, j])
                targets.append(s.label[i, j])
                weights.append(s.weight)
    return (np.array(rows) * np.sqrt(weights)[:, None],
            np.array(targets) * np.sqrt(weights))


class TestSolveCg:
    def test_zero_residual_is_fixed_point(self):
        rng = np.random.default_rng(10)
        filt, memory = linear_six_parameter_problem(rng, reg=0.0)
        for i, s in enumerate(samples(memory)):
            # residuals exactly 0
            memory.labels[i] = online_forward(filt, project(filt, s.features))
        result = solve_cg(filt, memory, n_iters=6, gn_steps=2)
        assert not result.degraded
        assert np.array_equal(result.filter.w1, filt.w1)
        assert np.array_equal(result.filter.w2, filt.w2)

    def test_matches_dense_least_squares(self):
        rng = np.random.default_rng(11)
        filt, memory = linear_six_parameter_problem(rng, reg=0.0)
        result = solve_cg(filt, memory, n_iters=12, gn_steps=3, train_w1=False)
        phi, y = dense_design_matrix(filt, memory)
        expected, *_ = np.linalg.lstsq(phi, y, rcond=None)
        assert np.abs(result.filter.w2.ravel() - expected).max() < 1e-6

    def test_identity_hessian_exact_after_one_iteration(self):
        # one sample whose activation rows are orthonormal unit vectors makes
        # the normal-equation matrix the identity
        filt = OnlineFilter(w1=np.eye(2).reshape(2, 2, 1, 1),
                            w2=np.zeros((1, 2, 1, 1)), reg=0.0)
        feat = np.zeros((2, 2, 1))
        feat[0, 0, 0] = 1.0
        feat[1, 1, 0] = 1.0
        label = np.array([[3.0], [-2.0]])
        memory = TrainingMemory(capacity=50, features=feat[:, None],
                                labels=label[None], weights=np.ones(1))
        result = solve_cg(filt, memory, n_iters=1, gn_steps=1, train_w1=False)
        assert np.abs(online_forward(result.filter, project(result.filter, feat))
                      - label).max() < 1e-12

    def test_objective_non_increasing_over_randomized_runs(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            filt = init_online_filter(rng, c_in=2, hidden=4, kernel=2,
                                      reg=10.0 ** rng.uniform(-4, -1))
            memory = TrainingMemory(capacity=8)
            for _ in range(int(rng.integers(1, 4))):
                update_memory(memory, rng.standard_normal((2, 5, 5)),
                              rng.uniform(0, 1, (5, 5)), lr=0.2)
            result = solve_cg(filt, memory, n_iters=int(rng.integers(1, 8)),
                              gn_steps=int(rng.integers(1, 5)))
            assert not result.degraded
            for prev, cur in zip(result.objectives, result.objectives[1:]):
                assert cur <= prev + 1e-12

    def test_gauss_newton_actually_reduces_objective(self):
        rng = np.random.default_rng(13)
        filt = init_online_filter(rng, c_in=2, hidden=4, kernel=2, reg=1e-3)
        memory = TrainingMemory(capacity=4)
        update_memory(memory, rng.standard_normal((2, 6, 6)),
                      rng.uniform(0, 1, (6, 6)), lr=0.1)
        result = solve_cg(filt, memory, n_iters=10, gn_steps=5)
        assert result.objectives[-1] < 0.5 * result.objectives[0]

    def test_non_finite_memory_degrades_gracefully(self):
        rng = np.random.default_rng(14)
        filt = init_online_filter(rng, c_in=2, hidden=4, kernel=2, reg=1e-2)
        memory = TrainingMemory(capacity=4)
        update_memory(memory, rng.standard_normal((2, 4, 4)),
                      rng.uniform(0, 1, (4, 4)), lr=0.1)
        memory.features[0, 0, 0, 0] = np.inf
        result = solve_cg(filt, memory, n_iters=4, gn_steps=2)
        assert result.degraded
        assert result.filter is filt                 # previous filter kept

    @pytest.mark.parametrize("where,value", [("features", -np.inf),
                                             ("features", np.nan),
                                             ("label", np.nan)])
    def test_other_non_finite_inputs_degrade(self, where, value):
        # the solver keeps act = pre * mask, so a NaN or -inf feature is
        # not zeroed by the relu and reaches the degraded check
        rng = np.random.default_rng(14)
        filt = init_online_filter(rng, c_in=2, hidden=4, kernel=2, reg=1e-2)
        memory = TrainingMemory(capacity=4)
        for _ in range(2):
            update_memory(memory, rng.standard_normal((2, 4, 4)),
                          rng.uniform(0, 1, (4, 4)), lr=0.1)
        target = samples(memory)[1]
        if where == "features":
            target.features[1, 2, 3] = value
        else:
            target.label[2, 3] = value
        result = solve_cg(filt, memory, n_iters=4, gn_steps=2)
        assert result.degraded
        assert result.filter is filt

    def test_negative_gn_steps_rejected(self):
        # -1 used to run zero steps and return the input filter
        rng = np.random.default_rng(18)
        filt, memory = random_problem(rng, kernel=2, n_samples=2)
        with pytest.raises(ValueError, match="gn_steps"):
            solve_cg(filt, memory, n_iters=2, gn_steps=-1)

    def test_empty_memory_rejected(self):
        filt = init_online_filter(np.random.default_rng(0), c_in=2, hidden=64,
                                  kernel=4, reg=1e-2)
        with pytest.raises(ValueError):
            solve_cg(filt, TrainingMemory(capacity=50), n_iters=1, gn_steps=1)


# -- per-sample oracle ----------------------------------------------------------
#
# The solver as it was before it stacked the memory: one sample at a time,
# the k x k conv as an einsum over sliding windows, its adjoint as k*k
# shifted adds. The batched operators must agree with it to rounding.

def _oracle_pad(kernel):
    return (kernel - 1) // 2, kernel // 2


def _oracle_conv(activations, w2):
    k = w2.shape[2]
    lo, hi = _oracle_pad(k)
    padded = np.pad(activations, ((0, 0), (lo, hi), (lo, hi)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(1, 2))
    return np.einsum("chwuv,cuv->hw", windows, w2[0])


def _oracle_conv_adjoint(grad_map, w2, spatial):
    h, w = spatial
    k = w2.shape[2]
    lo, hi = _oracle_pad(k)
    gpad = np.zeros((w2.shape[1], h + lo + hi, w + lo + hi))
    for du in range(k):
        for dv in range(k):
            gpad[:, du:du + h, dv:dv + w] += w2[0, :, du, dv][:, None, None] * grad_map
    return gpad[:, lo:lo + h, lo:lo + w]


def oracle_forward(filt, features):
    pre = np.einsum("oc,chw->ohw", filt.w1[:, :, 0, 0], features)
    return _oracle_conv(np.maximum(pre, 0.0), filt.w2)


def oracle_objective(filt, memory):
    total = 0.0
    for s in samples(memory):
        r = oracle_forward(filt, s.features) - s.label
        total += s.weight * float(np.sum(r * r))
    return total + filt.reg * (float(np.sum(filt.w1 ** 2))
                               + float(np.sum(filt.w2 ** 2)))


class OracleSystem:
    """Per-sample Gauss-Newton system at one linearization point."""

    def __init__(self, filt, memory, train_w1):
        self.filt, self.train_w1 = filt, train_w1
        self.states = []
        for s in samples(memory):
            pre = np.einsum("oc,chw->ohw", filt.w1[:, :, 0, 0], s.features)
            mask = (pre > 0.0).astype(np.float64)
            act = pre * mask
            residual = _oracle_conv(act, filt.w2) - s.label
            self.states.append((s, mask, act, residual))
        parts = [filt.w1.ravel()] if train_w1 else []
        self.theta = np.concatenate(parts + [filt.w2.ravel()])

    def split(self, vec):
        v1 = None
        pos = 0
        if self.train_w1:
            pos = self.filt.w1.size
            v1 = vec[:pos].reshape(self.filt.w1.shape)
        return v1, vec[pos:].reshape(self.filt.w2.shape)

    def jvp(self, sample, mask, act, v1, v2):
        out = np.zeros(sample.label.shape)
        if v1 is not None:
            dact = mask * np.einsum("oc,chw->ohw", v1[:, :, 0, 0], sample.features)
            out += _oracle_conv(dact, self.filt.w2)
        out += _oracle_conv(act, v2)
        return out

    def vjp(self, sample, mask, act, u):
        parts = []
        if self.train_w1:
            gact = _oracle_conv_adjoint(u, self.filt.w2, sample.label.shape)
            parts.append(np.einsum("ohw,chw->oc", gact * mask,
                                   sample.features).ravel())
        k = self.filt.kernel
        lo, hi = _oracle_pad(k)
        apad = np.pad(act, ((0, 0), (lo, hi), (lo, hi)))
        windows = np.lib.stride_tricks.sliding_window_view(
            apad, (k, k), axis=(1, 2))
        parts.append(np.einsum("chwuv,hw->cuv", windows, u).ravel())
        return np.concatenate(parts)

    def matvec(self, vec):
        v1, v2 = self.split(vec)
        acc = self.filt.reg * vec
        for sample, mask, act, _ in self.states:
            t = self.jvp(sample, mask, act, v1, v2)
            acc = acc + self.vjp(sample, mask, act, sample.weight * t)
        return acc

    def gradient(self):
        grad = self.filt.reg * self.theta
        for sample, mask, act, residual in self.states:
            grad = grad + self.vjp(sample, mask, act, sample.weight * residual)
        return grad


def oracle_solve(filt, memory, n_iters, gn_steps, train_w1):
    current = filt.copy()
    objectives = [oracle_objective(current, memory)]
    for _ in range(gn_steps):
        system = OracleSystem(current, memory, train_w1)
        delta = conjugate_gradient(system.matvec, -system.gradient(),
                                   n_iters=n_iters)
        accepted = None
        step = 1.0
        for _ in range(5):
            candidate = current.copy()
            v1, v2 = system.split(system.theta + step * delta)
            if v1 is not None:
                candidate.w1 = v1.copy()
            candidate.w2 = v2.copy()
            value = oracle_objective(candidate, memory)
            if value <= objectives[-1]:
                accepted = (candidate, value)
                break
            step *= 0.5
        if accepted is None:
            break
        current, value = accepted
        objectives.append(value)
    return current, objectives


def random_problem(rng, kernel, n_samples, grid=(5, 5), c_in=3, hidden=4):
    filt = init_online_filter(rng, c_in=c_in, hidden=hidden, kernel=kernel,
                              reg=1e-2)
    memory = TrainingMemory(capacity=n_samples)
    for _ in range(n_samples):
        update_memory(memory, rng.standard_normal((c_in,) + grid),
                      rng.uniform(0, 1, grid), lr=0.2)
    return filt, memory


def rel_err(actual, expected):
    return np.abs(np.asarray(actual) - expected).max() / np.abs(expected).max()


# (train_w1, train_w2): the solver always trains w2 and may freeze w1, as
# acceptance criterion 4 does; the w2 flag stays only to name the cases
TRAINED = [(True, True), (False, True)]
CASES = [(k, s, grid) for k in (1, 2, 3, 4) for s in (1, 8)
         for grid in ((5, 5), (4, 6))]


class TestBatchedAgainstPerSample:
    @pytest.mark.parametrize("train_w1,train_w2", TRAINED)
    @pytest.mark.parametrize("kernel,n_samples,grid", CASES)
    def test_normal_matvec_and_gradient(self, kernel, n_samples, grid,
                                        train_w1, train_w2):
        rng = np.random.default_rng([kernel, n_samples, grid[1]])
        filt, memory = random_problem(rng, kernel, n_samples, grid)
        batched = _Linearization(filt, memory, train_w1)
        oracle = OracleSystem(filt, memory, train_w1)
        assert np.array_equal(batched.theta, oracle.theta)
        for _ in range(3):
            vec = rng.standard_normal(oracle.theta.size)
            assert rel_err(batched.normal_matvec(vec), oracle.matvec(vec)) <= 1e-12
        assert rel_err(batched.gradient(), oracle.gradient()) <= 1e-12

    @pytest.mark.parametrize("kernel,n_samples,grid", CASES)
    def test_objective_and_forward(self, kernel, n_samples, grid):
        rng = np.random.default_rng([kernel, n_samples, grid[1], 1])
        filt, memory = random_problem(rng, kernel, n_samples, grid)
        assert rel_err(objective(filt, memory),
                       oracle_objective(filt, memory)) <= 1e-12
        for s in samples(memory):
            assert rel_err(online_forward(filt, project(filt, s.features)),
                           oracle_forward(filt, s.features)) <= 1e-12

    @pytest.mark.parametrize("train_w1,train_w2", TRAINED)
    @pytest.mark.parametrize("kernel,n_samples,grid", CASES)
    def test_short_solve(self, kernel, n_samples, grid, train_w1, train_w2):
        # long solves amplify rounding differences (a 1e-15 relative change
        # of the features moves a 10 x 10 solve by percents), so only short
        # ones are compared
        rng = np.random.default_rng([kernel, n_samples, grid[1], 2])
        filt, memory = random_problem(rng, kernel, n_samples, grid)
        n_iters = 1 + kernel % 3
        result = solve_cg(filt, memory, n_iters=n_iters, gn_steps=1,
                          train_w1=train_w1)
        expected, objectives = oracle_solve(filt, memory, n_iters, 1, train_w1)
        assert not result.degraded
        assert len(result.objectives) == len(objectives)
        assert rel_err(result.objectives, objectives) <= 1e-9
        assert rel_err(result.filter.w1, expected.w1) <= 1e-9
        assert rel_err(result.filter.w2, expected.w2) <= 1e-9


# -- the padded kernels and the solve as they were before the forward was
# shared, kept as bitwise oracles ----------------------------------------------
#
# The solver's fast paths add and copy the same values in the same order
# as these, so they must agree exactly, not to rounding.

def padded_shift_sum(taps, kernel):
    lo, hi = _oracle_pad(kernel)
    padded = np.pad(taps, ((0, 0), (0, 0), (lo, hi), (lo, hi)))
    h, w = taps.shape[2:]
    out = np.zeros(taps.shape[1:])
    for u in range(kernel):
        for v in range(kernel):
            out += padded[u * kernel + v, :, u:u + h, v:v + w]
    return out


def padded_place(maps, kernel):
    lo, hi = _oracle_pad(kernel)
    s, h, w = maps.shape
    padded = np.zeros((kernel * kernel, s, h + lo + hi, w + lo + hi))
    for u in range(kernel):
        for v in range(kernel):
            padded[u * kernel + v, :, u:u + h, v:v + w] = maps
    return padded[:, :, lo:lo + h, lo:lo + w].reshape(kernel * kernel, -1)


def solve_with_redundant_passes(filt, memory, n_iters, gn_steps, train_w1):
    """solve_cg with a fresh objective per value and a separate forward for
    each linearization."""
    current = filt.copy()
    objectives = [objective(current, memory)]
    for _ in range(gn_steps):
        lin = _Linearization(current, memory, train_w1)
        b = -lin.gradient()
        delta = conjugate_gradient(lin.normal_matvec, b, n_iters=n_iters)
        accepted = None
        step = 1.0
        for _ in range(5):
            candidate = online._unpack(lin.theta + step * delta, current,
                                       train_w1)
            value = objective(candidate, memory)
            if value <= objectives[-1]:
                accepted = (candidate, value)
                break
            step *= 0.5
        if accepted is None:
            break
        current, value = accepted
        objectives.append(value)
    return current, objectives


# grids include H != W and grids smaller than half the kernel, where a tap's
# window leaves the grid entirely and its unclipped slice bounds go negative
# (kernels 6 and 7 on grids of 2)
KERNEL_GRIDS = [(k, s, grid) for k in (1, 2, 3, 4, 5) for s in (1, 8)
                for grid in ((5, 5), (4, 6), (6, 3), (1, 1), (2, 1), (1, 3))]
TINY_GRIDS = [(k, s, grid) for k in (6, 7) for s in (1, 8)
              for grid in ((1, 1), (2, 1), (2, 3), (3, 2))]


class TestPaddedOracles:
    @pytest.mark.parametrize("kernel,n_samples,grid", KERNEL_GRIDS + TINY_GRIDS)
    def test_shift_sum_and_place_bitwise(self, kernel, n_samples, grid):
        rng = np.random.default_rng([kernel, n_samples, *grid, 3])
        taps = rng.standard_normal((kernel * kernel, n_samples) + grid)
        assert np.array_equal(_Padded(kernel, taps.shape[1:]).shift_sum(taps),
                              padded_shift_sum(taps, kernel))
        maps = rng.standard_normal((n_samples,) + grid)
        placed = _Padded(kernel, maps.shape).place(maps)
        assert placed.shape == (kernel * kernel, n_samples * grid[0] * grid[1])
        assert np.array_equal(placed, padded_place(maps, kernel))

    @pytest.mark.parametrize("train_w1,train_w2", TRAINED)
    @pytest.mark.parametrize("kernel,n_samples,grid",
                             [c for c in KERNEL_GRIDS if c[2] in ((5, 5), (4, 6), (2, 1))])
    def test_solve_bitwise(self, monkeypatch, kernel, n_samples, grid,
                           train_w1, train_w2):
        rng = np.random.default_rng([kernel, n_samples, *grid, 4])
        filt, memory = random_problem(rng, kernel, n_samples, grid)
        result = solve_cg(filt, memory, n_iters=4, gn_steps=3, train_w1=train_w1)
        # every product of the solve runs on its linearization's _Padded
        monkeypatch.setattr(online._Padded, "shift_sum",
                            lambda self, taps: padded_shift_sum(taps, self.kernel))
        monkeypatch.setattr(online._Padded, "place",
                            lambda self, maps: padded_place(maps, self.kernel))
        expected, objectives = solve_with_redundant_passes(
            filt, memory, 4, 3, train_w1)
        assert not result.degraded
        assert len(objectives) > 1
        assert np.array_equal(result.objectives, objectives)
        assert np.array_equal(result.filter.w1, expected.w1)
        assert np.array_equal(result.filter.w2, expected.w2)


class TestSolveWork:
    """The solve does each piece of work once; counted here so a later
    edit cannot bring a redundant pass back unnoticed."""

    @staticmethod
    def count(monkeypatch, counts, owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    @pytest.mark.parametrize("n_iters,gn_steps,train_w1", [
        pytest.param(n, g, w1, id=f"{n}-{g}" + ("" if w1 else "-w1_frozen"))
        for w1 in (True, False) for n, g in ((1, 1), (5, 4), (10, 10))])
    def test_one_forward_per_filter_and_no_zero_product(self, monkeypatch,
                                                         n_iters, gn_steps,
                                                         train_w1):
        rng = np.random.default_rng([n_iters, gn_steps])
        filt, memory = random_problem(rng, kernel=4, n_samples=8, grid=(6, 6),
                                      c_in=6, hidden=8)
        counts = Counter()
        for owner, name in ((online, "_relu"), (online, "objective"),
                            (online, "conjugate_gradient"),
                            (online._Linearization, "normal_matvec")):
            self.count(monkeypatch, counts, owner, name)
        result = solve_cg(filt, memory, n_iters=n_iters, gn_steps=gn_steps,
                          train_w1=train_w1)
        assert not result.degraded
        assert counts["conjugate_gradient"] >= len(result.objectives) - 1 >= 1
        # the parameter count far exceeds n_iters, so CG never stops early
        assert counts["normal_matvec"] == n_iters * counts["conjugate_gradient"]
        if train_w1:
            # the starting point's forward gives objectives[0], and every
            # later forward is a candidate's, read by its objective
            assert counts["_relu"] == counts["objective"]
        else:
            # every candidate shares the starting point's w1, so the hidden
            # layer runs once per solve
            assert counts["_relu"] == 1
        assert counts["objective"] >= len(result.objectives)

    @staticmethod
    def count_views(monkeypatch):
        """Count the stride-trick views online.py builds, and record each
        ``_Padded`` made; numpy's own nested calls are not counted."""
        counts, pads = Counter(), []
        tricks = np.lib.stride_tricks

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                if sys._getframe(1).f_globals["__name__"] == online.__name__:
                    counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("as_strided", "sliding_window_view"):
            monkeypatch.setattr(tricks, name, counted(name, getattr(tricks, name)))
        init = online._Padded.__init__

        def recording_init(self, *args):
            pads.append(self)
            init(self, *args)
        monkeypatch.setattr(online._Padded, "__init__", recording_init)
        return counts, pads

    @pytest.mark.parametrize("train_w1", [True, False])
    def test_each_view_built_once_per_buffer_set(self, monkeypatch, train_w1):
        rng = np.random.default_rng(23)
        filt, memory = random_problem(rng, kernel=4, n_samples=8, grid=(6, 6),
                                      c_in=6, hidden=8)
        counts, pads = self.count_views(monkeypatch)
        result = solve_cg(filt, memory, n_iters=4, gn_steps=3, train_w1=train_w1)
        # every Gauss-Newton step was accepted: four linearizations and
        # dozens of products ran on the one set of buffers
        assert len(result.objectives) == 4
        assert len(pads) == 1
        assert counts == {"as_strided": 1, "sliding_window_view": 1}

    def test_forward_builds_no_placement(self, monkeypatch):
        rng = np.random.default_rng(24)
        filt = init_online_filter(rng, c_in=3, hidden=4, kernel=4, reg=1e-2)
        hidden = project(filt, rng.standard_normal((3, 6, 5)))
        counts, pads = self.count_views(monkeypatch)
        online_forward(filt, hidden)
        assert counts == {"as_strided": 1}
        (pad,) = pads

        def owner(a):
            while getattr(a, "base", None) is not None:
                a = a.base
            return a

        # every array the set holds is a view of its one buffer, the
        # zero-padded taps (k, k, S, H + k - 1, W + k - 1)
        held = [a for v in vars(pad).values()
                for a in (v if isinstance(v, tuple) else (v,))
                if isinstance(a, np.ndarray)]
        owners = {id(owner(a)): owner(a) for a in held}
        assert [o.shape for o in owners.values()] == [(4, 4, 1, 9, 8)]

    def test_tracker_init_runs_one_unbroken_cg(self, monkeypatch):
        # a restarted schedule would show as more conjugate_gradient calls
        config = TrackerConfig(template_size=48, search_size=96, d=8,
                               n_heads=2, c_mid=8, online=True)
        frames, boxes = generate_synthetic_sequence(0, 1, SequenceSpec())
        tracker = Tracker(build_model(np.random.default_rng(0), config), config)
        counts = Counter()
        for owner, name in ((online, "conjugate_gradient"),
                            (online._Linearization, "normal_matvec")):
            self.count(monkeypatch, counts, owner, name)
        tracker.init(frames[0], boxes[0])
        # 16 hidden channels x 4 x 4 taps: CG never stops early
        assert tracker.state.online_filter.w2.size > INIT_CG_ITERS
        assert counts == {"conjugate_gradient": 1,
                          "normal_matvec": INIT_CG_ITERS}


class TestBufferReuse:
    """One linearization's products share one set of padded buffers; each
    product must equal the same product on a fresh ``_Padded``'s
    buffers."""

    @pytest.mark.parametrize("train_w1", [True, False])
    @pytest.mark.parametrize("grid", [(1, 1), (2, 1), (1, 7), (7, 9), (16, 16)])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    def test_successive_products_equal_fresh_kernels(self, kernel, grid, train_w1):
        for n_samples in range(1, 10):
            rng = np.random.default_rng([kernel, *grid, n_samples, 19])
            filt, memory = random_problem(rng, kernel, n_samples, grid)
            lin = _Linearization(filt, memory, train_w1)
            hidden = lin.w2.shape[0]
            for _ in range(3):
                vec = rng.standard_normal(lin.theta.size)
                taps = vec[lin.n_w1:].reshape(hidden, -1).T @ lin.act
                if train_w1:
                    v1 = vec[:lin.n_w1].reshape(hidden, -1)
                    taps += lin.w2.T @ (lin.mask * (v1 @ lin.features))
                assert np.array_equal(
                    lin.jvp(vec),
                    _Padded(kernel, (n_samples,) + grid).shift_sum(
                        taps.reshape((-1, n_samples) + grid)))

                maps = rng.standard_normal((n_samples,) + grid)
                placed = _Padded(kernel, maps.shape).place(maps)
                expected = (lin.act @ placed.T).ravel()
                if train_w1:
                    gpre = (lin.w2 @ placed) * lin.mask
                    expected = np.concatenate([(gpre @ lin.features.T).ravel(),
                                               expected])
                assert np.array_equal(lin.vjp(maps), expected)
                # what the GEMMs read; on 2x1 grids at kernels 4 and 5 a
                # reshaped view keeps other strides, which round differently
                assert lin.pads.place(maps).flags.c_contiguous


def nonfinite(rng, shape):
    """Standard normal values, about a tenth each of them +inf, -inf and NaN."""
    x = rng.standard_normal(shape)
    picks = rng.choice(x.size, 3 * (x.size // 10 + 1), replace=False)
    x.flat[picks] = np.resize([np.inf, -np.inf, np.nan], picks.size)
    return x


class TestMasksInPlace:
    """The relu mask multiplies fresh products in place: the result is
    the fresh product ``pre * mask`` to the bit, non-finite values
    included, and no input array is written."""

    @np.errstate(invalid="ignore")
    def test_relu_equals_the_fresh_product(self):
        rng = np.random.default_rng(25)
        w1 = rng.standard_normal((5, 3, 1, 1))
        features = nonfinite(rng, (3, 40))
        pre = w1[:, :, 0, 0] @ features
        assert np.isposinf(pre).any() and np.isneginf(pre).any()
        assert np.isnan(pre).any()
        mask, act = online._relu(w1, features)
        assert np.array_equal(mask, pre > 0.0)
        assert act.tobytes() == (pre * (pre > 0.0)).tobytes()

    @pytest.mark.parametrize("kernel", [1, 2, 4])
    @np.errstate(invalid="ignore")
    def test_jacobian_products_equal_the_fresh_products(self, kernel):
        rng = np.random.default_rng([kernel, 26])
        n, grid = 3, (4, 5)
        filt, memory = random_problem(rng, kernel, n, grid)
        memory.features = nonfinite(rng, memory.features.shape)
        lin = _Linearization(filt, memory, train_w1=True)
        hidden = lin.w2.shape[0]
        vec = rng.standard_normal(lin.theta.size)
        v1 = vec[:lin.n_w1].reshape(hidden, -1)
        pre = v1 @ lin.features
        assert np.isinf(pre).any() and np.isnan(pre).any()
        taps = vec[lin.n_w1:].reshape(hidden, -1).T @ lin.act
        taps += lin.w2.T @ (pre * lin.mask)
        expected = _Padded(kernel, (n,) + grid).shift_sum(
            taps.reshape((-1, n) + grid))
        assert lin.jvp(vec).tobytes() == expected.tobytes()

        maps = nonfinite(rng, (n,) + grid)
        placed = _Padded(kernel, maps.shape).place(maps)
        gpre = lin.w2 @ placed
        assert np.isinf(gpre).any() and np.isnan(gpre).any()
        expected = np.concatenate([((gpre * lin.mask) @ lin.features.T).ravel(),
                                   (lin.act @ placed.T).ravel()])
        assert lin.vjp(maps).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("values", ["finite", "nonfinite"])
    @pytest.mark.parametrize("train_w1,projected", [(True, False), (False, False),
                                                    (False, True)])
    def test_inputs_are_not_written(self, values, train_w1, projected):
        rng = np.random.default_rng(27)
        filt, memory = random_problem(rng, kernel=3, n_samples=4)
        if values == "nonfinite":
            memory.features = nonfinite(rng, memory.features.shape)
        features = memory.features[:, 0]
        if projected:
            project_memory(filt, memory)
        arrays = {"features": features, "w1": filt.w1, "w2": filt.w2,
                  **{name: getattr(memory, name) for name in
                     ("features", "labels", "weights", "residuals")
                     if getattr(memory, name) is not None}}
        before = {name: a.tobytes() for name, a in arrays.items()}
        online_forward(filt, project(filt, features))
        solve_cg(filt, memory, n_iters=3, gn_steps=2, train_w1=train_w1)
        assert {name: a.tobytes() for name, a in arrays.items()} == before


class TestProjectedMemory:
    """A memory of relu(w1 F) with carried residuals solves as the memory
    of features it came from, without running the hidden layer."""

    @pytest.mark.parametrize("kernel,n_samples,grid",
                             [c for c in KERNEL_GRIDS if c[2] in ((5, 5), (2, 1))])
    def test_w2_solve_matches_the_feature_memory_bitwise(self, monkeypatch,
                                                         kernel, n_samples, grid):
        rng = np.random.default_rng([kernel, n_samples, *grid, 20])
        filt, memory = random_problem(rng, kernel, n_samples, grid)
        expected = solve_cg(filt, memory, n_iters=4, gn_steps=3, train_w1=False)
        project_memory(filt, memory)
        assert memory.features.shape == (4, n_samples) + grid
        assert memory.features.flags.c_contiguous
        calls = []
        relu = online._relu
        monkeypatch.setattr(online, "_relu", lambda *a: calls.append(a) or relu(*a))
        result = solve_cg(filt, memory, n_iters=4, gn_steps=3, train_w1=False)
        assert calls == []
        assert not result.degraded
        assert np.array_equal(result.objectives, expected.objectives)
        assert np.array_equal(result.filter.w2, expected.filter.w2)
        assert np.array_equal(result.residuals, expected.residuals)

    def test_sample_enters_with_its_projection_and_residual(self):
        rng = np.random.default_rng(21)
        filt, memory = random_problem(rng, kernel=3, n_samples=2)
        reference = copy.deepcopy(memory)
        project_memory(filt, memory)
        for _ in range(3):      # at capacity 2 each insert evicts
            new, label = rng.standard_normal((3, 5, 5)), rng.uniform(0, 1, (5, 5))
            update_memory(memory, project(filt, new), label, lr=0.2,
                          residual=online_forward(filt, project(filt, new)) - label)
            update_memory(reference, new, label, lr=0.2)
        assert np.array_equal(memory.weights, reference.weights)
        lin = _Linearization(filt, reference, train_w1=False)
        assert np.array_equal(memory.features.reshape(lin.act.shape), lin.act)
        assert np.array_equal(memory.residuals, lin.residual)

    def test_misuse_rejected(self):
        rng = np.random.default_rng(22)
        filt, memory = random_problem(rng, kernel=2, n_samples=2)
        sample, label = rng.standard_normal((3, 5, 5)), np.zeros((5, 5))
        with pytest.raises(ValueError, match="residual"):
            update_memory(memory, sample, label, lr=0.2, residual=label)
        project_memory(filt, memory)
        with pytest.raises(ValueError, match="residual"):
            update_memory(memory, project(filt, sample), label, lr=0.2)
        with pytest.raises(ValueError, match="w1"):
            solve_cg(filt, memory, n_iters=2, gn_steps=1, train_w1=True)
        with pytest.raises(ValueError, match="projected"):
            project_memory(filt, memory)


def init_problem(tracker, frame, box):
    """The filter and projected memory that ``tracker.init`` hands its w2
    fit, captured in place of that fit."""
    captured = []
    tracker._fit_w2 = lambda n_iters, gn_steps: captured.append(
        (tracker.state.online_filter, tracker.state.online_memory))
    tracker.init(frame, box)
    return captured[0]


def init_schedules(filt, memory):
    """Final objectives of the init's w2 fit: the ten restarted 10-iteration
    CG runs it used to make, then its one unbroken run."""
    restarted = solve_cg(filt, memory, n_iters=10, gn_steps=10, train_w1=False)
    unbroken = solve_cg(filt, memory, n_iters=INIT_CG_ITERS, gn_steps=1,
                        train_w1=False)
    assert not restarted.degraded and not unbroken.degraded
    return restarted.objectives[-1], unbroken.objectives[-1]


class TestInitSchedule:
    """The init's one unbroken CG run against the restarted schedule it
    replaced, on the init memories of untrained trackers."""

    @pytest.mark.parametrize("template_size,search_size,seed", [
        pytest.param(t, s, seed, id=f"{t}-{s}-seed{seed}")
        for t, s, seeds in ((64, 128, range(10)), (127, 255, range(2)))
        for seed in seeds])
    def test_one_run_ends_no_higher_than_the_restarts(self, template_size,
                                                      search_size, seed):
        config = TrackerConfig(template_size=template_size,
                               search_size=search_size, online=True)
        frames, boxes = generate_synthetic_sequence(
            seed, 1, SequenceSpec(brightness_drift=0.5))
        tracker = Tracker(build_model(np.random.default_rng(seed), config),
                          config)
        restarted, unbroken = init_schedules(
            *init_problem(tracker, frames[0], boxes[0]))
        assert unbroken <= restarted
