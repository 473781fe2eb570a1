import math

import numpy as np
import pytest

from attntrack import loss
from attntrack import tensor as T
from attntrack.errors import ShapeError
from attntrack.loss import (adaptive_sigma, focal_loss, gaussian_label,
                            joint_loss, make_ground_truth, offset_loss,
                            size_loss)
from attntrack.tensor import Tensor, finite_difference_check


class TestGaussianLabel:
    def test_peak_is_exactly_one(self):
        label = gaussian_label((3, 5), sigma=1.7, hs=8, ws=8)
        assert label[5, 3] == 1.0
        assert (label == 1.0).sum() == 1

    def test_half_width(self):
        # at distance sigma * sqrt(2 ln 2) the kernel value is exactly 1/2
        sigma = 3.0 / math.sqrt(2.0 * math.log(2.0))
        label = gaussian_label((4, 4), sigma, hs=9, ws=9)
        assert abs(label[4, 7] - 0.5) < 1e-12

    def test_against_per_pixel_oracle(self):
        sigma = 1.3
        label = gaussian_label((2, 5), sigma, hs=8, ws=8)
        for y in range(8):
            for x in range(8):
                expected = math.exp(-((x - 2) ** 2 + (y - 5) ** 2)
                                    / (2 * sigma * sigma))
                assert abs(label[y, x] - expected) < 1e-12

    def test_symmetric_about_center(self):
        label = gaussian_label((4, 4), 1.1, hs=9, ws=9)
        assert np.abs(label - label[::-1, :]).max() < 1e-15
        assert np.abs(label - label[:, ::-1]).max() < 1e-15

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_label((0, 0), 0.0, 4, 4)


def iou_of_diagonal_shift(w, h, r):
    iw, ih = max(0.0, w - r), max(0.0, h - r)
    inter = iw * ih
    return inter / (2 * w * h - inter)


def bisect_radius(w, h, overlap=0.7):
    lo, hi = 0.0, float(max(w, h))
    for _ in range(60):
        mid = (lo + hi) / 2
        if iou_of_diagonal_shift(w, h, mid) >= overlap:
            lo = mid
        else:
            hi = mid
    return lo


class TestAdaptiveSigma:
    def test_square_boxes_match_bisection_oracle(self, monkeypatch):
        monkeypatch.setattr(loss, "SIGMA_FLOOR", 0.0)
        for side in (4.0, 8.0, 16.0, 30.0):
            sigma = adaptive_sigma(side, side)
            assert abs(3.0 * sigma - bisect_radius(side, side)) < 1.0

    def test_monotone_in_box_size(self):
        assert adaptive_sigma(40.0, 40.0) > adaptive_sigma(4.0, 4.0)

    def test_tiny_box_clamped(self):
        assert adaptive_sigma(1.0, 1.0) == 0.5

    def test_rejects_degenerate_box(self):
        with pytest.raises(ValueError):
            adaptive_sigma(0.0, 4.0)


class TestFocalLoss:
    def _single(self, pred, label):
        return focal_loss(Tensor(np.array([[pred]])),
                          np.array([[label]])).item()

    def test_perfect_positive_is_zero(self):
        assert self._single(1.0 - 1e-7, 1.0) < 1e-12

    def test_positive_branch_value(self):
        # -(1 - 0.5)^2 log(0.5)
        assert abs(self._single(0.5, 1.0) - 0.25 * math.log(2.0)) < 1e-12
        assert abs(self._single(0.5, 1.0) - 0.17329) < 1e-5

    def test_negative_branch_value(self):
        # -(1 - 0)^4 (0.5)^2 log(1 - 0.5)
        assert abs(self._single(0.5, 0.0) - 0.25 * math.log(2.0)) < 1e-12

    def test_penalty_reduction_factor(self):
        # a near-center negative (label 0.9) is down-weighted by 0.1^4
        strong = self._single(0.5, 0.0)
        reduced = self._single(0.5, 0.9)
        assert abs(reduced - strong * 0.1 ** 4) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            focal_loss(Tensor(np.ones((2, 2)) * 0.5), np.ones((3, 3)))

    def test_nonnegative_and_zero_only_at_target(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            pred = Tensor(rng.uniform(0.05, 0.95, (4, 4)))
            label = np.zeros((4, 4))
            label[1, 2] = 1.0
            assert focal_loss(pred, label).item() >= 0.0
        match = np.zeros((4, 4)) + 1e-9
        match[1, 2] = 1.0
        near_perfect = match.copy()
        assert focal_loss(Tensor(near_perfect), label).item() < 1e-6

    def test_penalty_monotone_in_label(self):
        values = [focal_loss(Tensor(np.array([[0.4]])),
                             np.array([[g]])).item()
                  for g in np.linspace(0.0, 0.999, 25)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        label = gaussian_label((1, 2), 1.0, 4, 4)
        label[2, 1] = 1.0
        pred = Tensor(rng.uniform(0.1, 0.9, (4, 4)), requires_grad=True)
        worst, failures = finite_difference_check(
            lambda: focal_loss(pred, label), [pred])
        assert not failures and worst < 1e-4


class TestL1Losses:
    def test_offset_zero_on_grid_target(self):
        off = Tensor(np.zeros((1, 4, 4, 2)))
        assert offset_loss(off, [(16.0, 24.0)], [(2, 3)]).item() == 0.0

    def test_offset_zero_for_exact_prediction(self):
        off = np.zeros((1, 4, 4, 2))
        off[0, 2, 1] = (0.5, 0.25)                   # cell x=1, y=2
        assert offset_loss(Tensor(off), [(12.0, 18.0)], [(1, 2)]).item() < 1e-12

    def test_offset_component_sum(self):
        off = Tensor(np.zeros((1, 4, 4, 2)))
        value = offset_loss(off, [(12.0, 18.0)], [(1, 2)]).item()
        assert abs(value - 0.75) < 1e-12             # |0.5| + |0.25|

    def test_size_zero_for_exact_prediction(self):
        size = np.zeros((1, 4, 4, 2))
        size[0, 3, 2] = (0.3, 0.6)
        assert size_loss(Tensor(size), [(0.3, 0.6)], [(2, 3)]).item() < 1e-12

    def test_size_component_sum(self):
        size = np.full((1, 4, 4, 2), 0.5)
        value = size_loss(Tensor(size), [(0.25, 0.75)], [(1, 1)]).item()
        assert abs(value - 0.5) < 1e-12

    def test_size_subgradient_is_unit(self):
        size = Tensor(np.full((1, 4, 4, 2), 0.5), requires_grad=True)
        size_loss(size, [(0.25, 0.75)], [(1, 1)]).backward()
        assert np.array_equal(size.grad[0, 1, 1], [1.0, -1.0])
        grad_elsewhere = size.grad.copy()
        grad_elsewhere[0, 1, 1] = 0.0
        assert np.abs(grad_elsewhere).max() == 0.0   # evaluated only at the cell


class TestJointLoss:
    def test_plain_sum(self):
        value = joint_loss(Tensor(1.0), Tensor(2.0), Tensor(3.0))
        assert value.item() == 6.0


class TestTrainingSignal:
    def test_one_gradient_step_decreases_loss(self):
        # heads-only toy problem: a single plain-gradient step at 1e-3
        # strictly decreases the joint objective, across ten seeds
        from attntrack.localize import heads_forward, init_head_weights

        for seed in range(10):
            rng = np.random.default_rng(seed)
            weights = init_head_weights(rng, 8, score_bias=-1.0)
            feat = Tensor(rng.standard_normal((1, 4, 4, 8)))
            target = make_ground_truth(center=(13.0, 19.0), box_size=(10.0, 12.0),
                                       side=32)
            params = T.parameters(weights)

            def compute():
                maps = heads_forward(feat, weights)
                return joint_loss(
                    focal_loss(T.reshape(maps.score, (4, 4)), target.label),
                    offset_loss(maps.offset, [target.center], [target.cell]),
                    size_loss(maps.size, [target.norm_size], [target.cell]))

            for p in params:
                p.zero_grad()
            before = compute()
            before.backward()
            for p in params:
                if p.grad is not None:
                    p.data = p.data - 1e-3 * p.grad
            after = compute()
            assert after.item() < before.item()


class TestGroundTruth:
    def test_cell_and_normalized_size(self):
        gt = make_ground_truth(center=(37.0, 21.5), box_size=(40.0, 25.0), side=128)
        assert gt.cell == (4, 2)
        assert gt.norm_size == (40.0 / 128.0, 25.0 / 128.0)
        assert gt.label[2, 4] == 1.0
        assert gt.label.shape == (16, 16)

    @pytest.mark.parametrize("center", [(-3.0, 10.0), (10.0, -0.5), (32.0, 10.0),
                                        (10.0, 40.0), (float("nan"), 10.0)])
    def test_centre_outside_the_patch_rejected(self, center):
        # a centre left of or above the patch used to wrap the offset read
        # round to the last column or row; right of or below, an IndexError
        with pytest.raises(ValueError, match=r"centre \(.*\) lies outside the 32x32 patch"):
            make_ground_truth(center=center, box_size=(8.0, 8.0), side=32)

    def test_offset_read_at_the_target_cell(self):
        gt = make_ground_truth(center=(0.0, 31.9), box_size=(8.0, 8.0), side=32)
        off = np.zeros((1, 4, 4, 2))
        off[0, gt.cell[1], gt.cell[0]] = (0.0, 31.9 / 8 - 3)
        assert gt.cell == (0, 3)
        assert offset_loss(Tensor(off), [gt.center], [gt.cell]).item() < 1e-12


class TestBatchedL1Losses:
    def test_batch_sums_the_samples(self):
        rng = np.random.default_rng(3)
        off = Tensor(rng.uniform(0, 1, (3, 4, 4, 2)), requires_grad=True)
        size = Tensor(rng.uniform(0, 1, (3, 4, 4, 2)), requires_grad=True)
        centers = [(3.0, 30.0), (17.5, 9.0), (31.0, 0.5)]
        cells = [(0, 3), (2, 1), (3, 0)]
        norms = [(0.2, 0.3), (0.5, 0.1), (0.9, 0.4)]
        batched = T.add(offset_loss(off, centers, cells),
                        size_loss(size, norms, cells))
        batched.backward()
        grads = off.grad.copy(), size.grad.copy()
        off.zero_grad()
        size.zero_grad()
        total = None
        for b in range(3):
            sample = slice(b, b + 1)
            one = T.add(offset_loss(T.take(off, sample), [centers[b]], [cells[b]]),
                        size_loss(T.take(size, sample), [norms[b]], [cells[b]]))
            total = one if total is None else T.add(total, one)
        total.backward()
        assert abs(batched.item() - total.item()) < 1e-12
        assert np.array_equal(grads[0], off.grad)
        assert np.array_equal(grads[1], size.grad)
