import numpy as np
import pytest

from attntrack.localize import (BoundingBox, HeadStack, HeadWeights,
                                apply_window, decode_center, decode_size,
                                heads_forward, init_head_weights,
                                make_cosine_window, peak_cell, smooth_size)
from attntrack.tensor import Conv, Tensor


def constant_heads(d, value=0.0, final_bias=0.0):
    def stack(out_channels):
        widths = [d, d, out_channels]
        conv = []
        c_in = d
        for i, c_out in enumerate(widths):
            conv.append(Conv(Tensor(np.full((c_out, c_in, 1, 1), value)),
                             Tensor(np.full(c_out, final_bias if i == 2 else 0.0))))
            c_in = c_out
        return HeadStack(conv=conv)
    return HeadWeights(score=stack(1), offset=stack(2), size=stack(2))


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def heads_oracle(feat_hwd, weights: HeadWeights):
    """Per-pixel conv+relu+conv+relu+conv+sigmoid, naive loops."""
    hs, ws, _ = feat_hwd.shape
    outs = []
    for stack in (weights.score, weights.offset, weights.size):
        maps = np.zeros((hs, ws, stack.conv[-1].kernel.shape[0]))
        for y in range(hs):
            for x in range(ws):
                v = feat_hwd[y, x]
                for i, conv in enumerate(stack.conv):
                    v = conv.kernel.data[:, :, 0, 0] @ v + conv.bias.data
                    if i < 2:
                        v = np.maximum(v, 0.0)
                maps[y, x] = sigmoid(v)
        outs.append(maps)
    return outs


class TestHeadsForward:
    def test_zero_network_gives_half(self):
        rng = np.random.default_rng(0)
        feat = Tensor(rng.standard_normal((3, 3, 4)))
        maps = heads_forward(feat, constant_heads(4))
        assert np.allclose(maps.score.data, 0.5)
        assert np.allclose(maps.offset.data, 0.5)
        assert np.allclose(maps.size.data, 0.5)

    def test_large_negative_bias_saturates_to_zero(self):
        rng = np.random.default_rng(1)
        feat = Tensor(rng.standard_normal((2, 2, 4)))
        maps = heads_forward(feat, constant_heads(4, final_bias=-40.0))
        assert maps.score.data.max() < 1e-12

    def test_against_naive_oracle(self):
        rng = np.random.default_rng(2)
        weights = init_head_weights(rng, 4, score_bias=-1.0)
        feat = rng.standard_normal((2, 2, 4))
        maps = heads_forward(Tensor(feat), weights)
        score, offset, size = heads_oracle(feat, weights)
        assert np.abs(maps.score.data - score).max() < 1e-12
        assert np.abs(maps.offset.data - offset).max() < 1e-12
        assert np.abs(maps.size.data - size).max() < 1e-12

    def test_batch_against_naive_oracle(self):
        rng = np.random.default_rng(4)
        weights = init_head_weights(rng, 4, score_bias=-1.0)
        feat = rng.standard_normal((3, 2, 3, 4))
        maps = heads_forward(Tensor(feat), weights)
        assert maps.score.shape == (3, 2, 3, 1)
        for b in range(3):
            score, offset, size = heads_oracle(feat[b], weights)
            assert np.abs(maps.score.data[b] - score).max() < 1e-12
            assert np.abs(maps.offset.data[b] - offset).max() < 1e-12
            assert np.abs(maps.size.data[b] - size).max() < 1e-12

    def test_outputs_in_range_for_extreme_inputs(self):
        rng = np.random.default_rng(3)
        weights = init_head_weights(rng, 4)
        feat = Tensor(rng.uniform(-1e3, 1e3, (4, 4, 4)))
        maps = heads_forward(feat, weights)
        for m in (maps.score, maps.offset, maps.size):
            assert np.all(m.data >= 0.0) and np.all(m.data <= 1.0)
            assert np.all(np.isfinite(m.data))


class TestWindow:
    def test_peak_is_one_at_center(self):
        win = make_cosine_window(9, 9, 0.4)
        assert win.window.max() == 1.0
        assert win.window[4, 4] == 1.0

    @pytest.mark.parametrize("hs,ws", [(1, 1), (2, 2), (1, 2)])
    def test_under_three_cells_is_flat(self, hs, ws):
        # np.hanning(2) is [0, 0]: a 2-cell grid used to give 0/0 = NaN
        assert np.array_equal(make_cosine_window(hs, ws, 0.4).window,
                              np.ones((hs, ws)))

    def test_two_cell_axis_keeps_the_other_axis_cosine(self):
        win = make_cosine_window(2, 5, 0.4).window
        assert np.array_equal(win, np.stack([np.hanning(5)] * 2))

    def test_zero_influence_is_identity(self):
        rng = np.random.default_rng(4)
        y = rng.uniform(0, 1, (5, 5))
        out = apply_window(y, make_cosine_window(5, 5, 0.0))
        assert np.array_equal(out, y)

    def test_full_influence_centers_argmax(self):
        rng = np.random.default_rng(5)
        y = rng.uniform(0, 1, (9, 9))
        out = apply_window(y, make_cosine_window(9, 9, 1.0))
        assert peak_cell(out) == (4, 4)

    def test_uniform_map_peaks_at_center(self):
        out = apply_window(np.full((9, 9), 0.5), make_cosine_window(9, 9, 0.4))
        assert peak_cell(out) == (4, 4)

    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(6)
        y = rng.uniform(0, 1, (8, 8))
        for lam in np.linspace(0, 1, 11):
            out = apply_window(y, make_cosine_window(8, 8, lam))
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_monotone_suppression(self):
        # raising the window influence never moves the peak farther from
        # the window center, checked by exhaustive sweep on random maps
        rng = np.random.default_rng(7)
        center = (8 - 1) / 2.0
        for _ in range(20):
            y = rng.uniform(0, 1, (8, 8))
            prev_dist = None
            for lam in np.arange(0.0, 1.01, 0.1):
                gx, gy = peak_cell(apply_window(y, make_cosine_window(8, 8, lam)))
                dist = np.hypot(gx - center, gy - center)
                if prev_dist is not None:
                    assert dist <= prev_dist + 1e-9
                prev_dist = dist


class TestDecode:
    def test_center_by_substitution(self):
        score = np.zeros((8, 8))
        score[4, 3] = 1.0                       # x-index 3, y-index 4
        offset = np.zeros((8, 8, 2))
        offset[4, 3] = (0.5, 0.25)
        assert decode_center(score, offset) == (28.0, 34.0)

    def test_zero_offset_lands_on_grid(self):
        rng = np.random.default_rng(8)
        score = rng.uniform(0, 1, (6, 6))
        cx, cy = decode_center(score, np.zeros((6, 6, 2)))
        assert cx % 8 == 0 and cy % 8 == 0

    def test_peak_matches_full_scan(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            score = rng.uniform(0, 1, (7, 9))
            gx, gy = peak_cell(score)
            best = max(((score[y, x], (x, y)) for y in range(7) for x in range(9)),
                       key=lambda t: t[0])
            assert (gx, gy) == best[1]

    def test_center_always_in_patch_bounds(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            score = rng.uniform(0, 1, (6, 6))
            offset = rng.uniform(0, 1, (6, 6, 2))  # sigmoid range
            cx, cy = decode_center(score, offset)
            assert 0 <= cx < 6 * 8 and 0 <= cy < 6 * 8

    def test_tie_breaks_at_lowest_row_major_index(self):
        score = np.full((4, 4), 0.7)
        assert peak_cell(score) == (0, 0)

    def test_size_by_substitution(self):
        size = np.zeros((8, 8, 2))
        size[2, 5] = (0.25, 0.5)
        assert decode_size(size, (5, 2), 256, 256) == (64.0, 128.0)

    def test_size_saturation(self):
        size = np.ones((4, 4, 2))
        assert decode_size(size, (1, 1), 256, 256) == (256.0, 256.0)

    def test_size_scalar_oracle(self):
        rng = np.random.default_rng(11)
        size = rng.uniform(0, 1, (5, 5, 2))
        w, h = decode_size(size, (3, 4), 200, 160)
        assert abs(w - 200 * size[4, 3, 0]) < 1e-12
        assert abs(h - 160 * size[4, 3, 1]) < 1e-12

    def test_windowed_decode_matches_brute_force(self):
        # full decode path vs an exhaustive enumeration of windowed cells
        rng = np.random.default_rng(12)
        for n in (8, 12, 16):
            score = rng.uniform(0, 1, (n, n))
            offset = rng.uniform(0, 1, (n, n, 2))
            win = make_cosine_window(n, n, 0.4)
            combined = apply_window(score, win)
            cx, cy = decode_center(combined, offset)

            best_val, best_cell = -1.0, None
            for y in range(n):
                for x in range(n):
                    v = 0.6 * score[y, x] + 0.4 * win.window[y, x]
                    if v > best_val:
                        best_val, best_cell = v, (x, y)
            ex = 8 * (best_cell[0] + offset[best_cell[1], best_cell[0], 0])
            ey = 8 * (best_cell[1] + offset[best_cell[1], best_cell[0], 1])
            assert abs(cx - ex) < 1e-9 and abs(cy - ey) < 1e-9


class TestSmoothSize:
    def test_gamma_zero_keeps_previous(self):
        assert smooth_size((10.0, 10.0), (20.0, 30.0), 0.0) == (10.0, 10.0)

    def test_gamma_one_adopts_prediction(self):
        assert smooth_size((10.0, 10.0), (20.0, 30.0), 1.0) == (20.0, 30.0)

    def test_interpolation(self):
        assert smooth_size((10.0, 10.0), (20.0, 30.0), 0.3) == (13.0, 16.0)


class TestBoundingBox:
    def test_corner_roundtrip(self):
        box = BoundingBox(10.0, 20.0, 8.0, 6.0)
        assert BoundingBox.from_corner(*box.as_corner()) == box
