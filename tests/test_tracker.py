import dataclasses
import gc
import hashlib
import inspect
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from attntrack import online as online_mod
from attntrack import tensor as T
from attntrack.errors import ConfigurationError, ShapeError, TrackingError
from attntrack.localize import STRIDE, BoundingBox, make_cosine_window
from attntrack.online import (OnlineFilter, TrainingMemory, _Linearization,
                              blend, conjugate_gradient, init_online_filter,
                              online_forward, project, solve_cg, update_memory)
from attntrack.pipeline import (Adam, BackboneWeights, Frame, SequenceSpec,
                                Tracker, TrackerConfig, TrainSettings, build_model,
                                crop_template, encode_template, forward_pair,
                                generate_synthetic_sequence, load_model,
                                load_sequence, pair_loss, sample_training_pair,
                                save_model, save_sequence,
                                init_backbone, track_sequence, train_toy)
from attntrack.pipeline import crop as crop_mod
from attntrack.pipeline import tracker as tracker_mod
from attntrack.pipeline import train as train_mod
from attntrack.pipeline.crop import crop_search
from attntrack.pipeline.tracker import extract_features
from attntrack.tensor import (Tensor, load_checkpoint, named_parameters,
                              save_checkpoint)
from attntrack.transformer import init_transformer


@pytest.fixture(scope="module")
def toy_world():
    frames, boxes = generate_synthetic_sequence(0, 8, SequenceSpec())
    config = TrackerConfig(template_size=64, search_size=128)
    model = build_model(np.random.default_rng(0), config)
    return frames, boxes, config, model


class TestTrackerBasics:
    def test_init_echoes_box_and_is_deterministic(self, toy_world):
        frames, boxes, config, model = toy_world
        a = Tracker(model, config)
        state_a = a.init(frames[0], boxes[0])
        assert state_a.box == boxes[0]
        b = Tracker(model, config)
        state_b = b.init(frames[0], boxes[0])
        assert np.array_equal(state_a.template_memory.data,
                              state_b.template_memory.data)

    def test_track_before_init_raises(self, toy_world):
        frames, _, config, model = toy_world
        with pytest.raises(TrackingError):
            Tracker(model, config).track(frames[0])

    def test_identical_state_and_frame_identical_prediction(self, toy_world):
        # the offline path is a pure function of (state, frame): two trackers
        # in the same state fed the same frame must emit the same box
        frames, boxes, config, model = toy_world
        a, b = Tracker(model, config), Tracker(model, config)
        a.init(frames[0], boxes[0])
        b.init(frames[0], boxes[0])
        for frame in frames[1:4]:
            box_a, _ = a.track(frame)
            box_b, _ = b.track(frame)
            assert (box_a.cx, box_a.cy, box_a.w, box_a.h) \
                == (box_b.cx, box_b.cy, box_b.w, box_b.h)

    def test_full_window_suppression_pins_center(self, toy_world, monkeypatch):
        frames, boxes, config, model = toy_world
        monkeypatch.setattr(tracker_mod, "WINDOW_INFLUENCE", 1.0)
        pinned = dataclasses.replace(config, size_smoothing=0.0)
        tracker = Tracker(model, pinned)
        tracker.init(frames[0], boxes[0])
        box, diag = tracker.track(frames[3])
        # peak forced to the window's central plateau (ties break low);
        # the decoded center stays within one cell of the previous center
        grid = diag.crop.patch.shape[1] // STRIDE
        peak = np.unravel_index(np.argmax(diag.windowed_map),
                                diag.windowed_map.shape)
        assert peak == ((grid - 1) // 2, (grid - 1) // 2)
        assert abs(box.cx - boxes[0].cx) <= 8 * diag.crop.scale
        assert abs(box.cy - boxes[0].cy) <= 8 * diag.crop.scale

    def test_lost_frame_keeps_previous_box(self, toy_world):
        frames, boxes, config, model = toy_world
        tracker = Tracker(model, config)
        tracker.init(frames[0], boxes[0])
        box_before, _ = tracker.track(frames[1])
        kernel = model.heads.score.conv[-1].kernel
        saved = kernel.data.copy()
        kernel.data = np.full_like(saved, np.nan)
        try:
            box, diag = tracker.track(frames[2])
        finally:
            kernel.data = saved
        assert diag.lost
        assert box == box_before

    def test_nan_pixel_frame_is_lost_and_keeps_previous_box(self, toy_world):
        frames, boxes, config, model = toy_world
        tracker = Tracker(model, config)
        tracker.init(frames[0], boxes[0])
        box_before, _ = tracker.track(frames[1])
        pixels = frames[2].pixels.copy()
        pixels[:, round(box_before.cy), round(box_before.cx)] = np.nan
        box, diag = tracker.track(Frame(pixels, frames[2].index))
        assert diag.lost
        assert box == box_before

    def test_loaded_sequence_tracks_as_its_float_twin(self, toy_world, tmp_path):
        # 8-bit loaded frames against the float64 values they stand for,
        # held in the file's layout as loaded frames were before
        frames, boxes, config, model = toy_world
        save_sequence(tmp_path, frames, boxes)
        loaded, _ = load_sequence(tmp_path)
        twins = [Frame((f.pixels.transpose(1, 2, 0) / f.maxval).transpose(2, 0, 1),
                       f.index) for f in loaded]
        config = dataclasses.replace(config, online=True)
        assert loaded[0].pixels.dtype == np.uint8
        assert (track_sequence(model, config, loaded, boxes[0])
                == track_sequence(model, config, twins, boxes[0]))

    def test_diagnostics_carry_all_maps(self, toy_world):
        frames, boxes, config, model = toy_world
        tracker = Tracker(model, dataclasses.replace(config, online=True))
        tracker.init(frames[0], boxes[0])
        _, diag = tracker.track(frames[1])
        grid = diag.crop.patch.shape[1] // STRIDE
        assert diag.score_map.shape == (grid, grid)
        assert diag.windowed_map.shape == (grid, grid)
        assert diag.blended_map is not None and diag.online_map is not None
        assert 0.0 <= diag.peak_score <= 1.0


def test_two_cell_search_grid_tracks(toy_world):
    # a 16-pixel search is a 2x2 grid, whose cosine window used to be NaN
    frames, boxes, _, _ = toy_world
    config = TrackerConfig(template_size=8, search_size=16, d=8, n_heads=2,
                           c_mid=8)
    tracker = Tracker(build_model(np.random.default_rng(0), config), config)
    tracker.init(frames[0], boxes[0])
    assert np.array_equal(tracker.state.window.window, np.ones((2, 2)))
    for frame in frames[1:4]:
        box, diag = tracker.track(frame)
        assert not diag.lost
        assert all(math.isfinite(x) for x in (box.cx, box.cy, box.w, box.h))


class TestOnlineSchedule:
    def test_w1_is_the_mixing_and_frames_refit_only_w2(self, toy_world):
        frames, boxes, config, model = toy_world
        config = dataclasses.replace(config, online=True)
        tracker = Tracker(model, config)
        state = tracker.init(frames[0], boxes[0])
        # the mixing is the identity: the score filter reads the tap itself
        w1 = np.eye(config.c_mid)[:, :, None, None]
        assert state.online_filter.w1.shape == (config.c_mid, config.c_mid, 1, 1)
        assert np.array_equal(state.online_filter.w1, w1)
        assert np.any(state.online_filter.w2 != 0.0)
        for frame in frames[1:]:
            w2 = state.online_filter.w2.copy()
            tracker.track(frame)
            assert np.array_equal(state.online_filter.w1, w1)
            assert not np.array_equal(state.online_filter.w2, w2)

    def test_init_solves_for_w2_alone_on_the_projected_memory(self, toy_world,
                                                               monkeypatch):
        frames, boxes, config, model = toy_world
        config = dataclasses.replace(config, online=True)
        calls = []

        def recording_solve(filt, memory, **kwargs):
            calls.append((memory.projected, kwargs))
            return solve_cg(filt, memory, **kwargs)

        monkeypatch.setattr(tracker_mod, "solve_cg", recording_solve)
        Tracker(model, config).init(frames[0], boxes[0])
        assert calls == [(True, {"n_iters": online_mod.INIT_CG_ITERS,
                                 "gn_steps": config.online_init_gn_steps,
                                 "train_w1": False})]

    def test_c_mid_past_half_the_hidden_width_tracks(self):
        # a tap wider than the 32 channels of the default: the filter and
        # the memory take all 48
        frames, boxes = generate_synthetic_sequence(0, 5, SequenceSpec())
        config = TrackerConfig(template_size=48, search_size=96, d=8, n_heads=2,
                               c_mid=48, online=True)
        tracker = Tracker(build_model(np.random.default_rng(0), config), config)
        state = tracker.init(frames[0], boxes[0])
        assert state.online_filter.w1.shape == (48, 48, 1, 1)
        assert state.online_filter.w2.shape == (1, 48, online_mod.KERNEL,
                                                online_mod.KERNEL)
        assert state.online_memory.features.shape[0] == 48
        for frame in frames[1:]:
            _, diag = tracker.track(frame)
            assert not diag.lost and np.all(np.isfinite(diag.online_map))
        assert np.all(np.isfinite(state.online_filter.w2))


class FeatureMemoryTracker(Tracker):
    """The online rule over a memory of backbone features, kept as an
    oracle: the init's w2 solve and every frame's run relu(w1 F) and the
    residuals over the whole memory again, through
    ``solve_cg(..., train_w1=False)``."""

    def _init_online(self, frame, box):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(tracker_mod, "project_memory", lambda filt, memory: memory)
            super()._init_online(frame, box)

    def _online_step(self, mid, online_score, center_patch, size_patch):
        label = self._online_label(center_patch, size_patch, mid.shape[-1])
        update_memory(self.state.online_memory, mid, label, online_mod.MEMORY_LR)
        self._fit_w2(online_mod.FRAME_CG_ITERS, 1)

    def _fit_w2(self, n_iters, gn_steps):
        # a feature memory carries no residuals
        state = self.state
        result = tracker_mod.solve_cg(state.online_filter, state.online_memory,
                                      n_iters=n_iters, gn_steps=gn_steps,
                                      train_w1=False)
        if not result.degraded:
            state.online_filter = result.filter


class TestProjectedMemory:
    """The tracker's projected memory against the feature-memory oracle:
    the same boxes, filters, weights, hidden activations and residuals,
    bit for bit, after every frame."""

    DRIFT = SequenceSpec(velocity=(0.6, -0.4), brightness_drift=0.5,
                         drift_start=0.3)

    def run_both(self, monkeypatch, config, n_frames, nan_call=None):
        frames, boxes = generate_synthetic_sequence(3, n_frames, self.DRIFT)
        model = build_model(np.random.default_rng(0), config)
        degraded = []

        def recording_solve(*args, **kwargs):
            result = solve_cg(*args, **kwargs)
            degraded.append(result.degraded)
            return result

        def features_with_nan(calls):
            # extract_features with a NaN in the online tap on call nan_call
            def wrapper(crops, model, config):
                feats = extract_features(crops, model, config)
                calls.append(None)
                if len(calls) == nan_call:
                    feats.mid[0, 1, 2, 3] = np.nan
                return feats
            return wrapper

        monkeypatch.setattr(tracker_mod, "solve_cg", recording_solve)
        fast, slow = Tracker(model, config), FeatureMemoryTracker(model, config)
        for tracker in (fast, slow):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(tracker_mod, "extract_features", features_with_nan([]))
                tracker.init(frames[0], boxes[0])
        assert fast.state.online_memory.projected
        assert not slow.state.online_memory.projected
        self.assert_same(fast.state, slow.state)

        flags = []
        for frame in frames[1:]:
            del degraded[:]
            box_fast, _ = fast.track(frame)
            box_slow, _ = slow.track(frame)
            assert box_fast == box_slow
            assert len(degraded) == 2 and degraded[0] == degraded[1]
            flags.append(degraded[0])
            self.assert_same(fast.state, slow.state)
        return fast.state.online_memory, flags

    @staticmethod
    def assert_same(fast, slow):
        f, s = fast.online_filter, slow.online_filter
        assert np.array_equal(f.w1, s.w1) and np.array_equal(f.w2, s.w2)
        projected, features = fast.online_memory, slow.online_memory
        assert np.array_equal(projected.weights, features.weights)
        assert np.array_equal(projected.labels, features.labels)
        oracle = _Linearization(s, features, train_w1=False)
        assert np.array_equal(projected.features.reshape(oracle.act.shape),
                              oracle.act, equal_nan=True)
        assert np.array_equal(projected.residuals, oracle.residual, equal_nan=True)

    def test_benchmark_geometry_at_capacity_8(self, monkeypatch):
        config = TrackerConfig(template_size=64, search_size=128, online=True,
                               memory_capacity=8)
        memory, flags = self.run_both(monkeypatch, config, 26)
        assert len(memory) == 8 and not any(flags)

    def test_samples_evicted_at_capacity_50(self, monkeypatch):
        config = TrackerConfig(template_size=48, search_size=96, d=8, n_heads=2,
                               c_mid=8, online=True, memory_capacity=50)
        memory, flags = self.run_both(monkeypatch, config, 71)
        assert len(memory) == 50 and not any(flags)

    def test_nan_sample_degrades_the_same_frames(self, monkeypatch):
        # call 1 encodes the template; call 4 is the third init sample,
        # which the memory evicts a few frames after it fills
        config = TrackerConfig(template_size=48, search_size=96, d=8, n_heads=2,
                               c_mid=8, online=True, memory_capacity=8)
        memory, flags = self.run_both(monkeypatch, config, 16, nan_call=4)
        assert flags[0] and not flags[-1]
        assert np.all(np.isfinite(memory.residuals))


class HiddenLayerTracker(Tracker):
    """The frame rule with the hidden layer run, kept as an oracle: the
    online map and the stored sample each run relu(w1 F) over the online
    tap under the tracker's w1 = I."""

    def track(self, frame, trace=None):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(tracker_mod, "online_forward",
                      lambda filt, mid: online_forward(filt, project(filt, mid)))
            return super().track(frame, trace)

    def _online_step(self, mid, online_score, center_patch, size_patch):
        super()._online_step(project(self.state.online_filter, mid),
                             online_score, center_patch, size_patch)


class TestLinearFilter:
    """A tracked frame runs no hidden layer: the online tap is the online
    map's input and the stored sample, as relu(I F) would give."""

    def test_no_hidden_layer_per_frame_and_boxes_of_the_hidden_layer_rule(
            self, monkeypatch):
        # criterion 6's drift sequence
        drift = dataclasses.replace(SequenceSpec(), brightness_drift=0.35)
        frames, boxes = generate_synthetic_sequence(0, 20, drift)
        config = TrackerConfig(template_size=64, search_size=128, online=True)
        model = build_model(np.random.default_rng(0), config)
        calls, relu = [], online_mod._relu

        def counting_relu(w1, features):
            calls.append(None)
            return relu(w1, features)

        monkeypatch.setattr(online_mod, "_relu", counting_relu)
        fast, slow = Tracker(model, config), HiddenLayerTracker(model, config)
        for tracker in (fast, slow):
            del calls[:]
            tracker.init(frames[0], boxes[0])
            # init's project_memory alone
            assert len(calls) == 1
        for frame in frames[1:]:
            del calls[:]
            box_fast, _ = fast.track(frame)
            assert not calls
            box_slow, _ = slow.track(frame)
            assert len(calls) == 2
            assert box_fast == box_slow
            f, s = fast.state.online_filter, slow.state.online_filter
            assert np.array_equal(f.w2, s.w2)
            f, s = fast.state.online_memory, slow.state.online_memory
            assert np.array_equal(f.features, s.features)
            assert np.array_equal(f.residuals, s.residuals)


class TestInitReadsTheFrameOnce:
    """``Tracker.init`` reads its frame once for the template crop and the
    online branch's five search crops."""

    def test_one_read_per_online_init(self, toy_world, tmp_path, monkeypatch):
        frames, boxes, config, model = toy_world
        save_sequence(tmp_path, frames[:1], boxes[:1])
        loaded, _ = load_sequence(tmp_path)
        reads, planar_values = [], crop_mod._planar_values

        def counting(frame):
            if frame.pixels.dtype == np.uint8:
                reads.append(frame.index)
            return planar_values(frame)

        monkeypatch.setattr(crop_mod, "_planar_values", counting)
        tracker = Tracker(model, dataclasses.replace(config, online=True))
        tracker.init(loaded[0], boxes[0])
        assert reads == [0]
        assert len(tracker.state.online_memory) == 5

    def test_online_boxes_of_per_crop_reads(self, toy_world, tmp_path, monkeypatch):
        frames, boxes, config, model = toy_world
        save_sequence(tmp_path, frames, boxes)
        loaded, _ = load_sequence(tmp_path)
        assert loaded[0].pixels.dtype == np.uint8
        config = dataclasses.replace(config, online=True)
        fast = Tracker(model, config)
        fast.init(loaded[0], boxes[0])
        fast_boxes = track_sequence(model, config, loaded, boxes[0])
        # the oracle crops the 8-bit frame itself, reading it once per crop
        monkeypatch.setattr(tracker_mod, "planar_frame", lambda frame: frame)
        slow = Tracker(model, config)
        slow.init(loaded[0], boxes[0])
        assert np.array_equal(fast.state.online_filter.w2,
                              slow.state.online_filter.w2)
        assert np.array_equal(fast.state.online_memory.features,
                              slow.state.online_memory.features)
        assert fast_boxes == track_sequence(model, config, loaded, boxes[0])


class TestInputBoundary:
    @pytest.mark.parametrize("box", [BoundingBox(float("nan"), 40.0, 20.0, 16.0),
                                     BoundingBox(40.0, float("nan"), 20.0, 16.0),
                                     BoundingBox(40.0, 40.0, float("inf"), 16.0),
                                     BoundingBox(40.0, 40.0, 20.0, float("nan"))])
    def test_non_finite_init_box_rejected(self, toy_world, box):
        # a NaN centre used to be accepted, and every later frame came back
        # lost with cx = nan
        frames, _, config, model = toy_world
        with pytest.raises(TrackingError, match="non-finite"):
            Tracker(model, config).init(frames[0], box)

    def test_two_dimensional_frame_rejected_at_init(self, toy_world):
        frames, boxes, config, model = toy_world
        grey = frames[0].pixels[0]
        with pytest.raises(ShapeError, match=r"\(3, H, W\)"):
            Tracker(model, config).init(Frame(grey, 0), boxes[0])

    def test_two_dimensional_frame_rejected_at_track(self, toy_world):
        frames, boxes, config, model = toy_world
        tracker = Tracker(model, config)
        tracker.init(frames[0], boxes[0])
        with pytest.raises(ShapeError, match=r"\(3, H, W\)"):
            tracker.track(Frame(frames[1].pixels[0], 1))


class TestOnlineConfig:
    @pytest.mark.parametrize("field,value", [
        ("memory_capacity", 0),
        ("online_init_gn_steps", -1),
        ("template_size", 0),                # ZeroDivisionError in the crop
        ("template_size", -8),               # negative dimensions in the crop
        ("search_size", 0),
        ("d", 0),                            # ZeroDivisionError at build
        ("d", -4),
        ("n_heads", 0),                      # ZeroDivisionError in the check
        ("n_heads", -2),
        ("c_mid", 0),                        # ZeroDivisionError at build
        ("n_encoder_layers", 0),
        ("size_smoothing", float("nan")),
        ("size_smoothing", 1.5),
        ("size_smoothing", -0.1),
    ])
    def test_bad_online_setting_names_the_field(self, field, value):
        settings = {"template_size": 64, "search_size": 128, "online": True}
        with pytest.raises(ConfigurationError, match=field):
            TrackerConfig(**{**settings, field: value})

    def test_limits_are_accepted(self):
        TrackerConfig(online=True, memory_capacity=1, online_init_gn_steps=0)

    def test_checkpoint_with_bad_online_setting_rejected(self, tmp_path):
        config = TrackerConfig(template_size=48, search_size=96, d=8,
                               n_heads=2, c_mid=8)
        path = tmp_path / "model.trtr"
        save_model(path, build_model(np.random.default_rng(0), config), config)
        entries = load_checkpoint(path)
        entries["config.memory_capacity"] = np.array(0.0)
        save_checkpoint([(name, Tensor(v)) for name, v in entries.items()], path)
        with pytest.raises(ConfigurationError, match="memory_capacity"):
            load_model(path)


class TestPluginProperty:
    def test_offline_mode_never_touches_online_code(self, toy_world, monkeypatch):
        frames, boxes, config, model = toy_world

        def boom(*args, **kwargs):
            raise AssertionError("online path invoked in offline mode")

        for name in ("online_forward", "solve_cg", "update_memory", "blend",
                     "project_memory"):
            monkeypatch.setattr(tracker_mod, name, boom)
        tracker = Tracker(model, config)
        state = tracker.init(frames[0], boxes[0])
        assert state.online_filter is None and state.online_memory is None
        pred = [boxes[0]] + [tracker.track(f)[0] for f in frames[1:]]
        assert len(pred) == len(frames)

    def test_offline_runs_are_bit_identical(self, toy_world):
        frames, boxes, config, model = toy_world
        a = track_sequence(model, config, frames, boxes[0])
        b = track_sequence(model, config, frames, boxes[0])
        for x, y in zip(a, b):
            assert (x.cx, x.cy, x.w, x.h) == (y.cx, y.cy, y.w, y.h)

    def test_online_branch_changes_only_the_blend(self, toy_world, monkeypatch):
        frames, boxes, config, model = toy_world
        monkeypatch.setattr(tracker_mod, "BLEND_WEIGHT", 1.0)
        online_cfg = dataclasses.replace(config, online=True)
        # blend weight 1.0 means the online map cannot influence decoding
        off = track_sequence(model, config, frames, boxes[0])
        on = track_sequence(model, online_cfg, frames, boxes[0])
        for x, y in zip(off, on):
            assert abs(x.cx - y.cx) < 1e-9 and abs(x.w - y.w) < 1e-9


class TestPaddedGrid:
    def test_non_multiple_search_size_is_padded_up(self, toy_world):
        frames, boxes, _, _ = toy_world
        config = TrackerConfig(template_size=127, search_size=255, d=8,
                               n_heads=2, c_mid=8)
        model = build_model(np.random.default_rng(1), config)
        crop = crop_search(frames[0], boxes[0], 255, 127)
        feats = extract_features([crop], model, config)
        assert crop.patch.shape == (3, 256, 256)
        assert feats.tokens.shape == (1, 32, 32, 8)    # grid comes out as 32
        assert crop.pad_mask[:, -1].all()              # 1px mean strip added
        # a single padded pixel column does not mask whole 8px grid cells
        assert not feats.mask[0, :, -1].any()

    def test_pe_mask_off_gives_empty_mask(self, toy_world):
        frames, _, config, model = toy_world
        corner = BoundingBox(6.0, 6.0, 20.0, 16.0)     # crop reaches off-image
        crop = crop_search(frames[0], corner, config.search_size,
                           config.template_size)
        on = extract_features([crop], model, config)
        off = extract_features([crop], model,
                               dataclasses.replace(config, pe_mask=False))
        assert on.mask.any() and not off.mask.any()
        assert np.array_equal(on.tokens.data, off.tokens.data)

    def test_stride_is_the_backbones(self):
        assert math.prod(BackboneWeights.strides) == STRIDE

    @pytest.mark.parametrize("template_size,search_size", [(127, 255), (64, 128)])
    def test_token_grid_is_the_padded_side_over_the_stride(
            self, toy_world, template_size, search_size):
        frames, boxes, _, _ = toy_world
        config = TrackerConfig(template_size=template_size,
                               search_size=search_size, d=8, n_heads=2, c_mid=8)
        model = build_model(np.random.default_rng(1), config)
        crops = [crop_template(frames[0], boxes[0], template_size),
                 crop_search(frames[0], boxes[0], search_size, template_size)]
        for crop, size in zip(crops, (template_size, search_size)):
            with T.no_grad():
                feats = extract_features([crop], model, config)
            side = crop.patch.shape[1]
            assert side == math.ceil(size / STRIDE) * STRIDE
            assert feats.tokens.shape[1:3] == (side // STRIDE, side // STRIDE)
            assert feats.mid.shape[2:] == (side // STRIDE, side // STRIDE)
        # the cosine window is laid over the search grid
        state = Tracker(model, config).init(frames[0], boxes[0])
        assert state.window.window.shape == (side // STRIDE, side // STRIDE)

    def test_tracker_runs_at_255(self, toy_world):
        frames, boxes, _, _ = toy_world
        config = TrackerConfig(template_size=127, search_size=255, d=8,
                               n_heads=2, c_mid=8)
        model = build_model(np.random.default_rng(1), config)
        pred = track_sequence(model, config, frames[:3], boxes[0])
        assert len(pred) == 3


# sha256 of ``save_model`` for ``build_model(default_rng(0), config)``. The
# parameter entries are byte-equal to those recorded before parameter names
# came from the weight dataclasses; the config entries have since lost
# online_update_interval and online_score_threshold, then the seven online
# settings that became constants of attntrack.online, then window_influence,
# blend_weight and ffn_hidden, which became constants of pipeline.tracker.
# Each digest is that of the file before, with those three entries deleted
# and rewritten through save_checkpoint. The online_init_gn_steps entry
# stores the default 1 (it was 10)
PINNED_CHECKPOINTS = [
    (TrackerConfig(),
     "f1c5f20dc84dbd73081adcab05c02bc1f24215561752db635ead96f7fe9bec98"),
    (TrackerConfig(template_size=48, search_size=96, d=8, n_heads=2, c_mid=8,
                   n_encoder_layers=2, n_decoder_layers=3),
     "37fe910fdc49e49b41ae10cdb3389bd37b3bacc5fa0c5cd277c07dda42eac11e"),
]

# The same configs with online_init_gn_steps = 10, the default before it
# became 1: the stored setting is the only entry that differs
PINNED_BEFORE_INIT_DEFAULT = [
    (dataclasses.replace(PINNED_CHECKPOINTS[0][0], online_init_gn_steps=10),
     "374be0fd98d95ae29ad9276f3bc8f2d4aac0239ac326e5020115ac8066a11a1e"),
    (dataclasses.replace(PINNED_CHECKPOINTS[1][0], online_init_gn_steps=10),
     "bcbd3ff6672a5d15642721147cbeb497985816433946ff5208ae1750629042a8"),
]


def _trainable(obj, seen=None):
    """Every ``requires_grad`` tensor reachable through attributes, lists,
    tuples and dicts, found without ``dataclasses.fields``."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, Tensor):
        return [obj] if obj.requires_grad else []
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    else:
        children = list(getattr(obj, "__dict__", {}).values())
    return [t for child in children for t in _trainable(child, seen)]


class TestCheckpointFormat:
    @pytest.mark.parametrize("config, digest",
                             PINNED_BEFORE_INIT_DEFAULT + PINNED_CHECKPOINTS)
    def test_save_model_bytes_are_pinned(self, config, digest, tmp_path):
        path = tmp_path / "model.trtr"
        save_model(path, build_model(np.random.default_rng(0), config), config)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("config", [c for c, _ in PINNED_CHECKPOINTS])
    def test_walk_names_every_trainable_tensor_once(self, config):
        model = build_model(np.random.default_rng(0), config)
        named = list(named_parameters(model))
        names = [name for name, _ in named]
        assert len(set(names)) == len(names)
        assert sorted(id(p) for _, p in named) == \
            sorted(id(t) for t in _trainable(model))
        assert {"backbone.stage0.kernel", "backbone.reduce.bias",
                "transformer.decoder0.cross_attn.wq",
                "heads.score.conv2.bias"} <= set(names)


class TestCheckpointRoundtrip:
    def test_save_load_preserves_params_and_config(self, toy_world, tmp_path):
        frames, boxes, config, model = toy_world
        custom = dataclasses.replace(config, online=True, size_smoothing=0.55,
                                     n_decoder_layers=2)
        custom_model = build_model(np.random.default_rng(3), custom)
        path = tmp_path / "model.trtr"
        save_model(path, custom_model, custom)
        loaded_model, loaded_config = load_model(path)
        assert loaded_config == custom
        for (na, pa), (nb, pb) in zip(named_parameters(custom_model),
                                      named_parameters(loaded_model)):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_every_int_and_bool_field_round_trips(self, tmp_path):
        custom = TrackerConfig(
            template_size=48, search_size=96, d=8, n_heads=2,
            n_encoder_layers=2, n_decoder_layers=3, c_mid=8, memory_capacity=7,
            online_init_gn_steps=3, online=True, pe_mask=False)
        exact = [f for f in dataclasses.fields(TrackerConfig)
                 if type(f.default) in (int, bool)]
        for f in exact:
            assert getattr(custom, f.name) != f.default, f.name
        path = tmp_path / "model.trtr"
        save_model(path, build_model(np.random.default_rng(3), custom), custom)
        _, loaded = load_model(path)
        assert loaded == custom
        for f in exact:
            assert type(getattr(loaded, f.name)) is type(f.default), f.name

    def test_checkpoint_with_retired_stride_field_rejected(self, toy_world, tmp_path):
        # written while the output stride was configurable, at its one value
        _, _, config, model = toy_world
        path = tmp_path / "model.trtr"
        save_model(path, model, config)
        entries = [("config.stride", Tensor(8.0))]
        entries += [(name, Tensor(v)) for name, v in load_checkpoint(path).items()]
        save_checkpoint(entries, path)
        with pytest.raises(ValueError, match=r"unknown entries: \['config\.stride'\]"):
            load_model(path)

    @staticmethod
    def _edited_checkpoint(model, config, path, edit):
        save_model(path, model, config)
        entries = load_checkpoint(path)
        edit(entries)
        save_checkpoint([(name, Tensor(v)) for name, v in entries.items()], path)

    @pytest.mark.parametrize("key,value", [("config.stride", 4.0),
                                           ("config.online_update_interval", 2.0)])
    def test_retired_key_at_another_value_rejected(self, toy_world, tmp_path,
                                                   key, value):
        _, _, config, model = toy_world
        path = tmp_path / "model.trtr"
        self._edited_checkpoint(model, config, path, lambda e: e.update(
            {key: np.array(value)}))
        with pytest.raises(ValueError, match=key):
            load_model(path)

    def test_retired_online_schedule_rejected(self, toy_world, tmp_path):
        # a file written while the online branch had an update interval and
        # a score threshold carries both at their defaults, 1 and 0.7
        _, _, config, model = toy_world
        online = dataclasses.replace(config, online=True)
        path = tmp_path / "model.trtr"
        self._edited_checkpoint(model, online, path, lambda e: e.update(
            {"config.online_update_interval": np.array(1.0),
             "config.online_score_threshold": np.array(0.7)}))
        with pytest.raises(ValueError, match=r"unknown entries: \["
                           r"'config\.online_score_threshold', "
                           r"'config\.online_update_interval'\]"):
            load_model(path)

    def test_fixed_online_settings_rejected(self, toy_world, tmp_path):
        # a file written while the online filter's shape and ridge, the
        # memory's rate and the CG schedule were settings carries all seven
        # at their defaults
        _, _, config, model = toy_world
        online = dataclasses.replace(config, online=True)
        retired = {"online_hidden": 64, "online_kernel": 4, "online_reg": 1e-2,
                   "memory_lr": 0.1, "online_init_cg_iters": 10,
                   "online_update_gn_steps": 1, "online_update_cg_iters": 5}
        path = tmp_path / "model.trtr"
        self._edited_checkpoint(model, online, path, lambda e: e.update(
            {f"config.{k}": np.array(float(v)) for k, v in retired.items()}))
        names = ", ".join(repr(f"config.{k}") for k in sorted(retired))
        with pytest.raises(ValueError, match=re.escape(f"unknown entries: [{names}]")):
            load_model(path)

    def test_retired_fixed_settings_rejected(self, toy_world, tmp_path):
        # a file written while the window influence, the blend weight and
        # the FFN width were settings carries all three at their defaults,
        # the width as its 0 -> 8 * d sentinel
        _, _, config, model = toy_world
        retired = {"window_influence": 0.4, "blend_weight": 0.6,
                   "ffn_hidden": 0}
        path = tmp_path / "model.trtr"
        self._edited_checkpoint(model, config, path, lambda e: e.update(
            {f"config.{k}": np.array(float(v)) for k, v in retired.items()}))
        names = ", ".join(repr(f"config.{k}") for k in sorted(retired))
        with pytest.raises(ValueError, match=re.escape(f"unknown entries: [{names}]")):
            load_model(path)

    def test_ffn_of_another_width_rejected(self, toy_world, tmp_path,
                                           monkeypatch):
        # a model whose FFN is 2 * d wide, not FFN_EXPANSION * d
        _, _, config, _ = toy_world
        monkeypatch.setattr(tracker_mod, "FFN_EXPANSION", 2)
        narrow = build_model(np.random.default_rng(0), config)
        monkeypatch.undo()
        path = tmp_path / "model.trtr"
        save_model(path, narrow, config)
        with pytest.raises(ValueError, match=re.escape(
                "shape mismatch for 'transformer.encoder0.ffn.w1'")):
            load_model(path)

    @pytest.mark.parametrize("key,value", [("config.template_size", 47.6),
                                           ("config.online", 7.0)])
    def test_int_or_flag_setting_of_another_value_rejected(self, toy_world,
                                                           tmp_path, key, value):
        # both used to be rounded: to 48, and to True
        _, _, config, model = toy_world
        path = tmp_path / "model.trtr"
        self._edited_checkpoint(model, config, path, lambda e: e.update(
            {key: np.array(value)}))
        with pytest.raises(ValueError, match=re.escape(f"{key!r} is {value}")):
            load_model(path)

    @pytest.mark.parametrize("value", [[8.0, 8.0], [8.0]])
    def test_non_scalar_setting_rejected(self, toy_world, tmp_path, value):
        # float() of the array used to raise a bare TypeError
        _, _, config, model = toy_world
        path = tmp_path / "model.trtr"
        self._edited_checkpoint(model, config, path, lambda e: e.update(
            {"config.d": np.array(value)}))
        with pytest.raises(ValueError, match=re.escape(
                f"'config.d' has shape ({len(value)},), not a scalar")):
            load_model(path)

    @pytest.mark.parametrize("key,value", [("config.d", 2.0 ** 40),
                                           ("config.c_mid", 2.0 ** 40),
                                           ("config.n_encoder_layers", 3.0),
                                           ("config.n_decoder_layers", 3.0)])
    def test_setting_at_odds_with_the_weights_rejected_before_building(
            self, toy_world, tmp_path, monkeypatch, key, value):
        _, _, config, model = toy_world
        path = tmp_path / "model.trtr"
        self._edited_checkpoint(model, config, path, lambda e: e.update(
            {key: np.array(value)}))

        def no_build(*args):
            raise AssertionError("a model was built")

        monkeypatch.setattr(tracker_mod, "build_model", no_build)
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            load_model(path)

    def test_unknown_config_key_rejected(self, toy_world, tmp_path):
        _, _, config, model = toy_world
        path = tmp_path / "model.trtr"
        self._edited_checkpoint(model, config, path, lambda e: e.update(
            {"config.search_sizes": np.array(255.0)}))
        with pytest.raises(ValueError, match="config.search_sizes"):
            load_model(path)

    @pytest.mark.parametrize("name", ["transformer.encoder0.attn.bogus",
                                      "transformer.encoder0.attn.head4.wq"])
    def test_unknown_parameter_rejected(self, toy_world, tmp_path, name):
        # head4 does not exist in a 4-head model
        _, _, config, model = toy_world
        path = tmp_path / "model.trtr"
        self._edited_checkpoint(model, config, path, lambda e: e.update(
            {name: np.zeros((config.d, config.d // config.n_heads))}))
        with pytest.raises(ValueError, match=name):
            load_model(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, toy_world, tmp_path, bad):
        _, _, config, model = toy_world
        path = tmp_path / "model.trtr"
        name = "transformer.decoder0.ffn.w2"

        def poison(entries):
            entries[name] = entries[name].copy()
            entries[name][1, 2] = bad

        self._edited_checkpoint(model, config, path, poison)
        with pytest.raises(ValueError, match=name):
            load_model(path)

    def test_per_head_checkpoint_rejected(self, toy_world, tmp_path):
        # the layout written before the heads were packed: wq/wk/wv stored
        # as one (d, d_head) block per head, named <prefix>.head{i}.wq etc.
        _, _, config, model = toy_world
        d_head = config.d // config.n_heads

        def split_heads(entries):
            packed = dict(entries)
            entries.clear()
            for name, value in packed.items():
                prefix, _, kind = name.rpartition(".")
                if kind in ("wk", "wv"):
                    continue
                if kind != "wq":
                    entries[name] = value
                    continue
                for i in range(config.n_heads):
                    cols = slice(i * d_head, (i + 1) * d_head)
                    for part in ("wq", "wk", "wv"):
                        entries[f"{prefix}.head{i}.{part}"] = \
                            packed[f"{prefix}.{part}"][:, cols]

        path = tmp_path / "model.trtr"
        self._edited_checkpoint(model, config, path, split_heads)
        names = set(load_checkpoint(path))
        assert "transformer.decoder0.self_attn.head3.wv" in names
        assert "transformer.decoder0.self_attn.wv" not in names
        with pytest.raises(ValueError, match=r"missing parameter "
                           r"'transformer\.encoder0\.attn\.wq'"):
            load_model(path)

    def test_loaded_model_tracks_identically(self, toy_world, tmp_path):
        frames, boxes, config, model = toy_world
        path = tmp_path / "model.trtr"
        save_model(path, model, config)
        loaded_model, loaded_config = load_model(path)
        a = track_sequence(model, config, frames[:4], boxes[0])
        b = track_sequence(loaded_model, loaded_config, frames[:4], boxes[0])
        for x, y in zip(a, b):
            assert (x.cx, x.cy, x.w, x.h) == (y.cx, y.cy, y.w, y.h)


class TestTrainToy:
    def test_loss_decreases_and_is_deterministic(self, toy_world):
        frames, boxes, config, _ = toy_world
        histories = []
        for _ in range(2):
            model = build_model(np.random.default_rng(0), config)
            histories.append(train_toy(model, config, frames, boxes,
                                       TrainSettings(steps=12, lr=1e-3)))
        assert histories[0] == histories[1]            # bit-identical curves
        assert histories[0][-1] < histories[0][0]

    def test_too_short_sequence_rejected(self, toy_world):
        frames, boxes, config, _ = toy_world
        model = build_model(np.random.default_rng(0), config)
        with pytest.raises(ValueError):
            train_toy(model, config, frames[:1], boxes[:1])

    @pytest.mark.parametrize("kept", [0, 1, 7])
    def test_fewer_boxes_than_frames_rejected(self, toy_world, kept):
        frames, boxes, config, _ = toy_world
        model = build_model(np.random.default_rng(0), config)
        with pytest.raises(ValueError,
                           match=f"ground truth has {kept} boxes for 8 frames"):
            train_toy(model, config, frames, boxes[:kept],
                      TrainSettings(steps=1))

    @pytest.mark.parametrize("field", ["steps", "batch_size"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_settings_need_a_step_and_a_sample(self, field, value):
        with pytest.raises(ConfigurationError,
                           match=f"{field} must be at least 1, got {value}"):
            TrainSettings(**{field: value})

    @pytest.mark.parametrize("lr", [-0.01, 0.0, float("nan"), float("inf"),
                                    -float("inf")])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        # a negative rate ascends the loss, zero trains nothing, and NaN or
        # inf used to fail only once the first step's loss went non-finite
        with pytest.raises(ConfigurationError, match=re.escape(
                f"lr must be finite and positive, got {lr}")):
            TrainSettings(lr=lr)

    def test_one_step_tape_peak(self, toy_world):
        # a 64/128 step at batch 2 peaked at 23.5 MB while attention kept
        # its maps for backward and each relu a copy of its input; with the
        # maps recomputed and the relus fused it peaks at about 16 MB
        frames, boxes, config, _ = toy_world
        model = build_model(np.random.default_rng(0), config)
        template = crop_template(frames[0], boxes[0], config.template_size)
        optimizer = Adam(T.parameters(model), lr=1e-3)
        rng = np.random.default_rng(0)
        settings = TrainSettings(batch_size=2)
        train_mod.train_step(model, config, template, frames, boxes,
                             optimizer, rng, settings, 0)
        tracemalloc.start()
        try:
            train_mod.train_step(model, config, template, frames, boxes,
                                 optimizer, rng, settings, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18e6

    def test_one_step_tape_alive_at_a_time(self, toy_world, monkeypatch):
        # with the cyclic collector off, only reference counts free a step's
        # graph: its score map must be gone before the next step encodes
        frames, boxes, _, _ = toy_world
        config = TrackerConfig(template_size=48, search_size=96, d=8,
                               n_heads=2, c_mid=8)
        model = build_model(np.random.default_rng(3), config)
        scores = []
        starts = []
        forward, encode = train_mod.forward_pair, train_mod.encode_template

        def keep_score(*args):
            maps = forward(*args)
            scores.append(weakref.ref(maps.score.data))
            return maps

        def check_previous(*args):
            starts.append(len(scores))
            if scores:
                assert scores[-1]() is None, "the last step's tape is alive"
            return encode(*args)

        monkeypatch.setattr(train_mod, "forward_pair", keep_score)
        monkeypatch.setattr(train_mod, "encode_template", check_previous)
        enabled = gc.isenabled()
        gc.disable()
        try:
            history = train_toy(model, config, frames, boxes,
                                TrainSettings(steps=3, lr=1e-3))
        finally:
            if enabled:
                gc.enable()
        assert starts == [0, 1, 2] and len(scores) == 3
        assert all(type(value) is float for value in history)

    def test_log_lines_read_the_step_losses(self, toy_world):
        frames, boxes, _, _ = toy_world
        config = TrackerConfig(template_size=48, search_size=96, d=8,
                               n_heads=2, c_mid=8)
        lines = []
        history = train_toy(build_model(np.random.default_rng(3), config),
                            config, frames, boxes,
                            TrainSettings(steps=2, lr=1e-3), log=lines.append)
        assert len(lines) == 2
        for step, (line, value) in enumerate(zip(lines, history)):
            assert line.startswith(f"step {step:4d}  loss {value:.4f}  (score ")

    def test_adam_matches_the_out_of_place_rule(self, toy_world):
        # the in-place moments and once-per-step bias corrections are the
        # same operations in the same order as the rule spelled out here
        frames, boxes, _, _ = toy_world
        config = TrackerConfig(template_size=48, search_size=96, d=8,
                               n_heads=2, c_mid=8)
        model = build_model(np.random.default_rng(5), config)
        params = T.parameters(model)
        optimizer = Adam(params, lr=2e-3)
        data = [p.data.copy() for p in params]
        m = [np.zeros_like(p) for p in data]
        v = [np.zeros_like(p) for p in data]
        b1, b2, eps = train_mod.ADAM_BETA1, train_mod.ADAM_BETA2, train_mod.ADAM_EPS
        rng = np.random.default_rng(5)
        template = crop_template(frames[0], boxes[0], config.template_size)
        for t in range(1, 5):
            for p in params:
                p.zero_grad()
            pair = sample_training_pair(frames, boxes, config, rng)
            memory, template_pe = encode_template(model, config, template)
            maps = forward_pair(model, config, memory, template_pe,
                                [pair.search_crop])
            pair_loss(maps, [pair.target])[0].backward()
            if t == 2:      # a parameter without a gradient steps on zeros
                params[0].zero_grad()
            for i, p in enumerate(params):
                g = p.grad if p.grad is not None else np.zeros_like(p.data)
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                mhat = m[i] / (1 - b1 ** t)
                vhat = v[i] / (1 - b2 ** t)
                data[i] = data[i] - 2e-3 * mhat / (np.sqrt(vhat) + eps)
            optimizer.step()
            for p, expected in zip(params, data):
                assert np.array_equal(p.data, expected)
            for got, expected in zip(optimizer.m + optimizer.v, m + v):
                assert np.array_equal(got, expected)

    def test_two_hundred_steps_on_fixed_pair_drop_tenfold(self, toy_world):
        frames, boxes, _, _ = toy_world
        config = TrackerConfig(template_size=48, search_size=96, d=8,
                               n_heads=2, c_mid=8)
        model = build_model(np.random.default_rng(2), config)
        rng = np.random.default_rng(2)
        template = crop_template(frames[0], boxes[0], config.template_size)
        pair = sample_training_pair(frames, boxes, config, rng)
        params = T.parameters(model)
        optimizer = Adam(params, lr=2e-3)
        losses = []
        for _ in range(200):
            for p in params:
                p.zero_grad()
            memory, template_pe = encode_template(model, config, template)
            maps = forward_pair(model, config, memory, template_pe,
                                [pair.search_crop])
            total, *_ = pair_loss(maps, [pair.target])
            total.backward()
            optimizer.step()
            losses.append(total.item())
        assert losses[-1] <= losses[0] / 10.0

    def test_shared_template_gradient_equals_separate_encodings(self, toy_world):
        # train_toy encodes the template once per step for the whole batch
        frames, boxes, _, _ = toy_world
        config = TrackerConfig(template_size=48, search_size=96, d=8,
                               n_heads=2, c_mid=8)
        model = build_model(np.random.default_rng(4), config)
        template = crop_template(frames[0], boxes[0], config.template_size)
        rng = np.random.default_rng(4)
        pairs = [sample_training_pair(frames, boxes, config, rng)
                 for _ in range(2)]

        def pair_total(memory, template_pe, pair):
            maps = forward_pair(model, config, memory, template_pe,
                                [pair.search_crop])
            return pair_loss(maps, [pair.target])[0]

        params = T.parameters(model)
        separate = []
        for pair in pairs:
            for p in params:
                p.zero_grad()
            pair_total(*encode_template(model, config, template), pair).backward()
            separate.append([p.grad.copy() for p in params])
        expected_sum = [a + b for a, b in zip(*separate)]

        for p in params:
            p.zero_grad()
        memory, template_pe = encode_template(model, config, template)
        T.add(*[pair_total(memory, template_pe, pair) for pair in pairs]).backward()
        for (name, p), expected in zip(named_parameters(model), expected_sum):
            np.testing.assert_allclose(p.grad, expected, rtol=1e-10,
                                       err_msg=name)


# Each library parameter that receives a TrackerConfig or TrainSettings
# value, or one of the method's fixed constants. A default on one of them
# would be a second place that value is written, free to drift from the
# config's or the constant's.
CONFIG_PARAMETERS = [
    (init_backbone, ("c_mid", "d")),
    (init_transformer, ("n_encoder_layers", "n_decoder_layers", "ffn_hidden")),
    (make_cosine_window, ("influence",)),
    (blend, ("weight",)),
    (init_online_filter, ("hidden", "kernel", "reg")),
    (OnlineFilter, ("reg",)),
    (TrainingMemory, ("capacity",)),
    (update_memory, ("lr",)),
    (solve_cg, ("n_iters", "gn_steps")),
    (conjugate_gradient, ("n_iters",)),
    (Adam, ("lr",)),
]


@pytest.mark.parametrize("owner,names", CONFIG_PARAMETERS,
                         ids=[owner.__name__ for owner, _ in CONFIG_PARAMETERS])
def test_config_values_have_no_second_default(owner, names):
    params = inspect.signature(owner).parameters
    assert [n for n in names if params[n].default is not inspect.Parameter.empty] == []
