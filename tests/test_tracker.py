import dataclasses
import hashlib
import inspect
import math

import numpy as np
import pytest

from attntrack import tensor as T
from attntrack.errors import ConfigurationError, ShapeError, TrackingError
from attntrack.localize import STRIDE, BoundingBox
from attntrack.loss import joint_loss
from attntrack.online import (OnlineFilter, TrainingMemory, conjugate_gradient,
                              init_online_filter, solve_cg, update_memory)
from attntrack.pipeline import (Adam, BackboneWeights, Frame, SequenceSpec,
                                Tracker, TrackerConfig, TrainSettings, build_model,
                                crop_template, encode_template, forward_pair,
                                generate_synthetic_sequence, load_model,
                                load_sequence, pair_loss, sample_training_pair,
                                save_model, save_sequence,
                                init_backbone, track_sequence, train_toy)
from attntrack.pipeline import tracker as tracker_mod
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

    def test_full_window_suppression_pins_center(self, toy_world):
        frames, boxes, config, model = toy_world
        pinned = dataclasses.replace(config, window_influence=1.0,
                                     size_smoothing=0.0)
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


class TestOnlineSchedule:
    def test_init_fits_both_layers_and_frames_refit_only_w2(self, toy_world):
        frames, boxes, config, model = toy_world
        config = dataclasses.replace(config, online=True)
        tracker = Tracker(model, config)
        state = tracker.init(frames[0], boxes[0])
        untrained = init_online_filter(np.random.default_rng(0), config.c_mid,
                                       config.online_hidden, config.online_kernel,
                                       config.online_reg)
        assert not np.array_equal(state.online_filter.w1, untrained.w1)
        w1 = state.online_filter.w1.copy()
        for frame in frames[1:]:
            w2 = state.online_filter.w2.copy()
            tracker.track(frame)
            assert np.array_equal(state.online_filter.w1, w1)
            assert not np.array_equal(state.online_filter.w2, w2)


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
        ("memory_lr", 1.5),                  # tracked on negative weights
        ("memory_lr", 0.0),                  # ZeroDivisionError at init
        ("memory_lr", float("nan")),
        ("memory_capacity", 0),
        ("online_hidden", 0),                # raw reshape error at init
        ("online_kernel", 0),                # ZeroDivisionError at init
        ("online_init_cg_iters", 0),
        ("online_update_cg_iters", 0),
        ("online_init_gn_steps", -1),
        ("online_update_gn_steps", -1),
        ("online_reg", -1.0),                # indefinite normal matrix
    ])
    def test_bad_online_setting_names_the_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            TrackerConfig(template_size=64, search_size=128, online=True,
                          **{field: value})

    def test_limits_are_accepted(self):
        TrackerConfig(online=True, memory_lr=1.0, memory_capacity=1,
                      online_hidden=1, online_kernel=1, online_init_cg_iters=1, online_update_cg_iters=1,
                      online_init_gn_steps=0, online_update_gn_steps=0,
                      online_reg=0.0)

    def test_checkpoint_with_bad_online_setting_rejected(self, tmp_path):
        config = TrackerConfig(template_size=48, search_size=96, d=8,
                               n_heads=2, c_mid=8)
        path = tmp_path / "model.trtr"
        save_model(path, build_model(np.random.default_rng(0), config), config)
        entries = load_checkpoint(path)
        entries["config.online_kernel"] = np.array(0.0)
        save_checkpoint([(name, Tensor(v)) for name, v in entries.items()], path)
        with pytest.raises(ConfigurationError, match="online_kernel"):
            load_model(path)


class TestPluginProperty:
    def test_offline_mode_never_touches_online_code(self, toy_world, monkeypatch):
        frames, boxes, config, model = toy_world

        def boom(*args, **kwargs):
            raise AssertionError("online path invoked in offline mode")

        for name in ("online_forward", "solve_cg", "update_memory", "blend",
                     "init_online_filter"):
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

    def test_online_branch_changes_only_the_blend(self, toy_world):
        frames, boxes, config, model = toy_world
        online_cfg = dataclasses.replace(config, online=True, blend_weight=1.0)
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
        crop = crop_search(frames[0].pixels, boxes[0], 255, 127)
        feats = extract_features([crop], model, config)
        assert crop.patch.shape == (3, 256, 256)
        assert feats.tokens.shape == (1, 32, 32, 8)    # grid comes out as 32
        assert crop.pad_mask[:, -1].all()              # 1px mean strip added
        # a single padded pixel column does not mask whole 8px grid cells
        assert not feats.mask[0, :, -1].any()

    def test_pe_mask_off_gives_empty_mask(self, toy_world):
        frames, _, config, model = toy_world
        corner = BoundingBox(6.0, 6.0, 20.0, 16.0)     # crop reaches off-image
        crop = crop_search(frames[0].pixels, corner, config.search_size,
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
        pixels = frames[0].pixels
        crops = [crop_template(pixels, boxes[0], template_size),
                 crop_search(pixels, boxes[0], search_size, template_size)]
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
# online_update_interval and online_score_threshold
PINNED_CHECKPOINTS = [
    (TrackerConfig(),
     "290c65e67a51cfb1d880ed8331943cc70153d4cbf2421c5dc7772fc2f2780c6a"),
    (TrackerConfig(template_size=48, search_size=96, d=8, n_heads=2, c_mid=8,
                   n_encoder_layers=2, n_decoder_layers=3),
     "f09f6c85ed1a65e1be57df52828d02a2bca9e9274ee5cae965136c6de78a6fb1"),
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
    @pytest.mark.parametrize("config, digest", PINNED_CHECKPOINTS)
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
        custom = dataclasses.replace(config, online=True, blend_weight=0.55,
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
            template_size=48, search_size=96, d=8, n_heads=2, ffn_hidden=24,
            n_encoder_layers=2, n_decoder_layers=3, c_mid=8, online_hidden=16,
            online_kernel=3, memory_capacity=7, online_init_gn_steps=3,
            online_init_cg_iters=4, online_update_gn_steps=2,
            online_update_cg_iters=6, online=True, pe_mask=False)
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

    def test_zero_loss_weights_freeze_offset_and_size_heads(self, toy_world):
        frames, boxes, config, _ = toy_world
        model = build_model(np.random.default_rng(0), config)
        settings = TrainSettings(steps=1, lr=1e-3, lambda_offset=0.0,
                                 lambda_size=0.0)
        before_off = [c.kernel.data.copy() for c in model.heads.offset.conv]
        before_size = [c.kernel.data.copy() for c in model.heads.size.conv]
        train_toy(model, config, frames, boxes, settings)
        for prev, conv in zip(before_off, model.heads.offset.conv):
            assert np.array_equal(prev, conv.kernel.data)   # gradient exactly zero
        for prev, conv in zip(before_size, model.heads.size.conv):
            assert np.array_equal(prev, conv.kernel.data)

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

    def test_two_hundred_steps_on_fixed_pair_drop_tenfold(self, toy_world):
        frames, boxes, _, _ = toy_world
        config = TrackerConfig(template_size=48, search_size=96, d=8,
                               n_heads=2, c_mid=8)
        model = build_model(np.random.default_rng(2), config)
        rng = np.random.default_rng(2)
        template = crop_template(frames[0].pixels, boxes[0], config.template_size)
        pair = sample_training_pair(frames, boxes, config, rng, 2.0, 0.2)
        params = T.parameters(model)
        optimizer = Adam(params, lr=2e-3)
        losses = []
        for _ in range(200):
            for p in params:
                p.zero_grad()
            memory, template_pe = encode_template(model, config, template)
            maps = forward_pair(model, config, memory, template_pe,
                                [pair.search_crop])
            total, *_ = pair_loss(maps, [pair.target], 1.0, 1.0)
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
        template = crop_template(frames[0].pixels, boxes[0], config.template_size)
        rng = np.random.default_rng(4)
        pairs = [sample_training_pair(frames, boxes, config, rng, 2.0, 0.2)
                 for _ in range(2)]

        def pair_total(memory, template_pe, pair):
            maps = forward_pair(model, config, memory, template_pe,
                                [pair.search_crop])
            return pair_loss(maps, [pair.target], 1.0, 1.0)[0]

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
# value. A default on one of them would be a second place that value is
# written, free to drift from the config's.
CONFIG_PARAMETERS = [
    (init_backbone, ("c_mid", "d")),
    (init_transformer, ("n_encoder_layers", "n_decoder_layers", "ffn_hidden")),
    (init_online_filter, ("hidden", "kernel", "reg")),
    (OnlineFilter, ("reg",)),
    (TrainingMemory, ("capacity",)),
    (update_memory, ("lr",)),
    (solve_cg, ("n_iters", "gn_steps")),
    (conjugate_gradient, ("n_iters",)),
    (sample_training_pair, ("center_jitter_cells", "scale_jitter")),
    (pair_loss, ("lambda_offset", "lambda_size")),
    (joint_loss, ("lambda_offset", "lambda_size")),
    (Adam, ("lr",)),
]


@pytest.mark.parametrize("owner,names", CONFIG_PARAMETERS,
                         ids=[owner.__name__ for owner, _ in CONFIG_PARAMETERS])
def test_config_values_have_no_second_default(owner, names):
    params = inspect.signature(owner).parameters
    assert [n for n in names if params[n].default is not inspect.Parameter.empty] == []
