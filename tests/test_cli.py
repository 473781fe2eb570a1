import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import attntrack
from attntrack import cli
from attntrack.cli import main
from attntrack.errors import TrainingDivergence
from attntrack.pipeline import (Tracker, TrackerConfig, TrainSettings,
                                build_model, load_sequence, read_netpbm,
                                read_rect_file, save_model, write_rect_file)
from attntrack.tensor import Tensor, load_checkpoint, save_checkpoint

FAST_MODEL = ["--template-size", "48", "--search-size", "96", "--d", "8",
              "--heads", "2", "--c-mid", "8"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic sequence, one tiny checkpoint, shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    seq = str(root / "seq")
    ckpt = str(root / "model.trtr")
    assert main(["synth", "--out", seq, "--seed", "5", "--frames", "6",
                 "--image-size", "96"]) == 0
    assert main(["train-toy", "--out", ckpt, "--seq", seq, "--steps", "8",
                 "--seed", "5", *FAST_MODEL]) == 0
    return root, seq, ckpt


def _one_error_line(capsys, text):
    """Stderr is the one ``attntrack: error:`` line, and it holds ``text``."""
    err = capsys.readouterr().err
    assert err.startswith("attntrack: error: ") and err.count("\n") == 1, err
    assert text in err, err


def _spy_on_track(monkeypatch):
    """Replace ``Tracker.track`` with a stub; the returned list records its
    calls."""
    calls = []
    monkeypatch.setattr(Tracker, "track",
                        lambda self, *args, **kwargs: calls.append(args))
    return calls


def _with_boxes(seq, dest, kept):
    """A copy of ``seq`` keeping the first ``kept`` boxes (no file for 0)."""
    shutil.copytree(seq, dest)
    gt = dest / "groundtruth_rect.txt"
    lines = gt.read_text().splitlines(keepends=True)
    if kept:
        gt.write_text("".join(lines[:kept]))
    else:
        gt.unlink()
    return str(dest)


class TestSynth:
    def test_writes_frames_and_groundtruth(self, workspace):
        _, seq, _ = workspace
        frames, boxes = load_sequence(seq)
        assert len(frames) == 6 and len(boxes) == 6
        assert frames[0].pixels.shape == (3, 96, 96)

    def test_defaults(self, tmp_path):
        out = str(tmp_path / "seq")
        assert main(["synth", "--out", out]) == 0
        frames, boxes = load_sequence(out)
        assert len(frames) == len(boxes) == 20
        assert frames[0].pixels.shape == (3, 112, 112)

    @pytest.mark.parametrize("flag,value", [("--image-size", "0"),
                                            ("--drift", "nan")])
    def test_bad_spec_writes_nothing(self, tmp_path, capsys, flag, value):
        # 0 used to write 0x0 PPMs that load_sequence rejects; NaN rendered
        # no drift at all
        out = tmp_path / "seq"
        assert main(["synth", "--out", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("attntrack: error: ") and err.count("\n") == 1
        assert not out.exists()


    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_no_frames_is_a_rejected_setting(self, tmp_path, capsys, count):
        out = tmp_path / "seq"
        assert main(["synth", "--out", str(out), "--frames", count]) == 2
        err = capsys.readouterr().err
        assert err.startswith("attntrack: error: ") and err.count("\n") == 1
        assert "n_frames" in err
        assert not out.exists()


class TestTrainToy:
    def test_checkpoint_header(self, workspace):
        _, _, ckpt = workspace
        with open(ckpt, "rb") as fh:
            assert fh.readline() == b"TRTR-CKPT v1\n"

    def test_loss_log(self, workspace, tmp_path):
        root, seq, _ = workspace
        log = str(tmp_path / "loss.txt")
        out = str(tmp_path / "m.trtr")
        assert main(["train-toy", "--out", out, "--seq", seq, "--steps", "3",
                     "--seed", "5", "--loss-log", log, *FAST_MODEL]) == 0
        with open(log) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 3
        assert all(float(v) > 0 for v in lines)


    def test_zero_steps_rejected_before_the_checkpoint(self, workspace, tmp_path,
                                                       capsys):
        _, seq, _ = workspace
        out = tmp_path / "m.trtr"
        assert main(["train-toy", "--out", str(out), "--seq", seq, "--steps", "0",
                     *FAST_MODEL]) == 2
        assert capsys.readouterr().err == \
            "attntrack: error: steps must be at least 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("lr,shown", [("-0.01", "-0.01"), ("0", "0.0"),
                                          ("nan", "nan"), ("inf", "inf")])
    def test_bad_learning_rate_rejected_before_training(self, workspace, tmp_path,
                                                        capsys, lr, shown):
        # -0.01 and 0 used to train and write a checkpoint; nan and inf ended
        # at step 1 with a non-finite loss and status 1
        _, seq, _ = workspace
        out = tmp_path / "m.trtr"
        assert main(["train-toy", "--out", str(out), "--seq", seq, "--steps", "3",
                     f"--lr={lr}", *FAST_MODEL]) == 2
        assert capsys.readouterr().err == \
            f"attntrack: error: lr must be finite and positive, got {shown}\n"
        assert not out.exists()

    def test_rejected_model_width_is_one_line(self, workspace, tmp_path, capsys):
        _, seq, _ = workspace
        out = tmp_path / "m.trtr"
        assert main(["train-toy", "--out", str(out), "--seq", seq,
                     "--steps", "1", *FAST_MODEL, "--d", "6"]) == 2
        assert capsys.readouterr().err == \
            "attntrack: error: model width must be divisible by 4\n"
        assert not out.exists()

    def test_zero_head_count_is_one_line(self, workspace, tmp_path, capsys):
        # it used to end in a ZeroDivisionError traceback
        _, seq, _ = workspace
        out = tmp_path / "m.trtr"
        assert main(["train-toy", "--out", str(out), "--seq", seq,
                     "--steps", "1", *FAST_MODEL, "--heads", "0"]) == 2
        assert capsys.readouterr().err == \
            "attntrack: error: n_heads must be at least 1, got 0\n"
        assert not out.exists()

    def test_flag_defaults_are_the_configs(self, workspace, tmp_path, monkeypatch):
        # a flag left out takes the library's value, so a changed config
        # default reaches the CLI; only the geometry is train-toy's own
        @dataclasses.dataclass
        class Narrower(TrackerConfig):
            d: int = 16
            c_mid: int = 8
            n_decoder_layers: int = 2

        @dataclasses.dataclass
        class Shorter(TrainSettings):
            steps: int = 2
            lr: float = 5e-4
            seed: int = 3

        seen = {}

        def fake_train_toy(model, config, frames, boxes, settings, log):
            seen.update(config=config, settings=settings)
            return [2.0, 1.0]

        monkeypatch.setattr(cli, "TrackerConfig", Narrower)
        monkeypatch.setattr(cli, "TrainSettings", Shorter)
        monkeypatch.setattr(cli, "train_toy", fake_train_toy)
        _, seq, _ = workspace
        assert main(["train-toy", "--out", str(tmp_path / "m.trtr"), "--seq", seq,
                     "--heads", "2"]) == 0
        config, settings = seen["config"], seen["settings"]
        assert (config.template_size, config.search_size) == (64, 128)
        assert (config.d, config.c_mid, config.n_decoder_layers) == (16, 8, 2)
        assert config.n_heads == 2 and config.pe_mask
        assert (settings.steps, settings.lr, settings.seed) == (2, 5e-4, 3)

    @pytest.mark.parametrize("flag", [["--frames", "3"], ["--image-size", "500"],
                                      ["--distractor"], ["--drift", "0.5"]],
                             ids=lambda flag: flag[0])
    def test_sequence_flags_rejected_with_seq(self, workspace, tmp_path, capsys,
                                              flag):
        # they shape a synthetic sequence; a loaded one would ignore them
        _, seq, _ = workspace
        out = tmp_path / "m.trtr"
        assert main(["train-toy", "--out", str(out), "--seq", seq,
                     "--steps", "1", *FAST_MODEL, *flag]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"attntrack: error: {flag[0]} ")
        assert err.count("\n") == 1 and "--seq" in err
        assert not out.exists()

    def test_synthetic_sequence_fills_in_the_flags_left_out(self, tmp_path,
                                                            monkeypatch):
        seen = {}

        def fake_train_toy(model, config, frames, boxes, settings, log):
            seen.update(frames=frames)
            return [2.0, 1.0]

        monkeypatch.setattr(cli, "train_toy", fake_train_toy)
        assert main(["train-toy", "--out", str(tmp_path / "m.trtr"),
                     "--frames", "4", *FAST_MODEL]) == 0
        assert len(seen["frames"]) == 4
        assert seen["frames"][0].pixels.shape == (3, 112, 112)

    def test_divergence_is_one_line_without_a_checkpoint(self, workspace, tmp_path,
                                                        capsys, monkeypatch):
        def diverging(model, config, frames, boxes, settings, log):
            raise TrainingDivergence("loss became non-finite at step 3")

        monkeypatch.setattr(cli, "train_toy", diverging)
        _, seq, _ = workspace
        out = tmp_path / "m.trtr"
        assert main(["train-toy", "--out", str(out), "--seq", seq,
                     "--steps", "5", *FAST_MODEL]) == 1
        assert capsys.readouterr().err == \
            "attntrack: error: loss became non-finite at step 3\n"
        assert not out.exists()

    @pytest.mark.parametrize("kept", [0, 3])
    def test_short_groundtruth_exits_with_counts(self, workspace, tmp_path,
                                                 capsys, kept):
        _, seq, _ = workspace
        short = _with_boxes(seq, tmp_path / "short", kept)
        out = tmp_path / "m.trtr"
        assert main(["train-toy", "--out", str(out), "--seq", short,
                     "--steps", "1", *FAST_MODEL]) == 1
        assert f"ground truth has {kept} boxes for 6 frames" in capsys.readouterr().err
        assert not out.exists()


class TestTrack:
    def test_track_writes_results_and_metrics(self, workspace, tmp_path):
        _, seq, ckpt = workspace
        results = str(tmp_path / "results.txt")
        metrics = str(tmp_path / "metrics.json")
        assert main(["track", "--ckpt", ckpt, "--seq", seq, "--out", results,
                     "--metrics", metrics]) == 0
        boxes = read_rect_file(results)
        assert len(boxes) == 6
        with open(metrics) as fh:
            payload = json.load(fh)
        assert set(payload) >= {"mean_iou", "success_auc", "per_frame_iou"}

    def test_online_and_search_size_overrides(self, workspace, tmp_path):
        _, seq, ckpt = workspace
        results = str(tmp_path / "results_online.txt")
        assert main(["track", "--ckpt", ckpt, "--seq", seq, "--out", results,
                     "--online", "on", "--search-size", "104",
                     "--pe-mask", "off"]) == 0
        assert len(read_rect_file(results)) == 6

    def test_rejected_search_size_is_one_line(self, workspace, tmp_path, capsys):
        _, seq, ckpt = workspace
        results = tmp_path / "results.txt"
        assert main(["track", "--ckpt", ckpt, "--seq", seq, "--out", str(results),
                     "--search-size", "10"]) == 2
        assert capsys.readouterr().err == \
            "attntrack: error: search size must be >= template size\n"
        assert not results.exists()

    def test_failed_allocation_is_one_line(self, workspace, tmp_path, capsys):
        # a 10**15 search side asks for a 909 TiB cosine window, past any
        # 48-bit address space
        _, seq, ckpt = workspace
        results = tmp_path / "results.txt"
        assert main(["track", "--ckpt", ckpt, "--seq", seq, "--out", str(results),
                     "--search-size", str(10 ** 15)]) == 1
        _one_error_line(capsys, "Unable to allocate")
        assert not results.exists()

    def test_corrupt_checkpoint_is_one_line(self, workspace, tmp_path, capsys):
        _, seq, _ = workspace
        ckpt = tmp_path / "bad.trtr"
        ckpt.write_bytes(b"not a checkpoint\n")
        results = tmp_path / "results.txt"
        assert main(["track", "--ckpt", str(ckpt), "--seq", seq,
                     "--out", str(results)]) == 1
        _one_error_line(capsys, "not a TRTR-CKPT v1 file")
        assert not results.exists()

    @staticmethod
    def _track_with_width(workspace, tmp_path, capsys, stored):
        """``track`` on the workspace checkpoint with ``config.d`` replaced
        by ``stored`` exits 1 with one line naming the entry."""
        _, seq, ckpt = workspace
        entries = load_checkpoint(ckpt)
        entries["config.d"] = stored
        bad = tmp_path / "edited.trtr"
        save_checkpoint([(name, Tensor(v)) for name, v in entries.items()], bad)
        results = tmp_path / "results.txt"
        assert main(["track", "--ckpt", str(bad), "--seq", seq,
                     "--out", str(results)]) == 1
        _one_error_line(capsys, "'config.d'")
        assert not results.exists()

    def test_checkpoint_width_at_odds_with_its_weights_is_one_line(
            self, workspace, tmp_path, capsys):
        # a model 2**40 wide used to be built before its shapes were
        # checked, and died allocating it
        self._track_with_width(workspace, tmp_path, capsys, np.array(2.0 ** 40))

    def test_checkpoint_with_a_vector_setting_is_one_line(
            self, workspace, tmp_path, capsys):
        # float() of a 2-vector used to raise a bare TypeError
        self._track_with_width(workspace, tmp_path, capsys, np.array([8.0, 8.0]))

    @pytest.mark.parametrize("missing", ["ckpt", "seq"])
    def test_missing_input_is_one_line(self, workspace, tmp_path, capsys,
                                       missing):
        _, seq, ckpt = workspace
        paths = {"ckpt": ckpt, "seq": seq, missing: str(tmp_path / "nowhere")}
        assert main(["track", "--ckpt", paths["ckpt"], "--seq", paths["seq"],
                     "--out", str(tmp_path / "results.txt")]) == 1
        _one_error_line(capsys, "nowhere")

    def test_truncated_frame_is_one_line(self, workspace, tmp_path, capsys):
        _, seq, ckpt = workspace
        broken = _with_boxes(seq, tmp_path / "broken", 6)
        frame = os.path.join(broken, sorted(n for n in os.listdir(broken)
                                            if n.endswith(".ppm"))[2])
        with open(frame, "rb+") as fh:
            fh.truncate(os.path.getsize(frame) - 1)
        assert main(["track", "--ckpt", ckpt, "--seq", broken,
                     "--out", str(tmp_path / "results.txt")]) == 1
        _one_error_line(capsys, "truncated pixel data")

    def test_zero_size_first_box_is_one_line(self, workspace, tmp_path, capsys):
        _, seq, ckpt = workspace
        flat = _with_boxes(seq, tmp_path / "flat", 6)
        gt = os.path.join(flat, "groundtruth_rect.txt")
        boxes = read_rect_file(gt)
        boxes[0] = dataclasses.replace(boxes[0], w=0.0)
        write_rect_file(gt, boxes)
        results = tmp_path / "results.txt"
        assert main(["track", "--ckpt", ckpt, "--seq", flat,
                     "--out", str(results)]) == 1
        _one_error_line(capsys, "non-positive extent")
        assert not results.exists()

    def test_metrics_with_short_groundtruth_exit_before_tracking(
            self, workspace, tmp_path, capsys):
        _, seq, ckpt = workspace
        short = _with_boxes(seq, tmp_path / "short", 2)
        for name in sorted(os.listdir(short))[4:]:
            if name.endswith(".ppm"):
                os.remove(os.path.join(short, name))
        results = tmp_path / "results.txt"
        assert main(["track", "--ckpt", ckpt, "--seq", short,
                     "--out", str(results),
                     "--metrics", str(tmp_path / "metrics.json")]) == 1
        assert "ground truth has 2 boxes for 4 frames" in capsys.readouterr().err
        assert not results.exists()


class TestEval:
    def test_eval_against_groundtruth(self, workspace, tmp_path):
        _, seq, ckpt = workspace
        results = str(tmp_path / "r.txt")
        main(["track", "--ckpt", ckpt, "--seq", seq, "--out", results])
        out = str(tmp_path / "metrics.json")
        assert main(["eval", "--pred", results,
                     "--truth", os.path.join(seq, "groundtruth_rect.txt"),
                     "--out", out]) == 0
        with open(out) as fh:
            payload = json.load(fh)
        assert 0.0 <= payload["mean_iou"] <= 1.0

    def test_length_mismatch_is_one_line(self, workspace, tmp_path, capsys):
        _, seq, _ = workspace
        truth = os.path.join(seq, "groundtruth_rect.txt")
        pred = str(tmp_path / "short.txt")
        write_rect_file(pred, read_rect_file(truth)[:3])
        assert main(["eval", "--pred", pred, "--truth", truth]) == 1
        _one_error_line(capsys, "prediction/truth length mismatch: 3 vs 6")


class TestClosedStdout:
    """A reader that closes stdout early (``| head -c 0``) is no error: the
    command ends with status 1 and prints nothing, and what it wrote to
    files stays."""

    def run_into_closed_pipe(self, args, unbuffered):
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:          # the print fails, not the closing flush
            env["PYTHONUNBUFFERED"] = "1"
        src = str(Path(attntrack.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        read, write = os.pipe()
        os.close(read)          # closed before the command writes anything
        try:
            return subprocess.run([sys.executable, "-m", "attntrack.cli", *args],
                                  stdout=write, stderr=subprocess.PIPE,
                                  env=env, timeout=300)
        finally:
            os.close(write)

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_synth(self, tmp_path, unbuffered):
        seq = tmp_path / "seq"
        done = self.run_into_closed_pipe(
            ["synth", "--out", str(seq), "--frames", "2", "--image-size", "48"],
            unbuffered)
        assert (done.returncode, done.stderr) == (1, b"")
        assert len(load_sequence(str(seq))[0]) == 2

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_eval(self, workspace, tmp_path, unbuffered):
        _, seq, _ = workspace
        truth = os.path.join(seq, "groundtruth_rect.txt")
        out = tmp_path / "metrics.json"
        done = self.run_into_closed_pipe(
            ["eval", "--pred", truth, "--truth", truth, "--out", str(out)],
            unbuffered)
        assert (done.returncode, done.stderr) == (1, b"")
        assert json.loads(out.read_text())["mean_iou"] == 1.0


class TestDumps:
    def test_dump_attn_csv_and_pgm(self, workspace, tmp_path):
        _, seq, ckpt = workspace
        prefix = str(tmp_path / "attn")
        assert main(["dump-attn", "--ckpt", ckpt, "--seq", seq,
                     "--out-prefix", prefix, "--site", "decoder0.cross",
                     "--head", "0"]) == 0
        weights = np.loadtxt(prefix + ".csv", delimiter=",")
        assert weights.shape == (12 * 12, 6 * 6)      # search x template tokens
        assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-9
        pgm, maxval = read_netpbm(prefix + ".pgm")
        assert pgm.shape == (12 * 12, 6 * 6)
        assert pgm.max() / maxval == 1.0               # row-normalized output

    def test_dump_attn_encoder_site(self, workspace, tmp_path):
        _, seq, ckpt = workspace
        prefix = str(tmp_path / "enc")
        assert main(["dump-attn", "--ckpt", ckpt, "--seq", seq,
                     "--out-prefix", prefix, "--site", "encoder0.self"]) == 0
        weights = np.loadtxt(prefix + ".csv", delimiter=",")
        assert weights.shape == (36, 36)

    def test_dump_attn_unknown_site_fails(self, workspace, tmp_path, capsys,
                                          monkeypatch):
        # the site names follow from the checkpoint's layer counts, so a bad
        # one fails before any frame is tracked
        calls = _spy_on_track(monkeypatch)
        _, seq, ckpt = workspace
        assert main(["dump-attn", "--ckpt", ckpt, "--seq", seq, "--frame", "5",
                     "--out-prefix", str(tmp_path / "x"),
                     "--site", "nonsense"]) == 1
        _one_error_line(capsys, "unknown attention site 'nonsense'; available: "
                                "['decoder0.cross', 'decoder0.self', 'encoder0.self']")
        assert calls == []

    @pytest.mark.parametrize("head", [2, -1])
    def test_dump_attn_head_out_of_range_fails_before_tracking(
            self, workspace, tmp_path, capsys, monkeypatch, head):
        calls = _spy_on_track(monkeypatch)
        _, seq, ckpt = workspace
        assert main(["dump-attn", "--ckpt", ckpt, "--seq", seq, "--frame", "5",
                     "--out-prefix", str(tmp_path / "x"),
                     "--head", str(head)]) == 1
        _one_error_line(capsys, "head index out of range (0..1)")
        assert calls == []

    @pytest.mark.parametrize("command", ["dump-attn", "dump-heatmap"])
    def test_only_the_dumped_frame_is_traced(self, workspace, tmp_path,
                                             monkeypatch, command):
        # a trace keeps every full attention map, so frames before --frame
        # run without one
        traced = []
        track = Tracker.track

        def spy(self, frame, trace=None):
            traced.append(trace is not None)
            return track(self, frame, trace=trace)

        monkeypatch.setattr(Tracker, "track", spy)
        _, seq, ckpt = workspace
        assert main([command, "--ckpt", ckpt, "--seq", seq, "--frame", "4",
                     "--out-prefix", str(tmp_path / "x")]) == 0
        assert traced == [False, False, False, True]

    def test_dump_heatmap(self, workspace, tmp_path):
        _, seq, ckpt = workspace
        prefix = str(tmp_path / "heat")
        assert main(["dump-heatmap", "--ckpt", ckpt, "--seq", seq,
                     "--frame", "2", "--out-prefix", prefix,
                     "--online", "on"]) == 0
        for tag in ("raw", "windowed", "blended", "online"):
            grid = np.loadtxt(f"{prefix}_{tag}.csv", delimiter=",")
            assert grid.shape == (12, 12)
            assert os.path.exists(f"{prefix}_{tag}.pgm")

    @pytest.mark.parametrize("command", ["dump-attn", "dump-heatmap"])
    def test_one_frame_sequence_exits_with_frame_count(self, command, tmp_path,
                                                       capsys):
        seq = str(tmp_path / "one")
        assert main(["synth", "--out", seq, "--seed", "5", "--frames", "1",
                     "--image-size", "96"]) == 0
        ckpt = str(tmp_path / "fresh.trtr")
        config = TrackerConfig(template_size=48, search_size=96, d=8,
                               n_heads=2, c_mid=8)
        save_model(ckpt, build_model(np.random.default_rng(0), config), config)
        assert main([command, "--ckpt", ckpt, "--seq", seq,
                     "--out-prefix", str(tmp_path / "x")]) == 1
        _one_error_line(capsys, "has 1 frame(s); dumps need at least 2")


    @pytest.mark.parametrize("command", ["dump-attn", "dump-heatmap"])
    @pytest.mark.parametrize("frame", [99, 6, 0, -3])
    def test_frame_out_of_range_exits(self, workspace, tmp_path, capsys,
                                      command, frame):
        # such a frame used to be clamped into range without a word
        _, seq, ckpt = workspace
        assert main([command, "--ckpt", ckpt, "--seq", seq, "--frame", str(frame),
                     "--out-prefix", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == (f"attntrack: error: --frame {frame} is "
                                           f"outside 1..5 for a sequence of 6 frames\n")
        assert list(tmp_path.iterdir()) == []


def _no_c_library(name):
    raise OSError("no C library to load")


class TestMallocThresholds:
    @pytest.mark.parametrize("cdll", [lambda name: object(), _no_c_library],
                             ids=["no-mallopt", "no-libc"])
    def test_without_mallopt_main_runs_silently(self, workspace, monkeypatch,
                                                capsys, cdll):
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        _, seq, _ = workspace
        truth = os.path.join(seq, "groundtruth_rect.txt")
        capsys.readouterr()
        assert main(["eval", "--pred", truth, "--truth", truth]) == 0
        out = capsys.readouterr()
        assert out.err == "" and json.loads(out.out)["mean_iou"] == 1.0

    def test_pins_the_trim_and_mmap_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        libc = types.SimpleNamespace(mallopt=mallopt)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        cli._keep_freed_memory()
        # M_TRIM_THRESHOLD 256 MB, then M_MMAP_THRESHOLD at glibc's 32 MB ceiling
        assert calls == [(-1, 256 << 20), (-3, 32 << 20)]


class TestGradcheckCommand:
    def test_exits_zero(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "full_stack" in out and "FAIL" not in out
        # the longest check name sets the name column
        assert len({line.index(" worst rel err") for line in out.splitlines()}) == 1
