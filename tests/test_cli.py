import json
import os

import numpy as np
import pytest

from attntrack.cli import main
from attntrack.pipeline import (TrackerConfig, build_model, load_sequence,
                                read_netpbm, read_rect_file, save_model)

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


class TestSynth:
    def test_writes_frames_and_groundtruth(self, workspace):
        _, seq, _ = workspace
        frames, boxes = load_sequence(seq)
        assert len(frames) == 6 and len(boxes) == 6
        assert frames[0].pixels.shape == (3, 96, 96)


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
        pgm = read_netpbm(prefix + ".pgm")
        assert pgm.shape == (12 * 12, 6 * 6)
        assert pgm.max() == 1.0                        # row-normalized output

    def test_dump_attn_encoder_site(self, workspace, tmp_path):
        _, seq, ckpt = workspace
        prefix = str(tmp_path / "enc")
        assert main(["dump-attn", "--ckpt", ckpt, "--seq", seq,
                     "--out-prefix", prefix, "--site", "encoder0.self"]) == 0
        weights = np.loadtxt(prefix + ".csv", delimiter=",")
        assert weights.shape == (36, 36)

    def test_dump_attn_unknown_site_fails(self, workspace, tmp_path):
        _, seq, ckpt = workspace
        assert main(["dump-attn", "--ckpt", ckpt, "--seq", seq,
                     "--out-prefix", str(tmp_path / "x"),
                     "--site", "nonsense"]) == 1

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
    def test_one_frame_sequence_exits_with_frame_count(self, command, tmp_path):
        seq = str(tmp_path / "one")
        assert main(["synth", "--out", seq, "--seed", "5", "--frames", "1",
                     "--image-size", "96"]) == 0
        ckpt = str(tmp_path / "fresh.trtr")
        config = TrackerConfig(template_size=48, search_size=96, d=8,
                               n_heads=2, c_mid=8)
        save_model(ckpt, build_model(np.random.default_rng(0), config), config)
        with pytest.raises(SystemExit, match="has 1 frame"):
            main([command, "--ckpt", ckpt, "--seq", seq,
                  "--out-prefix", str(tmp_path / "x")])


class TestGradcheckCommand:
    def test_exits_zero(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "full_stack" in out and "FAIL" not in out
