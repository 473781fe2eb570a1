"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. The heavyweight artifacts (a 500-step trained model) are built once
per session and shared.
"""

import dataclasses
import filecmp
import math
import time

import numpy as np
import pytest

from attntrack.cli import main
from attntrack.localize import decode_center, decode_size, peak_cell
from attntrack.loss import focal_loss, gaussian_label
from attntrack.online import (blend, init_online_filter, solve_cg,
                              update_memory, TrainingMemory)
from attntrack.pipeline import (SequenceSpec, Tracker, TrackerConfig,
                                TrainSettings, build_model, crop_search,
                                crop_template, encode_template, evaluate,
                                extract_features, generate_synthetic_sequence,
                                track_sequence, train_toy)
from attntrack.tensor import Tensor, multi_head_softmax_attention
from attntrack.transformer import (AttentionTrace, build_positional_encoding,
                                   decode)

TRAIN_STEPS = 500


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def trained():
    frames, boxes = generate_synthetic_sequence(0, 20, SequenceSpec())
    config = TrackerConfig(template_size=64, search_size=128)
    model = build_model(np.random.default_rng(0), config)
    start = time.monotonic()
    history = train_toy(model, config, frames, boxes,
                        TrainSettings(steps=TRAIN_STEPS, lr=1e-3))
    train_seconds = time.monotonic() - start
    return frames, boxes, config, model, history, train_seconds


def test_criterion_1_gradient_suite():
    from attntrack.gradcheck import run_gradcheck
    start = time.monotonic()
    results = run_gradcheck(seed=0, instances=3)
    elapsed = time.monotonic() - start
    names = {r.name for r in results}
    assert {"attention", "ffn", "heads", "losses", "backbone",
            "full_stack", "matmul_bias", "conv2d_bias",
            "conv2d_batched_bias"} <= names
    bad = [r.name for r in results if not r.ok]
    worst = max(r.worst_rel_error for r in results)
    report(1, not bad and elapsed < 60.0,
           f"gradient suite: worst rel err {worst:.2e}, "
           f"{len(results)} op groups x 3 instances, {elapsed:.1f}s < 60s")


def test_criterion_2_equation_oracles():
    start = time.monotonic()

    # attention weights, scalar instance
    maps = []
    multi_head_softmax_attention(Tensor([[2.0]]), Tensor([[1.0], [0.0]]),
                                 Tensor([[0.0], [0.0]]), 1, maps=maps)
    e2 = math.exp(2.0)
    ok_attn = np.allclose(maps[0][0], [e2 / (e2 + 1), 1 / (e2 + 1)], atol=1e-12)

    # focal loss scalar branches
    pos = focal_loss(Tensor([[0.5]]), np.array([[1.0]])).item()
    neg = focal_loss(Tensor([[0.5]]), np.array([[0.0]])).item()
    damped = focal_loss(Tensor([[0.5]]), np.array([[0.9]])).item()
    ok_focal = (abs(pos - 0.25 * math.log(2.0)) < 1e-12
                and abs(neg - 0.25 * math.log(2.0)) < 1e-12
                and abs(damped - neg * 1e-4) < 1e-12)

    # center decoding by direct substitution
    score = np.zeros((8, 8))
    score[4, 3] = 1.0
    offsets = np.zeros((8, 8, 2))
    offsets[4, 3] = (0.5, 0.25)
    ok_center = decode_center(score, offsets) == (28.0, 34.0)

    # size decoding by direct substitution
    size = np.zeros((8, 8, 2))
    size[4, 3] = (0.25, 0.5)
    ok_size = decode_size(size, (3, 4), 256, 256) == (64.0, 128.0)

    # gaussian label against the per-pixel kernel
    label = gaussian_label((2, 5), 1.3, 8, 8)
    worst = max(abs(label[y, x]
                    - math.exp(-((x - 2) ** 2 + (y - 5) ** 2) / (2 * 1.3 ** 2)))
                for y in range(8) for x in range(8) if (x, y) != (2, 5))
    ok_label = worst < 1e-12 and label[5, 2] == 1.0

    # blend of constant maps
    ok_blend = np.allclose(blend(np.ones((3, 3)), np.zeros((3, 3)), 0.6), 0.6)

    elapsed = time.monotonic() - start
    ok = all((ok_attn, ok_focal, ok_center, ok_size, ok_label, ok_blend))
    report(2, ok and elapsed < 10.0,
           f"equation oracles (attention/focal/center/size/label/blend) "
           f"all match, {elapsed:.2f}s < 10s")


def test_criterion_3_pe_mask_property():
    # a corner target makes most of the search crop mean-padded; two padded
    # cells whose receptive fields see only mean pixels have equal features
    # and, with masked positional codes, must be indistinguishable
    frames, boxes = generate_synthetic_sequence(
        3, 1, SequenceSpec(image_size=(96, 96), start_box=(6.0, 6.0, 22.0, 18.0),
                           velocity=(0.0, 0.0)))
    config = TrackerConfig(template_size=64, search_size=192)
    model = build_model(np.random.default_rng(1), config)

    crop = crop_search(frames[0], boxes[0], config.search_size, config.template_size)
    feats = extract_features([crop], model, config)
    mask = feats.mask[0]
    h, w = mask.shape
    unpadded = np.argwhere(~mask)

    deep = [(y, x) for y in range(2, h - 2) for x in range(2, w - 2)
            if mask[y, x]
            and np.abs(unpadded - [y, x]).max(axis=1).min() >= 3]
    tok = feats.tokens.data[0]
    pair = None
    for i in range(len(deep)):
        for j in range(i + 1, len(deep)):
            a, b = deep[i], deep[j]
            if np.abs(tok[a[0], a[1]] - tok[b[0], b[1]]).max() < 1e-12:
                pair = (a, b)
                break
        if pair:
            break
    assert pair is not None, "no equal-feature padded cell pair found"
    (ya, xa), (yb, xb) = pair
    ja, jb = ya * w + xa, yb * w + xb

    tcrop = crop_template(frames[0], boxes[0], config.template_size)
    memory, pe_z = encode_template(model, config, tcrop)
    pe_x = build_positional_encoding(h, w, feats.tokens.shape[-1], mask)
    trace = AttentionTrace()
    out = decode(feats.tokens, memory, pe_z, model.transformer.decoder, pe_x,
                 trace=trace)

    worst_key = 0.0     # the padded cells as keys: equal columns
    worst_query = 0.0   # the padded cells as queries: equal rows
    for site, heads in trace.maps.items():
        for a in heads:
            if a.shape[1] == h * w:
                worst_key = max(worst_key, np.abs(a[:, ja] - a[:, jb]).max())
            worst_query = max(worst_query, np.abs(a[ja] - a[jb]).max())
    out_diff = np.abs(out.data[0, ya, xa] - out.data[0, yb, xb]).max()

    ok = worst_key < 1e-9 and worst_query < 1e-9 and out_diff < 1e-9
    report(3, ok,
           f"masked-code padding property: attention diff as keys "
           f"{worst_key:.1e}, as queries {worst_query:.1e}, decoder row diff "
           f"{out_diff:.1e} (all < 1e-9)")


def test_criterion_4_cg_correctness():
    from tests.test_online import (dense_design_matrix,
                                   linear_six_parameter_problem)

    rng = np.random.default_rng(11)
    filt, memory = linear_six_parameter_problem(rng, reg=0.0)
    result = solve_cg(filt, memory, n_iters=12, gn_steps=3, train_w1=False)
    phi, y = dense_design_matrix(filt, memory)
    expected, *_ = np.linalg.lstsq(phi, y, rcond=None)
    lsq_err = np.abs(result.filter.w2.ravel() - expected).max()

    violations = 0
    rng = np.random.default_rng(12)
    for _ in range(100):
        f = init_online_filter(rng, c_in=2, hidden=4, kernel=2,
                               reg=10.0 ** rng.uniform(-4, -1))
        mem = TrainingMemory(capacity=8)
        for _ in range(int(rng.integers(1, 4))):
            update_memory(mem, rng.standard_normal((2, 5, 5)),
                          rng.uniform(0, 1, (5, 5)), lr=0.2)
        res = solve_cg(f, mem, n_iters=int(rng.integers(1, 8)),
                       gn_steps=int(rng.integers(1, 5)))
        if any(cur > prev + 1e-12
               for prev, cur in zip(res.objectives, res.objectives[1:])):
            violations += 1

    ok = lsq_err < 1e-6 and violations == 0
    report(4, ok,
           f"CG solver: dense least-squares match {lsq_err:.1e} < 1e-6, "
           f"objective non-increasing in 100/100 randomized runs")


def test_criterion_5_end_to_end_overfit(trained):
    frames, boxes, config, model, history, train_seconds = trained
    pred = track_sequence(model, config, frames, boxes[0])
    metrics = evaluate(pred, boxes)
    settled = float(np.mean(history[-10:]))
    ratio = history[0] / settled
    ok = (metrics.mean_iou > 0.7 and ratio >= 10.0 and train_seconds < 600.0)
    report(5, ok,
           f"overfit run: mean IoU {metrics.mean_iou:.3f} > 0.7, loss "
           f"{history[0]:.2f} -> {settled:.3f} ({ratio:.1f}x >= 10x) in "
           f"{TRAIN_STEPS} steps, {train_seconds:.0f}s < 600s")


def test_criterion_6_online_plugin_delta(trained):
    frames, boxes, config, model, _, _ = trained
    drift = dataclasses.replace(SequenceSpec(), brightness_drift=0.35)
    dframes, dboxes = generate_synthetic_sequence(0, 20, drift)

    offline = evaluate(track_sequence(model, config, dframes, dboxes[0]), dboxes)

    config_on = dataclasses.replace(config, online=True)
    tracker = Tracker(model, config_on)
    tracker.init(dframes[0], dboxes[0])
    online_pred = [dboxes[0]]
    saw_online_map = True
    for frame in dframes[1:]:
        box, diag = tracker.track(frame)
        online_pred.append(box)
        saw_online_map &= diag.online_map is not None
    online = evaluate(online_pred, dboxes)

    exercised = saw_online_map and len(tracker.state.online_memory) >= 20
    ok = online.mean_iou >= offline.mean_iou - 0.01 and exercised
    report(6, ok,
           f"online plug-in on drift sequence: online {online.mean_iou:.3f} "
           f"vs offline {offline.mean_iou:.3f} (delta "
           f"{online.mean_iou - offline.mean_iou:+.4f} >= -0.01), branch "
           f"exercised on every frame")


# the online branch's test scenario: the target's texture turns into a
# second tile from a given fraction of the sequence on
CHANGE_STARTS = (0.2, 0.3, 0.4, 0.5)
# measured: online beats offline by 0.023-0.045 mean IoU at every start,
# with w1 fitted jointly at init and with the fixed mixing alike; the
# margin leaves room for the rounding the init solve amplifies
ONLINE_MARGIN = 0.01


@pytest.fixture(scope="module")
def appearance_change_runs(trained):
    """Per change start: offline mean IoU, online mean IoU, and whether
    blending moved the peak cell, per tracked frame."""
    _, _, config, model, _, _ = trained
    runs = {}
    for start in CHANGE_STARTS:
        spec = SequenceSpec(appearance_change=1.0, change_start=start)
        frames, boxes = generate_synthetic_sequence(0, 20, spec)
        offline = evaluate(track_sequence(model, config, frames, boxes[0]), boxes)
        tracker = Tracker(model, dataclasses.replace(config, online=True))
        tracker.init(frames[0], boxes[0])
        pred, moved = [boxes[0]], []
        for frame in frames[1:]:
            box, diag = tracker.track(frame)
            pred.append(box)
            moved.append(peak_cell(diag.blended_map) != peak_cell(diag.windowed_map))
        runs[start] = (offline.mean_iou, evaluate(pred, boxes).mean_iou, moved)
    return runs


def test_online_branch_follows_an_appearance_change(appearance_change_runs):
    for start, (offline, online, _) in appearance_change_runs.items():
        print(f"change from {start}: offline {offline:.3f}, online {online:.3f}")
        assert online >= offline + ONLINE_MARGIN, start


def test_blending_moves_the_peak_on_an_appearance_change(appearance_change_runs):
    assert any(any(moved) for _, _, moved in appearance_change_runs.values())


def test_init_schedule_on_the_trained_model(trained):
    # the init's one unbroken CG run against the ten restarted runs of 10
    # it replaced, on the trained model's init memories: the first frame,
    # and criterion 6's last, 0.35 brighter
    from tests.test_online import init_problem, init_schedules

    frames, boxes, config, model, _, _ = trained
    config_on = dataclasses.replace(config, online=True)
    drift = dataclasses.replace(SequenceSpec(), brightness_drift=0.35)
    dframes, dboxes = generate_synthetic_sequence(0, 20, drift)
    for name, frame, box in (("first", frames[0], boxes[0]),
                             ("drifted", dframes[-1], dboxes[-1])):
        problem = init_problem(Tracker(model, config_on), frame, box)
        restarted, unbroken = init_schedules(*problem)
        print(f"{name} frame: init objective {restarted:.6e} restarted, "
              f"{unbroken:.6e} unbroken ({unbroken / restarted - 1:+.1e})")
        assert unbroken <= restarted, name


def test_criterion_7_config_parity():
    frames, boxes = generate_synthetic_sequence(1, 4, SequenceSpec())
    failures = []

    for n_enc, n_dec in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 3)):
        config = TrackerConfig(template_size=48, search_size=96, d=8,
                               n_heads=2, c_mid=8, n_encoder_layers=n_enc,
                               n_decoder_layers=n_dec)
        model = build_model(np.random.default_rng(7), config)
        try:
            train_toy(model, config, frames, boxes, TrainSettings(steps=3))
            track_sequence(model, config, frames, boxes[0])
        except Exception as exc:                       # noqa: BLE001
            failures.append(f"layers ({n_enc},{n_dec}): {exc}")

    for search in (255, 280, 320):
        config = TrackerConfig(template_size=127, search_size=search, d=8,
                               n_heads=2, c_mid=8)
        model = build_model(np.random.default_rng(8), config)
        try:
            train_toy(model, config, frames, boxes, TrainSettings(steps=2))
            track_sequence(model, config, frames[:3], boxes[0])
        except Exception as exc:                       # noqa: BLE001
            failures.append(f"search {search}: {exc}")

    report(7, not failures,
           "config parity: encoder/decoder sweep (1,1),(2,1),(1,2),(2,2),(3,3) "
           "and search presets 255/280/320 all train and track"
           + ("" if not failures else f"; failures: {failures}"))


def test_criterion_8_determinism(tmp_path):
    seq = str(tmp_path / "seq")
    main(["synth", "--out", seq, "--seed", "9", "--frames", "6",
          "--image-size", "96"])
    fast = ["--template-size", "48", "--search-size", "96", "--d", "8",
            "--heads", "2", "--c-mid", "8"]

    outputs = []
    for run in ("a", "b"):
        ckpt = str(tmp_path / f"model_{run}.trtr")
        log = str(tmp_path / f"loss_{run}.txt")
        results = str(tmp_path / f"results_{run}.txt")
        assert main(["train-toy", "--out", ckpt, "--seq", seq, "--steps", "20",
                     "--seed", "9", "--loss-log", log, *fast]) == 0
        assert main(["track", "--ckpt", ckpt, "--seq", seq,
                     "--out", results]) == 0
        outputs.append((ckpt, log, results))

    (ck_a, log_a, res_a), (ck_b, log_b, res_b) = outputs
    same = (filecmp.cmp(ck_a, ck_b, shallow=False)
            and filecmp.cmp(log_a, log_b, shallow=False)
            and filecmp.cmp(res_a, res_b, shallow=False))
    report(8, same,
           "determinism: fixed-seed train-toy checkpoints, loss logs, and "
           "track results are byte-identical across two invocations")
