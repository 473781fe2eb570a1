"""The three seeded workloads and the checks on their outputs.

Each workload is a set-up (render a few sequences and round-trip them
through ``save_sequence``/``load_sequence``, build the model and round-trip
it through ``save_model``/``load_model``) followed by episodes repeated
until the measuring time is up. Episodes cycle through the workload's
sequences, so a run repeats each one. One seed fixes
the sequences and the model weights: a repeated sequence must give the
same boxes as its first pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from attntrack import (SequenceSpec, Tracker, TrackerConfig, TrainSettings,
                       build_model, evaluate, generate_synthetic_sequence,
                       load_model, save_model, train_toy)
from attntrack.pipeline import load_sequence, save_sequence

from pace import Pace, reference_ms
from tracing import Probes, Tracer


@dataclass(frozen=True)
class Sizes:
    frames: int              # sequence length, init frame included
    sequences: int           # distinct sequences, cycled through by episode
    setup_reps: int          # set-ups before and again after the episodes
    train_steps: int = 0
    track_passes: int = 1    # tracking passes per episode


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: TrackerConfig
    sizes: Sizes
    smoke_config: TrackerConfig
    smoke_sizes: Sizes
    spec: Callable[[int, int], SequenceSpec]    # (seed, sequence index)
    trains: bool = False


def _offline_spec(seed: int, index: int) -> SequenceSpec:
    # 24 tracked frames at |v| <= 1.2 px keep the whole box inside 144 px
    rng = np.random.default_rng([seed, index, 1])
    return SequenceSpec(
        image_size=(144, 144),
        start_box=(rng.uniform(52, 92), rng.uniform(52, 92),
                   rng.uniform(22, 32), rng.uniform(16, 26)),
        velocity=(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)))


def _online_spec(seed: int, index: int) -> SequenceSpec:
    # 24 tracked frames at |v| <= 0.8 px keep the whole box inside 112 px
    rng = np.random.default_rng([seed, index, 2])
    return SequenceSpec(
        image_size=(112, 112),
        start_box=(rng.uniform(44, 68), rng.uniform(44, 68),
                   rng.uniform(20, 28), rng.uniform(16, 22)),
        velocity=(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)),
        brightness_drift=0.5, drift_start=0.3)


def _train_spec(seed: int, index: int) -> SequenceSpec:
    return SequenceSpec()      # the synth -> train-toy -> track flow's default


TOY = dict(template_size=64, search_size=128)
ONLINE = TrackerConfig(**TOY, online=True, memory_capacity=8)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="track-offline-255",
        why="default 127/255 geometry, online off: decoder self-attention "
            "over 1024 tokens and the crop dominate; the online branch idles",
        config=TrackerConfig(),
        sizes=Sizes(frames=25, sequences=2, setup_reps=5),
        smoke_config=TrackerConfig(),
        smoke_sizes=Sizes(frames=4, sequences=1, setup_reps=1),
        spec=_offline_spec),
    Workload(
        name="track-online-128",
        why="64/128 geometry, online on, brightness drift: the GN/CG solve "
            "is almost all of the frame; attention is about 1%",
        config=ONLINE,
        sizes=Sizes(frames=25, sequences=1, setup_reps=5),
        smoke_config=dataclasses.replace(ONLINE, memory_capacity=6,
                                         online_init_gn_steps=2),
        smoke_sizes=Sizes(frames=3, sequences=1, setup_reps=1),
        spec=_online_spec),
    Workload(
        name="train-track-128",
        why="train_toy from seeded weights, then track and score the "
            "sequence: backward, Adam, loss and crop sampler run on the tape",
        config=TrackerConfig(**TOY),
        sizes=Sizes(frames=20, sequences=1, setup_reps=5, train_steps=60,
                    track_passes=2),
        smoke_config=TrackerConfig(**TOY),
        smoke_sizes=Sizes(frames=6, sequences=1, setup_reps=1, train_steps=4),
        spec=_train_spec, trains=True),
)}


@dataclass
class Samples:
    """Everything the episodes measured, traced or not."""
    # op wall times and reference times in ms by kind: "init", "frame" or
    # "step"; reference times only when the run calibrates (see pace.py)
    wall_ms: dict[str, list[float]] = field(default_factory=dict)
    ref_ms: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[int, str] = field(default_factory=dict)  # by sequence
    loss_ratios: dict[int, float] = field(default_factory=dict)   # by sequence
    overfit_ious: dict[int, float] = field(default_factory=dict)

    def add(self, kind: str, wall_ms: float, ref_ms: float | None) -> None:
        self.wall_ms.setdefault(kind, []).append(wall_ms)
        if ref_ms is not None:
            self.ref_ms.setdefault(kind, []).append(ref_ms)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


class Run:
    """One workload at one seed: set-up, then episodes."""

    def __init__(self, workload: Workload, seed: int, smoke: bool,
                 workdir: Path, tracer: Tracer | None):
        self.workload = workload
        self.seed = seed
        self.config = workload.smoke_config if smoke else workload.config
        self.sizes = workload.smoke_sizes if smoke else workload.sizes
        self.workdir = workdir
        self.tracer = tracer
        # calibrate untraced runs only: the kernel would show up in spans
        self.pace = None if tracer else Pace()
        self.probes = Probes(tracer, self.pace)
        self.samples = Samples()
        self.setup_s: list[float] = []

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    # -- set-up ----------------------------------------------------------------

    def setup(self, reps: int | None = None) -> None:
        """Set up ``reps`` times (default ``setup_reps``); keep the last
        sequences and checkpoint."""
        for _ in range(self.sizes.setup_reps if reps is None else reps):
            # each set-up writes into a new directory, and the one before is
            # removed once it is done: rewriting the same files in place
            # made save_sequence slower and far more variable (ext4 starts
            # writeback when a truncated file is closed)
            previous = self.ckpt.parent if self.setup_s else None
            rep_dir = self.workdir / f"setup{len(self.setup_s)}"
            self.ckpt = rep_dir / "model.trtr"
            self.sequences = []
            start = time.perf_counter()
            rep_dir.mkdir()
            for index in range(self.sizes.sequences):
                seq_dir = rep_dir / f"seq{index}"
                with self.span("pipeline.synth"):
                    frames, boxes = generate_synthetic_sequence(
                        sub_seed(self.seed, index), self.sizes.frames,
                        self.workload.spec(self.seed, index))
                with self.span("pipeline.seqio.save"):
                    save_sequence(seq_dir, frames, boxes)
                with self.span("pipeline.seqio.load"):
                    self.sequences.append(load_sequence(seq_dir))
            with self.span("pipeline.build_model"):
                model = build_model(np.random.default_rng(self.seed), self.config)
            with self.span("pipeline.model_io"):
                save_model(self.ckpt, model, self.config)
            with self.span("pipeline.model_io"):
                self.model, loaded = load_model(self.ckpt)
            self.setup_s.append(time.perf_counter() - start)
            if previous is not None:
                shutil.rmtree(previous)
            if loaded != self.config:
                raise RuntimeError(f"checkpoint config round trip changed "
                                   f"{self.config} into {loaded}")
        for frames, boxes in self.sequences:
            _, height, width = frames[0].pixels.shape
            if len(frames) != self.sizes.frames or len(boxes) != len(frames):
                raise RuntimeError("sequence round trip lost frames or boxes")
            for box in boxes:
                x, y, w, h = box.as_corner()
                if x < 0 or y < 0 or x + w > width or y + h > height:
                    raise RuntimeError(f"target box {box} leaves the image")

    # -- episodes ----------------------------------------------------------------

    def episode(self, seq: int) -> None:
        """One pass over sequence ``seq``."""
        frames, boxes = self.sequences[seq]
        if self.workload.trains:
            self._train_episode(seq, frames, boxes)
        else:
            self._record_digest(seq, self._track_pass(self.model, frames, boxes))

    def _record_digest(self, seq: int, boxes: list) -> None:
        digest = box_digest(boxes)
        first = self.samples.digests.setdefault(seq, digest)
        if digest != first:
            self.samples.fail(f"sequence {seq}: boxes differ from its first pass")

    def run_digest(self) -> str:
        """One digest over every sequence's boxes, in sequence order."""
        joined = ",".join(self.samples.digests.get(i, "missing")
                          for i in range(self.sizes.sequences))
        return hashlib.sha256(joined.encode()).hexdigest()[:16]

    def _op(self, kind: str, call):
        """Run one timed operation; a raise counts as a failed operation.

        Returns the result (None on failure) and the op's wall and reference
        ms; the reference time is None when the run does not calibrate.
        """
        degraded = self.probes.degraded_solves
        self.samples.attempted += 1
        before = self.pace.tick() if self.pace else None
        start = time.perf_counter()
        try:
            with self.span("pipeline.tracker"):
                result = call()
        except Exception:
            self.samples.fail(f"{kind} raised: {traceback.format_exc(limit=3)}")
            result = None
        wall = 1e3 * (time.perf_counter() - start)
        ref = reference_ms(wall, before, self.pace.tick()) if self.pace else None
        if result is not None and self.probes.degraded_solves != degraded:
            self.samples.fail(f"{kind}: online solve returned degraded")
            result = None
        return result, wall, ref

    def _track_pass(self, model, frames, boxes) -> list:
        """Init on frame 0 and track the rest; returns the output boxes."""
        s = self.samples
        _, height, width = frames[0].pixels.shape
        tracker = Tracker(model, self.config)
        state, wall, ref = self._op("init", lambda: tracker.init(frames[0], boxes[0]))
        if state is None:
            return []
        s.add("init", wall, ref)
        out = [boxes[0]]
        for frame in frames[1:]:
            result, wall, ref = self._op("frame", lambda: tracker.track(frame))
            if result is None:
                continue
            box, diag = result
            problem = check_frame(box, diag.lost, width, height)
            if problem:
                s.fail(f"frame {frame.index}: {problem}")
                continue
            s.add("frame", wall, ref)
            out.append(box)
        return out

    def _train_episode(self, seq: int, frames, boxes) -> None:
        s = self.samples
        with self.span("pipeline.model_io"):
            model, _ = load_model(self.ckpt)
        settings = TrainSettings(steps=self.sizes.train_steps, lr=1e-3,
                                 seed=self.seed, batch_size=2)
        first_mark = len(self.probes.step_marks)
        try:
            with self.span("pipeline.train.loop"):
                history = train_toy(model, self.config, frames, boxes, settings)
        except Exception:
            history = []
            s.fail(f"train step raised: {traceback.format_exc(limit=3)}")
        marks = self.probes.step_marks[first_mark:]
        s.attempted += max(len(marks), len(history)) + (0 if history else 1)
        # step time is the interval between consecutive Adam.step calls,
        # less the calibration run at each call
        for (_, before, start), (end, after, _) in zip(marks, marks[1:]):
            wall = 1e3 * (end - start)
            s.add("step", wall, reference_ms(wall, before, after) if self.pace else None)
        for step, loss in enumerate(history):
            if not math.isfinite(loss):
                s.fail(f"step {step}: non-finite loss {loss}")
        if not history:
            return
        passes = [self._track_pass(model, frames, boxes)
                  for _ in range(self.sizes.track_passes)]
        self._record_digest(seq, passes[0])
        if seq not in s.loss_ratios:          # repeats train the same way
            s.loss_ratios[seq] = history[0] / float(np.mean(history[-10:]))
            if len(passes[0]) == len(boxes):
                with self.span("pipeline.metrics"):
                    s.overfit_ious[seq] = evaluate(passes[0], boxes).mean_iou


def check_frame(box, lost: bool, width: int, height: int) -> str | None:
    """Why a tracked box is not a valid output, or None when it is."""
    values = (box.cx, box.cy, box.w, box.h)
    if not all(math.isfinite(v) for v in values):
        return f"non-finite box {values}"
    if box.w <= 0 or box.h <= 0:
        return f"non-positive box size {values}"
    if not (0 <= box.cx < width and 0 <= box.cy < height):
        return f"box center {values[:2]} outside the {width}x{height} image"
    if lost:
        return "tracker reported the target lost"
    return None


def sub_seed(seed: int, index: int) -> int:
    """Seed of the run's sequence ``index``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def box_digest(boxes) -> str:
    coords = np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype="<f8")
    return hashlib.sha256(coords.tobytes()).hexdigest()[:16]
