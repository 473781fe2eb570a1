"""Outside-in tracing of attntrack: spans and counters recorded by wrapping
module attributes where the program looks them up.

Nothing here edits the package. ``install`` replaces attributes such as
``attntrack.tensor.softmax_rows`` (reached as ``T.softmax_rows``) or
``attntrack.pipeline.tracker.solve_cg`` (imported into ``tracker.py`` by
name) with wrappers, and ``uninstall`` puts the originals back. Spans are
kept in memory as ``[name, start, end, parent]`` and written out at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import attntrack.online as online_mod
import attntrack.pipeline.backbone as backbone_mod
import attntrack.pipeline.tracker as tracker_mod
import attntrack.pipeline.train as train_mod
import attntrack.tensor as tensor_mod
import attntrack.transformer as transformer_mod

from pace import Pace

# (module or class, attribute, span name). Several attributes may share a
# span name: the layer is the module that does the work, wherever it is
# called from.
SPAN_SITES = [
    (tensor_mod, "matmul", "tensor.matmul"),
    (tensor_mod, "softmax_rows", "tensor.softmax_rows"),
    (tensor_mod, "layernorm", "tensor.layernorm"),
    (tensor_mod, "conv2d", "tensor.conv2d"),
    (tensor_mod.Tensor, "backward", "tensor.backward"),
    (tracker_mod, "load_checkpoint", "tensor.checkpoint_load"),
    (tracker_mod, "save_checkpoint", "tensor.checkpoint_save"),
    (tracker_mod, "build_model", "pipeline.build_model"),
    (tracker_mod, "backbone_forward", "pipeline.backbone"),
    (backbone_mod, "backbone_forward", "pipeline.backbone"),
    (tracker_mod, "crop_search", "pipeline.crop"),
    (tracker_mod, "crop_template", "pipeline.crop"),
    (train_mod, "crop_search", "pipeline.crop"),
    (train_mod, "crop_template", "pipeline.crop"),
    (train_mod, "sample_training_pair", "pipeline.train.sample"),
    (train_mod, "forward_pair", "pipeline.train.forward"),
    (train_mod, "pair_loss", "loss.pair"),
    (tracker_mod, "encode", "transformer.encode"),
    (train_mod, "encode", "transformer.encode"),
    (tracker_mod, "decode", "transformer.decode"),
    (train_mod, "decode", "transformer.decode"),
    (tracker_mod, "build_positional_encoding", "transformer.pe"),
    (train_mod, "build_positional_encoding", "transformer.pe"),
    (transformer_mod, "ffn", "attention.ffn"),
    (transformer_mod, "residual_norm", "attention.residual_norm"),
    (tracker_mod, "heads_forward", "localize.heads"),
    (train_mod, "heads_forward", "localize.heads"),
    (tracker_mod, "make_cosine_window", "localize.decode"),
    (tracker_mod, "apply_window", "localize.decode"),
    (tracker_mod, "peak_cell", "localize.decode"),
    (tracker_mod, "decode_center", "localize.decode"),
    (tracker_mod, "decode_size", "localize.decode"),
    (tracker_mod, "smooth_size", "localize.decode"),
    (tracker_mod, "online_forward", "online.forward"),
    (tracker_mod, "update_memory", "online.update_memory"),
]

# Every span name the wrappers above, the attention split, the probes and
# the benchmark's own spans can produce; the per-layer report lists them all.
LAYERS = sorted({name for _, _, name in SPAN_SITES} | {
    "attention.encoder_self", "attention.decoder_self",
    "attention.decoder_cross", "online.solve", "pipeline.tracker",
    "pipeline.train.optimizer", "pipeline.train.loop", "pipeline.metrics",
    "pipeline.synth", "pipeline.seqio.save", "pipeline.seqio.load",
    "pipeline.model_io",
})


def _shape(x) -> tuple:
    return getattr(x, "shape", None) or getattr(getattr(x, "data", None), "shape", ())


class Tracer:
    """Span stack plus named counters; both switch on and off together."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.enabled = False

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def span(self, name: str):
        return _Span(self, name)

    def count(self, key: str, amount: float = 1.0) -> None:
        if self.enabled:
            self.counters[key] += amount

    def self_times(self, first: int = 0, last: int | None = None
                   ) -> dict[str, float]:
        """Seconds of self time per span name, over spans[first:last].

        A span's self time is its duration minus its children's durations.
        """
        totals: dict[str, float] = defaultdict(float)
        spans = self.spans
        for i in range(first, len(spans) if last is None else last):
            name, start, end, parent = spans[i]
            duration = end - start
            totals[name] += duration
            if parent >= first:
                totals[spans[parent][0]] -= duration
        return totals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self):
        if self.tracer.enabled:
            self.index = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        if self.index >= 0:
            self.tracer.end(self.index)
        return False


class Probes:
    """Hooks the untraced run needs too: output checks and step timing.

    ``solve_cg`` results are inspected for ``degraded`` and ``Adam.step``
    calls are time-stamped; with a ``Pace``, the calibration kernel runs
    at each call, outside the step intervals. With a tracer attached, the
    same wrappers also record spans and counters, and the full set of span
    wrappers is added.
    """

    def __init__(self, tracer: Tracer | None = None, pace: Pace | None = None):
        self.tracer = tracer
        self.pace = pace
        self.degraded_solves = 0
        # per Adam.step call: (time it was called, kernel ms or None, time
        # the calibration ended); a step's interval runs from one call's
        # third field to the next call's first
        self.step_marks: list[tuple[float, float | None, float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def install(self) -> "Probes":
        self._patch(tracker_mod, "solve_cg", self._wrap_solve)
        self._patch(train_mod.Adam, "step", self._wrap_step)
        if self.tracer is not None:
            for owner, attr, name in SPAN_SITES:
                self._patch(owner, attr, self._span_wrapper(name, attr))
            self._patch(transformer_mod, "multi_head_attention",
                        self._wrap_attention)
            self._patch(online_mod, "conjugate_gradient", self._wrap_cg)
            self._patch(online_mod, "objective", self._wrap_objective)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- span wrappers -------------------------------------------------------

    def _span_wrapper(self, name: str, attr: str):
        tracer = self.tracer
        counts = _COUNTERS.get(attr)

        def make(fn):
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                if counts is not None:
                    counts(tracer, args, kwargs)
                index = tracer.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.end(index)
            return wrapper
        return make

    def _wrap_attention(self, fn):
        tracer = self.tracer

        def wrapper(inputs, *args, **kwargs):
            if not tracer.enabled:
                return fn(inputs, *args, **kwargs)
            # the transformer calls multi_head_attention for three roles;
            # the enclosing span and query/key identity tell them apart
            if tracer.parent_name() == "transformer.encode":
                name = "attention.encoder_self"
            elif inputs.xq is inputs.xkv:
                name = "attention.decoder_self"
            else:
                name = "attention.decoder_cross"
            index = tracer.begin(name)
            try:
                return fn(inputs, *args, **kwargs)
            finally:
                tracer.end(index)
        return wrapper

    def _wrap_cg(self, fn):
        tracer = self.tracer

        def wrapper(matvec, b, *args, **kwargs):
            if not tracer.enabled or kwargs.get("residual_history") is not None:
                return fn(matvec, b, *args, **kwargs)
            history: list = []
            result = fn(matvec, b, *args, residual_history=history, **kwargs)
            # one residual before the first iteration, one after each
            tracer.count("online.cg_iters", len(history) - 1)
            return result
        return wrapper

    def _wrap_objective(self, fn):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            tracer.count("online.objective_evals")
            return fn(*args, **kwargs)
        return wrapper

    # -- probes (always installed) -------------------------------------------

    def _wrap_solve(self, fn):
        probes = self
        tracer = self.tracer

        def wrapper(filt, memory, n_iters, gn_steps=1, *args, **kwargs):
            traced = tracer is not None and tracer.enabled
            index = tracer.begin("online.solve") if traced else -1
            try:
                result = fn(filt, memory, n_iters, gn_steps, *args, **kwargs)
            finally:
                if traced:
                    tracer.end(index)
            if result.degraded:
                probes.degraded_solves += 1
            if traced:
                accepted = len(result.objectives) - 1
                # a rejected or degraded Gauss-Newton step ends the solve early
                tried = accepted + (1 if accepted < gn_steps else 0)
                tracer.count("online.solve.calls")
                tracer.count("online.memory_samples", len(memory))
                tracer.count("online.gn_accepted", accepted)
                tracer.count("online.gn_tried", tried)
                tracer.count("online.degraded", int(result.degraded))
            return result
        return wrapper

    def _wrap_step(self, fn):
        probes = self
        tracer = self.tracer

        def wrapper(optimizer, *args, **kwargs):
            called = time.perf_counter()
            kernel_ms = probes.pace.tick() if probes.pace else None
            probes.step_marks.append((called, kernel_ms, time.perf_counter()))
            if tracer is None or not tracer.enabled:
                return fn(optimizer, *args, **kwargs)
            index = tracer.begin("pipeline.train.optimizer")
            try:
                return fn(optimizer, *args, **kwargs)
            finally:
                tracer.end(index)
        return wrapper


# Kernel work counted from operand shapes (not measured): these repeat
# exactly for equal inputs, so they can serve as count-based evidence.

def _count_matmul(tracer: Tracer, args, kwargs) -> None:
    (m, k), (_, n) = _shape(args[0]), _shape(args[1])
    tracer.counters["tensor.matmul.calls"] += 1
    tracer.counters["tensor.matmul.flops"] += 2 * m * k * n


def _count_softmax(tracer: Tracer, args, kwargs) -> None:
    rows, cols = _shape(args[0])
    tracer.counters["tensor.softmax_rows.calls"] += 1
    # float64 input read once and output written once
    tracer.counters["tensor.softmax_rows.bytes"] += 2 * 8 * rows * cols


def _count_calls(key: str):
    def count(tracer: Tracer, args, kwargs) -> None:
        tracer.counters[key] += 1
    return count


_COUNTERS = {
    "matmul": _count_matmul,
    "softmax_rows": _count_softmax,
    "conv2d": _count_calls("tensor.conv2d.calls"),
    "crop_search": _count_calls("pipeline.crop.calls"),
    "crop_template": _count_calls("pipeline.crop.calls"),
}
