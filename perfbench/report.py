"""Turn a finished run into the metrics named in BENCHMARK.json."""

from __future__ import annotations

import os
import platform
import resource
import statistics

import numpy as np

from tracing import LAYERS, Tracer

# kernel counts computed from operand shapes, not measured
SHAPE_COUNTS = ["tensor.matmul.flops", "tensor.softmax_rows.bytes"]


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples above it.

    With ten samples or fewer there is no such percentile; the maximum is
    reported as percentile 100.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    if len(x) <= 10:
        return float(x[-1]), 100
    for p in range(99, 0, -1):
        q = float(np.percentile(x, p))
        if int(np.sum(x > q)) >= 10:
            return q, p
    return float(x[0]), 0


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(run) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run.

    Op timings are reference times (see pace.py): wall times scaled by the
    machine's speed around each op. Wall-time figures go to the report.
    """
    s = run.samples
    op = "step" if run.workload.trains else "frame"
    ops = s.ref_ms[op]
    op_tail, percentile = tail(ops)
    tracked_ms = sum(s.ref_ms["init"]) + sum(s.ref_ms["frame"])
    handled = len(s.ref_ms["init"]) + len(s.ref_ms["frame"])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "op_ref_ms_p50": _metric(statistics.median(ops), "ref_ms"),
        "op_ref_ms_tail": _metric(op_tail, "ref_ms"),
        "seq_frames_per_ref_s": _metric(1e3 * handled / tracked_ms, "1/ref_s"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
        "setup_s": _metric(statistics.median(run.setup_s), "s"),
    }
    kernel = np.percentile(run.pace.kernel_ms, [0, 50, 100])
    extra = {
        "op": "train step" if run.workload.trains else "Tracker.track",
        "op_samples": len(ops), "op_tail_percentile": percentile,
        "op_wall_ms_p50": statistics.median(s.wall_ms[op]),
        "op_wall_ms_tail": float(np.percentile(s.wall_ms[op], percentile)),
        "init_ref_ms_p50": statistics.median(s.ref_ms["init"]),
        "init_wall_ms_p50": statistics.median(s.wall_ms["init"]),
        "init_samples": len(s.ref_ms["init"]),
        "frame_samples": len(s.ref_ms["frame"]),
        "setup_samples": len(run.setup_s),
        "kernel_ms_min_p50_max": kernel.tolist(),
        "failed_op_share": s.failed / max(s.attempted, 1),
        "train_loss_ratios": s.loss_ratios,
        "overfit_mean_ious": s.overfit_ious,
    }
    return metrics, extra


def tracing_overhead(episodes: list[tuple[bool, int, float]]) -> float:
    """Median over (untraced, traced) pairs of one sequence of the wall-time
    ratio, minus one. Each pair runs back to back on the same work."""
    ratios = [episodes[i + 1][2] / episodes[i][2]
              for i in range(0, len(episodes) - 1, 2)]
    return statistics.median(ratios) - 1.0 if ratios else 0.0


def per_layer(run, tracer: Tracer, setup_spans: int, setup_wall: float,
              episodes: list[tuple[bool, int, float]]) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run.

    Time and count metrics are per traced episode; set-up layers add their
    time per set-up repetition. ``.ms`` is self time: a span's duration
    minus its children's.
    """
    traced_walls = [wall for traced, _, wall in episodes if traced]
    n_traced = max(len(traced_walls), 1)
    reps = len(run.setup_s)
    in_setup = tracer.self_times(0, setup_spans)
    in_episodes = tracer.self_times(setup_spans)
    c = tracer.counters
    metrics = {}
    for layer in LAYERS:
        ms = 1e3 * (in_setup.get(layer, 0.0) / reps
                    + in_episodes.get(layer, 0.0) / n_traced)
        key = "pipeline.tracker.self.ms" if layer == "pipeline.tracker" else f"{layer}.ms"
        metrics[key] = _metric(ms, "ms")
    for key, unit in (("tensor.matmul.calls", "count"),
                      ("tensor.matmul.flops", "flop"),
                      ("tensor.softmax_rows.calls", "count"),
                      ("tensor.softmax_rows.bytes", "byte"),
                      ("tensor.conv2d.calls", "count"),
                      ("pipeline.crop.calls", "count"),
                      ("online.solve.calls", "count"),
                      ("online.cg_iters", "count"),
                      ("online.objective_evals", "count"),
                      ("online.degraded", "count")):
        metrics[key] = _metric(c.get(key, 0.0) / n_traced, unit)
    solves = c.get("online.solve.calls", 0.0)
    tried = c.get("online.gn_tried", 0.0)
    metrics["online.memory_samples"] = _metric(
        c.get("online.memory_samples", 0.0) / solves if solves else 0.0, "count")
    metrics["online.gn_accept_ratio"] = _metric(
        c.get("online.gn_accepted", 0.0) / tried if tried else 0.0, "ratio")
    s = run.samples
    metrics["pipeline.train.loss_ratio"] = _metric(
        statistics.fmean(s.loss_ratios.values()) if s.loss_ratios else 0.0, "ratio")
    metrics["pipeline.train.overfit_mean_iou"] = _metric(
        statistics.fmean(s.overfit_ious.values()) if s.overfit_ious else 0.0, "ratio")

    traced_wall = setup_wall + sum(traced_walls)
    covered = sum(in_setup.values()) + sum(in_episodes.values())
    metrics["trace.coverage"] = _metric(covered / traced_wall, "ratio")
    metrics["trace.overhead"] = _metric(tracing_overhead(episodes), "ratio")
    metrics["trace.spans"] = _metric(
        (len(tracer.spans) - setup_spans) / n_traced, "count")
    extra = {
        "traced_episodes": len(traced_walls),
        "untraced_episodes": len(episodes) - len(traced_walls),
        "traced_wall_s": traced_wall,
        "episodes_traced_sequence_wall": episodes,
        "counts_from_shapes": SHAPE_COUNTS,
    }
    return metrics, extra
