"""Command-line interface.

Subcommands:
  gradcheck     finite-difference verification of all differentiable ops
  synth         render a seeded synthetic sequence to a directory
  train-toy     fit the model to one sequence and write a checkpoint
  track         run the tracker over a sequence directory
  eval          score a results file against ground truth
  dump-attn     export an attention weight map as CSV / PGM
  dump-heatmap  export the classification maps for one frame
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import sys

import numpy as np

from .errors import ConfigurationError, TrackingError, TrainingDivergence
from .pipeline import (SequenceSpec, Tracker, TrackerConfig, TrainSettings,
                       build_model, evaluate, generate_synthetic_sequence,
                       load_model, load_sequence, read_rect_file, save_model,
                       save_sequence, track_sequence, train_toy, write_csv,
                       write_pgm, write_rect_file)
from .transformer import AttentionTrace, attention_sites


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Let the heap keep what a tracked frame frees, for the next frame.

    Each frame frees its large temporaries. By default glibc hands the
    heap top back to the kernel and serves blocks above a moving threshold
    with fresh mmaps, so the next frame faults the same pages in again:
    about 1,000 minor faults per frame at 127/255. A 256 MB trim threshold
    and the 32 MB mmap ceiling keep those pages in the process. Where the
    C library has no ``mallopt`` this does nothing.
    """
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def _drop_stdout() -> None:
    """Point stdout's file descriptor at the null device, so that the
    interpreter's closing flush of a closed pipe stays silent."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):   # no stdout, or no descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _onoff(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"expected on|off, got {value!r}")
    return value == "on"


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--template-size", type=int)
    p.add_argument("--search-size", type=int)
    p.add_argument("--d", type=int, help="transformer width")
    p.add_argument("--heads", dest="n_heads", type=int)
    p.add_argument("--enc-layers", dest="n_encoder_layers", type=int)
    p.add_argument("--dec-layers", dest="n_decoder_layers", type=int)
    p.add_argument("--pe-mask", type=_onoff,
                   help="zero positional codes over padded area (on|off)")
    p.add_argument("--c-mid", type=int)


def _add_override_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--online", type=_onoff)
    p.add_argument("--search-size", type=int)
    p.add_argument("--pe-mask", type=_onoff)


def _configured(base, args):
    """``base`` with every field whose flag was given replaced by its value.

    A flag that sets a ``TrackerConfig`` or ``TrainSettings`` field is stored
    under the field's name and defaults to None, so a flag left out keeps
    the value of ``base``."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(base)
             if getattr(args, f.name, None) is not None}
    return dataclasses.replace(base, **given)


# the synthetic sequence's flags, by dest, with their defaults; the flags
# themselves default to None, so train-toy can tell which were given
SEQ_DEFAULTS = {"frames": 20, "image_size": 112, "distractor": False, "drift": 0.0}


def _add_seq_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--frames", type=int)
    p.add_argument("--image-size", type=int)
    p.add_argument("--distractor", action="store_true", default=None)
    p.add_argument("--drift", type=float,
                   help="total brightness drop by the final frame")


def _given_seq_args(args) -> dict:
    return {name: getattr(args, name) for name in SEQ_DEFAULTS
            if getattr(args, name) is not None}


def _synthetic_sequence(seed: int, args):
    seq = {**SEQ_DEFAULTS, **_given_seq_args(args)}
    size = seq["image_size"]
    spec = SequenceSpec(image_size=(size, size),
                        start_box=(size / 2.0, size / 2.0, size * 0.22, size * 0.18),
                        distractor=seq["distractor"],
                        brightness_drift=seq["drift"])
    return generate_synthetic_sequence(seed, seq["frames"], spec)


def _load_for_tracking(args):
    """The checkpoint's model and config with the flags' overrides, and the
    sequence, which needs a box for frame 0."""
    model, config = load_model(args.ckpt)
    config = _configured(config, args)
    frames, boxes = load_sequence(args.seq)
    if not boxes:
        raise ValueError("sequence has no ground truth; cannot initialize")
    return model, config, frames, boxes


def _cmd_gradcheck(args) -> int:
    from .gradcheck import run_gradcheck
    results = run_gradcheck(seed=args.seed)
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "ok" if r.ok else "FAIL"
        print(f"{r.name:<{width}s} worst rel err {r.worst_rel_error:.3e}  "
              f"failures {r.failures:3d}  [{status}]")
        ok = ok and r.ok
    return 0 if ok else 1


def _cmd_synth(args) -> int:
    frames, boxes = _synthetic_sequence(args.seed, args)
    save_sequence(args.out, frames, boxes)
    print(f"wrote {len(frames)} frames to {args.out}")
    return 0


def _cmd_train_toy(args) -> int:
    settings = _configured(TrainSettings(), args)
    if args.seq:
        ignored = ["--" + name.replace("_", "-") for name in _given_seq_args(args)]
        if ignored:
            raise ConfigurationError(f"{', '.join(ignored)} only shape a synthetic "
                                     f"sequence and cannot be used with --seq")
        frames, boxes = load_sequence(args.seq)
    else:
        frames, boxes = _synthetic_sequence(settings.seed, args)
    # a small geometry, so a toy run finishes quickly
    config = _configured(TrackerConfig(template_size=64, search_size=128), args)
    model = build_model(np.random.default_rng(settings.seed), config)
    history = train_toy(model, config, frames, boxes, settings,
                        log=lambda msg: print(msg))
    save_model(args.out, model, config)
    print(f"final loss {history[-1]:.4f} (start {history[0]:.4f}); "
          f"checkpoint -> {args.out}")
    if args.loss_log:
        with open(args.loss_log, "w") as fh:
            for v in history:
                fh.write(f"{v!r}\n")
    return 0


def _cmd_track(args) -> int:
    model, config, frames, boxes = _load_for_tracking(args)
    if args.metrics and len(boxes) < len(frames):
        raise ValueError(f"ground truth has {len(boxes)} boxes for "
                         f"{len(frames)} frames")
    results = track_sequence(model, config, frames, boxes[0])
    write_rect_file(args.out, results)
    print(f"wrote {len(results)} boxes to {args.out}")
    if args.metrics:
        metrics = evaluate(results, boxes[:len(results)])
        with open(args.metrics, "w") as fh:
            json.dump(metrics.to_dict(), fh, indent=2)
        print(f"mean IoU {metrics.mean_iou:.4f}  AUC {metrics.auc:.4f}")
    return 0


def _cmd_eval(args) -> int:
    pred = read_rect_file(args.pred)
    truth = read_rect_file(args.truth)
    metrics = evaluate(pred, truth)
    payload = json.dumps(metrics.to_dict(), indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    return 0


def _run_to_frame(args, model, config, frames, boxes):
    """Shared tail for the dump commands: track up to --frame, tracing the
    init (encoder attention happens once, there) and --frame itself."""
    if len(frames) < 2:
        raise ValueError(f"sequence has {len(frames)} frame(s); dumps need at "
                         "least 2, since frame 0 only initializes the tracker")
    if not 1 <= args.frame < len(frames):
        raise ValueError(f"--frame {args.frame} is outside 1..{len(frames) - 1} "
                         f"for a sequence of {len(frames)} frames")
    tracker = Tracker(model, config)
    trace = AttentionTrace()
    tracker.init(frames[0], boxes[0], trace=trace)
    for frame in frames[1:args.frame]:
        tracker.track(frame)
    _, diag = tracker.track(frames[args.frame], trace=trace)
    return trace, diag


def _cmd_dump_attn(args) -> int:
    model, config, frames, boxes = _load_for_tracking(args)
    # a traced site holds one map per head: the tracker decodes one crop
    sites = attention_sites(config.n_encoder_layers, config.n_decoder_layers)
    if args.site not in sites:
        raise ValueError(f"unknown attention site {args.site!r}; available: "
                         f"{sorted(sites)}")
    if not 0 <= args.head < config.n_heads:
        raise ValueError(f"head index out of range (0..{config.n_heads - 1})")
    trace, _ = _run_to_frame(args, model, config, frames, boxes)
    weights = trace.maps[args.site][args.head]
    write_csv(args.out_prefix + ".csv", weights)
    write_pgm(args.out_prefix + ".pgm", weights, normalize="row")
    print(f"wrote {args.out_prefix}.csv and .pgm "
          f"({weights.shape[0]}x{weights.shape[1]})")
    return 0


def _cmd_dump_heatmap(args) -> int:
    _, diag = _run_to_frame(args, *_load_for_tracking(args))
    outputs = [("raw", diag.score_map), ("windowed", diag.windowed_map)]
    if diag.blended_map is not None:
        outputs.append(("blended", diag.blended_map))
    if diag.online_map is not None:
        outputs.append(("online", diag.online_map))
    for tag, values in outputs:
        write_csv(f"{args.out_prefix}_{tag}.csv", values)
        write_pgm(f"{args.out_prefix}_{tag}.pgm", values, normalize="global")
    print(f"wrote {len(outputs)} map(s) with prefix {args.out_prefix}_")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="attntrack",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic sequence")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_seq_args(p)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("train-toy", help="train on a toy sequence")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--seq", help="sequence dir (default: generate synthetic)")
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--loss-log", help="write per-step losses to this file")
    _add_model_args(p)
    _add_seq_args(p)
    p.set_defaults(fn=_cmd_train_toy)

    p = sub.add_parser("track", help="track a sequence")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--out", required=True, help="results rectangle file")
    p.add_argument("--metrics", help="write metrics JSON here")
    _add_override_args(p)
    p.set_defaults(fn=_cmd_track)

    p = sub.add_parser("eval", help="score results against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_eval)

    for name, fn in (("dump-attn", _cmd_dump_attn),
                     ("dump-heatmap", _cmd_dump_heatmap)):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} for one frame")
        p.add_argument("--ckpt", required=True)
        p.add_argument("--seq", required=True)
        p.add_argument("--frame", type=int, default=1)
        p.add_argument("--out-prefix", required=True)
        _add_override_args(p)
        if name == "dump-attn":
            p.add_argument("--site", default="decoder0.cross",
                           help="encoder0.self | decoder0.self | decoder0.cross ...")
            p.add_argument("--head", type=int, default=0)
        p.set_defaults(fn=fn)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit status. A command that fails
    prints one ``attntrack: error: ...`` line to stderr: status 2 for a
    rejected setting, 1 for unusable input (a malformed or missing file, a
    box or sequence the tracker cannot use), for training that diverged and
    for an allocation that failed. A reader that closes stdout early
    (``attntrack eval ... | head -n 1``) ends the command with status 1 and
    no message, as a SIGPIPE would; files already written stay."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _keep_freed_memory()
    try:
        status = args.fn(args)
        sys.stdout.flush()          # a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        _drop_stdout()
        return 1
    except (ValueError, TrackingError, TrainingDivergence, OSError,
            MemoryError) as exc:
        print(f"{parser.prog}: error: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return 2 if isinstance(exc, ConfigurationError) else 1


if __name__ == "__main__":
    sys.exit(main())
