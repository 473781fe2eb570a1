"""attntrack benchmark: one seeded workload, measured for a fixed time.

    python3 perfbench/run.py --workload track-offline-255 --seed 0 \
        --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run instead, and
the spans are written to ``perfbench/runs/``. ``--smoke`` shrinks every
workload to a few frames or steps. The line before the result, prefixed
``report``, records the environment, sample counts, tail percentiles, box
digests and failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# pin BLAS before numpy loads it: the benchmark measures one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = BENCH_DIR / "runs"


def _import_package() -> None:
    """Put the checkout's ``src/`` first on the path, or exit non-zero."""
    package = SRC / "attntrack"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a "
                 f"checkout that holds the attntrack sources")
    sys.path.insert(0, str(SRC))
    import attntrack
    if Path(attntrack.__file__).resolve().parent != package:
        sys.exit(f"error: imported attntrack from {attntrack.__file__}, "
                 f"not from {package}")


def main(argv: list[str] | None = None) -> int:
    _import_package()
    import shutil
    import tempfile
    import time

    from report import end_to_end, environment, per_layer
    from tracing import Tracer
    from workloads import WORKLOADS, Run

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few frames or steps per workload")
    args = parser.parse_args(argv)

    env = environment()
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RUNS_DIR))
    try:
        run = Run(workload, args.seed, args.smoke, workdir, tracer)
        with run.probes:
            if tracer:
                tracer.enabled = True
            setup_start = time.perf_counter()
            run.setup()
            setup_wall = time.perf_counter() - setup_start
            setup_spans = len(tracer.spans) if tracer else 0

            # whole cycles over the sequences until the time is up, so every
            # sequence weighs the same in a run's figures; a traced run takes
            # each sequence twice in a row, untraced then traced, so each
            # pair measures the tracing overhead on the same work
            episodes = []      # (traced, sequence, wall seconds)
            per_seq = 2 if tracer else 1
            cycle = per_seq * run.sizes.sequences
            start = time.perf_counter()
            while (not episodes or len(episodes) % cycle
                   or time.perf_counter() - start < args.seconds):
                index = len(episodes)
                traced = bool(tracer) and index % 2 == 1
                seq = (index // per_seq) % run.sizes.sequences
                if tracer:
                    tracer.enabled = traced
                begin = time.perf_counter()
                run.episode(seq)
                episodes.append((traced, seq, time.perf_counter() - begin))
                if not tracer and len(episodes) % cycle == 0:
                    # set up again after every cycle and at the end, so
                    # setup_s samples the machine across the whole run
                    run.setup(1)
            if tracer:
                tracer.enabled = False
            else:
                run.setup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    s = run.samples
    correct = s.failed == 0 and len(s.digests) == run.sizes.sequences
    if tracer:
        metrics, extra = per_layer(run, tracer, setup_spans, setup_wall, episodes)
        spans_path = RUNS_DIR / f"spans-{workload.name}-s{args.seed}.jsonl"
        tracer.write(spans_path)
        extra["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, extra = end_to_end(run)
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "env": env,
        "episodes": len(episodes), "box_digest": run.run_digest(),
        "sequence_digests": s.digests, "failures": s.failures, **extra,
    }
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": correct, "attempted": max(s.attempted, 1),
        "failed": s.failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
