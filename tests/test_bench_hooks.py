"""The benchmark's tracer can still hook the program.

``perfbench/tracing.py`` wraps functions by attribute name on the modules
that look them up (for example ``attntrack.pipeline.train.encode``). A
name that goes missing makes ``install`` raise ``AttributeError`` and
breaks every traced benchmark run, so the contract is checked here.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Probes, Tracer

    probes = Probes(Tracer()).install()
    probes.uninstall()
    assert not probes._saved


def test_traced_training_step_records_both_decoder_attention_spans(monkeypatch):
    # the tracer tells decoder self- from cross-attention only by
    # ``inputs.xq is inputs.xkv`` inside ``multi_head_attention``, so the
    # batched decoder must still make both kinds of call through it; it
    # times ``sample_training_pair`` and ``pair_loss`` through wrappers
    # that pass the training step's arguments on unchanged
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import numpy as np
    from tracing import Probes, Tracer

    from attntrack.pipeline import (SequenceSpec, TrackerConfig, TrainSettings,
                                    build_model, generate_synthetic_sequence,
                                    train_toy)

    frames, boxes = generate_synthetic_sequence(0, 3, SequenceSpec())
    config = TrackerConfig(template_size=48, search_size=96, d=8, n_heads=2,
                           c_mid=8)
    model = build_model(np.random.default_rng(0), config)
    tracer = Tracer()
    with Probes(tracer):
        tracer.enabled = True
        train_toy(model, config, frames, boxes, TrainSettings(steps=1))
        tracer.enabled = False
    names = {span[0] for span in tracer.spans}
    assert {"attention.decoder_self", "attention.decoder_cross",
            "attention.encoder_self", "pipeline.train.forward",
            "pipeline.train.sample", "loss.pair"} <= names


def test_traced_online_track_records_solves_and_counters(monkeypatch):
    # the tracer counts CG iterations and objective values by wrapping
    # ``attntrack.online.conjugate_gradient`` and ``attntrack.online.objective``,
    # which ``solve_cg`` must keep looking up as module globals, and it times
    # each solve through the ``solve_cg`` that ``tracker.py`` imports by name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import numpy as np
    from tracing import Probes, Tracer

    from attntrack.pipeline import (SequenceSpec, Tracker, TrackerConfig,
                                    build_model, generate_synthetic_sequence)

    frames, boxes = generate_synthetic_sequence(0, 3, SequenceSpec())
    config = TrackerConfig(template_size=48, search_size=96, d=8, n_heads=2,
                           c_mid=8, online=True, memory_capacity=4,
                           online_init_gn_steps=2)
    model = build_model(np.random.default_rng(0), config)
    tracer = Tracer()
    with Probes(tracer):
        tracer.enabled = True
        tracker = Tracker(model, config)
        tracker.init(frames[0], boxes[0])
        for frame in frames[1:]:
            tracker.track(frame)
        tracer.enabled = False
    names = [span[0] for span in tracer.spans]
    assert "online.solve" in names
    assert tracer.counters["online.cg_iters"] > 0
    assert tracer.counters["online.objective_evals"] > 0
