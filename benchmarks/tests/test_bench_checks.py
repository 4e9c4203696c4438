"""Each correctness check of the benchmark rejects a deliberately wrong input.

    python3 -m pytest benchmarks/tests -q

Every test first shows the check accepting the right input, so a check that
rejects everything cannot pass.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import common  # noqa: E402

common.pin_threads()
common.import_program()

import numpy as np  # noqa: E402

from dodnet import data, training  # noqa: E402
from dodnet.bench import count_flops  # noqa: E402
from dodnet.model import build_model, desk_config  # noqa: E402
from dodnet.tensor import Tape, Tensor, backward  # noqa: E402

import checks  # noqa: E402
import mix  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CONFIG = desk_config(num_tasks=mix.NUM_TASKS)


def _sweep(tmp_path, monkeypatch, checkpoint):
    monkeypatch.setattr(common, "CHECKPOINT", checkpoint)
    sweep = workloads.Sweep(seed=3, work_dir=tmp_path)
    sweep.setup()
    sweep.round()
    return sweep


def test_trained_checkpoint_clears_the_dice_bound(tmp_path, monkeypatch):
    sweep = _sweep(tmp_path, monkeypatch, common.CHECKPOINT)
    sweep.check()
    assert sweep.notes[0].count("=") == 11


def test_untrained_checkpoint_fails_the_dice_bound(tmp_path, monkeypatch):
    untrained = tmp_path / "untrained.ckpt"
    training.save_checkpoint(untrained, build_model("dodnet", CONFIG, seed=0))
    sweep = _sweep(tmp_path, monkeypatch, untrained)
    with pytest.raises(checks.CheckFailed, match="Dice below"):
        sweep.check()


def test_tiling_that_drops_a_window_fails_the_tiling_check():
    model = build_model("dodnet", CONFIG, seed=0)
    image = np.random.default_rng(0).normal(size=mix.SHAPE).astype(np.float32)

    def logits_of(tile):
        return model(Tensor(tile[None, None]), 2).data[0]

    windows = checks.tiles(mix.SHAPE, mix.WINDOW)
    assert len(windows) == 8
    reference = checks.reference_sweep(logits_of, image, windows)
    checks.check_tiling(reference, training.sliding_window_predict(model, image, 2, mix.WINDOW))
    for dropped in range(len(windows)):
        kept = windows[:dropped] + windows[dropped + 1:]
        candidate = checks.reference_sweep(logits_of, image, kept)
        with pytest.raises(checks.CheckFailed):
            checks.check_tiling(reference, candidate)


def test_conv_left_out_of_the_trace_fails_the_mac_total():
    model = build_model("dodnet", CONFIG, seed=0)
    x = Tensor(np.random.default_rng(1).normal(size=(1, 1) + mix.SHAPE).astype(np.float32))
    tracer = spans.Tracer()
    tracer.install()
    try:
        model.segment_all_tasks(x)
    finally:
        tracer.uninstall()
    expected = {"dodnet": count_flops(CONFIG, mix.SHAPE, "dodnet", mix.NUM_TASKS).total_macs}
    assert expected["dodnet"] == 573_353_154
    everything = range(len(tracer))
    checks.check_mac_totals(spans.Analysis(tracer).macs_per_pass(everything), expected)

    conv = next(i for i, n in enumerate(tracer.names) if n.startswith("ops.conv3d_"))
    tracer.names[conv] = "untraced"
    with pytest.raises(checks.CheckFailed, match="MAC total"):
        checks.check_mac_totals(spans.Analysis(tracer).macs_per_pass(everything), expected)


def test_sign_flipped_gradient_fails_the_finite_difference_check():
    ds = data.build_dataset(mix.phantom_spec(0), per_task_train=1, shape=mix.SHAPE)
    task = ds.tasks[0]
    rng = np.random.default_rng(0)
    batch = [(*data.sample_patch(ds.split(1, "train")[0], mix.PATCH, rng), task)] * mix.BATCH
    model = build_model("dodnet", CONFIG, seed=0)
    named = model.named_parameters()
    for _, p in named:
        p.data = p.data.astype(np.float64)
    with Tape():
        loss, _ = training.batch_loss(model, batch)
        backward(loss)
    params = [p.data for _, p in named]
    grads = [p.grad for _, p in named]

    def loss_at():
        return float(training.batch_loss(model, batch)[0].data)

    checks.check_directional_derivative(loss_at, params, grads, np.random.default_rng(5))
    with pytest.raises(checks.CheckFailed, match="finite difference"):
        checks.check_directional_derivative(
            loss_at, params, [-g for g in grads], np.random.default_rng(5)
        )
