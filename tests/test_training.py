"""Schedule, train-step semantics, stitching, checkpoints, and transfer."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dodnet import training
from dodnet.data import Dataset, PhantomSpec, build_dataset, default_recipes
from dodnet.losses import TaskDescriptor
from dodnet.model import DodNet, MultiHeadNet, desk_config
from dodnet.ops import sigmoid_array
from dodnet.optim import SGDMomentum
from dodnet.tensor import Tape, Tensor, backward
from dodnet.training import (
    CheckpointData,
    TrainConfig,
    TrainingDiverged,
    batch_loss,
    evaluate,
    load_checkpoint,
    model_from_checkpoint,
    poly_lr,
    restore_into,
    save_checkpoint,
    sliding_window_predict,
    train,
    train_step,
    transfer_init,
    _window_starts,
)

from oracles import sliding_positions_oracle

TINY = desk_config(num_tasks=2, base_channels=4)
PATCH = (8, 16, 16)


def tiny_dataset(train_n=2, test_n=1, **spec_overrides) -> Dataset:
    spec = PhantomSpec(recipes=default_recipes(2), **spec_overrides)
    return build_dataset(spec, train_n, test_n, shape=(12, 16, 16))


def tiny_batch(rng, task=None, n=2):
    task = task or TaskDescriptor(1, "alpha")
    batch = []
    for _ in range(n):
        img = rng.normal(size=PATCH).astype(np.float32)
        lbl = rng.integers(0, 3, size=PATCH).astype(np.uint8)
        batch.append((img, lbl, task))
    return batch


class TestPolyLr:
    def test_initial_value(self):
        assert poly_lr(0, 100) == 0.01

    def test_final_value(self):
        assert poly_lr(100, 100) == 0.0

    def test_pinned_midpoint(self):
        assert math.isclose(poly_lr(50, 100, 0.01), 0.0053589, rel_tol=1e-4)
        assert math.isclose(poly_lr(50, 100, 0.01), 0.01 * 0.5**0.9, rel_tol=1e-12)

    def test_monotone_non_increasing(self):
        values = [poly_lr(k, 37, 0.01) for k in range(38)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            poly_lr(11, 10)
        with pytest.raises(ValueError, match="outside"):
            poly_lr(-1, 10)


class TestTrainStep:
    def test_duplicated_sample_matches_single(self):
        rng = np.random.default_rng(0)
        img = rng.normal(size=PATCH).astype(np.float32)
        lbl = rng.integers(0, 3, size=PATCH).astype(np.uint8)
        task = TaskDescriptor(1, "alpha")
        m1 = DodNet(TINY, seed=1)
        m2 = DodNet(TINY, seed=1)
        o1 = SGDMomentum(m1.named_parameters())
        o2 = SGDMomentum(m2.named_parameters())
        single = train_step(m1, [(img, lbl, task)], o1, lr=0.0)
        double = train_step(m2, [(img, lbl, task), (img, lbl, task)], o2, lr=0.0)
        assert math.isclose(single, double, rel_tol=1e-6)

    def test_zero_lr_freezes_parameters(self):
        model = DodNet(TINY, seed=2)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        opt = SGDMomentum(model.named_parameters())
        train_step(model, tiny_batch(np.random.default_rng(1)), opt, lr=0.0)
        for name, p in model.named_parameters():
            assert np.array_equal(p.data, before[name]), name

    def test_parameters_move_with_positive_lr(self):
        model = DodNet(TINY, seed=2)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        opt = SGDMomentum(model.named_parameters())
        train_step(model, tiny_batch(np.random.default_rng(1)), opt, lr=0.01)
        moved = [
            n for n, p in model.named_parameters() if not np.array_equal(p.data, before[n])
        ]
        assert moved

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_loss_aborts(self):
        model = DodNet(TINY, seed=3)
        model.controller.bias.data[:] = np.inf
        opt = SGDMomentum(model.named_parameters())
        with pytest.raises(TrainingDiverged, match="non-finite"):
            train_step(model, tiny_batch(np.random.default_rng(2)), opt, lr=0.01)

    def test_non_finite_gradient_aborts_before_the_update(self, monkeypatch):
        model = DodNet(TINY, seed=3)
        opt = SGDMomentum(model.named_parameters())
        train_step(model, tiny_batch(np.random.default_rng(2)), opt, lr=0.01)
        params = {n: p.data.copy() for n, p in model.named_parameters()}
        velocity = {n: v.copy() for n, v in opt.velocity.items()}

        def backward_then_poison(loss):
            backward(loss)
            model.controller.weight.grad[0, 0] = np.nan

        monkeypatch.setattr(training, "backward", backward_then_poison)
        with pytest.raises(TrainingDiverged, match="non-finite gradient of 'controller.weight'"):
            train_step(model, tiny_batch(np.random.default_rng(4)), opt, lr=0.01)
        for name, p in model.named_parameters():
            assert np.array_equal(p.data, params[name]), name
            assert np.array_equal(opt.velocity[name], velocity[name]), name

    def test_empty_batch_rejected(self):
        model = DodNet(TINY, seed=0)
        opt = SGDMomentum(model.named_parameters())
        with pytest.raises(ValueError, match="empty"):
            train_step(model, [], opt, lr=0.01)

    def test_unlabeled_channel_gradient_zero_end_to_end(self):
        # tumor-only supervision must leave the organ-channel logits untouched
        model = DodNet(TINY, seed=4)
        colon = TaskDescriptor(1, "colon", has_organ=False, has_tumor=True)
        with Tape():
            loss, logits = batch_loss(model, tiny_batch(np.random.default_rng(3), colon))
            backward(loss)
        assert np.all(logits.grad[:, 0] == 0.0)
        assert np.any(logits.grad[:, 1] != 0.0)

    def test_labeled_organ_only_mirror(self):
        model = DodNet(TINY, seed=4)
        spleen = TaskDescriptor(2, "spleen", has_organ=True, has_tumor=False)
        batch = tiny_batch(np.random.default_rng(4), spleen)
        batch = [(img, np.where(lbl == 2, 1, lbl), t) for img, lbl, t in batch]
        with Tape():
            loss, logits = batch_loss(model, batch)
            backward(loss)
        assert np.all(logits.grad[:, 1] == 0.0)
        assert np.any(logits.grad[:, 0] != 0.0)


class TestSlidingWindow:
    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, n))
        )
    )
    def test_starts_match_oracle(self, extent_window):
        extent, window = extent_window
        assert _window_starts(extent, window) == sliding_positions_oracle(extent, window)

    def test_single_window_equals_direct_forward(self):
        model = DodNet(TINY, seed=5)
        rng = np.random.default_rng(6)
        vol = rng.normal(size=PATCH).astype(np.float32)
        probs = sliding_window_predict(model, vol, 0, PATCH)
        logits = model(Tensor(vol[None, None]), 0)
        direct = sigmoid_array(logits.data[0].astype(np.float64)).astype(np.float32)
        assert np.array_equal(probs, direct)

    def test_stitching_matches_accumulate_oracle(self):
        model = DodNet(TINY, seed=7)
        rng = np.random.default_rng(8)
        vol = rng.normal(size=(12, 24, 16)).astype(np.float32)
        window = (8, 16, 16)
        got = sliding_window_predict(model, vol, 1, window)
        accum = np.zeros((2,) + vol.shape)
        counts = np.zeros(vol.shape)
        for z in sliding_positions_oracle(12, 8):
            for y in sliding_positions_oracle(24, 16):
                for x in sliding_positions_oracle(16, 16):
                    sl = (slice(z, z + 8), slice(y, y + 16), slice(x, x + 16))
                    logits = model(Tensor(vol[sl][None, None]), 1)
                    accum[(slice(None),) + sl] += sigmoid_array(
                        logits.data[0].astype(np.float64)
                    )
                    counts[sl] += 1.0
        # atol absorbs saturated probabilities smaller than float32 can hold
        np.testing.assert_allclose(got, accum / counts, rtol=1e-6, atol=1e-9)

    def test_oversized_window_rejected(self):
        model = DodNet(TINY, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            sliding_window_predict(model, np.zeros((8, 16, 16), dtype=np.float32), 0, (16, 16, 16))


class TestTrainLoop:
    def test_deterministic_loss_sequence(self):
        losses = []
        for _ in range(2):
            model = DodNet(TINY, seed=11)
            ds = tiny_dataset()
            cfg = TrainConfig(max_epoch=2, steps_per_epoch=5, batch_size=2, patch=PATCH, seed=3)
            losses.append(train(model, ds, cfg).losses)
        assert losses[0] == losses[1]
        assert len(losses[0]) == 10

    def test_artifacts_written(self, tmp_path):
        model = DodNet(TINY, seed=12)
        ds = tiny_dataset()
        cfg = TrainConfig(
            max_epoch=2, steps_per_epoch=2, batch_size=1, patch=PATCH, seed=0, eval_every=2
        )
        result = train(model, ds, cfg, out_dir=tmp_path)
        assert (tmp_path / "final.ckpt").exists()
        assert (tmp_path / "best.ckpt").exists()
        assert (tmp_path / "metrics.log").exists()
        assert len(result.losses) == 4
        assert result.eval_history, "eval_every=2 over 2 epochs must evaluate once"
        structures = {"alpha/organ", "alpha/tumor", "beta/organ", "beta/tumor"}
        _, metrics = result.eval_history[-1]
        assert set(metrics) == structures
        eval_lines = [l for l in result.metric_lines if ",eval," in l]
        assert len(eval_lines) == len(structures)

    def test_single_task_dataset_trains(self):
        spec = PhantomSpec(recipes=default_recipes(1))
        ds = build_dataset(spec, 2, 0, shape=(12, 16, 16))
        model = DodNet(desk_config(num_tasks=1, base_channels=4), seed=0)
        cfg = TrainConfig(max_epoch=1, steps_per_epoch=2, batch_size=1, patch=PATCH)
        assert len(train(model, ds, cfg).losses) == 2

    def test_empty_dataset_rejected(self):
        spec = PhantomSpec(recipes=default_recipes(1))
        ds = Dataset(spec=spec, shape=(8, 16, 16))
        ds.samples[1] = {"train": [], "test": []}
        model = DodNet(desk_config(num_tasks=1, base_channels=4), seed=0)
        with pytest.raises(ValueError, match="no training samples"):
            train(model, ds, TrainConfig(max_epoch=1))


class TestEvaluate:
    def test_metric_keys_follow_task_flags(self):
        recipes = default_recipes(2)
        import dataclasses

        colon_task = dataclasses.replace(recipes[1].task, has_organ=False)
        recipes = (recipes[0], dataclasses.replace(recipes[1], task=colon_task))
        ds = build_dataset(PhantomSpec(recipes=recipes), 1, 1, shape=(12, 16, 16))
        model = DodNet(TINY, seed=13)
        metrics = evaluate(model, ds, window=PATCH)
        assert set(metrics) == {"alpha/organ", "alpha/tumor", "beta/tumor"}
        assert all(0.0 <= v <= 1.0 for v in metrics.values())


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        model = DodNet(TINY, seed=14)
        opt = SGDMomentum(model.named_parameters())
        train_step(model, tiny_batch(np.random.default_rng(5)), opt, lr=0.01)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, opt, step=17)
        ckpt = load_checkpoint(path)
        assert ckpt.step == 17
        for name, p in model.named_parameters():
            assert np.array_equal(ckpt.params[name], p.data), name
        for name, v in opt.state_arrays().items():
            assert np.array_equal(ckpt.opt_state[name], v), name

    def test_rebuilt_model_forward_identical(self, tmp_path):
        model = DodNet(TINY, seed=15)
        save_checkpoint(tmp_path / "m.ckpt", model)
        clone = model_from_checkpoint(load_checkpoint(tmp_path / "m.ckpt"))
        x = Tensor(np.random.default_rng(7).normal(size=(1, 1) + PATCH).astype(np.float32))
        assert np.array_equal(model(x, 0).data, clone(x, 0).data)

    def test_checkpoint_without_optimizer_loads(self, tmp_path):
        model = DodNet(TINY, seed=16)
        save_checkpoint(tmp_path / "m.ckpt", model)
        ckpt = load_checkpoint(tmp_path / "m.ckpt")
        assert ckpt.opt_state is None
        model_from_checkpoint(ckpt)

    def test_shape_mismatch_names_first_block(self, tmp_path):
        small = DodNet(TINY, seed=0)
        save_checkpoint(tmp_path / "s.ckpt", small)
        big = DodNet(desk_config(num_tasks=2, base_channels=8), seed=0)
        with pytest.raises(ValueError, match="encoder.blocks.0.conv1.weight"):
            restore_into(big, load_checkpoint(tmp_path / "s.ckpt"))

    def test_missing_block_rejected(self, tmp_path):
        dod = DodNet(TINY, seed=0)
        save_checkpoint(tmp_path / "d.ckpt", dod)
        mh = MultiHeadNet(TINY, seed=0)
        with pytest.raises(ValueError, match="missing parameter block"):
            restore_into(mh, load_checkpoint(tmp_path / "d.ckpt"))

    def test_unexpected_block_rejected(self, tmp_path):
        model = DodNet(TINY, seed=0)
        save_checkpoint(tmp_path / "m.ckpt", model)
        ckpt = load_checkpoint(tmp_path / "m.ckpt")
        ckpt.params["stray.weight"] = np.zeros(3, dtype=np.float32)
        with pytest.raises(ValueError, match="unexpected parameter block"):
            restore_into(model, ckpt)

    def test_rejected_checkpoint_leaves_model_untouched(self, tmp_path):
        save_checkpoint(tmp_path / "m.ckpt", DodNet(TINY, seed=1))
        ckpt = load_checkpoint(tmp_path / "m.ckpt")
        del ckpt.params["controller.bias"]
        model = DodNet(TINY, seed=2)
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        with pytest.raises(ValueError, match="missing parameter block 'controller.bias'"):
            restore_into(model, ckpt)
        for name, p in model.named_parameters():
            assert np.array_equal(p.data, before[name]), name

    def test_non_finite_block_rejected_before_any_copy(self, tmp_path):
        save_checkpoint(tmp_path / "m.ckpt", DodNet(TINY, seed=1))
        ckpt = load_checkpoint(tmp_path / "m.ckpt")
        ckpt.params["controller.bias"][3] = np.nan
        model = DodNet(TINY, seed=2)
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        with pytest.raises(ValueError, match="'controller.bias' holds non-finite"):
            restore_into(model, ckpt)
        for name, p in model.named_parameters():
            assert np.array_equal(p.data, before[name]), name

    def test_interrupted_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, DodNet(TINY, seed=1))
        old = path.read_bytes()
        written = []
        real_write_record = training._write_record

        def write_then_fail(fh, name, array):
            if len(written) == 3:
                raise OSError("disk full")
            written.append(name)
            real_write_record(fh, name, array)

        monkeypatch.setattr(training, "_write_record", write_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, DodNet(TINY, seed=2))
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]

    def test_bad_magic_rejected(self, tmp_path):
        bad = tmp_path / "x.ckpt"
        bad.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(bad)

    def test_unsupported_version_rejected(self, tmp_path):
        model = DodNet(TINY, seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (9).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version 9"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = DodNet(TINY, seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)


class TestTransfer:
    def test_backbone_copied_controller_fresh(self, tmp_path):
        source = DodNet(TINY, seed=20)
        save_checkpoint(tmp_path / "pre.ckpt", source)
        ckpt = load_checkpoint(tmp_path / "pre.ckpt")
        model = transfer_init(ckpt, TINY, seed=99)
        for name, p in model.named_parameters():
            if name.startswith(("encoder.", "decoder.")):
                assert np.array_equal(p.data, ckpt.params[name]), name
        assert not np.array_equal(
            model.controller.weight.data, ckpt.params["controller.weight"]
        )

    def test_downstream_task_count_may_differ(self, tmp_path):
        source = DodNet(TINY, seed=21)
        save_checkpoint(tmp_path / "pre.ckpt", source)
        downstream = desk_config(num_tasks=1, base_channels=4)
        model = transfer_init(load_checkpoint(tmp_path / "pre.ckpt"), downstream)
        assert model.controller.weight.shape[1] == TINY.bottleneck_channels + 1

    def test_backbone_mismatch_rejected(self, tmp_path):
        source = DodNet(TINY, seed=22)
        save_checkpoint(tmp_path / "pre.ckpt", source)
        wider = desk_config(num_tasks=2, base_channels=8)
        with pytest.raises(ValueError, match="backbone block"):
            transfer_init(load_checkpoint(tmp_path / "pre.ckpt"), wider)

    def test_non_finite_backbone_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "pre.ckpt", DodNet(TINY, seed=23))
        ckpt = load_checkpoint(tmp_path / "pre.ckpt")
        ckpt.params["decoder.out_conv.weight"].flat[0] = np.inf
        with pytest.raises(ValueError, match="'decoder.out_conv.weight' holds non-finite"):
            transfer_init(ckpt, TINY)


class TestTrainConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="lr_init"):
            TrainConfig(max_epoch=1, lr_init=0.0)
        for lr in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="lr_init"):
                TrainConfig(max_epoch=1, lr_init=lr)
        with pytest.raises(ValueError, match="max_epoch"):
            TrainConfig(max_epoch=0)
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(max_epoch=1, batch_size=0)
        with pytest.raises(ValueError, match="patch"):
            TrainConfig(max_epoch=1, patch=(0, 8, 8))
