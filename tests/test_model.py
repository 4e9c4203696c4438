"""Architecture contracts: shapes, head generation, task conditioning, baselines."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dodnet import ops
from dodnet.model import (
    CondInputNet,
    DodNet,
    ModelConfig,
    MultiHeadNet,
    build_model,
    desk_config,
    dynamic_head,
    encode_task,
    head_layer_shapes,
    head_param_count,
    full_config,
    split_kernels,
)
from dodnet.tensor import Tape, Tensor, backward


class TestConfig:
    def test_channel_schedule_full_size(self):
        assert full_config().channel_schedule() == (32, 64, 128, 256, 512)

    def test_bottleneck_channels(self):
        assert full_config().bottleneck_channels == 512
        assert desk_config().bottleneck_channels == 32

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError, match="positive"):
            ModelConfig(num_tasks=0)

    def test_rejects_shallow_head(self):
        with pytest.raises(ValueError, match="head_depth"):
            ModelConfig(num_tasks=2, head_depth=1)

    def test_rejects_indivisible_group_norm(self):
        with pytest.raises(ValueError, match="group-norm"):
            ModelConfig(num_tasks=2, base_channels=6, gn_groups=4)


class TestHeadParamCount:
    def test_default_head(self):
        assert head_param_count(desk_config()) == 162

    def test_depth_two(self):
        assert head_param_count(desk_config(head_depth=2)) == 90

    def test_width_sixteen(self):
        assert head_param_count(desk_config(head_width=16)) == 450

    def test_layer_shapes(self):
        assert head_layer_shapes(desk_config()) == [(8, 8), (8, 8), (8, 2)]


class TestEncodeTask:
    def test_one_hot_position(self):
        np.testing.assert_array_equal(
            encode_task(3, 7), [0, 0, 0, 1, 0, 0, 0]
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            encode_task(7, 7)
        with pytest.raises(ValueError, match="out of range"):
            encode_task(-1, 7)

    @given(st.integers(1, 16).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m - 1))))
    def test_sums_to_one(self, m_and_t):
        m, t = m_and_t
        code = encode_task(t, m)
        assert code.sum() == 1.0 and code[t] == 1.0


class TestSplitKernels:
    def test_slice_lengths_default_config(self):
        cfg = desk_config()
        omega = Tensor(np.arange(162, dtype=np.float32).reshape(1, 162))
        kernels = split_kernels(omega, cfg)
        sizes = []
        for w, b in kernels:
            sizes.append(w.size)
            sizes.append(b.size)
        assert sizes == [64, 8, 64, 8, 16, 2]

    def test_flatten_round_trip(self):
        cfg = desk_config(head_depth=4, head_width=8)
        rng = np.random.default_rng(0)
        omega = Tensor(rng.normal(size=(3, head_param_count(cfg))).astype(np.float32))
        parts = []
        for w, b in split_kernels(omega, cfg):
            parts += [w.data.reshape(3, -1), b.data]
        np.testing.assert_array_equal(np.concatenate(parts, axis=1), omega.data)

    def test_row_major_out_channel_major_layout(self):
        cfg = desk_config()
        omega = Tensor(np.arange(162, dtype=np.float32).reshape(1, 162))
        w1, b1 = split_kernels(omega, cfg)[0]
        # first row of the first weight block is the first C_in scalars
        np.testing.assert_array_equal(w1.data[0, 0], np.arange(8))
        np.testing.assert_array_equal(b1.data[0], np.arange(64, 72))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="162"):
            split_kernels(Tensor(np.zeros((1, 100))), desk_config())


class TestDynamicHead:
    def test_hand_computed_two_layer_path(self):
        # Width-1 head on constant features: relu(1*2+0)=2, relu(2-1)=1,
        # output rows (1, 0) and (-1, 0) give logits (1, -1) everywhere.
        features = Tensor(np.full((1, 1, 2, 2, 2), 2.0))
        kernels = (
            (Tensor(np.ones((1, 1, 1))), Tensor(np.zeros((1, 1)))),
            (Tensor(np.ones((1, 1, 1))), Tensor(np.full((1, 1), -1.0))),
            (Tensor(np.array([1.0, -1.0]).reshape(1, 2, 1)), Tensor(np.zeros((1, 2)))),
        )
        out = dynamic_head(features, kernels).data
        np.testing.assert_allclose(out[0, 0], 1.0)
        np.testing.assert_allclose(out[0, 1], -1.0)


class TestEncoderDecoderShapes:
    def test_full_scale_shape_arithmetic(self):
        cfg = full_config()
        extents = (64, 192, 192)
        sched = cfg.channel_schedule()
        shapes = [
            (sched[lvl],) + tuple(e // 2**lvl for e in extents)
            for lvl in range(cfg.num_downsamples + 1)
        ]
        assert shapes[-1] == (512, 4, 12, 12)

    def test_desk_forward_shapes(self):
        model = DodNet(desk_config(), seed=0)
        x = Tensor(np.zeros((2, 1, 16, 32, 32), dtype=np.float32))
        logits, internals = model.forward(x, 0, return_internals=True)
        assert logits.shape == (2, 2, 16, 32, 32)
        assert internals["seg_features"].shape == (2, 8, 16, 32, 32)
        levels = internals["pyramid"]
        assert [lvl.shape for lvl in levels] == [
            (2, 8, 16, 32, 32),
            (2, 16, 8, 16, 16),
            (2, 32, 4, 8, 8),
        ]

    def test_four_level_encoder_bottleneck(self):
        cfg = ModelConfig(num_tasks=1, base_channels=4, num_downsamples=4, gn_groups=4)
        model = DodNet(cfg, seed=1)
        x = Tensor(np.zeros((1, 1, 16, 16, 16), dtype=np.float32))
        _, internals = model.forward(x, 0, return_internals=True)
        assert internals["pyramid"][-1].shape == (1, 64, 1, 1, 1)

    def test_indivisible_input_rejected(self):
        model = DodNet(desk_config(), seed=0)
        x = Tensor(np.zeros((1, 1, 10, 32, 32), dtype=np.float32))
        with pytest.raises(ValueError, match="divisible by 4"):
            model.forward(x, 0)

    def test_pyramid_channel_mismatch_rejected(self):
        model = DodNet(desk_config(), seed=0)
        bad = [
            Tensor(np.zeros((1, 9, 16, 32, 32))),
            Tensor(np.zeros((1, 16, 8, 16, 16))),
            Tensor(np.zeros((1, 32, 4, 8, 8))),
        ]
        with pytest.raises(ValueError, match="decoder expects 8"):
            model.decoder(bad)


class TestController:
    def test_weight_shape_full_size(self):
        model = DodNet(full_config(num_tasks=7), seed=0)
        assert model.controller.weight.shape == (162, 519)
        assert model.controller.bias.shape == (162,)

    def test_backbone_ignores_task_and_kernels_do_not(self):
        model = DodNet(desk_config(num_tasks=2), seed=3)
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 1, 8, 16, 16)).astype(np.float32))
        _, a = model.forward(x, 0, return_internals=True)
        _, b = model.forward(x, 1, return_internals=True)
        assert np.array_equal(a["seg_features"].data, b["seg_features"].data)
        assert np.abs(a["kernel_vector"].data - b["kernel_vector"].data).max() > 1e-9

    def test_conditioning_knobs_zero_their_inputs(self):
        cfg = desk_config(num_tasks=2)
        blind = DodNet(cfg, seed=3, condition_on_task=False)
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 1, 8, 16, 16)).astype(np.float32))
        _, a = blind.forward(x, 0, return_internals=True)
        _, b = blind.forward(x, 1, return_internals=True)
        assert np.array_equal(a["kernel_vector"].data, b["kernel_vector"].data)

    def test_generated_kernels_insensitive_to_feature_scale(self):
        # Rescaling or shifting the bottleneck map must not change the
        # generated kernels: the conditioning tap standardizes before pooling,
        # so a controller initialized fresh against a trained backbone sees
        # the same input statistics as one trained from scratch.
        model = DodNet(desk_config(num_tasks=2), seed=3)
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 1, 8, 16, 16)).astype(np.float32))
        levels = model.encoder(x)
        base = model.generate_kernels(model.pool_bottleneck(levels[-1]), 0).data
        warped = Tensor(levels[-1].data * 250.0 + 37.0)
        again = model.generate_kernels(model.pool_bottleneck(warped), 0).data
        np.testing.assert_allclose(again, base, atol=2e-3)


class TestParameterEnumeration:
    @pytest.mark.parametrize("arch", ["dodnet", "multi_head", "cond_input"])
    def test_names_unique(self, arch):
        model = build_model(arch, desk_config(num_tasks=2), seed=0)
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        assert names, "model has no parameters"

    def test_component_prefixes(self):
        model = DodNet(desk_config(), seed=0)
        names = {n.split(".")[0] for n, _ in model.named_parameters()}
        assert names == {"encoder", "decoder", "controller"}


class TestMultiHead:
    def test_total_exceeds_dodnet_shared_decoder(self):
        cfg = desk_config(num_tasks=2)
        dod = DodNet(cfg, seed=0)
        mh = MultiHeadNet(cfg, seed=0)
        dod_decoder = sum(
            p.size for n, p in dod.named_parameters() if n.startswith("decoder.")
        )
        assert mh.param_count() > dod_decoder

    def test_per_task_decoder_isolation(self):
        cfg = desk_config(num_tasks=2)
        model = MultiHeadNet(cfg, seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 8, 16, 16)).astype(np.float32))
        with Tape():
            logits = model.forward(x, 0)
            backward(logits.sum())
        grads_active = [p.grad for n, p in model.named_parameters() if n.startswith("decoders.0.")]
        grads_idle = [p.grad for n, p in model.named_parameters() if n.startswith("decoders.1.")]
        assert all(g is not None for g in grads_active)
        assert all(g is None for g in grads_idle)

    def test_task_out_of_range(self):
        model = MultiHeadNet(desk_config(num_tasks=2), seed=0)
        x = Tensor(np.zeros((1, 1, 8, 16, 16), dtype=np.float32))
        with pytest.raises(ValueError, match="out of range"):
            model.forward(x, 5)


class TestCondInput:
    def test_encoder_widened_by_task_channels(self):
        model = CondInputNet(desk_config(num_tasks=3), seed=0)
        assert model.encoder.in_channels == 4
        first_conv = model.encoder.blocks[0].conv1
        assert first_conv.weight.shape[1] == 4

    def test_forward_takes_raw_volume(self):
        model = CondInputNet(desk_config(num_tasks=3), seed=0)
        x = Tensor(np.zeros((2, 1, 8, 16, 16), dtype=np.float32))
        assert model.forward(x, 1).shape == (2, 2, 8, 16, 16)

    def test_wrong_channel_count_rejected(self):
        model = CondInputNet(desk_config(num_tasks=3), seed=0)
        x = Tensor(np.zeros((1, 4, 8, 16, 16), dtype=np.float32))
        with pytest.raises(ValueError, match="raw 1-channel"):
            model.forward(x, 0)

    def test_task_changes_output(self):
        model = CondInputNet(desk_config(num_tasks=2), seed=0)
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(1, 1, 8, 16, 16)).astype(np.float32))
        a = model.forward(x, 0).data
        b = model.forward(x, 1).data
        assert np.abs(a - b).max() > 1e-9


class TestSegmentAllTasks:
    @pytest.mark.parametrize("arch", ["dodnet", "multi_head", "cond_input"])
    def test_matches_per_task_forward(self, arch):
        model = build_model(arch, desk_config(num_tasks=2), seed=0)
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(1, 1, 8, 16, 16)).astype(np.float32))
        stacked = model.segment_all_tasks(x)
        for t, got in enumerate(stacked):
            np.testing.assert_array_equal(got.data, model.forward(x, t).data)


class TestFanInGuard:
    def test_single_input_projection_not_standardized(self):
        # fan-in 1 kernels would standardize to zero; the layer must skip it
        model = DodNet(desk_config(), seed=0)
        proj = model.encoder.blocks[0].project
        assert proj is not None and proj.standardize is False
        assert model.encoder.blocks[1].project.standardize is True
