"""Tensor core: forward semantics against brute-force oracles and pinned values."""

import itertools
import tracemalloc

import numpy as np
import pytest

from dodnet import ops
from dodnet.optim import SGDMomentum
from dodnet.tensor import Tape, Tensor, backward

from oracles import (
    conv3d_oracle,
    group_norm_stats,
    upsample_1d_oracle,
    upsample_trilinear_oracle,
)


class TestConv3d:
    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(7)
        for case in range(12):
            n = int(rng.integers(1, 3))
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            spatial = tuple(int(rng.integers(3, 7)) for _ in range(3))
            kernel = tuple(int(rng.integers(1, 4)) for _ in range(3))
            stride = tuple(int(rng.integers(1, 3)) for _ in range(3))
            padding = tuple(int(rng.integers(0, 2)) for _ in range(3))
            if any((s + 2 * p - k) < 0 for s, k, p in zip(spatial, kernel, padding)):
                continue
            x = rng.normal(size=(n, cin) + spatial)
            w = rng.normal(size=(cout, cin) + kernel)
            b = rng.normal(size=cout)
            got = ops.conv3d(
                Tensor(x, dtype=np.float64),
                Tensor(w, dtype=np.float64),
                Tensor(b, dtype=np.float64),
                stride=stride,
                padding=padding,
            ).data
            want = conv3d_oracle(x, w, b, stride, padding)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_same_padding_preserves_shape(self):
        x = Tensor(np.zeros((1, 1, 8, 8, 8)))
        w = Tensor(np.zeros((1, 1, 3, 3, 3)))
        out = ops.conv3d(x, w, stride=1, padding=1)
        assert out.shape == (1, 1, 8, 8, 8)

    def test_stride_two_halves_extents(self):
        x = Tensor(np.zeros((1, 1, 8, 8, 8)))
        w = Tensor(np.zeros((2, 1, 3, 3, 3)))
        out = ops.conv3d(x, w, stride=2, padding=1)
        assert out.shape == (1, 2, 4, 4, 4)

    def test_two_stacked_stride_two_quarter_extents(self):
        x = Tensor(np.zeros((1, 1, 16, 32, 32)))
        w1 = Tensor(np.zeros((2, 1, 3, 3, 3)))
        w2 = Tensor(np.zeros((2, 2, 3, 3, 3)))
        out = ops.conv3d(ops.conv3d(x, w1, stride=2, padding=1), w2, stride=2, padding=1)
        assert out.shape == (1, 2, 4, 8, 8)

    def test_channel_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 3, 4, 4, 4)))
        w = Tensor(np.zeros((1, 2, 3, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            ops.conv3d(x, w)

    def test_pointwise_fast_path_matches_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 3, 4, 5, 6))
        w = rng.normal(size=(4, 3, 1, 1, 1))
        b = rng.normal(size=4)
        got = ops.conv3d(
            Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64), Tensor(b, dtype=np.float64)
        ).data
        np.testing.assert_allclose(got, conv3d_oracle(x, w, b), rtol=1e-6, atol=1e-9)

    def test_empty_output_rejected(self):
        x = Tensor(np.zeros((1, 1, 2, 2, 2)))
        w = Tensor(np.zeros((1, 1, 3, 3, 3)))
        with pytest.raises(ValueError, match="empty output"):
            ops.conv3d(x, w)

    @pytest.mark.parametrize(
        "kernel, stride, padding",
        [
            pytest.param(3, 1, 1, id="1"),
            pytest.param(3, 2, 1, id="2"),
            pytest.param(1, 1, 0, id="k1"),
            pytest.param(1, 2, 0, id="k1s2"),
        ],
    )
    def test_depth_slab_path_matches_single_shot(self, monkeypatch, kernel, stride, padding):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 3, 6, 5, 5))
        w = rng.normal(size=(4, 3) + (kernel,) * 3)
        b = rng.normal(size=4)

        def run():
            xt = Tensor(x, requires_grad=True, dtype=np.float64)
            wt = Tensor(w, requires_grad=True, dtype=np.float64)
            bt = Tensor(b, requires_grad=True, dtype=np.float64)
            with Tape():
                out = ops.conv3d(xt, wt, bt, stride=stride, padding=padding)
                backward(out.sum())
            return out.data, xt.grad, wt.grad, bt.grad

        whole = run()
        monkeypatch.setattr(ops, "_SHIFT_BUF_BYTES", 1)  # force one z-row per shift chunk
        slabbed = run()
        for a, c in zip(whole, slabbed):
            np.testing.assert_allclose(a, c, rtol=1e-12)

    @pytest.mark.parametrize("buffer_bytes", [None, 1], ids=["default", "one-depth-row"])
    def test_phase_grid_kernel_matches_the_oracle(self, monkeypatch, buffer_bytes):
        # Forward, weight and input gradients of the stacked-shift kernel
        # against the nested loops: the weight gradient of tap (a, b, c) sums
        # the output gradient against the padded input read at that tap's
        # offset with the conv's stride, and the input gradient of a stride-1
        # conv is the correlation of the output gradient, padded by k-1-p
        # (cropped where that is negative), with the flipped, transposed
        # kernels.
        if buffer_bytes is not None:
            monkeypatch.setattr(ops, "_SHIFT_BUF_BYTES", buffer_bytes)
        rng = np.random.default_rng(31)
        for case in range(36):
            kernel = tuple(int(rng.integers(1, 4)) for _ in range(3))
            stride = tuple(int(rng.integers(1, 4)) for _ in range(3)) if case % 2 else (1, 1, 1)
            padding = tuple(int(rng.integers(0, k + 1)) for k in kernel)
            spatial = tuple(
                max(int(rng.integers(1, 8)), k - 2 * p) for k, p in zip(kernel, padding)
            )
            x = rng.normal(size=(2, 2) + spatial)
            w = rng.normal(size=(3, 2) + kernel)
            out = conv3d_oracle(x, w, stride=stride, padding=padding)
            go = rng.normal(size=out.shape)
            xp = np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in padding))
            gw = np.empty_like(w)
            for tap in itertools.product(*(range(k) for k in kernel)):
                box = tuple(
                    slice(a, a + s * (o - 1) + 1, s)
                    for a, s, o in zip(tap, stride, out.shape[2:])
                )
                seen = xp[(Ellipsis,) + box]
                gw[(slice(None), slice(None)) + tap] = np.einsum("nodhw,ncdhw->oc", go, seen)
            msg = f"case {case}: kernel {kernel}, stride {stride}, padding {padding}, extents {spatial}"
            tol = dict(rtol=1e-12, atol=1e-12, err_msg=msg)
            xq = ops._phase_grid(x, kernel, stride, padding, out.shape[2:])
            np.testing.assert_allclose(ops._correlate(xq, w, out.shape[2:]), out, **tol)
            np.testing.assert_allclose(ops._weight_grad(xq, go, kernel), gw, **tol)
            if stride != (1, 1, 1):
                continue
            gop = go
            for axis, (k, p) in enumerate(zip(kernel, padding), start=2):
                q = k - 1 - p
                if q >= 0:
                    gop = np.pad(gop, [(0, 0)] * axis + [(q, q)] + [(0, 0)] * (4 - axis))
                else:
                    gop = np.take(gop, range(-q, gop.shape[axis] + q), axis=axis)
            wt = w[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
            got_gx = ops._input_grad(go, w, spatial, stride, padding)
            np.testing.assert_allclose(got_gx, conv3d_oracle(gop, wt), **tol)

    def test_input_gradient_is_the_adjoint_of_the_oracle(self):
        # <conv(x), g> == <x, conv^T(g)> for every stride phase, including
        # phases with no kernel taps (k < s) and no input voxels (D < s).
        rng = np.random.default_rng(29)
        for case in range(60):
            kernel = tuple(int(rng.integers(1, 4)) for _ in range(3))
            stride = tuple(int(rng.integers(1, 4)) for _ in range(3))
            padding = tuple(int(rng.integers(0, k + 2)) for k in kernel)
            spatial = tuple(
                max(int(rng.integers(1, 7)), k - 2 * p) for k, p in zip(kernel, padding)
            )
            x = rng.normal(size=(2, 2) + spatial)
            w = rng.normal(size=(3, 2) + kernel)
            ref = conv3d_oracle(x, w, stride=stride, padding=padding)
            g = rng.normal(size=ref.shape)
            xt = Tensor(x, requires_grad=True, dtype=np.float64)
            with Tape():
                out = ops.conv3d(xt, Tensor(w, dtype=np.float64), stride=stride, padding=padding)
                backward((out * Tensor(g)).sum())
            np.testing.assert_allclose(
                np.vdot(ref, g), np.vdot(x, xt.grad), rtol=1e-12, atol=1e-12,
                err_msg=f"case {case}: kernel {kernel}, stride {stride}, padding {padding}",
            )

    def test_taped_forward_holds_no_patch_columns(self):
        rng = np.random.default_rng(17)
        n, cin, cout, spatial = 2, 4, 4, (8, 8, 8)
        x = Tensor(rng.normal(size=(n, cin) + spatial), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.normal(size=(cout, cin, 3, 3, 3)), requires_grad=True, dtype=np.float64)
        cols_bytes = n * cin * 27 * int(np.prod(spatial)) * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                out = ops.conv3d(x, w, padding=1)
                held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape) == 1 and out.shape == (n, cout) + spatial
        assert held < cols_bytes, f"{held} bytes held after forward, columns are {cols_bytes}"


class TestGroupNorm:
    def test_normalizes_per_sample_group(self):
        rng = np.random.default_rng(3)
        x = rng.normal(2.0, 3.0, size=(2, 8, 3, 4, 4))
        out = ops.group_norm(
            Tensor(x, dtype=np.float64),
            4,
            Tensor(np.ones(8), dtype=np.float64),
            Tensor(np.zeros(8), dtype=np.float64),
        ).data
        mean, var = group_norm_stats(out, 4)
        assert np.abs(mean).max() < 1e-6
        assert np.abs(var - 1.0).max() < 1e-4

    def test_affine_applied_per_channel(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 4, 2, 2, 2))
        gamma = np.array([1.0, 2.0, 3.0, 4.0])
        beta = np.array([0.5, -0.5, 0.0, 1.0])
        base = ops.group_norm(
            Tensor(x, dtype=np.float64),
            2,
            Tensor(np.ones(4), dtype=np.float64),
            Tensor(np.zeros(4), dtype=np.float64),
        ).data
        got = ops.group_norm(
            Tensor(x, dtype=np.float64),
            2,
            Tensor(gamma, dtype=np.float64),
            Tensor(beta, dtype=np.float64),
        ).data
        want = base * gamma[None, :, None, None, None] + beta[None, :, None, None, None]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_indivisible_channels_rejected(self):
        x = Tensor(np.zeros((1, 6, 2, 2, 2)))
        with pytest.raises(ValueError, match="divisible"):
            ops.group_norm(x, 4, Tensor(np.ones(6)), Tensor(np.zeros(6)))


class TestWeightStandardize:
    def test_two_element_kernel_pinned(self):
        w = Tensor(np.array([1.0, 3.0]).reshape(1, 1, 1, 1, 2), dtype=np.float64)
        out = ops.weight_standardize(w).data.ravel()
        np.testing.assert_allclose(out, [-1.0, 1.0], atol=1e-4)

    def test_random_kernel_statistics(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(4, 2, 3, 3, 3))
        out = ops.weight_standardize(Tensor(w, dtype=np.float64)).data.reshape(4, -1)
        assert np.abs(out.mean(axis=1)).max() < 1e-6
        assert np.abs(out.std(axis=1) - 1.0).max() < 1e-4

    def test_constant_kernel_maps_to_zero(self):
        w = Tensor(np.full((2, 1, 3, 3, 3), 0.7), dtype=np.float64)
        out = ops.weight_standardize(w).data
        np.testing.assert_allclose(out, 0.0, atol=1e-9)


class TestUpsampleTrilinear:
    def test_pinned_1d_profile(self):
        x = np.zeros((1, 1, 1, 1, 2))
        x[0, 0, 0, 0] = [0.0, 1.0]
        out = ops.upsample_trilinear(Tensor(x, dtype=np.float64)).data[0, 0, 0, 0]
        np.testing.assert_allclose(out, [0.0, 0.25, 0.75, 1.0], atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            shape = (1, int(rng.integers(1, 3))) + tuple(int(rng.integers(1, 5)) for _ in range(3))
            x = rng.normal(size=shape)
            got = ops.upsample_trilinear(Tensor(x, dtype=np.float64)).data
            np.testing.assert_allclose(got, upsample_trilinear_oracle(x), rtol=1e-9, atol=1e-12)

    def test_doubles_every_spatial_extent(self):
        out = ops.upsample_trilinear(Tensor(np.zeros((2, 3, 2, 5, 4))))
        assert out.shape == (2, 3, 4, 10, 8)

    def test_1d_oracle_self_check(self):
        np.testing.assert_allclose(upsample_1d_oracle([0.0, 1.0]), [0.0, 0.25, 0.75, 1.0])


class TestSmallOps:
    def test_global_avg_pool_constant(self):
        x = Tensor(np.full((2, 3, 2, 2, 2), 5.0))
        out = ops.global_avg_pool(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, 5.0)

    def test_global_avg_pool_matches_mean(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 4, 3, 3, 3))
        got = ops.global_avg_pool(Tensor(x, dtype=np.float64)).data
        np.testing.assert_allclose(got, x.mean(axis=(2, 3, 4)), rtol=1e-12)

    def test_sigmoid_midpoint(self):
        assert ops.sigmoid(Tensor(np.zeros(3))).data.tolist() == [0.5, 0.5, 0.5]

    def test_relu_clips_negatives(self):
        out = ops.relu(Tensor(np.array([-2.0, 0.0, 3.0]))).data
        np.testing.assert_array_equal(out, [0.0, 0.0, 3.0])

    def test_concat_controller_input_shape(self):
        pooled = Tensor(np.zeros((1, 512)))
        code = Tensor(np.zeros((1, 7)))
        assert ops.concat([pooled, code], axis=1).shape == (1, 519)

    def test_concat_off_axis_mismatch_rejected(self):
        with pytest.raises(ValueError, match="off axis"):
            ops.concat([Tensor(np.zeros((1, 2))), Tensor(np.zeros((2, 2)))], axis=1)

    def test_add_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            Tensor(np.zeros(3)) + Tensor(np.zeros(4))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scalar_operands_keep_the_dtype(self, dtype):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=dtype)
        with Tape():
            outs = [t + 0.1, t - 0.1, t * 0.1, t / 0.1, 0.1 - t]
            loss = outs[0].sum()
            for out in outs[1:]:
                loss = loss + out.sum()
            backward(loss)
        x = t.data
        for out, want in zip(outs, [x + 0.1, x - 0.1, x * 0.1, x * (1.0 / 0.1), 0.1 - x]):
            assert out.dtype == dtype
            np.testing.assert_array_equal(out.data, want)
        assert t.grad.dtype == dtype
        np.testing.assert_allclose(t.grad, 1.0 + 1.0 + 0.1 + 10.0 - 1.0, rtol=1e-6)

    def test_non_numeric_operand_rejected(self):
        with pytest.raises(TypeError, match="unsupported operand"):
            Tensor(np.ones(2)) * "x"
        with pytest.raises(TypeError, match="unsupported operand"):
            Tensor(np.ones(2)) / "x"

    def test_clamp_bounds(self):
        out = ops.clamp(Tensor(np.array([-1.0, 0.5, 2.0])), 0.0, 1.0).data
        np.testing.assert_array_equal(out, [0.0, 0.5, 1.0])


class TestTapeSemantics:
    def test_no_recording_outside_tape(self):
        p = Tensor(np.ones(3), requires_grad=True)
        out = ops.relu(p)
        assert out.requires_grad is False and out._tape is None

    def test_backward_requires_scalar(self):
        p = Tensor(np.ones(3), requires_grad=True)
        with Tape():
            out = p * 2.0
        with pytest.raises(ValueError, match="scalar"):
            backward(out)

    def test_backward_requires_tape(self):
        with pytest.raises(ValueError, match="Tape"):
            backward(Tensor(np.zeros(())))

    def test_backward_consumes_tape(self):
        p = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = (p * 3.0).sum()
            assert len(tape) > 0
            backward(loss)
            assert len(tape) == 0
        np.testing.assert_allclose(p.grad, 3.0)

    def test_output_that_misses_the_loss_gives_no_grad(self):
        p = Tensor(np.ones(3), requires_grad=True)
        q = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            ops.sigmoid(q * 2.0)  # recorded, but never reaches the loss
            loss = (p * 3.0).sum()
            assert len(tape) == 4
            backward(loss)
        assert q.grad is None
        np.testing.assert_allclose(p.grad, 3.0)

    def test_reverse_order_accumulation(self):
        # p feeds two branches; both must contribute to the gradient.
        p = Tensor(np.array([2.0]), requires_grad=True)
        with Tape():
            loss = (p * 3.0 + p * p).sum()
            backward(loss)
        np.testing.assert_allclose(p.grad, [3.0 + 2.0 * 2.0])


class TestSGDMomentum:
    def test_single_step_no_momentum(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        opt = SGDMomentum([("p", p)], momentum=0.0)
        p.grad = np.ones(1)
        opt.step(0.1)
        np.testing.assert_allclose(p.data, [-0.1])

    def test_zero_lr_updates_velocity_only(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        opt = SGDMomentum([("p", p)], momentum=0.9)
        p.grad = np.ones(1)
        opt.step(0.0)
        np.testing.assert_allclose(p.data, [0.0])
        np.testing.assert_allclose(opt.velocity["p"], [1.0])

    def test_two_steps_classical_momentum_pinned(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        opt = SGDMomentum([("p", p)], momentum=0.99)
        for _ in range(2):
            p.grad = np.ones(1)
            opt.step(0.01)
        np.testing.assert_allclose(p.data, [-0.0299], atol=1e-12)

    def test_missing_grad_leaves_param_untouched(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = SGDMomentum([("p", p)], momentum=0.99)
        opt.step(0.5)
        np.testing.assert_array_equal(p.data, [1.0, 1.0])
        np.testing.assert_array_equal(opt.velocity["p"], [0.0, 0.0])
