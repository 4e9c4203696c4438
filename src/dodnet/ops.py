"""Differentiable volumetric operators.

All functions take and return :class:`~dodnet.tensor.Tensor` and follow the
NCDHW layout.  Backward passes are hand-derived and validated by the central
finite-difference suite in the tests.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .tensor import Tensor, _finalize, accumulate_grad

IntOrTriple = Union[int, Tuple[int, int, int]]

# Cap on the transient im2col buffer; larger convolutions run in depth slabs.
_COL_LIMIT_BYTES = 256 * 1024 * 1024


def _triple(v: IntOrTriple, name: str) -> Tuple[int, int, int]:
    if isinstance(v, (int, np.integer)):
        v = (int(v),) * 3
    t = tuple(int(x) for x in v)
    if len(t) != 3:
        raise ValueError(f"{name} must be an int or a triple, got {v!r}")
    return t


def conv3d_output_shape(spatial, kernel, stride, padding) -> Tuple[int, int, int]:
    """Output extents: floor((D + 2*pad - k) / stride) + 1 per axis."""
    out = []
    for d, k, s, p in zip(spatial, kernel, stride, padding):
        o = (d + 2 * p - k) // s + 1
        if o < 1:
            raise ValueError(
                f"conv3d produces empty output: extent {d} with kernel {k}, "
                f"stride {s}, padding {p}"
            )
        out.append(o)
    return tuple(out)


def _depth_slabs(n: int, ckk: int, out_spatial, itemsize: int) -> List[Tuple[int, int]]:
    """Output-depth ranges whose (N, ckk, slab voxels) column buffer stays
    within _COL_LIMIT_BYTES (at least one depth row per slab)."""
    do, ho, wo = out_spatial
    slab_bytes = n * ckk * ho * wo * itemsize
    if slab_bytes * do <= _COL_LIMIT_BYTES:
        z_step = do
    else:
        z_step = max(1, _COL_LIMIT_BYTES // slab_bytes)
    return [(z0, min(z0 + z_step, do)) for z0 in range(0, do, z_step)]


def _slab_cols(xp: np.ndarray, kernel, stride, z0: int, z1: int, out_hw) -> np.ndarray:
    """Patch columns (N, C*kd*kh*kw, L) of output depth rows z0..z1 of a
    padded NCDHW array, copied out of a strided view."""
    n, c = xp.shape[:2]
    kd, kh, kw = kernel
    sd, sh, sw = stride
    ho, wo = out_hw
    sn, sc, s2, s3, s4 = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp[:, :, z0 * sd :],
        shape=(n, c, kd, kh, kw, z1 - z0, ho, wo),
        strides=(sn, sc, s2, s3, s4, s2 * sd, s3 * sh, s4 * sw),
        writeable=False,
    )
    return view.reshape(n, c * kd * kh * kw, (z1 - z0) * ho * wo)


def _correlate(xp: np.ndarray, w2: np.ndarray, kernel, stride, out_spatial) -> np.ndarray:
    """Cross-correlate a padded NCDHW array with kernels flattened to
    (C_out, C_in*kd*kh*kw), one depth slab of patch columns at a time."""
    n = xp.shape[0]
    cout = w2.shape[0]
    dtype = np.result_type(xp.dtype, w2.dtype)
    out = np.empty((n, cout) + tuple(out_spatial), dtype=dtype)
    ho, wo = out_spatial[1:]
    for z0, z1 in _depth_slabs(n, w2.shape[1], out_spatial, dtype.itemsize):
        cols = _slab_cols(xp, kernel, stride, z0, z1, (ho, wo))
        out[:, :, z0:z1] = np.matmul(w2, cols).reshape(n, cout, z1 - z0, ho, wo)
    return out


def _weight_grad(xp: np.ndarray, go: np.ndarray, kernel, stride) -> np.ndarray:
    """d(loss)/d(kernels) as (C_out, C_in*kd*kh*kw), rebuilding the forward
    pass's patch columns slab by slab instead of keeping them."""
    n, cout = go.shape[:2]
    out_spatial = go.shape[2:]
    ckk = xp.shape[1] * int(np.prod(kernel))
    # Accumulated transposed: (ckk, L) @ (L, C_out) measured about 3x faster
    # than (C_out, L) @ (L, ckk) with the columns as the transposed operand
    # (one OpenBLAS thread, x86-64).
    gw_t = np.zeros((ckk, cout), dtype=go.dtype)
    for z0, z1 in _depth_slabs(n, ckk, out_spatial, go.dtype.itemsize):
        cols = _slab_cols(xp, kernel, stride, z0, z1, out_spatial[1:])
        g = go[:, :, z0:z1].reshape(n, cout, -1)
        gw_t += np.matmul(cols, g.transpose(0, 2, 1)).sum(axis=0)
    return gw_t.T


def _scatter_input_grad(go: np.ndarray, w2: np.ndarray, xp_shape, kernel, stride) -> np.ndarray:
    """d(loss)/d(padded input) by col2im: every kernel tap adds its slice of
    the column gradient back onto the input grid.  Handles any stride."""
    n, cout = go.shape[:2]
    cin = xp_shape[1]
    kd, kh, kw = kernel
    sd, sh, sw = stride
    ho, wo = go.shape[3:]
    gxp = np.zeros(xp_shape, dtype=go.dtype)
    for z0, z1 in _depth_slabs(n, w2.shape[1], go.shape[2:], go.dtype.itemsize):
        gcols = np.matmul(w2.T, go[:, :, z0:z1].reshape(n, cout, -1))
        gcols = gcols.reshape(n, cin, kd, kh, kw, z1 - z0, ho, wo)
        for iz in range(kd):
            for iy in range(kh):
                for ix in range(kw):
                    zs = z0 * sd + iz
                    gxp[
                        :,
                        :,
                        zs : zs + sd * (z1 - z0) : sd,
                        iy : iy + sh * ho : sh,
                        ix : ix + sw * wo : sw,
                    ] += gcols[:, :, iz, iy, ix]
    return gxp


def conv3d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntOrTriple = 1,
    padding: IntOrTriple = 0,
) -> Tensor:
    """3-D cross-correlation plus bias.

    Args:
        x: input of shape (N, C_in, D, H, W).
        weight: kernels of shape (C_out, C_in, kd, kh, kw).
        bias: optional (C_out,) offsets added per output channel.
        stride / padding: int or per-axis triple; padding is symmetric zeros.

    Patch columns are built one depth slab at a time and dropped after use,
    in the forward and the backward pass alike; the tape keeps only the
    padded input and the kernels.
    """
    if x.ndim != 5:
        raise ValueError(f"conv3d input must be 5-d NCDHW, got shape {x.shape}")
    if weight.ndim != 5:
        raise ValueError(f"conv3d weight must be 5-d, got shape {weight.shape}")
    n, cin, d, h, w = x.shape
    cout, cin_w, kd, kh, kw = weight.shape
    if cin != cin_w:
        raise ValueError(
            f"conv3d channel mismatch: input has {cin}, weight expects {cin_w}"
        )
    if bias is not None and bias.shape != (cout,):
        raise ValueError(f"conv3d bias must have shape ({cout},), got {bias.shape}")
    stride = _triple(stride, "stride")
    padding = _triple(padding, "padding")
    kernel = (kd, kh, kw)
    out_spatial = conv3d_output_shape((d, h, w), kernel, stride, padding)

    if kernel == (1, 1, 1) and stride == (1, 1, 1) and padding == (0, 0, 0):
        return _pointwise_conv3d(x, weight, bias)

    pd, ph, pw = padding
    if any(padding):
        xp = np.pad(x.data, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))
    else:
        xp = x.data
    w2 = weight.data.reshape(cout, -1)
    out_data = _correlate(xp, w2, kernel, stride, out_spatial)
    if bias is not None:
        out_data += bias.data[None, :, None, None, None]
    out = Tensor(out_data)

    def bwd():
        if out.grad is None:
            return
        go = out.grad
        if bias is not None and bias.requires_grad:
            accumulate_grad(bias, go.sum(axis=(0, 2, 3, 4)))
        # The weight-gradient columns are freed on return, before the
        # input-gradient columns are built.
        if weight.requires_grad:
            accumulate_grad(weight, _weight_grad(xp, go, kernel, stride).reshape(weight.shape))
        if not x.requires_grad:
            return
        if stride == (1, 1, 1) and all(p < k for p, k in zip(padding, kernel)):
            # Full correlation of the output gradient with the flipped,
            # channel-transposed kernels: a forward conv with padding k-1-p.
            flipped = weight.data[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
            halo = tuple((k - 1 - p, k - 1 - p) for k, p in zip(kernel, padding))
            gop = np.pad(go, ((0, 0), (0, 0)) + halo)
            accumulate_grad(x, _correlate(gop, flipped.reshape(cin, -1), kernel, stride, (d, h, w)))
        else:
            gxp = _scatter_input_grad(go, w2, xp.shape, kernel, stride)
            accumulate_grad(x, gxp[:, :, pd : pd + d, ph : ph + h, pw : pw + w])

    return _finalize(out, (x, weight) if bias is None else (x, weight, bias), bwd)


def _pointwise_conv3d(x: Tensor, weight: Tensor, bias: Optional[Tensor]) -> Tensor:
    """Fast path for 1x1x1 kernels: a channel-mixing matmul."""
    n, cin = x.shape[:2]
    spatial = x.shape[2:]
    cout = weight.shape[0]
    w2 = weight.data.reshape(cout, cin)
    xf = x.data.reshape(n, cin, -1)
    out_data = np.matmul(w2, xf)
    if bias is not None:
        out_data += bias.data[:, None]
    out = Tensor(out_data.reshape(n, cout, *spatial))

    def bwd():
        if out.grad is None:
            return
        go = out.grad.reshape(n, cout, -1)
        if bias is not None and bias.requires_grad:
            accumulate_grad(bias, go.sum(axis=(0, 2)))
        if weight.requires_grad:
            gw = np.matmul(go, xf.transpose(0, 2, 1)).sum(axis=0)
            accumulate_grad(weight, gw.reshape(weight.shape))
        if x.requires_grad:
            gx = np.matmul(w2.T, go)
            accumulate_grad(x, gx.reshape(x.shape))

    return _finalize(out, (x, weight) if bias is None else (x, weight, bias), bwd)


def group_norm(
    x: Tensor, num_groups: int, gamma: Tensor, beta: Tensor, eps: float = 1e-5
) -> Tensor:
    """Normalize per (sample, channel group) to zero mean / unit variance,
    then apply the per-channel affine (gamma, beta)."""
    if x.ndim != 5:
        raise ValueError(f"group_norm expects NCDHW input, got shape {x.shape}")
    n, c = x.shape[:2]
    if num_groups < 1 or c % num_groups != 0:
        raise ValueError(
            f"channel count {c} is not divisible by num_groups {num_groups}"
        )
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(
            f"gamma/beta must have shape ({c},), got {gamma.shape} and {beta.shape}"
        )
    spatial = x.shape[2:]
    m = (c // num_groups) * int(np.prod(spatial))
    xg = x.data.reshape(n, num_groups, m)
    mu = xg.mean(axis=2, keepdims=True)
    var = xg.var(axis=2, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xg - mu) * inv  # (N, G, M)
    xhat_c = xhat.reshape(n, c, -1)
    gslice = gamma.data[None, :, None]
    out = Tensor((xhat_c * gslice + beta.data[None, :, None]).reshape(x.shape))

    def bwd():
        if out.grad is None:
            return
        go = out.grad.reshape(n, c, -1)
        if beta.requires_grad:
            accumulate_grad(beta, go.sum(axis=(0, 2)))
        if gamma.requires_grad:
            accumulate_grad(gamma, (go * xhat_c).sum(axis=(0, 2)))
        if x.requires_grad:
            dxhat = (go * gslice).reshape(n, num_groups, m)
            mean_d = dxhat.mean(axis=2, keepdims=True)
            mean_dx = (dxhat * xhat).mean(axis=2, keepdims=True)
            gx = inv * (dxhat - mean_d - xhat * mean_dx)
            accumulate_grad(x, gx.reshape(x.shape))

    return _finalize(out, (x, gamma, beta), bwd)


def weight_standardize(w: Tensor, eps: float = 1e-5) -> Tensor:
    """Shift/scale each output-channel kernel to zero mean, unit variance.

    The eps guard sits under the square root, so a constant kernel maps to
    exactly zero instead of dividing by zero.
    """
    if w.ndim != 5:
        raise ValueError(f"weight_standardize expects 5-d kernels, got {w.shape}")
    cout = w.shape[0]
    flat = w.data.reshape(cout, -1)
    mu = flat.mean(axis=1, keepdims=True)
    var = flat.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    what = (flat - mu) * inv
    out = Tensor(what.reshape(w.shape))

    def bwd():
        if out.grad is None:
            return
        if not w.requires_grad:
            return
        g = out.grad.reshape(cout, -1)
        mean_g = g.mean(axis=1, keepdims=True)
        mean_gw = (g * what).mean(axis=1, keepdims=True)
        gw = inv * (g - mean_g - what * mean_gw)
        accumulate_grad(w, gw.reshape(w.shape))

    return _finalize(out, (w,), bwd)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0))
    mask = x.data > 0  # subgradient 0 at the kink

    def bwd():
        if out.grad is None:
            return
        accumulate_grad(x, out.grad * mask)

    return _finalize(out, (x,), bwd)


def sigmoid_array(d: np.ndarray) -> np.ndarray:
    """Logistic function on a plain array, stable for large |x|."""
    s = np.empty_like(d)
    pos = d >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    s[~pos] = ex / (1.0 + ex)
    return s


def sigmoid(x: Tensor) -> Tensor:
    s = sigmoid_array(x.data)
    out = Tensor(s)

    def bwd():
        if out.grad is None:
            return
        accumulate_grad(x, out.grad * s * (1.0 - s))

    return _finalize(out, (x,), bwd)


def log(x: Tensor) -> Tensor:
    out = Tensor(np.log(x.data))

    def bwd():
        if out.grad is None:
            return
        accumulate_grad(x, out.grad / x.data)

    return _finalize(out, (x,), bwd)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    if not lo < hi:
        raise ValueError(f"clamp needs lo < hi, got [{lo}, {hi}]")
    out = Tensor(np.clip(x.data, lo, hi))
    mask = (x.data >= lo) & (x.data <= hi)

    def bwd():
        if out.grad is None:
            return
        accumulate_grad(x, out.grad * mask)

    return _finalize(out, (x,), bwd)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    ref = tensors[0]
    for t in tensors[1:]:
        if t.ndim != ref.ndim:
            raise ValueError("concat rank mismatch")
        for ax, (a, b) in enumerate(zip(ref.shape, t.shape)):
            if ax != axis % ref.ndim and a != b:
                raise ValueError(
                    f"concat shapes {ref.shape} and {t.shape} differ off axis {axis}"
                )
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]

    def bwd():
        if out.grad is None:
            return
        offset = 0
        for t, sz in zip(tensors, sizes):
            idx = [slice(None)] * out.ndim
            idx[axis] = slice(offset, offset + sz)
            accumulate_grad(t, out.grad[tuple(idx)])
            offset += sz

    return _finalize(out, tuple(tensors), bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """(N, C, D, H, W) -> (N, C) spatial mean."""
    if x.ndim != 5:
        raise ValueError(f"global_avg_pool expects NCDHW input, got {x.shape}")
    voxels = int(np.prod(x.shape[2:]))
    out = Tensor(x.data.mean(axis=(2, 3, 4)))

    def bwd():
        if out.grad is None:
            return
        g = np.broadcast_to(
            out.grad[:, :, None, None, None] / voxels, x.shape
        ).astype(x.dtype, copy=False)
        accumulate_grad(x, g)

    return _finalize(out, (x,), bwd)


def _upsample_one_axis(x: Tensor, axis: int) -> Tensor:
    """Double one axis with the half-pixel stencil on even and odd outputs:
    out[2i] = .25 x[i-1] + .75 x[i] and out[2i+1] = .75 x[i] + .25 x[i+1],
    with the border samples copied (clamped source coordinates)."""
    n = x.shape[axis]

    def at(start, stop=None, step=None):
        idx = [slice(None)] * x.ndim
        idx[axis] = slice(start, stop, step)
        return tuple(idx)

    src = x.data
    shape = list(x.shape)
    shape[axis] = 2 * n
    out_data = np.empty(shape, dtype=x.dtype)
    even, odd = out_data[at(0, None, 2)], out_data[at(1, None, 2)]
    even[at(1)] = 0.25 * src[at(0, -1)] + 0.75 * src[at(1)]
    odd[at(0, -1)] = 0.75 * src[at(0, -1)] + 0.25 * src[at(1)]
    even[at(0, 1)] = src[at(0, 1)]
    odd[at(-1)] = src[at(-1)]
    out = Tensor(out_data)

    def bwd():
        if out.grad is None:
            return
        g_even, g_odd = out.grad[at(0, None, 2)], out.grad[at(1, None, 2)]
        gx = 0.75 * (g_even + g_odd)
        gx[at(1)] += 0.25 * g_odd[at(0, -1)]
        gx[at(0, -1)] += 0.25 * g_even[at(1)]
        gx[at(0, 1)] += 0.25 * g_even[at(0, 1)]
        gx[at(-1)] += 0.25 * g_odd[at(-1)]
        accumulate_grad(x, gx)

    return _finalize(out, (x,), bwd)


def upsample_trilinear(x: Tensor) -> Tensor:
    """Double every spatial extent with half-pixel trilinear interpolation.

    Edge samples replicate the border (source coordinates are clamped), so a
    1-d row [a, b] maps to [a, 0.75a + 0.25b, 0.25a + 0.75b, b].
    """
    if x.ndim != 5:
        raise ValueError(f"upsample_trilinear expects NCDHW input, got {x.shape}")
    out = x
    for axis in (2, 3, 4):
        out = _upsample_one_axis(out, axis)
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map: (N, F) @ (O, F)^T + (O,)."""
    if x.ndim != 2 or weight.ndim != 2:
        raise ValueError(
            f"linear expects 2-d input and weight, got {x.shape} and {weight.shape}"
        )
    if x.shape[1] != weight.shape[1]:
        raise ValueError(
            f"linear feature mismatch: input has {x.shape[1]}, weight expects {weight.shape[1]}"
        )
    out = Tensor(x.data @ weight.data.T + bias.data)

    def bwd():
        if out.grad is None:
            return
        if bias.requires_grad:
            accumulate_grad(bias, out.grad.sum(axis=0))
        if weight.requires_grad:
            accumulate_grad(weight, out.grad.T @ x.data)
        if x.requires_grad:
            accumulate_grad(x, out.grad @ weight.data)

    return _finalize(out, (x, weight, bias), bwd)


def batched_pointwise_conv3d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """1x1x1 convolution whose kernels differ per batch sample.

    Args:
        x: (N, C_in, D, H, W) features.
        weight: (N, C_out, C_in) per-sample channel mixers.
        bias: (N, C_out) per-sample offsets.
    """
    if x.ndim != 5 or weight.ndim != 3 or bias.ndim != 2:
        raise ValueError(
            "batched_pointwise_conv3d expects x (N,C,D,H,W), weight (N,O,C), bias (N,O); "
            f"got {x.shape}, {weight.shape}, {bias.shape}"
        )
    n, cin = x.shape[:2]
    if weight.shape[0] != n or weight.shape[2] != cin or bias.shape != weight.shape[:2]:
        raise ValueError(
            f"per-sample kernel shapes inconsistent: x {x.shape}, weight {weight.shape}, "
            f"bias {bias.shape}"
        )
    spatial = x.shape[2:]
    cout = weight.shape[1]
    xf = x.data.reshape(n, cin, -1)
    out_data = np.matmul(weight.data, xf) + bias.data[:, :, None]
    out = Tensor(out_data.reshape(n, cout, *spatial))

    def bwd():
        if out.grad is None:
            return
        go = out.grad.reshape(n, cout, -1)
        if bias.requires_grad:
            accumulate_grad(bias, go.sum(axis=2))
        if weight.requires_grad:
            accumulate_grad(weight, np.matmul(go, xf.transpose(0, 2, 1)))
        if x.requires_grad:
            gx = np.matmul(weight.data.transpose(0, 2, 1), go)
            accumulate_grad(x, gx.reshape(x.shape))

    return _finalize(out, (x, weight, bias), bwd)
