"""Differentiable volumetric operators.

All functions take and return :class:`~dodnet.tensor.Tensor` and follow the
NCDHW layout.  Backward passes are hand-derived and validated by the central
finite-difference suite in the tests.
"""

from __future__ import annotations

import itertools
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
    padded NCDHW array, copied out of a strided view (for a 1x1x1 stride-1
    kernel on a contiguous array, the view itself)."""
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


def _pad(a: np.ndarray, pads) -> np.ndarray:
    """Zero-pad the spatial axes of an NCDHW array by a (before, after) pair
    per axis, where a negative amount crops; `a` itself when every amount
    is 0."""
    if not any(b or e for b, e in pads):
        return a
    crop = tuple(slice(max(-b, 0), n - max(-e, 0)) for (b, e), n in zip(pads, a.shape[2:]))
    widths = tuple((max(b, 0), max(e, 0)) for b, e in pads)
    return np.pad(a[(slice(None), slice(None)) + crop], ((0, 0), (0, 0)) + widths)


def _correlate(xp: np.ndarray, w2: np.ndarray, kernel, stride, out_spatial) -> np.ndarray:
    """Cross-correlate a padded NCDHW array with kernels flattened to
    (C_out, C_in*kd*kh*kw), one depth slab of patch columns at a time.

    Each slab's product is written straight into its slice of the output.
    For a 1x1x1 stride-1 kernel the columns are a view of the input, so the
    conv is one channel-mixing matmul with no copy.
    """
    n = xp.shape[0]
    cout = w2.shape[0]
    dtype = np.result_type(xp.dtype, w2.dtype)
    out = np.empty((n, cout) + tuple(out_spatial), dtype=dtype)
    hw = out_spatial[1] * out_spatial[2]
    flat = out.reshape(n, cout, -1)
    for z0, z1 in _depth_slabs(n, w2.shape[1], out_spatial, dtype.itemsize):
        cols = _slab_cols(xp, kernel, stride, z0, z1, out_spatial[1:])
        np.matmul(w2, cols, out=flat[:, :, z0 * hw : z1 * hw])
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


def _input_grad(go: np.ndarray, weight: np.ndarray, in_spatial, stride, padding) -> np.ndarray:
    """d(loss)/d(input) of a conv as forward correlations, one per stride
    phase of the input grid.

    Along an axis with stride s and padding p, the input voxels r::s meet
    only the kernel taps w[c::s], where t, c = divmod(r + p, s).  Their
    gradient is the stride-1 correlation of the output gradient, shifted by
    t, with the flipped, channel-transposed sub-kernel.  Phases whose taps
    or voxels are empty keep a zero gradient.  Stride 1 is a single phase:
    the full correlation with the output gradient padded by k-1-p.
    """
    cin = weight.shape[1]
    per_axis = []
    for d, k, s, p, o in zip(in_spatial, weight.shape[2:], stride, padding, go.shape[2:]):
        phases = []
        for r in range(s):
            t, c = divmod(r + p, s)
            m, j = len(range(c, k, s)), len(range(r, d, s))
            if m and j:
                phases.append((slice(r, None, s), slice(c, None, s), (m - 1 - t, j + t - o), j))
        per_axis.append(phases)
    gx = None
    if stride != (1, 1, 1):
        gx = np.zeros((go.shape[0], cin) + in_spatial, dtype=go.dtype)
    for phase in itertools.product(*per_axis):
        voxels, taps, pads, extents = zip(*phase)
        sub = weight[(slice(None), slice(None)) + taps][:, :, ::-1, ::-1, ::-1]
        w2 = sub.transpose(1, 0, 2, 3, 4).reshape(cin, -1)
        g = _correlate(_pad(go, pads), w2, sub.shape[2:], (1, 1, 1), extents)
        if gx is None:
            return g
        gx[(slice(None), slice(None)) + voxels] = g
    return gx


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

    xp = _pad(x.data, [(p, p) for p in padding])
    w2 = weight.data.reshape(cout, -1)
    out_data = _correlate(xp, w2, kernel, stride, out_spatial)
    if bias is not None:
        out_data += bias.data[None, :, None, None, None]

    def grad_fn(go):
        if bias is not None and bias.requires_grad:
            accumulate_grad(bias, go.sum(axis=(0, 2, 3, 4)))
        # The weight-gradient columns are freed on return, before the
        # input-gradient columns are built.
        if weight.requires_grad:
            accumulate_grad(weight, _weight_grad(xp, go, kernel, stride).reshape(weight.shape))
        if x.requires_grad:
            accumulate_grad(x, _input_grad(go, weight.data, (d, h, w), stride, padding))

    return _finalize(Tensor(out_data), (x, weight) if bias is None else (x, weight, bias), grad_fn)


def _standardize(a: np.ndarray, eps: float) -> Tuple[np.ndarray, np.ndarray]:
    """Zero mean and unit variance over the last axis: (xhat, inv), where
    inv = 1 / sqrt(var + eps) keeps the last axis as size 1."""
    mu = a.mean(axis=-1, keepdims=True)
    var = a.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return (a - mu) * inv, inv


def _standardize_grad(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """d(loss)/d(a) of _standardize, given g = d(loss)/d(xhat)."""
    mean_g = g.mean(axis=-1, keepdims=True)
    mean_gx = (g * xhat).mean(axis=-1, keepdims=True)
    return inv * (g - mean_g - xhat * mean_gx)


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
    xhat, inv = _standardize(x.data.reshape(n, num_groups, -1), eps)  # (N, G, M)
    xhat_c = xhat.reshape(n, c, -1)
    gslice = gamma.data[None, :, None]
    out = Tensor((xhat_c * gslice + beta.data[None, :, None]).reshape(x.shape))

    def grad_fn(g):
        go = g.reshape(n, c, -1)
        if beta.requires_grad:
            accumulate_grad(beta, go.sum(axis=(0, 2)))
        if gamma.requires_grad:
            accumulate_grad(gamma, (go * xhat_c).sum(axis=(0, 2)))
        if x.requires_grad:
            dxhat = (go * gslice).reshape(xhat.shape)
            accumulate_grad(x, _standardize_grad(dxhat, xhat, inv).reshape(x.shape))

    return _finalize(out, (x, gamma, beta), grad_fn)


def weight_standardize(w: Tensor, eps: float = 1e-5) -> Tensor:
    """Shift/scale each output-channel kernel to zero mean, unit variance.

    The eps guard sits under the square root, so a constant kernel maps to
    exactly zero instead of dividing by zero.
    """
    if w.ndim != 5:
        raise ValueError(f"weight_standardize expects 5-d kernels, got {w.shape}")
    what, inv = _standardize(w.data.reshape(w.shape[0], -1), eps)

    def grad_fn(g):
        accumulate_grad(w, _standardize_grad(g.reshape(what.shape), what, inv).reshape(w.shape))

    return _finalize(Tensor(what.reshape(w.shape)), (w,), grad_fn)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0  # subgradient 0 at the kink
    return _finalize(Tensor(np.maximum(x.data, 0)), (x,), lambda g: accumulate_grad(x, g * mask))


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
    return _finalize(Tensor(s), (x,), lambda g: accumulate_grad(x, g * s * (1.0 - s)))


def log(x: Tensor) -> Tensor:
    return _finalize(Tensor(np.log(x.data)), (x,), lambda g: accumulate_grad(x, g / x.data))


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    if not lo < hi:
        raise ValueError(f"clamp needs lo < hi, got [{lo}, {hi}]")
    mask = (x.data >= lo) & (x.data <= hi)
    return _finalize(Tensor(np.clip(x.data, lo, hi)), (x,), lambda g: accumulate_grad(x, g * mask))


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
    sizes = [t.shape[axis] for t in tensors]

    def grad_fn(g):
        offset = 0
        for t, sz in zip(tensors, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offset, offset + sz)
            accumulate_grad(t, g[tuple(idx)])
            offset += sz

    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    return _finalize(out, tuple(tensors), grad_fn)


def global_avg_pool(x: Tensor) -> Tensor:
    """(N, C, D, H, W) -> (N, C) spatial mean."""
    if x.ndim != 5:
        raise ValueError(f"global_avg_pool expects NCDHW input, got {x.shape}")
    voxels = int(np.prod(x.shape[2:]))

    def grad_fn(g):
        gx = np.broadcast_to(g[:, :, None, None, None] / voxels, x.shape)
        accumulate_grad(x, gx.astype(x.dtype, copy=False))

    return _finalize(Tensor(x.data.mean(axis=(2, 3, 4))), (x,), grad_fn)


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

    def grad_fn(g):
        g_even, g_odd = g[at(0, None, 2)], g[at(1, None, 2)]
        gx = 0.75 * (g_even + g_odd)
        gx[at(1)] += 0.25 * g_odd[at(0, -1)]
        gx[at(0, -1)] += 0.25 * g_even[at(1)]
        gx[at(0, 1)] += 0.25 * g_even[at(0, 1)]
        gx[at(-1)] += 0.25 * g_odd[at(-1)]
        accumulate_grad(x, gx)

    return _finalize(Tensor(out_data), (x,), grad_fn)


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

    def grad_fn(g):
        if bias.requires_grad:
            accumulate_grad(bias, g.sum(axis=0))
        if weight.requires_grad:
            accumulate_grad(weight, g.T @ x.data)
        if x.requires_grad:
            accumulate_grad(x, g @ weight.data)

    return _finalize(Tensor(x.data @ weight.data.T + bias.data), (x, weight, bias), grad_fn)


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

    def grad_fn(g):
        go = g.reshape(n, cout, -1)
        if bias.requires_grad:
            accumulate_grad(bias, go.sum(axis=2))
        if weight.requires_grad:
            accumulate_grad(weight, np.matmul(go, xf.transpose(0, 2, 1)))
        if x.requires_grad:
            gx = np.matmul(weight.data.transpose(0, 2, 1), go)
            accumulate_grad(x, gx.reshape(x.shape))

    return _finalize(Tensor(out_data.reshape(n, cout, *spatial)), (x, weight, bias), grad_fn)
