"""Differentiable volumetric operators.

All functions take and return :class:`~dodnet.tensor.Tensor` and follow the
NCDHW layout.  Backward passes are hand-derived and validated by the central
finite-difference suite in the tests.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .tensor import Tensor, _finalize, accumulate_grad

IntOrTriple = Union[int, Tuple[int, int, int]]

# Budget of the stacked-shift buffer of a conv, in bytes; a chunk holds at
# least one output depth row.  Timed on the k3 convs of the repo benchmark's
# workloads (2-core x86-64, one BLAS thread), budgets of 2 MiB and less ran
# 5-41% slower per workload than 4 MiB, and 8 MiB within 6% of it.
_SHIFT_BUF_BYTES = 4 * 1024 * 1024

# Variance guard of group norm and weight standardization.
NORM_EPS = 1e-5


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


def _pad(a: np.ndarray, pads) -> np.ndarray:
    """Zero-pad the spatial axes of an NCDHW array by a (before, after) pair
    per axis; `a` itself when every amount is 0."""
    if not any(b or e for b, e in pads):
        return a
    return np.pad(a, ((0, 0), (0, 0)) + tuple(pads))


def _phase_grid(x: np.ndarray, kernel, stride, padding, out_spatial) -> np.ndarray:
    """The zero-padded NCDHW array `x` split into the stride phases a conv
    reads, as one array (N, md, mh, mw, C, Dq, Hq, Wq).

    Along an axis with kernel k and stride s there are m = min(s, k)
    phases: phase r holds the padded voxels r::s, of which the conv reads
    Q = O - 1 + ceil(k / s), and tap a reads phase a % m at offset a // m.
    At stride 1 this is the padded array itself, with unit phase axes; it is
    built in one copy, and without padding it is a view of `x`.
    """
    n, c = x.shape[:2]
    if stride == (1, 1, 1) and not any(padding):
        return x[:, None, None, None]
    counts = [min(s, k) for k, s in zip(kernel, stride)]
    extents = [o - 1 + -(-k // s) for o, k, s in zip(out_spatial, kernel, stride)]
    grid = np.zeros((n, *counts, c, *extents), dtype=x.dtype)
    for phase in itertools.product(*map(range, counts)):
        src, dst = [slice(None)] * 2, [slice(None), *phase, slice(None)]
        for r, s, p, d, q in zip(phase, stride, padding, x.shape[2:], extents):
            # Phase voxel j is input voxel r + s*j - p: copy the ones inside.
            j0 = max(0, -((r - p) // s))
            j1 = max(j0, min(q, (d - 1 + p - r) // s + 1))
            src.append(slice(r + s * j0 - p, r + s * j1 - p, s))
            dst.append(slice(j0, j1))
        grid[tuple(dst)] = x[tuple(src)]
    return grid


def _shift_stacks(xq: np.ndarray, kernel, out_spatial, origin=(0, 0, 0)):
    """Stacked in-plane shifts of a phase grid (see `_phase_grid`) for a
    correlation, per sample and per chunk of output depth rows.

    On the flat (Dq, Hq, Wq) grid of a phase, output voxel v of the box at
    `origin` reads tap (a, b, c) at v + (a//md)*Hq*Wq + (b//mh)*Wq + c//mw
    of phase (a % md, b % mh, c % mw).  Per depth phase and in-plane tap
    (b, c) that slice is copied into one reused buffer, rows ordered (depth
    phase, b, c, channel), so the taps at depth offset a' are leading rows
    of the column slice [a'*Hq*Wq, a'*Hq*Wq + cols) for the chunk's first
    `cols` grid voxels.  Grid voxels past the output's rows and width are
    junk, for the callers to crop or zero.  With a single stacked shift the
    stack is a view of the input, not a copy.  Yields (sample, z0, z1,
    stack, cols); a chunk holds at least one depth row and otherwise keeps
    the buffer within _SHIFT_BUF_BYTES.
    """
    n, md, mh, mw, c, _, hq, wq = xq.shape
    kd, kh, kw = kernel
    do, ho, wo = out_spatial
    plane = hq * wq
    flat = xq.reshape(n, md, mh, mw, c, -1)
    start = (origin[0] * hq + origin[1]) * wq + origin[2]
    shifts = [
        (r, b % mh, e % mw, b // mh * wq + e // mw)
        for r in range(md)
        for b in range(kh)
        for e in range(kw)
    ]
    reach = (kd - 1) // md  # depth rows read past a chunk's last output row
    if len(shifts) == 1:
        z_step = do
    else:
        rows = len(shifts) * c
        z_step = max(1, _SHIFT_BUF_BYTES // (rows * plane * xq.dtype.itemsize) - reach)
        z_step = min(z_step, do)
        buf = np.empty((len(shifts), c, (z_step + reach) * plane), dtype=xq.dtype)
    for i in range(n):
        for z0 in range(0, do, z_step):
            z1 = min(z0 + z_step, do)
            cols = (z1 - z0 - 1) * plane + (ho - 1) * wq + wo
            span = reach * plane + cols
            at = start + z0 * plane
            if len(shifts) == 1:
                stack = flat[i, 0, 0, 0, :, at : at + span]
            else:
                for j, (r, bh, bw, s) in enumerate(shifts):
                    buf[j, :, :span] = flat[i, r, bh, bw, :, at + s : at + s + span]
                stack = buf.reshape(rows, -1)[:, :span]
            yield i, z0, z1, stack, cols


def _correlate(xq: np.ndarray, weight: np.ndarray, out_spatial, origin=(0, 0, 0)) -> np.ndarray:
    """Cross-correlation of the box of a phase grid (see `_phase_grid`) that
    starts at `origin`, with kernels (C_out, C_in, kd, kh, kw).

    One GEMM per depth offset, on the stacked shifts of `_shift_stacks`,
    accumulates the output on the (Do, Hq, Wq) grid, which is cropped chunk
    by chunk into the output.
    """
    n, md = xq.shape[:2]
    hq, wq = xq.shape[-2:]
    cout, _, kd = weight.shape[:3]
    ho, wo = out_spatial[1:]
    plane = hq * wq
    dtype = np.result_type(xq.dtype, weight.dtype)
    # The taps of each depth offset, columns ordered as the stack's rows.
    taps = [
        weight[:, :, a : a + md].transpose(0, 2, 3, 4, 1).reshape(cout, -1)
        for a in range(0, kd, md)
    ]
    out = np.empty((n, cout) + tuple(out_spatial), dtype=dtype)
    # Without in-plane padding the grid is the output itself.
    direct = (ho, wo) == (hq, wq)
    shape = None
    for i, z0, z1, stack, cols in _shift_stacks(xq, weight.shape[2:], out_spatial, origin):
        if shape is None:  # the first chunk is the largest
            shape = (cout, (z1 - z0) * plane)
            acc = None if direct else np.empty(shape, dtype=dtype)
            tmp = np.empty(shape, dtype=dtype) if len(taps) > 1 else None
        grid = out[i].reshape(cout, -1)[:, z0 * plane : z1 * plane] if direct else acc[:, :cols]
        for a, tap in enumerate(taps):
            part = stack[: tap.shape[1], a * plane : a * plane + cols]
            if a == 0:
                np.matmul(tap, part, out=grid)
            else:
                np.matmul(tap, part, out=tmp[:, :cols])
                grid += tmp[:, :cols]
        if not direct:
            out[i, :, z0:z1] = acc.reshape(cout, -1, hq, wq)[:, : z1 - z0, :ho, :wo]
    return out


def _weight_grad(xq: np.ndarray, go: np.ndarray, kernel) -> np.ndarray:
    """d(loss)/d(kernels) of a conv as (C_out, C_in, kd, kh, kw): the forward
    pass's stacked-shift product on its phase grid, transposed, against the
    output gradient laid onto the (Do, Hq, Wq) grid with zero border
    columns."""
    n, cout, do, ho, wo = go.shape
    md = xq.shape[1]
    hq, wq = xq.shape[-2:]
    kd, kh, kw = kernel
    plane = hq * wq
    rows = kh * kw * xq.shape[4]
    if (ho, wo) == (hq, wq):
        grid = go.reshape(n, cout, -1)
    else:
        grid = np.zeros((n, cout, do, hq, wq), dtype=go.dtype)
        grid[..., :ho, :wo] = go
        grid = grid.reshape(n, cout, -1)
    # Accumulated transposed: (rows, L) @ (L, C_out) measured about 3x faster
    # than (C_out, L) @ (L, rows) with the stack as the transposed operand
    # (one OpenBLAS thread, x86-64).
    gw_t = np.zeros((kd * rows, cout), dtype=go.dtype)
    for i, z0, _, stack, cols in _shift_stacks(xq, kernel, go.shape[2:]):
        g = grid[i, :, z0 * plane : z0 * plane + cols].T
        for a in range(0, kd, md):
            at = a // md * plane
            part = stack[: min(md, kd - a) * rows, at : at + cols]
            gw_t[a * rows : a * rows + part.shape[0]] += part @ g
    return gw_t.reshape(kd, kh, kw, -1, cout).transpose(4, 3, 0, 1, 2)


def _input_grad(go: np.ndarray, weight: np.ndarray, in_spatial, stride, padding) -> np.ndarray:
    """d(loss)/d(input) of a conv as stride-1 correlations, one per stride
    phase of the input grid.

    Along an axis with stride s and padding p, the input voxels r::s meet
    only the kernel taps w[c::s], where t, c = divmod(r + p, s).  Their
    gradient is the stride-1 correlation of the output gradient, shifted by
    t, with the flipped, channel-transposed sub-kernel: m taps over j
    voxels read the output gradient padded by m-1-t before.  The output
    gradient is padded once, by the largest amounts any phase needs, and
    each phase reads its own box of that copy.  Phases whose taps or voxels
    are empty keep a zero gradient.  Stride 1 is a single phase: the full
    correlation with the output gradient padded by k-1-p.
    """
    per_axis, pads = [], []
    for d, k, s, p, o in zip(in_spatial, weight.shape[2:], stride, padding, go.shape[2:]):
        phases = []
        for r in range(s):
            t, c = divmod(r + p, s)
            m, j = len(range(c, k, s)), len(range(r, d, s))
            if m and j:
                phases.append((slice(r, None, s), slice(c, None, s), m - 1 - t, j, m))
        before = max([0] + [b for _, _, b, _, _ in phases])
        after = max([0] + [j + m - 1 - b - o for _, _, b, j, m in phases])
        per_axis.append([(v, c, before - b, j) for v, c, b, j, _ in phases])
        pads.append((before, after))
    gop = _pad(go, pads)
    gx = None
    if stride != (1, 1, 1):
        gx = np.zeros(go.shape[:1] + weight.shape[1:2] + tuple(in_spatial), dtype=go.dtype)
    for phase in itertools.product(*per_axis):
        voxels, taps, origin, extents = zip(*phase)
        sub = weight[(slice(None), slice(None)) + taps][:, :, ::-1, ::-1, ::-1]
        g = _correlate(gop[:, None, None, None], sub.transpose(1, 0, 2, 3, 4), extents, origin)
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

    Every conv runs as stacked-shift GEMMs on the stride phases of the
    padded input (`_phase_grid`, `_correlate`).  The shift buffer is dropped
    after use, in the forward and the backward pass alike; the tape keeps
    only the phase grid and the kernels.
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

    xq = _phase_grid(x.data, kernel, stride, padding, out_spatial)
    out_data = _correlate(xq, weight.data, out_spatial)
    if bias is not None:
        out_data += bias.data[None, :, None, None, None]

    def grad_fn(go):
        if bias is not None and bias.requires_grad:
            accumulate_grad(bias, go.sum(axis=(0, 2, 3, 4)))
        # The weight-gradient buffers are freed on return, before the
        # input-gradient buffers are built.
        if weight.requires_grad:
            accumulate_grad(weight, _weight_grad(xq, go, kernel))
        if x.requires_grad:
            accumulate_grad(x, _input_grad(go, weight.data, (d, h, w), stride, padding))

    return _finalize(Tensor(out_data), (x, weight) if bias is None else (x, weight, bias), grad_fn)


def _standardize(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Zero mean and unit variance over the last axis: (xhat, inv), where
    inv = 1 / sqrt(var + NORM_EPS) keeps the last axis as size 1."""
    mu = a.mean(axis=-1, keepdims=True)
    var = a.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    return (a - mu) * inv, inv


def _standardize_grad(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """d(loss)/d(a) of _standardize, given g = d(loss)/d(xhat)."""
    mean_g = g.mean(axis=-1, keepdims=True)
    mean_gx = (g * xhat).mean(axis=-1, keepdims=True)
    return inv * (g - mean_g - xhat * mean_gx)


def group_norm(x: Tensor, num_groups: int, gamma: Tensor, beta: Tensor) -> Tensor:
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
    xhat, inv = _standardize(x.data.reshape(n, num_groups, -1))  # (N, G, M)
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


def weight_standardize(w: Tensor) -> Tensor:
    """Shift/scale each output-channel kernel to zero mean, unit variance.

    The NORM_EPS guard sits under the square root, so a constant kernel maps to
    exactly zero instead of dividing by zero.
    """
    if w.ndim != 5:
        raise ValueError(f"weight_standardize expects 5-d kernels, got {w.shape}")
    what, inv = _standardize(w.data.reshape(w.shape[0], -1))

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
