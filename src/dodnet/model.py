"""Network architectures: shared encoder-decoder backbones plus three ways of
producing per-task segmentation logits.

* ``DodNet``: one backbone; a controller turns (pooled bottleneck, task
  one-hot) into the flat parameter vector of a tiny per-sample head of
  stacked 1x1x1 convolutions.
* ``MultiHeadNet``: one encoder, one half-width decoder per task.
* ``CondInputNet``: task one-hot broadcast as extra input channels, single
  fixed head.

All logits have two channels: organ (0) and tumor (1).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import ops
from .tensor import Tensor

ORGAN_CHANNEL = 0
TUMOR_CHANNEL = 1
OUT_CHANNELS = 2


@dataclass(frozen=True)
class ModelConfig:
    num_tasks: int
    base_channels: int = 32
    num_downsamples: int = 4
    pre_seg_channels: int = 8
    head_depth: int = 3
    head_width: int = 8
    gn_groups: int = 8
    in_channels: int = 1

    def __post_init__(self):
        for field in (
            "num_tasks",
            "base_channels",
            "num_downsamples",
            "pre_seg_channels",
            "head_depth",
            "head_width",
            "gn_groups",
            "in_channels",
        ):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be positive, got {getattr(self, field)}")
        if self.head_depth < 2:
            raise ValueError(f"head_depth must be at least 2, got {self.head_depth}")
        for c in self.channel_schedule():
            g = min(self.gn_groups, c)
            if c % g != 0:
                raise ValueError(
                    f"channel count {c} in the schedule is not divisible by its "
                    f"group-norm group count {g}"
                )

    def channel_schedule(self) -> Tuple[int, ...]:
        return tuple(self.base_channels * 2**lvl for lvl in range(self.num_downsamples + 1))

    @property
    def bottleneck_channels(self) -> int:
        return self.base_channels * 2**self.num_downsamples


def desk_config(num_tasks: int = 2, **overrides) -> ModelConfig:
    """Small configuration that trains in minutes on a laptop CPU: the
    defaults with 8 base channels and two downsampling steps."""
    return ModelConfig(num_tasks, **{"base_channels": 8, "num_downsamples": 2, **overrides})


def full_config(num_tasks: int = 7, **overrides) -> ModelConfig:
    """Full-size configuration: the defaults (32 base channels, four
    downsampling steps)."""
    return ModelConfig(num_tasks, **overrides)


def encode_task(task_index: int, num_tasks: int) -> np.ndarray:
    """One-hot row for a 0-based task index."""
    if not 0 <= task_index < num_tasks:
        raise ValueError(f"task index {task_index} out of range for {num_tasks} tasks")
    code = np.zeros(num_tasks, dtype=np.float32)
    code[task_index] = 1.0
    return code


def head_layer_shapes(config: ModelConfig) -> List[Tuple[int, int]]:
    """(in, out) channel pairs of the generated head's 1x1x1 layers."""
    shapes = [(config.pre_seg_channels, config.head_width)]
    shapes += [(config.head_width, config.head_width)] * (config.head_depth - 2)
    shapes.append((config.head_width, OUT_CHANNELS))
    return shapes


def head_param_count(config: ModelConfig) -> int:
    """Number of scalars the controller must emit: weights plus biases of
    every generated head layer."""
    return sum(cin * cout + cout for cin, cout in head_layer_shapes(config))


# ---------------------------------------------------------------------------
# layers


class Module:
    """Bare-bones parameter container; children found via attribute scan."""

    def named_parameters(self, prefix: str = "") -> List[Tuple[str, Tensor]]:
        out: List[Tuple[str, Tensor]] = []
        for name, val in vars(self).items():
            if isinstance(val, Tensor) and val.requires_grad:
                out.append((prefix + name, val))
            elif isinstance(val, Module):
                out.extend(val.named_parameters(f"{prefix}{name}."))
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        out.extend(item.named_parameters(f"{prefix}{name}.{i}."))
        return out

    def param_count(self) -> int:
        return sum(p.size for _, p in self.named_parameters())


def _conv_init(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    fan_in = int(np.prod(shape[1:]))
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


class Conv3d(Module):
    def __init__(
        self,
        rng: np.random.Generator,
        cin: int,
        cout: int,
        kernel: int = 3,
        stride: int = 1,
        standardize: bool = False,
    ):
        self.weight = Tensor(_conv_init(rng, (cout, cin, kernel, kernel, kernel)), requires_grad=True)
        self.bias = Tensor(np.zeros(cout, dtype=np.float32), requires_grad=True)
        self.stride = stride
        self.padding = kernel // 2
        # Standardizing a fan-in-1 kernel would zero it out; skip in that case.
        self.standardize = standardize and cin * kernel**3 > 1

    def __call__(self, x: Tensor) -> Tensor:
        w = ops.weight_standardize(self.weight) if self.standardize else self.weight
        return ops.conv3d(x, w, self.bias, stride=self.stride, padding=self.padding)


class GroupNorm3d(Module):
    def __init__(self, channels: int, gn_groups: int):
        groups = min(gn_groups, channels)
        if channels % groups != 0:
            raise ValueError(f"{channels} channels not divisible by {groups} groups")
        self.groups = groups
        self.gamma = Tensor(np.ones(channels, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ops.group_norm(x, self.groups, self.gamma, self.beta)


class ResidualBlock(Module):
    """Two 3x3x3 conv -> GN -> ReLU units plus an additive identity path.

    The identity is projected with a 1x1x1 convolution whenever channel
    counts or stride differ.  The first convolution carries the stride, so a
    stride-2 block is also the downsampling step.  Standardized kernels keep
    unit variance, so the projection is renormalized (no ReLU: rectifying the
    identity path would discard half the skip signal).
    """

    def __init__(self, rng, cin: int, cout: int, stride: int, gn_groups: int):
        self.conv1 = Conv3d(rng, cin, cout, kernel=3, stride=stride, standardize=True)
        self.norm1 = GroupNorm3d(cout, gn_groups)
        self.conv2 = Conv3d(rng, cout, cout, kernel=3, stride=1, standardize=True)
        self.norm2 = GroupNorm3d(cout, gn_groups)
        if cin != cout or stride != 1:
            self.project = Conv3d(rng, cin, cout, kernel=1, stride=stride, standardize=True)
            self.project_norm = GroupNorm3d(cout, gn_groups)
        else:
            self.project = None
            self.project_norm = None

    def __call__(self, x: Tensor) -> Tensor:
        h = ops.relu(self.norm1(self.conv1(x)))
        h = ops.relu(self.norm2(self.conv2(h)))
        skip = self.project_norm(self.project(x)) if self.project is not None else x
        return h + skip


class Encoder(Module):
    """Residual pyramid; level l halves resolution l times and carries
    base * 2**l channels.  The deepest level is the bottleneck."""

    def __init__(self, rng, config: ModelConfig, in_channels: Optional[int] = None):
        cin = config.in_channels if in_channels is None else in_channels
        schedule = config.channel_schedule()
        self.in_channels = cin
        self.num_downsamples = config.num_downsamples
        blocks = [ResidualBlock(rng, cin, schedule[0], 1, config.gn_groups)]
        for lvl in range(1, len(schedule)):
            blocks.append(
                ResidualBlock(rng, schedule[lvl - 1], schedule[lvl], 2, config.gn_groups)
            )
        self.blocks = blocks

    def __call__(self, x: Tensor) -> List[Tensor]:
        if x.ndim != 5:
            raise ValueError(f"encoder expects NCDHW input, got shape {x.shape}")
        if x.shape[1] != self.in_channels:
            raise ValueError(
                f"encoder expects {self.in_channels} input channels, got {x.shape[1]}"
            )
        divisor = 2**self.num_downsamples
        if any(s % divisor != 0 for s in x.shape[2:]):
            raise ValueError(
                f"input spatial extents {tuple(x.shape[2:])} must be divisible by {divisor}"
            )
        levels = []
        h = x
        for block in self.blocks:
            h = block(h)
            levels.append(h)
        return levels


class Decoder(Module):
    """Upsample -> sum skip -> residual block, then a 1x1x1 output map.

    The channel-halving convolution after each upsample carries its own
    GN + ReLU.  ``width_divisor`` shrinks every decoder width (used by the
    multi-head baseline); skips are then projected (and renormalized) to the
    reduced width.  ``normalize_output`` appends GN + ReLU to the output map;
    set it when the map feeds a segmentation head rather than the loss, so
    head inputs keep a stable scale no matter how far training has pushed
    the backbone.
    """

    def __init__(
        self,
        rng,
        config: ModelConfig,
        out_channels: int,
        width_divisor: int = 1,
        normalize_output: bool = False,
    ):
        schedule = config.channel_schedule()
        self.expected_channels = schedule
        prev = schedule[-1]
        up_convs, up_norms, skip_projs, skip_norms, blocks = [], [], [], [], []
        for step in range(config.num_downsamples):
            skip_ch = schedule[config.num_downsamples - 1 - step]
            width = max(1, skip_ch // width_divisor)
            up_convs.append(Conv3d(rng, prev, width, kernel=1, standardize=True))
            up_norms.append(GroupNorm3d(width, config.gn_groups))
            if width != skip_ch:
                skip_projs.append(Conv3d(rng, skip_ch, width, kernel=1, standardize=True))
                skip_norms.append(GroupNorm3d(width, config.gn_groups))
            else:
                skip_projs.append(None)
                skip_norms.append(None)
            blocks.append(ResidualBlock(rng, width, width, 1, config.gn_groups))
            prev = width
        self.up_convs = up_convs
        self.up_norms = up_norms
        self.skip_projs = skip_projs
        self.skip_norms = skip_norms
        self.blocks = blocks
        self.out_conv = Conv3d(rng, prev, out_channels, kernel=1, standardize=True)
        self.out_norm = (
            GroupNorm3d(out_channels, config.gn_groups) if normalize_output else None
        )

    def __call__(self, levels: Sequence[Tensor]) -> Tensor:
        if len(levels) != len(self.blocks) + 1:
            raise ValueError(
                f"decoder expects {len(self.blocks) + 1} pyramid levels, got {len(levels)}"
            )
        for lvl, want in zip(levels, self.expected_channels):
            if lvl.shape[1] != want:
                raise ValueError(
                    f"pyramid level has {lvl.shape[1]} channels, decoder expects {want}"
                )
        h = levels[-1]
        for step, (up, up_norm, proj, proj_norm, block) in enumerate(
            zip(self.up_convs, self.up_norms, self.skip_projs, self.skip_norms, self.blocks)
        ):
            h = ops.relu(up_norm(up(ops.upsample_trilinear(h))))
            skip = levels[len(self.blocks) - 1 - step]
            if proj is not None:
                skip = proj_norm(proj(skip))
            h = block(h + skip)
        h = self.out_conv(h)
        if self.out_norm is not None:
            h = ops.relu(self.out_norm(h))
        return h


class Linear(Module):
    def __init__(self, rng, fan_in: int, fan_out: int):
        std = np.sqrt(2.0 / fan_in)
        self.weight = Tensor(
            rng.normal(0.0, std, size=(fan_out, fan_in)).astype(np.float32), requires_grad=True
        )
        self.bias = Tensor(np.zeros(fan_out, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias)


# ---------------------------------------------------------------------------
# dynamic head


# Per-layer (weight (N, C_out, C_in), bias (N, C_out)) pairs of a generated head.
HeadKernels = Tuple[Tuple[Tensor, Tensor], ...]


def split_kernels(omega: Tensor, config: ModelConfig) -> HeadKernels:
    """Slice the flat controller output (N, head_param_count) into per-layer
    weight blocks (row-major, out-channel major) and bias blocks."""
    total = head_param_count(config)
    if omega.ndim != 2 or omega.shape[1] != total:
        raise ValueError(
            f"kernel vector must have shape (N, {total}), got {omega.shape}"
        )
    n = omega.shape[0]
    layers = []
    offset = 0
    for cin, cout in head_layer_shapes(config):
        w = omega[:, offset : offset + cout * cin].reshape(n, cout, cin)
        offset += cout * cin
        b = omega[:, offset : offset + cout]
        offset += cout
        layers.append((w, b))
    return tuple(layers)


def dynamic_head(features: Tensor, kernels: HeadKernels) -> Tensor:
    """Run the per-sample 1x1x1 stack; ReLU between layers, none after the last."""
    h = features
    last = len(kernels) - 1
    for i, (w, b) in enumerate(kernels):
        h = ops.batched_pointwise_conv3d(h, w, b)
        if i != last:
            h = ops.relu(h)
    return h


# ---------------------------------------------------------------------------
# full models

TaskArg = Union[int, Sequence[int], np.ndarray]


def _task_codes(task: TaskArg, n: int, num_tasks: int) -> np.ndarray:
    if isinstance(task, (int, np.integer)):
        indices = [int(task)] * n
    else:
        indices = [int(t) for t in task]
        if len(indices) != n:
            raise ValueError(f"got {len(indices)} task indices for a batch of {n}")
    return np.stack([encode_task(t, num_tasks) for t in indices])


class DodNet(Module):
    """Single backbone whose segmentation head is generated per sample by a
    task-and-image conditioned controller."""

    arch = "dodnet"

    def __init__(self, config: ModelConfig, seed: int = 0, condition_on_task: bool = True):
        rng = np.random.default_rng(seed)
        self.config = config
        self.condition_on_task = condition_on_task
        self.encoder = Encoder(rng, config)
        self.decoder = Decoder(
            rng, config, out_channels=config.pre_seg_channels, normalize_output=True
        )
        self.controller = Linear(
            rng, config.bottleneck_channels + config.num_tasks, head_param_count(config)
        )

    def forward(self, x: Tensor, task: TaskArg, return_internals: bool = False):
        levels = self.encoder(x)
        seg_features = self.decoder(levels)
        omega = self.generate_kernels(self.pool_bottleneck(levels[-1]), task)
        logits = dynamic_head(seg_features, split_kernels(omega, self.config))
        if return_internals:
            return logits, {
                "pyramid": levels,
                "seg_features": seg_features,
                "kernel_vector": omega,
            }
        return logits

    __call__ = forward

    @staticmethod
    def pool_bottleneck(bottleneck: Tensor) -> Tensor:
        """(N, C) conditioning vector: the bottleneck map re-standardized (no
        learned affine) and averaged over space."""
        # Standardizing before pooling keeps the conditioning scale from
        # drifting as the backbone trains; a freshly initialized controller
        # then produces same-magnitude kernels whether the backbone is trained
        # or not, which keeps warm starts sane.
        c = bottleneck.shape[1]
        dt = bottleneck.data.dtype
        scale_free = ops.group_norm(
            bottleneck, 1, Tensor(np.ones(c, dtype=dt)), Tensor(np.zeros(c, dtype=dt))
        )
        return ops.global_avg_pool(scale_free)

    def generate_kernels(self, pooled: Tensor, task: TaskArg) -> Tensor:
        """Flat head parameters (N, head_param_count) for the given task(s),
        from the conditioning vector ``pool_bottleneck(bottleneck)``."""
        codes = _task_codes(task, pooled.shape[0], self.config.num_tasks)
        if not self.condition_on_task:
            codes = np.zeros_like(codes)
        return self.controller(ops.concat([pooled, Tensor(codes)], axis=1))

    def segment_all_tasks(self, x: Tensor, tasks: Optional[Sequence[int]] = None) -> List[Tensor]:
        """One backbone pass and one pooled bottleneck, then one controller
        call and one generated head per requested task."""
        tasks = range(self.config.num_tasks) if tasks is None else tasks
        levels = self.encoder(x)
        seg_features = self.decoder(levels)
        pooled = self.pool_bottleneck(levels[-1])
        out = []
        for t in tasks:
            omega = self.generate_kernels(pooled, int(t))
            out.append(dynamic_head(seg_features, split_kernels(omega, self.config)))
        return out


class MultiHeadNet(Module):
    """Shared encoder, one half-width decoder (with fixed 2-channel output)
    per task."""

    arch = "multi_head"

    def __init__(self, config: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.config = config
        self.encoder = Encoder(rng, config)
        self.decoders = [
            Decoder(rng, config, out_channels=OUT_CHANNELS, width_divisor=2)
            for _ in range(config.num_tasks)
        ]

    def forward(self, x: Tensor, task: TaskArg, return_internals: bool = False):
        if not isinstance(task, (int, np.integer)):
            raise ValueError("multi_head forward routes one task per call")
        if not 0 <= int(task) < self.config.num_tasks:
            raise ValueError(
                f"task index {task} out of range for {self.config.num_tasks} tasks"
            )
        levels = self.encoder(x)
        logits = self.decoders[int(task)](levels)
        if return_internals:
            return logits, {"pyramid": levels}
        return logits

    __call__ = forward

    def segment_all_tasks(self, x: Tensor, tasks: Optional[Sequence[int]] = None) -> List[Tensor]:
        tasks = range(self.config.num_tasks) if tasks is None else tasks
        levels = self.encoder(x)
        return [self.decoders[int(t)](levels) for t in tasks]


class CondInputNet(Module):
    """Task one-hot broadcast over space as extra input channels; a single
    fixed head of stacked 1x1x1 convolutions."""

    arch = "cond_input"

    def __init__(self, config: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.config = config
        self.encoder = Encoder(rng, config, in_channels=config.in_channels + config.num_tasks)
        self.decoder = Decoder(
            rng, config, out_channels=config.pre_seg_channels, normalize_output=True
        )
        self.head = [
            Conv3d(rng, cin, cout, kernel=1) for cin, cout in head_layer_shapes(config)
        ]

    def _conditioned_input(self, x: Tensor, task: TaskArg) -> Tensor:
        if x.shape[1] != self.config.in_channels:
            raise ValueError(
                f"cond_input forward expects the raw {self.config.in_channels}-channel "
                f"volume, got {x.shape[1]} channels"
            )
        n = x.shape[0]
        codes = _task_codes(task, n, self.config.num_tasks)  # (N, m)
        planes = np.broadcast_to(
            codes[:, :, None, None, None], (n, self.config.num_tasks) + x.shape[2:]
        ).astype(x.dtype)
        return ops.concat([x, Tensor(planes)], axis=1)

    def forward(self, x: Tensor, task: TaskArg, return_internals: bool = False):
        h = self.decoder(self.encoder(self._conditioned_input(x, task)))
        last = len(self.head) - 1
        for i, conv in enumerate(self.head):
            h = conv(h)
            if i != last:
                h = ops.relu(h)
        if return_internals:
            return h, {}
        return h

    __call__ = forward

    def segment_all_tasks(self, x: Tensor, tasks: Optional[Sequence[int]] = None) -> List[Tensor]:
        tasks = range(self.config.num_tasks) if tasks is None else tasks
        return [self.forward(x, int(t)) for t in tasks]


ARCHITECTURES = {cls.arch: cls for cls in (DodNet, MultiHeadNet, CondInputNet)}


def build_model(arch: str, config: ModelConfig, seed: int = 0, **kwargs) -> Module:
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}")
    return ARCHITECTURES[arch](config, seed=seed, **kwargs)
