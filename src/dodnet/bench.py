"""Parameter and FLOP accounting for the head-cost claim.

The analytic counter walks the same layer arithmetic the builders use and
reports exact multiply-accumulate counts (bias additions tracked separately).
Normalization, activations, and interpolation are not counted: the
architectures under comparison share them almost one-for-one, and the claim
being measured is about convolution work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .model import (
    OUT_CHANNELS,
    ModelConfig,
    build_model,
    head_layer_shapes,
    head_param_count,
)


@dataclass(frozen=True)
class FlopCount:
    """Exact per-component multiply-accumulate and bias-add counts."""

    macs: Dict[str, int]
    adds: Dict[str, int]

    @property
    def total_macs(self) -> int:
        return sum(self.macs.values())

    @property
    def total_adds(self) -> int:
        return sum(self.adds.values())


def _level_voxels(input_shape: Sequence[int], level: int) -> int:
    return int(np.prod([n // 2**level for n in input_shape]))


def _encoder_flops(
    config: ModelConfig, input_shape: Sequence[int], in_channels: int
) -> Tuple[int, int]:
    schedule = config.channel_schedule()
    macs = 0
    adds = 0
    prev = in_channels
    for level, ch in enumerate(schedule):
        v = _level_voxels(input_shape, level)
        macs += v * ch * prev * 27      # conv1 (carries the stride)
        macs += v * ch * ch * 27        # conv2
        adds += 2 * v * ch
        if prev != ch or level > 0:     # identity projection
            macs += v * ch * prev
            adds += v * ch
        prev = ch
    return macs, adds


def _decoder_flops(
    config: ModelConfig,
    input_shape: Sequence[int],
    out_channels: int,
    width_divisor: int = 1,
) -> Tuple[int, int]:
    schedule = config.channel_schedule()
    macs = 0
    adds = 0
    prev = schedule[-1]
    for step in range(config.num_downsamples):
        level = config.num_downsamples - 1 - step
        skip_ch = schedule[level]
        width = max(1, skip_ch // width_divisor)
        v = _level_voxels(input_shape, level)
        macs += v * width * prev        # 1x1x1 after upsampling
        adds += v * width
        if width != skip_ch:            # skip projection
            macs += v * width * skip_ch
            adds += v * width
        macs += 2 * v * width * width * 27  # residual block convs
        adds += 2 * v * width
        prev = width
    v0 = _level_voxels(input_shape, 0)
    macs += v0 * out_channels * prev
    adds += v0 * out_channels
    return macs, adds


def _head_flops(config: ModelConfig, input_shape: Sequence[int]) -> Tuple[int, int]:
    v0 = _level_voxels(input_shape, 0)
    macs_per_voxel = sum(cin * cout for cin, cout in head_layer_shapes(config))
    adds_per_voxel = sum(cout for _, cout in head_layer_shapes(config))
    return v0 * macs_per_voxel, v0 * adds_per_voxel


def _controller_flops(config: ModelConfig) -> Tuple[int, int]:
    fan_in = config.bottleneck_channels + config.num_tasks
    out = head_param_count(config)
    return fan_in * out, out


def count_flops(
    config: ModelConfig, input_shape: Sequence[int], arch: str, num_tasks: int
) -> FlopCount:
    """MAC counts for segmenting all ``num_tasks`` structures on one input."""
    if any(n % 2**config.num_downsamples for n in input_shape):
        raise ValueError(
            f"input {tuple(input_shape)} not divisible by 2**{config.num_downsamples}"
        )
    if arch == "dodnet":
        enc = _encoder_flops(config, input_shape, config.in_channels)
        dec = _decoder_flops(config, input_shape, config.pre_seg_channels)
        ctrl = _controller_flops(config)
        head = _head_flops(config, input_shape)
        return FlopCount(
            macs={
                "encoder": enc[0],
                "decoder": dec[0],
                "controller": num_tasks * ctrl[0],
                "heads": num_tasks * head[0],
            },
            adds={
                "encoder": enc[1],
                "decoder": dec[1],
                "controller": num_tasks * ctrl[1],
                "heads": num_tasks * head[1],
            },
        )
    if arch == "multi_head":
        enc = _encoder_flops(config, input_shape, config.in_channels)
        dec = _decoder_flops(config, input_shape, OUT_CHANNELS, width_divisor=2)
        return FlopCount(
            macs={"encoder": enc[0], "decoders": num_tasks * dec[0]},
            adds={"encoder": enc[1], "decoders": num_tasks * dec[1]},
        )
    if arch == "cond_input":
        enc = _encoder_flops(config, input_shape, config.in_channels + num_tasks)
        dec = _decoder_flops(config, input_shape, config.pre_seg_channels)
        head = _head_flops(config, input_shape)
        return FlopCount(
            macs={
                "encoder": num_tasks * enc[0],
                "decoder": num_tasks * dec[0],
                "heads": num_tasks * head[0],
            },
            adds={
                "encoder": num_tasks * enc[1],
                "decoder": num_tasks * dec[1],
                "heads": num_tasks * head[1],
            },
        )
    raise ValueError(f"unknown architecture {arch!r}")


def count_params(config: ModelConfig, arch: str) -> int:
    """Exact learnable parameter count, taken from a built instance."""
    return build_model(arch, config).param_count()


def head_backbone_ratio(
    config: ModelConfig, input_shape: Sequence[int], num_tasks: int
) -> float:
    """All m controller+head MACs relative to one encoder-decoder pass."""
    flops = count_flops(config, input_shape, "dodnet", num_tasks)
    backbone = flops.macs["encoder"] + flops.macs["decoder"]
    dynamic = flops.macs["controller"] + flops.macs["heads"]
    return dynamic / backbone

