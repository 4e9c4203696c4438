"""Analytic cost model checks.

The MAC oracles below are rebuilt layer by layer from the architecture
definition (kernel volume x fan-in x fan-out x output voxels) so they do not
share arithmetic with the counter under test.
"""

import pytest

from dodnet.bench import count_flops, count_params, head_backbone_ratio
from dodnet.model import desk_config, full_config

SHAPE = (8, 16, 16)
V0 = 8 * 16 * 16
V1 = V0 // 8
V2 = V0 // 64


def desk(num_tasks=2):
    return desk_config(num_tasks=num_tasks)


def encoder_macs_by_hand() -> int:
    # Residual blocks at widths 8 / 16 / 32; conv1 carries the stride so both
    # 3x3x3 convs and the 1x1x1 projection run at the block's output grid.
    level0 = V0 * (27 * 1 * 8 + 27 * 8 * 8 + 1 * 8)
    level1 = V1 * (27 * 8 * 16 + 27 * 16 * 16 + 8 * 16)
    level2 = V2 * (27 * 16 * 32 + 27 * 32 * 32 + 16 * 32)
    return level0 + level1 + level2


def decoder_macs_by_hand() -> int:
    # Each step: 1x1x1 halving conv after upsampling, then a residual block
    # whose identity skip needs no projection. The final 1x1x1 keeps the
    # 8-channel feature map the dynamic head consumes.
    step0 = V1 * (32 * 16 + 2 * 27 * 16 * 16)
    step1 = V0 * (16 * 8 + 2 * 27 * 8 * 8)
    out = V0 * 8 * 8
    return step0 + step1 + out


def test_encoder_macs_match_layer_arithmetic():
    flops = count_flops(desk(), SHAPE, "dodnet", 2)
    assert flops.macs["encoder"] == encoder_macs_by_hand()


def test_decoder_macs_match_layer_arithmetic():
    flops = count_flops(desk(), SHAPE, "dodnet", 2)
    assert flops.macs["decoder"] == decoder_macs_by_hand()


def test_head_macs_are_144_per_voxel_per_task():
    # 8->8, 8->8, 8->2 pointwise stacks: 64 + 64 + 16 multiplies and
    # 8 + 8 + 2 bias adds for every output voxel.
    flops = count_flops(desk(), SHAPE, "dodnet", 2)
    assert flops.macs["heads"] == 2 * V0 * 144
    assert flops.adds["heads"] == 2 * V0 * 18


def test_controller_macs_are_one_matvec_per_task():
    flops = count_flops(desk(), SHAPE, "dodnet", 2)
    assert flops.macs["controller"] == 2 * 162 * (32 + 2)
    assert flops.adds["controller"] == 2 * 162


def test_macs_scale_linearly_with_voxels():
    one = count_flops(desk(), SHAPE, "dodnet", 2)
    two = count_flops(desk(), (16, 16, 16), "dodnet", 2)
    assert two.macs["encoder"] == 2 * one.macs["encoder"]
    assert two.macs["decoder"] == 2 * one.macs["decoder"]
    assert two.macs["heads"] == 2 * one.macs["heads"]
    assert two.macs["controller"] == one.macs["controller"]


def test_input_must_match_downsampling_grid():
    with pytest.raises(ValueError, match="not divisible"):
        count_flops(desk(), (9, 16, 16), "dodnet", 2)


def test_unknown_architecture_rejected():
    with pytest.raises(ValueError, match="unknown architecture"):
        count_flops(desk(), SHAPE, "unet", 2)


def test_cond_input_repeats_the_whole_backbone():
    dod = count_flops(desk(), SHAPE, "dodnet", 2)
    cond = count_flops(desk(), SHAPE, "cond_input", 2)
    backbone = dod.macs["encoder"] + dod.macs["decoder"]
    # Two full passes with a wider stem must cost more than two plain passes,
    # and far more than one backbone plus two tiny dynamic heads.
    assert cond.total_macs > 2 * backbone
    assert cond.total_macs > dod.total_macs


def test_multi_head_shares_encoder_but_not_decoders():
    flops = count_flops(desk(), SHAPE, "multi_head", 3)
    single = count_flops(desk(), SHAPE, "multi_head", 1)
    assert flops.macs["encoder"] == single.macs["encoder"]
    assert flops.macs["decoders"] == 3 * single.macs["decoders"]


def test_head_cost_below_one_percent_at_full_scale():
    ratio = head_backbone_ratio(full_config(num_tasks=7), (64, 128, 128), 7)
    assert 0.0 < ratio < 0.01


def test_seven_separate_decoders_cost_more_parameters():
    config = desk(num_tasks=7)
    assert count_params(config, "multi_head") > count_params(config, "dodnet")


@pytest.mark.slow
def test_full_scale_parameter_ordering():
    config = full_config(num_tasks=7)
    dodnet = count_params(config, "dodnet")
    assert count_params(config, "multi_head") > dodnet
    assert dodnet == 19_275_112


@pytest.mark.slow
@pytest.mark.xfail(
    strict=True,
    reason="the full-width port counts 19,275,112 parameters, outside the "
    "17.3M +/-10% reference budget; trimming to fit would change the "
    "documented channel schedule",
)
def test_full_scale_parameter_budget():
    total = count_params(full_config(num_tasks=7), "dodnet")
    assert abs(total - 17_300_000) <= 0.1 * 17_300_000

