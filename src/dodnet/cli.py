"""Command-line entry points: gen-data, train, eval, predict, bench.

``bench`` prints the exact parameter and MAC counts of every architecture;
wall-clock timing is left to the repository benchmark (``benchmarks/run.py``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .bench import count_flops, count_params, head_backbone_ratio
from .data import (
    PhantomSpec,
    Volume,
    build_dataset,
    default_recipes,
    load_dataset,
    read_volume,
    save_dataset,
    write_volume,
)
from .model import ARCHITECTURES, build_model, desk_config, full_config
from .training import (
    TrainConfig,
    TrainingDiverged,
    evaluate,
    load_checkpoint,
    model_from_checkpoint,
    sliding_window_predict,
    train,
    transfer_init,
)


def _triple(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected D,H,W, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected three integers, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dodnet",
        description="Train and benchmark dynamic-head multi-task 3D segmentation "
        "on synthetic phantoms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="synthesize a phantom dataset")
    gen.add_argument("--tasks", type=int, default=2)
    gen.add_argument("--per-task", type=int, default=20, help="training samples per task")
    gen.add_argument("--per-task-test", type=int, default=0)
    gen.add_argument("--shape", type=_triple, default=(24, 48, 48))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--noise", type=float, default=0.05)
    gen.add_argument(
        "--cross-task-anatomy",
        action="store_true",
        help="render every task's structures in every image (labels stay per-task)",
    )
    gen.add_argument("--out", required=True)

    tr = sub.add_parser("train", help="train a model on a generated dataset")
    tr.add_argument("--data", required=True)
    tr.add_argument("--config", choices=("small", "full"), default="small")
    tr.add_argument("--arch", choices=tuple(ARCHITECTURES), default="dodnet")
    tr.add_argument("--epochs", type=int, default=20)
    tr.add_argument("--steps", type=int, default=10, help="steps per epoch")
    tr.add_argument("--batch", type=int, default=2)
    tr.add_argument("--patch", type=_triple, default=(16, 32, 32))
    tr.add_argument("--lr", type=float, default=0.01)
    tr.add_argument("--momentum", type=float, default=0.99)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--eval-every", type=int, default=0, help="epochs between eval passes")
    tr.add_argument("--init-from", help="checkpoint to transfer encoder/decoder weights from")
    tr.add_argument("--out", required=True)

    ev = sub.add_parser("eval", help="report per-structure Dice on a split")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--split", choices=("train", "test"), default="test")
    ev.add_argument("--window", type=_triple, default=(16, 32, 32))

    pr = sub.add_parser("predict", help="segment one volume file for one task")
    pr.add_argument("--ckpt", required=True)
    pr.add_argument("--task", type=int, required=True, help="1-based task id")
    pr.add_argument("--in", dest="input", required=True, help="volume file base path")
    pr.add_argument("--out", required=True, help="output base path")
    pr.add_argument("--window", type=_triple, default=(16, 32, 32))

    be = sub.add_parser("bench", help="exact parameter and MAC counts per architecture")
    be.add_argument("--config", choices=("small", "full"), default="small")
    be.add_argument("--tasks", type=int, default=7)
    be.add_argument("--input", type=_triple, default=(64, 128, 128))
    return parser


def _model_config(preset: str, num_tasks: int):
    if preset == "full":
        return full_config(num_tasks=num_tasks)
    return desk_config(num_tasks=num_tasks)


def _cmd_gen_data(args) -> int:
    spec = PhantomSpec(
        recipes=default_recipes(args.tasks),
        master_seed=args.seed,
        noise_sigma=args.noise,
        cross_task_anatomy=args.cross_task_anatomy,
    )
    ds = build_dataset(spec, args.per_task, args.per_task_test, shape=args.shape)
    manifest = save_dataset(ds, args.out)
    n = args.tasks * (args.per_task + args.per_task_test)
    print(f"wrote {n} samples and {manifest}")
    return 0


def _cmd_train(args) -> int:
    ds = load_dataset(args.data)
    config = _model_config(args.config, num_tasks=len(ds.tasks))
    if args.init_from:
        if args.arch != "dodnet":
            raise ValueError("--init-from transfer is defined for the dodnet architecture")
        model = transfer_init(load_checkpoint(args.init_from), config, seed=args.seed)
    else:
        model = build_model(args.arch, config, seed=args.seed)
    tc = TrainConfig(
        max_epoch=args.epochs,
        steps_per_epoch=args.steps,
        lr_init=args.lr,
        momentum=args.momentum,
        batch_size=args.batch,
        patch=args.patch,
        seed=args.seed,
        eval_every=args.eval_every,
    )
    try:
        result = train(model, ds, tc, out_dir=args.out)
    except TrainingDiverged as exc:
        raise ValueError(f"training diverged: {exc}") from exc
    print(f"trained {len(result.losses)} steps; final loss {result.losses[-1]:.4f}")
    if result.best_mean_dice is not None:
        print(f"best mean dice {result.best_mean_dice:.4f}")
    print(f"checkpoints in {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model = model_from_checkpoint(load_checkpoint(args.ckpt))
    ds = load_dataset(args.data)
    metrics = evaluate(model, ds, window=args.window, split=args.split)
    if not metrics:
        print(f"no samples in split {args.split!r}")
        return 1
    for name in sorted(metrics):
        print(f"{name}: dice {metrics[name]:.4f}")
    print(f"mean: {sum(metrics.values()) / len(metrics):.4f}")
    return 0


def _cmd_predict(args) -> int:
    model = model_from_checkpoint(load_checkpoint(args.ckpt))
    volume = read_volume(args.input)
    probs = sliding_window_predict(model, volume, args.task - 1, args.window)
    labels = np.zeros(volume.shape, dtype=np.uint8)
    labels[probs[0] >= 0.5] = 1
    labels[probs[1] >= 0.5] = 2  # tumor wins where both fire
    write_volume(Volume(volume.image, spacing=volume.spacing, labels=labels), args.out)
    print(f"wrote segmentation to {args.out}.lbl")
    return 0


def _cmd_bench(args) -> int:
    config = _model_config(args.config, num_tasks=args.tasks)
    ratio = head_backbone_ratio(config, args.input, args.tasks)
    shape = "x".join(str(n) for n in args.input)
    print(f"segment all {args.tasks} tasks on {shape}, {args.config} config")
    print(f"{'arch':<12}{'params':>14}{'MACs':>20}{'bias adds':>16}{'head/backbone':>15}")
    for arch in ARCHITECTURES:
        flops = count_flops(config, args.input, arch, args.tasks)
        ratio_cell = f"{ratio:.6g}" if arch == "dodnet" else "-"
        print(
            f"{arch:<12}{count_params(config, arch):>14,}{flops.total_macs:>20,}"
            f"{flops.total_adds:>16,}{ratio_cell:>15}"
        )
    return 0


_HANDLERS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "bench": _cmd_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
