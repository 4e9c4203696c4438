"""Repo benchmark: run one workload, check its outputs, print its metrics.

    python3 benchmarks/run.py --workload {train,sweep,segment_all} \
        --seed N --seconds S --trace {0,1}

Runs from the root of a checkout, in one process with one BLAS thread.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Lines before it repeat the figures by their workload names.

A traced run alternates untraced and traced rounds; the per-layer figures
come from the traced rounds, and the difference of the two medians is the
tracer's overhead.  Set-up is traced too, so set-up layers get figures.
"""

from __future__ import annotations

import time

_START_WALL = time.perf_counter()
_START_CPU = time.process_time()  # interpreter start-up, before this line

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "sweep", "segment_all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared_units(kind: str):
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class Measured:
    """Samples of whole rounds, kept apart for untraced and traced rounds."""

    def __init__(self) -> None:
        self.samples = {False: [], True: []}
        self.figures = {False: {}, True: {}}
        self.attempted = 0
        self.failed = 0

    def add(self, traced: bool, r) -> None:
        self.samples[traced] += r.samples
        for name, values in r.figures.items():
            self.figures[traced].setdefault(name, []).extend(values)
        self.attempted += r.attempted
        self.failed += r.failed

    def figure_medians(self, traced: bool):
        return {n: statistics.median(v) for n, v in self.figures[traced].items()}


def measure(workload, seconds: float, tracer=None) -> Measured:
    """Whole rounds until ``seconds`` have passed.

    With a tracer, rounds alternate untraced and traced and the run ends
    after a traced one, so a drift in the machine's speed falls on both
    halves alike and their difference is the tracer's overhead.
    """
    out = Measured()
    t0 = time.perf_counter()
    traced = True
    while True:
        if tracer is not None:
            traced = not traced
            if traced:
                tracer.install()
        try:
            out.add(traced and tracer is not None, workload.round())
        finally:
            if tracer is not None and traced:
                tracer.uninstall()
        if time.perf_counter() - t0 >= seconds and (tracer is None or traced):
            return out


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    common.pin_threads()
    try:
        common.import_program()
    except (common.ProgramMissing, ImportError) as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    import checks
    import spans
    import workloads

    work_dir = common.RUNS_DIR / f"work-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        workload.setup()
        setup_s = time.perf_counter() - _START_WALL + _START_CPU
        if tracer is not None:
            tracer.uninstall()
            setup_spans = range(len(tracer))
        run = measure(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            measured = range(len(setup_spans), len(tracer))

        correct = True
        try:
            workload.check()
            if tracer is not None and hasattr(workload, "check_trace"):
                workload.check_trace(tracer, measured)
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False

        untraced = run.samples[False]
        figures = run.figure_medians(False)
        if tracer is not None:
            base = statistics.median(untraced)
            with_trace = statistics.median(run.samples[True])
            n_ops = len(run.samples[True]) * workload.OPS_PER_SAMPLE
            values = spans.layer_metrics(tracer, setup_spans, measured, n_ops)
            values["trace.overhead_share"] = (with_trace - base) / base
            values["bench.head_backbone_ratio"] = workloads.head_ratio()
            for arch in workloads.ARCHS:
                values[f"segment_all.{arch}_s"] = figures.get(f"segment_all_{arch}_s", 0.0)
            units = _declared_units("per_layer")
            tracer.write(
                common.RUNS_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                workload=args.workload,
                seed=args.seed,
                setup_spans=len(setup_spans),
            )
            print(f"tracing overhead: {with_trace - base:+.6f} s per operation "
                  f"({values['trace.overhead_share']:+.2%}) over {base:.6f} s untraced")
        else:
            op_s = statistics.median(untraced)
            values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "op_s": op_s}
            units = _declared_units("end_to_end")
        for name, value in figures.items():
            print(f"{name} {value:.6g}")
        for note in workload.notes:
            print(note)
        if set(values) != set(units):
            raise RuntimeError(
                f"metrics {sorted(set(values) ^ set(units))} are not declared in BENCHMARK.json"
                " or were not measured"
            )
        result = {
            "correct": correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {n: {"value": float(values[n]), "unit": units[n]} for n in units},
        }
        print(json.dumps(result))
        return 0
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
