"""One workload in one fresh process; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --t0-ns T --workdir DIR [--smoke] [--setup-only]

T is the CLOCK_MONOTONIC reading, in ns, that the parent took just before
starting this process, so ``setup_s`` covers interpreter start, the numpy
and gravinst imports and the input build.  The last stdout line is one
JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

import numpy as np

import workloads
from reference import SpeedSampler


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run_reports(workload, inputs, until: float, minimum: int, outcomes, speed, tracer=None):
    """Run reports until the next one would end after ``until`` (a
    perf_counter reading), and at least ``minimum`` of them; append each
    report's judged outcome.  Returns each report's wall time and its time
    in reference units (wall time over the mean reference time sampled
    by ``speed`` while it ran)."""
    times: list[float] = []
    rel: list[float] = []
    while len(times) < minimum or time.perf_counter() + statistics.median(times) <= until:
        if tracer is not None:
            tracer.run_id = len(times)
        t0 = time.perf_counter()
        try:
            result, failed = workload.run(inputs), None
        except Exception as exc:  # a report that raises is a failed report
            failed = workloads.crashed(exc)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        rel.append((t1 - t0) / speed.mean_between(t0, t1))
        outcomes.append(failed if failed is not None else workload.check(inputs, result))
    return times, rel


def check_layers(outcome: workloads.Outcome, scan_samples: int) -> dict[str, float]:
    """Per-check residual ratios and sample counts of one report."""
    from tracer import CHECK_RECORDS

    ratios = {c.name: c.residual_ratio for c in outcome.checks}
    out = {
        f"verify.{name}.residual_ratio": float(ratios.get(name) or 0.0)
        for name in CHECK_RECORDS
    }
    gate = workloads.judge([outcome], scan_samples)
    out["verify.samples_used"] = float(gate.samples_used)
    out["verify.samples_requested"] = float(gate.samples_requested)
    out["verify.worst_residual_ratio"] = gate.worst_residual_ratio
    return out


def traced_run(args, workload, inputs, start: float, outcomes, speed) -> dict:
    """Untraced reports for the first half of the run, traced ones for
    the second half; the per-layer metrics come from the traced ones."""
    from tracer import Tracer, layer_metrics, self_time_split

    plain, plain_rel = run_reports(
        workload, inputs, start + args.seconds / 2, 1, outcomes, speed
    )
    tracer = Tracer()
    tracer.install_all()
    try:
        traced, traced_rel = run_reports(
            workload, inputs, start + args.seconds, 1, outcomes, speed, tracer
        )
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer, len(traced))
    layers.update(check_layers(outcomes[len(plain)], workload.scan_samples(inputs)))
    layers["report_wall_s"] = statistics.median(plain)
    layers["reference_unit_us"] = 1e6 * statistics.median(speed.cpu_s)
    layers["trace_overhead_frac"] = (
        statistics.median(traced_rel) / statistics.median(plain_rel) - 1.0
    )
    trace_path = os.path.join(
        args.workdir, f"trace-{args.workload}-s{args.seed}-{os.getpid()}.npz"
    )
    tracer.write(trace_path)
    return {
        "report_s": plain,
        "report_rel": plain_rel,
        "traced_s": traced,
        "layers": layers,
        "split": self_time_split(tracer, len(traced)),
        "trace_file": os.path.relpath(trace_path),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0-ns", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.workdir) as scratch:
        return measure(args, scratch)


def measure(args, scratch: str) -> int:
    """Build the inputs (files go to ``scratch``), then time reports."""
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(args.seed, scratch, smoke=args.smoke)
    setup_s = (_now_ns() - args.t0_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # the reference sampler must share the workload's core to see its speed
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    outcomes: list[workloads.Outcome] = []
    result: dict = {"setup_s": setup_s}
    with SpeedSampler() as speed:
        start = time.perf_counter()
        if args.trace:
            result.update(traced_run(args, workload, inputs, start, outcomes, speed))
        else:
            times, rel = run_reports(workload, inputs, start + args.seconds, 2, outcomes, speed)
            result.update(report_s=times, report_rel=rel)
    result["reference_unit_us"] = 1e6 * statistics.median(speed.cpu_s)
    gate = workloads.judge(outcomes, workload.scan_samples(inputs))
    result.update(
        gate=gate.__dict__,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "executable": os.path.basename(sys.executable),
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
