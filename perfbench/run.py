"""gravinst benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload hexagon-ale --seed 7 --seconds 32 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  Workloads (see README.md in this directory):

  hexagon-ale   verify.full_report on the two-ring hexagon, every check
  akl-cli       ``gravinst verify --out --csv`` on the akl J=12 family
  asymptotics   solver scan, volume-growth fits and periods

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  The workload
runs in a fresh process with BLAS/OpenMP pinned to one thread; set-up is
timed in that process and in twenty set-up-only processes started around
it, and the median of the 21 is reported.
Exit 0 with a result line, or non-zero without one when the benchmark
itself cannot run (no gravinst source, a worker that crashes or overruns).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"
SETUP_PROBES = (10, 10)  # set-up-only processes before and after the workload
DEADLINE_S = 170.0

PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


def _worker(args, extra: list[str], deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(WORKDIR),
        "--t0-ns", str(_now_ns()),
    ] + (["--smoke"] if args.smoke else []) + extra
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=left
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker overran the {DEADLINE_S:.0f} s limit") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"worker failed ({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gravinst").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(worker_env: dict) -> dict:
    """What makes two results comparable: same code, same machine."""
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **worker_env,
        "threads": PINNED_THREADS,
    }


def end_to_end(main: dict, setups: list[float]) -> dict[str, float]:
    gate = main["gate"]
    requested = gate["samples_requested"]  # 0 when no scan can skip samples
    return {
        "report_rel": statistics.median(main["report_rel"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "checks_passed_frac": 1.0 - gate["checks_failed"] / gate["checks_run"],
        "samples_used_frac": gate["samples_used"] / requested if requested else 1.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes (self-test)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (SRC / "gravinst" / "__init__.py").is_file():
            raise BenchError(f"no gravinst source under {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.seconds < 1:
            raise BenchError("--seconds must be at least 1")
        WORKDIR.mkdir(exist_ok=True)
        before, after = SETUP_PROBES

        def probe() -> float:
            return _worker(args, ["--setup-only"], deadline)["setup_s"]

        setups = [probe() for _ in range(before)]
        main_run = _worker(args, [], deadline)
        setups += [main_run["setup_s"]] + [probe() for _ in range(after)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = main_run["layers"] if args.trace else end_to_end(main_run, setups)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 2
    gate = main_run["gate"]
    reports = len(main_run["report_s"]) + len(main_run.get("traced_s", []))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(main_run["env"]),
        "report_s": main_run["report_s"],
        "report_rel": main_run["report_rel"],
        "reference_unit_us": main_run["reference_unit_us"],
        "traced_s": main_run.get("traced_s", []),
        "setup_s": setups,
        "gate": gate,
        "split": main_run.get("split"),
        "trace_file": main_run.get("trace_file"),
        "metrics": {m["name"]: values[m["name"]] for m in declared},
    }
    out = WORKDIR / f"result-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    for failure in gate["failures"]:
        print(f"gate: {failure}", file=sys.stderr)
    times, rel = main_run["report_s"], main_run["report_rel"]
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(
        f"{args.workload} seed {args.seed}: over {len(times)} untraced reports,"
        f" report_rel median {statistics.median(rel):.4f} max {max(rel):.4f},"
        f" wall median {statistics.median(times):.4f} s max {max(times):.4f} s;"
        f" checks failed {gate['checks_failed']}/{gate['checks_run']}; result {out.name}"
    )
    print(
        json.dumps(
            {
                "correct": gate["checks_failed"] == 0,
                "attempted": reports,
                "failed": gate["reports_failed"],
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
