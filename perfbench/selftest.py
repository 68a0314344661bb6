"""Self-test of the benchmark, at reduced size and on a second seed.

    python3 perfbench/selftest.py

1. Smoke-runs every workload, untraced and traced, and asserts that the
   result line is correct and carries every metric of BENCHMARK.json with
   its declared unit.
2. Asserts that the gate trips: invariance on a perturbed hexagon
   (``verify.perturb_config``) and a report payload that differs between
   repeats.
3. Asserts that the benchmark refuses to run, without a result line, in a
   directory holding only BENCHMARK.json and the benchmark's files.

Takes about a minute.  Exit 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 11

os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_smoke_runs(spec: dict) -> None:
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = run_bench(
                ROOT, "--workload", workload["name"], "--seed", str(SEED),
                "--seconds", "1", "--trace", str(trace), "--smoke",
            )
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, done.stderr)
            assert result["attempted"] >= 1
            metrics = result["metrics"]
            assert list(metrics) == [m["name"] for m in declared], workload
            for m in declared:
                got = metrics[m["name"]]
                assert got["unit"] == m["unit"], (m, got)
                assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got
            print(f"ok   smoke {workload['name']} trace {trace}: {len(metrics)} metrics")


def check_gate_trips() -> None:
    from gravinst import verify

    import workloads

    hexagon = workloads.WORKLOADS["hexagon-ale"]
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        inputs = hexagon.build(SEED, tmp, smoke=True)
    inputs["config"] = verify.perturb_config(inputs["config"], eps=0.01)
    outcome = hexagon.check(inputs, hexagon.run(inputs))
    scan = hexagon.scan_samples(inputs)
    gate = workloads.judge([outcome], scan)
    tripped = {c.name for c in outcome.checks if not c.passed}
    assert {"invariance-gh", "invariance-hitchin"} <= tripped, tripped
    assert gate.checks_failed == len(tripped) and gate.reports_failed == 1, gate
    print(f"ok   gate trips on a perturbed hexagon: {sorted(tripped)}")

    altered = workloads.Outcome(checks=outcome.checks, payload=outcome.payload + b" ")
    gate = workloads.judge([outcome, altered], scan)
    assert any("determinism" in f for f in gate.failures), gate.failures
    print("ok   gate trips on a payload that differs between repeats")

    gate = workloads.judge([outcome, workloads.crashed(RuntimeError("boom"))], scan)
    assert gate.samples_requested == 2 * scan and gate.samples_used <= scan, gate
    print("ok   a crashed report counts its scan samples as not used")


def check_refuses_without_source() -> None:
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        done = run_bench(bare, "--workload", "akl-cli", "--seed", str(SEED), "--seconds", "1", "--trace", "0")
    assert done.returncode != 0, done.stdout
    assert '"correct"' not in done.stdout, done.stdout
    print(f"ok   refuses to run without the source: exit {done.returncode}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (HERE / ".work").mkdir(exist_ok=True)
    check_refuses_without_source()
    check_gate_trips()
    check_smoke_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
