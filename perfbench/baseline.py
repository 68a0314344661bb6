"""Record the baseline: two independent sets of runs plus a traced run.

    python3 perfbench/baseline.py

writes perfbench/baseline.json.  Each set runs every workload of
BENCHMARK.json once per seed (set 1 uses seeds 1..10, set 2 seeds
101..110), workloads interleaved so that drift of the machine reaches all
of them alike.  For every end-to-end
metric it records the values, their median and quartiles
(``statistics.quantiles(n=4)``) and the spread, (Q3 - Q1) / median.  It
then checks that the second set's median is no worse than the first's by
more than the metric's bound.  Finally one traced run per workload (seed
7) gives the per-layer metrics and the self-time split by span name.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # runs per workload in each set


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record_name = lines[-2].rsplit("result ", 1)[1]
    record = json.loads((HERE / ".work" / record_name).read_text(encoding="utf-8"))
    print(f"{workload} seed {seed} trace {trace}: correct {result['correct']}", flush=True)
    return result, record


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def worse_by(metric: dict, first: float, second: float) -> float:
    """Share of the first median by which the second is worse (<= 0: not worse)."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    sets = []
    env = None
    for base in (0, 100):
        values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in names}
        correct = {w: [] for w in names}
        for seed in range(base + 1, base + RUNS + 1):
            for w in names:
                result, record = run(w, seed, seconds, 0)
                env = record["env"]
                correct[w].append(result["correct"])
                for key, got in result["metrics"].items():
                    values[w][key].append(got["value"])
        sets.append(
            {
                w: {
                    "seeds": [base + 1, base + RUNS],
                    "all_correct": all(correct[w]),
                    "metrics": {k: summarize(v) for k, v in values[w].items()},
                }
                for w in names
            }
        )
    agreement = {}
    for w in names:
        rows = {}
        for m in spec["end_to_end"]:
            a, b = (s[w]["metrics"][m["name"]] for s in sets)
            worse = worse_by(m, a["median"], b["median"])
            rows[m["name"]] = {
                "spreads": [a["spread"], b["spread"]],
                "second_worse_by": worse,
                "bound": m["bound"],
                "spread_within_third_of_bound": max(a["spread"], b["spread"]) < m["bound"] / 3,
                "medians_agree": worse <= m["bound"],
            }
        agreement[w] = rows
    traced = {}
    for w in names:
        result, record = run(w, 7, seconds, 1)
        split = record["split"]
        per_report = statistics.median(record["traced_s"])
        traced[w] = {
            "correct": result["correct"],
            "traced_report_s": per_report,
            "layers": {k: v["value"] for k, v in result["metrics"].items()},
            "self_share": {
                k: v / per_report
                for k, v in sorted(split.items(), key=lambda kv: -kv[1])
                if v > 0
            },
        }
    doc = {
        "run_seconds": seconds,
        "env": env,
        "sets": sets,
        "agreement": agreement,
        "traced": traced,
    }
    out = HERE / "baseline.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
