"""The three benchmark workloads and the correctness gate.

Each workload builds its inputs from the seed (``build``), runs one
report (``run``, the timed part) and turns what the report produced into
the checks the gate judges (``check``, not timed).  The
program is driven only through its public API and the ``gravinst`` CLI
entry point, ``gravinst.cli.main``.

Sizes are fixed here, not by the caller, so that every run of a workload
does the same amount of work; ``smoke=True`` selects the reduced sizes
the self-test uses.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

from gravinst import cli, ghawking, verify
from gravinst.sampling import SampleSpec
from gravinst.singularities import QuotientSignature, make_polygon_config

# verify.full_report runs cross-validation on 12 matched base points,
# whatever the sample count.
FULL_REPORT_CROSS_COUNT = 12

# Acceptance bands of the asymptotic checks (criteria 6, 8 and 9).
VOLUME_BAND = 0.1
SOLVER_TOL = 1e-12


def hexagon():
    """Two-ring hexagon: d=2, n=3, m=2, radii 1 and 1.4+0.3i, heights 0, 0.7."""
    return make_polygon_config(
        QuotientSignature(2, 3, 2), [1.0 + 0j, 1.4 + 0.3j], [0.0, 0.7]
    )


def square():
    return make_polygon_config(
        QuotientSignature(2, 2, 1), [1.0 + 0j, 1.6 + 0j], [0.0, 0.0]
    )


def two_level():
    return make_polygon_config(
        QuotientSignature(2, 2, 1), [1.0 + 0j, 1.3 + 0.2j], [0.0, 1.0]
    )


def taubnut():
    return make_polygon_config(
        QuotientSignature(1, 1, 0), [1.0 + 0j], [0.0], mode="alf"
    )


@dataclass(frozen=True)
class Check:
    """One judged outcome: a program check record or a gate assertion.

    ``scan`` marks the records of sample scans that may skip samples
    (ricci, kahler d(omega), invariance, cross-validation); ``used`` is the
    number of samples a check used.  The implicit-solver scan is not one:
    it always reports every input it was given.
    """

    name: str
    residual: float
    tolerance: float
    passed: bool
    used: int = 0
    scan: bool = False
    note: str = ""

    @property
    def residual_ratio(self) -> float | None:
        """max_residual / tolerance, None when the check errored."""
        if self.tolerance > 0.0 and math.isfinite(self.residual):
            return self.residual / self.tolerance
        return None


@dataclass
class Outcome:
    """What one report produced: its checks and the bytes that must
    repeat exactly at one seed."""

    checks: list[Check] = field(default_factory=list)
    payload: bytes = b""


def _gate(name: str, ok: bool, note: str = "") -> Check:
    """A benchmark assertion; it has no tolerance, so no residual ratio."""
    return Check(name=name, residual=0.0 if ok else 1.0, tolerance=0.0, passed=ok, note=note)


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _is_scan(name: str) -> bool:
    """Whether a full_report record carries the sample count of a scan
    that may skip samples, one record per scan.  An errored scan leaves
    one record under its run name (e.g. ``kahler-gh``); a kahler scan
    gives three records, of which ``kahler-domega-*`` is counted."""
    if name.split("-")[0] in ("ricci", "invariance"):
        return True
    if name.startswith("kahler-domega-") or name in ("kahler-gh", "kahler-hitchin"):
        return True
    return name == "cross-validation"


def _from_records(records) -> list[Check]:
    """Checks from report check records (objects or payload dicts)."""
    out = []
    for r in records:
        if isinstance(r, dict):
            name, res, tol, ok = r["name"], r["max_residual"], r["tolerance"], r["pass"]
            used, note = r.get("count", 0), r.get("note", "")
        else:
            name, res, tol, ok = r.name, r.max_residual, r.tolerance, r.passed
            used, note = r.count, r.note
        out.append(
            Check(
                name=name,
                residual=float(res),
                tolerance=float(tol),
                passed=bool(ok),
                used=int(used),
                scan=_is_scan(name),
                note=note,
            )
        )
    return out


class HexagonALE:
    """verify.full_report on the two-ring hexagon, ALE mode, all checks."""

    name = "hexagon-ale"
    count = 30
    smoke_count = 4

    def build(self, seed: int, workdir: str, smoke: bool = False):
        count = self.smoke_count if smoke else self.count
        return {"config": hexagon(), "spec": SampleSpec(count=count, seed=seed)}

    def scan_samples(self, inputs) -> int:
        """Samples one report's skippable scans ask for: ricci, kahler and
        invariance for both constructions, then cross-validation."""
        return 6 * inputs["spec"].count + FULL_REPORT_CROSS_COUNT

    def run(self, inputs):
        return verify.full_report(inputs["config"], mode="ale", spec=inputs["spec"])

    def check(self, inputs, report) -> Outcome:
        checks = _from_records(report.checks)
        try:
            payload = json.dumps(report.payload(), sort_keys=True, allow_nan=False)
            checks.append(_gate("report-strict-json", True))
        except ValueError as exc:
            payload = json.dumps(report.payload(), sort_keys=True)
            checks.append(_gate("report-strict-json", False, str(exc)))
        return Outcome(checks=checks, payload=payload.encode())


class AklCLI:
    """``gravinst verify --out --csv`` on the truncated family akl J=12."""

    name = "akl-cli"
    count = 50
    smoke_count = 4
    j_max = 12

    def build(self, seed: int, workdir: str, smoke: bool = False):
        count = self.smoke_count if smoke else self.count
        run_config = {
            "schema": "1",
            "singularity": {"n": 2, "m": 1, "mode": {"akl": self.j_max}},
            "sample": {"count": count, "seed": seed},
        }
        paths = {
            key: os.path.join(workdir, key)
            for key in ("config.json", "report.json", "samples.csv")
        }
        with open(paths["config.json"], "w", encoding="utf-8") as fh:
            json.dump(run_config, fh)
        # parse and build once, as the CLI will on every invocation
        cli.load_run_config(paths["config.json"]).build()
        return {"paths": paths, "count": count}

    def scan_samples(self, inputs) -> int:
        """ricci, kahler and invariance of the circle-fibered metric."""
        return 3 * inputs["count"]

    def run(self, inputs):
        p = inputs["paths"]
        argv = [
            "verify",
            "--config", p["config.json"],
            "--out", p["report.json"],
            "--csv", p["samples.csv"],
        ]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue()

    def check(self, inputs, result) -> Outcome:
        p = inputs["paths"]
        code, err = result
        if code not in (0, 1):
            return Outcome(checks=[_gate("cli-exit", False, f"exit {code}: {err[-300:]}")])
        checks = []
        with open(p["report.json"], "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(p["samples.csv"], "rb") as fh:
            csv_bytes = fh.read()
        try:
            doc = _strict_json(text)
            checks.append(_gate("report-strict-json", True))
        except ValueError as exc:
            doc = json.loads(text)
            checks.append(_gate("report-strict-json", False, str(exc)))
        checks.append(_gate("cli-exit", (code == 0) == doc["report"]["pass"], f"exit {code}"))
        checks.extend(_from_records(doc["report"]["checks"]))
        rows = list(csv.reader(io.StringIO(csv_bytes.decode("utf-8"))))
        checks.append(
            _gate("csv-rows", len(rows) == inputs["count"] + 1, f"{len(rows) - 1} rows")
        )
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            valid = cli.main(["validate", "--report", p["report.json"], "--csv", p["samples.csv"]])
        checks.append(_gate("cli-validate", valid == 0))
        payload = json.dumps(doc["report"], sort_keys=True).encode() + b"\n" + csv_bytes
        return Outcome(checks=checks, payload=payload)


class Asymptotics:
    """The non-stencil checks: solver scan, volume fits, periods."""

    name = "asymptotics"
    solver_count = 10000
    smoke_solver_count = 500

    def build(self, seed: int, workdir: str, smoke: bool = False):
        return {
            "seed": seed,
            "solver_count": self.smoke_solver_count if smoke else self.solver_count,
            "square": square(),
            "hexagon": hexagon(),
            "taubnut": taubnut(),
            "two_level": two_level(),
        }

    def scan_samples(self, inputs) -> int:
        """None of these checks can skip samples."""
        return 0

    def run(self, inputs):
        solver = verify.solver_scan(
            inputs["square"], count=inputs["solver_count"], seed=inputs["seed"]
        )
        volume = {
            "volume-growth-ale": ghawking.volume_growth_fit(inputs["hexagon"], mode="ale"),
            "volume-growth-alf": ghawking.volume_growth_fit(inputs["taubnut"], mode="alf"),
        }
        return solver, volume, verify.period_check(inputs["two_level"])

    def check(self, inputs, result) -> Outcome:
        solver, volume, periods = result
        n = inputs["solver_count"]
        checks = [
            Check(
                name="implicit-solver",
                residual=solver.max_residual,
                tolerance=SOLVER_TOL,
                passed=solver.max_residual < SOLVER_TOL,
                used=solver.count,
            )
        ]
        fits = {}
        for label, target in (("volume-growth-ale", 4.0), ("volume-growth-alf", 3.0)):
            fit = volume[label]
            dev = abs(fit.slope - target)
            checks.append(
                Check(
                    name=label,
                    residual=dev,
                    tolerance=VOLUME_BAND,
                    passed=dev < VOLUME_BAND,
                    used=fit.point_count,
                    note=f"slope = {fit.slope!r}",
                )
            )
            fits[label] = [fit.slope, fit.intercept, fit.rms_residual]
        checks.append(
            Check(
                name="periods",
                residual=periods.max_residual,
                tolerance=periods.tolerance,
                passed=periods.passed and periods.count >= 2,
                used=periods.count,
                note=periods.note,
            )
        )
        payload = json.dumps(
            {"checks": [c.__dict__ for c in checks], "fits": fits},
            sort_keys=True,
            allow_nan=False,
        )
        return Outcome(checks=checks, payload=payload.encode())


WORKLOADS = {w.name: w for w in (HexagonALE(), AklCLI(), Asymptotics())}


@dataclass
class GateResult:
    """Correctness verdict over all reports of one run."""

    checks_run: int
    checks_failed: int
    reports_failed: int
    samples_used: int
    samples_requested: int
    worst_residual_ratio: float
    failures: list[str]


def judge(outcomes: list[Outcome], scan_samples: int) -> GateResult:
    """Every check must pass and every report's payload must equal the
    first one's byte for byte (criterion 11).  Misses are counted, never
    retried.  ``scan_samples`` is what one report's skippable scans ask
    for; a report that crashed or lost a scan used none of its share."""
    run = failed = reports_failed = used = 0
    worst = 0.0
    failures = []
    for i, out in enumerate(outcomes):
        checks = list(out.checks)
        if i > 0:
            checks.append(_gate("determinism", out.payload == outcomes[0].payload))
        bad = [c for c in checks if not c.passed]
        run += len(checks)
        failed += len(bad)
        reports_failed += bool(bad)
        failures.extend(f"report {i}: {c.name} {c.note}".strip() for c in bad)
        for c in checks:
            if c.scan:
                used += c.used
            if c.residual_ratio is not None:
                worst = max(worst, c.residual_ratio)
    requested = scan_samples * len(outcomes)
    return GateResult(run, failed, reports_failed, used, requested, worst, failures)


def crashed(exc: Exception) -> Outcome:
    """Outcome of a report that raised instead of returning."""
    return Outcome(checks=[_gate("report-raised", False, f"{type(exc).__name__}: {exc}")])
