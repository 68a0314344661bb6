"""Spans recorded from outside the program.

The benchmark replaces public functions of the gravinst modules by
timing wrappers (plain module attribute assignment), so that the program
itself stays untouched.  Each span records its name, start, end, parent
span and run id (the index of the traced report).  Spans are kept in
flat in-memory arrays and written out once, when the run ends.

A span's self time is its duration minus the part its child spans cover;
spans nest strictly because the program is single threaded.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

from gravinst import cli, ghawking, hitchin, sampling, tensorcalc, verify

CURVATURE_ERROR_TYPES = (
    "ChartBoundaryError",
    "PoleError",
    "DiracStringError",
    "DegenerateMetricError",
    "NumericOverflowError",
    "ConvergenceError",
)

# Check runs of verify.full_report (its timing keys) plus the asymptotic
# checks; every workload reports all of them, 0 where a check is not run.
CHECK_RUNS = (
    "ricci-gh",
    "ricci-hitchin",
    "kahler-gh",
    "kahler-hitchin",
    "invariance-gh",
    "invariance-hitchin",
    "cross-validation",
    "periods",
    "fits",
    "akl-convergence",
    "implicit-solver",
)

CHECK_RECORDS = (
    "ricci-gh",
    "ricci-hitchin",
    "kahler-domega-gh",
    "kahler-nijenhuis-gh",
    "kahler-compat-gh",
    "kahler-domega-hitchin",
    "kahler-nijenhuis-hitchin",
    "kahler-compat-hitchin",
    "invariance-gh",
    "invariance-hitchin",
    "cross-validation",
    "periods",
    "curvature-decay-slope",
    "volume-growth-slope",
    "volume-growth-ale",
    "volume-growth-alf",
    "implicit-solver",
    "akl-convergence",
)


class Tracer:
    """Flat span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")  # per-span count (centers summed, points accepted)
        self.errors: Counter = Counter()  # (span name, exception type) -> count
        self.run_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, value=None):
        """fn wrapped in a span.  ``name`` is a string or a function of the
        call arguments; ``value(args, result)`` gives the span's count."""
        fixed = self._id(name) if isinstance(name, str) else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._id(name(*args, **kwargs))
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            self.value.append(0.0)
            self._stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[self.names[nid], type(exc).__name__] += 1
                raise
            finally:
                self.end[sid] = clock()
                self._stack.pop()
            if value is not None:
                self.value[sid] = value(args, result)
            return result

        return traced

    def install(self, module, attr: str, name, value=None) -> None:
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(original, name, value))
        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def install_all(self) -> None:
        """Wrap the public functions of every layer."""

        def scan(kind):
            return lambda *a, **k: f"verify.{kind}-{a[0] if a else k['metric_source']}"

        for name in ("curvature_at", "exterior_derivative", "nijenhuis_at"):
            self.install(tensorcalc, name, f"tensorcalc.{name}")
        for name in ("metric_at", "solve_b", "ale_curvature_decay"):
            self.install(hitchin, name, f"hitchin.{name}")
        for name in ("metric_at", "volume_growth_fit", "cycle_period", "center_clearance"):
            self.install(ghawking, name, f"ghawking.{name}")
        self.install(
            ghawking, "potential_at", "ghawking.potential_at", lambda a, r: a[0].k
        )
        # ghawking imports adaptive_simpson by name; wrap that binding and
        # every integrand it is handed
        simpson = ghawking.adaptive_simpson

        def quadrature(f, *args, **kwargs):
            return simpson(self.wrap(f, "quadrature.integrand"), *args, **kwargs)

        ghawking.adaptive_simpson = self.wrap(quadrature, "quadrature.adaptive_simpson")
        self._undo.append((ghawking, "adaptive_simpson", simpson))
        for name in ("base_points", "gh_points", "hitchin_points"):
            self.install(sampling, name, f"sampling.{name}", lambda a, r: len(r))
        for kind in ("ricci", "kahler", "invariance"):
            self.install(verify, f"{kind}_scan", scan(kind))
        for attr, check in (
            ("cross_validate", "cross-validation"),
            ("period_check", "periods"),
            ("decay_and_volume", "fits"),
            ("solver_scan", "implicit-solver"),
            ("akl_convergence_check", "akl-convergence"),
        ):
            self.install(verify, attr, f"verify.{check}")
        self.install(verify, "full_report", "verify.full_report")
        self.install(cli, "main", "cli.main")

    def arrays(self) -> dict:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "run": np.array(self.run, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "value": np.array(self.value, dtype=np.float64),
        }

    def write(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _durations(a: dict) -> tuple[np.ndarray, np.ndarray]:
    """Each span's duration and self time."""
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    covered = np.bincount(
        a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    return dur, dur - covered


def self_time_split(tracer: Tracer, reports: int) -> dict[str, float]:
    """Self seconds per span name, per report: where the time goes."""
    a = tracer.arrays()
    _, self_t = _durations(a)
    own = np.bincount(a["name"], weights=self_t, minlength=len(tracer.names))
    return {name: float(own[i]) / reports for i, name in enumerate(tracer.names)}


def layer_metrics(tracer: Tracer, reports: int) -> dict[str, float]:
    """Per-layer counts and times of the traced reports, per report."""
    a = tracer.arrays()
    n = len(a["start"])
    ids = {name: i for i, name in enumerate(tracer.names)}
    nid, parent = a["name"], a["parent"]
    dur, self_t = _durations(a)
    kinds = len(tracer.names)
    calls = np.bincount(nid, minlength=kinds)
    total = np.bincount(nid, weights=dur, minlength=kinds)
    own = np.bincount(nid, weights=self_t, minlength=kinds)

    def of(arr, name):
        return float(arr[ids[name]]) if name in ids else 0.0

    def is_(name):
        return nid == ids.get(name, -1)

    def errors(name):
        return sum(v for (span, _), v in tracer.errors.items() if span == name)

    # which spans run inside a curvature span, or inside a sampling span
    curv = ids.get("tensorcalc.curvature_at", -1)
    samp = {
        ids[s]
        for s in ("sampling.base_points", "sampling.gh_points", "sampling.hitchin_points")
        if s in ids
    }
    in_curv = np.zeros(n, dtype=bool)
    in_samp = np.zeros(n, dtype=bool)
    names_l, parent_l = nid.tolist(), parent.tolist()
    for i in range(n):
        p = parent_l[i]
        if p >= 0:
            in_curv[i] = in_curv[p] or names_l[p] == curv
            in_samp[i] = in_samp[p] or names_l[p] in samp
    metric_ids = [ids[s] for s in ("ghawking.metric_at", "hitchin.metric_at") if s in ids]
    field_evals = int(np.count_nonzero(np.isin(nid, metric_ids) & in_curv))
    is_samp = np.isin(nid, list(samp))
    outer_samp = is_samp & ~in_samp
    candidates = int(np.count_nonzero(is_("ghawking.center_clearance") & in_samp))
    accepted = float(a["value"][outer_samp].sum())

    # the CSV phase of the CLI: what cli.main does after full_report returns
    csv_s = 0.0
    csv_curv = 0
    fr = np.flatnonzero(is_("verify.full_report"))
    for c in np.flatnonzero(is_("cli.main")):
        done = [a["end"][f] for f in fr if parent[f] == c]
        if not done:
            continue
        lo, hi = done[-1], a["end"][c]
        csv_s += hi - lo
        in_csv = (a["start"] >= lo) & (a["start"] <= hi)
        csv_curv += int(np.count_nonzero(is_("tensorcalc.curvature_at") & in_csv))

    def per_call_us(name):
        c = of(calls, name)
        return 1e6 * of(total, name) / c if c else 0.0

    curv_calls = of(calls, "tensorcalc.curvature_at")
    errs = {t: tracer.errors["tensorcalc.curvature_at", t] for t in CURVATURE_ERROR_TYPES}
    out = {
        "tensorcalc.curvature_calls": curv_calls,
        "tensorcalc.curvature_s": of(total, "tensorcalc.curvature_at"),
        "tensorcalc.curvature_self_s": of(own, "tensorcalc.curvature_at"),
        "tensorcalc.field_evals_per_curvature": field_evals / curv_calls if curv_calls else 0.0,
        "tensorcalc.curvature_errors": errors("tensorcalc.curvature_at"),
        **{f"tensorcalc.curvature_errors.{t}": v for t, v in errs.items()},
        "tensorcalc.exterior_derivative_s": of(total, "tensorcalc.exterior_derivative"),
        "tensorcalc.nijenhuis_s": of(total, "tensorcalc.nijenhuis_at"),
        "hitchin.metric_evals": of(calls, "hitchin.metric_at"),
        "hitchin.metric_eval_us": per_call_us("hitchin.metric_at"),
        "hitchin.solve_b_calls": of(calls, "hitchin.solve_b"),
        "hitchin.solve_b_us": per_call_us("hitchin.solve_b"),
        "hitchin.solve_b_errors": errors("hitchin.solve_b"),
        "hitchin.decay_fit_s": of(total, "hitchin.ale_curvature_decay"),
        "ghawking.metric_evals": of(calls, "ghawking.metric_at"),
        "ghawking.metric_eval_us": per_call_us("ghawking.metric_at"),
        "ghawking.potential_evals": of(calls, "ghawking.potential_at"),
        "ghawking.potential_eval_us": per_call_us("ghawking.potential_at"),
        "ghawking.center_terms": float(a["value"][is_("ghawking.potential_at")].sum()),
        "ghawking.volume_fit_s": of(total, "ghawking.volume_growth_fit"),
        "ghawking.cycle_period_s": of(total, "ghawking.cycle_period"),
        "quadrature.calls": of(calls, "quadrature.adaptive_simpson"),
        "quadrature.integrand_evals": of(calls, "quadrature.integrand"),
        "quadrature.s": of(total, "quadrature.adaptive_simpson"),
        "quadrature.self_s": of(own, "quadrature.adaptive_simpson"),
        "cli.self_s": of(own, "cli.main"),
        "cli.csv_s": csv_s,
        "cli.csv_curvature_calls": csv_curv,
        **{f"verify.{c}.s": of(total, f"verify.{c}") for c in CHECK_RUNS},
        "sampling.points_s": float(dur[outer_samp].sum()),
        "sampling.accept_ratio": accepted / candidates if candidates else 0.0,
    }
    # ratios and per-call means stay as they are; counts and times are per report
    means = ("_us", "_ratio", "_per_curvature")
    return {
        key: float(v) if key.endswith(means) else float(v) / reports
        for key, v in out.items()
    }

