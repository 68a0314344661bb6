"""The benchmark's timing wrappers still attach to the functions it names,
and its workloads still run.

perfbench/tracer.py replaces module attributes by timing wrappers.  A
function that is renamed, or bound at import time where it should be
looked up at call time, would leave its per-layer metrics at zero
without any error; test_tracer_spans_fill makes that a failure.
perfbench/workloads.py drives the program through its public API, so a
renamed function or a removed parameter would otherwise show only as a
failed benchmark run; test_workloads_run_at_smoke_size runs each one.
"""

import importlib.util
import pathlib
import sys

from gravinst import ghawking, quadrature, verify
from gravinst.sampling import SampleSpec
from gravinst.singularities import QuotientSignature, make_polygon_config

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_fill():
    pair = make_polygon_config(QuotientSignature(1, 2, 1), [1.0 + 0j], [0.0])
    two_level = make_polygon_config(
        QuotientSignature(2, 2, 1), [1.0 + 0j, 1.3 + 0.2j], [0.0, 1.0]
    )
    taubnut = make_polygon_config(QuotientSignature(1, 1, 0), [1.0 + 0j], [0.0], mode="alf")
    perfbench_tracer = load_tracer()
    tracer = perfbench_tracer.Tracer()
    tracer.install_all()
    try:
        verify.ricci_scan("gh", pair, spec=SampleSpec(count=2))
        verify.ricci_scan("hitchin", pair, spec=SampleSpec(count=1))
        invariance_start = len(tracer.name)
        verify.invariance_scan("gh", pair, spec=SampleSpec(count=1))
        verify.invariance_scan("hitchin", pair, spec=SampleSpec(count=1))
        verify.period_check(two_level)
        kahler_start = len(tracer.name)
        verify.kahler_scan("gh", pair, spec=SampleSpec(count=1))
        fit_start = len(tracer.name)
        ghawking.volume_growth_fit(taubnut, mode="alf")
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name]
    for span in (
        "verify.ricci-gh",
        "verify.ricci-hitchin",
        "verify.invariance-gh",
        "verify.invariance-hitchin",
        "tensorcalc.curvature_at",
        "ghawking.metric_at",
        "ghawking.potential_at",
        "hitchin.metric_at",
        "hitchin.solve_b",
        "verify.periods",
        "ghawking.cycle_period",
        "quadrature.adaptive_simpson",
        "quadrature.integrand",
    ):
        assert span in names

    def ancestors(i):
        while tracer.parent[i] >= 0:
            i = tracer.parent[i]
            yield names[i]

    # the float metrics are the invariance scan's fields, and the gh metric
    # reads V through the module attribute, which is what
    # ghawking.potential_evals and ghawking.center_terms count
    invariance = range(invariance_start, kahler_start)
    metric_parents = {
        (names[i], names[tracer.parent[i]]) for i in invariance if names[i].endswith(".metric_at")
    }
    assert metric_parents == {
        ("ghawking.metric_at", "verify.invariance-gh"),
        ("hitchin.metric_at", "verify.invariance-hitchin"),
    }
    potential_parents = {
        names[tracer.parent[i]] for i in invariance if names[i] == "ghawking.potential_at"
    }
    assert potential_parents == {"ghawking.metric_at"}
    # curvature takes the metric jet alone: no float metric evaluation sits
    # inside a curvature span, so tensorcalc.field_evals_per_curvature reads
    # 0, while the jet's own solve for b does
    in_curvature = [
        names[i] for i in range(len(names)) if "tensorcalc.curvature_at" in ancestors(i)
    ]
    assert "hitchin.solve_b" in in_curvature
    assert not [name for name in in_curvature if name.endswith(".metric_at")]
    metrics = perfbench_tracer.layer_metrics(tracer, 1)
    # one curvature call per block of samples: one per Ricci scan here
    assert metrics["tensorcalc.curvature_calls"] == 2
    assert metrics["tensorcalc.field_evals_per_curvature"] == 0.0
    # the Kahler scan differentiates through the public functions, which is
    # what tensorcalc.exterior_derivative_s and nijenhuis_s time
    kahler_names = set(names[kahler_start:fit_start])
    for span in ("tensorcalc.exterior_derivative", "tensorcalc.nijenhuis_at"):
        assert span in kahler_names
    # the volume fit integrates through ghawking's quadrature binding
    fit_names = set(names[fit_start:])
    for span in (
        "ghawking.volume_growth_fit",
        "quadrature.adaptive_simpson",
        "quadrature.integrand",
    ):
        assert span in fit_names
    # one integrand span per depth level, not one per node: per call, one
    # for the first nodes of every lane and at most MAX_DEPTH + 1 levels
    # (one span per node would average about 60 per call on this fit)
    fit_spans = names[fit_start:]
    quadratures = fit_spans.count("quadrature.adaptive_simpson")
    integrands = fit_spans.count("quadrature.integrand")
    assert 0 < integrands <= (quadrature.MAX_DEPTH + 2) * quadratures


def test_tracer_spans_fill_inside_a_report():
    # full_report looks each scan up at call time, so the wrappers attach
    # to the scans of a report, not only to scans called alone
    pair = make_polygon_config(QuotientSignature(1, 2, 1), [1.0 + 0j], [0.0])
    tracer = load_tracer().Tracer()
    tracer.install_all()
    try:
        verify.full_report(pair, spec=SampleSpec(count=2))
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name]
    children = {
        names[i] for i, p in enumerate(tracer.parent) if p >= 0 and names[p] == "verify.full_report"
    }
    kinds = ("ricci", "kahler", "invariance")
    scans = {f"verify.{kind}-{c}" for kind in kinds for c in ("gh", "hitchin")}
    assert scans | {
        "verify.cross-validation",
        "verify.periods",
        "verify.fits",
        "verify.implicit-solver",
    } <= children


def test_workloads_run_at_smoke_size(tmp_path, monkeypatch):
    # the module's dataclasses look their module up in sys.modules
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        inputs = workload.build(0, str(workdir), smoke=True)
        outcomes = [workload.check(inputs, workload.run(inputs)) for _ in range(2)]
        gate = workloads.judge(outcomes, workload.scan_samples(inputs))
        assert gate.checks_failed == 0, (name, gate.failures)
