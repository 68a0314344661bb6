"""The benchmark's timing wrappers still attach to the functions it names.

perfbench/tracer.py replaces module attributes by timing wrappers.  A
function that is renamed, or bound at import time where it should be
looked up at call time, would leave its per-layer metrics at zero
without any error; this test makes that a failure.
"""

import importlib.util
import pathlib

from gravinst import ghawking, verify
from gravinst.sampling import SampleSpec
from gravinst.singularities import QuotientSignature, make_polygon_config

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
    tracer = load_tracer().Tracer()
    tracer.install_all()
    try:
        verify.ricci_scan("gh", pair, spec=SampleSpec(count=2))
        verify.ricci_scan("hitchin", pair, spec=SampleSpec(count=1))
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
        "tensorcalc.curvature_at",
        "ghawking.metric_at",
        "hitchin.metric_at",
        "hitchin.solve_b",
        "verify.periods",
        "ghawking.cycle_period",
        "quadrature.adaptive_simpson",
        "quadrature.integrand",
    ):
        assert span in names
    # the gh metric reads V through the module attribute, which is what
    # ghawking.potential_evals and ghawking.center_terms count; spans are
    # stored in call order, so the gh scan's spans precede the hitchin scan
    gh_scan, hitchin_scan = names.index("verify.ricci-gh"), names.index("verify.ricci-hitchin")
    potential_parents = {
        names[tracer.parent[i]]
        for i in range(gh_scan, hitchin_scan)
        if names[i] == "ghawking.potential_at"
    }
    assert potential_parents == {"ghawking.metric_at"}
    # every field evaluation of a Ricci scan sits inside a curvature span,
    # which is what tensorcalc.field_evals_per_curvature counts
    parents = [
        names[tracer.parent[i]]
        for i, name in enumerate(names[:kahler_start])
        if name.endswith(".metric_at")
    ]
    assert parents and set(parents) == {"tensorcalc.curvature_at"}
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
