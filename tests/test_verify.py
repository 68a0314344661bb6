"""Verification layer: scans, negative controls, report assembly."""

import contextlib
import dataclasses
import json
import math
import time
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from gravinst import ghawking, hitchin, sampling, tensorcalc, verify
from gravinst.errors import ChartBoundaryError, FitDomainError, ScanError
from gravinst.sampling import SampleSpec
from gravinst.singularities import (
    AKL_MAX_LEVEL,
    Center,
    CenterConfiguration,
    QuotientSignature,
    make_akl_config,
    make_polygon_config,
)
from make_reference_reports import bent, bent_potential


def pair_config():
    return make_polygon_config(QuotientSignature(1, 2, 1), [1.0 + 0j], [0.0])


def two_level_config():
    return make_polygon_config(
        QuotientSignature(2, 2, 1), [1.0 + 0j, 1.3 + 0.2j], [0.0, 1.0]
    )


def flat_config():
    return make_polygon_config(QuotientSignature(1, 1, 0), [1.0 + 0j], [0.0])


def pair_generic_config():
    return make_polygon_config(QuotientSignature(1, 2, 1), [1.1 + 0.3j], [0.0])


def hexagon_config():
    return make_polygon_config(
        QuotientSignature(2, 3, 2), [1.0 + 0j, 1.4 + 0.3j], [0.0, 0.7]
    )


def square_config():
    return make_polygon_config(
        QuotientSignature(2, 2, 1), [1.0 + 0j, 1.6 + 0j], [0.0, 0.0]
    )


def taubnut_config():
    return make_polygon_config(QuotientSignature(1, 1, 0), [1.0 + 0j], [0.0], mode="alf")


# --- which construction applies ---


def test_scans_reject_a_construction_that_does_not_apply():
    # the complex chart carries ALE metrics only; its scans on an ALF or a
    # truncated configuration would report on another metric
    akl = make_akl_config(n=2, m=1, j_max=3)
    for scan, config in (
        (verify.ricci_scan, taubnut_config()),
        (verify.kahler_scan, akl),
        (verify.invariance_scan, akl),
    ):
        with pytest.raises(ValueError, match="applies to ale"):
            scan("hitchin", config, spec=SampleSpec(count=2))
    with pytest.raises(ValueError, match="applies to ale"):
        verify.ricci_samples(verify.HITCHIN, taubnut_config(), [(0.4, -0.3, 1.5, 0.7)])
    with pytest.raises(ValueError, match="applies to ale"):
        verify.cross_validate(akl)
    # solving the ALE height equation on an ALF configuration checks nothing
    with pytest.raises(ValueError, match="applies to ale"):
        verify.solver_scan(taubnut_config(), count=50)


def test_a_scan_rejects_the_evaluation_of_another_chart_or_configuration():
    cfg = pair_config()
    evaluation = verify.ChartEvaluation(verify.GH, cfg, SampleSpec(count=2))
    with pytest.raises(ValueError, match="not the hitchin chart's"):
        verify.ricci_scan("hitchin", cfg, evaluation=evaluation)
    # an equal configuration that is another object has its own evaluation
    with pytest.raises(ValueError, match="not the gh chart's"):
        verify.kahler_scan("gh", pair_config(), evaluation=evaluation)
    assert verify.ricci_scan("gh", cfg, evaluation=evaluation).count == 2


def test_a_mode_other_than_the_configured_one_is_rejected():
    with pytest.raises(ValueError, match="configured mode"):
        verify.full_report(hexagon_config(), mode="alf")
    with pytest.raises(ValueError, match="configured mode"):
        ghawking.volume_growth_fit(taubnut_config(), mode="ale")


def test_fits_that_do_not_apply_raise():
    with pytest.raises(FitDomainError):
        verify.decay_and_volume(make_akl_config(n=2, m=1, j_max=3))
    with pytest.raises(FitDomainError):
        verify.decay_and_volume(taubnut_config(), ("decay",))
    assert verify.fit_parts(taubnut_config()) == ("volume",)
    assert verify.fit_parts(pair_config()) == ("decay", "volume")


# --- ricci ---


def test_ricci_scan_clean():
    cfg = pair_config()
    for src in ("gh", "hitchin"):
        rec = verify.ricci_scan(src, cfg, spec=SampleSpec(count=4))
        assert rec.passed and rec.count == 4
        assert rec.name == f"ricci-{src}"


def test_ricci_scan_negative_control():
    # squaring the potential keeps the metric SPD but kills Ricci flatness
    with bent_potential(lambda v: v * v):
        rec = verify.ricci_scan("gh", pair_config(), spec=SampleSpec(count=4))
    assert not rec.passed
    assert rec.max_residual > 0.1


def test_ricci_scan_rejects_unknown_source():
    with pytest.raises(ValueError):
        verify.ricci_scan("euclid", pair_config())


def test_chart_point_validation():
    # a chart point is a row of four finite coordinates, and its record
    # keeps them as a tuple
    cfg = pair_config()
    with pytest.raises(ValueError, match=r"\(N, 4\) array"):
        verify.ricci_samples(verify.GH, cfg, [(1.0, 2.0, 3.0)])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="chart point coordinates must be finite"):
            verify.ricci_samples(verify.GH, cfg, [(0.3, 2.5, 1.0, 0.5), (1.0, 2.0, 3.0, bad)])
    (sample,) = verify.ricci_samples(verify.HITCHIN, cfg, [[0.4, -0.3, 1.5, 0.7]])
    assert sample.error == "" and sample.point == (0.4, -0.3, 1.5, 0.7)


# --- kahler ---


def test_kahler_scan_three_records():
    for src in ("gh", "hitchin"):
        recs = verify.kahler_scan(src, pair_config(), spec=SampleSpec(count=4))
        assert [r.name for r in recs] == [
            f"kahler-domega-{src}",
            f"kahler-nijenhuis-{src}",
            f"kahler-compat-{src}",
        ]
        assert all(r.passed for r in recs)
        assert all(r.count == 4 for r in recs)


def test_kahler_scan_records_constant_j_as_an_identity(monkeypatch):
    # J0 is a jet with zero derivatives, measured on the path of every
    # chart: its Nijenhuis tensor is exactly 0, with no note
    nijenhuis_at = tensorcalc.nijenhuis_at
    lanes = []

    def counted(J, dJ):
        lanes.append(len(J))
        return nijenhuis_at(J, dJ)

    monkeypatch.setattr(tensorcalc, "nijenhuis_at", counted)
    recs = verify.kahler_scan("hitchin", pair_config(), spec=SampleSpec(count=4))
    nij = recs[1]
    assert lanes == [4]
    assert nij.name == "kahler-nijenhuis-hitchin"
    assert nij.passed and nij.max_residual == 0.0 and nij.count == 4
    assert "note" not in nij.payload()


def test_complex_chart_kahler_sample_solves_once(monkeypatch):
    # one jet of eta gives g, omega and d omega
    solve_b = hitchin.solve_b
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_b(*args)

    monkeypatch.setattr(hitchin, "solve_b", counted)
    recs = verify.kahler_scan("hitchin", hexagon_config(), spec=SampleSpec(count=10, seed=7))
    assert recs[0].count == 10 and not recs[0].skipped
    # one solve over the 10 lanes of the block
    assert [len(z) for _, z, _ in calls] == [10]


# --- invariance ---


def test_invariance_scan_symmetric_passes():
    cfg = pair_config()
    for src in ("gh", "hitchin"):
        rec = verify.invariance_scan(src, cfg, spec=SampleSpec(count=6))
        assert rec.passed
        assert rec.max_residual < 1e-9


def test_invariance_scan_negative_control():
    pert = verify.perturb_config(pair_config(), eps=0.01)
    for src in ("gh", "hitchin"):
        rec = verify.invariance_scan(src, pert, spec=SampleSpec(count=6))
        assert not rec.passed
        assert rec.max_residual > 1e-3


def test_a_nan_residual_fails_its_check(monkeypatch):
    # a NaN on a good lane after a finite one: Python's max kept the first
    # of two values that do not compare, so the scan passed
    metric_at = ghawking.metric_at

    def nan_on_lane_two(config, x):
        g, errors = metric_at(config, x)
        g[2] = np.nan
        return g, errors

    monkeypatch.setattr(ghawking, "metric_at", nan_on_lane_two)
    rec = verify.invariance_scan("gh", pair_config(), spec=SampleSpec(count=6))
    assert rec.count == 6 and math.isnan(rec.max_residual)
    assert rec.payload()["max_residual"] is None and rec.payload()["pass"] is False

    implicit_lhs = hitchin.implicit_lhs

    def nan_lhs(config, z, b):
        lhs = implicit_lhs(config, z, b)
        lhs[3] = np.nan
        return lhs

    monkeypatch.setattr(hitchin, "implicit_lhs", nan_lhs)
    rec = verify.solver_scan(pair_config(), count=10)
    assert math.isnan(rec.max_residual) and rec.payload()["pass"] is False


def test_no_check_passes_on_a_chart_point_that_is_not_finite(monkeypatch):
    # k = 12 centers at about 1e52: |y|^2 of a lifted base point overflows,
    # so hitchin.base_to_chart gives its lane a NumericOverflowError, with
    # no RuntimeWarning; the complex-chart stream ends on the first such
    # lane instead of drawing its whole candidate budget
    cfg = make_polygon_config(
        QuotientSignature(4, 3, 1), [1e52, 1.1e52, 1.2e52, 1.3e52], [0.0] * 4
    )
    base_to_chart = hitchin.base_to_chart
    lifted = []

    def counted(config, x):
        lifted.append(len(x))
        return base_to_chart(config, x)

    monkeypatch.setattr(hitchin, "base_to_chart", counted)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify.full_report(cfg)
    # about 0.015 s; a stream that dropped the overflowing lanes would draw
    # its whole budget of 200 000 candidates
    assert time.perf_counter() - t0 < 1.0
    failed = {c.name: (c.note, c.skipped) for c in report.checks if not c.passed}
    overflow = ("NumericOverflowError: |y|^2 of the lift is not a finite float", {})
    assert failed == {
        "ricci-hitchin": overflow,
        "kahler-hitchin": overflow,
        "invariance-hitchin": overflow,
        "cross-validation": (
            "ScanError: fewer than 8 usable cross-validation samples",
            {"NumericOverflowError": verify.CROSS_COUNT},
        ),
        "fits": overflow,
    }
    assert report.samples == {"gh": report.checks[0].samples, "hitchin": ()}
    # one block of the stream, one of cross-validation, one of the decay fit
    assert lifted == [20, verify.CROSS_COUNT, 24]


def test_invariance_scan_rejects_trivial_action():
    with pytest.raises(ValueError):
        verify.invariance_scan("gh", flat_config())


# --- cross validation ---


def test_cross_validate_pair():
    mean, rec = verify.cross_validate(pair_config())
    assert rec.passed
    assert rec.count == 12
    # both routes build the same metric up to the fixed homothety 1/4
    assert abs(mean - 0.25) < 1e-6
    assert rec.max_residual < 1e-3


@pytest.mark.parametrize("seed", [15, 42, 258, 393])
def test_cross_validate_hexagon_regression_seeds(seed):
    # the first seed of each block that failed with finite-difference
    # complex-chart curvature, whose noise near |y| = 0.03 was the size of
    # SPREAD_TOL
    _, rec = verify.cross_validate(
        hexagon_config(), SampleSpec(count=verify.CROSS_COUNT, seed=seed)
    )
    assert rec.passed and rec.count == verify.CROSS_COUNT
    assert rec.max_residual < 0.5 * verify.SPREAD_TOL


@pytest.mark.parametrize("build", [pair_generic_config, hexagon_config])
def test_cross_validate_negative_control(build, monkeypatch):
    # the circle-fibered side on a configuration with one center moved by
    # 0.01: the two curvatures no longer differ by one homothety
    gh = verify.GH

    def perturbed(make):
        return lambda config, *args: make(verify.perturb_config(config), *args)

    perturbed_gh = replace(gh, state=perturbed(gh.state))
    monkeypatch.setattr(verify, "GH", perturbed_gh)
    _, rec = verify.cross_validate(build(), SampleSpec(count=verify.CROSS_COUNT, seed=5))
    assert rec.count == verify.CROSS_COUNT
    assert not rec.passed and rec.max_residual > 5.0 * verify.SPREAD_TOL


def test_full_report_hexagon_seed_42_passes():
    report = verify.full_report(hexagon_config(), spec=SampleSpec(count=100, seed=42))
    assert report.passed, [c.name for c in report.checks if not c.passed]


def test_cross_validate_flat_is_vacuous():
    mean, rec = verify.cross_validate(flat_config())
    assert math.isnan(mean) and rec.passed and rec.count == 0
    assert "flat" in rec.note


def test_cross_validate_needs_enough_samples():
    with pytest.raises(ScanError):
        verify.cross_validate(pair_config(), spec=SampleSpec(count=6))


def test_cross_validate_skips_samples_below_the_curvature_floor():
    # far out on the unit pair |Rm|^2 falls below CURVATURE_FLOOR, so every
    # matched point is skipped and the scan has no ratio to judge
    spec = SampleSpec(count=verify.CROSS_COUNT, r_min=100.0, r_max=200.0)
    with pytest.raises(ScanError, match="fewer than 8") as info:
        verify.cross_validate(pair_config(), spec)
    skipped = Counter(s.error for s in info.value.samples)
    assert skipped == {"below curvature floor": verify.CROSS_COUNT}


def scaled_pair(factor):
    return make_polygon_config(QuotientSignature(1, 2, 1), [factor * (1.0 + 0j)], [0.0])


def scaled_hexagon(factor):
    return make_polygon_config(
        QuotientSignature(2, 3, 2), [factor * (1.0 + 0j), factor * (1.4 + 0.3j)], [0.0, factor * 0.7]
    )


@pytest.mark.parametrize(
    "config", [scaled_hexagon(300.0), scaled_pair(1e10)], ids=["hexagon-x300", "pair-x1e10"]
)
def test_cross_validation_floor_scales_with_the_configuration(config):
    # scaling every center by s scales |Rm|^2 by s^-2, and the floor with it:
    # a homothetic copy keeps every matched point
    mean, record = verify.cross_validate(config)
    assert record.passed and record.count == verify.CROSS_COUNT and not record.skipped
    assert abs(mean - 0.25) < verify.SPREAD_TOL


@pytest.mark.parametrize("build", [scaled_pair, scaled_hexagon], ids=["pair", "hexagon"])
def test_a_homothetic_configuration_gets_the_same_report(build):
    # the same surface up to homothety: every record passes or fails as at
    # scale 1, and the |Rm|^2 ratio stays 2^-2
    def outcome(factor):
        report = verify.full_report(build(factor))
        assert abs(report.ratio_mean - 0.25) < verify.SPREAD_TOL
        return [(c.name, c.passed) for c in report.checks]

    unit = outcome(1.0)
    for factor in (300.0, 1e5, 1e10):
        assert outcome(factor) == unit, factor


def test_full_report_cross_validation_uses_run_sampling_geometry():
    # the run's annulus reaches cross-validation; only the count is its own
    cfg = pair_config()
    spec = SampleSpec(count=2, r_min=3.0, r_max=4.0)
    report = verify.full_report(cfg, spec=spec, checks=("cross",))
    (record,) = report.checks
    assert record.name == "cross-validation" and record.passed
    assert len(record.samples) == verify.CROSS_COUNT
    scale = max(1.0, cfg.extent())
    for s in record.samples:
        _, b, a1, a2 = s.point
        assert 3.0 <= math.hypot(b, a1, a2) / scale <= 4.0


# --- periods ---


def test_period_check_two_level():
    # the four vertically separated pairs, each the closed form
    rec = verify.period_check(two_level_config())
    assert rec.passed
    assert rec.count == 4
    assert rec.max_residual < 1e-3
    assert rec.note == "C = -6.28318531, the closed form -2 pi (b_j - b_i)"


@pytest.mark.parametrize(
    "build, count",
    [
        (hexagon_config, 9),
        (square_config, 3),
        (lambda: make_akl_config(2, 1, 12), 23),
        (lambda: make_polygon_config(QuotientSignature(2, 1, 0), [1.0, 2.0], [0.0, 1.0]), 1),
    ],
    ids=["hexagon", "square", "akl-12", "one-pair"],
)
def test_period_check_counts(build, count):
    # vertically separated pairs, or every unblocked pair when the centers
    # are coplanar: square and akl J=12 are collinear, so only adjacent
    # centers pair up and every other segment is blocked by a third center;
    # a single vertical pair takes the same fit as many
    rec = verify.period_check(build())
    assert rec.passed
    assert rec.count == count


def test_period_check_coplanar():
    rec = verify.period_check(pair_config())
    assert rec.passed
    assert "coplanar" in rec.note


# --- asymptotic fits ---


def test_full_report_flat_single_center_passes():
    # one center: the metric is flat, so the decay check bounds |Rm|^2 by
    # the curvature floor instead of fitting a slope to finite-difference
    # noise
    rep = verify.full_report(flat_config(), spec=SampleSpec(seed=42))
    assert rep.passed, [c.payload() for c in rep.checks if not c.passed]
    decay = next(c for c in rep.checks if c.name.startswith("curvature-decay"))
    assert decay.name == "curvature-decay-flat" and decay.count == 24
    assert decay.max_residual < verify.CURVATURE_FLOOR
    assert "curvature_decay" not in rep.fits


# --- solver ---


def test_solver_scan_quick():
    rec = verify.solver_scan(pair_config(), count=50)
    assert rec.passed and rec.count == 50
    assert rec.max_residual < 1e-12


def eight_center_config():
    return make_polygon_config(
        QuotientSignature(2, 4, 1), [1.0 + 0j, 1.6 + 0j], [0.0, 0.0]
    )


def test_solver_scan_blocks_do_not_change_the_record(monkeypatch):
    # no lane's arithmetic reads another's, its center sums included, so
    # neither the scan's block nor solve_b's window moves a residual bit,
    # with 8 centers too; criterion 9's 10^4 inputs make one solve_b call
    calls = [0]
    solve_b = hitchin.solve_b

    def counted(*args):
        calls[0] += 1
        return solve_b(*args)

    monkeypatch.setattr(hitchin, "solve_b", counted)
    assert verify.solver_scan(pair_config(), count=10000, seed=3).passed
    assert calls[0] == 1
    for cfg in (pair_config(), eight_center_config()):
        with monkeypatch.context() as patch:
            rec = verify.solver_scan(cfg, count=2500, seed=3)
            calls[0] = 0
            patch.setattr(verify, "SOLVER_BLOCK", 7)
            patch.setattr(hitchin, "NEWTON_WINDOW", 5)
            assert verify.solver_scan(cfg, count=2500, seed=3) == rec
            assert calls[0] == math.ceil(2500 / 7)
        assert rec.passed and rec.count == 2500


def test_solver_scan_memory_does_not_grow_with_the_count():
    # the scan holds one block of SOLVER_BLOCK inputs at a time and
    # substitutes its roots back one window at a time, so four blocks peak
    # where one does, and criterion 9's 10^4 inputs within 2 MB
    def peak(count):
        tracemalloc.start()
        try:
            verify.solver_scan(square_config(), count=count, seed=5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(verify.SOLVER_BLOCK)
    assert peak(4 * verify.SOLVER_BLOCK) <= 1.1 * one
    assert peak(10000) <= 2e6


@pytest.mark.parametrize(
    "kwargs",
    [
        {"count": -5},
        {"count": 0},
        {"count": 2.5},
        {"count": True},
        {"count": 10, "seed": 1.5},
        {"count": 10, "seed": "1"},
    ],
)
def test_solver_scan_rejects_bad_count_or_seed(kwargs):
    with pytest.raises(ValueError):
        verify.solver_scan(pair_config(), **kwargs)


# --- truncation convergence ---


@pytest.mark.parametrize("radius", [1e98, 1e101, 1e150, 1e153])
def test_fits_and_solver_on_a_huge_pair_end_with_no_warning(radius):
    # the unit pair scaled up: the fits' ball volume, curvature jets or
    # lift leave the floats and end in NumericOverflowError, the solver's
    # squared distances take their np.hypot branch, and nothing warns
    cfg = make_polygon_config(QuotientSignature(1, 2, 1), [radius + 0j], [0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits, solver = verify.full_report(cfg, checks=("fits", "solver")).checks
    assert fits.name == "fits" and fits.note.startswith("NumericOverflowError")
    assert solver.name == "implicit-solver" and solver.passed


def test_akl_convergence_quick():
    rec = verify.akl_convergence_check(j_values=range(3, 7))
    assert rec.passed
    assert rec.max_residual < 1.0
    assert rec.count == 4


def test_akl_convergence_holds_at_high_truncation_levels():
    # each increment sums its own level polygons, so it does not cancel
    # against the levels below it, and no configuration of J levels is built
    t0 = time.perf_counter()
    rec = verify.akl_convergence_check(2, 1, range(200, 401))
    assert time.perf_counter() - t0 < 1.0
    assert rec.passed and rec.max_residual < 1.0


def test_akl_convergence_fails_where_increments_do_not_decrease(monkeypatch):
    # equal increments far below the comparison series: only the
    # monotonicity condition fails, and it sets the residual to inf
    monkeypatch.setattr(ghawking, "potential_at", lambda config, b, a: 1e-6)
    rec = verify.akl_convergence_check(j_values=range(3, 7))
    assert rec.max_residual == math.inf
    assert not rec.passed
    assert rec.payload()["max_residual"] is None and rec.note == ""


def test_the_highest_akl_level_builds_and_its_convergence_check_passes():
    # AKL_MAX_LEVEL, 8000 centers at n = 2: the report's level range
    # J/2..J still tells the convergent tail; one level more is refused
    cfg = make_akl_config(n=2, m=1, j_max=AKL_MAX_LEVEL)
    (rec,) = verify.full_report(cfg, checks=("fits",)).checks
    assert rec.name == "akl-convergence" and rec.passed
    with pytest.raises(ValueError, match="above 4000"):
        make_akl_config(n=2, m=1, j_max=AKL_MAX_LEVEL + 1)


def test_akl_convergence_needs_levels():
    with pytest.raises(ValueError):
        verify.akl_convergence_check(j_values=(5, 6))
    with pytest.raises(ValueError):
        verify.akl_convergence_check(j_values=(0, 1, 2))


# --- config perturbation ---


def test_perturb_config():
    cfg = pair_config()
    pert = verify.perturb_config(cfg, eps=0.01)
    assert pert.centers[1:] == cfg.centers[1:]
    assert pert.centers[0].b == cfg.centers[0].b
    assert abs(pert.centers[0].a - cfg.centers[0].a - 0.01) < 1e-15
    assert pert.signature == cfg.signature
    assert pert.mode == cfg.mode


# --- report assembly ---


def test_full_report_subset_and_determinism():
    cfg = pair_config()
    rep1 = verify.full_report(cfg, checks=("kahler",), spec=SampleSpec(count=4))
    rep2 = verify.full_report(cfg, checks=("kahler",), spec=SampleSpec(count=4))
    names = [c.name for c in rep1.checks]
    assert names == [
        "kahler-domega-gh",
        "kahler-nijenhuis-gh",
        "kahler-compat-gh",
        "kahler-domega-hitchin",
        "kahler-nijenhuis-hitchin",
        "kahler-compat-hitchin",
    ]
    p1, p2 = rep1.payload(), rep2.payload()
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)
    # wall clock is tracked but never leaks into the payload
    assert rep1.timing and "timing" not in p1
    assert p1["pass"] is True
    assert rep1.passed
    assert {"name", "max_residual", "tolerance", "pass", "count"} <= set(
        p1["checks"][0]
    )


def test_full_report_rejects_unknown_check():
    with pytest.raises(ValueError):
        verify.full_report(pair_config(), checks=("ricci", "torsion"))


def test_full_report_captures_check_errors():
    # one truncation level is too few for the convergence check; the
    # report must record the failure instead of raising
    cfg = make_akl_config(n=2, m=1, j_max=1)
    rep = verify.full_report(cfg, checks=("fits",))
    assert len(rep.checks) == 1
    rec = rep.checks[0]
    assert rec.name == "akl-convergence"
    assert not rec.passed
    assert rec.max_residual == float("inf")
    assert "ValueError" in rec.note
    assert not rep.passed


def test_full_report_runs_akl_convergence():
    cfg = make_akl_config(n=2, m=1, j_max=6)
    rep = verify.full_report(cfg, checks=("fits",))
    assert [c.name for c in rep.checks] == ["akl-convergence"]
    assert rep.passed


# --- one evaluation per sample point per report ---


def assert_identical_samples(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.point, a.residuals, a.error) == (b.point, b.residuals, b.error)
        assert (a.curvature is None) == (b.curvature is None)
        if a.curvature is not None:
            for part in dataclasses.fields(a.curvature):
                x, y = getattr(a.curvature, part.name), getattr(b.curvature, part.name)
                assert np.array_equal(x, y), part.name


@pytest.mark.parametrize(
    "count, f", [(4, None), (30, None), (30, bent)], ids=["4", "30", "30-transformed"]
)
def test_full_report_agrees_with_the_standalone_scans(count, f):
    # the report shares one stream and one state evaluation per chart
    # between its scans, and cross-validation reuses the Ricci samples'
    # curvature; every record must be the standalone scan's, with the
    # potential bent or not
    cfg = hexagon_config()
    spec = SampleSpec(count=count, seed=7)
    with bent_potential(f) if f else contextlib.nullcontext():
        report = verify.full_report(cfg, spec=spec)
        by_name = {c.name: c for c in report.checks}
        for c in verify.CONSTRUCTIONS:
            ricci = verify.ricci_scan(c.name, cfg, spec)
            assert by_name[ricci.name] == ricci
            assert_identical_samples(report.samples[c.name], ricci.samples)
            for record in verify.kahler_scan(c.name, cfg, spec):
                assert by_name[record.name] == record
                assert_identical_samples(by_name[record.name].samples, record.samples)
            record = verify.invariance_scan(c.name, cfg, spec)
            assert by_name[record.name] == record
        mean, record = verify.cross_validate(cfg, replace(spec, count=verify.CROSS_COUNT))
        assert report.ratio_mean == mean and by_name["cross-validation"] == record
        assert_identical_samples(by_name["cross-validation"].samples, record.samples)
    if f is not None:
        # the bent metric jet fails the two checks that take it; every
        # other record, the hitchin samples included, is the unbent run's
        assert not by_name["ricci-gh"].passed
        assert not by_name["cross-validation"].passed
        plain = verify.full_report(cfg, spec=spec)
        bent_only = {"ricci-gh", "cross-validation"}
        assert [c.name for c in plain.checks] == list(by_name)
        for record in plain.checks:
            if record.name not in bent_only:
                assert by_name[record.name] == record
        assert_identical_samples(report.samples["hitchin"], plain.samples["hitchin"])


def test_full_report_evaluates_each_chart_once_per_sample_point(monkeypatch):
    # the hexagon at count 30, seed 7: each chart's state at each of its 30
    # stream points once, in one call on the block of them (the complex chart's second call is the decay
    # fit's block of 24), each chart's stream drawn once, and
    # cross-validation's 12 matched points all found among the Ricci
    # samples, so it draws its own stream and evaluates no curvature
    counts = Counter()

    def count(module, name, lanes=lambda args: 1):
        original = getattr(module, name)
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"

        def counted(*args, **kwargs):
            counts[key] += 1
            counts[f"{key} lanes"] += lanes(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(ghawking, "potential_jets", lambda args: len(args[1]))
    count(hitchin, "eta_jets", lambda args: len(args[1]))
    count(sampling, "gh_points")
    count(sampling, "hitchin_points")
    count(tensorcalc, "curvature_at")
    # the invariance scans: one metric call per chart, on the block of 30
    # points stacked over their 30 images
    count(ghawking, "metric_at", lambda args: len(args[1]))
    count(hitchin, "metric_at", lambda args: len(args[1]))
    count(hitchin, "solve_b", lambda args: np.size(args[1]))
    # the volume fit: one lane quadrature over every piece of every ray
    count(ghawking, "adaptive_simpson")
    report = verify.full_report(hexagon_config(), spec=SampleSpec(count=30, seed=7))
    assert report.passed
    assert (counts["ghawking.potential_jets"], counts["ghawking.potential_jets lanes"]) == (1, 30)
    assert (counts["hitchin.eta_jets"], counts["hitchin.eta_jets lanes"]) == (2, 30 + 24)
    assert counts["sampling.gh_points"] == 2 and counts["sampling.hitchin_points"] == 1
    assert counts["tensorcalc.curvature_at"] == 3
    for chart in ("ghawking", "hitchin"):
        assert (counts[f"{chart}.metric_at"], counts[f"{chart}.metric_at lanes"]) == (1, 60)
    # one solve per state block, decay block, invariance block and solver
    # scan block (of 2000 inputs)
    lanes = 30 + 24 + 60 + 2000
    assert (counts["hitchin.solve_b"], counts["hitchin.solve_b lanes"]) == (4, lanes)
    assert counts["ghawking.adaptive_simpson"] == 1


def test_full_report_on_an_unsatisfiable_spec_draws_each_stream_once(monkeypatch):
    # no annulus point is clear of both centers: every sample scan ends in
    # one ScanError record, after one draw per chart and cross-validation's
    # own draw, each of the 10000 candidates a stream that accepts none
    # may draw
    draws = []
    candidates = sampling._candidates

    def counted(config, spec):
        draws.append(spec.count)
        return candidates(config, spec)

    monkeypatch.setattr(sampling, "_candidates", counted)
    spec = SampleSpec(count=2, seed=3, clearance=6.99)
    report = verify.full_report(pair_config(), spec=spec)
    assert sorted(draws) == [2, 2, verify.CROSS_COUNT]
    scans = [
        f"{kind}-{c}" for kind in ("ricci", "kahler", "invariance") for c in ("gh", "hitchin")
    ] + ["cross-validation"]
    notes = {c.name: c.note for c in report.checks if c.name in scans}
    assert sorted(notes) == sorted(scans)
    for note in notes.values():
        assert note == "ScanError: sampling rejected too many candidate points (10000 drawn)"
    assert report.samples == {"gh": (), "hitchin": ()}
    assert [c.passed for c in report.checks if c.name not in scans] == [True] * 4


# --- per-sample records and strict payloads ---


def test_scan_counts_skipped_samples_by_error_type(monkeypatch):
    original = tensorcalc.curvature_at
    calls = []

    def first_fails(metric, x):
        # one call for the block of 4; the first call's first lane fails
        calls.append(len(x))
        bundles, errors = original(metric, x)
        if len(calls) == 1:
            bundles, errors = bundles[1:], [ChartBoundaryError("forced")] + errors[1:]
        return bundles, errors

    monkeypatch.setattr(tensorcalc, "curvature_at", first_fails)
    rec = verify.ricci_scan("gh", pair_config(), spec=SampleSpec(count=4))
    assert calls == [4]
    assert rec.count == 3
    assert rec.payload()["skipped"] == {"ChartBoundaryError": 1}
    assert [s.error for s in rec.samples] == ["ChartBoundaryError", "", "", ""]
    clean = verify.ricci_scan("gh", pair_config(), spec=SampleSpec(count=4))
    assert "skipped" not in clean.payload()


def tower_config():
    """Three centers, two of them on one vertical axis: the lower center's
    pole lies on the upper center's Dirac string."""
    return CenterConfiguration(
        centers=(Center(-1.0, 0.5 + 0j), Center(1.0, 0.5 + 0j), Center(0.3, -1.0 + 0.2j)),
        signature=QuotientSignature(3, 1, 0),
    )


def assert_block_matches_jet(field, jet_field, x, expected):
    """field on the block x against the jet field's values, lane by lane:
    the same error type in the same lane, values within 1e-13 of the
    lane's scale; and each lane alone, as a block of one, exactly the
    block's lane."""
    values, errors = field(x)
    jet, jet_errors = jet_field(x)
    assert [type(e).__name__ if e else "" for e in errors] == expected
    assert [type(e).__name__ if e else "" for e in jet_errors] == expected
    scale = np.max(np.abs(jet.val), axis=(1, 2))
    assert np.all(np.max(np.abs(values - jet.val), axis=(1, 2)) <= 1e-13 * scale)
    good = iter(values)
    for point, err in zip(x, errors):
        one, one_errors = field(point[None])
        if err is None:
            assert one_errors == [None] and np.array_equal(one[0], next(good))
        else:
            assert len(one) == 0 and type(one_errors[0]) is type(err)


def test_gh_metric_block_agrees_with_the_jets_lane_by_lane():
    cfg = tower_config()
    stream = verify.GH.stream(cfg, SampleSpec(count=3, seed=7)).tolist()
    low, high, side = cfg.centers
    x = np.array(
        [
            stream[0],
            (0.3, high.b, high.a.real, high.a.imag),  # a pole
            (0.1, side.b - 0.5, side.a.real, side.a.imag),  # a Dirac string
            stream[1],
            (0.2, low.b, low.a.real, low.a.imag),  # a pole on the upper string
            (0.4, high.b + 0.5, high.a.real, high.a.imag),  # above both: regular
            stream[2],
        ]
        # one unit above a center, near its axis, where alpha's coefficient
        # must not cancel
        + [(0.5, high.b + 1.0, high.a.real + eps, high.a.imag)
           for eps in (1e-4, 1e-6, 1e-8, 1.4e-8, 1e-10, 1e-12)]
    )
    expected = ["", "PoleError", "DiracStringError", "", "PoleError", "", ""] + [""] * 6
    metric = lambda x: ghawking.metric_at(cfg, x)  # noqa: E731
    assert_block_matches_jet(metric, verify.GH.jet(cfg), x, expected)
    # a center at a = 0 and lanes where 1/2 / (Delta f) overflows, not a
    # NaN metric: 1e-170 beside its string (r^2 underflows, f = 0) and
    # 1e-160 beside it (f is subnormal), strings; 1e-170 and 1e-155 above
    # it on its axis (2 u^2 underflows, then is subnormal), poles
    cfg = CenterConfiguration(
        centers=(Center(0.0, 0j), Center(1.0, 1.0 + 0.5j)), signature=QuotientSignature(2, 1, 0)
    )
    stream = verify.GH.stream(cfg, SampleSpec(count=2, seed=7)).tolist()
    x = np.array(
        [stream[0], (0.2, -0.5, 1e-170, 0.0), (0.2, -0.5, 1e-160, 0.0),
         (0.3, 1e-170, 0.0, 0.0), (0.3, 1e-155, 0.0, 0.0), stream[1]]
    )
    metric = lambda x: ghawking.metric_at(cfg, x)  # noqa: E731
    expected = ["", "DiracStringError", "DiracStringError", "PoleError", "PoleError", ""]
    assert_block_matches_jet(metric, verify.GH.jet(cfg), x, expected)


def test_hitchin_metric_block_agrees_with_the_jets_lane_by_lane():
    cfg = hexagon_config()
    stream = verify.HITCHIN.stream(cfg, SampleSpec(count=3, seed=7)).tolist()
    a = cfg.centers[0].a
    x = np.array(
        [
            stream[0],
            (-a.real, a.imag, 1.0, 0.0),  # a pole
            (0.5, 0.2, 1e-9, 0.0),  # the chart floor
            stream[1],
            (-a.real, a.imag, 1e-9, 0.0),  # the floor at a pole: the floor first
            (-3.0, -3.0, 1e96, 0.0),  # a stalled solve for b
            stream[2],
        ]
    )
    expected = ["", "PoleError", "ChartBoundaryError", "", "ChartBoundaryError",
                "ConvergenceError", ""]
    metric = lambda x: hitchin.metric_at(cfg, x)  # noqa: E731
    assert_block_matches_jet(metric, verify.HITCHIN.jet(cfg), x, expected)
    # the Kahler scan's assembly of the same state keeps every lane's error
    _, errors = verify.assembled(verify.HITCHIN.state(cfg), verify.HITCHIN.kahler_of)(x)
    assert [type(e).__name__ if e else "" for e in errors] == expected


def test_fields_take_blocks_only():
    # a single point, or a block that is not (N, 4), is a ValueError and
    # never a silent block of one; the same point as a block of one is good.
    # solve_b takes 1-D lanes of (z, |y|^2) the same way
    cfg = hexagon_config()
    gh_point = verify.GH.stream(cfg, SampleSpec(count=1, seed=7))[0]
    hit_point = verify.HITCHIN.stream(cfg, SampleSpec(count=1, seed=7))[0]
    z, y_sq = complex(*hit_point[:2]), float(np.hypot(*hit_point[2:]) ** 2)

    def never(x):
        raise AssertionError("the metric must not be evaluated")

    calls = [
        lambda: tensorcalc.curvature_at(never, gh_point),
        lambda: tensorcalc.curvature_at(never, gh_point[None, :3]),
        lambda: tensorcalc.invert_metric(np.eye(4)),
        lambda: ghawking.metric_at(cfg, gh_point),
        lambda: hitchin.metric_at(cfg, hit_point),
        lambda: verify.HITCHIN.jet(cfg)(hit_point[None, None]),
        lambda: hitchin.base_to_chart(cfg, gh_point),
        lambda: hitchin.base_to_chart(cfg, gh_point[None, :3]),
        lambda: hitchin.solve_b(cfg, z, y_sq),
        lambda: hitchin.solve_b(cfg, [[z]], [[y_sq]]),
    ]
    for chart, point in ((verify.GH, gh_point), (verify.HITCHIN, hit_point)):
        calls += [
            lambda chart=chart, point=point: chart.state(cfg)(point),
            lambda chart=chart, point=point: chart.jet(cfg)(point),
            lambda chart=chart, point=point: tensorcalc.curvature_at(chart.jet(cfg), point),
        ]
        (bundle,), errors = tensorcalc.curvature_at(chart.jet(cfg), point[None])
        assert isinstance(bundle, tensorcalc.CurvatureBundle) and errors == [None]
    (lifted,), errors = hitchin.base_to_chart(cfg, gh_point[None])
    assert lifted.shape == (4,) and errors == [None]
    (root,), errors = hitchin.solve_b(cfg, [z], [y_sq])
    assert np.isfinite(root) and errors == [None]
    for call in calls:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("chart", [verify.GH, verify.HITCHIN], ids=lambda c: c.name)
def test_construction_jet_and_chart_evaluation_give_identical_bundles(chart):
    # cross-validation takes the first, the Ricci scan the second; a pole
    # lane among the stream's points gets the same error on both
    cfg = hexagon_config()
    evaluation = verify.ChartEvaluation(chart, cfg, SampleSpec(count=20, seed=7))
    c = cfg.centers[0]
    if chart is verify.GH:
        pole = (0.3, c.b, c.a.real, c.a.imag)
    else:
        pole = (-c.a.real, c.a.imag, 1.0, 0.0)
    x = np.concatenate([[pole], evaluation.points()])
    direct, direct_errors = tensorcalc.curvature_at(chart.jet(cfg), x)
    shared, shared_errors = tensorcalc.curvature_at(evaluation.field(chart.jet_of), x)
    for errors in (direct_errors, shared_errors):
        assert [type(e).__name__ for e in errors] == ["PoleError"] + ["NoneType"] * (len(x) - 1)
    assert len(direct) == len(shared) == len(x) - 1
    for a, b in zip(direct, shared):
        for part in dataclasses.fields(tensorcalc.CurvatureBundle):
            got, want = getattr(a, part.name), getattr(b, part.name)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), part.name


def assert_same_bundles(got, want):
    # the per-lane contractions may round differently across block sizes
    for a, b in zip(got, want):
        assert a.point == b.point and a.error == b.error
        if a.curvature is None:
            assert b.curvature is None
            continue
        scale = 1e-10 * max(b.curvature.riem_norm_sq, 1.0)
        assert abs(a.curvature.riem_norm_sq - b.curvature.riem_norm_sq) <= scale
        assert abs(a.curvature.ricci_norm - b.curvature.ricci_norm) <= scale
        assert abs(a.curvature.scalar - b.curvature.scalar) <= scale
        for part in ("christoffel", "riemann", "ricci", "g"):
            x, y = getattr(a.curvature, part), getattr(b.curvature, part)
            assert np.max(np.abs(x - y)) <= 1e-10 * max(np.max(np.abs(y)), 1.0)


def test_each_lane_of_a_block_gets_the_error_of_a_block_of_one(monkeypatch):
    # good points among lanes at the chart floor, at a pole, with a stalled
    # solve for b, with a jet that is not finite and with a singular
    # metric: no lane ends its block, and each gets what it gets alone
    cfg = hexagon_config()
    stream = [tuple(x) for x in verify.HITCHIN.stream(cfg, SampleSpec(count=6, seed=7)).tolist()]
    nan_at, singular_at = stream[4], stream[5]
    a = cfg.centers[0].a
    odd = {
        # at a pole too: the chart floor comes first
        "ChartBoundaryError": (-a.real, a.imag, 1e-9, 0.0),
        "PoleError": (-a.real, a.imag, 1.0, 0.0),
        "ConvergenceError": (-3.0, -3.0, 1e96, 0.0),
        "NumericOverflowError": nan_at,
        "DegenerateMetricError": singular_at,
    }
    points = [stream[0], odd["ChartBoundaryError"], stream[1], odd["PoleError"],
              odd["ConvergenceError"], stream[2], nan_at, singular_at, stream[3]]

    # the state keeps its block's good points for the assembly to poison
    good = []

    def watched_state(config):
        field = verify.HITCHIN.state(config)

        def state(x):
            value, errors = field(x)
            good[:] = [tuple(p) for p, e in zip(x.tolist(), errors) if e is None]
            return value, errors

        return state

    def poisoned_jet_of(eta):
        value = verify.HITCHIN.jet_of(eta)
        val, hess = value.val.copy(), value.hess.copy()
        for lane, p in enumerate(good):
            if p == nan_at:
                hess[lane, 0, 1, 2, 3] = np.nan
            if p == singular_at:
                val[lane] = np.ones((4, 4))
        return tensorcalc.Jet(val, value.grad, hess)

    chart = replace(verify.HITCHIN, state=watched_state, jet_of=poisoned_jet_of)
    calls = []
    curvature_at = tensorcalc.curvature_at

    def counted(metric, x):
        calls.append(len(x))
        return curvature_at(metric, x)

    monkeypatch.setattr(tensorcalc, "curvature_at", counted)
    block = verify.ricci_samples(chart, cfg, points)
    monkeypatch.setattr(verify, "SAMPLE_BLOCK", 1)
    single = verify.ricci_samples(chart, cfg, points)
    assert calls == [len(points)] + [1] * len(points)
    expected = ["", "ChartBoundaryError", "", "PoleError", "ConvergenceError", "",
                "NumericOverflowError", "DegenerateMetricError", ""]
    assert [s.error for s in block] == [s.error for s in single] == expected
    records = [
        verify._scan_records("Ricci", "hitchin", ("ricci",), (verify.RICCI_TOL,), samples)[0]
        for samples in (block, single)
    ]
    assert records[0].skipped == records[1].skipped == {name: 1 for name in odd}
    assert records[0].count == records[1].count == 4
    assert_same_bundles(block, single)

    # the lift of base points, with one on the y = 0 locus below a center
    base = verify.GH.stream(cfg, SampleSpec(count=4, seed=7)).tolist()
    c = cfg.centers[0]
    base.insert(2, (0.5, c.b - 1.0, c.a.real, c.a.imag))
    assert_lanes_are_blocks_of_one(
        lambda x: hitchin.base_to_chart(cfg, x), np.array(base),
        ["", "", "ChartBoundaryError", "", ""],
    )
    # the height solve on lanes (Re z, Im z, |y|^2), with two stalled ones:
    # a huge target, and a height-0 puncture with a tiny one
    lanes = [(x[0], x[1], x[2] ** 2 + x[3] ** 2) for x in stream[:3]]
    lanes.insert(1, (-3.0, -3.0, 1e192))
    lanes.insert(3, (-a.real, a.imag, 1e-50))
    assert_lanes_are_blocks_of_one(
        lambda x: hitchin.solve_b(cfg, x[:, 0] + 1j * x[:, 1], x[:, 2]), np.array(lanes),
        ["", "ConvergenceError", "", "ConvergenceError", ""],
    )


def assert_lanes_are_blocks_of_one(field, x, expected):
    """field on the lanes x against each lane alone: the error types per
    lane are expected, in order, each the type of the lane's error alone,
    and each good lane's value is bitwise its value alone."""
    values, errors = field(x)
    assert [type(e).__name__ if e else "" for e in errors] == expected
    good = iter(values)
    for lane, err in zip(x, errors):
        one, (one_err,) = field(lane[None])
        assert type(one_err) is type(err)
        if err is None:
            assert np.asarray(one[0]).tobytes() == np.asarray(next(good)).tobytes()
        else:
            assert len(one) == 0
    assert next(good, None) is None


@pytest.mark.parametrize("source", ["gh", "hitchin"])
def test_scan_past_one_block_matches_single_lane_blocks(source, monkeypatch):
    # count = SAMPLE_BLOCK + 3 spans two blocks; no field evaluation sees
    # more points than one block holds, whatever the count
    lanes = []
    curvature_at, exterior_derivative = tensorcalc.curvature_at, tensorcalc.exterior_derivative

    def counted(metric, x):
        lanes.append(len(x))
        return curvature_at(metric, x)

    def counted_d(dw):
        lanes.append(len(dw))
        return exterior_derivative(dw)

    monkeypatch.setattr(tensorcalc, "curvature_at", counted)
    monkeypatch.setattr(tensorcalc, "exterior_derivative", counted_d)
    spec = SampleSpec(count=verify.SAMPLE_BLOCK + 3, seed=7)
    scans = []
    for block_size in (verify.SAMPLE_BLOCK, 1):
        monkeypatch.setattr(verify, "SAMPLE_BLOCK", block_size)
        ricci = verify.ricci_scan(source, pair_config(), spec)
        scans.append((ricci, verify.kahler_scan(source, pair_config(), spec)))
    blocked, single = scans
    assert lanes[:4] == [spec.count - 3, 3, spec.count - 3, 3]
    assert lanes[4:] == [1] * (2 * spec.count)
    assert_same_bundles(blocked[0].samples, single[0].samples)
    for a, b in zip([blocked[0], *blocked[1]], [single[0], *single[1]]):
        assert (a.name, a.passed, a.count, a.skipped) == (b.name, b.passed, b.count, b.skipped)
        assert abs(a.max_residual - b.max_residual) <= 1e-10 * max(b.max_residual, 1e-6)
    for a, b in zip(blocked[1][0].samples, single[1][0].samples):
        assert a.point == b.point and a.error == b.error
        assert np.allclose(a.residuals, b.residuals, rtol=1e-8, atol=1e-14)


def test_flat_cross_validation_payload_is_strict_json():
    rep = verify.full_report(flat_config(), checks=("cross",))
    assert rep.ratio_mean is not None and math.isnan(rep.ratio_mean)  # NaN kept
    payload = json.loads(json.dumps(rep.payload(), allow_nan=False))
    assert payload["cross_validation"] == {
        "mean": None,
        "spread": 0.0,
        "count": 0,
        "note": "flat configuration, skipped",
    }


def test_errored_check_payload_is_strict_json():
    rep = verify.full_report(make_akl_config(n=2, m=1, j_max=1), checks=("fits",))
    assert rep.checks[0].max_residual == float("inf")
    payload = json.loads(json.dumps(rep.payload(), allow_nan=False))
    assert payload["checks"][0]["max_residual"] is None
