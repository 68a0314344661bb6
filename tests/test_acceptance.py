"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Every test prints a single summary line with the measured numbers before
asserting, so a -v run reads as a checklist.  All sampling is seeded; the
whole file is deterministic.
"""

import json
import time

from gravinst import ghawking, hitchin, sampling, tensorcalc, verify
from gravinst.sampling import SampleSpec
from gravinst.singularities import (
    Center,
    CenterConfiguration,
    QuotientSignature,
    make_polygon_config,
)


def pair_unit():
    # vertices at a = +1 and a = -1 in one plane
    return make_polygon_config(QuotientSignature(1, 2, 1), [1.0 + 0j], [0.0])


def pair_generic():
    return make_polygon_config(QuotientSignature(1, 2, 1), [1.1 + 0.3j], [0.0])


def hexagon():
    return make_polygon_config(
        QuotientSignature(2, 3, 2), [1.0 + 0j, 1.4 + 0.3j], [0.0, 0.7]
    )


def taubnut():
    return make_polygon_config(
        QuotientSignature(1, 1, 0), [1.0 + 0j], [0.0], mode="alf"
    )


def flat():
    return make_polygon_config(QuotientSignature(1, 1, 0), [1.0 + 0j], [0.0])


def square4():
    return make_polygon_config(
        QuotientSignature(2, 2, 1), [1.0 + 0j, 1.6 + 0j], [0.0, 0.0]
    )


def two_level():
    return make_polygon_config(
        QuotientSignature(2, 2, 1), [1.0 + 0j, 1.3 + 0.2j], [0.0, 1.0]
    )


RICCI_CASES = [
    ("pair-unit", pair_unit, "ale"),
    ("pair-generic", pair_generic, "ale"),
    ("hexagon", hexagon, "ale"),
    ("taubnut", taubnut, "alf"),
]


def emit(label: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_flat_anchors():
    cfg = flat()
    spec = SampleSpec(count=20, seed=11)
    results = {}
    t0 = time.perf_counter()
    # one block per chart; a lane's error fails the criterion
    bundles = tensorcalc.every_lane(
        tensorcalc.curvature_at(verify.GH.jet(cfg), sampling.gh_points(cfg, spec))
    )
    worst = max(bun.riem_norm_sq for bun in bundles)
    results["gh"] = (worst, time.perf_counter() - t0)
    t0 = time.perf_counter()
    bundles = tensorcalc.every_lane(
        tensorcalc.curvature_at(verify.HITCHIN.jet(cfg), sampling.hitchin_points(cfg, spec))
    )
    worst = max(bun.riem_norm_sq for bun in bundles)
    results["hitchin"] = (worst, time.perf_counter() - t0)
    ok = all(w < 1e-8 and dt < 10.0 for w, dt in results.values())
    emit(
        "criterion 01 flat anchors",
        ok,
        "max |Rm|^2 "
        + " ".join(f"{k} {w:.2e} ({dt:.1f}s)" for k, (w, dt) in results.items())
        + " threshold 1e-8, 20 samples each",
    )


def test_criterion_02_ricci_flatness():
    spec = SampleSpec(count=100, seed=7)
    worst = 0.0
    details = []
    ok = True
    for name, build, mode in RICCI_CASES:
        cfg = build()
        t0 = time.perf_counter()
        for src in ["gh", "hitchin"] if mode == "ale" else ["gh"]:
            rec = verify.ricci_scan(src, cfg, spec)
            worst = max(worst, rec.max_residual)
            ok = ok and rec.max_residual < 5e-5 and rec.count == 100
        dt = time.perf_counter() - t0
        ok = ok and dt < 300.0
        details.append(f"{name} ({dt:.1f}s)")
    emit(
        "criterion 02 ricci flatness",
        ok,
        f"worst |Ric|/max(|Rm|,1) {worst:.2e} < 5e-5 over 100 samples; "
        + ", ".join(details),
    )


def test_criterion_03_kahler_triple():
    spec = SampleSpec(count=100, seed=7)
    worst = {"kahler-domega": 0.0, "kahler-nijenhuis": 0.0, "kahler-compat": 0.0}
    ok = True
    for name, build, mode in RICCI_CASES:
        cfg = build()
        for src in ["gh", "hitchin"] if mode == "ale" else ["gh"]:
            for rec in verify.kahler_scan(src, cfg, spec):
                key = rec.name.rsplit("-", 1)[0]
                worst[key] = max(worst[key], rec.max_residual)
    ok = (
        worst["kahler-domega"] < 1e-6
        and worst["kahler-nijenhuis"] < 1e-6
        and worst["kahler-compat"] < 1e-10
    )
    emit(
        "criterion 03 kahler triple",
        ok,
        f"domega {worst['kahler-domega']:.2e} < 1e-6, "
        f"nijenhuis {worst['kahler-nijenhuis']:.2e} < 1e-6, "
        f"compat {worst['kahler-compat']:.2e} < 1e-10",
    )


def test_criterion_04_cyclic_invariance():
    spec = SampleSpec(count=30, seed=3)
    worst_sym = 0.0
    worst_pert = float("inf")
    for build in (pair_unit, hexagon):
        cfg = build()
        pert = verify.perturb_config(cfg, eps=0.01)
        for src in ("gh", "hitchin"):
            rec = verify.invariance_scan(src, cfg, spec=spec)
            worst_sym = max(worst_sym, rec.max_residual)
            rec = verify.invariance_scan(src, pert, spec=spec)
            worst_pert = min(worst_pert, rec.max_residual)
    ok = worst_sym < 1e-9 and worst_pert > 1e-3
    emit(
        "criterion 04 cyclic invariance",
        ok,
        f"symmetric residual {worst_sym:.2e} < 1e-9; "
        f"perturbed (0.01) residual {worst_pert:.2e} > 1e-3",
    )


def test_criterion_05_curvature_decay():
    fit = hitchin.ale_curvature_decay(pair_unit())
    ok = -12.5 < fit.slope < -11.5
    emit(
        "criterion 05 curvature decay",
        ok,
        f"log-log slope of |Rm|^2 over r in [10, 100]: {fit.slope:.4f} "
        f"in [-12.5, -11.5], rms {fit.rms_residual:.1e}",
    )


def test_criterion_06_volume_growth():
    fit_ale = ghawking.volume_growth_fit(pair_unit(), mode="ale")
    fit_alf = ghawking.volume_growth_fit(taubnut(), mode="alf")
    ok = 3.9 < fit_ale.slope < 4.1 and 2.9 < fit_alf.slope < 3.1
    emit(
        "criterion 06 volume growth",
        ok,
        f"ale exponent {fit_ale.slope:.4f} in [3.9, 4.1]; "
        f"alf exponent {fit_alf.slope:.4f} in [2.9, 3.1]; "
        "geodesic radii span one decade",
    )


def test_criterion_07_cross_construction():
    results = []
    ok = True
    for name, build in (("k=2", pair_unit), ("k=4", square4)):
        rec = verify.cross_validate(build(), SampleSpec(count=12, seed=5))
        mean = rec.body["cross_validation"]["mean"]
        ok = ok and rec.passed and rec.count >= 10 and rec.max_residual < 1e-3
        results.append(f"{name} ratio {mean:.6f} spread {rec.max_residual:.1e} n={rec.count}")
    emit(
        "criterion 07 cross-construction ratio",
        ok,
        "; ".join(results) + "; spread < 1e-3 over >= 10 matched points",
    )


def test_criterion_08_periods():
    rec = verify.period_check(two_level())
    ok = rec.passed and rec.max_residual < 1e-3 and rec.count >= 2
    emit(
        "criterion 08 period proportionality",
        ok,
        f"fit residual {rec.max_residual:.2e} < 1e-3 over {rec.count} pairs; {rec.note}",
    )


def test_criterion_09_implicit_solver():
    rec = verify.solver_scan(square4(), count=10000, seed=1)
    origin = CenterConfiguration(
        centers=(Center(0.0, 0j),), signature=QuotientSignature(1, 1, 0)
    )
    coplanar = CenterConfiguration(
        centers=(Center(0.0, 1.0 + 0j), Center(0.0, -1.0 + 0j)),
        signature=QuotientSignature(1, 2, 1),
    )
    # closed forms; agreement at machine precision (the solver works in
    # doubles, so one ulp of slack is the honest target)
    b_origin = tensorcalc.every_lane(hitchin.solve_b(origin, [0j, 1.0 + 0j], 1.0))
    b_coplanar = tensorcalc.every_lane(hitchin.solve_b(coplanar, [0j], 1.0))
    diffs = [abs(b_origin[0] - 0.5), abs(b_origin[1] - 0.0), abs(b_coplanar[0] - 0.0)]
    ok = rec.passed and rec.max_residual < 1e-12 and max(diffs) <= 1e-15
    emit(
        "criterion 09 implicit solver",
        ok,
        f"back-substitution {rec.max_residual:.2e} < 1e-12 over {rec.count} inputs; "
        f"closed-form deviations {[f'{d:.1e}' for d in diffs]} <= 1e-15",
    )


def test_criterion_10_akl_convergence():
    rec = verify.akl_convergence_check(n=2, m=1, j_values=range(10, 26))
    ok = rec.passed and rec.max_residual < 1.0
    emit(
        "criterion 10 truncation convergence",
        ok,
        f"tail/comparison-series ratio below 1 by {1.0 - rec.max_residual:.1e}, "
        f"increments monotone over J in [10, 25]",
    )


def test_criterion_11_determinism():
    spec = SampleSpec(count=10, seed=42)
    blobs = []
    for _ in range(2):
        rep = verify.full_report(pair_unit(), spec=spec)
        blobs.append(json.dumps(rep.payload(), sort_keys=True).encode())
    ok = blobs[0] == blobs[1]
    emit(
        "criterion 11 determinism",
        ok,
        f"two seeded runs, byte-identical reports: {ok} "
        f"({len(blobs[0])} bytes, timing excluded)",
    )
