"""Verification harness for the two metric constructions.

Each scan samples a deterministic point stream, evaluates a residual
that vanishes for the true geometry (Ricci, exterior derivative of the
Kahler form, Nijenhuis tensor, pullback under the cyclic action), and
reports the worst case against a tolerance.  Cross-validation compares
the curvature of the two constructions at matched base points, where
agreement up to a global homothety forces a constant |Rm|^2 ratio.

What differs between the two constructions is held in one table of
:class:`Construction` records; the scans themselves never branch on the
chart.

A report evaluates each chart once per sample point.  full_report gives
each applicable chart one :class:`ChartEvaluation`: the chart's sample
stream, drawn once, and the chart's state (the field jets of one
evaluation) at each SAMPLE_BLOCK block of it, evaluated once.  The
Ricci scan assembles its metric jet and the Kahler scan its (g, omega,
J) from that state, and the invariance scan takes the same stream.
Cross-validation lifts its base points to the complex chart a block at
a time (hitchin.base_to_chart), takes its curvature from the report's
Ricci samples wherever a matched point is one of them, and evaluates
only the rest.  Called alone, each scan makes its own evaluation.

Every scan evaluates a block of samples as a field: the records of the
usable samples in order, and per sample None or the GeometryError that
makes it unusable.  tensorcalc.lane_results joins the two into the
scan's per-sample records.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from gravinst import ghawking, hitchin, sampling, tensorcalc
from gravinst.errors import FitDomainError, GeometryError, ScanError
from gravinst.fitting import FitResult, fit_proportional
from gravinst.sampling import SampleSpec
from gravinst.singularities import (
    Center,
    CenterConfiguration,
    QuotientSignature,
    make_akl_config,
)
from gravinst.tensorcalc import Coords, Field

RICCI_TOL = 5e-5
DOMEGA_TOL = 1e-6
NIJENHUIS_TOL = 1e-6
COMPAT_TOL = 1e-10
INVARIANCE_TOL = 1e-9
SPREAD_TOL = 1e-3
PERIOD_TOL = 1e-3
SOLVER_TOL = 1e-12
# inputs per solve_b call of the solver scan, so its memory does not grow
# with the input count (a traced peak of about 1 MB, against 4 MB for
# one 10^4-lane call)
SOLVER_BLOCK = 2048
# chart points per field evaluation of a sample scan, for the same reason
SAMPLE_BLOCK = 64
CURVATURE_FLOOR = 1e-10
# matched base points of the cross-construction ratio
CROSS_COUNT = 12
# asymptotic fit bands: target slope and half-width
DECAY_TARGET = -12.0
DECAY_TOL = 0.5
VOLUME_TARGETS = {"ale": 4.0, "alf": 3.0}
VOLUME_TOL = 0.1


def in_band(slope: float, target: float, tol: float) -> bool:
    """Whether a fitted slope lies inside its pass band target +- tol."""
    return abs(slope - target) < tol


def _finite(value: float) -> float | None:
    """Report value: non-finite floats become null in strict JSON."""
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class ChartPoint:
    """A point of a 4-dimensional coordinate chart where it crosses a
    boundary: a scan sample or user input.

    coords holds the four real coordinates; chart_id is the name of the
    construction whose chart they belong to, so that points of the two
    charts cannot be mixed up silently.
    """

    coords: Coords
    chart_id: str

    def __post_init__(self):
        if len(self.coords) != 4:
            raise ValueError("chart points are four-dimensional")
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))
        if not all(math.isfinite(c) for c in self.coords):
            raise ValueError("chart point coordinates must be finite")


@dataclass(frozen=True)
class SampleRecord:
    """One scan sample: its chart point and residuals, or the type name of
    the GeometryError that made it unusable.  Ricci samples keep their
    curvature bundle for the per-sample CSV rows."""

    point: ChartPoint
    residuals: tuple[float, ...] = ()
    error: str = ""
    curvature: tensorcalc.CurvatureBundle | None = None


@dataclass(frozen=True)
class CheckRecord:
    """One verification check: worst residual against its tolerance.

    skipped counts the unusable samples of a scan by error type; samples
    holds the scan's per-sample records, which never enter the payload.
    """

    name: str
    max_residual: float
    tolerance: float
    passed: bool
    count: int = 0
    note: str = ""
    skipped: dict = field(default_factory=dict)
    samples: tuple[SampleRecord, ...] = field(default=(), repr=False, compare=False)

    def payload(self) -> dict:
        out = {
            "name": self.name,
            "max_residual": _finite(self.max_residual),
            "tolerance": _finite(self.tolerance),
            "pass": self.passed,
            "count": self.count,
        }
        if self.note:
            out["note"] = self.note
        if self.skipped:
            out["skipped"] = dict(self.skipped)
        return out


@dataclass(frozen=True)
class RatioStats:
    """Cross-construction |Rm|^2 ratio summary."""

    mean: float
    spread: float
    count: int
    note: str = ""

    def payload(self) -> dict:
        out = {
            "mean": _finite(self.mean),
            "spread": _finite(self.spread),
            "count": self.count,
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class VerificationReport:
    config_payload: dict
    seed: int
    checks: list[CheckRecord] = field(default_factory=list)
    fits: dict = field(default_factory=dict)
    ratio: RatioStats | None = None
    timing: dict = field(default_factory=dict)
    # Ricci-scan sample records per construction; like timing, never in
    # the payload
    samples: dict[str, tuple[SampleRecord, ...]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def payload(self) -> dict:
        """Deterministic report body; timing deliberately excluded."""
        out = {
            "config": self.config_payload,
            "mode": self.config_payload["mode"],
            "seed": self.seed,
            "checks": [c.payload() for c in self.checks],
            "fits": self.fits,
            "pass": self.passed,
        }
        if self.ratio is not None:
            out["cross_validation"] = self.ratio.payload()
        return out


def assembled(field: Field, assemble: Callable) -> Field:
    """The field assemble(value) of a field's value over the good lanes of
    each block, with the field's per-lane errors."""

    def at(x):
        value, errors = field(x)
        return (assemble(value) if value is not None else None), errors

    return at


@dataclass(frozen=True)
class Construction:
    """Everything a scan needs to know about one chart.

    The configuration alone fixes the metric: an entry serves the modes
    in modes, and applies(config) is the one rule for whether it carries
    config's metric.  Every field takes a block of points, an (N, 4)
    array, and gives its value over the good lanes with a typed error per
    lane (see tensorcalc).  metric(config) gives the metric's values, the
    cheap field the invariance scan compares.

    The scans' fields are split into the chart's state and what is
    assembled from it.  state(config), evaluated once per block, gives the
    chart's jets of one evaluation.  From that value jet_of(value) gives
    the metric as an exact jet over the good lanes, the evaluation
    tensorcalc.curvature_at takes, and kahler_of(value) gives (g, omega,
    J): g as a float array, omega as a jet, J as a jet or, where the
    chart's complex structure has constant components (so its Nijenhuis
    tensor vanishes identically), a constant array.  Both charts hold the
    state over a leading lane axis, the good lanes in order, and assemble
    each block in one call of jet_of and of kahler_of.  jet(config) is
    jet_of of the state as one field.

    stream(config, spec) gives the coordinates of the sample stream;
    action(signature) gives the cyclic generator as the affine map
    x -> M x + shift, as (M, shift); user_coords completes and checks
    user-given coordinates.  Entries call into their modules at call
    time, so module attributes stay the one binding of each function.
    """

    name: str
    modes: tuple[str, ...]
    stream: Callable[[CenterConfiguration, SampleSpec], list[Coords]]
    metric: Callable[[CenterConfiguration], Field]
    state: Callable[[CenterConfiguration], Field]
    jet_of: Callable[[object], tensorcalc.Jet]
    kahler_of: Callable[[object], tuple]
    action: Callable[[QuotientSignature], tuple[np.ndarray, np.ndarray]]
    user_coords: Callable[[Sequence[float]], Sequence[float]]

    def applies(self, config: CenterConfiguration) -> bool:
        """Whether this chart carries config's metric."""
        return config.mode in self.modes

    def require(self, config: CenterConfiguration) -> Construction:
        """This entry, or ValueError when it does not apply to config."""
        if not self.applies(config):
            raise ValueError(
                f"the {self.name} construction applies to"
                f" {'/'.join(self.modes)} configurations, not {config.mode}"
            )
        return self

    def jet(self, config: CenterConfiguration) -> Field:
        """The metric jet as a field: jet_of of the state on each block."""
        return assembled(self.state(config), self.jet_of)

    def points(self, config: CenterConfiguration, spec: SampleSpec) -> list[ChartPoint]:
        """The sample stream, tagged with this chart."""
        return [ChartPoint(x, self.name) for x in self.stream(config, spec)]

    def from_coords(self, vals: Sequence[float]) -> ChartPoint:
        """A chart point from user-given coordinates."""
        return ChartPoint(self.user_coords(vals), self.name)


GH = Construction(
    name="gh",
    modes=("ale", "alf", "akl"),
    stream=lambda config, spec: sampling.gh_points(config, spec),
    metric=lambda config: lambda x: ghawking.metric_at(config, x),
    state=lambda config: tensorcalc.each_lane(lambda x: ghawking.potential_jets(config, x)),
    jet_of=lambda jets: ghawking.metric_of(jets),
    kahler_of=lambda jets: ghawking.kahler_of(jets),
    action=lambda signature: ghawking.action(signature),
    user_coords=lambda vals: ghawking.user_coords(vals),
)

HITCHIN = Construction(
    name="hitchin",
    modes=("ale",),
    stream=lambda config, spec: sampling.hitchin_points(config, spec),
    metric=lambda config: lambda x: hitchin.metric_at(config, x),
    state=lambda config: lambda x: hitchin.eta_jets(config, x),
    jet_of=lambda eta: hitchin.metric_of(eta),
    kahler_of=lambda eta: hitchin.kahler_of(eta),
    action=lambda signature: hitchin.action(signature),
    user_coords=lambda vals: hitchin.user_coords(vals),
)

CONSTRUCTIONS = (GH, HITCHIN)


def construction(name: str) -> Construction:
    """The table entry called name; ValueError for an unknown one."""
    for c in CONSTRUCTIONS:
        if c.name == name:
            return c
    raise ValueError(
        f"metric_source must be one of {tuple(c.name for c in CONSTRUCTIONS)}"
    )


class ChartEvaluation:
    """One chart's share of one report: its sample stream, drawn when a
    scan first asks for it, and the chart's state (Construction.state) on
    each block, evaluated when a scan first needs that block and looked
    up by the block's exact coordinates after that.  A GeometryError that
    ends either (an unsatisfiable SampleSpec ends the draw) is kept and
    raised again to every scan that asks."""

    def __init__(self, chart: Construction, config: CenterConfiguration, spec: SampleSpec):
        self.chart = chart.require(config)
        self.config = config
        self.spec = spec
        # the stream under None, each block's state under its coordinates'
        # bytes: a value or the GeometryError its evaluation raised
        self._done: dict = {}

    def _once(self, key, evaluate: Callable):
        """evaluate() on the first call for key, its result after that."""
        if key not in self._done:
            try:
                self._done[key] = evaluate()
            except GeometryError as exc:
                self._done[key] = exc
        if isinstance(self._done[key], GeometryError):
            raise self._done[key]
        return self._done[key]

    def points(self) -> list[ChartPoint]:
        """The chart's sample stream."""
        return self._once(None, lambda: self.chart.points(self.config, self.spec))

    def field(self, assemble: Callable) -> Field:
        """The field assemble(state) over the good lanes of each block, the
        state evaluated once per block."""
        state = self.chart.state(self.config)
        return assembled(lambda x: self._once(x.tobytes(), lambda: state(x)), assemble)


def _evaluation(
    metric_source: str,
    config: CenterConfiguration,
    spec: SampleSpec | None,
    evaluation: ChartEvaluation | None,
) -> ChartEvaluation:
    """The report's evaluation of the chart called metric_source, or a new
    one on spec for a scan called alone."""
    c = construction(metric_source).require(config)
    if evaluation is None:
        return ChartEvaluation(c, config, spec or SampleSpec())
    if evaluation.chart.name != c.name or evaluation.config is not config:
        raise ValueError(f"the evaluation is not the {c.name} chart's on this configuration")
    return evaluation


def _sample(
    points: Sequence[ChartPoint], evaluate: Callable[[Sequence[ChartPoint]], tuple]
) -> tuple[SampleRecord, ...]:
    """evaluate on blocks of at most SAMPLE_BLOCK points, as a field: the
    SampleRecords of the block's good points in order, and per point None
    or the GeometryError that made it unusable, which marks the sample
    with its type instead of ending the scan.  A GeometryError raised for
    the block marks each of its points."""
    out = []
    for start in range(0, len(points), SAMPLE_BLOCK):
        block = points[start : start + SAMPLE_BLOCK]
        try:
            records, errors = evaluate(block)
        except GeometryError as exc:
            records, errors = (), [exc] * len(block)
        marks = [e and SampleRecord(cp, error=type(e).__name__) for cp, e in zip(block, errors)]
        out.extend(tensorcalc.lane_results(marks, records))
    return tuple(out)


def _good(block: Sequence[ChartPoint], errors: Sequence) -> list[ChartPoint]:
    """The points of the block whose lane has no error, in order."""
    return [cp for cp, e in zip(block, errors) if e is None]


def _coords(block: Sequence[ChartPoint]) -> np.ndarray:
    """The block's chart coordinates as an (N, 4) array."""
    return np.array([cp.coords for cp in block])


def _skip_counts(samples: Sequence[SampleRecord]) -> dict:
    return dict(sorted(Counter(s.error for s in samples if s.error).items()))


def _scan_records(
    label: str,
    source: str,
    kinds: Sequence[str],
    tolerances: Sequence[float],
    samples: tuple[SampleRecord, ...],
) -> list[CheckRecord]:
    """One CheckRecord per residual kind: worst residual over the usable
    samples, their count and the skips by error type.  ScanError (holding
    the samples) when no sample is usable."""
    used = [s for s in samples if not s.error]
    if not used:
        raise ScanError(f"every {label} sample evaluation failed", samples)
    skipped = _skip_counts(samples)
    records = []
    for i, (kind, tol) in enumerate(zip(kinds, tolerances)):
        worst = 0.0
        for s in used:
            worst = max(worst, s.residuals[i])
        records.append(
            CheckRecord(
                name=f"{kind}-{source}",
                max_residual=worst,
                tolerance=tol,
                passed=worst < tol,
                count=len(used),
                skipped=skipped,
                samples=samples,
            )
        )
    return records


def ricci_samples(
    c: Construction,
    config: CenterConfiguration,
    points: Sequence[ChartPoint],
    evaluation: ChartEvaluation | None = None,
) -> tuple[SampleRecord, ...]:
    """Curvature at each chart point, with residual |Ric| / max(|Rm|, 1).

    The denominator keeps the residual meaningful in nearly flat regions,
    where absolute Ricci tends to zero no matter what.  The metric jets
    come from c.jet, or are assembled from the state of evaluation, a
    ChartEvaluation of c on config.
    """
    c.require(config)
    for cp in points:
        if cp.chart_id != c.name:
            raise ValueError(f"expected {c.name} chart points, got {cp.chart_id!r}")
    if evaluation is None:
        metric = c.jet(config)
    else:
        metric = evaluation.field(c.jet_of)

    def record(cp: ChartPoint, bundle: tensorcalc.CurvatureBundle) -> SampleRecord:
        residual = bundle.ricci_norm / max(math.sqrt(bundle.riem_norm_sq), 1.0)
        return SampleRecord(cp, (residual,), curvature=bundle)

    def evaluate(block: Sequence[ChartPoint]) -> tuple:
        bundles, errors = tensorcalc.curvature_at(metric, _coords(block))
        return [record(cp, b) for cp, b in zip(_good(block, errors), bundles or ())], errors

    return _sample(points, evaluate)


def ricci_scan(
    metric_source: str,
    config: CenterConfiguration,
    spec: SampleSpec | None = None,
    evaluation: ChartEvaluation | None = None,
) -> CheckRecord:
    """Worst |Ric| / max(|Rm|, 1) over the sample stream: the stream of
    spec, or of evaluation, the report's ChartEvaluation of this chart,
    whose state the metric jets are assembled from."""
    ev = _evaluation(metric_source, config, spec, evaluation)
    samples = ricci_samples(ev.chart, config, ev.points(), ev)
    return _scan_records("Ricci", ev.chart.name, ("ricci",), (RICCI_TOL,), samples)[0]


def kahler_scan(
    metric_source: str,
    config: CenterConfiguration,
    spec: SampleSpec | None = None,
    evaluation: ChartEvaluation | None = None,
) -> list[CheckRecord]:
    """Closedness, integrability and compatibility of the Kahler triple.

    Returns three records: the exterior derivative of omega, the
    Nijenhuis tensor of J (both relative to the largest local omega / J
    entry scale), and the algebraic residual omega - J^T g.  Where J has
    constant components (the chart gives a plain array, not a jet) the
    Nijenhuis tensor is 0 by construction; it is recorded as such, with a
    note, and not differentiated.  The samples are those of ricci_scan:
    the stream of spec or of evaluation, and (g, omega, J) assembled from
    the same state.
    """
    ev = _evaluation(metric_source, config, spec, evaluation)
    c = ev.chart
    points = ev.points()
    kahler_at = ev.field(c.kahler_of)
    constant_j = []

    def residuals(g: np.ndarray, omega: tensorcalc.Jet, J) -> np.ndarray:
        """The three residuals of each lane, one row per lane."""
        constant_j.append(not isinstance(J, tensorcalc.Jet))
        nij = np.zeros(len(g))
        if not constant_j[-1]:
            nij = np.max(np.abs(tensorcalc.nijenhuis_at(J.val, J.partials()[0])), axis=(1, 2, 3))
            J = J.val
        w = omega.val
        dw = tensorcalc.exterior_derivative(omega.partials()[0])
        wscale = np.maximum(1.0, np.max(np.abs(w), axis=(1, 2)))
        compat = np.max(np.abs(w - np.swapaxes(J, -1, -2) @ g), axis=(1, 2))
        return np.column_stack([np.max(np.abs(dw), axis=1) / wscale, nij, compat / wscale])

    def evaluate(block: Sequence[ChartPoint]) -> tuple:
        fields, errors = kahler_at(_coords(block))
        rows = residuals(*fields).tolist() if fields else ()
        return [SampleRecord(cp, tuple(r)) for cp, r in zip(_good(block, errors), rows)], errors

    records = _scan_records(
        "Kahler",
        c.name,
        ("kahler-domega", "kahler-nijenhuis", "kahler-compat"),
        (DOMEGA_TOL, NIJENHUIS_TOL, COMPAT_TOL),
        _sample(points, evaluate),
    )
    if all(constant_j):
        records[1] = replace(records[1], note="J0 is constant in this chart")
    return records


def invariance_scan(
    metric_source: str,
    config: CenterConfiguration,
    spec: SampleSpec | None = None,
    evaluation: ChartEvaluation | None = None,
) -> CheckRecord:
    """Sup over samples of the metric pullback residual under the cyclic
    generator.  Symmetric configurations pass; a perturbed configuration
    is expected to fail (that is the negative control).  The samples are
    the stream of spec or of evaluation.  Each block of samples makes one
    call of the chart's metric field, on its points stacked over their
    images; a sample's error is its point's, or else its image's."""
    ev = _evaluation(metric_source, config, spec, evaluation)
    c = ev.chart
    if config.signature.n < 2:
        raise ValueError("the cyclic action is trivial for n = 1")
    M, shift = c.action(config.signature)
    metric = c.metric(config)

    def evaluate(block: Sequence[ChartPoint]) -> tuple:
        x = _coords(block)
        n = len(x)
        g, errors = metric(np.concatenate([x, x @ M.T + shift]))
        lanes = np.zeros((2 * n, 4, 4))
        if g is not None:
            lanes[[e is None for e in errors]] = g
        here, there = lanes[:n], lanes[n:]
        res = np.max(np.abs(M.T @ there @ M - here), axis=(1, 2))
        res /= np.maximum(1.0, np.max(np.abs(here), axis=(1, 2)))
        # a sample's error is its point's, or else its image's
        errors = [e or image for e, image in zip(errors[:n], errors[n:])]
        return [
            SampleRecord(cp, (float(r),)) for cp, r, e in zip(block, res, errors) if e is None
        ], errors

    samples = _sample(ev.points(), evaluate)
    return _scan_records("invariance", c.name, ("invariance",), (INVARIANCE_TOL,), samples)[0]


def cross_validate(
    config: CenterConfiguration,
    spec: SampleSpec | None = None,
    known: Mapping[str, Sequence[SampleRecord]] | None = None,
) -> tuple[RatioStats, CheckRecord]:
    """Pointwise |Rm|^2 ratio between the two constructions at matched
    base points.

    If the metrics agree up to a global homothety g -> c g the ratio is
    the constant c^-2 everywhere; the spread is asserted, the constant is
    recorded, never asserted.  Base points where the curvature sits below
    the noise floor are skipped (flat regions carry no information).
    known maps a chart's name to Ricci samples of its metric (a report's
    samples); a matched point with the exact coordinates of one of them
    takes its curvature bundle, and only the other points are evaluated.
    ValueError unless both constructions apply to config.
    """
    for c in (GH, HITCHIN):
        c.require(config)
    spec = spec or SampleSpec(count=CROSS_COUNT)
    if config.k < 2:
        stats = RatioStats(
            mean=float("nan"), spread=0.0, count=0, note="flat configuration, skipped"
        )
        record = CheckRecord(
            name="cross-validation",
            max_residual=0.0,
            tolerance=SPREAD_TOL,
            passed=True,
            count=0,
            note=stats.note,
        )
        return stats, record
    found = {
        (name, s.point.coords): s.curvature.riem_norm_sq
        for name, samples in (known or {}).items()
        for s in samples
        if s.curvature is not None
    }

    def riem_norm_sq(c: Construction, x: np.ndarray) -> tuple:
        """|Rm|^2 of c at each row of the block x, NaN where the row has an
        error, and the per-row errors: a row found in known takes its
        value, and the other rows are evaluated in one call."""
        rm = np.array([found.get((c.name, p), np.nan) for p in map(tuple, x.tolist())])
        errors: list = [None] * len(x)
        missing = np.flatnonzero(np.isnan(rm))
        if missing.size:
            bundles, fresh = tensorcalc.curvature_at(c.jet(config), x[missing])
            for n, err in zip(missing, fresh):
                errors[n] = err
            rm[missing[[e is None for e in fresh]]] = [b.riem_norm_sq for b in bundles or ()]
        return rm, errors

    def ratio(cp: ChartPoint, rm_hit: float, rm_gh: float) -> SampleRecord:
        if rm_gh < CURVATURE_FLOOR or rm_hit < CURVATURE_FLOOR * CURVATURE_FLOOR:
            return SampleRecord(cp, error="below curvature floor")
        return SampleRecord(cp, (rm_hit / rm_gh,))

    def evaluate(block: Sequence[ChartPoint]) -> tuple:
        x = _coords(block)
        lifted, errors = hitchin.base_to_chart(config, x)
        rm_hit = np.full(len(x), np.nan)
        if lifted is not None:
            rm_hit[[e is None for e in errors]], hit_errors = riem_norm_sq(HITCHIN, lifted)
            errors = tensorcalc.lane_results(errors, hit_errors)
        rm_gh, gh_errors = riem_norm_sq(GH, x)
        # the complex chart's error first, as in the order of evaluation
        errors = [e or g for e, g in zip(errors, gh_errors)]
        good = [e is None for e in errors]
        pairs = zip(_good(block, errors), rm_hit[good].tolist(), rm_gh[good].tolist())
        return [ratio(cp, h, g) for cp, h, g in pairs], errors

    samples = _sample(GH.points(config, spec), evaluate)
    ratios = [s.residuals[0] for s in samples if not s.error]
    if len(ratios) < 8:
        raise ScanError("fewer than 8 usable cross-validation samples", samples)
    arr = np.asarray(ratios)
    mean = float(np.mean(arr))
    spread = float((np.max(arr) - np.min(arr)) / abs(mean))
    stats = RatioStats(mean=mean, spread=spread, count=len(ratios))
    record = CheckRecord(
        name="cross-validation",
        max_residual=spread,
        tolerance=SPREAD_TOL,
        passed=spread < SPREAD_TOL,
        count=len(ratios),
        skipped=_skip_counts(samples),
        samples=samples,
    )
    return stats, record


def period_check(config: CenterConfiguration) -> CheckRecord:
    """Fit cycle_period(i, j) = C (b_j - b_i) over the vertically separated
    pairs i < j; record the constant, assert only the proportionality.
    cycle_period is the closed form -2 pi (b_j - b_i), so C = -2 pi is an
    identity, and the note says so.  The pairs are the lanes of one
    cycle_period call, in row-major order; a blocked pair is left out."""
    b = np.array([c.b for c in config.centers])
    i, j = np.triu_indices(config.k, 1)
    periods, errors = ghawking.cycle_period(config, i, j)
    periods = np.empty(0) if periods is None else periods
    clear = np.array([e is None for e in errors], dtype=bool)
    db = b[j] - b[i]
    vertical = np.abs(db) > 1e-9 * max(1.0, config.extent())
    if not vertical.any():
        # coplanar configuration: every period must vanish outright
        worst = float(np.max(np.abs(periods), initial=0.0))
        return CheckRecord(
            name="periods",
            max_residual=worst,
            tolerance=1e-8,
            passed=worst < 1e-8,
            count=int(clear.sum()),
            note="coplanar centers, proportionality vacuous; C = 0",
        )
    dbs, periods = db[clear & vertical].tolist(), periods[vertical[clear]].tolist()
    if not dbs:
        raise ScanError("every vertically separated segment was blocked")
    if len(dbs) == 1:
        c = periods[0] / dbs[0]
        return CheckRecord(
            name="periods",
            max_residual=0.0,
            tolerance=PERIOD_TOL,
            passed=True,
            count=1,
            note=f"single pair defines C = {c:.9g}",
        )
    c, residual = fit_proportional(dbs, periods)
    return CheckRecord(
        name="periods",
        max_residual=residual,
        tolerance=PERIOD_TOL,
        passed=residual < PERIOD_TOL,
        count=len(dbs),
        note=f"C = {c:.9g}, the closed form -2 pi (b_j - b_i)",
    )


def fit_parts(config: CenterConfiguration) -> tuple[str, ...]:
    """The asymptotic fits that apply to config: "decay" where the complex
    chart carries its ALE end, "volume" where VOLUME_TARGETS has a band.
    FitDomainError when none does."""
    parts = ("decay",) if HITCHIN.applies(config) else ()
    if config.mode in VOLUME_TARGETS:
        parts += ("volume",)
    if not parts:
        raise FitDomainError(f"no asymptotic fit applies to {config.mode} configurations")
    return parts


def decay_and_volume(
    config: CenterConfiguration, which: Sequence[str] | None = None
) -> tuple[dict, list[CheckRecord]]:
    """Asymptotic fits with their pass bands: curvature slope DECAY_TARGET
    +- DECAY_TOL for ale (a flat end, |Rm|^2 below CURVATURE_FLOOR, for a
    single center), volume slope VOLUME_TARGETS[config.mode] +- VOLUME_TOL
    for ale and alf.  which selects the "decay" and "volume" parts, by
    default every part of fit_parts(config); a part that does not apply
    raises FitDomainError."""
    parts = fit_parts(config)
    which = parts if which is None else which
    for part in which:
        if part not in parts:
            raise FitDomainError(
                f"the {part} fit does not apply to {config.mode} configurations"
            )
    fits: dict = {}
    records: list[CheckRecord] = []
    decay = "decay" in which
    if decay and config.k == 1:
        # one center: the metric is flat, and a slope would fit the noise
        _, values = hitchin.ale_curvature_samples(config)
        worst = max(max(vals) for vals in values)
        records.append(
            CheckRecord(
                name="curvature-decay-flat",
                max_residual=worst,
                tolerance=CURVATURE_FLOOR,
                passed=worst < CURVATURE_FLOOR,
                count=sum(len(vals) for vals in values),
                note="single center: |Rm|^2 on the ALE end below the curvature floor",
            )
        )
    elif decay:
        fit = hitchin.ale_curvature_decay(config)
        fits["curvature_decay"] = _fit_payload(fit)
        records.append(
            CheckRecord(
                name="curvature-decay-slope",
                max_residual=abs(fit.slope - DECAY_TARGET),
                tolerance=DECAY_TOL,
                passed=in_band(fit.slope, DECAY_TARGET, DECAY_TOL),
                count=fit.point_count,
                note=f"slope = {fit.slope:.6g}",
            )
        )
    if "volume" not in which:
        return fits, records
    target = VOLUME_TARGETS[config.mode]
    vol = ghawking.volume_growth_fit(config)
    fits["volume_growth"] = _fit_payload(vol)
    records.append(
        CheckRecord(
            name="volume-growth-slope",
            max_residual=abs(vol.slope - target),
            tolerance=VOLUME_TOL,
            passed=in_band(vol.slope, target, VOLUME_TOL),
            count=vol.point_count,
            note=f"slope = {vol.slope:.6g}, target {target:g}",
        )
    )
    return fits, records


def _fit_payload(fit: FitResult) -> dict:
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "rms_residual": fit.rms_residual,
        "point_count": fit.point_count,
    }


def solver_scan(
    config: CenterConfiguration, count: int = 10000, seed: int = 0
) -> CheckRecord:
    """Back-substitution residual of the implicit height solver over a
    deterministic stream of chart inputs, drawn, solved and substituted
    back SOLVER_BLOCK lanes at a time."""
    sampling.require_count_and_seed(count, seed)
    worst = 0.0
    start = 1 + seed % (2**31)
    scale = max(1.0, config.extent())
    for first in range(start, start + count, SOLVER_BLOCK):
        idx = np.arange(first, min(first + SOLVER_BLOCK, start + count))
        u = [sampling.halton(idx, b) for b in (2, 3, 5)]
        z = (2.0 * u[0] - 1.0) * 8.0 * scale + 1j * ((2.0 * u[1] - 1.0) * 8.0 * scale)
        # log-uniform |y|^2 over several decades, with Python's pow (numpy's
        # may differ in the last bit)
        y_abs_sq = np.array([10.0**e for e in (-3.0 + 7.0 * u[2]).tolist()]) * scale
        roots = tensorcalc.every_lane(hitchin.solve_b(config, z, y_abs_sq))
        lhs = hitchin.implicit_lhs(config, z, roots)
        worst = max(worst, float(np.max(np.abs(lhs - y_abs_sq) / y_abs_sq)))
    return CheckRecord(
        name="implicit-solver",
        max_residual=worst,
        tolerance=SOLVER_TOL,
        passed=worst < SOLVER_TOL,
        count=count,
    )


def akl_convergence_check(
    n: int = 2,
    m: int = 1,
    j_values: Sequence[int] = tuple(range(10, 26)),
) -> CheckRecord:
    """Cauchy behavior of the truncated infinite-family potential.

    V_J at the test point (b, a) = (0.5, 0) increases with the truncation
    level J; each increment is a polygon of n new centers at distance
    >= (J+1)^2, so the tail is dominated by the comparison series
    sum n/(2 j^2).  The test point sits on the vertical axis, where the
    dominance is strict.
    """
    j_values = sorted(set(int(j) for j in j_values))
    if len(j_values) < 3 or j_values[0] < 1:
        raise ValueError("need at least three positive truncation levels")
    values = []
    for j in j_values:
        cfg = make_akl_config(n=n, m=m, j_max=j)
        values.append(ghawking.potential_at(cfg, 0.5, 0j))
    worst = 0.0
    diffs = []
    for (j0, v0), (j1, v1) in zip(
        zip(j_values[:-1], values[:-1]), zip(j_values[1:], values[1:])
    ):
        diff = v1 - v0
        bound = sum(n / (2.0 * j * j) for j in range(j0 + 1, j1 + 1))
        if bound > 0.0:
            worst = max(worst, diff / bound)
        diffs.append(diff)
    monotone = all(d1 < d0 for d0, d1 in zip(diffs[:-1], diffs[1:]))
    passed = worst < 1.0 and monotone and all(d > 0.0 for d in diffs)
    note = "tail under comparison series, increments monotone" if passed else ""
    return CheckRecord(
        name="akl-convergence",
        max_residual=worst,
        tolerance=1.0,
        passed=passed,
        count=len(j_values),
        note=note,
    )


def perturb_config(config: CenterConfiguration, eps: float = 0.01) -> CenterConfiguration:
    """Move the first center by eps in the a-plane, breaking the symmetry."""
    c, *rest = config.centers
    return CenterConfiguration(
        centers=(Center(b=c.b, a=c.a + complex(eps, 0.0)), *rest),
        signature=config.signature,
        mode=config.mode,
        akl_j_max=config.akl_j_max,
    )


def _config_payload(config: CenterConfiguration) -> dict:
    return {
        "d": config.signature.d,
        "n": config.signature.n,
        "m": config.signature.m,
        "mode": config.mode,
        "centers": [[c.b, c.a.real, c.a.imag] for c in config.centers],
    }


ALL_CHECKS = (
    "ricci",
    "kahler",
    "invariance",
    "cross",
    "periods",
    "fits",
    "solver",
)


def full_report(
    config: CenterConfiguration,
    mode: str | None = None,
    spec: SampleSpec | None = None,
    checks: Sequence[str] | None = None,
) -> VerificationReport:
    """Run the applicable checks and aggregate a deterministic report.

    Scan errors are recorded per check instead of aborting the report.
    The payload is a pure function of (config, seed); wall-clock timing
    lives in a separate field the payload never includes.  mode, if
    given, must be config.mode (ValueError otherwise).  The scans share
    one ChartEvaluation per chart (see the module docstring).
    """
    import time

    if mode not in (None, config.mode):
        raise ValueError(f"mode {mode!r} is not the configured mode {config.mode!r}")
    spec = spec or SampleSpec()
    selected = tuple(checks) if checks else ALL_CHECKS
    unknown = set(selected) - set(ALL_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    report = VerificationReport(config_payload=_config_payload(config), seed=spec.seed)
    constructions = [c for c in CONSTRUCTIONS if c.applies(config)]
    evaluations = {c.name: ChartEvaluation(c, config, spec) for c in constructions}

    def run(name: str, fn: Callable[[], None]) -> None:
        t0 = time.perf_counter()
        try:
            fn()
        except (GeometryError, ValueError) as exc:
            report.checks.append(
                CheckRecord(
                    name=name,
                    max_residual=float("inf"),
                    tolerance=0.0,
                    passed=False,
                    note=f"{type(exc).__name__}: {exc}",
                    skipped=_skip_counts(getattr(exc, "samples", ())),
                )
            )
        report.timing[name] = time.perf_counter() - t0

    def ricci(c: Construction) -> None:
        try:
            record = ricci_scan(c.name, config, spec, evaluations[c.name])
        except ScanError as exc:
            report.samples[c.name] = exc.samples
            raise
        report.samples[c.name] = record.samples
        report.checks.append(record)

    if "ricci" in selected:
        for c in constructions:
            run(f"ricci-{c.name}", lambda c=c: ricci(c))
    if "kahler" in selected:
        for c in constructions:
            run(
                f"kahler-{c.name}",
                lambda c=c: report.checks.extend(
                    kahler_scan(c.name, config, spec, evaluations[c.name])
                ),
            )
    if "invariance" in selected and config.signature.n >= 2:
        for c in constructions:
            run(
                f"invariance-{c.name}",
                lambda c=c: report.checks.append(
                    invariance_scan(c.name, config, spec, evaluations[c.name])
                ),
            )
    if "cross" in selected and all(c.applies(config) for c in (GH, HITCHIN)):

        def _cross():
            stats, record = cross_validate(config, replace(spec, count=CROSS_COUNT), report.samples)
            report.ratio = stats
            report.checks.append(record)

        run("cross-validation", _cross)
    if "periods" in selected:
        run("periods", lambda: report.checks.append(period_check(config)))
    if "fits" in selected and config.mode != "akl":

        def _fits():
            fits, records = decay_and_volume(config)
            report.fits.update(fits)
            report.checks.extend(records)

        run("fits", _fits)
    elif "fits" in selected:
        j_hi = config.akl_j_max or 1
        run(
            "akl-convergence",
            lambda: report.checks.append(
                akl_convergence_check(
                    n=config.signature.n,
                    m=config.signature.m,
                    j_values=tuple(range(max(1, j_hi // 2), j_hi + 1)),
                )
            ),
        )
    if "solver" in selected and HITCHIN.applies(config):
        run(
            "implicit-solver",
            lambda: report.checks.append(
                solver_scan(config, count=2000, seed=spec.seed)
            ),
        )
    return report
