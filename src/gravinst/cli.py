"""Command-line front end: config ingestion, runs, report persistence.

Subcommands:
  verify    run verification checks, write a JSON report
  sample    evaluate metric/curvature at points or a deterministic grid
  fit       asymptotic decay / volume-growth fits with pass bands
  validate  parse-check a run config, report or CSV produced by the tool

Exit codes: 0 all requested work passed, 1 a check or fit failed,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from dataclasses import dataclass, field

from gravinst import verify
from gravinst.errors import GeometryError
from gravinst.sampling import SampleSpec
from gravinst.singularities import CenterConfiguration, config_from_json

_RUN_KEYS = {"schema", "singularity", "checks", "sample", "tolerances", "out", "csv"}
_SAMPLE_KEYS = {f.name for f in dataclasses.fields(SampleSpec)}
SCHEMA_VERSION = "1"


class ConfigError(ValueError):
    """Malformed run configuration (maps to exit code 2)."""


@dataclass
class RunConfig:
    """Validated run request: the singularity data plus run options."""

    singularity: dict
    checks: tuple[str, ...] | None = None
    sample: SampleSpec = field(default_factory=SampleSpec)
    tolerances: dict = field(default_factory=dict)
    out: str | None = None
    csv: str | None = None

    def build(self) -> CenterConfiguration:
        return config_from_json(self.singularity)


def parse_run_config(data: dict) -> RunConfig:
    """Strict-schema parse of the run configuration object."""
    if not isinstance(data, dict):
        raise ConfigError("run configuration must be a JSON object")
    unknown = set(data) - _RUN_KEYS
    if unknown:
        raise ConfigError(f"unknown run configuration keys: {sorted(unknown)}")
    if data.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f'run configuration needs "schema": "{SCHEMA_VERSION}"')
    if "singularity" not in data:
        raise ConfigError('missing "singularity" object')
    singularity = data["singularity"]
    if isinstance(singularity, str):
        # indirection: a path to a file holding the singularity object
        try:
            with open(singularity, "r", encoding="utf-8") as fh:
                singularity = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load singularity file: {exc}") from exc
    if not isinstance(singularity, dict):
        raise ConfigError('"singularity" must be an object or a file path')
    checks = data.get("checks")
    if checks is not None:
        if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
            raise ConfigError('"checks" must be a list of check names')
        bad = set(checks) - set(verify.ALL_CHECKS)
        if bad:
            raise ConfigError(f"unknown checks: {sorted(bad)}")
        checks = tuple(checks)
    sample_raw = data.get("sample", {})
    if not isinstance(sample_raw, dict):
        raise ConfigError('"sample" must be an object')
    unknown = set(sample_raw) - _SAMPLE_KEYS
    if unknown:
        raise ConfigError(f"unknown sample keys: {sorted(unknown)}")
    try:
        spec = SampleSpec(**sample_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad sample spec: {exc}") from exc
    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict) or not all(
        isinstance(k, str) and type(v) in (int, float) and 0 < v < float("inf")
        for k, v in tolerances.items()
    ):
        raise ConfigError('"tolerances" must map check names to positive finite numbers')
    out = data.get("out")
    csv_path = data.get("csv")
    for name, val in (("out", out), ("csv", csv_path)):
        if val is not None and not isinstance(val, str):
            raise ConfigError(f'"{name}" must be a file path string')
    return RunConfig(
        singularity=singularity,
        checks=checks,
        sample=spec,
        tolerances=dict(tolerances),
        out=out,
        csv=csv_path,
    )


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read run configuration: {exc}") from exc
    return parse_run_config(data)


def _apply_mode(run: RunConfig, mode_arg: str | None) -> None:
    """--mode ale|alf|akl:J overrides the singularity's mode in place."""
    if mode_arg is None:
        return
    if mode_arg in ("ale", "alf"):
        if isinstance(run.singularity.get("mode"), dict):
            raise ConfigError("cannot override an akl singularity with ale/alf")
        run.singularity["mode"] = mode_arg
        return
    if mode_arg.startswith("akl:"):
        try:
            j_max = int(mode_arg.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError("akl mode takes an integer level, e.g. akl:12") from exc
        run.singularity["mode"] = {"akl": j_max}
        return
    raise ConfigError(f"unknown mode {mode_arg!r}")


def _apply_tolerances(report: verify.VerificationReport, tolerances: dict) -> None:
    """Override the tolerances of the report's checks in place; each check
    is then judged against its new tolerance (CheckRecord.passed).

    A key applies to the check with that exact name and to every check
    whose name extends it with a dash, the last matching key winning; a
    key matching nothing is an error, catching typos before they silently
    pass a run.
    """
    matched = set()
    for i, check in enumerate(report.checks):
        for key, value in tolerances.items():
            if check.name == key or check.name.startswith(key + "-"):
                report.checks[i] = dataclasses.replace(report.checks[i], tolerance=float(value))
                matched.add(key)
    unmatched = set(tolerances) - matched
    if unmatched:
        raise ConfigError(f"tolerance overrides matched no check: {sorted(unmatched)}")


def _load(args) -> tuple[RunConfig, CenterConfiguration]:
    """The run configuration of --config under --mode, and its metric's
    configuration."""
    run = load_run_config(args.config)
    _apply_mode(run, args.mode)
    return run, run.build()


def _report_document(report: verify.VerificationReport) -> str:
    doc = {"report": report.payload(), "timing": report.timing}
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


_CSV_HEADER = (
    ["construction", "flag", "x0", "x1", "x2", "x3"]
    + [f"g{i}{j}" for i in range(4) for j in range(i, 4)]
    + ["riem_norm_sq", "ricci_norm"]
)


def _csv_row(source: str, sample: verify.SampleRecord) -> list:
    """One CSV row from a Ricci-scan sample record: flagged with the
    error type, blank values, when the sample was unusable."""
    coords = [repr(v) for v in sample.point]
    if sample.error:
        return [source, sample.error] + coords + [""] * 12
    bundle = sample.curvature
    upper = [repr(float(bundle.g[i, j])) for i in range(4) for j in range(i, 4)]
    return (
        [source, "ok"]
        + coords
        + upper
        + [repr(float(bundle.riem_norm_sq)), repr(float(bundle.ricci_norm))]
    )


def _write_csv(path: str | None, rows: list) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    writer.writerows(rows)
    if path is None:
        sys.stdout.write(buf.getvalue())
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())


def cmd_verify(args) -> int:
    run, config = _load(args)
    if args.seed is not None:
        run.sample = dataclasses.replace(run.sample, seed=args.seed)
    checks = tuple(args.check) if args.check else run.checks
    if args.perturb:
        config = verify.perturb_config(config, eps=args.perturb)
    report = verify.full_report(config, spec=run.sample, checks=checks)
    _apply_tolerances(report, run.tolerances)
    document = _report_document(report)
    out_path = args.out or run.out
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(document)
    else:
        sys.stdout.write(document)
    csv_path = args.csv or run.csv
    if csv_path:
        samples = report.samples
        if checks and "ricci" not in checks:
            ricci = verify.full_report(config, spec=run.sample, checks=("ricci",))
            samples = ricci.samples
        rows = [_csv_row(src, s) for src, recs in samples.items() for s in recs]
        _write_csv(csv_path, rows)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        line = (
            f"{status} {check.name}: residual {check.max_residual:.3e}"
            f" tolerance {check.tolerance:g}"
        )
        if check.note:
            line += f" ({check.note})"
        print(line, file=sys.stderr)
    return 0 if report.passed else 1


def _parse_point(text: str, construction: verify.Construction) -> list[float]:
    try:
        return construction.user_coords([float(p) for p in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"bad point {text!r}: {exc}") from exc


def cmd_sample(args) -> int:
    run, config = _load(args)
    construction = verify.construction(args.construction).require(config)
    points = [_parse_point(text, construction) for text in args.point or ()]
    if args.seed is not None:
        run.sample = dataclasses.replace(run.sample, seed=args.seed)
    if args.grid:
        spec = dataclasses.replace(run.sample, count=args.grid)
        points += construction.stream(config, spec).tolist()
    if not points:
        raise ConfigError("nothing to sample: give --point and/or --grid")
    samples = verify.ricci_samples(construction, config, points)
    _write_csv(args.out, [_csv_row(construction.name, s) for s in samples])
    return 0


def cmd_fit(args) -> int:
    _, config = _load(args)
    ok = True
    for name in args.fit or verify.fit_parts(config):
        _, records = verify.decay_and_volume(config, (name,))
        for check in records:
            ok = ok and check.passed
            print(
                f"{'PASS' if check.passed else 'FAIL'} {name}: {check.name}"
                f" residual {check.max_residual:.3e} tolerance {check.tolerance:g}"
                f" ({check.note})"
            )
    return 0 if ok else 1


def _reject_constant(token: str):
    raise ConfigError(f"report is not strict JSON: {token}")


def _validate_report_file(path: str) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh, parse_constant=_reject_constant)
    body = doc.get("report") if isinstance(doc, dict) else None
    if not isinstance(body, dict):
        raise ConfigError('report file must hold a {"report": {...}} object')
    for key in ("config", "mode", "seed", "checks", "pass"):
        if key not in body:
            raise ConfigError(f"report body missing key {key!r}")
    if not isinstance(body["checks"], list):
        raise ConfigError('report "checks" must be a list of check records')
    for check in body["checks"]:
        if not isinstance(check, dict):
            raise ConfigError("a check record must be an object")
        for key in ("name", "max_residual", "tolerance", "pass"):
            if key not in check:
                raise ConfigError(f"check record missing key {key!r}")


def _validate_csv_file(path: str) -> None:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise ConfigError("CSV header does not match the sample layout")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(_CSV_HEADER):
                raise ConfigError(f"CSV row {lineno} has {len(row)} fields")


def cmd_validate(args) -> int:
    if not (args.config or args.report or args.csv):
        raise ConfigError("give at least one of --config, --report, --csv")
    try:
        if args.config:
            run = load_run_config(args.config)
            run.build()
        if args.report:
            _validate_report_file(args.report)
        if args.csv:
            _validate_csv_file(args.csv)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(str(exc)) from exc
    print("valid")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravinst",
        description="construct and verify multi-center gravitational instanton metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification checks")
    p_verify.add_argument("--config", required=True, help="run configuration JSON")
    p_verify.add_argument(
        "--check",
        action="append",
        choices=verify.ALL_CHECKS,
        help="run only this check (repeatable)",
    )
    p_verify.add_argument("--seed", type=int, help="sampling seed override")
    p_verify.add_argument("--out", help="report JSON path (default stdout)")
    p_verify.add_argument("--csv", help="per-sample CSV path")
    p_verify.add_argument(
        "--perturb", type=float, help="move one center by this amount first"
    )
    p_verify.add_argument("--mode", help="mode override: ale, alf or akl:J")
    p_verify.set_defaults(func=cmd_verify)

    p_sample = sub.add_parser("sample", help="evaluate metric and curvature")
    p_sample.add_argument("--config", required=True)
    p_sample.add_argument(
        "--construction",
        choices=[c.name for c in verify.CONSTRUCTIONS],
        default=verify.GH.name,
    )
    p_sample.add_argument(
        "--point", action="append", help="chart point, comma separated (repeatable)"
    )
    p_sample.add_argument("--grid", type=int, help="sample N deterministic points")
    p_sample.add_argument("--seed", type=int, help="grid seed")
    p_sample.add_argument("--out", help="CSV path (default stdout)")
    p_sample.add_argument("--mode", help="mode override: ale, alf or akl:J")
    p_sample.set_defaults(func=cmd_sample)

    p_fit = sub.add_parser("fit", help="asymptotic decay and growth fits")
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument(
        "--fit", action="append", choices=("decay", "volume"), help="which fits"
    )
    p_fit.add_argument("--mode", help="mode override: ale, alf or akl:J")
    p_fit.set_defaults(func=cmd_fit)

    p_val = sub.add_parser("validate", help="parse-check configs and outputs")
    p_val.add_argument("--config", help="run configuration JSON")
    p_val.add_argument("--report", help="report JSON produced by verify")
    p_val.add_argument("--csv", help="CSV produced by verify/sample")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GeometryError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
