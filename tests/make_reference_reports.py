"""Reference report payloads, pinned byte for byte by
tests/test_reference_reports.py.

The reference holds the deterministic payload of full_report on the seven
configurations of tests/test_acceptance.py at SampleSpec(seed=42), of
``gravinst verify --out --csv`` on the truncated family akl J=12 (report
and CSV), of ``gravinst sample --grid 4`` with one ``--point`` on each
chart of the hexagon (CSV), and of the hexagon with a bent potential
(bent_potential), the negative control of the Ricci scan.  Regenerate it after a change that is
meant to move a residual:

    PYTHONPATH=src python tests/make_reference_reports.py

and name every record that moved in CHANGES.md: the script prints each
one, with its old and new values, before it rewrites the file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import test_acceptance as acceptance  # noqa: E402

from gravinst import cli, ghawking, verify  # noqa: E402
from gravinst.sampling import SampleSpec  # noqa: E402

REFERENCE = pathlib.Path(__file__).resolve().parent / "reference_reports.json"
SEED = 42
CONFIGS = (
    ("pair-unit", acceptance.pair_unit),
    ("pair-generic", acceptance.pair_generic),
    ("hexagon", acceptance.hexagon),
    ("taubnut", acceptance.taubnut),
    ("flat", acceptance.flat),
    ("square4", acceptance.square4),
    ("two-level", acceptance.two_level),
)
AKL_RUN = {
    "schema": "1",
    "singularity": {"n": 2, "m": 1, "mode": {"akl": 12}},
    "sample": {"count": 50, "seed": SEED},
}
HEXAGON_RUN = {
    "schema": "1",
    "singularity": {
        "d": 2,
        "n": 3,
        "m": 2,
        "radii": [[1.0, 0.0], [1.4, 0.3]],
        "heights": [0.0, 0.7],
    },
}
# one user point per chart, ahead of the grid
SAMPLE_POINTS = {"gh": "0.3,2.0,1.5,0.5", "hitchin": "0.4,-0.3,1.5,0.7"}


def bent(V):
    """The Ricci scan's negative control: V -> V + V^2 / 10 keeps the
    connection of the true V, so the metric is no longer Ricci-flat."""
    return V + 0.1 * V * V


@contextlib.contextmanager
def bent_potential(f):
    """Within the block, ghawking.metric_of assembles the metric jet with V
    replaced by f(V) and the connection of the true V.  f acts on the V
    jet, so it must be arithmetic (+, -, *, /) that accepts a
    tensorcalc.Jet.  verify.GH.jet_of looks metric_of up at call time, so
    every check that takes the circle-fibered metric jet sees the bent
    metric: the Ricci scan and cross-validation, not the Kahler or
    invariance scans."""
    true = ghawking.metric_of

    def metric_of(jets):
        V, a1, a2 = jets
        return true((f(V), a1, a2))

    ghawking.metric_of = metric_of
    try:
        yield
    finally:
        ghawking.metric_of = true


def akl_cli() -> dict:
    """The report and the per-sample CSV rows of the CLI's verify."""
    with tempfile.TemporaryDirectory() as work:
        paths = {k: os.path.join(work, k) for k in ("config.json", "report.json", "samples.csv")}
        with open(paths["config.json"], "w", encoding="utf-8") as fh:
            json.dump(AKL_RUN, fh)
        argv = ["verify", "--config", paths["config.json"], "--out", paths["report.json"]]
        with contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv + ["--csv", paths["samples.csv"]])
        with open(paths["report.json"], encoding="utf-8") as fh:
            report = json.load(fh)["report"]
        with open(paths["samples.csv"], encoding="utf-8") as fh:
            rows = fh.read().splitlines()
    return {"report": report, "csv": rows}


def sample_cli(construction: str) -> dict:
    """The CSV rows of the CLI's sample on one chart of the hexagon."""
    with tempfile.TemporaryDirectory() as work:
        paths = {k: os.path.join(work, k) for k in ("config.json", "samples.csv")}
        with open(paths["config.json"], "w", encoding="utf-8") as fh:
            json.dump(HEXAGON_RUN, fh)
        argv = ["sample", "--config", paths["config.json"], "--construction", construction]
        argv += ["--point", SAMPLE_POINTS[construction], "--grid", "4"]
        cli.main(argv + ["--out", paths["samples.csv"]])
        with open(paths["samples.csv"], encoding="utf-8") as fh:
            return {"csv": fh.read().splitlines()}


def reports() -> dict:
    """Every reference payload under its case name."""
    spec = SampleSpec(seed=SEED)
    out = {
        name: {"report": verify.full_report(build(), spec=spec).payload()}
        for name, build in CONFIGS
    }
    out["akl-cli"] = akl_cli()
    for construction in SAMPLE_POINTS:
        out[f"hexagon-sample-{construction}"] = sample_cli(construction)
    with bent_potential(bent):
        transformed = verify.full_report(acceptance.hexagon(), spec=spec)
    out["hexagon-bent"] = {"report": transformed.payload()}
    return out


def render(cases: dict) -> str:
    """The reference file's text: strict JSON, one key order."""
    return json.dumps(cases, sort_keys=True, indent=1, allow_nan=False) + "\n"


if __name__ == "__main__":
    from test_reference_reports import moved_records

    cases = reports()
    old = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    for line in moved_records(old, cases):
        print(line)
    REFERENCE.write_text(render(cases), encoding="utf-8")
    print(f"wrote {REFERENCE}")
