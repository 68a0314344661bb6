"""Every input an entry point accepts ends in one of three ways.

The public API (a configuration object, a SampleSpec, full_report) and
the command line take arbitrary input.  Each input must end quickly in a
strict-JSON report, a typed error (a GeometryError, or a ValueError such
as cli.ConfigError and InvalidSignatureError, which the command line
maps to exit code 2) or, on the command line, exit code 2.  Counts stay
at most 3 and the akl level at most 20, so every example is cheap; the
per-example deadline catches one that is not.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravinst import cli, verify
from gravinst.errors import GeometryError
from gravinst.sampling import SampleSpec
from gravinst.singularities import config_from_json

# deterministic examples, no example database: the suite stays a pure
# function of the source
ENTRY = settings(max_examples=12, deadline=5000, derandomize=True, database=None)

PAIR = {"d": 1, "n": 2, "m": 1, "radii": [[1.0, 0.0]], "heights": [0.0]}

# JSON numbers, ordinary and not (json.load takes NaN and Infinity), and
# values of the wrong type
numbers = st.one_of(
    st.floats(min_value=-8.0, max_value=8.0),
    st.sampled_from([0.0, -1.0, 1e-300, 1e300, math.nan, math.inf, -math.inf]),
    st.integers(-3, 3),
)
anything = st.one_of(numbers, st.booleans(), st.none(), st.just("x"), st.just([]))
# valid (d, n, m) first: the simplest examples are well formed
SIGNATURES = [
    (1, 2, 1), (2, 3, 2), (1, 1, 0), (2, 2, 1), (1, 3, 2), (2, 1, 0), (0, 2, 1), (1, 4, 2)
]


def mutated(draw, doc: dict, keys: list) -> dict:
    """doc, or doc with one of keys removed or set to a stray value."""
    how = draw(st.sampled_from(["keep", "set", "drop"]))
    if how != "keep":
        key = draw(st.sampled_from(keys))
        if how == "set":
            doc[key] = draw(anything)
        else:
            doc.pop(key, None)
    return doc


@st.composite
def singularity_docs(draw):
    """A singularity object: a polygon configuration or a truncated akl
    family, either one possibly with one field wrong, missing or extra."""
    d, n, m = draw(st.sampled_from(SIGNATURES))
    if draw(st.booleans()):
        doc = {"n": n, "m": m, "mode": {"akl": draw(st.integers(1, 20))}}
        return mutated(draw, doc, ["n", "m", "mode", "d"])
    doc = {
        "d": d,
        "n": n,
        "m": m,
        "radii": [
            [draw(st.floats(0.5, 2.0)), draw(st.floats(-2.0, 2.0))] for _ in range(d)
        ],
        "heights": [draw(st.floats(-1.0, 1.0)) for _ in range(d)],
        "mode": draw(st.sampled_from(["ale", "alf", "akl"])),
    }
    if draw(st.booleans()) and d:
        doc["radii"][0][draw(st.integers(0, 1))] = draw(numbers)
    return mutated(draw, doc, ["d", "n", "radii", "heights", "mode", "extra"])


@st.composite
def spec_fields(draw):
    """SampleSpec fields: an annulus and margins, possibly with one field
    wrong or missing."""
    r_min = draw(st.floats(0.5, 4.0))
    fields = {
        "count": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2**40)),
        "r_min": r_min,
        "r_max": r_min + draw(st.floats(0.1, 4.0)),
        "clearance": draw(st.floats(0.0, 1.0)),
        "chart_margin": draw(st.floats(0.0, 0.1)),
    }
    if draw(st.booleans()):
        fields[draw(st.sampled_from(sorted(fields)))] = draw(numbers)
    return mutated(draw, fields, sorted(fields))


def report_or_typed_error(config_doc, fields, checks=None):
    """full_report's payload as strict JSON, or "error" for a typed error
    raised by the configuration, the SampleSpec or the report."""
    try:
        config = config_from_json(config_doc)
        spec = SampleSpec(**fields)
        report = verify.full_report(config, spec=spec, checks=checks)
    except (GeometryError, ValueError):
        return "error"
    return json.loads(json.dumps(report.payload(), allow_nan=False))


@ENTRY
@given(singularity_docs(), st.sampled_from([None, ("ricci", "cross"), ("fits", "periods")]))
def test_any_configuration_ends_in_a_report_or_a_typed_error(doc, checks):
    report_or_typed_error(doc, {}, checks)


@ENTRY
@given(spec_fields())
def test_any_sample_spec_ends_in_a_report_or_a_typed_error(fields):
    report_or_typed_error(PAIR, fields)


def _strict(text: str):
    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    return json.loads(text, parse_constant=reject)


def _body(checks) -> dict:
    return {"report": {"config": {}, "mode": "ale", "seed": 0, "checks": checks, "pass": True}}


# report files of the wrong JSON types: a body that is not an object,
# checks that are not a list, a check record that is not an object, and
# one that is a string naming every required key
MALFORMED_REPORTS = {
    "report-number": {"report": 5},
    "checks-number": _body(5),
    "check-number": _body([5]),
    "check-string": _body(["name max_residual tolerance pass"]),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The files argv names, by name: run configurations (good, akl,
    unparsable, not an object), a report and its CSV from a verify run,
    reports of the wrong JSON types (MALFORMED_REPORTS) and a path that
    does not exist."""
    work = tmp_path_factory.mktemp("argv")
    docs = {
        "good": {"schema": "1", "singularity": PAIR, "sample": {"count": 2}},
        "akl": {"schema": "1", "singularity": {"n": 2, "m": 1, "mode": {"akl": 3}}},
    }
    for name, doc in docs.items():
        (work / name).write_text(json.dumps(doc))
    for name, doc in MALFORMED_REPORTS.items():
        (work / name).write_text(json.dumps(doc))
    (work / "broken").write_text("{not json")
    (work / "list").write_text("[1, 2]")
    argv = ["verify", "--config", str(work / "good"), "--check", "ricci"]
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv + ["--out", str(work / "report"), "--csv", str(work / "rows")]) == 0
    return work


CONFIGS = ["good", "akl", "broken", "list", "missing"]
MODES = ["ale", "alf", "akl:3", "akl:20", "akl:0", "akl:x", "bogus"]
PERTURBATIONS = ["0.01", "-0.5", "nan", "inf", "1e150", "x"]
# each subcommand's options with their values, valid ones first
OPTIONS = {
    "verify": {
        "--check": st.sampled_from(list(verify.ALL_CHECKS) + ["nosuch"]),
        "--seed": st.sampled_from(["0", "7", "-3", "x"]),
        "--mode": st.sampled_from(MODES),
        "--perturb": st.sampled_from(PERTURBATIONS),
        "--out": st.just("out"),
        "--csv": st.just("out.csv"),
    },
    "sample": {
        "--grid": st.sampled_from(["1", "3", "0", "-1", "x"]),
        "--point": st.sampled_from(
            ["0.3,2.5,1.0,0.5", "0.4,-0.3,1.5,0.7", "1,2", "a,b,c,d", "nan,0,0,1",
             "0.4,-0.3,1e200,0.0"]
        ),
        "--construction": st.sampled_from(["gh", "hitchin", "bogus"]),
        "--seed": st.sampled_from(["0", "7", "x"]),
        "--mode": st.sampled_from(MODES),
        "--out": st.just("out.csv"),
    },
    "validate": {
        "--report": st.sampled_from(["report", "rows", "broken", "missing", *MALFORMED_REPORTS]),
        "--csv": st.sampled_from(["rows", "report", "missing"]),
    },
    # argparse rejects an unknown subcommand
    "bogus": {"--seed": st.just("1")},
}
# the options that name a file, by its name in the fixture's folder
FILE_OPTIONS = ("--config", "--out", "--csv", "--report")


@st.composite
def argvs(draw):
    """argv for the command line: a subcommand with a run configuration,
    most often the good one, and up to four of its options, with valid and
    invalid values."""
    command = draw(st.sampled_from(list(OPTIONS)))
    config = draw(st.one_of(st.just("good"), st.sampled_from(CONFIGS)))
    argv = [command, "--config", config]
    options = OPTIONS[command]
    for flag in draw(st.lists(st.sampled_from(list(options)), max_size=4)):
        argv += [flag, draw(options[flag])]
    return argv


def run_argv(files, argv: list) -> None:
    """Run argv, its file options in the fixture's folder: it must exit
    with 0, 1 or 2, and a verify run that ends in a report writes it as
    strict JSON."""
    argv = [
        str(files / a) if flag in FILE_OPTIONS else a for flag, a in zip([""] + argv, argv)
    ]
    for name in ("out", "out.csv"):
        (files / name).unlink(missing_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2)
    if argv[0] == "verify" and code in (0, 1):
        out = files / "out"
        _strict(out.read_text() if "--out" in argv else stdout.getvalue())


@settings(ENTRY, max_examples=40)
@given(argv=argvs())
def test_any_argv_ends_in_a_strict_report_or_an_exit_code(files, argv):
    run_argv(files, argv)


@pytest.mark.parametrize("eps", PERTURBATIONS)
def test_verify_perturb_ends_in_a_strict_report_or_an_exit_code(files, eps):
    # every check of the good configuration with its first center moved
    # by eps, which the drawn argvs seldom reach
    run_argv(files, ["verify", "--config", "good", "--perturb", eps, "--out", "out"])


@pytest.mark.parametrize("name", sorted(MALFORMED_REPORTS))
def test_a_report_of_the_wrong_json_types_is_a_usage_error(files, name):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["validate", "--report", str(files / name)]) == 2
