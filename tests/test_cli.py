"""Command line interface: config parsing, exit codes, file outputs."""

import csv
import json
import threading
import time
import warnings

import pytest

from gravinst import cli, sampling, tensorcalc, verify
from gravinst.errors import DegenerateMetricError
from gravinst.sampling import SampleSpec

PAIR = {"d": 1, "n": 2, "m": 1, "radii": [[1.0, 0.0]], "heights": [0.0]}
FLAT = {"d": 1, "n": 1, "m": 0, "radii": [[1.0, 0.0]], "heights": [0.0]}


def write_cfg(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_doc(**overrides):
    doc = {
        "schema": "1",
        "singularity": dict(PAIR),
        "checks": ["kahler"],
        "sample": {"count": 4, "seed": 0},
    }
    doc.update(overrides)
    return doc


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# --- run configuration parsing ---


def test_parse_run_config_fields():
    run = cli.parse_run_config(base_doc())
    assert run.singularity == PAIR
    assert run.checks == ("kahler",)
    assert run.sample == SampleSpec(count=4, seed=0)
    cfg = run.build()
    assert cfg.k == 2 and cfg.mode == "ale"


def test_parse_run_config_rejections():
    bad = [
        {"singularity": PAIR},  # missing schema
        base_doc(schema="0"),
        base_doc(extra=1),
        base_doc(checks=["nosuch"]),
        base_doc(checks="kahler"),
        base_doc(sample={"count": 4, "speed": 9}),
        base_doc(tolerances={"ricci": -1.0}),
        base_doc(out=7),
        [1, 2, 3],
    ]
    for doc in bad:
        with pytest.raises(cli.ConfigError):
            cli.parse_run_config(doc)


@pytest.mark.parametrize("value", ["true", "1e400"], ids=["bool", "overflow"])
def test_verify_rejects_tolerance_that_is_not_a_finite_number(tmp_path, value):
    path = tmp_path / "run.json"
    # written by hand: json.dumps has no way to spell 1e400
    path.write_text(json.dumps(base_doc(tolerances={"ricci": "x"})).replace('"x"', value))
    with pytest.raises(cli.ConfigError):
        cli.load_run_config(str(path))
    assert cli.main(["verify", "--config", str(path)]) == 2


def test_singularity_file_indirection(tmp_path):
    sing = tmp_path / "sing.json"
    sing.write_text(json.dumps(PAIR))
    run = cli.parse_run_config(base_doc(singularity=str(sing)))
    assert run.build().k == 2
    with pytest.raises(cli.ConfigError):
        cli.parse_run_config(base_doc(singularity=str(tmp_path / "absent.json")))


# --- verify subcommand ---


def test_verify_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(
        ["verify", "--config", write_cfg(tmp_path, base_doc()), "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"report", "timing"}
    rep = doc["report"]
    assert rep["pass"] is True
    assert rep["mode"] == "ale"
    assert len(rep["checks"]) == 6
    err = capsys.readouterr().err
    assert err.count("PASS") == 6 and "FAIL" not in err


def test_verify_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, base_doc())
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
        outs.append(json.loads(out.read_text()))
    assert outs[0]["report"] == outs[1]["report"]


def test_verify_perturb_fails_invariance(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_doc(checks=["invariance"]))
    out = tmp_path / "r.json"
    code = cli.main(
        ["verify", "--config", cfg, "--perturb", "0.01", "--out", str(out)]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().err
    assert json.loads(out.read_text())["report"]["pass"] is False


def test_verify_past_the_sampling_range_fails_each_scan(tmp_path, capsys):
    # a center moved by 1e150 puts the sampling annulus past the float
    # range: each sampled check fails with a ScanError, the fits end in
    # their typed error, periods and the solver in a result, all with no
    # RuntimeWarning; the report and the CSV are still written, and
    # validate rejects the oversized config
    doc = base_doc(checks=list(verify.ALL_CHECKS))
    cfg = write_cfg(tmp_path, doc)
    out, rows = tmp_path / "r.json", tmp_path / "rows.csv"
    argv = ["verify", "--config", cfg, "--perturb", "1e150", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + ["--csv", str(rows)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["report"]["checks"]}
    sampled = [name for name in checks if name not in ("periods", "fits", "implicit-solver")]
    assert len(sampled) == 7
    assert all(checks[n]["note"].startswith("ScanError: the sampling annulus") for n in sampled)
    assert checks["fits"]["note"].startswith("NumericOverflowError")
    assert checks["periods"]["pass"] and checks["implicit-solver"]["pass"]
    assert read_rows(rows) == [cli._CSV_HEADER]
    doc["singularity"] = {"d": 2, "n": 1, "m": 0, "radii": [[1e160, 0.0], [2e160, 0.0]]}
    assert cli.main(["validate", "--config", write_cfg(tmp_path, doc)]) == 2
    assert "overflow" in capsys.readouterr().err


@pytest.mark.parametrize(
    "singularity, reason",
    [
        ({"d": 1, "n": 8001, "m": 1, "radii": [[1, 0]]}, "more than the 8000"),
        ({"d": 1, "n": 20000, "m": 1, "radii": [[1, 0]]}, "more than the 8000"),
        ({"n": 2, "m": 1, "mode": {"akl": 4001}}, "above 4000"),
        ({"n": 2, "m": 1, "mode": {"akl": 5000}}, "above 4000"),
    ],
    ids=["n-8001", "n-20000", "akl-4001", "akl-5000"],
)
def test_validate_refuses_a_configuration_too_large_to_check(tmp_path, capsys, singularity, reason):
    # refused before any per-center work (20000 centers took seconds to
    # build): the pairwise center tests grow as the square of the count,
    # and past akl level 4000 the convergence check can no longer tell a
    # convergent tail in floats
    cfg = write_cfg(tmp_path, base_doc(singularity=singularity))
    start = time.perf_counter()
    assert cli.main(["validate", "--config", cfg]) == 2
    assert time.perf_counter() - start < 1.0
    assert reason in capsys.readouterr().err


def test_verify_check_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, base_doc())
    out = tmp_path / "r.json"
    code = cli.main(
        ["verify", "--config", cfg, "--check", "periods", "--out", str(out)]
    )
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    assert [c["name"] for c in rep["checks"]] == ["periods"]


def test_verify_unknown_check_flag_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_doc())
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--config", cfg, "--check", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_verify_tolerance_override(tmp_path):
    cfg = write_cfg(tmp_path, base_doc(tolerances={"kahler-compat": 1e-30}))
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 1
    rep = json.loads(out.read_text())["report"]
    failed = [c for c in rep["checks"] if not c["pass"]]
    assert {c["name"] for c in failed} == {
        "kahler-compat-gh",
        "kahler-compat-hitchin",
    }
    # a looser tolerance passes a check that fails under its own: the
    # perturbed pair fails invariance at INVARIANCE_TOL
    doc = base_doc(checks=["invariance"])
    cfg = write_cfg(tmp_path, doc, "strict.json")
    assert cli.main(["verify", "--config", cfg, "--perturb", "0.01", "--out", str(out)]) == 1
    doc["tolerances"] = {"invariance": 1.0}
    cfg = write_cfg(tmp_path, doc, "loose.json")
    assert cli.main(["verify", "--config", cfg, "--perturb", "0.01", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["pass"] is True
    assert [(c["name"], c["tolerance"], c["pass"]) for c in rep["checks"]] == [
        ("invariance-gh", 1.0, True),
        ("invariance-hitchin", 1.0, True),
    ]
    # a key that matches nothing is a config error, not a silent pass
    cfg = write_cfg(tmp_path, base_doc(tolerances={"nosuch": 1.0}), "t.json")
    assert cli.main(["verify", "--config", cfg]) == 2


def test_verify_csv_output(tmp_path):
    csv_path = tmp_path / "samples.csv"
    cfg = write_cfg(tmp_path, base_doc(csv=str(csv_path)))
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
    rows = read_rows(csv_path)
    assert rows[0] == list(cli._CSV_HEADER)
    # 4 samples for each construction in ale mode
    assert len(rows) == 1 + 8
    assert {r[0] for r in rows[1:]} == {"gh", "hitchin"}


def test_verify_config_errors(tmp_path):
    gcd = base_doc()
    gcd["singularity"] = {"d": 1, "n": 4, "m": 2, "radii": [[1.0, 0.0]]}
    cases = [
        base_doc(extra=1),
        {"singularity": PAIR},
        gcd,
    ]
    for i, doc in enumerate(cases):
        assert cli.main(["verify", "--config", write_cfg(tmp_path, doc, f"c{i}.json")]) == 2
    assert cli.main(["verify", "--config", str(tmp_path / "missing.json")]) == 2


def test_verify_mode_override(tmp_path):
    cfg = write_cfg(tmp_path, base_doc(singularity=dict(FLAT), checks=["periods"]))
    out = tmp_path / "r.json"
    code = cli.main(["verify", "--config", cfg, "--mode", "alf", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["report"]["mode"] == "alf"


def test_verify_akl_mode(tmp_path):
    cfg = write_cfg(
        tmp_path, base_doc(singularity={"n": 2, "m": 1}, checks=["fits"])
    )
    out = tmp_path / "r.json"
    code = cli.main(["verify", "--config", cfg, "--mode", "akl:4", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    assert [c["name"] for c in rep["checks"]] == ["akl-convergence"]
    # truncation override next to explicit center data is ambiguous
    cfg = write_cfg(tmp_path, base_doc(), "b.json")
    assert cli.main(["verify", "--config", cfg, "--mode", "akl:4"]) == 2
    assert cli.main(["verify", "--config", cfg, "--mode", "akl:x"]) == 2
    assert cli.main(["verify", "--config", cfg, "--mode", "euclidean"]) == 2


# --- sample subcommand ---


def test_sample_points(tmp_path):
    cfg = write_cfg(tmp_path, base_doc())
    out = tmp_path / "pts.csv"
    code = cli.main(
        [
            "sample",
            "--config",
            cfg,
            "--construction",
            "gh",
            "--point",
            "0.5,1.5,0.5",
            "--point",
            "0.1,0.4,1.2,0.3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 3
    assert rows[1][0] == "gh"
    assert [float(v) for v in rows[1][2:6]] == [0.0, 0.5, 1.5, 0.5]
    assert float(rows[1][16]) > 0.0  # curvature column filled


def test_sample_flags_chart_boundary(tmp_path):
    cfg = write_cfg(tmp_path, base_doc())
    out = tmp_path / "pts.csv"
    code = cli.main(
        [
            "sample",
            "--config",
            cfg,
            "--construction",
            "hitchin",
            "--point",
            "0.1,0.2,0.0,0.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_rows(out)
    assert rows[1][1] == "ChartBoundaryError"
    assert rows[1][6] == ""


def test_sample_flags_a_complex_chart_point_whose_y_squared_overflows(tmp_path):
    # |y|^2 = 1e400 is not a float: that row is flagged and the good row
    # before it stays, with no RuntimeWarning on the way
    cfg = write_cfg(tmp_path, base_doc())
    out = tmp_path / "pts.csv"
    argv = ["sample", "--config", cfg, "--construction", "hitchin", "--out", str(out)]
    argv += ["--point", "0.4,-0.3,1.5,0.7", "--point", "0.4,-0.3,1e200,0.0"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 0
    rows = read_rows(out)
    assert [row[1] for row in rows[1:]] == ["ok", "NumericOverflowError"]
    assert float(rows[1][16]) > 0.0 and rows[2][6:] == [""] * 12


def test_sample_grid(tmp_path):
    cfg = write_cfg(tmp_path, base_doc())
    out = tmp_path / "g.csv"
    code = cli.main(
        ["sample", "--config", cfg, "--grid", "3", "--out", str(out)]
    )
    assert code == 0
    assert len(read_rows(out)) == 4


def test_sample_grid_draws_the_run_files_sample_spec(tmp_path):
    # the grid is the run's sample stream with the count of --grid, its
    # seed overridden by --seed, as verify does
    cfg = write_cfg(tmp_path, base_doc(sample={"seed": 3, "r_min": 3.0}))
    config = cli.load_run_config(cfg).build()
    out = tmp_path / "g.csv"
    for extra, seed in (([], 3), (["--seed", "5"], 5)):
        argv = ["sample", "--config", cfg, "--grid", "3", "--out", str(out)]
        assert cli.main(argv + extra) == 0
        expected = sampling.gh_points(config, SampleSpec(count=3, seed=seed, r_min=3.0))
        rows = read_rows(out)[1:]
        assert [[float(v) for v in row[2:6]] for row in rows] == expected.tolist()


def test_sample_argument_errors(tmp_path):
    cfg = write_cfg(tmp_path, base_doc())
    assert cli.main(["sample", "--config", cfg]) == 2
    assert cli.main(["sample", "--config", cfg, "--point", "1,2"]) == 2
    assert cli.main(["sample", "--config", cfg, "--point", "a,b,c"]) == 2
    assert cli.main(["sample", "--config", cfg, "--point", "nan,0,1,0"]) == 2
    flat = write_cfg(tmp_path, base_doc(singularity=dict(FLAT)), "f.json")
    code = cli.main(
        [
            "sample",
            "--config",
            flat,
            "--mode",
            "alf",
            "--construction",
            "hitchin",
            "--point",
            "0.1,0.2,0.5,0.0",
        ]
    )
    assert code == 2


# --- fit subcommand ---


def test_fit_pair_default_bands(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_doc())
    code = cli.main(["fit", "--config", cfg])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS decay" in out and "PASS volume" in out


def test_fit_single_center_reports_a_flat_end(tmp_path, capsys):
    # the fit command runs the report's fits, so one center gets the
    # flatness check instead of a slope fitted to noise
    cfg = write_cfg(tmp_path, base_doc(singularity=dict(FLAT)))
    assert cli.main(["fit", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "PASS decay: curvature-decay-flat" in out and "PASS volume" in out


def test_fit_rejects_decay_outside_ale(tmp_path):
    cfg = write_cfg(tmp_path, base_doc(singularity=dict(FLAT)))
    assert cli.main(["fit", "--config", cfg, "--mode", "alf", "--fit", "decay"]) == 2


# --- validate subcommand ---


def test_validate_round_trip(tmp_path):
    report_path = tmp_path / "r.json"
    csv_path = tmp_path / "s.csv"
    cfg = write_cfg(tmp_path, base_doc(csv=str(csv_path)))
    assert cli.main(["verify", "--config", cfg, "--out", str(report_path)]) == 0
    code = cli.main(
        [
            "validate",
            "--config",
            cfg,
            "--report",
            str(report_path),
            "--csv",
            str(csv_path),
        ]
    )
    assert code == 0
    # corrupt one field count and the csv check must trip
    rows = read_rows(csv_path)
    rows[1] = rows[1][:-1]
    with open(csv_path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert cli.main(["validate", "--csv", str(csv_path)]) == 2
    assert cli.main(["validate"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"report": {}}))
    assert cli.main(["validate", "--report", str(bad)]) == 2


# --- per-sample CSV rows are the Ricci scan's own samples ---


def count_curvature_calls(monkeypatch):
    calls = []
    original = tensorcalc.curvature_at

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(tensorcalc, "curvature_at", counted)
    return calls


def test_verify_csv_reuses_ricci_curvature(tmp_path, monkeypatch):
    calls = count_curvature_calls(monkeypatch)
    csv_path = tmp_path / "s.csv"
    cfg = write_cfg(tmp_path, base_doc(checks=["ricci"], csv=str(csv_path)))
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
    rows = read_rows(csv_path)[1:]
    assert len(rows) == 8
    # one curvature evaluation per block of Ricci-scan samples (one block
    # of 4 per construction), none for the CSV
    assert [len(x) for x in calls] == [4, 4]


def test_verify_csv_without_ricci_check_writes_the_ricci_rows(tmp_path):
    # a run that skips the Ricci scans runs them for the CSV alone, with
    # the same samples as a run that selects them
    cfg = write_cfg(tmp_path, base_doc())
    rows = {}
    for check in ("kahler", "ricci"):
        csv_path = tmp_path / f"{check}.csv"
        argv = ["verify", "--config", cfg, "--check", check, "--seed", "5",
                "--out", str(tmp_path / f"{check}.json"), "--csv", str(csv_path)]
        assert cli.main(argv) == 0
        rows[check] = read_rows(csv_path)
    assert len(rows["ricci"]) == 1 + 8
    assert rows["kahler"] == rows["ricci"]


def test_verify_csv_row_matches_sample_point(tmp_path):
    csv_path = tmp_path / "s.csv"
    cfg = write_cfg(tmp_path, base_doc(csv=str(csv_path)))
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
    rows = read_rows(csv_path)[1:]
    for construction in ("gh", "hitchin"):
        row = next(r for r in rows if r[0] == construction)
        out = tmp_path / f"{construction}.csv"
        # --point=... because a coordinate may start with a minus sign
        point = "--point=" + ",".join(row[2:6])
        code = cli.main(
            ["sample", "--config", cfg, "--construction", construction, point,
             "--out", str(out)]
        )
        assert code == 0
        assert read_rows(out)[1] == row


def test_verify_csv_flags_every_failed_ricci_sample(tmp_path, monkeypatch):
    def degenerate(*args, **kwargs):
        raise DegenerateMetricError("forced")

    monkeypatch.setattr(tensorcalc, "curvature_at", degenerate)
    csv_path = tmp_path / "s.csv"
    out = tmp_path / "r.json"
    cfg = write_cfg(tmp_path, base_doc(checks=["ricci"], csv=str(csv_path)))
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 1
    rows = read_rows(csv_path)[1:]
    assert len(rows) == 8
    assert {r[1] for r in rows} == {"DegenerateMetricError"}
    assert all(v == "" for r in rows for v in r[6:])
    checks = json.loads(out.read_text())["report"]["checks"]
    assert [c["name"] for c in checks] == ["ricci-gh", "ricci-hitchin"]
    for check in checks:
        assert check["note"].startswith("ScanError")
        assert check["skipped"] == {"DegenerateMetricError": 4}
        assert check["max_residual"] is None


def test_verify_rejects_bad_sample_spec(tmp_path):
    specs = [
        '{"count": 2.5}',
        '{"clearance": null}',
        '{"chart_margin": "x"}',
        '{"seed": "x"}',
        '{"r_max": 1e400}',
    ]
    for i, spec in enumerate(specs):
        path = tmp_path / f"c{i}.json"
        # written by hand: json.dumps has no way to spell 1e400
        path.write_text(json.dumps(base_doc(sample={})).replace("{}", spec))
        assert cli.main(["verify", "--config", str(path)]) == 2, spec


def test_verify_unsatisfiable_sample_spec_ends(tmp_path):
    # no annulus point is farther than r_max + 1 from a center: rejected
    # when the spec is built
    doc = base_doc(checks=["ricci"], sample={"count": 1, "clearance": 100})
    assert cli.main(["verify", "--config", write_cfg(tmp_path, doc)]) == 2
    # within that bound but still unmet on the pair (no point with |x| <= 6
    # lies farther than 6.08 from both centers): the sampling budget ends it
    doc = base_doc(checks=["ricci"], sample={"count": 1, "clearance": 6.5})
    out = tmp_path / "r.json"
    argv = ["verify", "--config", write_cfg(tmp_path, doc), "--out", str(out)]
    codes = []
    # a daemon thread, so that a sampler that never ends fails the test
    # instead of hanging the suite
    worker = threading.Thread(target=lambda: codes.append(cli.main(argv)), daemon=True)
    worker.start()
    worker.join(timeout=30.0)
    assert not worker.is_alive(), "sampling kept drawing candidates"
    assert codes == [1]
    checks = json.loads(out.read_text())["report"]["checks"]
    assert [c["name"] for c in checks] == ["ricci-gh", "ricci-hitchin"]
    assert all(c["note"].startswith("ScanError") for c in checks)


def test_verify_an_unsatisfiable_spec_ends_in_seconds_at_any_count(tmp_path):
    # a stream that accepts none of its first 10000 candidates ends there,
    # so the count does not lengthen an unsatisfiable run
    doc = base_doc(checks=list(verify.ALL_CHECKS), sample={"count": 1000, "clearance": 6.999})
    out = tmp_path / "r.json"
    argv = ["verify", "--config", write_cfg(tmp_path, doc), "--out", str(out)]
    codes = []
    worker = threading.Thread(target=lambda: codes.append(cli.main(argv)), daemon=True)
    worker.start()
    worker.join(timeout=5.0)
    assert not worker.is_alive(), "sampling drew 10000 candidates per point asked for"
    assert codes == [1]
    notes = [c.get("note", "") for c in json.loads(out.read_text())["report"]["checks"]]
    # one record for each of the six sample scans and for cross-validation
    assert notes.count("ScanError: sampling rejected too many candidate points (10000 drawn)") == 7


def test_validate_rejects_non_strict_report(tmp_path):
    for token in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "r.json"
        path.write_text(
            '{"report": {"config": {}, "mode": "ale", "seed": 0, "pass": false,'
            ' "checks": [{"name": "x", "max_residual": %s, "tolerance": 0.0,'
            ' "pass": false}]}}' % token
        )
        assert cli.main(["validate", "--report", str(path)]) == 2
