"""The reference report payloads hold byte for byte.

tests/reference_reports.json pins the payloads that
tests/make_reference_reports.py builds.  A change that moves a residual,
a pass/fail, a count or a skip fails here, and the failure lists each
moved record with its old and new values, the measure of how far a
change moved the reports; a check's residual is also given as a
fraction of its tolerance, how far it sits inside its bound, and its
move as a fraction of the new tolerance, which a round-off move shows
where the two shares print alike.  Each line ends with the keys whose
values differ, old -> new, so a moved note or tolerance shows too.
Regenerate the file with that script when a move is intended.
"""

import json

from make_reference_reports import REFERENCE, render, reports


def _records(report: dict) -> dict:
    """A report's records by name: its checks, its fits and the
    cross-construction ratio."""
    out = {c["name"]: c for c in report.get("checks", [])}
    for name, fit in report.get("fits", {}).items():
        out[f"fit {name}"] = fit
    if "cross_validation" in report:
        out["cross_validation"] = report["cross_validation"]
    return out


def _summary(record: dict | None) -> str:
    if record is None:
        return "absent"
    if "max_residual" not in record:
        return json.dumps(record, sort_keys=True)
    share = ""
    if record.get("tolerance"):
        share = f" ({record['max_residual'] / record['tolerance']:.2g} of tolerance)"
    return (
        f"residual {record['max_residual']!r}{share} pass {record['pass']}"
        f" count {record['count']} skipped {record.get('skipped', {})}"
    )


def _move(was: dict | None, now: dict | None) -> str:
    """(new - old) / tolerance of a moved residual, where both records
    have a numeric residual and the new one a nonzero tolerance."""
    if not (was and now and now.get("tolerance")):
        return ""
    old, new = was.get("max_residual"), now.get("max_residual")
    if not (isinstance(old, (int, float)) and isinstance(new, (int, float))):
        return ""
    return f", moved {(new - old) / now['tolerance']:.3g} of tolerance"


def _moved_columns(was: list[str], now: list[str]) -> list[str]:
    """The CSV columns, by the header of now, in which some row differs."""
    if not now:
        return []
    header = now[0].split(",")
    moved = set()
    for a, b in zip(was[1:], now[1:]):
        moved.update(i for i, (x, y) in enumerate(zip(a.split(","), b.split(","))) if x != y)
    return [header[i] for i in sorted(moved)]


def _changed_keys(was: dict | None, now: dict | None) -> str:
    """The keys whose values differ between two records, old -> new."""
    if not (was and now):
        return ""

    def value(record: dict, key: str) -> str:
        return repr(record[key]) if key in record else "absent"

    keys = sorted(k for k in set(was) | set(now) if value(was, k) != value(now, k))
    return "; " + ", ".join(f"{k}: {value(was, k)} -> {value(now, k)}" for k in keys)


def moved_records(old: dict, new: dict) -> list[str]:
    """One line per record that differs between two sets of cases."""
    lines = []
    for case in sorted(set(old) | set(new)):
        was, now = old.get(case, {}), new.get(case, {})
        before, after = _records(was.get("report", {})), _records(now.get("report", {}))
        for name in sorted(set(before) | set(after)):
            if before.get(name) != after.get(name):
                lines.append(
                    f"{case} / {name}: {_summary(before.get(name))}"
                    f" -> {_summary(after.get(name))}{_move(before.get(name), after.get(name))}"
                    f"{_changed_keys(before.get(name), after.get(name))}"
                )
        rest = ("config", "mode", "seed", "pass")
        for key in rest:
            if was.get("report", {}).get(key) != now.get("report", {}).get(key):
                lines.append(f"{case} / {key}: moved")
        rows = list(zip(was.get("csv", []), now.get("csv", [])))
        changed = sum(a != b for a, b in rows)
        if changed or len(was.get("csv", [])) != len(now.get("csv", [])):
            columns = ", ".join(_moved_columns(was.get("csv", []), now.get("csv", [])))
            lines.append(
                f"{case} / csv: {changed} of {len(rows)} rows moved"
                + (f" (columns {columns})" if columns else "")
            )
    return lines


def test_reports_match_the_reference_bytes():
    expected = REFERENCE.read_text(encoding="utf-8")
    cases = reports()
    actual = render(cases)
    if actual != expected:
        moves = moved_records(json.loads(expected), cases) or ["key order or layout moved"]
        raise AssertionError("reference reports moved:\n" + "\n".join(moves))
