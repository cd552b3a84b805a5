"""Correctness checks on one ``mcmimo run`` output directory.

Each check returns an error message or None. ``check_output`` runs the checks
that apply to the directory's experiment kind and reports how many ran and
which failed; a check that cannot read what it needs fails rather than raises.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
from pathlib import Path


def _manifest(d: Path) -> dict:
    return json.loads((d / "manifest.json").read_text())


def _curves(d: Path) -> dict:
    """(panel, label) -> list of (x, mean, ciHalfWidth) rows."""
    out = {}
    for c in _manifest(d)["curves"]:
        with open(d / c["file"], newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["x", "mean", "ciHalfWidth"]:
            raise ValueError(f"{c['file']}: unexpected header {rows[0]}")
        out[(c["panel"], c["label"])] = [tuple(float(v) for v in r) for r in rows[1:]]
    return out


def _table(d: Path) -> tuple[list[str], list[list[str]]]:
    (name,) = _manifest(d)["tables"]
    with open(d / name, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _panels(curves: dict) -> dict:
    """panel -> label -> rows."""
    out: dict = {}
    for (panel, label), rows in curves.items():
        out.setdefault(panel, {})[label] = rows
    return out


def manifest_matches_files(d: Path):
    m = _manifest(d)
    listed = {c["file"] for c in m.get("curves", [])} | set(m.get("tables", [])) | {"manifest.json"}
    present = {p.name for p in d.iterdir()}
    if listed != present:
        return (f"manifest/file mismatch: missing {sorted(listed - present)}, "
                f"unlisted {sorted(present - listed)}")
    return None


def values_finite_and_complete(d: Path):
    m = _manifest(d)
    if "tables" in m:
        header, rows = _table(d)
        opts = m["spec"]["options"]
        if len(rows) != len(opts["powersDb"]) * len(opts["thresholds"]):
            return f"table has {len(rows)} rows"
        for row in rows:
            if len(row) != len(header) or row[-1] not in ("True", "False"):
                return f"malformed table row {row}"
            if not all(math.isfinite(float(v)) for v in row[:-1]):
                return f"non-finite table row {row}"
        return None
    sweep = [float(v) for v in m["spec"]["sweep"]["values"]]
    for key, rows in _curves(d).items():
        if [r[0] for r in rows] != sweep:
            return f"curve {key}: x values {[r[0] for r in rows]} != sweep {sweep}"
        if not all(math.isfinite(v) for r in rows for v in r):
            return f"curve {key}: non-finite value"
    return None


def uplink_sandwich(d: Path):
    """lower <= approx <= upper exactly, and mc inside [lower - ci, upper + ci]
    with ci the Monte Carlo point's half-width (within-drop at drops=1)."""
    for panel, by_label in _panels(_curves(d)).items():
        for lo, ap, up, mc in zip(*(by_label[k] for k in ("lower", "approx", "upper", "mc"))):
            if not lo[1] <= ap[1] <= up[1]:
                return f"{panel} x={lo[0]:g}: lower {lo[1]} approx {ap[1]} upper {up[1]}"
            if not lo[1] - mc[2] <= mc[1] <= up[1] + mc[2]:
                return (f"{panel} x={lo[0]:g}: mc {mc[1]} +- {mc[2]} outside "
                        f"[{lo[1]}, {up[1]}]")
    return None


def downlink_mc_above_lower(d: Path):
    for panel, by_label in _panels(_curves(d)).items():
        for lo, mc in zip(by_label["lower"], by_label["mc"]):
            if not mc[1] >= lo[1] - mc[2]:
                return f"{panel} x={lo[0]:g}: mc {mc[1]} +- {mc[2]} below lower {lo[1]}"
    return None


def approx_gain_nonnegative(d: Path):
    for panel, by_label in _panels(_curves(d)).items():
        for x, gain, _ in by_label["approx"]:
            if not gain >= 0.0:
                return f"{panel} x={x:g}: approx gain {gain} < 0"
    return None


def joint_not_below_equal(d: Path):
    by_label = _panels(_curves(d))[""]
    for joint, equal in zip(by_label["joint"], by_label["equal"]):
        if not joint[1] >= equal[1]:
            return f"slot {joint[0]:g}: joint {joint[1]} < equal {equal[1]}"
    return None


def table_inside_search_range(d: Path):
    values = _manifest(d)["spec"]["sweep"]["values"]
    lo, hi = int(values[0]), int(values[-1])
    header, rows = _table(d)
    col = header.index("maxRatio")
    for row in rows:
        if not lo <= int(row[col]) <= hi:
            return f"maxRatio {row[col]} outside searchRange [{lo}, {hi}]"
    return None


COMMON = (manifest_matches_files, values_finite_and_complete)
BY_KIND = {
    "fig2": (uplink_sandwich,),
    "fig8": (downlink_mc_above_lower,),
    "fig5": (approx_gain_nonnegative,),
    "fig12": (joint_not_below_equal,),
    "table2": (table_inside_search_range,),
}


def check_output(d) -> tuple[int, list[str]]:
    """Run every check that applies to output directory ``d``.

    Returns (checks attempted, failure messages).
    """
    d = Path(d)
    try:
        kind = _manifest(d)["spec"]["kind"]
    except (OSError, ValueError, KeyError) as exc:
        return 1, [f"{d.name}: unreadable manifest: {exc!r}"]
    checks = COMMON + BY_KIND.get(kind, ())
    failures = []
    for check in checks:
        try:
            err = check(d)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            err = f"could not check: {exc!r}"
        if err:
            failures.append(f"{d.name}: {check.__name__}: {err}")
    return len(checks), failures


def identical_trees(a, b):
    """None when directories ``a`` and ``b`` hold the same files, byte for byte."""
    a, b = Path(a), Path(b)
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return f"file lists differ: {names_a} vs {names_b}"
    _, mismatch, errors = filecmp.cmpfiles(a, b, names_a, shallow=False)
    if mismatch or errors:
        return f"files differ between repeats: {mismatch + errors}"
    return None
