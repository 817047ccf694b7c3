"""Rebuild every golden fixture in memory and report what moved.

    python tests/regen_golden.py [--check | --write]

Each file under ``tests/golden`` is rebuilt from the tables that
``test_golden.py`` reads: ``FIGURE_CASES`` for the sweep CSVs and
``CLI_CASES`` for the CLI JSON.  For every file whose bytes differ, the
report names the fields that moved with their max |Δ|; for a sweep CSV it
also gives, per curve, the rows moved and the max |Δ| / std_err of the mean
and of the std_err, moves in units of the stored standard error.  A file
under ``tests/golden`` that no case rebuilds counts as a difference too.
``--check``, the default, exits 1 on any difference and writes nothing;
``--write`` rewrites the files that differ and exits 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from test_golden import CLI_CASES, FIGURE_CASES, GOLDEN, cli_golden_text, figure_golden_text  # noqa: E402


def rebuilt() -> dict:
    """Path under ``GOLDEN`` -> the text that fixture should hold."""
    texts = {f"{name}.csv": figure_golden_text(name) for name in FIGURE_CASES}
    texts.update({f"cli/{name}.json": cli_golden_text(argv) for name, argv in CLI_CASES.items()})
    return texts


def _delta(old, new) -> float:
    """|new - old| for two numbers, inf for any other pair that differs."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    return abs(float(new) - float(old)) if numbers else math.inf


def _cell(text: str):
    """A CSV cell as a float where it reads as one."""
    try:
        return float(text)
    except ValueError:
        return text


def _field_lines(moves: dict) -> list:
    """One line per field: how many values moved and the max |Δ|."""
    return [f"  {field}: {len(d)} moved, max |Δ| {max(d):.3g}" for field, d in sorted(moves.items())]


def _in_se(delta: float, se: float) -> float:
    return delta / se if se else (math.inf if delta else 0.0)


def csv_report(old: str, new: str) -> list:
    """Lines naming the CSV fields that moved, and per curve how far in s.e."""
    old_rows, new_rows = list(csv.DictReader(old.splitlines())), list(csv.DictReader(new.splitlines()))
    if [(r["curve"], r["x"]) for r in old_rows] != [(r["curve"], r["x"]) for r in new_rows]:
        return [f"  rows: {len(old_rows)} -> {len(new_rows)}, or the (curve, x) keys moved"]
    moves, curves = {}, {}
    for a, b in zip(old_rows, new_rows):
        changed = [f for f in a if a[f] != b[f]]
        for field in changed:
            moves.setdefault(field, []).append(_delta(_cell(a[field]), _cell(b[field])))
        if changed:
            rows, z_mean, z_se = curves.get(a["curve"], (0, 0.0, 0.0))
            se = float(a["std_err"])
            z_mean = max(z_mean, _in_se(abs(float(b["mean"]) - float(a["mean"])), se))
            z_se = max(z_se, _in_se(abs(float(b["std_err"]) - se), se))
            curves[a["curve"]] = (rows + 1, z_mean, z_se)
    lines = _field_lines(moves)
    lines += [f"  curve {c}: {rows} rows, max |Δ|/std_err {z_mean:.3g} (mean), {z_se:.3g} (std_err)"
              for c, (rows, z_mean, z_se) in curves.items()]
    return lines


def _leaves(node, path=""):
    """(dotted path, value) of every leaf of a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def json_report(old: str, new: str) -> list:
    """Lines naming the JSON leaves that moved, added or removed."""
    a, b = dict(_leaves(json.loads(old))), dict(_leaves(json.loads(new)))
    moves = {path: [_delta(a[path], b[path])] for path in a.keys() & b.keys()
             if a[path] != b[path]}
    lines = _field_lines(moves)
    lines += [f"  {path}: removed" for path in sorted(a.keys() - b.keys())]
    lines += [f"  {path}: added" for path in sorted(b.keys() - a.keys())]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="report differences, exit 1 on any (default)")
    mode.add_argument("--write", action="store_true", help="rewrite the fixtures that differ")
    args = parser.parse_args(argv)
    texts, moved = rebuilt(), 0
    for rel, text in texts.items():
        path = GOLDEN / rel
        old = path.read_text(encoding="utf-8") if path.exists() else None
        if old == text:
            continue
        moved += 1
        if old is None:
            print(f"{rel}: new file")
        else:
            report = csv_report if rel.endswith(".csv") else json_report
            print(f"{rel}: differs")
            print("\n".join(report(old, text)))
        if args.write:
            path.write_text(text, encoding="utf-8", newline="\n")
    for path in sorted(p for p in GOLDEN.rglob("*") if p.is_file()):
        rel = path.relative_to(GOLDEN).as_posix()
        if rel not in texts:
            moved += 1
            print(f"{rel}: no case rebuilds it")
    print(f"{moved} of {len(texts)} fixtures differ{'; rewritten' if args.write and moved else ''}")
    return 1 if moved and not args.write else 0


if __name__ == "__main__":
    sys.exit(main())
