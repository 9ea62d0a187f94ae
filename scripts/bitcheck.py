#!/usr/bin/env python3
"""Check that a change moves no bit of any benchmark result.

Run from the root of a checkout:

    python3 scripts/bitcheck.py REF [--seeds 5 6]

Extracts `git archive REF` to a temporary directory and runs, on that tree
and on this checkout, every operation of the four benchmark workloads at
each seed, once, in order, as bench/run.py would. Both sides build their
operations with this checkout's bench/workloads.py (imported, never
changed), each against its own src/. They also run aggregate_stats and
l0_full of the six published races at u = 500, 2000 and 2999 and
s = 0, 1, 10, 100, 1000 and 12527.41, and phat_prefix of each race at
w = 2, 4, ..., 40 and u = 140, 500, 2000 and 2999, so that a change to
the J0 kernel shows its moves in the prefix itself.

For each operation it compares value, error_estimate, K, domega,
n_terms, n_zeros, the result's repr and the refusal text, floats by
float.hex. Prints every row that differs, then one line per workload
(the published rows and the prefix rows count as one more each) with the
rows whose value moved, the largest |dvalue|, the largest |dvalue| /
|value| and the largest |dvalue| / error_estimate, the estimate taken
from this checkout's row. Ends with a count, and exits 1
when any row differs.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("races", "deep_cutoff", "cumulant", "threshold_sweep")
PUBLISHED_U = (500.0, 2000.0, 2999.0)
PUBLISHED_S = (0.0, 1.0, 10.0, 100.0, 1000.0, 12527.41)
FIELDS = ("value", "error_estimate", "K", "domega", "n_terms", "n_zeros")
# 140, the races workload's largest cutoff, is within every bundled
# table; past a table's end phat_prefix refuses, and the refusal is
# compared like any other
PREFIX_U = (140.0,) + PUBLISHED_U
PREFIX_OMEGAS = tuple(2.0 * k for k in range(1, 21))


def _hex(v):
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, (list, tuple)):
        return [_hex(x) for x in v]
    return v


def _row(name, summarize, run):
    # one operation's fields, or its refusal as type and message
    try:
        result = run()
    except Exception as exc:  # a refusal is an answer to compare
        return {"op": name, "refusal": f"{type(exc).__name__}: {exc}"}
    out = summarize(result)
    row = {"op": name, "repr": repr(result)}
    row.update((f, _hex(out[f])) for f in FIELDS)
    return row


def dump(tree: str, seeds) -> None:
    """Print one JSON line per operation, run against tree/src."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(ROOT, "bench")]
    import workloads
    from racedensity import transforms as tr
    from racedensity import zerodata as zd

    warnings.simplefilter("ignore")
    for seed in seeds:
        for wname in WORKLOADS:
            state = {}
            for i, op in enumerate(workloads.build(wname, seed).ops):
                name = f"{wname} seed {seed} #{i} {op.kind} {op.race} {op.x}"
                row = _row(name, workloads.summarize,
                           lambda op=op: op.run(state))
                print(json.dumps(row))
    for rname, race in workloads._races().items():
        for u in PUBLISHED_U:
            print(json.dumps(_row(
                f"published {rname} aggregate_stats u={u:g}",
                workloads.summarize, lambda: zd.aggregate_stats(race, u))))
            for s in PUBLISHED_S:
                print(json.dumps(_row(
                    f"published {rname} l0_full u={u:g} s={s:g}",
                    workloads.summarize, lambda s=s: tr.l0_full(
                        s, race, zd.aggregate_stats(race, u)))))
        for u in PREFIX_U:
            print(json.dumps(_row(
                f"prefix {rname} phat_prefix u={u:g}", workloads.summarize,
                lambda: tr.phat_prefix(PREFIX_OMEGAS, race, u))))


def _rows(tree: str, seeds) -> list:
    cmd = [sys.executable, os.path.abspath(__file__), "--dump", tree,
           "--seeds", *map(str, seeds)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         cwd=tree).stdout
    return [json.loads(line) for line in out.splitlines()]


def _extract(ref: str, dest: str) -> None:
    tar = subprocess.run(["git", "-C", ROOT, "archive", ref], check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def _show(a, b) -> str:
    # a long repr is shown from just before its first differing character
    if not (isinstance(a, str) and isinstance(b, str) and len(a) > 80):
        return f"{a!r} -> {b!r}"
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
             min(len(a), len(b)))
    i = max(0, i - 30)
    return f"...{a[i:i + 70]!r} -> ...{b[i:i + 70]!r}"


def _floats(v) -> list:
    # a row's value, one float or a list of them, back from float.hex
    if v is None:
        return []
    return [float.fromhex(x) for x in (v if isinstance(v, list) else [v])]


def summary(ref_rows, new_rows) -> list:
    """One line per workload on how far the values moved."""
    groups = {}
    for a, b in zip(ref_rows, new_rows):
        group = groups.setdefault(a["op"].split()[0], [0, 0, 0.0, 0.0, None])
        group[0] += 1
        if a.get("value") == b.get("value"):
            continue
        group[1] += 1
        old, new = _floats(a.get("value")), _floats(b.get("value"))
        if not old or len(old) != len(new):
            continue
        delta = max(abs(x - y) for x, y in zip(old, new))
        group[2] = max(group[2], delta)
        group[3] = max(group[3], max(
            (abs(x - y) / abs(x) if x else math.inf
             for x, y in zip(old, new) if x != y), default=0.0))
        est = b.get("error_estimate")
        if est is not None:
            est = float.fromhex(est)
            ratio = delta / est if est > 0.0 else math.inf
            group[4] = ratio if group[4] is None else max(group[4], ratio)
    return [f"{name}: {moved} of {rows} rows moved value, largest |dvalue| "
            f"{delta:.3g}, largest |dvalue|/|value| {rel:.3g}, largest "
            f"|dvalue|/error_estimate "
            f"{'n/a' if ratio is None else f'{ratio:.3g}'}"
            for name, (rows, moved, delta, rel, ratio) in groups.items()]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref", nargs="?", help="git revision to compare against")
    ap.add_argument("--seeds", type=int, nargs="+", default=[5, 6])
    ap.add_argument("--dump", metavar="TREE", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.dump:
        dump(args.dump, args.seeds)
        return 0
    if args.ref is None:
        ap.error("REF is required")
    with tempfile.TemporaryDirectory() as tmp:
        _extract(args.ref, tmp)
        ref_rows = _rows(tmp, args.seeds)
    new_rows = _rows(ROOT, args.seeds)
    if [r["op"] for r in ref_rows] != [r["op"] for r in new_rows]:
        print("the two trees ran different operations")
        return 1
    differ = 0
    for a, b in zip(ref_rows, new_rows):
        keys = [k for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)]
        if keys:
            differ += 1
            print(a["op"])
            for k in keys:
                print(f"  {k}: " + _show(a.get(k), b.get(k)))
    for line in summary(ref_rows, new_rows):
        print(line)
    refusals = sum("refusal" in r for r in new_rows)
    print(f"{differ} of {len(new_rows)} rows differ ({refusals} refusals) "
          f"against {args.ref}, seeds {' '.join(map(str, args.seeds))}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
