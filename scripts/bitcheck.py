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
s = 0, 1, 10, 100, 1000 and 12527.41; aggregate_stats of each race at
u = 60, 140, 12000 and 14000 (the races and cumulant workloads' ranges)
and at zeta's 129th ordinate; and phat_prefix of each race at
w = 2, 4, ..., 70 and u = 140, 500, 2000 and 2999, so that a change to
the J0 kernel or the far zone shows its moves in the prefix itself; zeta
solves at u = 140 to 2999 reach w = 69.8. A tree whose phat_prefix takes
no cutoff u gives the same rows at every u. Each race is also solved by
race_result at u = 4.352, 60, 100, 140, 200, 500, 2000 and 2999.

For each operation it compares value, error_estimate, K, domega,
n_terms, n_zeros and the refusal text, and the result itself: each field
of a dataclass result, nested dataclasses such as TailStats.race
included, or else its repr; floats by float.hex. A cached property of a
dataclass result counts as a field, read after the operation, so a
field is compared whether a tree stores it or builds it on first read,
and a property that refuses records its refusal. A field
that only one tree's result has is not a difference: such fields are
listed at the end, each with the tree and the number of rows. Prints
every row that differs, then one line per workload (the published rows
and the prefix rows count as one more each) with the rows whose value
moved, the largest |dvalue|, the largest |dvalue| / |value| and the
largest |dvalue| / error_estimate, the estimate taken from this
checkout's row; then the rows whose error_estimate or n_terms
moved, how many of those rows' error_estimate rose and how many fell,
and the largest |d error_estimate| / error_estimate, taken from REF's
row. A change that moves counts and estimates but no value shows it
there, with the direction the estimates took. Then one line per workload with its largest error_estimate on
each tree and the -log10 of it, which is what bench/run.py reports as
err_digits.min, so that a move of that metric shows without a benchmark
run. Then one line per race: the spread (largest less smallest) of E
over the cutoffs where race_result answers, on each tree. Ends with a
count, and exits 1 when any row differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("races", "deep_cutoff", "cumulant", "threshold_sweep")
PUBLISHED_U = (500.0, 2000.0, 2999.0)
PUBLISHED_S = (0.0, 1.0, 10.0, 100.0, 1000.0, 12527.41)
# aggregate_stats alone; zeta's 129th ordinate joins them in dump()
STATS_U = (60.0, 140.0, 12000.0, 14000.0)
FIELDS = ("value", "error_estimate", "K", "domega", "n_terms", "n_zeros")
# 140, the races workload's largest cutoff, is within every bundled
# table; past a table's end phat_prefix refuses, and the refusal is
# compared like any other
PREFIX_U = (140.0,) + PUBLISHED_U
PREFIX_OMEGAS = tuple(2.0 * k for k in range(1, 36))
SPREAD_U = (4.352, 60.0, 100.0, 140.0, 200.0) + PUBLISHED_U


def _hex(v):
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, (list, tuple)):
        return [_hex(x) for x in v]
    if isinstance(v, dict):
        return {k: _hex(x) for k, x in v.items()}
    return v


def _fields(obj, prefix="field ") -> dict:
    # a dataclass's fields and cached properties, one key each, with
    # nested dataclasses (alone or in a tuple) spelled out under name. or
    # name[i]., and a property's refusal as its value
    out = {}
    names = [f.name for f in dataclasses.fields(obj)] + [
        name for name, attr in vars(type(obj)).items()
        if isinstance(attr, functools.cached_property)]
    for name in names:
        key = prefix + name
        try:
            v = getattr(obj, name)
        except Exception as exc:  # a refusal is an answer to compare
            out[key] = f"refusal: {type(exc).__name__}: {exc}"
            continue
        if dataclasses.is_dataclass(v):
            out.update(_fields(v, key + "."))
        elif isinstance(v, tuple) and v and all(
                map(dataclasses.is_dataclass, v)):
            for i, x in enumerate(v):
                out.update(_fields(x, f"{key}[{i}]."))
        else:
            out[key] = _hex(v)
    return out


def _row(name, summarize, run):
    # one operation's fields, or its refusal as type and message
    try:
        result = run()
    except Exception as exc:  # a refusal is an answer to compare
        return {"op": name, "refusal": f"{type(exc).__name__}: {exc}"}
    out = summarize(result)
    row = {"op": name}
    if dataclasses.is_dataclass(result):
        row.update(_fields(result))
    else:
        row["repr"] = repr(result)
    row.update((f, _hex(out[f])) for f in FIELDS)
    return row


def dump(tree: str, seeds) -> None:
    """Print one JSON line per operation, run against tree/src."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(ROOT, "bench")]
    import workloads
    from racedensity import rs_method as rs
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
    stats_u = STATS_U + (float(zd.bundled_table("zeta").gammas[128]),)
    for rname, race in workloads._races().items():
        for u in stats_u:
            print(json.dumps(_row(
                f"published {rname} aggregate_stats u={u!r}",
                workloads.summarize, lambda: zd.aggregate_stats(race, u))))
        for u in PUBLISHED_U:
            print(json.dumps(_row(
                f"published {rname} aggregate_stats u={u:g}",
                workloads.summarize, lambda: zd.aggregate_stats(race, u))))
            for s in PUBLISHED_S:
                print(json.dumps(_row(
                    f"published {rname} l0_full u={u:g} s={s:g}",
                    workloads.summarize, lambda s=s: tr.l0_full(
                        s, race, zd.aggregate_stats(race, u)))))
        takes_u = "u" in inspect.signature(tr.phat_prefix).parameters
        for u in PREFIX_U:
            cutoff = (u,) if takes_u else ()
            print(json.dumps(_row(
                f"prefix {rname} phat_prefix u={u:g}", workloads.summarize,
                lambda: tr.phat_prefix(PREFIX_OMEGAS, race, *cutoff))))
        for u in SPREAD_U:
            print(json.dumps(_row(
                f"spread {rname} race_result u={u:g}", workloads.summarize,
                lambda: rs.race_result(race, zd.aggregate_stats(race, u)))))


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


def _estimate_move(a, b) -> float:
    # d error_estimate / |error_estimate| of REF's row, signed, 0 where
    # either row has none
    old, new = _floats(a.get("error_estimate")), _floats(b.get("error_estimate"))
    if not (old and new) or old == new:
        return 0.0
    delta = new[0] - old[0]
    return delta / abs(old[0]) if old[0] else math.copysign(math.inf, delta)


def summary(ref_rows, new_rows) -> list:
    """One line per workload on how far the values and estimates moved."""
    groups = {}
    for a, b in zip(ref_rows, new_rows):
        group = groups.setdefault(a["op"].split()[0],
                                  [0, 0, 0.0, 0.0, None, 0, 0.0, 0, 0])
        group[0] += 1
        if any(a.get(f) != b.get(f) for f in ("error_estimate", "n_terms")):
            move = _estimate_move(a, b)
            group[5] += 1
            group[6] = max(group[6], abs(move))
            group[7] += move > 0.0
            group[8] += move < 0.0
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
            f"{'n/a' if ratio is None else f'{ratio:.3g}'}; {est_moved} "
            f"moved error_estimate or n_terms, error_estimate rose in "
            f"{rose} and fell in {fell}, largest relative estimate move "
            f"{est_rel:.3g}"
            for name, (rows, moved, delta, rel, ratio, est_moved, est_rel,
                       rose, fell) in groups.items()]


def largest_estimates(rows) -> dict:
    """Per workload, the largest error_estimate of its rows, refusals
    aside: bench/run.py's err_digits.min is -log10 of it."""
    out = {}
    for row in rows:
        name = row["op"].split()[0]
        out[name] = max([out.get(name, 0.0),
                         *_floats(row.get("error_estimate"))])
    return out


def _digits(est: float) -> str:
    # bench/run.py's err_digits.min of a largest estimate
    return f"{-math.log10(max(est, 1e-300)):.4f}"


def spreads(rows) -> dict:
    """Per race, the spread of E over the cutoffs where race_result
    answers, and how many answered."""
    values = {}
    for row in rows:
        kind, race = row["op"].split()[:2]
        if kind == "spread" and "value" in row:
            values.setdefault(race, []).append(float.fromhex(row["value"]))
    return {race: (max(v) - min(v), len(v)) for race, v in values.items()}


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
    one_sided = {}
    for a, b in zip(ref_rows, new_rows):
        for k in a.keys() ^ b.keys():
            if k.startswith("field "):
                side = args.ref if k in a else "here"
                key = (re.sub(r"\[\d+\]", "[]", k), side)
                one_sided.setdefault(key, set()).add(a["op"])
        keys = [k for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)
                and not (k.startswith("field ") and (k in a) != (k in b))]
        if keys:
            differ += 1
            print(a["op"])
            for k in keys:
                print(f"  {k}: " + _show(a.get(k), b.get(k)))
    for (key, side), rows in sorted(one_sided.items()):
        print(f"{key[6:]}: only at {side}, in {len(rows)} rows")
    for line in summary(ref_rows, new_rows):
        print(line)
    old, new = largest_estimates(ref_rows), largest_estimates(new_rows)
    for name in dict.fromkeys([*old, *new]):
        a, b = old.get(name, 0.0), new.get(name, 0.0)
        print(f"largest error_estimate, {name}: {a:.3g} at {args.ref} "
              f"({_digits(a)} digits), {b:.3g} here ({_digits(b)} digits)")
    old, new = spreads(ref_rows), spreads(new_rows)
    for race in dict.fromkeys([*old, *new]):
        (a, na), (b, nb) = old.get(race, (0.0, 0)), new.get(race, (0.0, 0))
        print(f"E spread over cutoffs, {race}: {a:.3g} over {na} at "
              f"{args.ref}, {b:.3g} over {nb} here")
    refusals = sum("refusal" in r for r in new_rows)
    print(f"{differ} of {len(new_rows)} rows differ ({refusals} refusals) "
          f"against {args.ref}, seeds {' '.join(map(str, args.seeds))}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
