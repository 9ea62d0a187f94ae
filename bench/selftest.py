#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of a checkout:

    python3 bench/selftest.py

It runs every workload in the short mode, untraced and traced, and checks
that the result line names exactly the metrics BENCHMARK.json lists, with
their units; that no operation fails, and that only threshold_sweep has
refusals (compute_P and density_grid at the top of its range, which lower
ok_ratio); that an operation given a deliberately wrong reference, or a
refusal where none is allowed, counts as failed; and that a directory
holding only the benchmark's own files makes the benchmark exit non-zero
without a result. Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run

ROOT = run.BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--short"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def check_result_lines():
    names = [w["name"] for w in SPEC["workloads"]]
    import workloads
    assert names == list(workloads.BUILDERS), names
    for workload in names:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = _result(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(out) == {"correct", "attempted", "failed", "metrics"}
            expected = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            assert got == expected, (workload, trace, got)
            for name, metric in out["metrics"].items():
                assert math.isfinite(metric["value"]), (workload, name)
                # every metric is printed by name with its unit
                assert f" {name} " in proc.stdout, (workload, name)
            assert out["correct"] is True, (workload, trace)
            assert out["attempted"] >= 1
            assert out["failed"] == 0, (workload, out)
            refused = int(proc.stdout.split(" refused=")[1].split()[0])
            # the choose_params -> compute_P mismatch shows as refusals
            assert (refused > 0) == (workload == "threshold_sweep"), \
                (workload, refused)
            if trace == 0:
                ok_ratio = out["metrics"]["ok_ratio"]["value"]
                assert ok_ratio == 1.0 - refused / out["attempted"], out
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
                  f"{refused}/{out['attempted']} refused")


def check_wrong_reference():
    import workloads
    from racedensity.rs_method import ParameterError

    wl = workloads.build("races", 1)
    value, tol = workloads.PUBLISHED["zeta"]
    wrong = wl.ops[0]
    assert wrong.race == "zeta"
    wrong.check = workloads.near(value + 1e-9, allowance=tol,
                                 own_estimate=False)
    tally = run.Tally(wl, (ParameterError,), workloads.summarize)
    _, records = run.run_pass(wl.ops)
    tally.add(records, traced=False)
    assert (tally.attempted, tally.failed) == (len(wl.ops), 1)
    assert not tally.rows[0]["ok"] and all(r["ok"] for r in tally.rows[1:])
    print("ok  a wrong reference counts as a failed operation")


def check_refusal_not_allowed():
    import workloads
    from racedensity.rs_method import ParameterError

    wl = workloads.build("threshold_sweep", 1)
    _, records = run.run_pass(wl.ops)
    allowed = run.Tally(wl, (ParameterError,), workloads.summarize)
    allowed.add(records, traced=False)
    assert allowed.failed == 0 and allowed.refused > 0, vars(allowed)
    for op in wl.ops:
        op.may_refuse = False
    strict = run.Tally(wl, (ParameterError,), workloads.summarize)
    strict.add(records, traced=False)
    assert (strict.failed, strict.refused) == (allowed.refused, 0)
    print(f"ok  {allowed.refused} refusals count as failed where none is "
          "allowed")


def check_bare_directory():
    bare = run.RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in run.BENCH.glob("*.py"):
        shutil.copy(f, bare / "bench")
    try:
        proc = _result("races", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout
    print("ok  without the package sources the benchmark exits "
          f"{proc.returncode} and prints no result")


def main():
    run.prepare()
    check_wrong_reference()
    check_refusal_not_allowed()
    check_bare_directory()
    check_result_lines()
    print("selftest passed")


if __name__ == "__main__":
    main()
