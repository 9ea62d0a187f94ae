#!/usr/bin/env python3
"""Benchmark of the racedensity pipeline, from zero tables to densities.

Run from the root of a checkout:

    python3 bench/run.py --workload races --seed 1 --seconds 15 --trace 0

Workloads (bench/workloads.py): races, deep_cutoff, cumulant and
threshold_sweep. A run builds the workload's inputs from the seed, times
the setup in fresh interpreters, runs one warm-up pass, then repeats
passes over the operation list for --seconds. Every operation's result is
checked against its reference after the pass, outside the timed region.

--trace 0 reports the end-to-end metrics, with every time scaled to a
reference host speed (see CAL_REF_S). --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of the traced ones
(bench/tracer.py), unscaled, plus the tracing overhead. --short runs a
single pass of each kind with no warm-up, for the self-test
(bench/selftest.py).

Stdout ends with one JSON line {"correct", "attempted", "failed",
"metrics"}; the lines before it print each metric with its unit. One JSON
row per operation of the workload, merged over the passes, goes to
bench/results/<workload>-seed<seed>-trace<t>.jsonl, and the spans of a
traced run to a .spans.jsonl beside it. The package runs in this one
process, with BLAS and OpenMP pools capped to the CPUs it may use.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from array import array
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"

N_SETUP = 7          # fresh interpreters timed for setup_s
MIN_PASSES = 3       # measured passes at least, whatever --seconds says
MIN_TRACED = 2       # traced and untraced passes at least, with --trace 1

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "err_digits.min": "digits",
    "ok_ratio": "1",
    "peak_rss_mb": "MB",
}

# Timings are scaled to a reference host speed. On the 2-core VM this
# benchmark was tuned on, the same pass ran up to 2.2x slower from one
# ten-second stretch to the next, under other tenants' load, and process
# CPU time drifted with wall time, so medians alone do not settle. A
# fixed kernel of interpreted scalar math and long-double array work,
# timed between operations, slowed down with the package. Each pass is
# divided by the kernel's median time over its last CAL_WINDOW_S seconds
# relative to its reference time, the kernel's median time on that VM
# (Python 3.11, numpy 2.4) when it ran fastest. The host swung between
# a fast and a slow state, and the interpreted scalar half slowed by more
# than the long-double array half, so each operation is scaled by the
# half its own time followed best there (Op.host_kernel): the J0 prefix
# and the zeta log-I0 sums by the array half, whose scaled pass times
# spread half as much as by the whole kernel; the small q5 cumulant calls
# by the scalar half; the rest by both.
CAL_REF_S = {"mixed": 0.0035, "scalar": 0.0021, "array": 0.0014}
CAL_EVERY_S = 0.1    # a kernel sample between operations this often
CAL_WINDOW_S = 1.0

WARNING_CATEGORIES = ("UserWarning", "AccuracyWarning", "RuntimeWarning")

# the child times the host-speed kernel itself, after the setup it is
# timed for, so the scaling comes from the same process and moment
_SETUP_CODE = """import sys, time
sys.path.insert(0, sys.argv[1])
from racedensity import rs_method, transforms
from racedensity.zerodata import bundled_table
for key in sys.argv[3:]:
    bundled_table(key)
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from run import HostSpeed
host = HostSpeed()
for _ in range(5):
    host.sample()
print(time.perf_counter() - t0, host.factor(t0))
"""


def prepare() -> None:
    """Cap thread pools to the CPUs this process may use and put the
    checkout's src/ first on the import path. Exits with status 2 when the
    package sources are missing."""
    if not (SRC / "racedensity" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC}; run from the root of a "
              f"checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    affinity = getattr(os, "sched_getaffinity", None)
    threads = str(len(affinity(0)) if affinity else os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))


def measure_setup(tables, n: int) -> list:
    """Seconds for a fresh interpreter to import the package and load the
    workload's bundled tables cold (tables are cached per process), each
    divided by the host-speed factor the child measured right after."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH), *tables],
            check=True, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        after, factor = map(float, proc.stdout.split())
        times.append((wall - after) / factor)
    return times


def _kernel_term(w):
    if w < 3.0:
        t = 0.25 * w * w
        return math.log1p(t * (1.0 + t * (0.25 + t / 36.0)))
    return w - 0.5 * math.log(2.0 * math.pi * w) + math.log1p(0.125 / w)


class HostSpeed:
    """Samples of a fixed kernel's time, taken as a run goes, that say how
    much slower than the reference host the run went at each moment. The
    kernel has a scalar and an array half, timed apart; factor() takes
    either half or both ("mixed"), as an operation's host_kernel says."""

    def __init__(self):
        import numpy as np
        self._z = np.linspace(0.0, 6.0, 5000).astype(np.longdouble)
        self.samples = []    # (end time, scalar seconds, array seconds)
        self.last = -math.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        math.fsum([_kernel_term(i * 1e-3) for i in range(6000)])
        t1 = time.perf_counter()
        q = 0.25 * self._z * self._z
        acc = q + 1.0
        for _ in range(25):
            acc = acc * q + 1.0
        self.last = time.perf_counter()
        self.samples.append((self.last, t1 - t0, self.last - t1))

    def due(self) -> bool:
        return time.perf_counter() - self.last >= CAL_EVERY_S

    def factor(self, since: float, kernel: str = "mixed") -> float:
        """Median kernel time since `since` (at least the latest sample)
        over the reference time."""
        recent = [x for x in self.samples if x[0] >= since] \
            or self.samples[-1:]
        part = {"scalar": lambda x: x[1], "array": lambda x: x[2],
                "mixed": lambda x: x[1] + x[2]}[kernel]
        return statistics.median(map(part, recent)) / CAL_REF_S[kernel]


def run_pass(ops, host=None):
    """Run every operation once, sampling the host-speed kernel between
    operations when one is due. Returns the summed operation time and,
    per operation, (op, result, exception, seconds, warnings caught,
    host-speed factor over the pass for its kernel, 1.0 without a
    host)."""
    state, marks = {}, []
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        for op in ops:
            if host is not None and host.due():
                host.sample()
            n_warn = len(log)
            t0 = time.perf_counter()
            try:
                result, error = op.run(state), None
            except Exception as exc:  # recorded as a failed operation
                # without its traceback, whose frame would tie this pass's
                # results into a cycle only the garbage collector frees
                result, error = None, exc.with_traceback(None)
            marks.append((op, result, error, time.perf_counter() - t0,
                          n_warn, len(log)))
    factors = {}
    if host is not None:
        host.sample()
        end = time.perf_counter()
        since = end - max(CAL_WINDOW_S, end - start)
        factors = {k: host.factor(since, k) for k in CAL_REF_S}
    return (sum(m[3] for m in marks),
            [(op, res, err, dt, log[a:b],
              factors.get(op.host_kernel, 1.0))
             for op, res, err, dt, a, b in marks])


def _num(x):
    if isinstance(x, list):
        return [_num(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


class Tally:
    """Per-operation results merged over the measured passes: one output
    row per operation of the workload, plus the run's counts. Times are
    kept from untraced passes only."""

    def __init__(self, workload, refusals, summarize):
        self.refusals, self.summarize = refusals, summarize
        self.rows = [{
            "workload": workload.name, "seed": workload.seed, "op": op.kind,
            "race": op.race, "u": op.x.get("u"), "v": op.x.get("v"),
            "s": op.x.get("s"), "passes": 0, "failed_passes": 0,
            "refused_passes": 0,
        } for op in workload.ops]
        self.times = [array("d") for _ in workload.ops]
        self.attempted = self.failed = self.refused = 0

    def add(self, records, traced) -> list:
        """Check one pass against the references and merge it in, keeping
        untraced times divided by their host-speed factors. Returns the
        pass's per-operation verdicts."""
        verdicts = []
        for row, times, (op, result, error, seconds, caught, factor) in zip(
                self.rows, self.times, records):
            out = self.summarize(result)
            distance, ok = (None, False) if error is not None \
                else op.check(out)
            est = out["error_estimate"]
            # a refusal where the workload allows one is an answer, not a
            # failure; anything else that raised, and any value outside its
            # reference, is a failure
            refused = op.may_refuse and isinstance(error, self.refusals)
            failed = not ok and not refused
            verdict = {
                "K": out["K"], "domega": out["domega"],
                "n_terms": out["n_terms"], "n_zeros": out["n_zeros"],
                "value": _num(out["value"]), "error_estimate": _num(est),
                "distance": _num(distance), "ok": ok, "refused": refused,
                "error": None if error is None
                else f"{type(error).__name__}: {error}",
                "err_est_exceeded": distance is not None and est is not None
                and distance > est,
                "warnings": dict(Counter(w.category.__name__
                                         for w in caught)),
            }
            verdicts.append(verdict)
            row.update(verdict)
            row["passes"] += 1
            row["failed_passes"] += failed
            row["refused_passes"] += refused
            if not traced:
                times.append(1e3 * seconds / factor)
            self.attempted += 1
            self.failed += failed
            self.refused += refused
        return verdicts

    def op_medians(self):
        """Each operation's median time over the untraced passes. The
        percentiles are taken over these, so they rank the workload's
        operations and do not follow how often the host stalled a call."""
        import numpy as np
        return np.array([statistics.median(t) for t in self.times if t])

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for row, times in zip(self.rows, self.times):
                row["time_ms"] = statistics.median(times) if times else None
                row["ok"] = row["failed_passes"] == 0
                fh.write(json.dumps(row) + "\n")


def check_values(verdicts) -> dict:
    """Per-layer counts that come from the checks, for one pass."""
    out = {"rs_method.err_est_exceeded":
           float(sum(v["err_est_exceeded"] for v in verdicts))}
    seen = Counter()
    for v in verdicts:
        seen.update(v["warnings"])
    for cat in WARNING_CATEGORIES:
        out["warnings." + cat] = float(seen.pop(cat, 0))
    out["warnings.other"] = float(sum(seen.values()))
    return out


def end_to_end(tally, pass_times, setup_times, peak_rss) -> dict:
    """The end-to-end metrics, from times already scaled to the
    reference host speed."""
    import numpy as np
    p50, p90 = np.percentile(tally.op_medians(), [50, 90])
    estimates = [r["error_estimate"] for r in tally.rows
                 if r.get("error_estimate") is not None]
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(pass_times),
        "op_ms.p50": float(p50),
        "op_ms.p90": float(p90),
        "err_digits.min": -math.log10(max(max(estimates, default=0.0),
                                          1e-300)),
        "ok_ratio": 1.0 - (tally.failed + tally.refused) / tally.attempted,
        "peak_rss_mb": peak_rss,
    }


def _print_summary(args, tally, metrics, units, notes):
    print(f"racedensity benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} attempted={tally.attempted} "
          f"failed={tally.failed} refused={tally.refused} "
          f"refused_ratio={tally.refused / tally.attempted:.6g}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:<14.6g} {units[name]:6s} "
              f"{notes.get(name, '')}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("races", "deep_cutoff", "cumulant",
                            "threshold_sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true",
                   help="one pass of each kind, no warm-up (self-test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare()
    import workloads
    from racedensity.rs_method import ParameterError
    from racedensity.transforms import ConvergenceError
    from tracer import LAYER_METRICS, Tracer

    refusals = (ParameterError, ConvergenceError)
    with warnings.catch_warnings():
        # the references' own warnings; the timed calls record theirs
        warnings.simplefilter("ignore")
        workload = workloads.build(args.workload, args.seed)
    # traced runs report untraced per-layer times and no scaled metric
    host = None if args.trace else HostSpeed()
    setup_times = [] if args.trace else measure_setup(
        workload.tables, 1 if args.short else N_SETUP)
    if not args.short:
        run_pass(workload.ops, host)
    tracer = Tracer() if args.trace else None
    tally = Tally(workload, refusals, workloads.summarize)
    untraced_s, traced_s, scaled_s, layer_passes = [], [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        pass_start = time.perf_counter()
        traced = bool(args.trace) and index % 2 == 1
        if traced:
            tracer.install(index)
        try:
            pass_s, records = run_pass(workload.ops, host)
        finally:
            if traced:
                tracer.uninstall()
        verdicts = tally.add(records, traced)
        if traced:
            traced_s.append(pass_s)
            tracer.load_probe(workload.tables)
            layer_passes.append({**tracer.layer_values(),
                                 **check_values(verdicts)})
        else:
            untraced_s.append(pass_s)
            scaled_s.append(sum(r[3] / r[5] for r in records))
        index += 1
        # stop where the run comes nearest to --seconds
        now = time.perf_counter()
        over = now - start + 0.5 * (now - pass_start) >= args.seconds
        if args.short:
            done = index >= (2 if args.trace else 1)
        elif args.trace:
            done = over and min(len(untraced_s), len(traced_s)) >= MIN_TRACED
        else:
            done = over and index >= MIN_PASSES
        if done:
            break
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        units = LAYER_METRICS
        metrics = {name: statistics.median(p[name] for p in layer_passes)
                   for name in units if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.median(traced_s) \
            - statistics.median(untraced_s)
        notes = {"trace.overhead_s": f"{len(traced_s)} traced against "
                 f"{len(untraced_s)} untraced passes"}
        if tracer.missing:
            print("bench: no hook for " + ", ".join(sorted(tracer.missing)),
                  file=sys.stderr)
    else:
        units = END_TO_END
        metrics = end_to_end(tally, scaled_s, setup_times, peak_rss)
        medians = tally.op_medians()
        counts = (f"over the medians of {len(medians)} operations across "
                  f"{len(scaled_s)} passes, "
                  f"{int((medians > metrics['op_ms.p90']).sum())} above p90")
        factors = [(s + a) / CAL_REF_S["mixed"] for _, s, a in host.samples]
        notes = {
            "setup_s": f"median of {len(setup_times)} fresh interpreters",
            "pass_s": f"median of {len(untraced_s)} passes "
                      f"({'no' if args.short else 'after one'} warm-up); "
                      f"{statistics.median(untraced_s):.4g} s unscaled, "
                      f"host at {statistics.median(factors):.3f}x reference "
                      f"time over {len(factors)} kernel samples",
            "op_ms.p50": counts,
            "op_ms.p90": counts,
            "err_digits.min": "-log10 of the largest error_estimate, "
                              f"{10.0 ** -metrics['err_digits.min']:.3g}",
            "ok_ratio": "1 - (failed + refused) / attempted",
        }

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tally.write(f"{stem}.jsonl")
    if tracer is not None:
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for pass_index, name, t0, t1, parent in tracer.spans:
                fh.write(json.dumps({"pass": pass_index, "name": name,
                                     "start": t0, "end": t1,
                                     "parent": parent}) + "\n")

    _print_summary(args, tally, metrics, units, notes)
    print(f"rows: {os.path.relpath(stem)}.jsonl")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
