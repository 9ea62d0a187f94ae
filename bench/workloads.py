"""The four benchmark workloads.

Each workload turns a seed into a fixed list of operations (calls into
the package's public API) and gives every operation a check against a
reference that does not come from the call being timed. The package
only ever sees the generated inputs.

Where a workload takes several values from one range, they are drawn
stratified: the range is cut into equal parts and one value is drawn
uniformly inside each. A pass then covers the whole range on every seed,
so the work in a pass, and with it the timing medians, depends little on
the seed, while each individual input still does.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from racedensity import rs_method as rs
from racedensity import transforms as tr
from racedensity import zerodata as zd
from racedensity.race import prime_count_race, square_race, two_way_race
from racedensity.results import DensityResult

TARGET = 1e-11

# error_estimate leaves out double rounding. The lattice sums cancel
# order-one terms, so a few 1e-16 of rounding remain that no estimate
# covers: zeta's E(1) at u = 200 and at u = 1000 differ by 2.8e-17 while
# each reports an estimate near 1e-20. Scaled by max(1, |reference|).
ROUNDING_FLOOR = 1e-15

# relative allowance for cumulant values at small s, where two cutoffs
# agree to a few 1e-16: far below the 1e-4 the saddle check allows, yet
# above the 1.5e-11 by which an array log-I0 kernel's sums may differ
CUMULANT_FLOOR = 1e-10

EULER_GAMMA = 0.57721566490153286

# Rubinstein-Sarnak, "Chebyshev's bias" (1994), and Feuerverger-Martin,
# "Biases in the Shanks-Renyi prime number race" (2000): value and the
# rounding of the printed digits
PUBLISHED = {
    "zeta": (2.629967324e-7, 1e-15),
    "q4.square": (0.004072076720775, 1e-13),
    "q5.1v2": (0.0478254, 5e-8),
    "q13.square": (0.0556810, 5e-8),
}

# races without printed digits are checked against the same race solved
# at a cutoff outside the drawn range
SECOND_CUTOFF = 200.0


def _races():
    return {
        "zeta": prime_count_race(),
        "q4.square": square_race(4),
        "q5.1v2": two_way_race(5, 1, 2),
        "q13.square": square_race(13),
        "q8.1v3": two_way_race(8, 1, 3),
        "q24.1v5": two_way_race(24, 1, 5),
    }


@dataclass
class Op:
    """One timed call. run(state) calls the package; state is shared by
    the operations of one pass so later calls can use earlier results.
    check(summary) -> (distance from the reference or None, ok) runs
    outside the timed region. may_refuse marks the operations whose
    refusal (ParameterError) is an answer, counted as refused rather than
    failed; anywhere else a refusal is a failure."""

    kind: str
    race: str
    x: dict
    run: Callable[[dict], Any]
    check: Callable[[dict], tuple]
    may_refuse: bool = False
    host_kernel: str = "mixed"   # the host-speed kernel half it follows


@dataclass
class Workload:
    name: str
    seed: int
    ops: list
    tables: tuple   # bundled table keys the operations read


def stratified(rng: random.Random, lo: float, hi: float, n: int) -> list:
    width = (hi - lo) / n
    return [lo + (i + rng.random()) * width for i in range(n)]


# ----------------------------------------------------------------- checks

def near(ref, allowance: float = 0.0, rel: float = 0.0,
         own_estimate: bool = True):
    """Check a value (or array) against ref within allowance + rel*|ref|,
    plus the operation's own error_estimate when it reports one."""
    ref_arr = np.asarray(ref, dtype=float)

    def check(out):
        got = np.asarray(out["value"], dtype=float)
        if got.shape != ref_arr.shape:
            return None, False
        dist = np.abs(got - ref_arr)
        tol = allowance + rel * np.abs(ref_arr)
        if own_estimate and out.get("error_estimate") is not None:
            tol = tol + out["error_estimate"]
        return float(np.max(dist)), bool(np.all(dist <= tol))
    return check


def holds(predicate):
    """Check an intermediate result by an invariant it must satisfy; its
    values are checked through the operations that consume it."""
    def check(out):
        return None, bool(predicate(out["result"]))
    return check


def summarize(result) -> dict:
    """The row fields of one result: value, error_estimate and sizes."""
    out = {"result": result, "value": None, "error_estimate": None,
           "K": None, "domega": None, "n_terms": None, "n_zeros": None}
    if isinstance(result, DensityResult):
        p = result.params
        out.update(value=result.p if math.isnan(result.log_e) else result.e,
                   error_estimate=result.error_estimate, K=p["K"],
                   domega=p["domega"], n_terms=p["n_terms"],
                   n_zeros=p["n_zeros"])
    elif isinstance(result, zd.TailStats):
        out.update(value=result.sigma0 ** 2, n_zeros=result.n_zeros)
    elif isinstance(result, rs.RSParams):
        out.update(K=result.K, domega=result.domega)
    elif isinstance(result, tuple) and all(
            isinstance(s, rs.PhatSample) for s in result):
        out.update(n_terms=sum(1 for s in result if s.tail != 0.0))
    elif isinstance(result, tr.LDerivs):
        out.update(value=result.value, error_estimate=result.error_estimate)
    elif isinstance(result, np.ndarray):
        out.update(value=[float(x) for x in result])
    return out


# -------------------------------------------------------------- workloads

def _solve(race, u):
    def run(state):
        stats = zd.aggregate_stats(race, u)
        return rs.race_result(race, stats=stats, target=TARGET)
    return run


def _solve_check(name, race):
    if name in PUBLISHED:
        value, tol = PUBLISHED[name]
        return near(value, allowance=tol, own_estimate=False)
    ref = rs.race_result(race, stats=zd.aggregate_stats(race, SECOND_CUTOFF),
                         target=TARGET)
    return near(ref.e, allowance=ref.error_estimate
                + ROUNDING_FLOOR * max(1.0, abs(ref.e)))


def _solve_workload(name, seed, races, lo, hi, per_race, host_kernel):
    """Each race solved end to end at per_race cutoffs drawn from [lo, hi]."""
    rng = random.Random(seed)
    ops = []
    for rname, race in races.items():
        check = _solve_check(rname, race)
        for u in stratified(rng, lo, hi, per_race):
            ops.append(Op("race_result", rname, {"u": u}, _solve(race, u),
                          check, host_kernel=host_kernel))
    return Workload(name, seed, ops, _table_keys(races.values()))


def races_workload(seed: int) -> Workload:
    """The six published races, each solved at five cutoffs in [60, 140].

    Five per race, rather than one, fill each race's spread of solve
    times, so the median operation does not hinge on a single draw (the
    same holds for deep_cutoff)."""
    return _solve_workload("races", seed, _races(), 60.0, 140.0, 5, "mixed")


def deep_cutoff_workload(seed: int) -> Workload:
    """pi vs Li and mod 4 at five cutoffs each in [1500, 2999]: 1-3k
    explicit zeros and 160-250 lattice terms per solve."""
    all_races = _races()
    races = {k: all_races[k] for k in ("zeta", "q4.square")}
    return _solve_workload("deep_cutoff", seed, races, 1500.0, 2999.0, 5,
                           "array")


def _stats_op(name, race, u, key, check):
    def run(state):
        state[key] = zd.aggregate_stats(race, u)
        return state[key]
    return Op("aggregate_stats", name, {"u": u}, run, check)


def _l0_op(name, race, s, u, key, check):
    def run(state):
        return tr.l0_full(s, race, state[key])
    return Op("l0_full", name, {"u": u, "s": s}, run, check)


def _l0_ref(race, s, u_ref, rel):
    ref = tr.l0_full(s, race, zd.aggregate_stats(race, u_ref))
    return near(ref.value, allowance=ref.error_estimate, rel=rel)


def cumulant_workload(seed: int) -> Workload:
    """l0_full for pi vs Li at u in [12000, 14000], s = 1, 10, 100 and
    12527.41, plus q5 1v2 (a conjugate-pair table) at u = 250 and nine
    s in [1, 20]; the median operation falls among the q5 calls.

    Each zeta s gets its own cutoff: s = 1, 10 and 100 one per third of
    the range, so a pass's work hardly depends on the draw, and the saddle
    s = 12527.41 in [13750, 14000], where its error_estimate, which grows
    steeply as u falls, varies by a quarter at most.
    """
    rng = random.Random(seed)
    zeta, q5 = prime_count_race(), two_way_race(5, 1, 2)
    ops = []
    variance = 2.0 + EULER_GAMMA - math.log(4.0 * math.pi)
    saddle = 12527.41
    saddle_refs = [tr.l0_full(saddle, zeta, zd.aggregate_stats(zeta, u)).value
                   for u in (12000.0, 14000.0)]
    cutoffs = stratified(rng, 12000.0, 14000.0, 3) + [
        rng.uniform(13750.0, 14000.0)]
    for s, u in zip((1.0, 10.0, 100.0, saddle), cutoffs):
        key = ("zeta", u)
        ops.append(_stats_op("zeta", zeta, u, key,
                             near(variance, rel=1e-12, own_estimate=False)))
        if s == saddle:
            # the u = 12000 and u = 14000 values agree with it to 1e-4
            checks = [near(r, rel=1e-4, own_estimate=False)
                      for r in saddle_refs]
            check = _all_of(checks)
        else:
            check = _l0_ref(zeta, s, 2000.0, CUMULANT_FLOOR)
        ops.append(_l0_op("zeta", zeta, s, u, key, check))
    u5 = 250.0
    key = ("q5.1v2", u5)
    # d2(0) = sigma0^2: the cumulant's curvature at 0 is the variance
    d2_0 = tr.l0_full(0.0, q5, zd.aggregate_stats(q5, u5)).d2
    ops.append(_stats_op("q5.1v2", q5, u5, key,
                         near(d2_0, rel=1e-12, own_estimate=False)))
    for s in stratified(rng, 1.0, 20.0, 9):
        ops.append(_l0_op("q5.1v2", q5, s, u5, key,
                          _l0_ref(q5, s, 150.0, CUMULANT_FLOOR)))
    for op in ops:
        op.host_kernel = "array" if op.race == "zeta" else "scalar"
    return Workload("cumulant", seed, ops, _table_keys((zeta, q5)))


def _all_of(checks):
    def check(out):
        results = [c(out) for c in checks]
        return (max(d for d, _ in results), all(ok for _, ok in results))
    return check


V_MAX = 3.0
N_THRESHOLDS = 200
GRID_BLOCK = 50
# compute_P and density_grid may refuse from here to v_max; measured, they
# refuse the top 8-14% of [0, v_max], so a refusal below this is a failure
REFUSE_FROM = 0.75 * V_MAX


def threshold_sweep_workload(seed: int) -> Workload:
    """pi vs Li and mod 4 with stats, choose_params(v_max = 3) and samples
    built once per pass, then compute_E and compute_P at 200 thresholds
    across all of [0, v_max] and density_grid on blocks of 50 of them.

    choose_params sizes the step for the exceedance bound only, so
    compute_P and density_grid refuse the top of the range. Those
    refusals are counted apart, as refused (they lower ok_ratio); they are
    not failures, because the package reports them as out of its range
    rather than answering wrongly. A refusal below REFUSE_FROM, or of any
    other operation, is a failure.
    """
    rng = random.Random(seed)
    all_races = _races()
    ops = []
    for name in ("zeta", "q4.square"):
        race = all_races[name]
        # a narrow cutoff range: the work here is the reduction, and a
        # pass's cost should not follow the drawn cutoff
        u = rng.uniform(90.0, 110.0)
        vs = stratified(rng, 0.0, V_MAX, N_THRESHOLDS)
        ref = _sweep_reference(race, vs)
        ops += _sweep_ops(name, race, u, vs, ref)
    return Workload("threshold_sweep", seed, ops,
                    _table_keys(all_races[k] for k in ("zeta", "q4.square")))


def _sweep_reference(race, vs):
    """E and P at every threshold from a second cutoff, with a step sized
    one unit past v_max so no reference value is refused."""
    stats = zd.aggregate_stats(race, SECOND_CUTOFF)
    params = rs.choose_params(V_MAX + 1.0, stats, TARGET)
    samples = rs.phat_samples(race, params, stats)
    e = [rs.compute_E(v, race, params, stats=stats, samples=samples)
         for v in vs]
    p = [rs.compute_P(v, race, params, stats=stats, samples=samples)
         for v in vs]
    d2_0 = tr.l0_full(0.0, race, stats).d2
    return {"E": e, "P": p, "d2_0": d2_0}


def _sweep_ops(name, race, u, vs, ref):
    st, pk, sk = (name, "stats"), (name, "params"), (name, "samples")

    def choose(state):
        state[pk] = rs.choose_params(V_MAX, state[st], TARGET)
        return state[pk]

    def samples(state):
        state[sk] = rs.phat_samples(race, state[pk], state[st])
        return state[sk]

    def evaluate(kind, v):
        # looked up per call, so a traced pass sees the traced function
        return lambda state: getattr(rs, kind)(
            v, race, state[pk], stats=state[st], samples=state[sk])

    def grid(block):
        return lambda state: rs.density_grid(block, race, state[pk],
                                             stats=state[st])

    ops = [
        _stats_op(name, race, u, st,
                  near(ref["d2_0"], rel=1e-12, own_estimate=False)),
        Op("choose_params", name, {"u": u}, choose, holds(
            lambda p: p.v_max == V_MAX and 2.0 * math.pi / p.domega > V_MAX)),
        Op("phat_samples", name, {"u": u}, samples, holds(
            lambda ss: len(ss) > 0 and all(
                math.isfinite(s.phat) and abs(s.phat) <= 1.0 for s in ss))),
    ]
    for v, e_ref, p_ref in zip(vs, ref["E"], ref["P"]):
        for kind, r in (("compute_E", e_ref), ("compute_P", p_ref)):
            value = r.e if kind == "compute_E" else r.p
            ops.append(Op(kind, name, {"u": u, "v": v}, evaluate(kind, v),
                          near(value, allowance=r.error_estimate
                               + ROUNDING_FLOOR * max(1.0, abs(value))),
                          may_refuse=kind == "compute_P"
                          and v >= REFUSE_FROM))
    for i in range(0, len(vs), GRID_BLOCK):
        block = np.array(vs[i:i + GRID_BLOCK])
        p_ref = ref["P"][i:i + GRID_BLOCK]
        # density_grid reports no estimate: allow the accuracy target
        # its parameters were chosen for
        allowance = TARGET + max(r.error_estimate for r in p_ref) \
            + ROUNDING_FLOOR * max(1.0, max(r.p for r in p_ref))
        ops.append(Op("density_grid", name,
                      {"u": u, "v": [float(block[0]), float(block[-1])]},
                      grid(block), near([r.p for r in p_ref],
                                        allowance=allowance),
                      may_refuse=float(block[-1]) >= REFUSE_FROM))
    return ops


def _table_keys(races) -> tuple:
    keys = []
    for race in races:
        for entry in race.characters:
            if entry.table not in keys:
                keys.append(entry.table)
    return tuple(keys)


BUILDERS = {
    "races": races_workload,
    "deep_cutoff": deep_cutoff_workload,
    "cumulant": cumulant_workload,
    "threshold_sweep": threshold_sweep_workload,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
