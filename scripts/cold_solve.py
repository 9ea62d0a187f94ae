#!/usr/bin/env python3
"""Time a cold first solve: one race_result for each of the six published
races, in a fresh interpreter, so that no per-table cache has been built.

Run from the root of a checkout:

    python3 scripts/cold_solve.py --seed S

Each race is solved once at a cutoff drawn from [60, 140] with the seed,
at target 1e-11. Tables are loaded, their suffix sums built and the J0
kernel's Taylor coefficients built before the solve clock starts. Prints
one JSON line: the time to import the package and load the six races'
tables (import_ms), the first-use build of those tables' suffix sums
(index_ms), the first-use build of the J0 coefficients (j0_build_ms),
the summed aggregate_stats time (stats_ms), the time of all six solves,
aggregate_stats included (solve_ms), and which of the heavy modules
scipy and numpy.ma the solves imported (heavy_modules). After the
solves, a fresh copy of the zeta table, read from its file outside the
clock under another label, gives the time of one cold l0_full at
s = 10 (cold_l0_ms), with its aggregate_stats outside the clock: it
includes the first-use build of the suffix sums and of the columns its
log-I0 series reads. A second l0_full on the same record, at s = 20,
gives the time of a warm call (warm_l0_ms), which builds no more sums
than its split reaches.
Compare two checkouts by running each in turn, alternating which goes
first.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import replace

HEAVY_MODULES = ("scipy", "numpy.ma")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    seed = ap.parse_args().seed
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from racedensity import rs_method as rs
    from racedensity import specfun
    from racedensity import zerodata as zd
    from racedensity.transforms import l0_full
    from racedensity.race import prime_count_race, square_race, two_way_race
    races = [prime_count_race(), square_race(4), two_way_race(5, 1, 2),
             square_race(13), two_way_race(8, 1, 3), two_way_race(24, 1, 5)]
    for race in races:
        for entry in race.characters:
            zd.resolve_table(entry)
    import_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for race in races:
        for entry in race.characters:
            zd.resolve_table(entry)._suffix_sums
    index_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    specfun._j0_near_coeffs()
    j0_build_s = time.perf_counter() - t0
    rng = random.Random(seed)
    cutoffs = [60.0 + 80.0 * rng.random() for _ in races]
    stats_s = 0.0
    start = time.perf_counter()
    for race, u in zip(races, cutoffs):
        t0 = time.perf_counter()
        stats = zd.aggregate_stats(race, u)
        stats_s += time.perf_counter() - t0
        rs.race_result(race, stats=stats, target=1e-11)
    solve_s = time.perf_counter() - start
    # pi vs Li on a table read from zeta's file, under another label, so
    # that no sum is cached: one cold l0_full
    zeta = races[0]
    fresh = replace(zeta, characters=(replace(
        zeta.characters[0], label="zeta (cold copy)",
        table=zd.resolve_table(zeta.characters[0]).source),))
    zd.resolve_table(fresh.characters[0])
    stats = zd.aggregate_stats(fresh, 14000.0)
    t0 = time.perf_counter()
    l0_full(10.0, fresh, stats)
    cold_l0_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    l0_full(20.0, fresh, stats)
    warm_l0_s = time.perf_counter() - t0
    print(json.dumps({
        "seed": seed, "import_ms": 1e3 * import_s, "index_ms": 1e3 * index_s,
        "j0_build_ms": 1e3 * j0_build_s,
        "stats_ms": 1e3 * stats_s,
        "cold_l0_ms": 1e3 * cold_l0_s, "warm_l0_ms": 1e3 * warm_l0_s,
        "solve_ms": 1e3 * solve_s,
        "heavy_modules": [m for m in HEAVY_MODULES if m in sys.modules]}))


if __name__ == "__main__":
    main()
