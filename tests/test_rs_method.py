"""Poisson-summation pipeline: lattice sums, parameter automation, and
the published reference runs.

The four-digit and fifteen-digit expected values below are printed
results of independent calculations; partial-sum rows reproduce a
published worked example line by line.
"""

import dataclasses
import importlib
import inspect
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from racedensity import race as rc
from racedensity import results as rr
from racedensity import rs_method as rs
from racedensity import specfun as sf
from racedensity import transforms as tr
from racedensity import zerodata as zd
from racedensity.race import (
    RaceEntry, RaceSpec, prime_count_race, square_race, two_way_race,
)
from racedensity.zerodata import aggregate_stats, bundled_table
from tail_moments import race_moments, single_radius, span

REFINED_E1 = 2.629967324e-7


def gaussian_exceedance(v, sigma0):
    # the Gaussian exceedance bound exp(-v^2 / (2 sigma0^2)) on E(v), v >= 0
    return math.exp(-v * v / (2.0 * sigma0 * sigma0))


@pytest.fixture(scope="module")
def zeta_race():
    return prime_count_race()


@pytest.fixture(scope="module")
def zeta_table():
    return bundled_table("zeta")


def prefix_bound_oracle(race, omega):
    # transforms._prefix_log_bound at one frequency, zero by zero over
    # every tabulated zero: log J0 at the split for a factor with z above
    # it, -z^2/4 for the others; past the table end, -t^2/4 times what
    # b1_total leaves of b_1 after the tabulated zeros
    parts = []
    for entry in race.characters:
        table = zd.resolve_table(entry)
        t = 2.0 * entry.alpha * abs(omega)
        den2 = 0.25 + table.gammas * table.gammas
        parts += np.where(np.sqrt(den2) < t / tr._FAR_Z, tr._LOG_J0_FAR_Z,
                          -0.25 * t * t / den2).tolist()
        parts.append(-0.25 * t * t * (
            table.b1_total - math.fsum((1.0 / den2).tolist())))
    return math.fsum(parts)


def stop_oracle(race, domega):
    # the lattice frequencies the samples keep: those before the first
    # one where the bound on log|phat| is at most -46 (less the rounding
    # margin)
    kept = []
    while prefix_bound_oracle(race, (len(kept) + 1) * domega) \
            > -(46.0 + rs._BOUND_MARGIN):
        kept.append((len(kept) + 1) * domega)
    return kept


def reach(race):
    # the largest frequency every table covers: past it a row's split
    # would pass a table's last zero
    return min(tr._FAR_Z * math.sqrt(0.25 + zd.resolve_table(e).last_zero ** 2)
               / (2.0 * e.alpha) for e in race.characters)


@pytest.fixture(scope="module")
def run25(zeta_race, zeta_table):
    # 25 explicit zeros in the tail statistics, step pi/2: the workhorse
    # configuration
    u = float(zeta_table.gammas[24])
    stats = aggregate_stats(zeta_race, u)
    params = forced_params(stats, math.pi / 2)
    return stats, params


def forced_params(stats, domega, v_max=3.0):
    return rs.RSParams(domega=domega, v_max=v_max)


PUBLISHED_RACES = {
    "pi vs Li": prime_count_race, "mod 4": lambda: square_race(4),
    "q5 1v2": lambda: two_way_race(5, 1, 2),
    "q13 square": lambda: square_race(13),
    "q8 1v3": lambda: two_way_race(8, 1, 3),
    "q24 1v5": lambda: two_way_race(24, 1, 5),
}

# ------------------------------------------------------------- published runs

def test_worked_example_partial_sums(zeta_race):
    # the printed running sums for E(1) at step pi/2, eleven decimals
    # each. They were printed from five explicit zeros and an order-7
    # tail series; every sample now holds every zero, and each running
    # sum still lands within 2e-11 of the printed one
    stats = aggregate_stats(zeta_race, 35.0)
    params = forced_params(stats, math.pi / 2)
    samples = rs.phat_samples(zeta_race, params, stats)
    printed = {
        1: -0.05066067594, 3: 0.01256921934, 5: -0.00215114117,
        7: 0.00018592266, 9: 0.00000085594, 11: -0.00000096511,
        13: 0.00000031044, 15: 0.00000026436, 17: 0.00000026298,
        19: 0.00000026299, 21: 0.00000026300, 23: 0.00000026300,
    }
    partial = 0.5 - params.domega / (2.0 * math.pi)
    assert partial == 0.25
    seen = 0
    for s in samples:
        partial -= s.phat * math.sin(s.m * params.domega) / (math.pi * s.m)
        if s.m in printed:
            assert partial == pytest.approx(printed[s.m], abs=2e-11), s.m
            seen += 1
    assert seen == len(printed)
    result = rs.compute_E(1.0, zeta_race, params, stats=stats)
    assert result.e == pytest.approx(partial, rel=1e-12)
    assert result.e == pytest.approx(2.6300e-7, abs=5e-11)
    # no order or cutoff is truncated any more, so the value is the
    # refined one to the 1e-15 that test_refined_value_and_cutoff_
    # independence reads it at (the printed ten digits lie 3.3e-16 off),
    # and the estimate stays at the claimed 1e-11 level
    assert result.e == pytest.approx(REFINED_E1, abs=1e-15)
    assert result.error_estimate < 1e-11


def test_refined_value_and_cutoff_independence(zeta_race, zeta_table):
    values = []
    for domega in (math.pi / 2, math.pi / 3):
        for n in (10, 25, 50, 100):
            u = float(zeta_table.gammas[n - 1])
            stats = aggregate_stats(zeta_race, u)
            params = forced_params(stats, domega)
            values.append(rs.compute_E(1.0, zeta_race, params, stats=stats).e)
    assert max(values) - min(values) < 1e-15
    for v in values:
        assert 2.62996732e-7 < v < 2.62996733e-7
        assert v == pytest.approx(REFINED_E1, abs=1e-15)


def test_step_independence(zeta_race, run25):
    stats, _ = run25
    values = [
        rs.compute_E(1.0, zeta_race, forced_params(stats, w), stats=stats).e
        for w in (math.pi / 2, math.pi / 3, 0.4)]
    assert max(values) - min(values) < 1e-14


@pytest.mark.parametrize("n, domega", [(7, math.pi / 2), (7, math.pi / 3),
                                        (3, math.pi / 2), (1, 0.4)])
def test_samples_stop_at_ceiling(zeta_race, zeta_table, n, domega):
    # the samples are the lattice points before the first one whose bound
    # on |phat| is at most e^-46, over every zero, whatever the cutoff of
    # the tail statistics: here n zeros lie below it
    g = zeta_table.gammas
    stats = aggregate_stats(zeta_race, float(0.5 * (g[n - 1] + g[n])))
    samples = rs.phat_samples(zeta_race, forced_params(stats, domega), stats)
    kept = stop_oracle(zeta_race, domega)
    assert [s.omega for s in samples] == kept
    assert [s.m for s in samples] == list(range(1, len(kept) + 1))


def _solve_params(race, stats):
    # race_result's step, with v_max at the race offset
    v = abs(race.offset)
    params = rs.race_result(race, stats).params
    return rs.RSParams(domega=params["domega"], v_max=v)


@pytest.mark.parametrize("name, u", [("pi vs Li", 2999.0), ("mod 4", 2999.0),
                                     ("q24 1v5", 140.0)])
def test_samples_stop_at_kernel_bound(name, u):
    # in a race_result solve the samples stop where the oracle's bound
    # does
    race = PUBLISHED_RACES[name]()
    stats = aggregate_stats(race, u)
    params = _solve_params(race, stats)
    samples = rs.phat_samples(race, params, stats)
    kept = stop_oracle(race, params.domega)
    assert [s.omega for s in samples] == kept
    assert rs.race_result(race, stats).params["n_terms"] == len(kept)


@pytest.mark.parametrize("name", PUBLISHED_RACES)
def test_lattice_stop_bounds_in_one_array(name, monkeypatch):
    # a solve bounds its lattice points, and takes the envelope of the
    # points it drops, in one _prefix_log_bound call, out to twice the
    # Gaussian guess at the stop, which every published race's stop lies
    # within. sigma0 and the step do not depend on u. The stop is the one
    # that bounding a point at a time finds
    race = PUBLISHED_RACES[name]()
    calls = []

    def counted(omegas, race):
        calls.append(len(omegas))
        return tr._prefix_log_bound(omegas, race)

    monkeypatch.setattr(rs, "_prefix_log_bound", counted)
    result = rs.race_result(race, aggregate_stats(race, 100.0))
    assert len(calls) == 1, calls
    w = result.params["domega"]
    m = 1
    while (b := tr._prefix_log_bound([m * w], race)[0][0]) \
            > -(rs._EXPONENT_CUTOFF + rs._BOUND_MARGIN):
        assert b < math.inf
        m += 1
    assert result.params["n_terms"] == m - 1


def test_dropped_terms_within_truncation_bound():
    # the terms the lattice drops, |phat| summed here from phat_prefix
    # over every point past the stop that the tables cover, with E's and
    # P0's weights, stay under the bounds that compute_E and compute_P
    # charge for all of them: the six published races at u = 60 and
    # 140, zeta and mod 4 at u = 2999, each at race_result's step
    cases = [(name, u) for u in (60.0, 140.0) for name in PUBLISHED_RACES] \
        + [("pi vs Li", 2999.0), ("mod 4", 2999.0)]
    for name, u in cases:
        race = PUBLISHED_RACES[name]()
        stats = aggregate_stats(race, u)
        params = _solve_params(race, stats)
        samples = rs.phat_samples(race, params, stats)
        n = len(samples)
        w = params.domega
        ms = list(range(n + 1, min(int(reach(race) / w), 30 * n)))
        phats = np.abs(tr.phat_prefix([m * w for m in ms], race)).tolist()
        bound_e, bound_p = samples.dropped
        for v in (0.5, 1.0, 3.0):
            dropped_e = math.fsum(p * abs(math.sin(m * v * w)) / (math.pi * m)
                                  for m, p in zip(ms, phats))
            dropped_p = math.fsum(w / math.pi * p * abs(math.cos(m * v * w))
                                  for m, p in zip(ms, phats))
            assert dropped_e <= bound_e, (name, u, v)
            assert dropped_p <= bound_p, (name, u, v)
        assert bound_e < 1e-22 and bound_p < 1e-20, (name, u)
        assert len(ms) > 5 * n, (name, u)


@pytest.mark.parametrize("name", PUBLISHED_RACES)
def test_dropped_points_within_envelope(name):
    # the envelope at the first dropped point L bounds every dropped
    # point: log|phat_prefix(m domega)| <= log + (N/2) log(L/m) at each m
    # from L to 30 L, as far as the tables reach, at race_result's step
    # and at choose_params' step for v_max = 4. Rows whose product
    # underflows to 0 have no log to compare
    race = PUBLISHED_RACES[name]()
    stats = aggregate_stats(race, 140.0)
    for params in (_solve_params(race, stats),
                   rs.choose_params(4.0, stats, 1e-11)):
        w = params.domega
        first = len(rs.phat_samples(race, params, stats)) + 1
        _, (N,), (log,) = tr._prefix_log_bound([first * w], race)
        m = np.arange(first, min(30 * first + 1, math.ceil(reach(race) / w)))
        assert m.size > first, (name, w)
        prefix = np.abs(tr.phat_prefix(m * w, race))
        live = prefix > 0.0
        assert live.sum() > first, (name, w)
        envelope = log + 0.5 * N * np.log(first / m)
        assert np.all(np.log(prefix[live]) <= envelope[live]), (name, w)


def test_envelope_matches_zero_by_zero_oracle():
    # at the first dropped point, the near-zero count and the envelope's
    # log that _prefix_log_bound gives, against a count and an fsum over
    # every tabulated zero, each character's rest past the table from
    # b1_total, as prefix_bound_oracle builds its bound: 0.5 log(2 /
    # (pi z)) for a near factor, -z^2/4 for a far one. The six published
    # races at u = 140, at race_result's step and at choose_params' step
    # for v_max = 4
    for name, make in PUBLISHED_RACES.items():
        race = make()
        stats = aggregate_stats(race, 140.0)
        for params in (_solve_params(race, stats),
                       rs.choose_params(4.0, stats, 1e-11)):
            w = (len(rs.phat_samples(race, params, stats)) + 1) \
                * params.domega
            count, parts = 0, []
            for entry in race.characters:
                table = zd.resolve_table(entry)
                t = 2.0 * entry.alpha * w
                den2 = 0.25 + table.gammas * table.gammas
                near = np.sqrt(den2) < t / tr._FAR_Z
                count += int(near.sum())
                parts += np.where(
                    near, 0.5 * np.log(2.0 * np.sqrt(den2) / (math.pi * t)),
                    -0.25 * t * t / den2).tolist()
                parts.append(-0.25 * t * t * (
                    table.b1_total - math.fsum((1.0 / den2).tolist())))
            want = math.fsum(parts)
            _, (got_count,), (got,) = tr._prefix_log_bound([w], race)
            assert got_count == count > 0, (name, w)
            assert abs(got - want) <= 1e-13 * abs(want), (name, w, got, want)


def test_truncation_bound_closed_form_covers_sum():
    # the closed forms from the first dropped point L on stay above the
    # sums they replace, of (L/m)^(N/2) / m for E and of (L/m)^(N/2) for
    # P0 over m >= L: checked against an upper bound on each sum, the
    # 2^12 terms from L plus, for the rest, the term at the next point
    # and the integral from there on, which lie above it as the terms
    # fall
    for first in (1, 2, 5, 17, 100, 1000):
        for N in (3, 4, 5, 10, 81, 400):
            m = np.arange(first, first + 2 ** 12, dtype=float)
            terms = (first / m) ** (0.5 * N)
            end = m[-1] + 1.0
            head = (first / end) ** (0.5 * N)
            upper_e = math.fsum((terms / m).tolist()) \
                + head / end + head * 2.0 / N
            upper_p = math.fsum(terms.tolist()) \
                + head + head * end / (0.5 * N - 1.0)
            sum_e, sum_p = rs._envelope_sums(first, N)
            assert upper_e <= sum_e, (first, N)
            assert upper_p <= sum_p, (first, N)
    assert rs._envelope_sums(5, 2) == (math.inf, math.inf)


def test_hand_params_match_chosen(zeta_race):
    # parameters written by hand hold no ceiling that could disagree with
    # the tail statistics: 100 zeta zeros, step pi/2, as chosen
    stats = aggregate_stats(zeta_race, 100.0)
    hand = rs.RSParams(domega=math.pi / 2, v_max=1.0, target=1e-11)
    chosen = rs.choose_params(1.0, stats, 1e-11, domega=math.pi / 2)
    assert chosen == hand
    result = rs.compute_E(1.0, zeta_race, hand, stats=stats)
    assert result.e == rs.compute_E(1.0, zeta_race, chosen, stats=stats).e
    assert result.e == pytest.approx(REFINED_E1, abs=1e-15)
    assert abs(result.e - REFINED_E1) < result.error_estimate + 1e-15


# ------------------------------------------------------------------ race runs

def test_mod4_race_value():
    race = square_race(4)
    table = bundled_table("mod4")
    u = float(table.gammas[49])
    stats = aggregate_stats(race, u)
    params = forced_params(stats, 1.27, v_max=1.0)
    result = rs.compute_E(1.0, race, params, stats=stats)
    # fifteen published digits; the last two ride on the zero data
    assert result.e == pytest.approx(0.004072076720775, abs=1e-13)
    assert result.e == pytest.approx(0.0040721, abs=5e-8)
    assert result.v == 1.0


def file_copy_race(tmp_path, race):
    # the race as a modulus outside the supported set is built: q = 9,
    # each entry's table a file copy of its bundled table
    (tmp_path / race.name).mkdir()
    entries = []
    for entry in race.characters:
        path = tmp_path / race.name / f"{entry.table}.txt"
        shutil.copyfile(bundled_table(entry.table).source, path)
        entries.append(dataclasses.replace(entry, table=str(path)))
    return RaceSpec(q=9, kind="two-way", contestants=(),
                    characters=tuple(entries), offset=race.offset)


@pytest.mark.parametrize("u", [100.0, 1000.0, 2999.0])
def test_config_race_of_unlisted_modulus(tmp_path, monkeypatch, u):
    # a race of a modulus outside the supported set is a RaceSpec whose
    # entries name table files. Over file copies of its bundled tables,
    # every published race gives the bundled race's result and l0_full
    # bit for bit, the weight-2 merged tables included, reading each
    # file once for the tail statistics and all lattice frequencies
    # together; the mod 4 copy gives the published mod 4 value
    loads = []
    load = zd.load_zeros
    monkeypatch.setattr(zd, "load_zeros",
                        lambda *a, **k: loads.append(a) or load(*a, **k))
    for name, make in PUBLISHED_RACES.items():
        race = make()
        copy = file_copy_race(tmp_path, race)
        assert copy.q == 9
        loads.clear()
        stats = aggregate_stats(copy, u)
        result = rs.race_result(copy, stats=stats)
        assert sorted(a[0] for a in loads) \
            == sorted(e.table for e in copy.characters), name
        want = rs.race_result(race, stats=aggregate_stats(race, u))
        assert result.v == want.v == race.offset
        assert (result.e, result.error_estimate) \
            == (want.e, want.error_estimate), name
        assert tr.l0_full(10.0, copy, stats) \
            == tr.l0_full(10.0, race, aggregate_stats(race, u)), name
        if name == "mod 4":
            assert result.e == pytest.approx(0.004072076720775, abs=1e-13)


def test_q24_odd_conductor_races_solve():
    # both races need the mod24_odd table; two cutoffs must agree within
    # their error estimates, under the exponential-moment bound
    for b in (13, 23):
        race = two_way_race(24, 1, b)
        stats = [aggregate_stats(race, u) for u in (100.0, 200.0)]
        lo, hi = (rs.race_result(race, stats=st) for st in stats)
        assert abs(lo.e - hi.e) <= lo.error_estimate + hi.error_estimate + 1e-15
        assert 0.0 < hi.e < gaussian_exceedance(hi.v, stats[1].sigma0)


def test_q5_inter_residue_race():
    # one zero per component L-function suffices for seven decimals
    race = two_way_race(5, 1, 2)
    stats = aggregate_stats(race, 7.0)
    assert [zd.resolve_table(e).count(7.0) for e in race.characters] \
        == [2, 1]
    params = forced_params(stats, 0.83, v_max=1.0)
    result = rs.compute_E(1.0, race, params, stats=stats)
    assert result.e == pytest.approx(0.0478254, abs=5e-8)


def test_q13_square_race():
    race = square_race(13)
    table = bundled_table("mod13_quad")
    u = 0.5 * (float(table.gammas[2]) + float(table.gammas[3]))
    stats = aggregate_stats(race, u)
    assert stats.n_zeros == 3
    params = forced_params(stats, 0.79, v_max=1.0)
    result = rs.compute_E(1.0, race, params, stats=stats)
    assert result.e == pytest.approx(0.0556810, abs=5e-8)


def test_q8_race_runs_at_its_offset():
    # the 1-vs-3 race needs the exceedance two deviations out
    race = two_way_race(8, 1, 3)
    assert race.offset == 2.0
    stats = aggregate_stats(race, 60.0)
    result = rs.race_result(race, stats=stats, target=1e-9)
    assert result.v == 2.0
    assert 0.0 < result.e < 0.5
    assert result.error_estimate < 1e-9


def test_unbiased_race_refused():
    race = two_way_race(5, 2, 3)
    assert race.offset == 0.0
    stats = aggregate_stats(race, 7.0)
    with pytest.raises(rs.ParameterError):
        rs.race_result(race, stats=stats)


# ------------------------------------------------------------ density branch

def test_exceedance_at_zero_threshold(zeta_race, run25):
    stats, params = run25
    assert rs.compute_E(0.0, zeta_race, params, stats=stats).e == 0.5


def test_exceedance_complements(zeta_race, run25):
    stats, params = run25
    for v in (0.3, 1.0, 2.0):
        total = (rs.compute_E(v, zeta_race, params, stats=stats).e
                 + rs.compute_E(-v, zeta_race, params, stats=stats).e)
        assert total == pytest.approx(1.0, abs=1e-15)


def test_density_symmetric(zeta_race, run25):
    stats, params = run25
    a = rs.compute_P(0.7, zeta_race, params, stats=stats)
    b = rs.compute_P(-0.7, zeta_race, params, stats=stats)
    assert a.p == b.p


def test_density_at_zero_matches_moment_expansion(zeta_race, run25):
    # the fourth-moment correction to the central density: within 2%
    stats, params = run25
    got = rs.compute_P(0.0, zeta_race, params, stats=stats).p
    beta0 = race_moments(zeta_race, stats).beta0
    approx = (1.0 - 3.0 * beta0 / 16.0) / (
        stats.sigma0 * math.sqrt(2.0 * math.pi))
    assert got == pytest.approx(approx, rel=2e-2)


def test_density_integrates_to_one(zeta_race, run25):
    stats, params = run25
    half = span(zeta_race, stats.u) + 6.0 * stats.sigma0
    vs = np.linspace(-half, half, 4001)
    density = rs.density_grid(vs, zeta_race, params, stats=stats)
    assert np.all(density > -1e-15)
    assert float(np.trapezoid(density, vs)) == pytest.approx(1.0, abs=1e-8)


def test_density_grid_matches_scalar(zeta_race, run25):
    stats, params = run25
    vs = np.array([-0.9, 0.0, 0.42, 1.7])
    grid = rs.density_grid(vs, zeta_race, params, stats=stats)
    for v, g in zip(vs, grid):
        assert g == pytest.approx(
            rs.compute_P(float(v), zeta_race, params, stats=stats).p,
            rel=1e-14)


# ----------------------------------------------------------- lattice reduction

def _log(x):
    # a result's log_e or log_p from its value
    return math.log(x) if x > 0.0 else -math.inf


def lattice_oracle(v, samples, domega, density):
    # the Poisson sum at v term by term over the PhatSample fields, with
    # math's sin and cos, and its terms
    w = domega
    if density:
        terms = [s.phat * math.cos(s.m * v * w) for s in samples]
        return w / math.pi * (0.5 + math.fsum(terms)), terms
    terms = [s.phat * math.sin(s.m * v * w) / s.m for s in samples]
    return 0.5 - v * w / (2.0 * math.pi) - math.fsum(terms) / math.pi, terms


@pytest.mark.parametrize("name", ["pi vs Li", "mod 4"])
def test_lattice_matches_scalar_oracle(name):
    # 200 thresholds on [0, 3], with a step sized one unit past 3 so that
    # no P0 is refused: each value has the scalar sum's bits wherever
    # numpy's sin or cos gives math's on every lattice argument of its v,
    # and elsewhere lies within 4 ulp of sum |term|, and 4 of the value
    # for the result's log; density_grid's matrix gives compute_P's
    # one-row values, element for element. A result holds its value's
    # log, so the logs are compared bit for bit
    race = PUBLISHED_RACES[name]()
    stats = aggregate_stats(race, 100.0)
    params = rs.choose_params(4.0, stats, 1e-11)
    samples = rs.phat_samples(race, params, stats)
    assert len(samples) > 30
    vs = np.linspace(0.0, 3.0, 200).tolist()
    exact = 0
    for density, compute, f, np_f in (
            (False, rs.compute_E, math.sin, np.sin),
            (True, rs.compute_P, math.cos, np.cos)):
        for v in vs:
            r = compute(v, race, params, stats=stats, samples=samples)
            want, terms = lattice_oracle(v, samples, params.domega, density)
            args = [s.m * v * params.domega for s in samples]
            if np_f(np.array(args)).tolist() == list(map(f, args)):
                exact += 1
                assert (r.log_p if density else r.log_e) == _log(want), \
                    (density, v)
            else:
                got = r.p if density else r.e
                scale = math.fsum(map(abs, terms))
                assert abs(got - want) <= 4.0 * math.ulp(scale) \
                    + 4.0 * math.ulp(want), (density, v)
    print(f"{exact} of {2 * len(vs)} thresholds compared bit for bit")
    grid = rs.density_grid(vs, race, params, stats=stats)
    assert list(map(_log, grid.tolist())) == [
        rs.compute_P(v, race, params, stats=stats, samples=samples).log_p
        for v in vs]


def test_phat_samples_records():
    # the records keep the fields, the repr and the tail of the dataclass
    # they replaced, and the arrays the lattice reads hold their values
    race = prime_count_race()
    stats = aggregate_stats(race, 100.0)
    params = rs.RSParams(domega=math.pi / 2, v_max=1.0)
    samples = rs.phat_samples(race, params, stats)
    s = samples[0]
    assert rs.PhatSample._fields == ("m", "omega", "phat", "error")
    assert repr(s) == (f"PhatSample(m=1, omega={s.omega!r}, "
                       f"phat={s.phat!r}, error={s.error!r})")
    assert type(s.m) is int and s.tail == 1.0
    assert samples.m.tolist() == [float(x.m) for x in samples]
    assert samples.phat.tolist() == [x.phat for x in samples]
    with pytest.raises(ValueError):
        samples.phat[0] = 0.0


@pytest.mark.parametrize("name", PUBLISHED_RACES)
def test_race_result_is_compute_e_over_its_samples(name):
    # race_result draws its own samples; compute_E over an explicit
    # phat_samples record at the same parameters gives the same bits
    race = PUBLISHED_RACES[name]()
    stats = aggregate_stats(race, 100.0)
    result = rs.race_result(race, stats)
    v = abs(race.offset)
    params = rs.choose_params(v, stats, 1e-11,
                              domega=result.params["domega"])
    samples = rs.phat_samples(race, params, stats)
    assert repr(rs.compute_E(v, race, params, stats=stats,
                             samples=samples)) == repr(result)


# ------------------------------------------------------- parameter automation

def test_choose_params_accepts_printed_step(zeta_race, run25):
    stats, _ = run25
    params = rs.choose_params(1.0, stats, 1e-11, domega=math.pi / 2)
    assert params.domega == math.pi / 2
    result = rs.compute_E(1.0, zeta_race, params, stats=stats)
    assert result.e == pytest.approx(REFINED_E1, abs=1e-11)
    assert result.error_estimate < 1e-11


def test_choose_params_automatic_step(run25):
    stats, _ = run25
    easy = rs.choose_params(1.0, stats, 1e-11)
    assert easy.domega >= math.pi / 2
    hard = rs.choose_params(3.0, stats, 1e-11)
    # a farther threshold pushes the wrap-around point out, so the step
    # must shrink
    assert hard.domega < easy.domega
    for params, v_max in ((easy, 1.0), (hard, 3.0)):
        assert 2.0 * math.pi / params.domega > v_max


# a hand-written step per race, near half the reciprocal deviation
STEPS = {"pi vs Li": math.pi / 2, "mod 4": 1.27, "q5 1v2": 0.83,
         "q13 square": 0.79, "q8 1v3": 0.8, "q24 1v5": 0.5}


@pytest.mark.parametrize("name", PUBLISHED_RACES)
def test_race_result_step_meets_lattice_cutoff(name):
    # race_result's step puts the wrap-around point where the aliasing
    # bound is e^-46, the level below which the lattice drops its terms,
    # up to the rounding of forming 2 pi / domega - v (a few ulps of the
    # exponent)
    race = PUBLISHED_RACES[name]()
    v = abs(race.offset)
    for u in (60.0, 100.0, 140.0):
        stats = aggregate_stats(race, u)
        w = 2.0 * math.pi / rs.race_result(race, stats).params["domega"] - v
        assert gaussian_exceedance(w, stats.sigma0) \
            <= math.exp(-46.0) * (1.0 + 1e-12), u


@pytest.mark.parametrize("density", [False, True], ids=["E", "P0"])
def test_alias_bound_and_step_are_inverses(density):
    # at the step _largest_step picks for a bound, the aliasing bound at
    # the wrap-around point is that bound, up to the rounding of forming
    # 2 pi / domega - v (a few ulps of an exponent up to 46), for the six
    # published sigma0, thresholds from 0 to 3 and bounds 1e-20 to 1e-3
    for build in PUBLISHED_RACES.values():
        sigma0 = aggregate_stats(build(), 0.0).sigma0
        for v in (0.0, 0.5, 1.0, 2.0, 3.0):
            for b in 10.0 ** -np.arange(3.0, 21.0):
                step = rs._largest_step(v, sigma0, b, density)
                got = rs._alias_bound(2.0 * math.pi / step - v, sigma0,
                                      density)
                assert b * (1.0 - 1e-9) <= got <= b * (1.0 + 1e-12), \
                    (sigma0, v, b)


@pytest.mark.parametrize("name", PUBLISHED_RACES)
def test_fourier_value_reads_stats_through_sigma0_alone(name):
    # tail statistics with another cutoff and zero count give the very
    # bits of the real ones' value and estimate; only the result's u and
    # n_zeros labels differ. No Fourier function builds the per
    # character tails, which only l0_full reads
    race = PUBLISHED_RACES[name]()
    stats = aggregate_stats(race, 100.0)
    bare = dataclasses.replace(stats, u=7.0, n_zeros=0)
    params = rs.choose_params(3.0, stats, 1e-11)
    assert rs.choose_params(3.0, bare, 1e-11) == params
    pairs = [(rs.race_result(race, bare), rs.race_result(race, stats))]
    for compute in (rs.compute_E, rs.compute_P):
        pairs.append((compute(1.0, race, params, stats=bare),
                      compute(1.0, race, params, stats=stats)))
    for got, want in pairs:
        assert got.v == want.v
        assert repr((got.log_e, got.log_p, got.error_estimate)) \
            == repr((want.log_e, want.log_p, want.error_estimate))
        assert (got.params["u"], got.params["n_zeros"]) == (7.0, 0)
        assert {k: x for k, x in got.params.items()
                if k not in ("u", "n_zeros")} \
            == {k: x for k, x in want.params.items()
                if k not in ("u", "n_zeros")}
    vs = np.linspace(-2.0, 2.0, 9)
    assert np.array_equal(rs.density_grid(vs, race, params, stats=bare),
                          rs.density_grid(vs, race, params, stats=stats))


def test_fourier_solve_near_table_end_warns_of_nothing():
    # mod 4's table ends at 2999.83, so at u = 2990 few zeros lie above
    # the cutoff; neither a Fourier solve nor l0_full reads the cutoff,
    # and both warn of nothing
    race = square_race(4)
    stats = aggregate_stats(race, 2990.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = rs.choose_params(3.0, stats, 1e-11)
        samples = rs.phat_samples(race, params, stats)
        rs.compute_E(1.0, race, params, stats=stats, samples=samples)
        rs.compute_P(1.0, race, params, stats=stats, samples=samples)
        rs.density_grid(np.array([0.5, 1.0]), race, params, stats=stats)
        result = rs.race_result(race, stats)
        tr.l0_full(1.0, race, stats)
    assert result.e == pytest.approx(0.004072076720775, abs=1e-13)


def _search_by_hand(v_max, stats, target, domega=None):
    # the parameter search written out: the step from the Gaussian
    # exceedance bound at a third of the target, or the caller's step
    # checked against it. The order search it once held is gone with the
    # tail factor: every sample holds every zero
    if not 1e-16 < target < 1e-2:
        raise rs.ParameterError(f"target {target:.3g} outside the window")
    slack = target / 3.0
    need = v_max + stats.sigma0 * math.sqrt(2.0 * math.log(1.0 / slack))
    domega_max = 2.0 * math.pi / need
    if domega is None:
        domega = domega_max
    elif domega > domega_max:
        raise rs.ParameterError(
            f"domega = {domega:g} leaves the aliasing bound above "
            f"{slack:.3g}; at most {domega_max * (1.0 - 1e-5):.6g} is "
            f"admissible")
    return rs.RSParams(domega=domega, v_max=v_max, target=target)


def _outcome(search, *args):
    try:
        return search(*args)
    except rs.ParameterError as e:
        return str(e)


@pytest.mark.parametrize("name", PUBLISHED_RACES)
def test_choose_params_matches_order_by_order_search(name):
    # choose_params against the search by hand, over cutoffs, targets
    # and steps; with no order left to search, the step is all it picks
    race = PUBLISHED_RACES[name]()
    v_max = abs(race.offset)
    outcomes = []
    for u in (60.0, 100.0, 140.0, 1000.0):
        stats = aggregate_stats(race, u)
        for target in (1e-8, 1e-11, 1e-14):
            for domega in (None, STEPS[name]):
                args = (v_max, stats, target, domega)
                got = _outcome(rs.choose_params, *args)
                assert got == _outcome(_search_by_hand, *args), \
                    (u, target, domega)
                outcomes.append(isinstance(got, rs.RSParams))
    # most of the grid yields parameters
    assert sum(outcomes) > len(outcomes) // 2, outcomes


@pytest.mark.parametrize("v_max", [float("nan"), float("inf"), -1.0])
def test_v_max_validated(run25, v_max):
    stats, _ = run25
    with pytest.raises(rs.ParameterError, match="v_max must be finite"):
        rs.choose_params(v_max, stats, 1e-11)
    with pytest.raises(rs.ParameterError, match="v_max must be finite"):
        rs.choose_params(v_max, stats, 1e-11, domega=math.pi / 2)


def test_choose_params_target_window(run25):
    stats, _ = run25
    with pytest.raises(rs.ParameterError):
        rs.choose_params(1.0, stats, 1e-17)
    with pytest.raises(rs.ParameterError):
        rs.choose_params(1.0, stats, 2e-2)


def test_aliasing_guard_names_required_step(zeta_race, run25):
    stats, _ = run25
    params = rs.RSParams(domega=2.5, v_max=2.0, target=1e-11)
    with pytest.raises(rs.ParameterError, match="domega must be at most"):
        rs.compute_E(2.0, zeta_race, params, stats=stats)
    with pytest.raises(rs.ParameterError, match="domega must be at most"):
        rs.compute_P(2.0, zeta_race, params, stats=stats)


def test_threshold_beyond_validated_range(zeta_race, run25):
    stats, params = run25
    with pytest.raises(rs.ParameterError):
        rs.compute_E(3.5, zeta_race, params, stats=stats)
    with pytest.raises(rs.ParameterError):
        rs.density_grid([0.0, 3.5], zeta_race, params, stats=stats)
    with pytest.raises(rs.ParameterError, match="exceeds the v_max"):
        rs.compute_E(2.0 * math.pi / params.domega + 1.0, zeta_race, params,
                     stats=stats)
    # a NaN is not the largest |v| of anything, so it must be caught
    # before the reach is taken
    nan = float("nan")
    for call in (lambda: rs.compute_E(nan, zeta_race, params, stats=stats),
                 lambda: rs.compute_P(nan, zeta_race, params, stats=stats),
                 lambda: rs.density_grid([0.5, nan], zeta_race, params,
                                         stats=stats),
                 lambda: rs.density_grid([nan, 0.5], zeta_race, params,
                                         stats=stats)):
        with pytest.raises(rs.ParameterError, match="must be finite"):
            call()


@pytest.mark.parametrize("name", ["pi vs Li", "q24 1v5"])
@pytest.mark.parametrize("compute", [rs.compute_E, rs.compute_P])
def test_refused_step_passes_when_fed_back(name, compute):
    # at u = 100, choose_params(3, ...) sizes its step for E, so P0 at 2.9
    # refuses it, and E refuses a step of 2. Each refusal names a step
    # that, fed back as printed, serves every |v| up to v_max. At q24 1v5
    # the Gaussian form is the bound itself, so the step must not round up
    race = PUBLISHED_RACES[name]()
    stats = aggregate_stats(race, 100.0)
    params = rs.choose_params(3.0, stats, 1e-11)
    if compute is rs.compute_E:
        params = dataclasses.replace(params, domega=2.0)
    with pytest.raises(rs.ParameterError, match="domega must be at most") \
            as info:
        compute(2.9, race, params, stats=stats)
    step = float(str(info.value).split("at most ")[1].split()[0])
    fed = dataclasses.replace(params, domega=step)
    for v in (2.9, 3.0):
        assert compute(v, race, fed, stats=stats).error_estimate < 1e-11


def test_explicit_step_above_admissible_refused(run25):
    # the refusal names the largest step whose aliasing bound stays under
    # a third of the target, worked out here from the exceedance bound
    stats, _ = run25
    slack = 1e-11 / 3.0
    most = 2.0 * math.pi / (
        1.0 + stats.sigma0 * math.sqrt(2.0 * math.log(1.0 / slack)))
    with pytest.raises(rs.ParameterError) as info:
        rs.choose_params(1.0, stats, 1e-11, domega=1.01 * most)
    shaved = most * (1.0 - 1e-5)
    assert f"at most {shaved:.6g} is admissible" in str(info.value)
    assert rs.choose_params(1.0, stats, 1e-11, domega=most).domega == most


def test_explicit_step_refusal_names_an_admissible_step(zeta_race):
    # six digits of the admissible step 2.2807568 round up to 2.28076,
    # which would be refused again; the named step must be accepted
    stats = aggregate_stats(zeta_race, 60.0)
    with pytest.raises(rs.ParameterError) as info:
        rs.choose_params(1.0, stats, 1e-14, domega=5.0)
    named = float(re.search(r"at most (\S+) is admissible",
                            str(info.value)).group(1))
    assert rs.choose_params(1.0, stats, 1e-14, domega=named).domega == named


def test_samples_of_another_step_refused(zeta_race):
    # samples built at pi/2 read with params at pi/3 would sum the wrong
    # frequencies under a small error estimate
    stats = aggregate_stats(zeta_race, 100.0)
    samples = rs.phat_samples(
        zeta_race, rs.RSParams(domega=math.pi / 2, v_max=1.0), stats)
    params = rs.RSParams(domega=math.pi / 3, v_max=1.0)
    for compute in (rs.compute_E, rs.compute_P):
        with pytest.raises(rs.ParameterError,
                           match="rebuild them with these params"):
            compute(1.0, zeta_race, params, stats=stats, samples=samples)
    # a shortened tuple is not the lattice's prefix either
    with pytest.raises(rs.ParameterError, match="rebuild them"):
        rs.compute_E(1.0, zeta_race,
                     rs.RSParams(domega=math.pi / 2, v_max=1.0),
                     stats=stats, samples=samples[1:])


def test_samples_of_another_race_refused(zeta_race):
    # zeta's samples read for mod 4 would sum zeta's characteristic
    # function and answer pi vs Li's E(1) = 2.63e-7 under mod 4's name: a
    # record is tied to the race and the step it was built for. An equal
    # race built afresh reads it as its own, and a step one ulp off
    # refuses it
    params = rs.RSParams(domega=math.pi / 2, v_max=1.0)
    samples = rs.phat_samples(zeta_race, params,
                              aggregate_stats(zeta_race, 100.0))
    mod4 = square_race(4)
    stats = aggregate_stats(mod4, 100.0)
    for compute in (rs.compute_E, rs.compute_P):
        with pytest.raises(rs.ParameterError,
                           match="rebuild them with these params"):
            compute(1.0, mod4, params, stats=stats, samples=samples)
    zeta = prime_count_race()
    assert zeta is not zeta_race
    stats = aggregate_stats(zeta, 100.0)
    carried = rs.compute_E(1.0, zeta, params, stats=stats, samples=samples)
    assert repr(carried) == repr(rs.compute_E(1.0, zeta, params, stats=stats))
    assert carried.e == pytest.approx(REFINED_E1, abs=1e-15)
    near = dataclasses.replace(
        params, domega=math.nextafter(params.domega, 0.0))
    with pytest.raises(rs.ParameterError, match="rebuild them"):
        rs.compute_E(1.0, zeta, near, stats=stats, samples=samples)


def test_stats_of_another_race_refused(zeta_race):
    # zeta's tail statistics read for mod 4 would set mod 4's step from
    # zeta's sigma0 (E 9.4e-11 off under an estimate of 1e-20) and zip
    # mod 4's entry with zeta's tails in l0_full: every route refuses a
    # record built for another race, and reads one of an equal race
    # built afresh as its own
    stats = aggregate_stats(zeta_race, 100.0)
    mod4 = square_race(4)
    params = rs.RSParams(domega=math.pi / 2, v_max=1.0)
    for call in (lambda: rs.race_result(mod4, stats),
                 lambda: tr.l0_full(1.0, mod4, stats),
                 lambda: rs.phat_samples(mod4, params, stats),
                 lambda: rs.compute_E(1.0, mod4, params, stats=stats),
                 lambda: rs.compute_P(1.0, mod4, params, stats=stats),
                 lambda: rs.density_grid([1.0], mod4, params, stats)):
        with pytest.raises(zd.ZeroDataError,
                           match=r"built for race zeta, not q4\.square; "
                                 r"rebuild them with aggregate_stats\(race, u\)"):
            call()
    zeta = prime_count_race()
    assert zeta is not zeta_race
    assert repr(rs.race_result(zeta, stats)) == repr(
        rs.race_result(zeta_race, stats))
    assert repr(tr.l0_full(1.0, zeta, stats)) == repr(
        tr.l0_full(1.0, zeta_race, stats))


def test_plain_tuple_samples_refused(zeta_race):
    # phat_samples' record carries its v-independent sums, and reads as
    # fresh samples do, to the same bits; a plain tuple of the same
    # records carries none and is refused
    stats = aggregate_stats(zeta_race, 100.0)
    params = rs.choose_params(3.0, stats, 1e-11)
    samples = rs.phat_samples(zeta_race, params, stats)
    for compute in (rs.compute_E, rs.compute_P):
        for v in (0.0, 1.0, 2.0):
            carried = compute(v, zeta_race, params, stats=stats,
                              samples=samples)
            fresh = compute(v, zeta_race, params, stats=stats)
            assert repr(carried) == repr(fresh)
        refusal = "rebuild them with these params: " \
            "phat_samples(race, params, stats)"
        with pytest.raises(rs.ParameterError, match=re.escape(refusal)):
            compute(1.0, zeta_race, params, stats=stats,
                    samples=tuple(samples))


def test_invalid_params_rejected():
    with pytest.raises(rs.ParameterError):
        rs.RSParams(domega=4.0, v_max=2.0)
    for domega in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(rs.ParameterError):
            rs.RSParams(domega=domega, v_max=2.0)
    for v_max in (float("nan"), float("inf"), -1.0):
        with pytest.raises(rs.ParameterError, match="v_max must be finite"):
            rs.RSParams(domega=1.0, v_max=v_max)
    # a NaN target would turn the aliasing check off, and -1 or 0 would
    # fail inside it with a bare math error
    for target in (float("nan"), float("inf"), -1.0, 0.0):
        with pytest.raises(rs.ParameterError, match="target must be"):
            rs.RSParams(domega=4.0, v_max=1.0, target=target)


def test_params_hold_only_the_runs_choices():
    # the series order is no choice: K reads the fixed 56 and cannot be set
    assert [f.name for f in dataclasses.fields(rs.RSParams)] == [
        "domega", "v_max", "target"]
    params = rs.RSParams(domega=1.0, v_max=1.0)
    assert params.K == tr._FAR_TERMS == 56
    with pytest.raises(TypeError):
        rs.RSParams(K=7, domega=1.0, v_max=1.0)


def test_no_convergence_radius_refused(zeta_race):
    # below the first zero a tail series would have a NaN radius. No
    # solve reads one: compute_E, choose_params and race_result answer
    # there, with the bits they give at u = 100
    stats = aggregate_stats(zeta_race, 1.0)
    assert math.isnan(single_radius(zeta_race.characters[0], 1.0))
    deep = aggregate_stats(zeta_race, 100.0)
    params = rs.RSParams(domega=1.0, v_max=1.0)
    for got, want in (
            (rs.compute_E(1.0, zeta_race, params, stats=stats),
             rs.compute_E(1.0, zeta_race, params, stats=deep)),
            (rs.race_result(zeta_race, stats), rs.race_result(zeta_race, deep))):
        assert got.e == want.e
        assert got.e == pytest.approx(REFINED_E1, abs=1e-15)
    assert rs.choose_params(1.0, stats, 1e-11) \
        == rs.choose_params(1.0, deep, 1e-11)


@pytest.mark.parametrize("name", PUBLISHED_RACES)
def test_race_result_independent_of_cutoff(name):
    # every zero enters each sample whatever the cutoff, so the published
    # value comes out bit for bit the same at u = 4.352, 60, 200 and 2999,
    # past some tables' ends too. An order-K tail series past u, with the
    # lattice clipped at its radius, put q24 1v5 at u = 4.352 (two zeros)
    # 2.25e-8 off, with an estimate of 4.9e-9
    race = PUBLISHED_RACES[name]()
    results = [rs.race_result(race, aggregate_stats(race, u))
               for u in (4.352, 60.0, 200.0, 2999.0)]
    assert len({r.e for r in results}) == 1
    assert len({r.params["n_terms"] for r in results}) == 1
    for r in results:
        assert r.error_estimate < 1e-19


def test_solve_past_table_end_refused(tmp_path):
    # a truncated copy of the zeta table: a lattice that needs its rows
    # split past the last listed zero is refused with the table and the
    # frequency named, by phat_prefix and by a solve alike
    table = bundled_table("zeta")
    path = tmp_path / "zeta20.txt"
    path.write_text(f"# qstar: 1\n# b1_total: {table.b1_total!r}\n"
                    + "".join(f"{g!r}\n" for g in table.gammas[:20].tolist()))
    race = RaceSpec(q=9, kind="two-way", contestants=(), offset=1.0,
                    characters=(RaceEntry("short", 1, 1.0, str(path)),))
    end = float(table.gammas[19])
    w = tr._FAR_Z * end / 2.0 + 1.0
    assert tr.phat_prefix([w - 2.0], race).size == 1
    with pytest.raises(zd.ZeroDataError,
                       match=rf"short: zero table ends at {end:.6g}, but the "
                             rf"frequency w = {w:.6g} treats"):
        tr.phat_prefix([1.0, w], race)
    stats = aggregate_stats(race, 20.0)
    with pytest.raises(zd.ZeroDataError, match="short: zero table ends at"):
        rs.race_result(race, stats)


def test_public_names_pinned():
    # each module's public API in full; a name joins or leaves only by
    # an edit here
    assert rs.__all__ == [
        "ParameterError", "RSParams", "PhatSample", "choose_params",
        "compute_E", "compute_P", "density_grid", "phat_samples",
        "race_result"]
    assert tr.__all__ == [
        "AsymptoticL", "ConvergenceError", "LDerivs",
        "l0_asymptotic", "l0_full", "model_constants", "model_log_density",
        "model_log_exceedance", "model_saddle", "phat_prefix"]
    assert sf.__all__ == [
        "BaseConstants", "ExtendedPrecisionError", "j0_lowbias",
        "log_i0_derivs", "base_constants"]
    assert zd.__all__ == [
        "TailStats", "ZeroDataError", "ZeroTable", "aggregate_stats",
        "available_tables", "bundled_table", "load_zeros", "resolve_table"]
    assert rc.__all__ == [
        "Character", "RaceEntry", "RaceError", "RaceSpec",
        "SUPPORTED_MODULI", "alpha_coeffs", "characters", "prime_count_race",
        "square_race", "square_root_count", "two_way_race"]
    assert rr.__all__ == ["DensityResult"]
    for mod in (rs, tr, sf, zd, rc, rr):
        for name in mod.__all__:
            # constants such as SUPPORTED_MODULI carry no __module__
            if not name.isupper():
                assert getattr(mod, name).__module__ == mod.__name__, name


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is 3.11+")
def test_declared_scripts_import():
    # a console script whose module does not exist installs as a broken
    # command; every [project.scripts] entry must name a callable
    import tomllib
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_solve_imports_numpy_only():
    # a fresh process that solves a race, evaluates the cumulant
    # function and the large-deviation model imports neither scipy
    # (about 0.3 s of every cold start, 0.7 s with scipy.integrate) nor
    # numpy.ma (which np.median pulls in, 40 ms)
    code = textwrap.dedent("""
        import sys
        sys.path.insert(0, sys.argv[1])
        from racedensity import rs_method as rs, transforms as tr
        from racedensity.race import prime_count_race, two_way_race
        from racedensity.zerodata import aggregate_stats
        race = prime_count_race()
        rs.race_result(race, stats=aggregate_stats(race, 100.0))
        race = two_way_race(5, 1, 2)
        tr.l0_full(10.0, race, aggregate_stats(race, 100.0))
        tr.model_saddle(race, 3.0)
        tr.l0_asymptotic(50.0, race)
        print(" ".join(m for m in ("scipy", "numpy.ma") if m in sys.modules))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rs.__file__)))
    proc = subprocess.run([sys.executable, "-c", code, src], check=True,
                          capture_output=True, text=True)
    assert proc.stdout.split() == []


def test_no_public_function_takes_tables():
    # a character's zeros come from its RaceEntry.table alone; only
    # resolve_table still accepts a label-to-table mapping
    takers = [
        f"{mod.__name__}.{name}"
        for mod in (zd, tr, rs) for name, obj in vars(mod).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == mod.__name__
        and "tables" in inspect.signature(obj).parameters]
    assert takers == ["racedensity.zerodata.resolve_table"]
