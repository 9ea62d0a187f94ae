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
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from racedensity import race as rc
from racedensity import results as rr
from racedensity import rs_method as rs
from racedensity import specfun as sf
from racedensity import transforms as tr
from racedensity import zerodata as zd
from racedensity.race import (
    prime_count_race, race_from_config, square_race, two_way_race,
)
from racedensity.specfun import c_coeffs
from racedensity.zerodata import aggregate_stats, bundled_table, montgomery_bound

REFINED_E1 = 2.629967324e-7


@pytest.fixture(scope="module")
def zeta_race():
    return prime_count_race()


@pytest.fixture(scope="module")
def zeta_table():
    return bundled_table("zeta")


def tail_oracle(omega, stats, K):
    # the tail factor's exponent sum_{k<=K} c_k R_k tau^(2k) and its
    # per-term error estimate c_K R_K tau^(2K+2) / (T^2 - tau^2) at one
    # frequency inside the radius, tau = sigma_u*omega, summed by fsum
    c = c_coeffs(K)
    tau = stats.sigma_u * omega
    exponent = math.fsum(c[k - 1] * stats.R[k - 1] * tau ** (2 * k)
                         for k in range(1, K + 1))
    error = c[K - 1] * stats.R[K - 1] * tau ** (2 * K + 2) \
        / (stats.T * stats.T - tau * tau)
    return exponent, error


def ceiling_oracle(stats, K, domega):
    # where the lattice stops: half a step below the first lattice point
    # whose tail exponent reaches 46, or the radius end when none inside
    # it does
    m = 1
    while stats.sigma_u * (m * domega) < stats.T:
        if tail_oracle(m * domega, stats, K)[0] >= 46.0:
            return (m - 0.5) * domega
        m += 1
    return stats.T / stats.sigma_u


@pytest.fixture(scope="module")
def run25(zeta_race, zeta_table):
    # 25 explicit zeros, order-7 tail: the workhorse configuration
    u = float(zeta_table.gammas[24])
    stats = aggregate_stats(zeta_race, u, Kmax=8)
    params = forced_params(stats, 7, math.pi / 2)
    return stats, params


def forced_params(stats, K, domega, v_max=3.0):
    return rs.RSParams(K=K, domega=domega, v_max=v_max)


# ------------------------------------------------------------- published runs

def test_worked_example_partial_sums(zeta_race):
    # five explicit zeros, order 7, step pi/2: the printed running sums
    # for E(1), eleven decimals each
    stats = aggregate_stats(zeta_race, 35.0, Kmax=7)
    params = forced_params(stats, 7, math.pi / 2)
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
    # the estimate must cover the truncation-driven distance from the
    # refined value while staying at the claimed 1e-11 level
    assert abs(result.e - REFINED_E1) < result.error_estimate < 1e-11


def test_refined_value_and_cutoff_independence(zeta_race, zeta_table):
    values = []
    for domega in (math.pi / 2, math.pi / 3):
        for n, K in ((10, 10), (25, 7), (50, 5), (100, 4)):
            u = float(zeta_table.gammas[n - 1])
            stats = aggregate_stats(zeta_race, u, Kmax=max(K, 2))
            params = forced_params(stats, K, domega)
            values.append(rs.compute_E(1.0, zeta_race, params, stats=stats).e)
    assert max(values) - min(values) < 1e-15
    for v in values:
        assert 2.62996732e-7 < v < 2.62996733e-7
        assert v == pytest.approx(REFINED_E1, abs=1e-15)


def test_step_independence(zeta_race, run25):
    stats, _ = run25
    values = [
        rs.compute_E(1.0, zeta_race, forced_params(stats, 7, w), stats=stats).e
        for w in (math.pi / 2, math.pi / 3, 0.4)]
    assert max(values) - min(values) < 1e-14


@pytest.mark.parametrize("K, domega", [(7, math.pi / 2), (7, math.pi / 3),
                                        (3, math.pi / 2), (1, 0.4)])
def test_samples_stop_at_ceiling(zeta_race, run25, K, domega):
    # the samples are exactly the lattice points below the ceiling
    stats, _ = run25
    samples = rs.phat_samples(zeta_race, forced_params(stats, K, domega),
                              stats)
    C = ceiling_oracle(stats, K, domega)
    below = [m * domega for m in range(1, int(C / domega) + 2)
             if m * domega < C]
    assert [s.omega for s in samples] == below
    assert [s.m for s in samples] == list(range(1, len(below) + 1))


def test_dropped_terms_within_truncation_bound(zeta_race, run25):
    # the terms past the ceiling, summed here from the kernel product and
    # the scalar tail factor, up to the radius end, stay under the bound
    # that compute_E charges for them
    stats, params = run25
    n = len(rs.phat_samples(zeta_race, params, stats))
    end = stats.T / stats.sigma_u
    ms = [m for m in range(n + 1, int(end / params.domega) + 2)
          if m * params.domega < end]
    assert len(ms) > 10
    omegas = [m * params.domega for m in ms]
    prefixes = tr.phat_prefix(omegas, zeta_race, stats.u)
    for v in (0.5, 1.0, 3.0):
        dropped = math.fsum(
            abs(p * math.exp(-tail_oracle(w, stats, params.K)[0])
                * math.sin(m * v * params.domega)) / (math.pi * m)
            for m, w, p in zip(ms, omegas, prefixes))
        assert dropped <= rs._truncation_bound(n, params, stats)
    assert rs._truncation_bound(n, params, stats) < 1e-19


def test_hand_params_match_chosen(zeta_race):
    # parameters written by hand hold no ceiling that could disagree with
    # the tail statistics: 100 zeta zeros, order 6, step pi/2, as chosen
    stats = aggregate_stats(zeta_race, 100.0)
    hand = rs.RSParams(K=6, domega=math.pi / 2, v_max=1.0, target=1e-11)
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
    stats = aggregate_stats(race, u, Kmax=8)
    params = forced_params(stats, 5, rs.default_domega(race, stats.sigma0),
                           v_max=1.0)
    result = rs.race_result(race, params=params, stats=stats)
    # fifteen published digits; the last two ride on the zero data
    assert result.e == pytest.approx(0.004072076720775, abs=1e-13)
    assert result.e == pytest.approx(0.0040721, abs=5e-8)
    assert result.v == 1.0


@pytest.mark.filterwarnings("ignore::racedensity.zerodata.ThinTailWarning")
@pytest.mark.parametrize("u", [100.0, 1000.0, 2999.0])
def test_config_race_of_unlisted_modulus(tmp_path, monkeypatch, u):
    # a modulus outside the supported set comes in through a config with
    # explicit tables; fed the mod 4 table, it must give the published
    # mod 4 value, reading the table file once for the tail statistics
    # and once for all lattice frequencies together
    p = tmp_path / "race.cfg"
    p.write_text(f"q = 9\nkind = custom\noffset = 1\n"
                 f"table.main = {bundled_table('mod4').source}\n"
                 f"qstar.main = 4\nalpha.main = 1\n")
    race = race_from_config(str(p))
    assert race.q == 9
    loads = []
    load = zd.load_zeros
    monkeypatch.setattr(zd, "load_zeros",
                        lambda *a, **k: loads.append(a) or load(*a, **k))
    result = rs.race_result(race, stats=aggregate_stats(race, u))
    assert result.v == 1.0
    assert result.e == pytest.approx(0.004072076720775, abs=1e-13)
    assert len(loads) <= 2


def test_q24_odd_conductor_races_solve():
    # both races need the mod24_odd table; two cutoffs must agree within
    # their error estimates, under the exponential-moment bound
    for b in (13, 23):
        race = two_way_race(24, 1, b)
        stats = [aggregate_stats(race, u) for u in (100.0, 200.0)]
        lo, hi = (rs.race_result(race, stats=st) for st in stats)
        assert abs(lo.e - hi.e) <= lo.error_estimate + hi.error_estimate + 1e-15
        assert 0.0 < hi.e < math.exp(montgomery_bound(hi.v, stats[1]))


def test_q5_inter_residue_race():
    # one zero per component L-function suffices for seven decimals
    race = two_way_race(5, 1, 2)
    stats = aggregate_stats(race, 7.0, Kmax=8)
    assert [p.n_zeros for p in stats.per_char] == [2, 1]
    params = forced_params(stats, 5, rs.default_domega(race, stats.sigma0),
                           v_max=1.0)
    result = rs.race_result(race, params=params, stats=stats)
    assert result.e == pytest.approx(0.0478254, abs=5e-8)


def test_q13_square_race():
    race = square_race(13)
    table = bundled_table("mod13_quad")
    u = 0.5 * (float(table.gammas[2]) + float(table.gammas[3]))
    stats = aggregate_stats(race, u, Kmax=8)
    assert stats.n_zeros == 3
    params = forced_params(stats, 5, rs.default_domega(race, stats.sigma0),
                           v_max=1.0)
    result = rs.race_result(race, params=params, stats=stats)
    assert result.e == pytest.approx(0.0556810, abs=5e-8)


def test_q8_race_runs_at_its_offset():
    # the 1-vs-3 race needs the exceedance two deviations out and the
    # modulus-8 default step
    race = two_way_race(8, 1, 3)
    assert race.offset == 2.0
    assert rs.default_domega(race, 0.5) == 0.8
    stats = aggregate_stats(race, 60.0, Kmax=8)
    result = rs.race_result(race, stats=stats, target=1e-9)
    assert result.v == 2.0
    assert 0.0 < result.e < 0.5
    assert result.error_estimate < 1e-9


def test_unbiased_race_refused():
    race = two_way_race(5, 2, 3)
    assert race.offset == 0.0
    stats = aggregate_stats(race, 7.0, Kmax=8)
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
    approx = (1.0 - 3.0 * stats.beta0 / 16.0) / (
        stats.sigma0 * math.sqrt(2.0 * math.pi))
    assert got == pytest.approx(approx, rel=2e-2)


def test_density_integrates_to_one(zeta_race, run25):
    stats, params = run25
    half = stats.S + 6.0 * stats.sigma0
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


PUBLISHED_RACES = {
    "pi vs Li": prime_count_race, "mod 4": lambda: square_race(4),
    "q5 1v2": lambda: two_way_race(5, 1, 2),
    "q13 square": lambda: square_race(13),
    "q8 1v3": lambda: two_way_race(8, 1, 3),
    "q24 1v5": lambda: two_way_race(24, 1, 5),
}


def _search_order_by_order(v_max, stats, target, domega=None):
    # the parameter search one order at a time: for each K, the ceiling
    # and the error budget from one scalar tail_oracle per lattice
    # frequency below it
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
            f"{slack:.3g}; at most {domega_max:.6g} is admissible")
    for K in range(2, len(stats.R) + 1):
        params = rs.RSParams(K=K, domega=domega, v_max=v_max, target=target)
        C = ceiling_oracle(stats, K, domega)
        parts = []
        m = 1
        while m * domega < C and stats.sigma_u * (m * domega) < stats.T:
            exponent, error = tail_oracle(m * domega, stats, K)
            if math.exp(-exponent) != 0.0:
                parts.append(math.exp(-exponent) * error / m)
            m += 1
        if math.fsum(parts) / math.pi < slack:
            return params
    raise rs.ParameterError(
        f"per-term error stays above {slack:.3g} even at K = "
        f"{len(stats.R)}; raise the zero cutoff u or the moment depth")


def _outcome(search, *args):
    try:
        return search(*args)
    except rs.ParameterError as e:
        return str(e)


@pytest.mark.filterwarnings("ignore::racedensity.zerodata.ThinTailWarning")
@pytest.mark.filterwarnings("ignore::racedensity.zerodata.FrozenSpanWarning")
@pytest.mark.parametrize("name", PUBLISHED_RACES)
def test_choose_params_matches_order_by_order_search(name):
    race = PUBLISHED_RACES[name]()
    v_max = abs(race.offset)
    outcomes = []
    for u in (60.0, 100.0, 140.0, 1000.0):
        stats = aggregate_stats(race, u)
        for target in (1e-8, 1e-11, 1e-14):
            for domega in (None, rs.default_domega(race, stats.sigma0)):
                args = (v_max, stats, target, domega)
                got = _outcome(rs.choose_params, *args)
                assert got == _outcome(_search_order_by_order, *args), \
                    (u, target, domega)
                outcomes.append(isinstance(got, rs.RSParams))
    # most of the grid yields parameters
    assert sum(outcomes) > len(outcomes) // 2, outcomes


def test_choose_params_refuses_when_orders_run_out(zeta_race, zeta_table):
    # ten zeta zeros leave the per-term error above the slack at every
    # order up to K = 8
    g = zeta_table.gammas
    stats = aggregate_stats(zeta_race, float(0.5 * (g[9] + g[10])))
    domega = rs.default_domega(zeta_race, stats.sigma0)
    message = ("per-term error stays above 3.33e-12 even at K = 8; "
               "raise the zero cutoff u or the moment depth")
    with pytest.raises(rs.ParameterError) as info:
        rs.choose_params(1.0, stats, 1e-11, domega=domega)
    assert str(info.value) == message
    assert _outcome(_search_order_by_order, 1.0, stats, 1e-11, domega) \
        == message


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
    params = rs.RSParams(K=7, domega=2.5, v_max=2.0, target=1e-11)
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


def test_explicit_step_above_admissible_refused(run25):
    # the refusal names the largest step whose aliasing bound stays under
    # a third of the target, worked out here from the exceedance bound
    stats, _ = run25
    slack = 1e-11 / 3.0
    most = 2.0 * math.pi / (
        1.0 + stats.sigma0 * math.sqrt(2.0 * math.log(1.0 / slack)))
    with pytest.raises(rs.ParameterError) as info:
        rs.choose_params(1.0, stats, 1e-11, domega=1.01 * most)
    assert f"at most {most:.6g} is admissible" in str(info.value)
    assert rs.choose_params(1.0, stats, 1e-11, domega=most).domega == most


def test_samples_of_another_step_refused(zeta_race):
    # samples built at pi/2 read with params at pi/3 would sum the wrong
    # frequencies under a small error estimate
    stats = aggregate_stats(zeta_race, 100.0)
    samples = rs.phat_samples(
        zeta_race, rs.RSParams(K=6, domega=math.pi / 2, v_max=1.0), stats)
    params = rs.RSParams(K=6, domega=math.pi / 3, v_max=1.0)
    for compute in (rs.compute_E, rs.compute_P):
        with pytest.raises(rs.ParameterError,
                           match="rebuild them with these params"):
            compute(1.0, zeta_race, params, stats=stats, samples=samples)
    # a shortened tuple is not the lattice's prefix either
    with pytest.raises(rs.ParameterError, match="rebuild them"):
        rs.compute_E(1.0, zeta_race,
                     rs.RSParams(K=6, domega=math.pi / 2, v_max=1.0),
                     stats=stats, samples=samples[1:])


def test_invalid_params_rejected():
    with pytest.raises(rs.ParameterError):
        rs.RSParams(K=7, domega=4.0, v_max=2.0)
    with pytest.raises(rs.ParameterError):
        rs.RSParams(K=0, domega=1.0, v_max=2.0)
    for domega in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(rs.ParameterError):
            rs.RSParams(K=7, domega=domega, v_max=2.0)
    for v_max in (float("nan"), float("inf"), -1.0):
        with pytest.raises(rs.ParameterError, match="v_max must be finite"):
            rs.RSParams(K=7, domega=1.0, v_max=v_max)


def test_params_hold_only_the_runs_choices():
    assert [f.name for f in dataclasses.fields(rs.RSParams)] == [
        "K", "domega", "v_max", "target"]


def test_no_convergence_radius_refused(zeta_race):
    # below the first zero the tail statistics carry a NaN radius; a
    # lattice mask like tau < T would drop every sample and return a
    # value built from no terms at all
    stats = aggregate_stats(zeta_race, 1.0)
    assert math.isnan(stats.T)
    # both refusals are one type with one message, which names the fix
    params = rs.RSParams(K=4, domega=1.0, v_max=1.0)
    refusals = []
    for call in (lambda: rs.compute_E(1.0, zeta_race, params, stats=stats),
                 lambda: rs.choose_params(1.0, stats, 1e-11)):
        with pytest.raises(tr.ConvergenceError) as info:
            call()
        refusals.append((type(info.value), str(info.value)))
    assert refusals == [(tr.ConvergenceError,
                         "tail statistics carry no usable convergence "
                         "radius; raise the cutoff u")] * 2


def test_public_names_pinned():
    # each module's public API in full; a name joins or leaves only by
    # an edit here
    assert rs.__all__ == [
        "ParameterError", "RSParams", "PhatSample", "choose_params",
        "compute_E", "compute_P", "default_domega", "default_params",
        "density_grid", "phat_samples", "race_result"]
    assert tr.__all__ == [
        "AccuracyWarning", "AsymptoticL", "ConvergenceError", "LDerivs",
        "l0_asymptotic", "l0_full", "model_constants", "model_log_density",
        "model_log_exceedance", "model_saddle", "phat_prefix"]
    assert sf.__all__ == [
        "BaseConstants", "j0_lowbias", "log_i0_derivs", "c_coeffs",
        "arctan_integral", "base_constants"]
    assert zd.__all__ == [
        "CharTailStats", "FrozenSpanWarning", "TailStats", "ThinTailWarning",
        "ZeroDataError", "ZeroTable", "aggregate_stats", "available_tables",
        "bundled_table", "load_zeros", "montgomery_bound", "resolve_table"]
    assert rc.__all__ == [
        "Character", "RaceEntry", "RaceError", "RaceSpec",
        "SUPPORTED_MODULI", "alpha_coeffs", "characters", "prime_count_race",
        "race_from_config", "square_race", "square_root_count",
        "two_way_race"]
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
