"""Transform layer: characteristic-function factors, the log-I0 series,
the full cumulant function with derivatives, and the large-argument
model.

Printed four-digit factor values, the classical variance constant
2 + euler_gamma - log(4 pi), a brute-force sum of log I0 over every
tabulated zero with a quadrature of the smooth density past the table,
and decimal sums at 40 digits serve as external anchors; everything
else is an internal consistency obligation (cutoff independence,
finite-difference derivative chains).
"""

import bisect
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import i0e, jn_zeros
from scipy.special import j0 as scipy_j0

from racedensity import rs_method as rs
from racedensity import specfun as sf
from racedensity import transforms as tr
from racedensity import zerodata as zd
from racedensity.race import (
    RaceEntry, RaceSpec, prime_count_race, square_race, two_way_race,
)
from racedensity.rs_method import (
    RSParams, choose_params, phat_samples, race_result,
)
from racedensity.specfun import _log_j0_fracs, base_constants
from racedensity.specfun import j0_lowbias
from racedensity.zerodata import (
    ZeroDataError, aggregate_stats, bundled_table, resolve_table,
)
from tail_moments import race_moments, sigma_u

J1 = float(jn_zeros(0, 1)[0])
EULER_GAMMA = 0.5772156649015329


@pytest.fixture(scope="module")
def zeta_race():
    return prime_count_race()


@pytest.fixture(scope="module")
def stats35(zeta_race):
    return aggregate_stats(zeta_race, 35.0)


@pytest.fixture(scope="module")
def stats500(zeta_race):
    return aggregate_stats(zeta_race, 500.0)


@pytest.fixture(scope="module")
def stats2000(zeta_race):
    return aggregate_stats(zeta_race, 2000.0)


def five_point(f, x0, h):
    # fourth-order central difference of a scalar function
    v = [f(x0 + k * h) for k in (-2, -1, 1, 2)]
    return (v[0] - 8 * v[1] + 8 * v[2] - v[3]) / (12 * h)


# ---------------------------------------------------------------- Fourier side

def lattice_samples(race, stats, domega):
    # phat_samples at step domega
    return phat_samples(race, RSParams(domega=domega, v_max=0.0), stats)


def head_product(w, race, u):
    # the explicit product of j0_lowbias factors over the zeros at or
    # below u, in extended precision
    value = np.longdouble(1.0)
    for entry in race.characters:
        g = resolve_table(entry).gammas
        g = g[g <= u].astype(np.longdouble)
        value *= np.prod(j0_lowbias(2.0 * entry.alpha * w / np.sqrt(0.25 + g * g)))
    return float(value)


def test_tail_factor_single_term_is_gaussian(zeta_race, stats35):
    # every zero above u = 35 enters through the log-J0 series, whose
    # first order is the Gaussian variance term -(sigma_u w)^2 / 2; what
    # the later orders add is negative and, as the term ratios stay below
    # (z/j1)^2 <= (1.4/2.4048)^2, at most the second-order term
    # q^2 b_2 / 4 (q = w^2, b_2 = B_2) over 1 - that ratio
    w = 1.7
    out = lattice_samples(zeta_race, stats35, w)[0]
    assert out.omega == w and out.tail == 1.0
    tail = math.log(out.phat / head_product(w, zeta_race, 35.0))
    gauss = -((sigma_u(zeta_race, stats35.u) * w) ** 2) / 2.0
    second = w ** 4 * race_moments(zeta_race, stats35).B[1] / 4.0
    assert gauss - second / (1.0 - (1.4 / 2.4048) ** 2) < tail - 1e-15
    assert tail < gauss - 0.99 * second


def test_tail_factor_matches_printed_run(zeta_race, stats35):
    # four-digit tail factors of a published sample evaluation (cutoff
    # 35, seven series terms, frequencies pi/2 and 3 pi/2): the samples
    # over the explicit product of the five zeros below 35
    samples = lattice_samples(zeta_race, stats35, math.pi / 2)
    for m, printed in ((1, 0.9703), (3, 0.7618)):
        w = m * math.pi / 2
        assert samples[m - 1].phat / head_product(w, zeta_race, 35.0) \
            == pytest.approx(printed, abs=5e-5)


def test_tail_factor_truncation_estimate_is_honest(zeta_race):
    # a row's bound on what cutting the series after 56 orders drops from
    # its log brackets what orders 57-120 actually add over the row's far
    # tabulated zeros, to within a small factor
    table = bundled_table("zeta")
    a = [float(x) for x in _log_j0_fracs(120)]
    den2 = 0.25 + table.gammas.astype(np.longdouble) ** 2
    for w in (15.0, 20.0, 25.0):
        _, (estimate,) = tr._phat_rows([w], zeta_race)
        x = (w * w) / den2
        x = x[np.sqrt(den2) >= 2.0 * w / tr._FAR_Z]
        true = float(sum(-a[k - 1] * np.sum(x ** k) for k in range(57, 121)))
        assert 0.2 * estimate <= true <= estimate


def test_tail_factor_order_validation(zeta_race, stats35):
    # no order to validate: the series keeps 56, and RSParams takes none
    assert RSParams(domega=1.0, v_max=0.0).K == tr._FAR_TERMS == 56
    with pytest.raises(TypeError):
        RSParams(K=0, domega=1.0, v_max=0.0)


def test_explicit_product_at_zero_frequency(zeta_race):
    assert tr.phat_prefix([0.0], zeta_race).tolist() == [1.0]


def test_explicit_product_matches_printed_run(zeta_race):
    # the printed five-factor products times the printed tail factors of
    # the same run, 0.9735 * 0.9703 and 0.7822 * 0.7618, each product
    # within the rounding of its printed factors
    assert tr.phat_prefix([math.pi / 2], zeta_race)[0] == pytest.approx(
        0.9735 * 0.9703, abs=5e-5 * (0.9735 + 0.9703))
    assert tr.phat_prefix([3 * math.pi / 2], zeta_race)[0] == pytest.approx(
        0.7822 * 0.7618, abs=5e-5 * (0.7822 + 0.7618))
    assert head_product(math.pi / 2, zeta_race, 15.0) == pytest.approx(
        0.9877, abs=5e-5)


def test_explicit_product_needs_zero_coverage(zeta_race):
    # at w = 11000 the split passes zeta's last zero, 14999.8
    with pytest.raises(ZeroDataError, match="w = 11000"):
        tr.phat_prefix([1.0, 11000.0], zeta_race)


def test_explicit_product_refuses_non_finite_frequency(zeta_race):
    # a NaN or infinite frequency is refused by name, as a ValueError and
    # not as a ZeroDataError that blames the table
    for w in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"w = {w!r}$") as exc:
            tr.phat_prefix([1.0, w], zeta_race)
        assert type(exc.value) is ValueError


def past_table_log(w, entry, table, terms=12):
    # log J0 summed over the zeros past the table end as the log-J0
    # series sum_k a_k q^k b_k, q = (alpha w)^2: b_1 is what b1_total
    # leaves after the tabulated zeros (in extended precision), b_k for
    # k >= 2 the smooth zero density's integral of gamma^(-2k) from the
    # last zero on
    a = [float(x) for x in _log_j0_fracs(terms)]
    g = table.gammas.astype(np.longdouble)
    q = (entry.alpha * w) ** 2
    U = table.last_zero
    y = math.log(table.qstar * U / (2.0 * math.pi))
    b = [float(np.longdouble(table.b1_total) - np.sum(1.0 / (0.25 + g * g)))]
    b += [table.weight * (y + 1.0 / (2 * k - 1))
          / (2.0 * math.pi * (2 * k - 1) * U ** (2 * k - 1))
          for k in range(2, terms + 1)]
    return math.fsum(a[k] * q ** (k + 1) * b[k] for k in range(terms))


def test_explicit_product_next_to_j0_root_matches_direct(zeta_race):
    # a frequency pinning the first factor within 1e-3 of a kernel zero;
    # an independent plain product over every tabulated zero, times the
    # series past the table end, must agree, sign included
    table = bundled_table("zeta")
    g1 = float(table.gammas[0])
    w = J1 * math.sqrt(0.25 + g1 * g1) / 2.0 + 3e-4
    factors = np.asarray(scipy_j0(2.0 * w / np.sqrt(0.25 + table.gammas ** 2)))
    assert float(np.min(np.abs(factors))) < 1e-3
    assert int(np.sum(factors < 0)) % 2 == 1
    direct = 1.0
    for v in factors.tolist():
        direct *= v
    direct *= math.exp(past_table_log(w, zeta_race.characters[0], table))
    (got,) = tr.phat_prefix([w], zeta_race)
    assert got < 0.0
    assert got == pytest.approx(direct, rel=1e-10)


def test_split_point_independence(zeta_race, stats35):
    # moving the explicit/tail cutoff must not move the product
    stats100 = aggregate_stats(zeta_race, 100.0)
    samples35, samples100 = (
        lattice_samples(zeta_race, stats, math.pi / 2)
        for stats in (stats35, stats100))
    for m in (1, 2, 4):
        assert samples35[m - 1].phat == samples100[m - 1].phat


@pytest.mark.parametrize("race, u", [
    (prime_count_race(), 1000.0),
    (two_way_race(5, 1, 2), 7.0),
    (two_way_race(24, 1, 5), 100.0),
    (prime_count_race(), 2999.0),
])
def test_explicit_product_frequencies_independent(race, u, monkeypatch):
    # one call over many frequencies gives, bit for bit, what one call
    # per frequency gives; the rows' splits reach the zeros up to about
    # height u, and the last frequency puts the first kernel factor
    # within 1e-3 of a zero of J0. At u = 2999 the near factors of the
    # rows fill several blocks, and the near-root row lands in a later
    # block
    entry = race.characters[0]
    g1 = float(resolve_table(entry).gammas[0])
    top = tr._FAR_Z * u / 2.0
    ws = np.linspace(top / 40.0, top, 40).tolist() + [
        0.0, 0.1, 0.7, 1.9, 2.5, 4.0,
        J1 * math.sqrt(0.25 + g1 * g1) / (2.0 * entry.alpha) + 3e-4]
    calls = []

    def counted(z):
        calls.append(z.size)
        return j0_lowbias(z)

    monkeypatch.setattr(tr, "j0_lowbias", counted)
    together = tr.phat_prefix(ws, race).tolist()
    if u > 2000.0:
        assert len(calls) >= 3
    assert together == [tr.phat_prefix([w], race)[0] for w in ws]
    assert tr.phat_prefix([], race).size == 0


@pytest.mark.parametrize("race", [prime_count_race(), two_way_race(4, 1, 3)])
def test_prefix_rows_independent_over_deep_lattice(race):
    # every row of one call over the lattice of a race_result solve, out
    # to ten times the points it keeps (the points the bound on the
    # dropped terms reads), is, bit for bit, what a call for that row
    # alone gives: the suffix sums a row reads follow its own split
    stats = aggregate_stats(race, 2999.0)
    result = race_result(race, stats)
    step = result.params["domega"]
    ws = np.arange(1, 10 * result.params["n_terms"] + 1) * step
    together = tr.phat_prefix(ws, race)
    alone = np.array([tr.phat_prefix([w], race)[0] for w in ws])
    assert ws.size > 100
    assert np.array_equal(together, alone)


def test_product_sign_spans_characters():
    # q8 1v3: the frequency puts the first mod 4 factor 3e-4 below a zero
    # of J0, while every mod8_even factor below 140 stays above 0.24 in
    # magnitude. The row's sign counts the negative factors of both
    # characters, an odd number, and its value is the explicit
    # product's (the bound is test_prefix_matches_explicit_product's)
    race = two_way_race(8, 1, 3)
    u = 140.0
    g1 = float(resolve_table(race.characters[0]).gammas[0])
    w = J1 * math.sqrt(0.25 + g1 * g1) / 2.0 - 3e-4
    least = []
    for entry in race.characters:
        g = resolve_table(entry).gammas
        g = g[g <= u].astype(np.longdouble)
        f = j0_lowbias(2.0 * entry.alpha * w / np.sqrt(0.25 + g * g))
        least.append(float(np.min(np.abs(f))))
    assert least[0] < 1e-3 < least[1]
    (got,) = tr.phat_prefix([w], race)
    (want,) = _explicit_product([w], race)
    assert got < 0.0
    assert abs(got - want) <= 4e-16 * abs(want)


def truncated_race(tmp_path, race, u):
    # race over copies of its tables cut at height u, each copy keeping
    # its table's b1_total and weight: its characteristic function is
    # the explicit product over the zeros at or below u times the series
    # over the smooth zero density past u
    entries = []
    for i, entry in enumerate(race.characters):
        table = resolve_table(entry)
        path = tmp_path / f"{entry.table}_cut.txt"
        path.write_text(
            f"# qstar: {table.qstar}\n# b1_total: {table.b1_total!r}\n"
            f"# weight: {table.weight}\n"
            + "".join(f"{g!r}\n" for g in
                      table.gammas[table.gammas <= u].tolist()))
        entries.append(RaceEntry(f"c{i}", table.qstar, entry.alpha,
                                 str(path), table.weight))
    return RaceSpec(q=9, kind="two-way", contestants=(),
                    characters=tuple(entries), offset=race.offset)


def mp_product(mpmath, w, race, terms=80):
    # the characteristic function at w in mpmath's working precision:
    # the product of J0 over every tabulated zero, times the exponential
    # of the log-J0 series past each table's end, as past_table_log forms
    # it (b_1 from b1_total, b_k from the smooth density)
    a = _log_j0_fracs(terms)
    total = mpmath.mpf(1)
    for entry in race.characters:
        table = resolve_table(entry)
        alpha = mpmath.mpf(entry.alpha)
        g = [mpmath.mpf(x) for x in table.gammas.tolist()]
        total *= mpmath.fprod(
            mpmath.besselj(0, 2 * alpha * mpmath.mpf(w) / mpmath.sqrt(0.25 + x * x))
            for x in g)
        q = (alpha * mpmath.mpf(w)) ** 2
        U = g[-1]
        y = mpmath.log(table.qstar * U / (2 * mpmath.pi))
        b = [mpmath.mpf(table.b1_total) - mpmath.fsum(1 / (0.25 + x * x) for x in g)]
        b += [table.weight * (y + mpmath.mpf(1) / (2 * k - 1))
              / (2 * mpmath.pi * (2 * k - 1) * U ** (2 * k - 1))
              for k in range(2, terms + 1)]
        total *= mpmath.exp(mpmath.fsum(
            mpmath.mpf(a[k].numerator) / a[k].denominator * q ** (k + 1) * b[k]
            for k in range(terms)))
    return total


# (frequency, relative tolerance) over the zeta zeros up to 850, 530 of
# them, and the series past them. The tolerances are the errors measured
# against the 30-digit product, rounded up. Rows with no factor near a
# root of J0 and no factor past z = 6 are good to an ulp; the others
# carry the conditioning of their near-root factors.
_LONG_ROWS = [
    (3.0, 2e-16),      # every zero far; measured 4.0e-17
    (20.0, 2e-16),     # 3 near zeros; 3.7e-18
    (None, 5e-15),     # 2 near, one factor 3e-4 past j1; 3.3e-15
    (100.0, 2e-16),    # 49 near, 5 of them past z = 6; 7.8e-17
    (250.0, 5e-15),    # 173 near, 22 past z = 6; 5.0e-16
    (350.0, 2e-15),    # 269 near, 37 past z = 6; 1.1e-15
]


def test_long_product_matches_30_digit_oracle(zeta_race, tmp_path):
    mpmath = pytest.importorskip("mpmath")
    race = truncated_race(tmp_path, zeta_race, 850.0)
    assert len(resolve_table(race.characters[0])) > 500
    g1 = float(bundled_table("zeta").gammas[0])
    near_root = J1 * math.sqrt(0.25 + g1 * g1) / 2.0 + 3e-4
    ws = [near_root if w is None else w for w, _ in _LONG_ROWS]
    got = tr.phat_prefix(ws, race)
    with mpmath.workdps(30):
        for w, (_, tol), value in zip(ws, _LONG_ROWS, got):
            want = mp_product(mpmath, w, race)
            assert abs(value - want) <= tol * abs(want), w


def test_prefix_with_irrational_alpha_rounds_correctly(tmp_path):
    # q5 1v2 weights its conjugate pair by alpha = 1/sqrt(2), so t =
    # 2*alpha*w is not a double. Over its tables cut at u = 106.873, at
    # every live frequency of a solve at step 1/(2 sigma0) with
    # |phat| >= 1e-3 (6 rows), the result lies within half an ulp of a
    # 40-digit product, plus 1e-18 relative for the extended-precision
    # product's own error. With t rounded to double first, rows lay up to
    # 3.3e-16 relative beyond it
    mpmath = pytest.importorskip("mpmath")
    full = two_way_race(5, 1, 2)
    race = truncated_race(tmp_path, full, 106.873)
    stats = aggregate_stats(full, 106.873)
    params = choose_params(abs(full.offset), stats, 1e-11,
                           domega=1.0 / (2.0 * stats.sigma0))
    ws = [s.omega for s in phat_samples(full, params, stats)]
    got = tr.phat_prefix(ws, race)
    rows = [(w, v) for w, v in zip(ws, got) if abs(v) >= 1e-3]
    assert len(rows) == 6
    with mpmath.workdps(40):
        for w, value in rows:
            err = float(abs(value - mp_product(mpmath, w, race)))
            assert err <= 0.5 * np.spacing(abs(value)) + 1e-18 * abs(value), w


def test_long_product_does_not_underflow(zeta_race):
    # zeta, 16,182 zeros. The product at w = 372 is about 2e-302 and must
    # equal a sign-tracked sum of logs of the same factors and the series
    # past the table; at w = 800 and 1500 the true values lie below the
    # double range and must come back as zeros
    table = bundled_table("zeta")
    g = table.gammas.astype(np.longdouble)
    w = 372.0
    got = tr.phat_prefix([w, 800.0, 1500.0], zeta_race)
    assert np.all(np.isfinite(got))
    f = j0_lowbias(2.0 * w / np.sqrt(0.25 + g * g))
    sign = (-1.0) ** int(np.sum(f < 0.0))
    want = sign * float(np.exp(np.sum(np.log(np.abs(f)))
                               + past_table_log(w, zeta_race.characters[0], table)))
    assert 1e-302 < abs(want) < 1e-301
    assert abs(got[0] - want) <= 1e-12 * abs(want)
    assert abs(got[1]) == 0.0 and abs(got[2]) == 0.0


def _explicit_product(ws, race):
    # the whole product of j0_lowbias factors over every tabulated zero,
    # in extended precision, with the log-sum route below 1e-3, times the
    # series past each table's end (past_table_log). As in phat_prefix,
    # t = 2*alpha*w is formed in extended precision
    dens = []
    for entry in race.characters:
        table = resolve_table(entry)
        gl = table.gammas.astype(np.longdouble)
        dens.append((entry, table, np.longdouble(2.0 * entry.alpha),
                     np.sqrt(0.25 + gl * gl)))
    out = []
    for w in ws:
        fs = [j0_lowbias(two_alpha * w / den) for _, _, two_alpha, den in dens]
        past = math.fsum(past_table_log(w, entry, table)
                         for entry, table, _, _ in dens)
        if any(np.any(f == 0.0) for f in fs):
            out.append(0.0)
        elif min(float(np.min(np.abs(f))) for f in fs) < 1e-3:
            total = sum(np.sum(np.log(np.abs(f))) for f in fs) + past
            neg = sum(int(np.sum(f < 0.0)) for f in fs)
            out.append(float((-1.0) ** neg * np.exp(total)))
        else:
            value = np.exp(np.longdouble(past))
            for f in fs:
                value *= np.prod(f)
            out.append(float(value))
    return np.array(out)


def _solve_params(race, stats):
    # the parameters of race_result's solve: its step
    step = race_result(race, stats).params["domega"]
    return choose_params(abs(race.offset), stats, 1e-11, domega=step)


@pytest.mark.parametrize("race, u", [
    (prime_count_race(), 2999.0),
    (two_way_race(4, 1, 3), 2999.0),
    (two_way_race(24, 1, 5), 140.0),
    (two_way_race(5, 1, 2), 140.0),
])
def test_prefix_matches_explicit_product(race, u):
    # at every live frequency of a race_result solve, the split product
    # agrees with the explicit one to 4e-16 relative, or 1e-18 absolute
    # where it is below 1e-3
    stats = aggregate_stats(race, u)
    params = _solve_params(race, stats)
    ws = [s.omega for s in phat_samples(race, params, stats)]
    got = tr.phat_prefix(ws, race)
    want = _explicit_product(ws, race)
    small = np.abs(want) < 1e-3
    assert np.all(np.abs(got - want)[~small] <= 4e-16 * np.abs(want[~small]))
    assert np.all(np.abs(got - want)[small] <= 1e-18)


@pytest.mark.parametrize("race, u", [
    (prime_count_race(), 2999.0),
    (two_way_race(4, 1, 3), 2999.0),
    (two_way_race(24, 1, 5), 140.0),
], ids=["race0", "race1", "race2"])
def test_far_zone_truncation_over_actual_zeros(race, u):
    # what the 56-order series drops over the far zeros of the largest
    # kept frequency of a race_result solve, in rationals. Each
    # 1/(1/4 + g^2) is rounded up to a multiple of 2^-128. The zeros with
    # z^2/4 >= 0.1225 (z >= 0.7) take 20 exact terms, past which the
    # rest is a geometric series whose ratio (z/j1)^2 is below
    # (1.4/2.4048)^2; every other zero, tabulated or past the table,
    # drops at most |a_57| 0.1225^56 z^2/4 / (1 - r), and those z^2/4 sum
    # to at most q b1_total. The sum lies below 1e-24 and below the
    # row's own bound
    stats = aggregate_stats(race, u)
    w = phat_samples(race, _solve_params(race, stats), stats)[-1].omega
    n, P = 20, 128
    a = _log_j0_fracs(tr._FAR_TERMS + n)
    xc = Fraction(1225, 10000)
    r = Fraction(14, 10) ** 2 / Fraction(24048, 10000) ** 2
    total = Fraction(0)
    for entry in race.characters:
        table = resolve_table(entry)
        g = table.gammas
        t = np.longdouble(2.0 * entry.alpha) * np.longdouble(w)
        q = Fraction(*t.as_integer_ratio()) ** 2 / 4
        # the far zeros as phat_prefix picks them: den >= |t| / _FAR_Z
        gl = g.astype(np.longdouble)
        far = g[np.sqrt(0.25 + gl * gl) >= float(abs(t)) / tr._FAR_Z]
        inv = [math.ceil(2 ** P / (Fraction(1, 4) + Fraction(x) ** 2))
               for x in far.tolist()]
        group = [d for d in inv if q * d >= xc * 2 ** P]
        assert group
        powers = [d ** tr._FAR_TERMS for d in group]
        terms = []
        for k in range(tr._FAR_TERMS + 1, tr._FAR_TERMS + n + 1):
            powers = [p * d for p, d in zip(powers, group)]
            terms.append(-a[k - 1] * q ** k * Fraction(sum(powers), 2 ** (P * k)))
        total += sum(terms) + terms[-1] * r / (1 - r)
        total += -a[tr._FAR_TERMS] * xc ** tr._FAR_TERMS * q \
            * Fraction(table.b1_total) / (1 - r)
    assert total < Fraction(1, 10 ** 24)
    _, (bound,) = tr._phat_rows([w], race)
    assert total <= Fraction(bound)


PUBLISHED_RACES = [prime_count_race(), square_race(4), two_way_race(5, 1, 2),
                   square_race(13), two_way_race(8, 1, 3),
                   two_way_race(24, 1, 5)]
BOUND_CASES = [(race, u) for u in (60.0, 140.0) for race in PUBLISHED_RACES] \
    + [(prime_count_race(), 2999.0), (square_race(4), 2999.0)]
BOUND_IDS = [f"{race.name}-{u:g}" for race, u in BOUND_CASES]


@pytest.mark.parametrize("race, u", BOUND_CASES, ids=BOUND_IDS)
def test_prefix_log_bound_covers_prefix(race, u):
    # on 400 frequencies out to T/sigma_u, with T the race radius of the
    # tail statistics at u, or to the largest frequency every table
    # covers, the bound lies above log|phat_prefix| and never rises; rows
    # whose product underflows to 0 have no log to compare. One frequency
    # past the tables' reach has no bound (+inf)
    stats = aggregate_stats(race, u)
    radius = race_moments(race, stats).T
    reach = min(tr._FAR_Z * math.sqrt(0.25 + resolve_table(e).last_zero ** 2)
                / (2.0 * e.alpha) for e in race.characters)
    ws = np.linspace(0.0, min(radius / sigma_u(race, u), reach * (1 - 1e-9)),
                     401)[1:]
    bound = tr._prefix_log_bound(ws, race)[0]
    assert np.all(np.diff(bound) <= 0.0)
    prefix = np.abs(tr.phat_prefix(ws, race))
    live = prefix > 0.0
    assert live.sum() > 20
    assert np.all(np.log(prefix[live]) <= bound[live])
    assert tr._prefix_log_bound([reach * (1 + 1e-9)], race)[0].tolist() \
        == [math.inf]


def test_log_j0_at_split_rounded_toward_zero():
    # the stored log J0(_FAR_Z) lies at or above the true value, close by
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = mpmath.log(mpmath.besselj(0, mpmath.mpf(tr._FAR_Z)))
        assert tr._LOG_J0_FAR_Z >= want
        assert tr._LOG_J0_FAR_Z - want < 1e-6


def test_j0_past_split_at_most_its_value_there():
    # sup |J0| over z >= _FAR_Z is J0(_FAR_Z): on a grid of step 0.02,
    # 300 points to each period, out to 200, past which the envelope
    # sqrt(2 / (pi z)) is below 0.06, no value is larger
    mpmath = pytest.importorskip("mpmath")
    top = mpmath.besselj(0, tr._FAR_Z)
    grid = np.arange(tr._FAR_Z, 200.0, 0.02).tolist()
    assert max(abs(mpmath.besselj(0, z)) for z in grid) <= top


def test_j0_past_z0_within_far_factor_envelope():
    # the bound on a far factor in _prefix_log_bound's envelope:
    # |J0(z)| <= exp(-z0^2/4) for every z >= z0, z0 in (0, _FAR_Z]. The
    # bound falls as z0 grows, so it holds for all such z0 where it holds
    # at z0 = min(z, _FAR_Z): on a grid of step 0.02 out to 200, past
    # which sqrt(2 / (pi z)) < 0.06 bounds |J0|, at 30 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for z in np.arange(0.02, 200.0, 0.02).tolist():
            z0 = mpmath.mpf(min(z, tr._FAR_Z))
            assert abs(mpmath.besselj(0, z)) <= mpmath.exp(-z0 * z0 / 4), z
    # past _FAR_Z the step from J0's bound there to the envelope's
    assert tr._LOG_J0_FAR_Z < -0.25 * tr._FAR_Z ** 2


# ------------------------------------------------------------ log-I0 series

def series_orders(s, stats, order=0):
    """Order-th s-derivative of the log-I0 series over the zeta zeros
    above stats.u and past the table's end, sum_k (-1)^k a_k s^(2k) W_k,
    as l0_full sums a character's far zeros (tr._log_i0_series)."""
    table = bundled_table("zeta")
    w = table._suffix_sums.columns(np.array([table.count(stats.u)]))[:, 0]
    return float(tr._log_i0_series(s, 1.0, w)[0][order])


def test_raw_series_at_origin(zeta_race, stats500):
    # s = 0 gives exact zeros in the value and the odd orders; the only
    # surviving term of the second derivative at 0 is the tail variance
    assert series_orders(0.0, stats500) == 0.0
    for order in (1, 3, 5):
        assert series_orders(0.0, stats500, order=order) == 0.0
    assert series_orders(0.0, stats500, order=2) == pytest.approx(
        sigma_u(zeta_race, stats500.u) ** 2, rel=1e-15)


def test_raw_series_single_term(zeta_race, stats500):
    # with W_1 alone the series is (alpha s)^2 W_1
    w = np.zeros(zd._SUFFIX_ORDERS, dtype=np.longdouble)
    w[0] = 0.5 * sigma_u(zeta_race, stats500.u) ** 2
    s = 2.3
    assert float(tr._log_i0_series(s, 1.0, w)[0][0]) == pytest.approx(
        0.5 * (sigma_u(zeta_race, stats500.u) * s) ** 2, rel=1e-15)


def test_raw_series_derivative_chain(stats500):
    for order in range(1, 6):
        fd = five_point(
            lambda x: series_orders(x, stats500, order - 1), 200.0, 0.02)
        got = series_orders(200.0, stats500, order)
        assert got == pytest.approx(fd, rel=1e-8)


def test_raw_series_parity(stats500):
    assert series_orders(-3.0, stats500, order=1) == pytest.approx(
        -series_orders(3.0, stats500, order=1), rel=1e-15)
    assert series_orders(-3.0, stats500, order=2) == pytest.approx(
        series_orders(3.0, stats500, order=2), rel=1e-15)


# ------------------------------------------------------------- full cumulant

def test_cumulant_origin_matches_classical_variance(zeta_race, stats2000):
    # the second derivative at 0 is the full variance of the limit
    # distribution; for the prime-count fluctuation that constant has
    # the closed form 2 + euler_gamma - log(4 pi)
    out = tr.l0_full(0.0, zeta_race, stats2000)
    assert out.value == 0.0 and out.d1 == 0.0
    assert out.d3 == 0.0 and out.d5 == 0.0
    assert out.d2 == pytest.approx(
        2.0 + EULER_GAMMA - math.log(4.0 * math.pi), rel=1e-12)


def test_cumulant_origin_fourth_derivative(zeta_race, stats2000):
    # fourth cumulant of an arcsine-component sum: -(3/2) beta sigma^4
    out = tr.l0_full(0.0, zeta_race, stats2000)
    beta0 = race_moments(zeta_race, stats2000).beta0
    expect = -1.5 * beta0 * stats2000.sigma0 ** 4
    assert out.d4 == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("s0", [1.0, 10.0, 100.0, 1000.0, 12527.41, 50000.0])
def test_cumulant_derivative_chain(zeta_race, stats2000, s0):
    h = 6e-4 * max(1.0, s0)
    base = tr.l0_full(s0, zeta_race, stats2000)
    for order in range(1, 6):
        fd = five_point(
            lambda x: tr.l0_full(x, zeta_race, stats2000).values[order - 1],
            s0, h)
        assert base.values[order] == pytest.approx(fd, rel=1e-7)


@settings(max_examples=40, deadline=None)
@given(s=st.floats(min_value=0.01, max_value=50.0))
def test_cumulant_slope_positive_and_bounded(s):
    # the slope is positive and never exceeds the small-s tangent line
    # s * sigma0^2 (each component's slope is concave in s)
    race = prime_count_race()
    stats = aggregate_stats(race, 200.0)
    out = tr.l0_full(s, race, stats)
    assert 0.0 < out.d1 <= s * stats.sigma0 ** 2 * (1.0 + 1e-9)
    assert out.d2 > 0.0


def test_cumulant_slope_increasing(zeta_race, stats2000):
    grid = [0.5, 2.0, 8.0, 40.0, 200.0, 900.0]
    slopes = [tr.l0_full(s, zeta_race, stats2000).d1 for s in grid]
    assert all(a < b for a, b in zip(slopes, slopes[1:]))


def test_cumulant_dual_cutoff_consistency(zeta_race):
    # l0_full reads only the race: every value, to the bit, is the same
    # at cutoffs 60, 2000 and 14000, inside the table and past its end
    for s in (0.0, 1.0, 10.0, 100.0, 1000.0, 12527.41, 30000.0):
        got = {repr(tr.l0_full(s, zeta_race, aggregate_stats(zeta_race, u)))
               for u in (60.0, 2000.0, 14000.0)}
        assert len(got) == 1, s


def _log_i0_coeffs(n):
    # Maclaurin coefficients of log I0 in powers of x^2, exact in
    # rationals: the power-series logarithm of I0 = sum (x^2/4)^m / m!^2
    a = [Fraction(1, 4 ** m * math.factorial(m) ** 2) for m in range(n + 1)]
    lg = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        lg[m] = a[m] - sum(k * lg[k] * a[m - k] for k in range(1, m)) / m
    return [float(c) for c in lg[1:]]


LOG_I0_COEFFS = _log_i0_coeffs(40)


def log_i0(x):
    """log I0(x) at each x >= 0: up to 1.4 the Maclaurin series, whose
    terms fall by (1.4/j1)^2 = 0.34 at least, so 40 orders leave under
    1e-18 of it; above, log i0e(x) + x, which would cancel at small x."""
    x = np.asarray(x, dtype=float)
    q = x * x
    acc = np.zeros_like(q)
    for c in LOG_I0_COEFFS[::-1]:
        acc = acc * q + c
    with np.errstate(divide="ignore"):
        big = np.log(i0e(x)) + x
    return np.where(x <= 1.4, acc * q, big)


def brute_force_l0(s, race):
    """The cumulant function at s summed zero by zero.

    Every tabulated ordinate contributes log I0(x), x = 2 alpha s /
    sqrt(1/4 + g^2). The zeros past the table's end T are the smooth
    density weight/(2 pi) log(qstar g / 2 pi) with x = 2 alpha s / g,
    integrated by scipy's quad in log g from T, to where x falls to 1.4
    and on for 80 e-folds (the rest is below 1e-30 of it). Where the
    table records b1_total, the zeros past T add (alpha s)^2 times what
    it leaves past the table less the density's b_1 there.
    """
    parts = []
    for entry in race.characters:
        table = resolve_table(entry)
        g = table.gammas
        T = float(g[-1])
        t = 2.0 * entry.alpha * s
        parts.append(math.fsum(log_i0(t / np.sqrt(0.25 + g * g)).tolist()))

        def density(y):
            gamma = math.exp(y)
            return (gamma * table.weight / (2.0 * math.pi)
                    * math.log(table.qstar * gamma / (2.0 * math.pi))
                    * float(log_i0(t / gamma)))
        top = math.log(max(t / 1.4, T))
        parts.append(quad(density, math.log(T), top, epsabs=0.0,
                          epsrel=1e-13, limit=200)[0])
        parts.append(quad(density, top, top + 80.0, epsabs=0.0,
                          epsrel=1e-13, limit=400,
                          points=[top + k for k in range(1, 80, 4)])[0])
        if table.b1_total is not None:
            y = math.log(table.qstar * T / (2.0 * math.pi))
            past_b1 = table.weight * (y + 1.0) / (2.0 * math.pi * T)
            parts.append((entry.alpha * s) ** 2 * (
                table.b1_total - math.fsum((1.0 / (0.25 + g * g)).tolist())
                - past_b1))
    return math.fsum(parts)


@pytest.mark.parametrize("race_fn, key, ss", [
    (prime_count_race, "zeta", (0.5, 1.0, 10.0, 100.0, 1000.0, 9000.0)),
    (prime_count_race, "zeta", (10500.0, 11000.0, 20000.0)),
    (lambda: two_way_race(5, 1, 4), "mod5_j1", (1.0, 10.0, 100.0, 250.0)),
], ids=["zeta-u500", "zeta-u2000", "mod5_j1-u100"])
def test_cumulant_matches_brute_force_tail(race_fn, key, ss):
    # l0_full against every zero summed one by one, with the density
    # past the table's end, inside the table and across the s where its
    # split passes the table's end: within the estimate and 2e-14
    race = race_fn()
    assert [e.table for e in race.characters] == [key]
    stats = aggregate_stats(race, 100.0)
    for s in ss:
        out = tr.l0_full(s, race, stats)
        want = brute_force_l0(s, race)
        assert abs(out.value - want) <= out.error_estimate + 2e-14 * want, s


@pytest.mark.parametrize("race, s", [
    (prime_count_race(), 12527.41), (prime_count_race(), 30000.0),
    (square_race(4), 3231.0), (square_race(4), 10000.0),
    (two_way_race(5, 1, 2), 300.0)],
    ids=["zeta-12527.41", "zeta-30000", "mod4-3231", "mod4-10000",
         "q5_1v2-300"])
def test_cumulant_matches_brute_force_past_table_end(race, s):
    # where the split passes a table's end l0_full takes virtual zeros
    # and a series from where x falls to 1.4; against the brute-force
    # sum, within the estimate and 2e-14. The old accelerated remainder
    # refused zeta at 30000 and mod 4 at 10000 (its radius)
    assert any(resolve_table(e).split(2.0 * e.alpha * s) == len(
        resolve_table(e)) for e in race.characters)
    out = tr.l0_full(s, race, aggregate_stats(race, 100.0))
    want = brute_force_l0(s, race)
    assert abs(out.value - want) <= out.error_estimate + 2e-14 * want


@pytest.mark.parametrize("race, s", [
    (prime_count_race(), 10500.0), (prime_count_race(), 12527.41),
    (prime_count_race(), 50000.0), (square_race(4), 10000.0),
    (two_way_race(5, 1, 2), 300.0)],
    ids=["zeta-10500", "zeta-12527.41", "zeta-50000", "mod4-10000",
         "q5_1v2-300"])
def test_virtual_zero_quadrature_estimate_covers_48_nodes(race, s):
    # the quadrature part of the estimate, |Q24 - Q12| per table past
    # its end, covers the distance from 24 nodes to 48, to within
    # rounding: at these s both are a few ulps of Q24
    est, far = 0.0, 0.0
    for entry in race.characters:
        table = resolve_table(entry)
        t = 2.0 * entry.alpha * s
        if table.split(t) < len(table):
            continue
        q = {}
        for n in (12, 24, 48):
            g, w = tr._virtual_zeros(table, t / zd._FAR_Z, n)
            q[n] = math.fsum(w * tr.log_i0_derivs(t / g)[0])
        est += abs(q[24] - q[12])
        far += abs(q[24] - q[48])
    assert far <= est + 1e-15 * abs(q[24])


def test_cumulant_paired_series(zeta_race):
    # a conjugate-pair table carries two identical series; derivative
    # consistency exercises the pair weighting end to end
    race = two_way_race(5, 1, 4)
    stats = aggregate_stats(race, 250.0)
    h = 3e-3
    base = tr.l0_full(5.0, race, stats)
    for order in range(1, 6):
        fd = five_point(
            lambda x: tr.l0_full(x, race, stats).values[order - 1], 5.0, h)
        assert base.values[order] == pytest.approx(fd, rel=1e-7)


def test_cumulant_combined_race_variance():
    race = two_way_race(5, 1, 2)
    stats = aggregate_stats(race, 250.0)
    out = tr.l0_full(0.0, race, stats)
    assert out.d2 == pytest.approx(stats.sigma0 ** 2, rel=1e-12)
    assert tr.l0_full(5.0, race, stats).value > 0.0


@pytest.mark.parametrize("race", [
    prime_count_race(), square_race(4), two_way_race(5, 1, 2)],
    ids=["zeta", "mod4", "q5_1v2"])
def test_cumulant_continuous_at_last_zero(race):
    # where the split reaches a table's last zero, that zero leaves the
    # series for the explicit terms and the virtual zeros start: the
    # value moves by no more than the two estimates, rounding and the
    # slope over the step in s
    s_end = min(zd._FAR_Z * math.sqrt(0.25 + zd.resolve_table(e).last_zero
                                      ** 2) / (2.0 * e.alpha)
                for e in race.characters)
    stats = aggregate_stats(race, 100.0)
    below, at = (tr.l0_full(s, race, stats)
                 for s in (math.nextafter(s_end, 0.0),
                           math.nextafter(s_end, math.inf)))
    assert abs(at.value - below.value) <= (
        at.error_estimate + below.error_estimate + 1e-14 * at.value
        + at.d1 * (at.s - below.s))


def _l0_outcome(s, race, stats):
    # the result's repr (every value to the bit), or the refusal
    try:
        return repr(tr.l0_full(s, race, stats))
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("race, u, ss", [
    (prime_count_race(), 2000.0, (0.0, 1.0, 100.0, 12527.41)),
    (prime_count_race(), 14000.0, (0.0, 1.0, 100.0, 12527.41)),
    (two_way_race(5, 1, 2), 250.0, (0.0, 1.0, 7.5, 20.0)),
])
def test_cumulant_sums_as_plain_fsum(race, u, ss, monkeypatch):
    # the order sums, binned past zerodata._BINNED_FROM terms, give the
    # bits of math.fsum over the same arrays
    stats = aggregate_stats(race, u)
    got = [_l0_outcome(s, race, stats) for s in ss]
    monkeypatch.setattr(tr, "_exact_sum", math.fsum)
    assert [_l0_outcome(s, race, stats) for s in ss] == got
    assert any("LDerivs" in g for g in got)


def log_i0_oracle(gammas, alpha, s, prec=40):
    """Orders 0..5 in s > 0 of the sum over gammas of log I0(x), x =
    2 alpha s / sqrt(1/4 + g^2), in decimal arithmetic at prec digits.

    I0 and I1 come from their ascending series, log I0 is ln I0 and
    r = I1/I0 its first x-derivative; orders 2..5 follow from Bessel's
    equation (g'' = 1 - r^2 - r/x and its derivatives), and the chain
    rule gives each the factor (x/s)^m. The recurrences cancel about
    5 log10(1/x) digits at small x, some 20 of the 40 at x = 1e-4.
    """
    out = [Decimal(0)] * 6
    with localcontext() as ctx:
        ctx.prec = prec
        eps = Decimal(10) ** -(prec + 5)
        two_alpha, dec_s = 2 * Decimal(alpha), Decimal(s)
        for g in gammas:
            c = two_alpha / (Decimal("0.25") + Decimal(g) ** 2).sqrt()
            w = c * dec_s
            q = w * w / 4
            i0 = t0 = h1 = t1 = Decimal(1)
            m = 0
            while t0 > eps * i0:
                m += 1
                t0 = t0 * q / (m * m)
                t1 = t1 * q / (m * (m + 1))
                i0 += t0
                h1 += t1
            r = w / 2 * h1 / i0
            iw = 1 / w
            g2 = 1 - r * r - r * iw
            g3 = -(2 * r + iw) * g2 + r * iw ** 2
            g4 = (-2 * g2 * g2 + 2 * g2 * iw ** 2 - (2 * r + iw) * g3
                  - 2 * r * iw ** 3)
            g5 = (-6 * g2 * g3 + 3 * g3 * iw ** 2 - 6 * g2 * iw ** 3
                  - (2 * r + iw) * g4 + 6 * r * iw ** 4)
            p = Decimal(1)
            for m, v in enumerate((i0.ln(), r, g2, g3, g4, g5)):
                out[m] += p * v
                p *= c
    return out


def series_bound(table, alpha, s, split):
    """Per order m, a first-order bound on the rounding error of l0_full's
    extended log-I0 series from the split on, in units of u = 2^-64,
    summed over its terms k = 1..56, each C_k W_k with C_k = |a_k|
    (2k)!/(2k-m)! alpha^(2k) s^(2k-m) and W_k = W_k(split), the suffix
    sums' column (_SuffixSums.columns):

    * the term's arithmetic, (3k + 62) u of C_k W_k: alpha^(2k) and
      s^(2k-m) by repeated multiplication, a few products, and the
      partial sums of 56 terms;
    * the power sums behind W_k, n_k u of C_k W_k: W_k adds positive
      terms, each a power of (1/4 + g^2)^-1 formed in k + 2 roundings,
      and none of them passes through more than 256 additions in its
      chunk, 256 in its chunk's total and one per chunk after it, so
      n_k = 512 + chunks + k + 5 covers both with room to spare.

    W_1's continuation is what the recorded total leaves past the last
    zero, the total less a sum over every tabulated zero, so its part is
    relative to W_1 at the first zero instead.
    """
    sums = table._suffix_sums
    w = sums.columns(np.array([split]))[:56, 0]
    w[0] = sums.columns(np.array([0]))[0, 0]
    k = np.arange(1, 57)
    n = 512 + len(table) // 256 + k + 5
    a = np.array([abs(float(f)) for f in _log_j0_fracs(56)], dtype=np.longdouble)
    out = []
    for m in range(6):
        c = (a * np.array([math.perm(2 * j, m) for j in k.tolist()])
             * np.longdouble(alpha) ** (2 * k)
             * np.longdouble(s) ** np.maximum(2 * k - m, 0))
        out.append(float(np.sum(c * (3 * k + 62 + n) * w) * 2.0 ** -64))
    return out


def continuation_exact(table, alpha, s):
    """Orders 0..5 in s of the log-I0 series over the zeros past the
    table's end, sum_k (-1)^k a_k alpha^(2k) s^(2k) W_k for k = 1..56, in
    rationals: W_k the continuation past the last zero as the suffix
    sums take it (zerodata._past_table in extended precision, here
    exact), and W_1, where the table records b1_total, that total less
    the exact sum over every tabulated zero."""
    T = np.longdouble(table.last_zero)
    w = [Fraction(*zd._past_table(table, T, k).as_integer_ratio())
         for k in range(1, 57)]
    if table.b1_total is not None:
        dens = [Fraction(1, 4) + Fraction(g) ** 2 for g in table.gammas]
        w[0] = Fraction(table.b1_total) - _fixed_point_sum(
            [1 / d for d in dens])
    a = _log_j0_fracs(56)
    al, fs = Fraction(alpha), Fraction(s)
    return [sum((-1) ** k * a[k - 1] * al ** (2 * k) * math.perm(2 * k, m)
                * fs ** (2 * k - m) * w[k - 1]
                for k in range(1, 57) if 2 * k >= m)
            for m in range(6)]


def _fixed_point_sum(terms) -> Fraction:
    # the sum of positive rationals, each truncated to a multiple of
    # 2^-240: exact integer sums in place of a Fraction sum, whose
    # denominators grow with every term, with an error below 2^-226
    n = 240
    return Fraction(sum((t.numerator << n) // t.denominator for t in terms),
                    1 << n)


# s = 1.4 sqrt(1/4 + g^2) / 2 for zeta's 50th ordinate puts that zero at
# x = 1.4 to within rounding, where the series converges slowest
EDGE_S = 0.7 * math.sqrt(0.25 + float(bundled_table("zeta").gammas[49]) ** 2)


@pytest.mark.parametrize("race, u, s, explicit", [
    pytest.param(prime_count_race(), u, s, n, id=f"{u}-{s}")
    for u, s, n in ((14000.0, 1.0, [0]), (14000.0, 10.0, [1]),
                    (14000.0, 100.0, [49]), (2000.0, EDGE_S, None))] + [
    pytest.param(race, u, s, n, id=f"{race.name}-{u}-{s}")
    for race, u, s, n in ((prime_count_race(), 500.0, 10.0, [1]),
                          (two_way_race(5, 1, 2), 250.0, 2.5, [0, 0]),
                          (two_way_race(5, 1, 2), 250.0, 10.0, [4, 3]),
                          (two_way_race(5, 1, 2), 250.0, 19.0, [11, 9]))])
def test_cumulant_series_matches_decimal_oracle(race, u, s, explicit,
                                                monkeypatch):
    # l0_full against the exact sum of its explicit terms, the oracle's
    # sum over every tabulated zero its series takes and the exact
    # continuation past the table's end: within the series' rounding
    # bounds and half an ulp for the order sum's one rounding. Every zero
    # with x <= 1.4 enters the series, however few take the explicit
    # path: zeta at s = 10 takes gamma_1 alone explicitly, and q5 1v2 at
    # s = 10 takes 4 + 3 of its 410 + 303. The cutoff u plays no part
    stats = aggregate_stats(race, u)
    summed = []
    monkeypatch.setattr(tr, "_exact_sum",
                        lambda x: summed.append(x) or math.fsum(x.tolist()))
    out = tr.l0_full(s, race, stats)
    exact, bound, splits, at = [Fraction(0)] * 6, [0.0] * 6, [], 0
    for entry in race.characters:
        table = resolve_table(entry)
        split = int(table.split(2.0 * entry.alpha * s))
        assert split < len(table)
        splits.append(split)
        oracle = log_i0_oracle(table.gammas[split:].tolist(), entry.alpha, s)
        past = continuation_exact(table, entry.alpha, s)
        series = series_bound(table, entry.alpha, s, split)
        for m in range(6):
            # the explicit terms, then the series as two doubles
            terms = summed[m][at:at + split].tolist()
            exact[m] += (sum(map(Fraction, terms)) + Fraction(oracle[m])
                         + past[m])
            bound[m] += series[m]
        at += split + 2
    if explicit is None:
        g = float(bundled_table("zeta").gammas[49])
        x = 2.0 * s / math.sqrt(0.25 + g * g)
        assert abs(x - 1.4) <= 2.0 * math.ulp(1.4) and splits[0] in (49, 50)
    else:
        assert splits == explicit
    for m in range(6):
        assert len(summed[m]) == at
        assert abs(Fraction(out.values[m]) - exact[m]) <= \
            bound[m] + 0.5 * math.ulp(out.values[m]), m


@pytest.mark.parametrize("key", ["mod5_j1", "mod5_quad"])
@pytest.mark.parametrize("s", [2.5, 8.0, 19.0])
def test_log_i0_series_on_conjugate_pair_tables(key, s):
    # the series over q5 1v2's zeros with x <= 1.4 and past its tables'
    # ends, on both of its tables (mod5_j1 a conjugate pair at alpha =
    # 1/sqrt 2), within its rounding bound of the oracle, as l0_full
    # takes them
    race = two_way_race(5, 1, 2)
    entry = next(e for e in race.characters if e.table == key)
    table = bundled_table(key)
    split = int(table.split(2.0 * entry.alpha * s))
    assert split < len(table)
    series, drop = tr._log_i0_series(
        s, entry.alpha, table._suffix_sums.columns(np.array([split]))[:, 0])
    oracle = log_i0_oracle(table.gammas[split:].tolist(), entry.alpha, s)
    past = continuation_exact(table, entry.alpha, s)
    bound = series_bound(table, entry.alpha, s, split)
    for m in range(6):
        hi = float(series[m])
        got = Fraction(hi) + Fraction(float(series[m] - hi))
        assert abs(got - Fraction(oracle[m]) - past[m]) <= bound[m], m
    # the cut's bound: the first dropped term over the split's zero, at
    # x <= 1.4, is below 4.3e-29 of a log-J0 factor there
    assert 0.0 < drop < 5e-29 * (len(table) - split)


def test_cumulant_series_sums_independent_of_phat_prefix(zeta_race,
                                                         monkeypatch):
    # on a fresh table l0_full builds the suffix sums' columns only
    # through its largest split, and gives the same bits after
    # phat_prefix has built more of them, and in reverse order of s on
    # another fresh table
    monkeypatch.setattr(zd, "_table_cache", {})
    stats = aggregate_stats(zeta_race, 14000.0)
    ss = (0.0, 1.0, 100.0, 1000.0)
    before = [repr(tr.l0_full(s, zeta_race, stats)) for s in ss]
    table = bundled_table("zeta")
    sums = table._suffix_sums
    assert sums._cols.shape == (57, int(table.split(2000.0)) + 1)
    tr.phat_prefix(np.linspace(0.5, 3000.0, 40), zeta_race)
    assert sums._cols.shape[1] > int(table.split(2000.0)) + 1
    assert [repr(tr.l0_full(s, zeta_race, stats)) for s in ss] == before
    monkeypatch.setattr(zd, "_table_cache", {})
    stats = aggregate_stats(zeta_race, 14000.0)
    assert [repr(tr.l0_full(s, zeta_race, stats)) for s in ss[::-1]] \
        == before[::-1]
    assert bundled_table("zeta") is not table


def test_extended_kernels_refuse_narrow_long_double(zeta_race, monkeypatch):
    # where numpy's long double is narrower than x87's, the suffix sums
    # and the J0 kernel refuse with one type that names the requirement,
    # and so phat_prefix and l0_full do, on a fresh table and with its
    # sums already built alike. l0_full reads the suffix sums at every s,
    # past a table's end too, where its series starts past the last zero
    monkeypatch.setattr(zd, "_table_cache", {})
    stats = aggregate_stats(zeta_race, 14000.0)
    q5 = two_way_race(5, 1, 2)
    few = aggregate_stats(q5, 250.0)
    monkeypatch.setattr(sf, "_LONG_DOUBLE_NMANT", 52)
    for call in (lambda: tr.phat_prefix([1.0], zeta_race),
                 lambda: tr.l0_full(1.0, zeta_race, stats),
                 lambda: tr.l0_full(10.0, q5, few),
                 lambda: tr.l0_full(30000.0, zeta_race, stats)):
        with pytest.raises(sf.ExtendedPrecisionError,
                           match=r"64-bit significand .* nmant = 52"):
            call()
    assert "_suffix_sums" not in vars(bundled_table("zeta"))
    monkeypatch.setattr(sf, "_LONG_DOUBLE_NMANT", 63)
    bundled_table("zeta")._suffix_sums
    monkeypatch.setattr(sf, "_LONG_DOUBLE_NMANT", 52)
    with pytest.raises(sf.ExtendedPrecisionError):
        tr.phat_prefix([20.0], zeta_race)


def test_cumulant_validation(zeta_race, stats2000):
    with pytest.raises(ValueError):
        tr.l0_full(-1.0, zeta_race, stats2000)
    # statistics of another race are refused outright; those of this
    # race at a cutoff past the table's end are not, as u plays no part
    with pytest.raises(ZeroDataError, match="built for race"):
        tr.l0_full(1.0, square_race(4), stats2000)
    stats_far = aggregate_stats(zeta_race, 2000.0)
    object.__setattr__(stats_far, "u", 20000.0)
    assert repr(tr.l0_full(1.0, zeta_race, stats_far)) \
        == repr(tr.l0_full(1.0, zeta_race, stats2000))


def test_cumulant_refuses_non_finite_s(zeta_race, monkeypatch):
    # NaN and inf are refused before any work, at either cutoff, by a
    # plain ValueError that names s, not by its subclass ConvergenceError
    stats = [aggregate_stats(zeta_race, u) for u in (10.0, 1000.0)]

    def no_work(*args):
        raise AssertionError("l0_full went past its argument check")
    monkeypatch.setattr(tr, "_check_race", no_work)
    monkeypatch.setattr(tr, "resolve_table", no_work)
    for st_u in stats:
        for s in (math.nan, math.inf):
            with pytest.raises(ValueError, match="nonnegative") as exc:
                tr.l0_full(s, zeta_race, st_u)
            assert type(exc.value) is ValueError
            assert f"s = {s!r}" in str(exc.value)


@pytest.mark.parametrize("race", PUBLISHED_RACES, ids=lambda r: r.name)
def test_cumulant_explicit_arguments_stay_above_split(race, monkeypatch):
    # log_i0_derivs takes w >= 1 only: l0_full passes it the zeros with x
    # above zerodata._FAR_Z = 1.4 and sums the rest by the log-I0 series.
    # On s at and just above the first four split boundaries of every
    # character, where a zero's x reaches _FAR_Z, and a few s between,
    # the smallest argument passed is _FAR_Z to within rounding
    seen = []
    derivs = tr.log_i0_derivs

    def spy(w):
        seen.append(np.min(w, initial=np.inf))
        return derivs(w)
    monkeypatch.setattr(tr, "log_i0_derivs", spy)
    stats = aggregate_stats(race, 250.0)
    grid = [1.0, 5.0, 20.0]
    for entry in race.characters:
        g = resolve_table(entry).gammas[:4]
        for b in zd._FAR_Z * np.sqrt(0.25 + g * g) / (2.0 * entry.alpha):
            grid += [float(b), float(np.nextafter(b, np.inf))]
    for s in grid:
        tr.l0_full(s, race, stats)
    assert len(seen) == len(grid) * len(race.characters)
    low = min(seen)
    assert low >= zd._FAR_Z * (1.0 - 1e-12)
    assert low <= zd._FAR_Z * (1.0 + 1e-12)


# ------------------------------------------------------------ large-s model

def test_model_matches_explicit_at_large_s(zeta_race):
    stats = aggregate_stats(zeta_race, 14000.0)
    full = tr.l0_full(1e4, zeta_race, stats)
    model = tr.l0_asymptotic(1e4, zeta_race)
    assert model.value == pytest.approx(full.value, rel=1e-3)
    assert model.d1 == pytest.approx(full.d1, rel=1e-4)
    assert model.d2 == pytest.approx(full.d2, rel=1e-3)
    assert model.d3 == pytest.approx(full.d3, rel=1e-2)


def test_model_single_series_curvature_identity(zeta_race):
    # with one unit-coefficient series the model curvature collapses to
    # (log s + A) / (pi s)
    s = 137.0
    A = base_constants(1).A
    model = tr.l0_asymptotic(s, zeta_race)
    assert model.d2 == pytest.approx(
        (math.log(s) + A) / (math.pi * s), rel=1e-14)
    assert model.W == pytest.approx(math.log(s) + A, rel=1e-14)


def test_model_rejects_mixed_conductors():
    race = two_way_race(8, 1, 3)
    assert len({e.qstar for e in race.characters}) > 1
    with pytest.raises(ValueError):
        tr.model_constants(race)


def test_model_saddle_solves_slope_equation(zeta_race):
    s_model = tr.model_saddle(zeta_race, 11.0)
    assert 1.2e4 < s_model < 1.3e4
    stats = aggregate_stats(zeta_race, 14000.0)
    assert tr.l0_full(s_model, zeta_race, stats).d1 == pytest.approx(
        11.0, abs=1e-2)


def test_model_validity_floor(zeta_race):
    with pytest.raises(ValueError):
        tr.model_saddle(zeta_race, 0.2)


def test_extreme_tail_estimates_track_printed_runs(zeta_race):
    # measured differences between the closed model and full
    # computations of log E(v); the published comparison column puts
    # them near +1.8/+2.1 for the prime-count race and -1.7 for the
    # mod-4 square race at threshold 11
    cases = [
        (zeta_race, 1.0, -15.1511, 1.83),
        (zeta_race, 11.0, -28727.1968, 2.13),
        (square_race(4), 11.0, -7444.6626, -1.74),
    ]
    for race, v, log_e, expected_gap in cases:
        gap = tr.model_log_exceedance(race, v) - log_e
        assert gap == pytest.approx(expected_gap, abs=0.3)


def test_model_density_exceeds_exceedance(zeta_race):
    for v in (1.0, 4.0, 11.0):
        d = tr.model_log_density(zeta_race, v)
        e = tr.model_log_exceedance(zeta_race, v)
        assert e < d < 0.0
        # the two differ by exactly the log of the model saddle
        assert d - e == pytest.approx(
            math.log(tr.model_saddle(zeta_race, v)), rel=1e-12)
