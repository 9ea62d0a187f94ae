"""Transform layer: characteristic-function factors, tail remainder
series, the accelerated closed forms, the full cumulant function with
derivatives, and the large-argument model.

Printed four-digit factor values, the classical variance constant
2 + euler_gamma - log(4 pi) and a brute-force sum of log I0 over the
tabulated tail zeros serve as external anchors; everything else is an
internal consistency obligation (split-point independence,
finite-difference derivative chains, series-vs-closed-form agreement).
"""

import bisect
import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import i0e, jn_zeros
from scipy.special import j0 as scipy_j0

from racedensity import rs_method as rs
from racedensity import transforms as tr
from racedensity import zerodata as zd
from racedensity.race import (
    prime_count_race, race_from_config, square_race, two_way_race,
)
from racedensity.rs_method import (
    RSParams, choose_params, phat_samples, race_result,
)
from racedensity.specfun import _log_j0_fracs, base_constants, c_coeffs
from racedensity.specfun import j0_lowbias
from racedensity.zerodata import (
    ZeroDataError, aggregate_stats, bundled_table, resolve_table,
)

J1, J2 = (float(j) for j in jn_zeros(0, 2))
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
    # q^2 b_2 / 4 (q = w^2, b_2 = stats.B[1]) over 1 - that ratio
    w = 1.7
    out = lattice_samples(zeta_race, stats35, w)[0]
    assert out.omega == w and out.tail == 1.0
    tail = math.log(out.phat / head_product(w, zeta_race, 35.0))
    gauss = -((stats35.sigma_u * w) ** 2) / 2.0
    second = w ** 4 * stats35.B[1] / 4.0
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


@pytest.mark.filterwarnings("ignore::racedensity.zerodata.ThinTailWarning")
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
    lines = ["q = 9", "kind = custom", f"offset = {race.offset!r}"]
    for i, entry in enumerate(race.characters):
        table = resolve_table(entry)
        path = tmp_path / f"{entry.table}_cut.txt"
        path.write_text(
            f"# b1_total: {table.b1_total!r}\n# weight: {table.weight}\n"
            + "".join(f"{g!r}\n" for g in
                      table.gammas[table.gammas <= u].tolist()))
        lines += [f"table.c{i} = {path}", f"qstar.c{i} = {table.qstar}",
                  f"alpha.c{i} = {entry.alpha!r}",
                  f"weight.c{i} = {table.weight}"]
    cfg = tmp_path / "cut.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    return race_from_config(str(cfg))


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


@pytest.mark.filterwarnings("ignore::racedensity.zerodata.ThinTailWarning")
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


@pytest.mark.filterwarnings("ignore::racedensity.zerodata.ThinTailWarning")
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


@pytest.mark.filterwarnings("ignore::racedensity.zerodata.ThinTailWarning")
@pytest.mark.parametrize("race, u", BOUND_CASES, ids=BOUND_IDS)
def test_prefix_log_bound_covers_prefix(race, u):
    # on 400 frequencies out to T/sigma_u of the tail statistics at u, or
    # to the largest frequency every table covers, the bound lies above
    # log|phat_prefix| and never rises; rows whose product underflows to
    # 0 have no log to compare. One frequency past the tables' reach has
    # no bound (+inf)
    stats = aggregate_stats(race, u)
    reach = min(tr._FAR_Z * math.sqrt(0.25 + resolve_table(e).last_zero ** 2)
                / (2.0 * e.alpha) for e in race.characters)
    ws = np.linspace(0.0, min(stats.T / stats.sigma_u, reach * (1 - 1e-9)),
                     401)[1:]
    bound = tr._prefix_log_bound(ws, race)
    assert np.all(np.diff(bound) <= 0.0)
    prefix = np.abs(tr.phat_prefix(ws, race))
    live = prefix > 0.0
    assert live.sum() > 20
    assert np.all(np.log(prefix[live]) <= bound[live])
    assert tr._prefix_log_bound([reach * (1 + 1e-9)], race).tolist() == [math.inf]


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


# ------------------------------------------------------------ raw tail series

def l_remainder(s, stats, K=8, order=0):
    """Order-th s-derivative of the raw tail series of the cumulant function.

    sum_{k<=K} (-1)^{k-1} c_k R_k t^{2k} with t = sqrt(2 B1) s,
    differentiated term by term; valid only strictly inside |t| < T. The
    accelerated remainder replaces it in the package; here it is the
    oracle the accelerated form must reproduce inside the radius.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    if K > len(stats.R):
        raise ValueError(
            f"stats carry moment ratios to order {len(stats.R)}; need Kmax >= {K}")
    if not 0 <= order <= 5:
        raise ValueError("order must lie in 0..5")
    t = stats.sigma_u * s
    if abs(t) >= stats.T:
        raise tr._radius_error(abs(t), stats.T, stats.u)
    c = c_coeffs(K)
    parts = []
    for k in range(max(1, (order + 1) // 2), K + 1):
        p = 2 * k
        if p < order:
            continue
        coef = (-1.0) ** (k - 1) * c[k - 1] * stats.R[k - 1] * stats.sigma_u ** p
        parts.append(coef * math.perm(p, order) * s ** (p - order))
    return math.fsum(parts)


def test_raw_series_at_origin(stats500):
    assert l_remainder(0.0, stats500) == 0.0
    for order in (1, 3, 5):
        assert l_remainder(0.0, stats500, order=order) == 0.0
    # the only surviving term of the second derivative at 0 is the
    # tail variance
    assert l_remainder(0.0, stats500, order=2) == pytest.approx(
        stats500.sigma_u ** 2, rel=1e-15)


def test_raw_series_single_term(stats500):
    s = 2.3
    assert l_remainder(s, stats500, K=1) == pytest.approx(
        0.5 * (stats500.sigma_u * s) ** 2, rel=1e-15)


def test_raw_series_derivative_chain(stats500):
    for order in range(1, 6):
        fd = five_point(
            lambda x: l_remainder(x, stats500, 8, order - 1), 200.0, 0.02)
        got = l_remainder(200.0, stats500, 8, order)
        assert got == pytest.approx(fd, rel=1e-8)


def test_raw_series_parity(stats500):
    assert l_remainder(-3.0, stats500, order=1) == pytest.approx(
        -l_remainder(3.0, stats500, order=1), rel=1e-15)
    assert l_remainder(-3.0, stats500, order=2) == pytest.approx(
        l_remainder(3.0, stats500, order=2), rel=1e-15)


def test_raw_series_outside_radius(stats35):
    s_bad = 1.2 * stats35.T / stats35.sigma_u
    with pytest.raises(tr.ConvergenceError) as exc:
        l_remainder(s_bad, stats35)
    # the suggested cutoff scales the current one by the overshoot
    assert 40.0 < exc.value.min_u < 50.0


def test_raw_series_validation(stats500):
    with pytest.raises(ValueError):
        l_remainder(1.0, stats500, order=6)
    with pytest.raises(ValueError):
        l_remainder(1.0, stats500, K=len(stats500.R) + 1)


# ------------------------------------------------------ accelerated remainder

def accelerated(t, stats, order=0):
    # the accelerated remainder of a lone weight-1 series, whose
    # race-normalized ratios R_k are its own ratios r_k (alpha cancels)
    pc = stats.per_char[0]
    return tr._remainder(t, pc.y, pc.T_single, stats.R)[0][order]


def test_accelerated_matches_raw_series(zeta_race):
    # inside the radius the accelerated form and a deep raw series are
    # two routes to the same function
    stats = aggregate_stats(zeta_race, 500.0, Kmax=25)
    for s in (1.0, 20.0, 80.0):
        t = stats.sigma_u * s
        assert accelerated(t, stats) == pytest.approx(
            l_remainder(s, stats, K=25), rel=1e-9)
    # halfway to the radius the eight correction terms leave ~1e-7
    s = 300.0
    got = accelerated(stats.sigma_u * s, stats)
    assert got == pytest.approx(l_remainder(s, stats, K=25), rel=1e-6)


def test_accelerated_origin_normalization(stats500):
    # in the normalized variable the remainder starts as t^2/2 exactly
    for order in (0, 1, 3, 5):
        assert accelerated(0.0, stats500, order) == 0.0
    assert accelerated(0.0, stats500, 2) == pytest.approx(1.0, abs=1e-13)


def test_accelerated_branch_agreement(stats500, monkeypatch):
    # the defining series and the closed forms must agree where either
    # could be selected; at the cutover the series' fixed term count
    # leaves its largest tail, at order 5
    pc = stats500.per_char[0]
    t = 0.3 * pc.T_single
    assert t >= tr._SERIES_CUTOVER * pc.T_single
    closed = tr._remainder(t, pc.y, pc.T_single, stats500.R)[0]
    monkeypatch.setattr(tr, "_SERIES_CUTOVER", 0.31)
    series = tr._remainder(t, pc.y, pc.T_single, stats500.R)[0]
    # relative alone: approx's default absolute tolerance of 1e-12 would
    # let the order-5 value, 6.4e-5, move by 1.6e-8 of itself
    for a, b in zip(closed, series):
        assert a == pytest.approx(b, rel=1e-12, abs=0.0)


def test_accelerated_derivative_chain(stats500):
    pc = stats500.per_char[0]
    t0 = 0.5 * pc.T_single
    h = 1e-3 * pc.T_single
    for order in range(1, 6):
        fd = five_point(lambda x: accelerated(x, stats500, order - 1), t0, h)
        got = accelerated(t0, stats500, order)
        assert got == pytest.approx(fd, rel=1e-6)


def test_accelerated_correction_leading_coefficient(stats500):
    # the t^2 coefficient of the correction, the remainder less the
    # smooth-density model 2T^2/((y+1) j1^2) F(t/T), is 1/2 - 2/j1^2
    # (= 0.154169861938710): the raw variance term less the full
    # first-ring weight 2/j1^2 that the smooth-density model carries
    pc = stats500.per_char[0]
    T, y = pc.T_single, pc.y
    t = 1e-8
    value = tr._remainder(t, y, T, stats500.R)[0][0]
    model = 2.0 * T * T / ((y + 1.0) * J1 ** 2) * tr._model_derivs(t / T, y)[0]
    assert (value - model) / t ** 2 == pytest.approx(0.5 - 2.0 / J1 ** 2,
                                                      rel=1e-6)


@pytest.mark.parametrize("u", [500.0, 14000.0])
def test_model_closed_forms_match_oracle(zeta_race, u):
    # F(x) = (y-1)(2x arctan x - log(1+x^2)) + 2x Ti(x) and its first
    # five derivatives from the closed forms, against 40-digit numerical
    # derivatives with Ti(x) = Im Li2(ix), from the cutover to the wall
    # at (j2/j1) T; measured 1.5e-15 at worst, at x = 0.3, order 4
    mpmath = pytest.importorskip("mpmath")
    y = aggregate_stats(zeta_race, u).per_char[0].y
    with mpmath.workdps(40):
        def F(x):
            return ((y - 1) * (2 * x * mpmath.atan(x) - mpmath.log1p(x * x))
                    + 2 * x * mpmath.im(mpmath.polylog(2, 1j * x)))
        for x in (0.3, 0.87, 1.5, 2.29):
            got = tr._model_derivs(x, y)
            for m, want in enumerate(mpmath.diffs(F, mpmath.mpf(x), 5)):
                want = float(want)
                assert abs(got[m] - want) <= 1e-14 * max(1.0, abs(want)), \
                    (x, m)


def test_accelerated_outside_radius(zeta_race, stats500):
    # the wall sits at the second Bessel ring, (j2/j1) T: just inside it
    # a value still comes back (flagged as inaccurate), just outside it
    # the error names the cutoff that would bring the point inside. For
    # the zeta race the tail variable is t = sigma_u * s
    pc = stats500.per_char[0]
    wall = J2 / J1 * pc.T_single / stats500.sigma_u
    with pytest.warns(tr.AccuracyWarning):
        inside = tr.l0_full(0.99 * wall, zeta_race, stats500)
    assert all(math.isfinite(v) for v in inside.values) and inside.value > 0.0
    with pytest.raises(tr.ConvergenceError) as exc:
        tr.l0_full(1.01 * wall, zeta_race, stats500)
    assert 500.0 < exc.value.min_u < 560.0


def test_accelerated_warns_near_radius(zeta_race, stats500):
    # against the brute-force tail sum (test_cumulant_matches_brute_force_tail)
    # the remainder is good to <= 1.4e-9 up to 0.7 T and off by >= 3e-7
    # from T on; the final-term ratio crosses its 1e-7 threshold between
    # 0.8 T and 0.9 T, too close to 0.9 T to pin there
    s_at_T = stats500.per_char[0].T_single / stats500.sigma_u
    with warnings.catch_warnings():
        warnings.simplefilter("error", tr.AccuracyWarning)
        tr.l0_full(0.3 * s_at_T, zeta_race, stats500)
        tr.l0_full(0.7 * s_at_T, zeta_race, stats500)
    for ratio in (1.0, 1.5, 2.0):
        with pytest.warns(tr.AccuracyWarning):
            tr.l0_full(ratio * s_at_T, zeta_race, stats500)


def test_accelerated_needs_eight_ratios(zeta_race):
    shallow = aggregate_stats(zeta_race, 500.0, Kmax=4)
    with pytest.raises(ValueError, match="Kmax >= 8"):
        tr.l0_full(1.0, zeta_race, shallow)


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
    expect = -1.5 * stats2000.beta0 * stats2000.sigma0 ** 4
    assert out.d4 == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("s0", [1.0, 10.0, 100.0, 1000.0])
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
    # at a saddle in the ten-thousands, two cutoffs that put it at
    # t/T = 0.87 and 0.74, well inside the (j2/j1) T disk of the
    # accelerated remainder, agree to a few 1e-5 relative
    s = 12527.41
    a = tr.l0_full(s, zeta_race, aggregate_stats(zeta_race, 12000.0)).value
    b = tr.l0_full(s, zeta_race, aggregate_stats(zeta_race, 14000.0)).value
    assert abs(a - b) / abs(b) < 1e-4


def test_cumulant_insufficient_cutoff_raises(zeta_race):
    # with only four thousand zeros the same saddle sits at t/T = 2.31,
    # past the (j2/j1) T = 2.295 T wall (ten thousand zeros would put it
    # at 1.055 T, inside); the error must say how many more zeros would
    # fix it, and the cutoff it names must indeed give a usable value
    s = 12527.41
    table = bundled_table("zeta")
    u = float(table.gammas[3999])
    stats = aggregate_stats(zeta_race, u)
    with pytest.raises(tr.ConvergenceError) as exc:
        tr.l0_full(s, zeta_race, stats)
    min_u = exc.value.min_u
    assert u < min_u < 1.1 * u
    with pytest.warns(tr.AccuracyWarning):
        fixed = tr.l0_full(s, zeta_race, aggregate_stats(zeta_race, min_u))
    deep = tr.l0_full(s, zeta_race, aggregate_stats(zeta_race, 14000.0))
    assert abs(fixed.value - deep.value) <= (
        fixed.error_estimate + deep.error_estimate)


def test_cumulant_warns_near_wall(zeta_race):
    # at u = 4765.3 the saddle sits at t/T = 2.19, where the final
    # correction term is 4.8e-3 of the remainder; at u = 14000 it is
    # 1.5e-8, under the 1e-7 threshold
    s = 12527.41
    with pytest.warns(tr.AccuracyWarning, match="zeta"):
        tr.l0_full(s, zeta_race, aggregate_stats(zeta_race, 4765.3))
    with warnings.catch_warnings():
        warnings.simplefilter("error", tr.AccuracyWarning)
        tr.l0_full(s, zeta_race, aggregate_stats(zeta_race, 14000.0))


def _log_i0_coeffs(n):
    # Maclaurin coefficients of log I0 in powers of x^2, exact in
    # rationals: the power-series logarithm of I0 = sum (x^2/4)^m / m!^2
    a = [Fraction(1, 4 ** m * math.factorial(m) ** 2) for m in range(n + 1)]
    lg = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        lg[m] = a[m] - sum(k * lg[k] * a[m - k] for k in range(1, m)) / m
    return [float(c) for c in lg]


LOG_I0_COEFFS = _log_i0_coeffs(40)


def brute_force_l0(s, entry, table, u, b1_total):
    """The cumulant function at s summed zero by zero, split at u.

    Every tabulated ordinate contributes log I0(x) = log i0e(x) + x with
    x = 2 alpha s / sqrt(1/4 + g^2). Zeros past the table end enter
    through the raw series sum_k l_k (2 alpha s)^(2k) b_k: their b_1 is
    the full-spectrum value less the whole table's sum, and for k >= 2
    b_k integrates g^(-2k) against the smooth zero density
    weight/(2 pi) log(qstar g / 2 pi) from the table end U on. Returns
    the parts at or below u and above u.
    """
    g = table.gammas
    x = 2.0 * entry.alpha * s / np.sqrt(0.25 + g * g)
    per_zero = np.log(i0e(x)) + x
    U = float(g[-1])
    y = math.log(table.qstar * U / (2.0 * math.pi))
    z = (2.0 * entry.alpha * s) ** 2
    beyond = [LOG_I0_COEFFS[1] * z * (b1_total - math.fsum(1.0 / (0.25 + g * g)))]
    for k in range(2, len(LOG_I0_COEFFS)):
        # b_k = weight (y + 1/m) / (2 m pi U^m) with m = 2k - 1, its
        # U-power folded into z^k to keep both in floating-point range
        m = 2 * k - 1
        beyond.append(LOG_I0_COEFFS[k] * (z / (U * U)) ** k * U
                      * table.weight * (y + 1.0 / m) / (2.0 * m * math.pi))
    head = math.fsum(per_zero[g <= u])
    tail = math.fsum(per_zero[g > u]) + math.fsum(beyond)
    return head, tail


ORACLE_RATIOS = (0.3, 0.5, 0.7, 0.9, 1.0, 1.2, 1.5, 2.0)


# the ratios from 1.0 up are near enough the wall to warn
@pytest.mark.filterwarnings("ignore::racedensity.transforms.AccuracyWarning")
@pytest.mark.parametrize("race_fn, key, u, fixed_rel", [
    (prime_count_race, "zeta", 500.0, {0.9: 1e-6, 1.2: 1e-5}),
    (prime_count_race, "zeta", 2000.0, {0.9: 1e-6, 1.2: 1e-5}),
    # at t/T = 1.2 this table's remainder is 4.2e-5 off (its estimate
    # says 7.2e-5), so only 0.9 gets a fixed bound; with the model
    # weight halved to 1/j1^2 it is 2.3e-4 off at 0.9 and d2 <= 0 at 1.2
    (lambda: two_way_race(5, 1, 4), "mod5_j1", 100.0, {0.9: 1e-6}),
], ids=["zeta-u500", "zeta-u2000", "mod5_j1-u100"])
def test_cumulant_matches_brute_force_tail(race_fn, key, u, fixed_rel):
    # the accelerated remainder against the tail summed zero by zero,
    # across the extended disk out to t/T = 2, with t the series' own
    # variable alpha sqrt(2 b1_chi) s that l0_full checks its wall in;
    # the fixed bounds separate the full first-ring weight 2/j1^2 from
    # half of it
    race = race_fn()
    (entry,) = race.characters
    assert entry.table == key
    table = bundled_table(key)
    if key == "zeta":
        # sum over gamma > 0 of 1/(1/4 + gamma^2), half of 2 + gamma - log 4 pi
        b1_total = 1.0 + EULER_GAMMA / 2.0 - math.log(4.0 * math.pi) / 2.0
    else:
        b1_total = table.b1_total
    stats = aggregate_stats(race, u)
    pc = stats.per_char[0]
    dtds = entry.alpha * math.sqrt(2.0 * pc.b[0] / pc.weight)
    for ratio in ORACLE_RATIOS:
        s = ratio * pc.T_single / dtds
        head, tail = brute_force_l0(s, entry, table, u, b1_total)
        out = tr.l0_full(s, race, stats)
        diff = abs(out.value - (head + tail))
        assert diff <= out.error_estimate + 1e-13 * abs(head + tail), ratio
        if ratio in fixed_rel:
            assert diff <= fixed_rel[ratio] * abs(tail), ratio


@pytest.mark.filterwarnings("ignore::racedensity.zerodata.ThinTailWarning")
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


@pytest.mark.filterwarnings("ignore::racedensity.zerodata.ThinTailWarning")
def test_cumulant_combined_race_variance():
    race = two_way_race(5, 1, 2)
    stats = aggregate_stats(race, 250.0)
    out = tr.l0_full(0.0, race, stats)
    assert out.d2 == pytest.approx(stats.sigma0 ** 2, rel=1e-12)
    assert tr.l0_full(5.0, race, stats).value > 0.0


def _l0_outcome(s, race, stats):
    # the result's repr (every value to the bit), or the refusal
    try:
        return repr(tr.l0_full(s, race, stats))
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.filterwarnings("ignore::racedensity.zerodata.ThinTailWarning")
@pytest.mark.filterwarnings("ignore::racedensity.transforms.AccuracyWarning")
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


def series_bound(table, alpha, s, split, n_u):
    """Per order m, a first-order bound on the rounding error of l0_full's
    extended log-I0 series over the zeros split..n_u-1, in units of
    u = 2^-64, summed over its terms k = 1..56, each C_k D_k with
    C_k = |a_k| (2k)!/(2k-m)! alpha^(2k) s^(2k-m) and D_k = W_k(split) -
    W_k(n_u):

    * the term's arithmetic, (3k + 62) u of C_k D_k: alpha^(2k) and
      s^(2k-m) by repeated multiplication, a few products, and the
      partial sums of 56 terms;
    * the suffix sums behind D_k, n_k u of C_k (W_k(split) + W_k(n_u)):
      each W_k adds positive terms, at most 256 in a chunk and one per
      chunk, powers of (1/4 + g^2)^-1 formed in k + 3 roundings, so
      n_k = 256 + chunks + k + 4. Where the table carries b1_total, W_1
      is b1_total less those sums, and 2 b1_total stands in for the W_1s.
    """
    sums = table._suffix_sums
    lo, hi = sums.at(split), sums.at(n_u)
    e = lo + hi
    if table.b1_total is not None:
        e[0] = 2.0 * table.b1_total
    k = np.arange(1, 57)
    n = 256 + len(table) // 256 + k + 5
    a = np.array([abs(float(f)) for f in _log_j0_fracs(56)], dtype=np.longdouble)
    out = []
    for m in range(6):
        c = (a * np.array([math.perm(2 * j, m) for j in k.tolist()])
             * np.longdouble(alpha) ** (2 * k)
             * np.longdouble(s) ** np.maximum(2 * k - m, 0))
        out.append(float(np.sum(c * ((3 * k + 62) * (lo - hi)[:56]
                                     + n * e[:56])) * 2.0 ** -64))
    return out


# s = 1.4 sqrt(1/4 + g^2) / 2 for zeta's 50th ordinate puts that zero at
# x = 1.4 to within rounding, where the series converges slowest
EDGE_S = 0.7 * math.sqrt(0.25 + float(bundled_table("zeta").gammas[49]) ** 2)


@pytest.mark.parametrize("u, s", [
    (14000.0, 1.0), (14000.0, 10.0), (14000.0, 100.0), (2000.0, EDGE_S),
])
def test_cumulant_series_matches_decimal_oracle(zeta_race, u, s, monkeypatch):
    # l0_full against the exact sum of its explicit terms, its remainder
    # and the oracle's sum over exactly the zeros its series takes: within
    # the series' rounding bound and half an ulp for the order sum's one
    # rounding. The per-zero log I0 terms the series replaced put d5
    # 1.8e-14 off the oracle at s = 10 and 1.1e-14 at s = 100
    table = bundled_table("zeta")
    stats = aggregate_stats(zeta_race, u)
    sums = table._suffix_sums
    n_u = table.count(u)
    split = int(sums.split(2.0 * s / tr._FAR_Z))
    assert n_u - split >= tr._SERIES_FROM
    if s == EDGE_S:
        x = 2.0 * s / math.sqrt(0.25 + float(table.gammas[49]) ** 2)
        assert abs(x - 1.4) <= 2.0 * math.ulp(1.4) and split in (49, 50)
    oracle = log_i0_oracle(table.gammas[split:n_u].tolist(), 1.0, s)
    bound = series_bound(table, 1.0, s, split, n_u)
    summed = []
    monkeypatch.setattr(tr, "_exact_sum",
                        lambda x: summed.append(x) or math.fsum(x.tolist()))
    out = tr.l0_full(s, zeta_race, stats)
    for m in range(6):
        # the explicit terms, the series as two doubles, the remainder
        terms = summed[m].tolist()
        assert len(terms) == split + 3
        exact = (sum(map(Fraction, terms[:split] + terms[-1:]))
                 + Fraction(oracle[m]))
        assert abs(Fraction(out.values[m]) - exact) <= \
            bound[m] + 0.5 * math.ulp(out.values[m]), m


@pytest.mark.parametrize("key", ["mod5_j1", "mod5_quad"])
@pytest.mark.parametrize("s", [2.5, 8.0, 19.0])
def test_log_i0_series_on_conjugate_pair_tables(key, s):
    # the series over q5 1v2's zeros with x <= 1.4 below u = 250, on both
    # of its tables (mod5_j1 a conjugate pair at alpha = 1/sqrt 2), within
    # its rounding bound of the oracle. l0_full takes them explicitly: too
    # few to pay
    race = two_way_race(5, 1, 2)
    entry = next(e for e in race.characters if e.table == key)
    table = bundled_table(key)
    sums = table._suffix_sums
    n_u = table.count(250.0)
    split = int(sums.split(2.0 * entry.alpha * s / tr._FAR_Z))
    assert split < n_u < tr._SERIES_FROM
    series, drop = tr._log_i0_series(s, entry.alpha,
                                     sums.at(split) - sums.at(n_u))
    oracle = log_i0_oracle(table.gammas[split:n_u].tolist(), entry.alpha, s)
    bound = series_bound(table, entry.alpha, s, split, n_u)
    for m in range(6):
        hi = float(series[m])
        got = Fraction(hi) + Fraction(float(series[m] - hi))
        assert abs(got - Fraction(oracle[m])) <= bound[m], m
    # the cut's bound: the first dropped term over the split's zero, at
    # x <= 1.4, is below 4.3e-29 of a log-J0 factor there
    assert 0.0 < drop < 5e-29 * (n_u - split)


def test_cumulant_series_sums_independent_and_columnless(zeta_race,
                                                         monkeypatch):
    # on a fresh table l0_full's series forms no column of the suffix
    # sums, and gives the same bits after phat_prefix has built them
    monkeypatch.setattr(zd, "_table_cache", {})
    stats = aggregate_stats(zeta_race, 14000.0)
    ss = (0.0, 1.0, 100.0, 1000.0)
    before = [repr(tr.l0_full(s, zeta_race, stats)) for s in ss]
    sums = bundled_table("zeta")._suffix_sums
    assert sums._cols.shape == (57, 0)
    tr.phat_prefix(np.linspace(0.5, 60.0, 40), zeta_race)
    assert sums._cols.shape[1] > 0
    assert [repr(tr.l0_full(s, zeta_race, stats)) for s in ss] == before


def test_cumulant_validation(zeta_race, stats2000):
    with pytest.raises(ValueError):
        tr.l0_full(-1.0, zeta_race, stats2000)
    # a cutoff past the table end is refused outright
    stats_far = aggregate_stats(zeta_race, 2000.0)
    object.__setattr__(stats_far, "u", 20000.0)
    with pytest.raises(ZeroDataError):
        tr.l0_full(1.0, zeta_race, stats_far)


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
