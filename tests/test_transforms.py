"""Transform layer: characteristic-function factors, tail remainder
series, the accelerated closed forms, the full cumulant function with
derivatives, and the large-argument model.

Printed four-digit factor values, the classical variance constant
2 + euler_gamma - log(4 pi) and a brute-force sum of log I0 over the
tabulated tail zeros serve as external anchors; everything else is an
internal consistency obligation (split-point independence,
finite-difference derivative chains, series-vs-closed-form agreement).
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import i0e, jn_zeros
from scipy.special import j0 as scipy_j0

from racedensity import transforms as tr
from racedensity.race import prime_count_race, square_race, two_way_race
from racedensity.rs_method import RSParams, default_params, phat_samples
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

def lattice_samples(race, stats, K, domega):
    # phat_samples at order K and step domega
    return phat_samples(race, RSParams(K=K, domega=domega, v_max=0.0), stats)


def test_tail_factor_single_term_is_gaussian(zeta_race, stats35):
    # K = 1 keeps only the variance term: exp(-(sigma_u w)^2 / 2)
    w = 1.7
    out = lattice_samples(zeta_race, stats35, 1, w)[0]
    assert out.omega == w
    assert out.tail == pytest.approx(
        math.exp(-((stats35.sigma_u * w) ** 2) / 2.0), rel=1e-15)


def test_tail_factor_matches_printed_run(zeta_race, stats35):
    # four-digit tail factors of a published sample evaluation
    # (cutoff 35, seven series terms, frequencies pi/2 and 3 pi/2)
    samples = lattice_samples(zeta_race, stats35, 7, math.pi / 2)
    assert samples[0].tail == pytest.approx(0.9703, abs=5e-5)
    assert samples[2].tail == pytest.approx(0.7618, abs=5e-5)


def test_tail_factor_beyond_radius_clamps(zeta_race, stats35):
    # no sample lies at or past T/sigma_u, where the tail series diverges
    end = stats35.T / stats35.sigma_u
    for domega in (end / 9.5, end / 9.0, end / 0.5):
        samples = lattice_samples(zeta_race, stats35, 8, domega)
        assert all(s.omega < end for s in samples)
    assert len(lattice_samples(zeta_race, stats35, 8, end / 9.5)) == 9
    assert len(lattice_samples(zeta_race, stats35, 8, end / 9.0)) == 8
    assert lattice_samples(zeta_race, stats35, 8, end / 0.5) == ()


def test_tail_factor_truncation_estimate_is_honest(zeta_race):
    # doubling the retained order moves the exponent by an amount the
    # error estimate should bracket to within a small factor
    stats = aggregate_stats(zeta_race, 35.0, Kmax=16)
    for w in (15.0, 20.0, 25.0):
        low = lattice_samples(zeta_race, stats, 8, w)[0]
        high = lattice_samples(zeta_race, stats, 16, w)[0]
        estimate = low.error / (abs(low.prefix) * low.tail)
        true = abs(math.log(low.tail) - math.log(high.tail))
        assert 0.2 * estimate <= true <= 3.0 * estimate


def test_tail_factor_order_validation(zeta_race, stats35):
    with pytest.raises(ValueError):
        RSParams(K=0, domega=1.0, v_max=0.0)
    with pytest.raises(ValueError):
        lattice_samples(zeta_race, stats35, len(stats35.R) + 1, 1.0)


def test_explicit_product_at_zero_frequency(zeta_race):
    assert tr.phat_prefix([0.0], zeta_race, 35.0).tolist() == [1.0]


def test_explicit_product_matches_printed_run(zeta_race):
    # the first kernel factor alone, then the five-factor product
    assert tr.phat_prefix([math.pi / 2], zeta_race, 15.0)[0] == pytest.approx(
        0.9877, abs=5e-5)
    assert tr.phat_prefix([math.pi / 2], zeta_race, 35.0)[0] == pytest.approx(
        0.9735, abs=5e-5)
    assert tr.phat_prefix([3 * math.pi / 2], zeta_race, 35.0)[0] == pytest.approx(
        0.7822, abs=5e-5)


def test_explicit_product_needs_zero_coverage(zeta_race):
    with pytest.raises(ZeroDataError):
        tr.phat_prefix([1.0], zeta_race, 20000.0)


def test_explicit_product_next_to_j0_root_matches_direct(zeta_race):
    # a frequency pinning the first factor within 1e-3 of a kernel zero;
    # an independent plain product must agree, sign included
    table = bundled_table("zeta")
    g1 = float(table.gammas[0])
    w = J1 * math.sqrt(0.25 + g1 * g1) / 2.0 + 3e-4
    g = table.gammas[table.gammas <= 1000.0]
    factors = np.asarray(
        [float(scipy_j0(2.0 * w / math.sqrt(0.25 + x * x))) for x in g])
    assert float(np.min(np.abs(factors))) < 1e-3
    assert int(np.sum(factors < 0)) % 2 == 1
    direct = 1.0
    for v in factors:
        direct *= float(v)
    (got,) = tr.phat_prefix([w], zeta_race, 1000.0)
    assert got < 0.0
    assert got == pytest.approx(direct, rel=1e-10)


def test_split_point_independence(zeta_race, stats35):
    # moving the explicit/tail cutoff must not move the product
    stats100 = aggregate_stats(zeta_race, 100.0)
    samples35, samples100 = (
        lattice_samples(zeta_race, stats, 8, math.pi / 2)
        for stats in (stats35, stats100))
    for m in (1, 2, 4):
        assert samples35[m - 1].phat == pytest.approx(
            samples100[m - 1].phat, rel=1e-10)


@pytest.mark.parametrize("race, u", [
    (prime_count_race(), 1000.0),
    (two_way_race(5, 1, 2), 7.0),
    (two_way_race(24, 1, 5), 100.0),
    (prime_count_race(), 2999.0),
])
def test_explicit_product_frequencies_independent(race, u, monkeypatch):
    # one call over many frequencies gives, bit for bit, what one call
    # per frequency gives; the last frequency puts the first kernel
    # factor within 1e-3 of a zero of J0. At u = 2999 the leading spread
    # of frequencies reaches 2000, where the near factors of its rows
    # (z above _FAR_Z, so g below about 1.43 w) fill several blocks, and
    # the near-root row lands in a later block
    entry = race.characters[0]
    g1 = float(resolve_table(entry).gammas[0])
    top = 2000.0 if u > 2000.0 else 1000.0
    ws = np.linspace(20.0, top, 40).tolist() + [
        0.0, 0.1, 0.7, 1.9, 2.5, 4.0,
        J1 * math.sqrt(0.25 + g1 * g1) / (2.0 * entry.alpha) + 3e-4]
    calls = []

    def counted(z):
        calls.append(z.size)
        return j0_lowbias(z)

    monkeypatch.setattr(tr, "j0_lowbias", counted)
    together = tr.phat_prefix(ws, race, u).tolist()
    if u > 2000.0:
        assert len(calls) >= 3
    assert together == [tr.phat_prefix([w], race, u)[0] for w in ws]
    assert tr.phat_prefix([], race, u).size == 0


def test_product_sign_spans_characters():
    # q8 1v3 at u = 140: the frequency puts the first mod 4 factor 3e-4
    # below a zero of J0, while every mod8_even factor stays above 0.24
    # in magnitude. The row's sign counts the negative factors of both
    # characters, an odd number, and its value is the explicit
    # product's (measured equal bit for bit; the bound is
    # test_prefix_matches_explicit_product's)
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
    (got,) = tr.phat_prefix([w], race, u)
    (want,) = _explicit_product([w], race, u)
    assert got < 0.0
    assert abs(got - want) <= 4e-16 * abs(want)


# (frequency, relative tolerance) at u = 850, 530 zeros. The tolerances
# are the errors measured against the 30-digit product, rounded up; the
# explicit product over every zero lands on the same values. Rows with
# no factor near a root of J0 and no factor past z = 6 are good to an
# ulp; the others carry the conditioning of their near-root factors.
_LONG_ROWS = [
    (3.0, 2e-16),      # every zero far; measured 6.2e-17
    (20.0, 2e-16),     # 12 near zeros; 6.2e-17
    (None, 5e-15),     # 9 near, one factor 3e-4 past j1; 4.5e-15
    (100.0, 2e-16),    # 129 near; 2.4e-17
    (250.0, 5e-15),    # 426 near; 9.2e-16
    (400.0, 2e-15),    # all 530 near, 44 of them past z = 6; 3.8e-16
]


def test_long_product_matches_30_digit_oracle(zeta_race):
    mpmath = pytest.importorskip("mpmath")
    g = bundled_table("zeta").gammas
    g = g[g <= 850.0]
    assert g.size > 500
    g1 = float(g[0])
    near_root = J1 * math.sqrt(0.25 + g1 * g1) / 2.0 + 3e-4
    ws = [near_root if w is None else w for w, _ in _LONG_ROWS]
    got = tr.phat_prefix(ws, zeta_race, 850.0)
    with mpmath.workdps(30):
        for w, (_, tol), value in zip(ws, _LONG_ROWS, got):
            want = mpmath.fprod(
                mpmath.besselj(0, 2 * mpmath.mpf(w)
                               / mpmath.sqrt(0.25 + mpmath.mpf(x) ** 2))
                for x in g.tolist())
            assert abs(value - want) <= tol * abs(want), w


def test_prefix_with_irrational_alpha_rounds_correctly():
    # q5 1v2 weights its conjugate pair by alpha = 1/sqrt(2), so t =
    # 2*alpha*w is not a double. At every live frequency of a default
    # solve at u = 106.873 with |prefix| >= 1e-3 (7 rows), the result
    # lies within half an ulp of a 40-digit product, plus 1e-18 relative
    # for the extended-precision product's own error. Measured: every
    # row within half an ulp. With t rounded to double first, 4 of the
    # 7 rows lay up to 3.3e-16 relative beyond it (4.0e-16 in all)
    mpmath = pytest.importorskip("mpmath")
    race = two_way_race(5, 1, 2)
    u = 106.873
    stats = aggregate_stats(race, u)
    params = default_params(race, stats, v_max=abs(race.offset))
    ws = [s.omega for s in phat_samples(race, params, stats)]
    got = tr.phat_prefix(ws, race, u)
    rows = [(w, v) for w, v in zip(ws, got) if abs(v) >= 1e-3]
    assert len(rows) == 7
    with mpmath.workdps(40):
        chars = [(mpmath.mpf(e.alpha),
                  [mpmath.mpf(x) for x in resolve_table(e).gammas if x <= u])
                 for e in race.characters]
        for w, value in rows:
            want = mpmath.fprod(
                mpmath.besselj(0, 2 * alpha * mpmath.mpf(w)
                               / mpmath.sqrt(0.25 + x * x))
                for alpha, g in chars for x in g)
            err = float(abs(value - want))
            assert err <= 0.5 * np.spacing(abs(value)) + 1e-18 * abs(value), w


def test_long_product_does_not_underflow(zeta_race):
    # zeta at u = 2999, 2468 zeros. The product at w = 400 is about
    # 3.3e-302 and must equal a sign-tracked sum of logs of the same
    # factors; at w = 800 and 1500 the true values, about 1e-674 and
    # 1e-1275, lie below the double range and must come back as zeros
    g = bundled_table("zeta").gammas
    g = g[g <= 2999.0].astype(np.longdouble)
    got = tr.phat_prefix([400.0, 800.0, 1500.0], zeta_race, 2999.0)
    assert np.all(np.isfinite(got))
    f = j0_lowbias(2.0 * 400.0 / np.sqrt(0.25 + g * g))
    sign = (-1.0) ** int(np.sum(f < 0.0))
    want = sign * float(np.exp(np.sum(np.log(np.abs(f)))))
    assert 1e-302 < abs(want) < 1e-301
    assert abs(got[0] - want) <= 1e-12 * abs(want)
    assert abs(got[1]) == 0.0 and abs(got[2]) == 0.0


def _explicit_product(ws, race, u):
    # the whole product of j0_lowbias factors over every zero, in
    # extended precision, with the log-sum route below 1e-3: the prefix
    # algorithm before the far zone went through the log-J0 series
    dens = []
    for entry in race.characters:
        g = resolve_table(entry).gammas
        gl = g[g <= u].astype(np.longdouble)
        dens.append((entry.alpha, np.sqrt(0.25 + gl * gl)))
    out = []
    for w in ws:
        fs = [j0_lowbias(2.0 * alpha * w / den) for alpha, den in dens]
        fs = [f for f in fs if f.size]
        if any(np.any(f == 0.0) for f in fs):
            out.append(0.0)
        elif fs and min(float(np.min(np.abs(f))) for f in fs) < 1e-3:
            total = sum(np.sum(np.log(np.abs(f))) for f in fs)
            neg = sum(int(np.sum(f < 0.0)) for f in fs)
            out.append(float((-1.0) ** neg * np.exp(total)))
        else:
            value = np.longdouble(1.0)
            for f in fs:
                value *= np.prod(f)
            out.append(float(value))
    return np.array(out)


@pytest.mark.filterwarnings("ignore::racedensity.zerodata.ThinTailWarning")
@pytest.mark.parametrize("race, u", [
    (prime_count_race(), 2999.0),
    (two_way_race(4, 1, 3), 2999.0),
    (two_way_race(24, 1, 5), 140.0),
])
def test_prefix_matches_explicit_product(race, u):
    # at every live frequency of a default solve, the split product
    # agrees with the explicit one to 4e-16 relative, or 1e-18 absolute
    # where it is below 1e-3 (measured over the six published races at
    # u = 60 to 2999: 1.7e-16 and 1.4e-20 at worst)
    stats = aggregate_stats(race, u)
    params = default_params(race, stats, v_max=abs(race.offset))
    ws = [s.omega for s in phat_samples(race, params, stats)]
    got = tr.phat_prefix(ws, race, u)
    want = _explicit_product(ws, race, u)
    small = np.abs(want) < 1e-3
    assert np.all(np.abs(got - want)[~small] <= 4e-16 * np.abs(want[~small]))
    assert np.all(np.abs(got - want)[small] <= 1e-18)


@pytest.mark.filterwarnings("ignore::racedensity.zerodata.ThinTailWarning")
@pytest.mark.parametrize("race", [prime_count_race(), two_way_race(4, 1, 3)])
def test_far_zone_truncation_over_actual_zeros(race):
    # what the far zone's log-J0 series drops past _FAR_TERMS, summed in
    # rationals over the far zeros of the largest live frequency of a
    # default solve at u = 2999 (2201 zeros for zeta, 2792 for mod 4;
    # measured 1.2e-28 and 1.6e-28). Each 1/(1/4 + g^2) is rounded up
    # to a multiple of 2^-128, and past the exact window of 20 terms
    # the rest is a geometric series whose ratio (z/j1)^2 is bounded
    # with the row's largest z, so the sum is an upper bound
    u = 2999.0
    stats = aggregate_stats(race, u)
    params = default_params(race, stats, v_max=abs(race.offset))
    w = phat_samples(race, params, stats)[-1].omega
    K, n, P = tr._FAR_TERMS, 20, 128
    a = _log_j0_fracs(K + n)
    total = Fraction(0)
    for entry in race.characters:
        g = resolve_table(entry).gammas
        g = g[g <= u]
        t = np.longdouble(2.0 * entry.alpha) * np.longdouble(w)
        q = Fraction(*t.as_integer_ratio()) ** 2 / 4
        # the far zeros as phat_prefix picks them: den >= |t| / _FAR_Z
        gl = g.astype(np.longdouble)
        far = g[np.sqrt(0.25 + gl * gl) >= float(abs(t)) / tr._FAR_Z]
        inv = [math.ceil(2 ** P / (Fraction(1, 4) + Fraction(x) ** 2))
               for x in far.tolist()]
        powers = [d ** K for d in inv]
        terms = []
        for k in range(K + 1, K + n + 1):
            powers = [p * d for p, d in zip(powers, inv)]
            terms.append(-a[k - 1] * q ** k * Fraction(sum(powers), 2 ** (P * k)))
        r = 4 * q * Fraction(max(inv), 2 ** P) / Fraction(24048, 10000) ** 2
        assert r < 1
        total += sum(terms) + terms[-1] * r / (1 - r)
    assert total < Fraction(1, 10 ** 24)


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
    return tr._accelerated(t, pc.y, pc.T_single, stats.R, order)[0]


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
    # could be selected
    pc = stats500.per_char[0]
    t = 0.4 * pc.T_single
    closed = [tr._sigma_model(t, pc.y, pc.T_single, m) for m in range(5)]
    monkeypatch.setattr(tr, "_SERIES_CUTOVER", 0.5)
    series = [tr._sigma_model(t, pc.y, pc.T_single, m) for m in range(5)]
    for a, b in zip(closed, series):
        assert a == pytest.approx(b, rel=1e-12)


def test_accelerated_derivative_chain(stats500):
    pc = stats500.per_char[0]
    t0 = 0.5 * pc.T_single
    h = 1e-3 * pc.T_single
    for order in range(1, 6):
        fd = five_point(lambda x: accelerated(x, stats500, order - 1), t0, h)
        got = accelerated(t0, stats500, order)
        assert got == pytest.approx(fd, rel=1e-6)


def test_accelerated_correction_leading_coefficient(stats500):
    # the t^2 coefficient of the correction is 1/2 - 2/j1^2
    # (= 0.154169861938710): the raw variance term less the full
    # first-ring weight 2/j1^2 that the smooth-density model carries
    pc = stats500.per_char[0]
    t = 1e-8
    corr, _ = tr._sigma_corr(t, stats500.R, pc.y, pc.T_single, 0)
    assert corr / t ** 2 == pytest.approx(0.5 - 2.0 / J1 ** 2, rel=1e-6)


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
