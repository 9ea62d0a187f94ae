"""Special-function kernel tests.

Reference values marked "oracle" were computed once with mpmath at 30
significant digits (Bessel values, Catalan, the arctan integral by
adaptive quadrature, log I0 derivatives by direct high-precision
differentiation) and are frozen here. The array tests of the J0 tail
and of the log I0 kernel compute their references with mpmath (a dev
dependency) at 30 to 40 digits as they run; the J0 zeros come from
scipy.special.jn_zeros.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j0 as scipy_j0
from scipy.special import jn_zeros
from scipy.special import zeta as hurwitz_zeta

from racedensity import specfun as sf
from racedensity import transforms as tr


def log_i0(w):
    return sf.log_i0_derivs(w, 0)[0]


# ---------------------------------------------------------------------------
# J0 and its zeros
# ---------------------------------------------------------------------------

def _mp(x):
    # the exact value of a double or long double as an mpmath number
    import mpmath

    n, d = x.as_integer_ratio()
    return mpmath.mpf(n) / d


def test_j0_at_zero_is_one():
    assert sf.j0_lowbias(0.0)[0] == 1.0


def test_j0_at_two_oracle():
    assert float(sf.j0_lowbias(2.0)[0]) == pytest.approx(
        0.223890779141235668, rel=1e-13)


def test_j0_vanishes_at_first_zero():
    j1 = sf.J0_ZERO1
    assert abs(float(sf.j0_lowbias(j1)[0])) < 1e-12


def test_j0_lowbias_against_30_digit_values():
    # reference values from an independent 30-digit computation
    pins = {
        0.5: 0.9384698072408129042284,
        1.0: 0.7651976865579665514497,
        2.0: 0.2238907791412356680518,
        3.5: -0.3801277399872633773787,
        5.9: 0.1220333545928227783392,
    }
    got = sf.j0_lowbias(np.array(list(pins)))
    assert got.dtype == np.longdouble
    for want, value in zip(pins.values(), got):
        assert float(value) == pytest.approx(want, rel=3e-16)


def test_j0_lowbias_near_root_absolute_accuracy():
    # at the double nearest the first root the true value is -6.109e-17;
    # the series evaluation must resolve it in absolute terms, where the
    # general-purpose routine only promises ulp-of-1 accuracy
    z = 2.404825557695773
    want = -6.108765259736730397082e-17
    got = float(sf.j0_lowbias(np.array([z]))[0])
    assert got == pytest.approx(want, abs=5e-19)


def test_j0_lowbias_fallback_joins_smoothly():
    # beyond the series cutover the Hankel form takes over; both
    # branches must agree with the library routine around the seam
    for z in (5.99, 6.01, 8.0, 25.0):
        a = float(sf.j0_lowbias(np.array([z]))[0])
        assert a == pytest.approx(scipy_j0(z), rel=4e-15, abs=1e-16)


def test_j0_lowbias_matches_scalar_routine_coarsely():
    zs = np.linspace(0.01, 5.99, 211)
    vals = sf.j0_lowbias(zs)
    for z, v in zip(zs, vals):
        assert float(v) == pytest.approx(scipy_j0(float(z)), abs=5e-16)


def test_j0_lowbias_tail_against_mpmath():
    # the Hankel form on [6, 1e3], at long double arguments: within
    # 2e-16 absolute, and unbiased, since a product of hundreds of
    # factors turns a mean error into a relative drift (measured on 6000
    # points of [6, 1e3]: 1.8e-17 at worst, mean 1e-19; cephes 1.3e-15)
    import mpmath

    rng = np.random.default_rng(20261018)
    z = np.concatenate([np.linspace(6.0, 30.0, 241)[1:],
                        rng.uniform(6.0, 1e3, 400)]).astype(np.longdouble)
    z *= 1.0 + np.longdouble(2.0) ** -60 * rng.uniform(-1.0, 1.0, z.size)
    got = sf.j0_lowbias(z)
    assert got.dtype == np.longdouble
    with mpmath.workdps(30):
        err = np.array([float(_mp(g) - mpmath.besselj(0, _mp(x)))
                        for x, g in zip(z, got)])
    assert np.max(np.abs(err)) < 2e-16
    assert abs(np.mean(err)) < 1e-17


def test_j0_lowbias_even_and_vanishes_at_jn_zeros():
    # at the first 60 zeros (scipy's, good to about 1e-15) J0 is below
    # its slope times that error, and it changes sign at each of them
    z = jn_zeros(0, 60)
    at = sf.j0_lowbias(z).astype(float)
    assert np.max(np.abs(at)) < 1e-15
    mid = sf.j0_lowbias(np.concatenate([[0.0], (z[1:] + z[:-1]) / 2.0]))
    assert np.all(np.diff(np.sign(mid.astype(float))) != 0.0)
    assert np.array_equal(sf.j0_lowbias(-z), sf.j0_lowbias(z))


def test_j0_zeros_first_two():
    # the constants are the doubles nearest the zeros; scipy's may sit
    # one ulp away. The first zero is 2.4048..., not the misprinted
    # 2.2048 sometimes seen; 2.2048 is inconsistent with both the second
    # zero and sum(1/j_l^2) = 1/4
    z = (sf.J0_ZERO1, sf.J0_ZERO2)
    assert z == (float("2.40482555769577276862"),
                 float("5.52007811028631064960"))
    for mine, scipy_zero in zip(z, jn_zeros(0, 2)):
        assert abs(mine - scipy_zero) <= math.ulp(mine)
    assert round(z[1], 4) == 5.5201


# ---------------------------------------------------------------------------
# log I0 at pinned I0, I1 values
# ---------------------------------------------------------------------------

# I0 and I1 are never formed: a 1e-13 relative pin on I0 is a 1e-13
# absolute pin on log I0, and I1/I0 is the first derivative of log I0

def test_i0_i1_at_zero():
    # I0(0) = 1, I1(0) = 0
    assert sf.log_i0_derivs(0.0, 1) == [0.0, 0.0]


def test_i0_at_ten_oracle():
    assert log_i0(10.0) == pytest.approx(math.log(2815.71662846625447), abs=1e-13)


def test_i0_i1_both_regimes_oracle():
    # either side of w = 20, inside the asymptotic regime (w >= 18); the
    # w = 10 pin above sits in the ratio regime
    for w, i0, i1 in ((19.5, 26760525.339838766, 26065069.2644571657),
                      (20.5, 70922869.8343170066, 69170831.6791843729)):
        d = sf.log_i0_derivs(w, 1)
        assert d[0] == pytest.approx(math.log(i0), abs=1e-13)
        assert d[1] == pytest.approx(i1 / i0, rel=1e-13)


def test_i0_large_argument_leading_asymptote():
    # e^-w sqrt(2 pi w) I0(w) = 1 + 1/(8w) + O(w^-2)
    w = 50.0
    scaled = math.exp(log_i0(w) - w + 0.5 * math.log(2 * math.pi * w))
    assert scaled == pytest.approx(1.0 + 1.0 / (8 * w), abs=5e-5)
    assert log_i0(w) == pytest.approx(math.log(2.93255378384933633e+20), abs=1e-13)


def test_i_rejects_negative():
    for bad in (-1.0, -0.5, -2.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            sf.log_i0_derivs(bad)
    # one bad element spoils a whole array
    for bad in (-1e-300, math.nan):
        with pytest.raises(ValueError):
            sf.log_i0_derivs(np.array([0.5, 3.0, bad, 40.0]), 5)
    with pytest.raises(ValueError):
        sf.log_i0_derivs(np.ones((2, 2)))


def test_i0_overflow_policy():
    # I0 itself overflows a double above w ~ 713; its log stays finite
    # and accurate, over a float or a whole array
    lg = log_i0(800.0)
    assert lg == pytest.approx(800.0 - 0.5 * math.log(2 * math.pi * 800.0)
                               + math.log(1 + 1 / 6400), rel=1e-6)
    assert np.all(np.isfinite(sf.log_i0_derivs(np.array([700.0, 720.0, 1e5]), 5)))


# ---------------------------------------------------------------------------
# log I0 derivatives
# ---------------------------------------------------------------------------

# oracle: mpmath direct differentiation of log(besseli(0, w)) at 30 digits
_DERIV_ORACLE = {
    0.1: [0.0024984392338762434, 0.049937603987938919, 0.49813019582855459,
          -0.03729241639909563, -0.3687874423245696, 0.12350540312848397],
    1.0: [0.23591435850717865, 0.44638996589653451, 0.35434603245035625,
          -0.22430909323599542, -0.010642338123181792, 0.37637814838027019],
    10.0: [7.9429720831186956, 0.94859982595484596, 0.005298387602951359,
           -0.0010959396167486216, 0.00034143249885150621, -0.00014257720913035876],
    100.0: [96.779732689942584, 0.99498737300516877, 5.0253830221470357e-5,
            -1.0076540327149255e-6, 3.0307743275425209e-8, -1.2154671221560075e-9],
}


# Achievable relative accuracy per derivative order. Orders 2..5 lose
# digits on both sides of the w = 18 switch: below it to the structural
# cancellation in the ratio recurrences (g^(m) ~ (m-1)!/(2w^m) emerges from
# O(w^{1-m}) pieces), at and just above it to the truncation of the
# divergent asymptotic series. Measured against mpmath at 40 digits on
# 1606 points over (0, 1e5) including w = 1 and 18 and 1e-12 w either
# side of them, the worst cases per order m = 0..5 are 8.3e-16, 1.7e-15,
# 1.4e-12, 1.9e-11, 1.8e-10 and 1.2e-9, orders 2..5 all at w = 18 itself.
# On the ratio side, with r from the ascending series, 300 points of
# (1, 18) give at most 2.2e-16, 6.9e-16, 7.2e-13, 1.2e-11, 1.3e-10 and
# 1.1e-9, orders 2..5 at w = 16.75.
_DERIV_RTOL = [1e-12, 1e-12, 5e-11, 1e-9, 1e-9, 1e-8]


@pytest.mark.parametrize("w", sorted(_DERIV_ORACLE))
def test_log_i0_derivs_oracle(w):
    got = sf.log_i0_derivs(w, 5)
    want = _DERIV_ORACLE[w]
    for m in range(6):
        assert got[m] == pytest.approx(want[m], rel=_DERIV_RTOL[m], abs=1e-18)


def _mpmath_log_i0_derivs(w):
    # derivatives 0..5 of log I0 at w by mpmath at 40 digits
    import mpmath

    with mpmath.workdps(40):
        c = mpmath.taylor(lambda t: mpmath.log(mpmath.besseli(0, t)),
                          mpmath.mpf(float(w)), 5)
        return [float(c[m] * mpmath.factorial(m)) for m in range(6)]


def test_log_i0_derivs_array_against_mpmath():
    # one array across the series (w <= 1), ratio (1 < w < 18) and
    # asymptotic (w >= 18) regimes, with points within 1e-12 w of both
    # switches
    ws = np.array([1e-6, 0.05, 0.3, 0.77, 1.0 - 1e-12, 1.0, 1.0 + 1e-12,
                   1.5, 3.3, 7.85, 12.9, 17.6, 18.0 * (1.0 - 1e-12), 18.0,
                   18.0 * (1.0 + 1e-12), 18.1, 25.0, 60.0, 333.0, 2500.0, 1e5])
    got = sf.log_i0_derivs(ws, 5)
    assert got.shape == (6, ws.size)
    for i, w in enumerate(ws):
        want = _mpmath_log_i0_derivs(w)
        for m in range(6):
            assert got[m, i] == pytest.approx(want[m], rel=_DERIV_RTOL[m],
                                              abs=1e-18), (w, m)


def test_log_i0_and_ratio_against_mpmath():
    # log I0 and I1/I0 on [1, 18], the ascending-series regime, within
    # 1e-15 relative
    import mpmath

    ws = np.concatenate([np.linspace(1.0, 18.0, 171),
                         np.random.default_rng(7).uniform(1.0, 18.0, 200)])
    got = sf.log_i0_derivs(ws, 1)
    with mpmath.workdps(40):
        for i, w in enumerate(ws):
            i0 = mpmath.besseli(0, w)
            want = (float(mpmath.log(i0)), float(mpmath.besseli(1, w) / i0))
            for m in range(2):
                assert got[m, i] == pytest.approx(want[m], rel=1e-15), (w, m)


def test_log_i0_derivs_float_matches_array():
    ws = [0.0, 0.5, 1.0, 1.0 + 1e-12, 9.0, 18.0, 250.0]
    arr = sf.log_i0_derivs(np.array(ws), 5)
    for i, w in enumerate(ws):
        d = sf.log_i0_derivs(w, 5)
        assert all(type(v) is float for v in d)
        assert d == arr[:, i].tolist()
    # a lower order returns the leading rows of the full result
    assert np.array_equal(sf.log_i0_derivs(np.array(ws), 2), arr[:3])


@pytest.mark.parametrize("w", [0.1, 1.0, 10.0, 100.0])
def test_log_i0_derivs_match_finite_differences(w):
    h = 1e-5
    for m in range(1, 6):
        lo = sf.log_i0_derivs(w - h, m - 1)[m - 1]
        hi = sf.log_i0_derivs(w + h, m - 1)[m - 1]
        fd = (hi - lo) / (2 * h)
        val = sf.log_i0_derivs(w, m)[m]
        assert val == pytest.approx(fd, rel=1e-6)


def test_log_i0_derivs_at_zero():
    d = sf.log_i0_derivs(0.0, 5)
    assert d[0] == 0.0
    assert d[1] == 0.0
    assert d[2] == pytest.approx(0.5, abs=1e-15)
    assert d[3] == 0.0
    assert d[4] == pytest.approx(-0.375, abs=1e-14)
    assert d[5] == 0.0


def test_log_i0_derivs_regime_boundaries_are_continuous():
    # the two probe points are 2e-12 w0 apart, so the function itself moves
    # by ~|next derivative| * gap between them; allow that plus each
    # branch's own accuracy before calling a mismatch a regime jump
    for w0 in (sf._ODE_LO, sf._ODE_HI):
        gap = 2e-12 * w0
        a = sf.log_i0_derivs(w0 * (1 - 1e-12), 5)
        b = sf.log_i0_derivs(w0 * (1 + 1e-12), 5)
        for m in range(6):
            slope = abs(a[m + 1]) if m < 5 else abs(a[m])
            tol = 2 * _DERIV_RTOL[m] * abs(a[m]) + 2 * slope * gap + 1e-15
            assert abs(a[m] - b[m]) < tol


def test_log_i0_derivs_rejects_bad_order():
    with pytest.raises(ValueError):
        sf.log_i0_derivs(1.0, 6)
    with pytest.raises(ValueError):
        sf.log_i0_derivs(1.0, -1)


def test_log_i0_derivs_huge_argument():
    # r -> 1 - 1/(2w), second derivative -> 1/(2w^2); stays finite at 1e6
    d = sf.log_i0_derivs(1e6, 5)
    assert d[1] == pytest.approx(1.0 - 0.5e-6 - 0.125e-12, rel=1e-12)
    assert d[2] == pytest.approx(0.5e-12, rel=1e-6)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e3))
def test_log_i0_bounds_property(w):
    val = log_i0(w)
    assert 0.0 < val < min(w * w / 4.0, w)
    d = sf.log_i0_derivs(w, 2)
    assert 0.0 < d[1] < min(w / 2.0, 1.0)
    assert 0.0 < d[2] < 0.5


def test_log_i0_bounds_dense_sample():
    rng = np.random.default_rng(20260816)
    ws = rng.uniform(1e-9, 1e3, size=10_000)
    val = sf.log_i0_derivs(ws, 0)[0]
    assert np.all((0.0 < val) & (val < np.minimum(ws * ws / 4.0, ws)))


# ---------------------------------------------------------------------------
# c_k coefficients
# ---------------------------------------------------------------------------

def test_c_first_five_exact():
    ct = sf.c_coeffs(5)
    assert ct == (1 / 2, 1 / 16, 1 / 72, 11 / 3072, 19 / 19200)


def _zero_sum_c(k, L=1000):
    # c_k = (2^k / k) sum_l j_l^(-2k) over the zeros of J0: L of scipy's
    # zeros, and past them j_l ~ b + 1/(8b) with b = (l - 1/4) pi, so
    # j^(-2k) ~ b^(-2k) - (k/4) b^(-2k-2), summed by Hurwitz zeta
    z = jn_zeros(0, L)
    tail = (hurwitz_zeta(2 * k, L + 0.75) / math.pi ** (2 * k)
            - k / 4 * hurwitz_zeta(2 * k + 2, L + 0.75) / math.pi ** (2 * k + 2))
    return 2.0 ** k / k * (math.fsum(z ** (-2.0 * k)) + tail)


def test_c1_recovered_from_zero_sum():
    assert sf.c_coeffs(1)[0] == 0.5
    assert _zero_sum_c(1) == pytest.approx(0.5, rel=1e-14)


def test_c_coeffs_match_zero_sum():
    # the exact rationals against the zero-sum definition of the family
    c = sf.c_coeffs(30)
    for k in range(1, 31):
        assert c[k - 1] == pytest.approx(_zero_sum_c(k), rel=1e-14), k


def test_c6_inside_bracket():
    ct = sf.c_coeffs(6)
    j1 = jn_zeros(0, 1)[0]
    lo = (1 / 6) * (2 / j1 ** 2) ** 6
    hi = lo * (1 + 1.16 * 0.19 ** 6)
    assert lo < ct[5] < hi


def test_c_ratio_decreases_to_limit():
    # c_k ~ (1/k)(2/j1^2)^k exponentially fast, so successive ratios
    # c_k/c_{k+1} = (k+1)/k * j1^2/2 * (1 + O(0.19^k)) fall monotonically
    # toward j1^2/2 from above
    ct = sf.c_coeffs(25)
    ratios = [ct[k] / ct[k + 1] for k in range(len(ct) - 1)]
    assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))
    j1 = jn_zeros(0, 1)[0]
    lim = j1 ** 2 / 2
    assert all(r > lim for r in ratios)
    assert ratios[-1] == pytest.approx(25.0 / 24.0 * lim, rel=1e-9)
    assert all(c > 0 for c in ct)


def test_c_coeffs_range_check():
    with pytest.raises(ValueError):
        sf.c_coeffs(0)
    with pytest.raises(ValueError):
        sf.c_coeffs(31)


def test_coeff_table_immutable():
    # every caller shares one cached tuple
    ct = sf.c_coeffs(5)
    with pytest.raises(TypeError):
        ct[0] = 1.0


def test_log_j0_series_identity():
    # log J0(w) = -sum c_k w^{2k} / 2^k inside the first zero; the tail
    # ratio is w^2/j1^2 so at w = 1.5 depth 25 leaves ~1e-12
    ct = sf.c_coeffs(25)
    for w in (0.5, 1.0, 1.5):
        direct = math.log(scipy_j0(w))
        series = -sum(ct[k - 1] * w ** (2 * k) / 2 ** k
                      for k in range(1, 26))
        assert direct == pytest.approx(series, abs=1e-10)


def test_log_j0_exact_coefficients_match_c_family():
    # a_k of log J0(z) = sum a_k (z^2/4)^k are -2^k c_k: the first five
    # against their closed forms, and every c_k of c_coeffs(30) is the
    # double nearest -a_k / 2^k
    a = sf._log_j0_fracs(30)
    assert all(x < 0 for x in a)
    closed = (Fraction(1, 2), Fraction(1, 16), Fraction(1, 72),
              Fraction(11, 3072), Fraction(19, 19200))
    for k, c in enumerate(closed, start=1):
        assert a[k - 1] == -(2 ** k) * c
    c = sf.c_coeffs(30)
    for k in range(1, 31):
        exact = -a[k - 1] / 2 ** k
        assert c[k - 1] == float(exact)
        assert abs(Fraction(c[k - 1]) - exact) <= Fraction(math.ulp(c[k - 1])) / 2


def test_log_j0_coefficients_rounded_once():
    # each extended-precision coefficient sits within half an ulp of its
    # exact rational
    half_ulp = Fraction(1, 2 ** 64)
    coeffs = sf._log_j0_coeffs(tr._FAR_TERMS)
    assert len(coeffs) == tr._FAR_TERMS
    for exact, ld in zip(sf._log_j0_fracs(tr._FAR_TERMS), coeffs):
        assert abs(Fraction(*ld.as_integer_ratio()) - exact) \
            <= half_ulp * abs(exact)


def test_log_j0_truncation_bound():
    # the terms phat_prefix drops past _FAR_TERMS, at the far zone's edge
    # z = _FAR_Z, add up to less than the 7e-29 per factor its comment
    # states. The ratio of consecutive terms, a_(k+1) q / a_k, rises
    # with k towards (z/j1)^2: a_k = -(4^k/k) sum_l j_l^(-2k), and the
    # power-sum ratio is a mean of the j_l^(-2) weighted by j_l^(-2k).
    # So past the exact window the rest is at most a geometric series
    # with ratio r, checked here against every ratio inside the window
    K = tr._FAR_TERMS
    q = Fraction(tr._FAR_Z) ** 2 / 4
    n = 100
    a = sf._log_j0_fracs(K + n)
    terms = [-a[k - 1] * q ** k for k in range(K + 1, K + n + 1)]
    dropped = sum(terms)
    assert dropped < Fraction(7, 10 ** 29)
    # 2.4048 < j1, so r bounds the limit (z/j1)^2
    r = 4 * q / Fraction(24048, 10000) ** 2
    ratios = [y / x for x, y in zip(terms, terms[1:])]
    assert all(x < y for x, y in zip(ratios, ratios[1:]))
    assert ratios[-1] < r < 1
    assert terms[-1] * r / (1 - r) < dropped * Fraction(1, 10 ** 40)
    # ten million far factors stay below 1e-21
    assert dropped * 10 ** 7 < Fraction(1, 10 ** 21)


def test_log_i0_series_identity():
    # log I0(w) = sum (-1)^{k-1} c_k w^{2k} / 2^k for |w| <= 1
    ct = sf.c_coeffs(25)
    for w in (0.125, 0.5, 0.9, 1.0):
        direct = log_i0(w)
        series = sum((-1) ** (k - 1) * ct[k - 1] * w ** (2 * k) / 2 ** k
                     for k in range(1, 26))
        assert direct == pytest.approx(series, abs=1e-12)


# ---------------------------------------------------------------------------
# arctan integral
# ---------------------------------------------------------------------------

def test_arctan_integral_endpoints():
    assert sf.arctan_integral(0.0) == 0.0
    # Catalan's constant
    assert sf.arctan_integral(1.0) == pytest.approx(0.915965594177219015, abs=1e-14)


@pytest.mark.parametrize("x,want", [
    (0.25, 0.248301750982306869),
    (0.5, 0.487222358294522357),
    (0.75, 0.710570104643646942),
    (0.95, 0.876337541334202778),
])
def test_arctan_integral_oracle(x, want):
    assert sf.arctan_integral(x) == pytest.approx(want, abs=1e-14)


def test_arctan_integral_regime_continuity():
    # integrand at 0.9 is atan(0.9)/0.9 ~ 0.814, so the two probe points
    # differ by ~1.6e-12 through the function's own slope alone
    a = sf.arctan_integral(0.9 - 1e-12)
    b = sf.arctan_integral(0.9 + 1e-12)
    assert a == pytest.approx(b, abs=2.5e-12)


def test_arctan_integral_domain():
    with pytest.raises(ValueError):
        sf.arctan_integral(-0.1)
    with pytest.raises(ValueError):
        sf.arctan_integral(1.5)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_arctan_integral_monotone_bounded(x):
    v = sf.arctan_integral(x)
    # integrand is in (0, 1], so 0 <= value <= x, and it beats x*atan(x)/x
    assert 0.0 <= v <= x + 1e-15
    assert v >= x * math.atan(x) / max(x, 1e-300) * 0.5 if x > 0 else True


# ---------------------------------------------------------------------------
# base constants
# ---------------------------------------------------------------------------

def test_base_constants_pins():
    bc = sf.base_constants(1)
    assert bc.A0 == pytest.approx(-0.08933, abs=1e-4)
    assert bc.A1 == pytest.approx(-2.12634, abs=1e-4)
    assert bc.X == pytest.approx(0.0336, abs=5e-4)
    assert bc.A == pytest.approx(bc.A0 - math.log(math.pi), abs=1e-15)


def test_base_constants_regression():
    # frozen from the scipy quadrature that computed A0 and A1 before
    # they were stored as numbers (certified residual < 1e-9)
    bc = sf.base_constants(1)
    assert bc.A0 == pytest.approx(-0.0893265223437, abs=1e-10)
    assert bc.A1 == pytest.approx(-2.1263359643917, abs=1e-10)


def test_base_constants_against_mpmath():
    # A0 and A1 are the doubles nearest their defining integrals,
    # recomputed here by mpmath quadrature at 40 digits, which agree
    # with 50 digits to 2e-27; the values sit 0.39 ulp (5.4e-18) and
    # 0.21 ulp (9.2e-17) from a rounding midpoint
    import mpmath

    with mpmath.workdps(40):
        def log_i0(x):
            return mpmath.log(mpmath.besseli(0, x))

        def h(x):
            # log I0 with its large-x asymptote x - log(2 pi x)/2 removed
            return log_i0(x) - x + mpmath.log(2 * mpmath.pi * x) / 2

        l2pi = mpmath.log(2 * mpmath.pi)
        a0 = (1 + mpmath.quad(lambda x: log_i0(x) / x ** 2, [0, 1])
              + mpmath.quad(lambda x: h(x) / x ** 2, [1, mpmath.inf])
              - (l2pi + 1) / 2)
        a1 = (mpmath.quad(lambda x: mpmath.log(x) * log_i0(x) / x ** 2, [0, 1])
              + mpmath.quad(lambda x: mpmath.log(x) * h(x) / x ** 2,
                            [1, mpmath.inf])
              - (l2pi + 2) / 2)
    bc = sf.base_constants(1)
    assert bc.A0 == float(a0)
    assert bc.A1 == float(a1)


def test_base_constants_conductor_shift():
    b1 = sf.base_constants(1)
    b7 = sf.base_constants(7)
    assert b7.A0 == b1.A0
    assert b7.A1 == b1.A1
    assert b7.A - b1.A == pytest.approx(math.log(7), rel=1e-13)
    # X grows like 0.1922 log q*
    assert (b7.X - b1.X) / math.log(7) == pytest.approx(0.1922, abs=5e-4)


def test_base_constants_domain():
    with pytest.raises(ValueError):
        sf.base_constants(0)
    with pytest.raises(ValueError):
        sf.base_constants(-3)
