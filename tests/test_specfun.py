"""Special-function kernel tests.

Reference values marked "oracle" were computed once with mpmath at 30
significant digits (Bessel values, log I0 derivatives by direct
high-precision differentiation) and are frozen here. The array tests of the J0 tail
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
    return sf.log_i0_derivs(w)[0]


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
    # beyond the near kernel's cut the Hankel form takes over; both
    # branches must agree with the library routine around the seam, and
    # the near kernel at points inside it
    for z in (5.99, 6.01, 8.0, 25.0, 31.99, 32.01):
        a = float(sf.j0_lowbias(np.array([z]))[0])
        assert a == pytest.approx(scipy_j0(z), rel=4e-15, abs=1e-16)


def test_j0_lowbias_near_kernel_only_where_used(monkeypatch):
    # the near kernel runs on the z <= cut values alone, and a mixed
    # array gives the bits of its two parts evaluated apart
    cut = sf._J0_NEAR_CUT
    rng = np.random.default_rng(6)
    z = np.concatenate([rng.uniform(0.0, 2.0 * cut, 2000),
                        [0.0, cut, np.nextafter(cut, np.inf), 2.0 * cut]])
    mixed = sf.j0_lowbias(z)
    small = z <= cut
    assert 0 < small.sum() < z.size
    assert np.array_equal(mixed[small], sf.j0_lowbias(z[small]))
    assert np.array_equal(mixed[~small], sf.j0_lowbias(z[~small]))
    seen = []
    near = sf._j0_near

    def spy(zl, zd):
        seen.append(zl.copy())
        return near(zl, zd)
    monkeypatch.setattr(sf, "_j0_near", spy)
    assert np.array_equal(sf.j0_lowbias(z), mixed)
    assert sum(zl.size for zl in seen) == small.sum()
    assert max(zl.max() for zl in seen) == cut


def test_j0_near_kernel_accuracy_and_bias():
    # 1e5 long double arguments on [0, cut] against mpmath: the largest
    # error and the mean signed error, which a product of hundreds of
    # factors turns into a relative drift. On [0, 6] the 27-term
    # ascending series gave 1.8e-18 and 2.2e-20; on [0, 32] the kernel
    # gives 5.4e-20 and 1.2e-22, where the Hankel form gave 1.8e-17 on
    # [6, 30]
    import mpmath

    cut = sf._J0_NEAR_CUT
    rng = np.random.default_rng(20261019)
    z = rng.uniform(0.0, cut, 100_000).astype(np.longdouble)
    z *= 1.0 + np.longdouble(2.0) ** -60 * rng.uniform(-1.0, 1.0, z.size)
    z = np.minimum(z, cut)
    got = sf.j0_lowbias(z)
    assert got.dtype == np.longdouble
    with mpmath.workdps(30):
        err = np.array([float(_mp(g) - mpmath.besselj(0, _mp(x)))
                        for x, g in zip(z, got)])
    assert np.max(np.abs(err)) < 2e-19
    assert abs(np.mean(err)) < 5e-21


def test_j0_near_kernel_seams():
    # at each midpoint between centres, one long double ulp either side
    # and two double ulps either side (the centre is chosen from the
    # double nearest z, and these outer points lie on either side of
    # every switch), J0 moves by no more than its slope allows plus 1e-19
    from scipy.special import j1 as scipy_j1

    centres = sf._j0_near_coeffs()[0]
    for m in (centres[1:] + centres[:-1]) / 2:
        step = 2.0 * np.spacing(float(m))
        pts = np.array([float(m) - step, np.nextafter(m, np.longdouble(0.0)),
                        m, np.nextafter(m, np.longdouble(np.inf)),
                        float(m) + step], dtype=np.longdouble)
        vals = sf.j0_lowbias(pts)
        slope = abs(scipy_j1(float(m)))
        dz = np.diff(pts)
        assert np.all(dz > 0.0)
        assert np.all(np.abs(np.diff(vals)) <= slope * dz + 1e-19)


def test_j0_near_coefficients_against_mpmath_taylor():
    # the recurrence's coefficients, and the c = 0 row's, against
    # mpmath's Taylor expansion of J0 at 40 digits about the same
    # extended-precision centre, stepped from centre to centre from
    # c = 0 out to the last centre, the one nearest the cut
    import mpmath

    centres, rows, hi = sf._j0_near_coeffs()
    last = centres.size - 1
    assert rows.shape == (11, centres.size)
    assert centres[52] == 6.0
    assert last == round(sf._J0_NEAR_CUT / float(centres[1]))
    assert np.array_equal(hi, rows[3:].astype(float))
    with mpmath.workdps(40):
        for k in (0, 1, 26, 52, 53, 54, 150, last - 1, last):
            want = mpmath.taylor(lambda x: mpmath.besselj(0, x),
                                 _mp(centres[k]), 10)
            for got, w in zip(rows[:, k], want):
                assert abs(_mp(got) - w) <= 6e-20 * abs(w)


def test_j0_lowbias_matches_scalar_routine_coarsely():
    zs = np.linspace(0.01, 5.99, 211)
    vals = sf.j0_lowbias(zs)
    for z, v in zip(zs, vals):
        assert float(v) == pytest.approx(scipy_j0(float(z)), abs=5e-16)


def test_j0_lowbias_tail_against_mpmath():
    # the Hankel form on [cut, 1e3], at long double arguments: within
    # 2e-16 absolute, and unbiased, since a product of hundreds of
    # factors turns a mean error into a relative drift (measured on 6000
    # points of [32, 1e3]: 7.4e-18 at worst, mean 2.4e-20; cephes 1.3e-15)
    import mpmath

    cut = sf._J0_NEAR_CUT
    rng = np.random.default_rng(20261018)
    z = np.concatenate([np.linspace(cut, cut + 24.0, 241)[1:],
                        rng.uniform(cut, 1e3, 400)]).astype(np.longdouble)
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

def test_i0_at_ten_oracle():
    assert log_i0(10.0) == pytest.approx(math.log(2815.71662846625447), abs=1e-13)


def test_i0_i1_both_regimes_oracle():
    # either side of w = 20, inside the asymptotic regime (w >= 18); the
    # w = 10 pin above sits in the ratio regime
    for w, i0, i1 in ((19.5, 26760525.339838766, 26065069.2644571657),
                      (20.5, 70922869.8343170066, 69170831.6791843729)):
        d = sf.log_i0_derivs(w)
        assert d[0] == pytest.approx(math.log(i0), abs=1e-13)
        assert d[1] == pytest.approx(i1 / i0, rel=1e-13)


def test_i0_large_argument_leading_asymptote():
    # e^-w sqrt(2 pi w) I0(w) = 1 + 1/(8w) + O(w^-2)
    w = 50.0
    scaled = math.exp(log_i0(w) - w + 0.5 * math.log(2 * math.pi * w))
    assert scaled == pytest.approx(1.0 + 1.0 / (8 * w), abs=5e-5)
    assert log_i0(w) == pytest.approx(math.log(2.93255378384933633e+20), abs=1e-13)


def test_i_rejects_negative():
    # w below 1 is refused too: the log-I0 series over the power sums
    # (transforms._log_i0_series) sums every argument up to the split
    for bad in (-1.0, -0.5, -2.0, math.nan, math.inf, 0.5, 1.0 - 1e-12):
        with pytest.raises(ValueError, match="_log_i0_series"):
            sf.log_i0_derivs(bad)
    # one bad element spoils a whole array
    for bad in (-1e-300, math.nan, 0.5):
        with pytest.raises(ValueError):
            sf.log_i0_derivs(np.array([1.5, 3.0, bad, 40.0]))
    with pytest.raises(ValueError):
        sf.log_i0_derivs(np.ones((2, 2)))


def test_i0_overflow_policy():
    # I0 itself overflows a double above w ~ 713; its log stays finite
    # and accurate, over a float or a whole array
    lg = log_i0(800.0)
    assert lg == pytest.approx(800.0 - 0.5 * math.log(2 * math.pi * 800.0)
                               + math.log(1 + 1 / 6400), rel=1e-6)
    assert np.all(np.isfinite(sf.log_i0_derivs(np.array([700.0, 720.0, 1e5]))))


# ---------------------------------------------------------------------------
# log I0 derivatives
# ---------------------------------------------------------------------------

# oracle: mpmath direct differentiation of log(besseli(0, w)) at 30 digits
_DERIV_ORACLE = {
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
# 1605 points over [1, 1e5] (1300 log-uniform, 300 evenly spaced on
# [1, 18], and w = 1, 1 + 1e-12 and 18 with 1e-12 w either side of it),
# the worst cases per order m = 0..5 are 2.5e-16, 1.5e-15, 1.4e-12,
# 1.9e-11, 1.8e-10 and 1.2e-9, orders 1..5 all at w = 18 or 1e-12 w above
# it. On the ratio side, with r from the ascending series, the points
# of [1, 18) give at most 2.5e-16, 6.9e-16, 7.2e-13, 1.2e-11, 1.3e-10 and
# 1.1e-9, orders 1..5 at w = 16.75.
_DERIV_RTOL = [1e-12, 1e-12, 5e-11, 1e-9, 1e-9, 1e-8]


@pytest.mark.parametrize("w", sorted(_DERIV_ORACLE))
def test_log_i0_derivs_oracle(w):
    got = sf.log_i0_derivs(w)
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
    # one array across the ratio (1 <= w < 18) and asymptotic (w >= 18)
    # regimes, from the lower end of the domain and with points within
    # 1e-12 w of the switch
    ws = np.array([1.0, 1.0 + 1e-12, 1.5, 3.3, 7.85, 12.9, 17.6,
                   18.0 * (1.0 - 1e-12), 18.0, 18.0 * (1.0 + 1e-12), 18.1,
                   25.0, 60.0, 333.0, 2500.0, 1e5])
    got = sf.log_i0_derivs(ws)
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
    got = sf.log_i0_derivs(ws)
    with mpmath.workdps(40):
        for i, w in enumerate(ws):
            i0 = mpmath.besseli(0, w)
            want = (float(mpmath.log(i0)), float(mpmath.besseli(1, w) / i0))
            for m in range(2):
                assert got[m, i] == pytest.approx(want[m], rel=1e-15), (w, m)


def test_even_series_derivative_table():
    # one table for every even series: row m, column k - 1 holds the m-th
    # derivative's coefficient (-1)^(k-1) (2k)!/(2k-m)! and power
    # max(2k - m, 0); l0_full's log-I0 rows are its negation times a_k
    falling, powers = sf._even_derivs(57)
    for m in range(6):
        for k in range(1, 58):
            assert falling[m, k - 1] == (-1) ** (k - 1) * math.perm(2 * k, m)
            assert powers[m, k - 1] == max(2 * k - m, 0)
    assert not falling.flags.writeable and not powers.flags.writeable
    rows, rpowers = tr._log_i0_rows()
    a = sf._log_j0_coeffs(57)
    for m in range(6):
        for k in range(1, 57):
            assert rows[m, k - 1] == (-1) ** k * math.perm(2 * k, m) * a[k - 1]
    assert np.array_equal(rpowers, powers[:, :56])


def test_log_i0_derivs_float_matches_array():
    ws = [1.0, 1.0 + 1e-12, 1.4, 9.0, 18.0, 250.0]
    arr = sf.log_i0_derivs(np.array(ws))
    for i, w in enumerate(ws):
        d = sf.log_i0_derivs(w)
        assert all(type(v) is float for v in d)
        assert d == arr[:, i].tolist()


@pytest.mark.parametrize("w", [1.4, 10.0, 100.0])
def test_log_i0_derivs_match_finite_differences(w):
    # 1.4 is the smallest argument l0_full passes (zerodata._FAR_Z)
    h = 1e-5
    for m in range(1, 6):
        lo = sf.log_i0_derivs(w - h)[m - 1]
        hi = sf.log_i0_derivs(w + h)[m - 1]
        fd = (hi - lo) / (2 * h)
        val = sf.log_i0_derivs(w)[m]
        assert val == pytest.approx(fd, rel=1e-6)


def test_log_i0_derivs_regime_boundaries_are_continuous():
    # the two probe points are 2e-12 w0 apart, so the function itself moves
    # by ~|next derivative| * gap between them; allow that plus each
    # branch's own accuracy before calling a mismatch a regime jump
    w0 = sf._ODE_HI
    gap = 2e-12 * w0
    a = sf.log_i0_derivs(w0 * (1 - 1e-12))
    b = sf.log_i0_derivs(w0 * (1 + 1e-12))
    for m in range(6):
        slope = abs(a[m + 1]) if m < 5 else abs(a[m])
        tol = 2 * _DERIV_RTOL[m] * abs(a[m]) + 2 * slope * gap + 1e-15
        assert abs(a[m] - b[m]) < tol


def test_log_i0_derivs_huge_argument():
    # r -> 1 - 1/(2w), second derivative -> 1/(2w^2); stays finite at 1e6
    d = sf.log_i0_derivs(1e6)
    assert d[1] == pytest.approx(1.0 - 0.5e-6 - 0.125e-12, rel=1e-12)
    assert d[2] == pytest.approx(0.5e-12, rel=1e-6)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e3))
def test_log_i0_bounds_property(w):
    val = log_i0(w)
    assert 0.0 < val < min(w * w / 4.0, w)
    d = sf.log_i0_derivs(w)
    assert 0.0 < d[1] < min(w / 2.0, 1.0)
    assert 0.0 < d[2] < 0.5


def test_log_i0_bounds_dense_sample():
    rng = np.random.default_rng(20260816)
    ws = rng.uniform(1.0, 1e3, size=10_000)
    val = sf.log_i0_derivs(ws)[0]
    assert np.all((0.0 < val) & (val < np.minimum(ws * ws / 4.0, ws)))


# ---------------------------------------------------------------------------
# the log-J0 coefficients, a_k = -2^k c_k
# ---------------------------------------------------------------------------

def _c(n):
    # c_k = -a_k / 2^k, k = 1..n, from the exact a_k of log J0(z) =
    # sum_k a_k (z^2/4)^k, which both series take
    return [-a / 2 ** k for k, a in enumerate(sf._log_j0_fracs(n), start=1)]


def test_c_first_five_exact():
    assert _c(5) == [Fraction(1, 2), Fraction(1, 16), Fraction(1, 72),
                     Fraction(11, 3072), Fraction(19, 19200)]


def _zero_sum_c(k, L=1000):
    # c_k = (2^k / k) sum_l j_l^(-2k) over the zeros of J0: L of scipy's
    # zeros, and past them j_l ~ b + 1/(8b) with b = (l - 1/4) pi, so
    # j^(-2k) ~ b^(-2k) - (k/4) b^(-2k-2), summed by Hurwitz zeta
    z = jn_zeros(0, L)
    tail = (hurwitz_zeta(2 * k, L + 0.75) / math.pi ** (2 * k)
            - k / 4 * hurwitz_zeta(2 * k + 2, L + 0.75) / math.pi ** (2 * k + 2))
    return 2.0 ** k / k * (math.fsum(z ** (-2.0 * k)) + tail)


def test_c1_recovered_from_zero_sum():
    assert sf._log_j0_coeffs(1)[0] == -1.0
    assert _zero_sum_c(1) == pytest.approx(0.5, rel=1e-14)


def test_c_coeffs_match_zero_sum():
    # the extended coefficients the series take against the zero-sum
    # definition of the family
    a = sf._log_j0_coeffs(30)
    for k in range(1, 31):
        assert float(-a[k - 1] / 2 ** k) == pytest.approx(_zero_sum_c(k),
                                                           rel=1e-14), k


def test_c6_inside_bracket():
    c6 = float(_c(6)[5])
    j1 = jn_zeros(0, 1)[0]
    lo = (1 / 6) * (2 / j1 ** 2) ** 6
    hi = lo * (1 + 1.16 * 0.19 ** 6)
    assert lo < c6 < hi


def test_c_ratio_decreases_to_limit():
    # c_k ~ (1/k)(2/j1^2)^k exponentially fast, so successive ratios
    # c_k/c_{k+1} = (k+1)/k * j1^2/2 * (1 + O(0.19^k)) fall monotonically
    # toward j1^2/2 from above
    ct = [float(c) for c in _c(25)]
    ratios = [ct[k] / ct[k + 1] for k in range(len(ct) - 1)]
    assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))
    j1 = jn_zeros(0, 1)[0]
    lim = j1 ** 2 / 2
    assert all(r > lim for r in ratios)
    assert ratios[-1] == pytest.approx(25.0 / 24.0 * lim, rel=1e-9)
    assert all(c > 0 for c in ct)


def test_coeff_table_immutable():
    # every caller shares one cached array
    a = sf._log_j0_coeffs(5)
    assert sf._log_j0_coeffs(5) is a
    with pytest.raises(ValueError):
        a[0] = 1.0


def test_log_j0_series_identity():
    # log J0(w) = sum a_k (w^2/4)^k inside the first zero; the tail
    # ratio is w^2/j1^2 so at w = 1.5 depth 25 leaves ~1e-12
    a = [float(x) for x in sf._log_j0_coeffs(25)]
    for w in (0.5, 1.0, 1.5):
        direct = math.log(scipy_j0(w))
        series = sum(a[k - 1] * (w * w / 4) ** k for k in range(1, 26))
        assert direct == pytest.approx(series, abs=1e-10)


def test_log_j0_exact_coefficients_match_c_family():
    # a_k of log J0(z) = sum a_k (z^2/4)^k are -2^k c_k: the first five
    # against their closed forms, and every one negative
    a = sf._log_j0_fracs(30)
    assert all(x < 0 for x in a)
    closed = (Fraction(1, 2), Fraction(1, 16), Fraction(1, 72),
              Fraction(11, 3072), Fraction(19, 19200))
    for k, c in enumerate(closed, start=1):
        assert a[k - 1] == -(2 ** k) * c


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
    # the 56 orders the far zone keeps drop at most 7e-29 per factor
    # at its edge q = _FAR_Z^2/4, where a far factor's drop is largest.
    # The ratio of consecutive terms, a_(k+1) q / a_k, rises with k
    # towards 4q/j1^2: a_k = -(4^k/k) sum_l j_l^(-2k), and the power-sum
    # ratio is a mean of the j_l^(-2) weighted by j_l^(-2k). So past the
    # exact window the rest is at most a geometric series with ratio r,
    # checked here against every ratio inside the window; r is the
    # _FAR_RATIO each row's drop bound divides by
    q = Fraction(tr._FAR_Z) ** 2 / 4
    n = 40
    a = sf._log_j0_fracs(tr._FAR_TERMS + n)
    ratios = [y / x for x, y in zip(a, a[1:])]
    assert all(x < y for x, y in zip(ratios, ratios[1:]))
    terms = [-a[k - 1] * q ** k
             for k in range(tr._FAR_TERMS + 1, tr._FAR_TERMS + n + 1)]
    # 2.4048 < j1, so r bounds the limit 4q/j1^2
    r = 4 * q / Fraction(24048, 10000) ** 2
    assert ratios[-1] * q < r < 1
    assert float(r) == pytest.approx(tr._FAR_RATIO, rel=1e-15)
    dropped = sum(terms) + terms[-1] * r / (1 - r)
    assert dropped <= Fraction(7, 10 ** 29)
    # the first dropped term over 1 - r, each row's bound, covers it
    assert dropped <= terms[0] / (1 - r)
    # 4.3e-29, and ten million far factors stay below 1e-21
    assert dropped < Fraction(44, 10 ** 30)
    assert dropped * 10 ** 7 < Fraction(1, 10 ** 21)


def test_log_i0_series_identity():
    # log I0(w) = sum a_k (-w^2/4)^k for |w| <= 1, against mpmath's log I0
    # at 30 digits
    import mpmath

    a = [float(x) for x in sf._log_j0_coeffs(25)]
    for w in (0.125, 0.5, 0.9, 1.0):
        with mpmath.workdps(30):
            direct = float(mpmath.log(mpmath.besseli(0, w)))
        series = sum(a[k - 1] * (-w * w / 4) ** k for k in range(1, 26))
        assert direct == pytest.approx(series, abs=1e-12)


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
