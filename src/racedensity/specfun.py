"""Special-function kernel shared by every computation route.

Pure functions only, on numpy alone. Three families matter downstream:

* J0, in extended precision over the whole real line, and its first two
  positive zeros, which set where the two-sided characteristic function
  of a single zero's contribution vanishes;
* log I0 and its derivatives through fifth order, over a float or a
  whole array of arguments, which drive the cumulant function;
* the coefficients c_k of log I0(w) = sum_{k>=1} (-1)^{k-1} c_k w^{2k} / 2^k,
  shared between the Fourier remainder and the density expansions, each
  rounded once from an exact rational.

I0 and I1 themselves overflow near w = 713: the kernel works with log I0
and the ratio I1/I0, and forms the series of I0 and I1 only below
w = 18, where they stay under 1e7. The base constants A0 and A1, two
fixed integrals of log I0, are stored as numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "BaseConstants",
    "j0_lowbias",
    "log_i0_derivs",
    "c_coeffs",
    "arctan_integral",
    "base_constants",
]


# ---------------------------------------------------------------------------
# J0
# ---------------------------------------------------------------------------

# the first two positive zeros of J0, each the double nearest the zero
J0_ZERO1 = 2.404825557695773
J0_ZERO2 = 5.520078110286311

# Ascending-series coefficients (-1)^n / (n!)^2 in extended precision.
# 27 terms leave the cutover argument (q = 9) with a relative remainder
# below 1e-21, far under the extended-precision ulp of the result.
_J0_SERIES_CUT = 6.0
_J0_COEFFS = np.ones(27, dtype=np.longdouble)
for _n in range(1, 27):
    _J0_COEFFS[_n] = -_J0_COEFFS[_n - 1] / np.longdouble(_n * _n)
del _n

# Past the cutover J0(z) = sqrt(2/(pi z)) (P cos chi - Q sin chi) with
# chi = z - pi/4. P - 1 and z Q + 1/8 are polynomials in y = 72/z^2 - 1,
# fitted as Chebyshev series against mpmath to 2e-18 absolute and stored
# in powers of y by scripts/fit_j0_tail.py; rows P - 1 and zQ + 1/8, the
# shorter zero-padded at the top.
_J0_TAIL = np.zeros((2, 19))
_J0_TAIL[0, :17] = (
    -0.0009562782475594555, -0.0009371922699207918, 1.801462057593961e-05,
    -9.64007018091677e-07, 9.16995319304267e-08, -1.2683259845092585e-08,
    2.284051994422095e-09, -5.006101471246117e-10, 1.2774187349591975e-10,
    -3.648637801573743e-11, 1.1475139795926316e-11, -4.502188177190623e-12,
    1.814268718946277e-12, -1.3227502316580562e-13, -3.963959151107006e-14,
    -3.1286868105045177e-13, 1.6536109866084696e-13)
_J0_TAIL[1] = (
    0.0009773662668481934, 0.0009408434207776135, -3.361025567239429e-05,
    2.5441146427159604e-06, -3.0484939137770443e-07, 4.988661781092704e-08,
    -1.0228708858280206e-08, 2.4877639605130347e-09, -6.917016086642071e-10,
    2.1496995238048484e-10, -7.31547925288768e-11, 2.4944850483863288e-11,
    -9.0522285380615e-12, 6.384602605880932e-12, -3.408166265579127e-12,
    -8.946915932769674e-13, 7.768613942417971e-13, 8.330611788699921e-13,
    -4.957507961980704e-13)
# pi/4 as the double nearest it plus the rest, and 2/pi in extended
# precision
_PI4_HI = math.pi / 4.0
_PI4_LO = 3.061616997868383e-17
_TWO_OVER_PI = np.longdouble("0.63661977236758134307553505349005744813784")


def j0_lowbias(z) -> np.ndarray:
    """J0 over an array, with per-value bias far below an ulp.

    A product of hundreds of kernel factors turns a harmless pointwise
    bias into a one-sided relative drift proportional to the product
    length; the cephes routine, for one, sits a few 1e-17 low on
    average. So the whole kernel is extended precision, with no library
    fallback. For |z| <= 6 it evaluates the ascending series by Horner
    in 80-bit arithmetic, which is unbiased at the 1e-18 level. Past 6
    it takes the Hankel form, with fitted polynomials for P and zQ
    (largest error 2e-18). Its phase chi = z - pi/4 is carried as the
    double nearest it plus a remainder, which corrects the double cos
    and sin of the first part to first order, and the O(1) part of the
    sum stays in 80 bits. Against mpmath on [6, 1e3] the tail's largest
    error is 1.8e-17 absolute and its mean 1e-19 (cephes: 1.3e-15 and
    5e-18).

    transforms.phat_prefix calls it for the near zone of each product
    only, the factors with z above transforms._FAR_Z; the far zone goes
    through the log-J0 power series of _log_j0_coeffs instead.

    Returns extended precision so callers can keep multiplying without
    re-rounding every factor to double.
    """
    zl = np.atleast_1d(np.asarray(z, dtype=np.longdouble))
    # q = z^2/4; scaling by 0.25 is exact, so it can come last, in place
    q = zl * zl
    q *= 0.25
    big = q > 0.25 * _J0_SERIES_CUT ** 2
    if not big.any():
        return _j0_series(q)
    q[big] = 0.0
    out = _j0_series(q)
    out[big] = _j0_tail(np.abs(zl[big]))
    return out


def _j0_series(q: np.ndarray) -> np.ndarray:
    # sum_n (-1)^n q^n / (n!)^2 by Horner, in place as in _horner
    acc = np.full_like(q, _J0_COEFFS[-1])
    for c in _J0_COEFFS[-2::-1]:
        acc *= q
        acc += c
    return acc


def _j0_tail(z: np.ndarray) -> np.ndarray:
    # z in extended precision, every value above 6
    zd = z.astype(float)
    p1, zq1 = _horner(_J0_TAIL, 72.0 / (zd * zd) - 1.0)
    # chi = s + lo: s the double difference, lo its exact rounding error
    # (zd > pi/4) plus the low parts of z and of pi/4, all far below an
    # ulp of s, so cos and sin of chi take lo to first order
    s = zd - _PI4_HI
    lo = (z - zd).astype(float) + ((zd - s) - _PI4_HI - _PI4_LO)
    cos_s, sin_s = np.cos(s), np.sin(s)
    sin_lo = sin_s * lo
    # P cos chi - Q sin chi = cos chi + (p1 cos chi + (-Q) sin chi): the
    # bracket is under 0.021 in size, so double carries it; only cos chi
    # and the sums need extended precision
    bracket = (p1 * (cos_s - sin_lo)
               + (0.125 - zq1) / zd * (sin_s + cos_s * lo))
    return np.sqrt(_TWO_OVER_PI / z) * (
        np.subtract(cos_s, sin_lo, dtype=np.longdouble) + bracket)


# ---------------------------------------------------------------------------
# log I0 and its derivatives
# ---------------------------------------------------------------------------

# --- derivatives of g(w) = log I0(w) through order 5 ----------------------
#
# With r = I1/I0 = g', the recurrences below follow from I0' = I1 and
# I1' = I0 - I1/w:
#
#   g''    = 1 - r^2 - r/w
#   g'''   = -(2r + 1/w) g''  + r/w^2
#   g''''  = -2 g''^2 + 2 g''/w^2 - (2r + 1/w) g'''  - 2r/w^3
#   g''''' = -6 g'' g''' + 3 g'''/w^2 - 6 g''/w^3 - (2r + 1/w) g'''' + 6r/w^4
#
# They are well conditioned only in a middle window. For w <= 1 we
# differentiate the c_k series term by term instead. For large w the
# recurrences degrade: g'' ~ 1/(2w^2) emerges from the cancellation
# 1 - r^2 - r/w of O(1) pieces once r hugs 1, and each further order
# repeats the game, so the relative error of g^(m) grows roughly like
# w^m * eps. The asymptotic series (divergent, optimally truncated)
# behaves oppositely: its error falls rapidly with w. At w = 18 both
# give m = 5 to about 1e-9 relative (measured against mpmath: at most
# 5e-10 from the recurrences just below, 1.2e-9 from the series at 18),
# which fixes the upper switch point.

_ODE_LO = 1.0
_ODE_HI = 18.0


def _log_series(num: list[int], p: int, r: int) -> tuple[Fraction, ...]:
    # f_1..f_n of log(1 + sum_{n>=1} b_n x^n) with b_n = num[n] / (n!^p r^n),
    # as exact rationals. With f_n = G_n / (n n!^p r^n), the recurrence
    # n f_n = n b_n - sum_{j<n} j f_j b_(n-j) keeps G in the integers:
    # G_n = n num[n] - sum_j C(n, j)^p num[n-j] G_j
    g = [0] * len(num)
    for n in range(1, len(num)):
        g[n] = n * num[n] - sum(math.comb(n, j) ** p * num[n - j] * g[j]
                                for j in range(1, n))
    return tuple(Fraction(g[n], n * math.factorial(n) ** p * r ** n)
                 for n in range(1, len(num)))


@lru_cache(maxsize=1)
def _log_coeff_fracs() -> tuple[Fraction, ...]:
    # f_k of log(1 + sum b_n x^n) where b_n = ((2n-1)!!)^2 / (n! 8^n) are
    # the coefficients of the I0 asymptotic bracket; exact rationals so the
    # large-w derivatives carry no composition error. Depth 24 is past the
    # optimal truncation point for w >= 20 and still shrinking at w = 18,
    # which is what lets _ODE_HI sit as low as 18.
    num = [1]
    for n in range(1, 25):
        num.append(num[-1] * (2 * n - 1) ** 2)
    return _log_series(num, 1, 8)


# the depth of the c_k family: c_coeffs slices one cached set of exact
# a_k this long
_C_TERMS = 30


@lru_cache(maxsize=None)
def _log_j0_fracs(n: int) -> tuple[Fraction, ...]:
    """a_1..a_n of log J0(z) = sum_k a_k (z^2/4)^k, exact (|z| < j1).

    They come from the ascending series J0 = sum_m (-1)^m (z^2/4)^m / (m!)^2
    and equal -2^k c_k of the log-I0 family; every a_k is negative.
    """
    return _log_series([(-1) ** m for m in range(n + 1)], 2, 1)


@lru_cache(maxsize=None)
def _log_j0_coeffs(n: int) -> np.ndarray:
    # a_1..a_n of _log_j0_fracs in extended precision, each rounded from
    # 40 significant digits of its exact value; read-only, as every
    # caller shares it
    with localcontext() as ctx:
        ctx.prec = 40
        out = np.array([np.longdouble(str(Decimal(a.numerator) / a.denominator))
                        for a in _log_j0_fracs(n)])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=1)
def _asymptotic_coeffs() -> np.ndarray:
    # row m: the coefficients of x^k (x = 1/w) in x^-(m+1) times the m-th
    # w-derivative of sum_k f_k x^(k+1), that is (-1)^m (k+1)...(k+m) f_k,
    # each rounded once from its exact rational
    return np.array([[float((-1) ** m * math.perm(k + m, m) * f)
                      for k, f in enumerate(_log_coeff_fracs())]
                     for m in range(6)])


@lru_cache(maxsize=1)
def _series_coeffs() -> tuple[np.ndarray, np.ndarray]:
    # per order m: the lowest surviving power p0 of w, and the coefficients
    # of (w^2)^j above it, in the m-th derivative of
    # sum_{k<=25} (-1)^(k-1) c_k w^(2k) / 2^k; rows zero-padded at the top
    c = c_coeffs(25)
    p0 = np.empty(6, dtype=int)
    rows = np.zeros((6, 25))
    for m in range(6):
        kmin = max(1, (m + 1) // 2)
        p0[m] = 2 * kmin - m
        rows[m, :26 - kmin] = [
            (-1) ** (k - 1) * c[k - 1] * 0.5 ** k * math.perm(2 * k, m)
            for k in range(kmin, 26)]
    return p0, rows


# I0(w) - 1 = q sum_k q^k / ((k+1)!)^2 and I1(w) = (w/2) sum_k q^k / (k! (k+1)!)
# with q = w^2/4, each coefficient rounded once; 40 terms cover w = 18
# with room to spare (_ratio_terms picks how many an array needs)
_RATIO_COEFFS = np.array([
    [1 / math.factorial(k + 1) ** 2 for k in range(40)],
    [1 / (math.factorial(k) * math.factorial(k + 1)) for k in range(40)]])


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    # every row of coeffs (lowest power first) at every x: shape (rows, n).
    # In place: the same roundings as acc * x + c, without a fresh
    # temporary per step, which past about 128 kB costs a page-faulting
    # allocation each (a (6, 15000) Horner ran 8x slower with them)
    acc = np.repeat(coeffs[:, -1:], x.size, axis=1)
    for c in coeffs[:, -2::-1].T:
        acc *= x
        acc += c[:, None]
    return acc


def _derivs_series(w: np.ndarray, max_order: int) -> np.ndarray:
    p0, coeffs = _series_coeffs()
    ww = w * w
    lead = np.array([np.ones_like(w), w, ww])[p0[: max_order + 1]]
    return lead * _horner(coeffs[: max_order + 1], ww)


def _ratio_terms(w_max: float) -> int:
    # terms of _RATIO_COEFFS that carry the sums at w_max to well below
    # an ulp: every term is positive and past k ~ w/2 each is smaller
    # than the one before, so stop where a term falls under 2^-60 of
    # the sum so far
    q = 0.25 * w_max * w_max
    term = total = 1.0
    k = 0
    while term > 2.0 ** -60 * total:
        k += 1
        term *= q / (k * k)
        total += term
    return k + 1


def _derivs_ratio(w: np.ndarray, max_order: int) -> np.ndarray:
    # r = I1/I0 and log I0 from the positive ascending series: no
    # cancellation, and below w = 18 no overflow either
    q = 0.25 * w * w
    s = _horner(_RATIO_COEFFS[:, : _ratio_terms(float(w.max()))], q)
    i0m1 = q * s[0]
    r = 0.5 * w * s[1] / (1.0 + i0m1)
    iw = 1.0 / w
    g2 = 1.0 - r * r - r * iw
    g3 = -(2.0 * r + iw) * g2 + r * iw * iw
    g4 = (-2.0 * g2 * g2 + 2.0 * g2 * iw * iw
          - (2.0 * r + iw) * g3 - 2.0 * r * iw ** 3)
    g5 = (-6.0 * g2 * g3 + 3.0 * g3 * iw * iw - 6.0 * g2 * iw ** 3
          - (2.0 * r + iw) * g4 + 6.0 * r * iw ** 4)
    return np.array([np.log1p(i0m1), r, g2, g3, g4, g5][: max_order + 1])


def _derivs_asymptotic(w: np.ndarray, max_order: int) -> np.ndarray:
    x = 1.0 / w
    tails = _horner(_asymptotic_coeffs()[: max_order + 1], x)
    rows = []
    for m in range(max_order + 1):
        # the m-th derivative of the leading part w - log(2 pi w)/2
        if m == 0:
            lead = w - 0.5 * np.log(2.0 * math.pi * w)
        elif m == 1:
            lead = 1.0 - 0.5 * x
        else:
            lead = 0.5 * (-1) ** m * math.factorial(m - 1) * x ** m
        rows.append(lead + x ** (m + 1) * tails[m])
    return np.array(rows)


def log_i0_derivs(w, max_order: int = 5) -> list[float] | np.ndarray:
    """d^m/dw^m log I0(w) for m = 0..max_order (max_order <= 5).

    w is a float or a 1-D array, every value finite and >= 0. A float
    gives a list of max_order + 1 floats; an array of n values gives an
    array of shape (max_order + 1, n) whose row m is the m-th
    derivative. A float and the same value inside an array give
    identical numbers. Safe for w up to ~1e6 and beyond: past w = 18
    only the ratio I1/I0 and log I0 itself appear, never I0 or I1.
    """
    if not isinstance(max_order, int) or not 0 <= max_order <= 5:
        raise ValueError(f"max_order must be an integer in 0..5, got {max_order!r}")
    x = np.asarray(w, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if x.ndim != 1:
        raise ValueError(
            f"log_i0_derivs takes a float or a 1-D array, got shape {x.shape}")
    bad = ~(np.isfinite(x) & (x >= 0.0))
    if bad.any():
        raise ValueError(f"log_i0_derivs needs finite w >= 0, got {float(x[bad][0])!r}")
    out = np.empty((max_order + 1, x.size))
    lo = x <= _ODE_LO
    hi = x >= _ODE_HI
    for sel, regime in ((lo, _derivs_series), (~(lo | hi), _derivs_ratio),
                        (hi, _derivs_asymptotic)):
        if sel.any():
            out[:, sel] = regime(x[sel], max_order)
    return out[:, 0].tolist() if scalar else out


# ---------------------------------------------------------------------------
# the c_k coefficient family
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _c_all() -> tuple[float, ...]:
    return tuple(float(-a / 2 ** k)
                 for k, a in enumerate(_log_j0_fracs(_C_TERMS), start=1))


@lru_cache(maxsize=None)
def c_coeffs(K: int) -> tuple[float, ...]:
    """c_1..c_K, each the double nearest c_k = -a_k / 2^k.

    The a_k are the exact rationals of _log_j0_fracs. They also equal
    (2^k / k) sum_l j_l^(-2k) over the zeros j_l of J0, the form the
    tests check them against.
    """
    if not isinstance(K, int) or not 1 <= K <= _C_TERMS:
        raise ValueError(f"K must be an integer in 1..{_C_TERMS}, got {K!r}")
    return _c_all()[:K]


# ---------------------------------------------------------------------------
# the inverse-tangent integral on [0, 1]
# ---------------------------------------------------------------------------

def arctan_integral(x: float) -> float:
    """int_0^x arctan(w)/w dw = sum_k (-1)^k x^(2k+1) / (2k+1)^2, 0 <= x <= 1.

    Plain alternating summation is hopeless near x = 1 (the error after n
    terms is ~1/4n^2, so 1e-14 would need ~5e6 terms), so above x = 0.9 we
    switch to the Chebyshev-weighted acceleration of Cohen, Rodriguez
    Villegas and Zagier, which contracts like (3 + sqrt(8))^(-n) for series
    whose terms are moments of a positive measure, as these are.
    """
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"arctan_integral defined on [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x <= 0.9:
        s = 0.0
        xx = x * x
        p = x
        k = 0
        while True:
            t = p / (2 * k + 1) ** 2
            s += -t if k % 2 else t
            # <= not <: for subnormal x both t and 1e-17*s underflow to 0.0
            # and a strict test would spin forever
            if t <= 1e-17 * abs(s) and k > 2:
                return s
            p *= xx
            k += 1
    # acceleration: n = 36 puts the contraction factor near 1e-28, far below
    # double rounding, and costs nothing.
    n = 36
    d = (3.0 + math.sqrt(8.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    s = 0.0
    xx = x * x
    p = x
    for k in range(n):
        c = b - c
        s += c * p / (2 * k + 1) ** 2
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
        p *= xx
    return s / d


# ---------------------------------------------------------------------------
# the two base integrals and their conductor-dependent combinations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseConstants:
    A0: float
    A1: float
    A: float
    X: float


# A0 = 1 + int_0^1 log I0(x)/x^2 dx + int_1^inf h(x)/x^2 dx - (log 2pi + 1)/2
# A1 = int_0^1 log x log I0(x)/x^2 dx + int_1^inf log x h(x)/x^2 dx
#      - (log 2pi + 2)/2
# with h(x) = log I0(x) - x + log(2 pi x)/2: the base integrals of log I0
# with the large-x asymptote taken out. Each is the double nearest its
# value by mpmath quadrature at 40 digits (-0.0893265223435510001907...
# and -2.12633596439189918380...), which the tests recompute.
_A0 = -0.089326522343551
_A1 = -2.1263359643918993


def base_constants(qstar: int) -> BaseConstants:
    """A0, A1 and their conductor combinations A and X.

    A0 and A1 are fixed integrals of log I0; A shifts A0 by log(q*/pi),
    and X collects the cross terms that the large-deviation model needs.
    """
    if not isinstance(qstar, int) or qstar < 1:
        raise ValueError(f"qstar must be a positive integer, got {qstar!r}")
    lq = math.log(qstar / math.pi)
    l2 = math.log(2.0)
    x = ((l2 + _A0) * lq - 0.5 * l2 * l2 - 1.0 + _A0 - _A1) / math.pi
    return BaseConstants(A0=_A0, A1=_A1, A=_A0 + lq, X=x)
