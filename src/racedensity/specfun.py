"""Special-function kernel shared by every computation route.

Pure functions only, on numpy alone. Three families matter downstream:

* J0, in extended precision over the whole real line, and its first two
  positive zeros, which set where the two-sided characteristic function
  of a single zero's contribution vanishes. Up to 32 it is a Taylor
  polynomial about the nearest of 278 centres, whose coefficients are
  built on first use from Bessel's equation at 40 digits; past 32 the
  Hankel form;
* log I0 and its derivatives through fifth order, over a float or a
  whole array of arguments from w = 1 up: the cumulant function's terms
  for the zeros it takes explicitly, every one with w above 1.4;
* the coefficients a_k of log J0(z) = sum_k a_k (z^2/4)^k, each rounded
  once from an exact rational, which give both routes' series over the
  other zeros: log J0 on the Fourier side and, with alternating signs,
  log I0(w) = sum_k a_k (-w^2/4)^k on the Laplace side.

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
    "ExtendedPrecisionError",
    "j0_lowbias",
    "log_i0_derivs",
    "base_constants",
]


# ---------------------------------------------------------------------------
# J0
# ---------------------------------------------------------------------------

class ExtendedPrecisionError(ArithmeticError):
    """numpy's long double is not x87's 80-bit format here."""


# read once per process, so that no solve pays for the check
_LONG_DOUBLE_NMANT = int(np.finfo(np.longdouble).nmant)


def _require_extended() -> None:
    if _LONG_DOUBLE_NMANT < 63:
        raise ExtendedPrecisionError(
            "the J0 kernel and the suffix sums need a long double with x87's "
            f"64-bit significand (nmant >= 63), not nmant = {_LONG_DOUBLE_NMANT}")


# the first two positive zeros of J0, each the double nearest the zero
J0_ZERO1 = 2.404825557695773
J0_ZERO2 = 5.520078110286311

# |z| <= _J0_NEAR_CUT takes a Taylor polynomial of degree 10 about the
# nearest of the centres c_k = 6k/52, k = 0..277, so |z - c_k| <= 3/52
# (see _j0_near_coeffs); past it the Hankel form below. The six
# published races reach z = 25.72 at their lattice stop (q13 square,
# under choose_params(v_max = 3) at cutoffs 4.352 to 2999; 25.42 under
# race_result, and 16.66 for mod 4, the largest in deep_cutoff), so
# the cut at 32 keeps every factor of their solves on the polynomials
_J0_NEAR_CUT = 32.0
# _J0_PIECES centres to each _J0_SPAN; the last centre is the nearest
# the cut
_J0_SPAN = 6.0
_J0_PIECES = 52
_J0_CENTRES = round(_J0_NEAR_CUT * _J0_PIECES / _J0_SPAN) + 1
_J0_DEGREE = 10
# the degree of the series that steps J0 and J1 from centre to centre
_J0_STEP_DEGREE = 18

# Past the cut J0(z) = sqrt(2/(pi z)) (P cos chi - Q sin chi) with
# chi = z - pi/4. P - 1 and z Q + 1/8 are polynomials in
# y = 2 cut^2/z^2 - 1, fitted on [cut, inf) as Chebyshev series against
# mpmath to 2e-18 absolute and stored in powers of y by
# scripts/fit_j0_tail.py; rows P - 1 and zQ + 1/8, the shorter
# zero-padded at the top. From z = 32 on, six and seven terms reach
# that tolerance, where z = 6 took 17 and 19
_J0_TAIL_SCALE = 2.0 * _J0_NEAR_CUT ** 2
_J0_TAIL = np.zeros((2, 7))
_J0_TAIL[0, :6] = (
    -3.430560255207278e-05, -3.4278995679921324e-05, 2.6541242081876686e-08,
    -6.529659820914787e-11, 3.3064708827129346e-13, -2.823139062471128e-15)
_J0_TAIL[1] = (
    3.5708839861305465e-05, 3.5655091264529764e-05, -5.355153102003736e-08,
    1.9573872072782335e-10, -1.3128885867722275e-12, 1.3933109697258357e-14,
    -2.1316902514526859e-16)
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
    fallback. For |z| <= 32 it evaluates the Taylor polynomial of
    degree 10 about the nearest of the centres 6k/52 (_j0_near), which
    gives exactly 1 at z = 0. Against mpmath at 1e5 long double
    arguments in [0, 32] its largest error is 5.4e-20 absolute and its
    mean 1.2e-22. Every factor of the published races' solves falls
    there. Past 32 it takes the Hankel form, with fitted polynomials for
    P and zQ (largest error 1.2e-18). Its phase chi = z - pi/4 is
    carried as the double nearest it plus a remainder, which corrects
    the double cos and sin of the first part to first order, and the
    O(1) part of the sum stays in 80 bits. Against mpmath on [32, 1e3]
    the tail's largest error is 7.4e-18 absolute and its mean 2.4e-20
    (cephes: 1.3e-15 and 1.5e-19).

    transforms.phat_prefix calls it for the near zone of each product
    only, the factors with z above zerodata._FAR_Z; the far zone goes
    through the log-J0 power series of _log_j0_coeffs instead.

    Returns extended precision so callers can keep multiplying without
    re-rounding every factor to double. Refuses with
    ExtendedPrecisionError where numpy's long double is not x87's.
    """
    _require_extended()
    zl = np.atleast_1d(np.asarray(z, dtype=np.longdouble))
    # the sign and the split are read off the double nearest z, a
    # fraction of the cost in 80 bits; a z within half a double ulp
    # above the cut therefore takes the polynomial about the last
    # centre, still to its full accuracy, and a NaN fails the test and
    # takes the tail
    zd = zl.astype(float)
    if (zd < 0.0).any():
        zl, zd = np.abs(zl), np.abs(zd)
    near = zd <= _J0_NEAR_CUT
    if near.all():
        return _j0_near(zl, zd)
    out = np.empty_like(zl)
    out[near] = _j0_near(zl[near], zd[near])
    far = ~near
    out[far] = _j0_tail(zl[far])
    return out


@lru_cache(maxsize=1)
def _j0_near_coeffs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the centres c_k = 6k/52 in extended precision; the Taylor
    # coefficients a_n = J0^(n)(c_k)/n! about each, row n for n = 0..10,
    # in extended precision; and rows a_3..a_10 again in double, for
    # the Horner steps that run in double. Each coefficient is worked
    # out at 40 digits about the centre's exact value and rounded once.
    # Bessel's equation of order 0 divided by z (DLMF 10.2.1),
    # (c + x) y'' + y' + (c + x) y = 0, gives term by term in x
    #   a_(n+2) = -((n+1)^2 a_(n+1) + c a_n + a_(n-1)) / (c (n+1)(n+2))
    # with a_0 = J0(c), a_1 = -J1(c) and a_(-1) = 0; at c = 0, where
    # a_0 = 1 and a_1 = 0, it is a_(n+2) = -a_n / (n+2)^2. The recurrence
    # grows rounding errors like (1/c)^n, under 1e10 at the smallest
    # nonzero centre, which 40 digits absorb. Each centre past 0 takes
    # a_0 and a_1 from the previous centre's series and its derivative
    # at the step h = 6/52, carried to degree _J0_STEP_DEGREE: as
    # |J0^(n)| <= 1, |a_n| <= 1/n!, and the terms past it move J0 by
    # under 2e-35 and J1 by under 3e-33 a step. An error in (J0, J1)
    # does not grow along Bessel's equation; over the 277 steps to the
    # last centre, J0 and J1 stay within 2.9e-32 of mpmath's at every
    # centre, twelve digits below the extended-precision rounding
    centres = (np.arange(_J0_CENTRES, dtype=np.longdouble)
               * _J0_SPAN / _J0_PIECES)
    digits = []
    with localcontext() as ctx:
        ctx.prec = 40
        for cl in centres:
            num, den = cl.as_integer_ratio()
            c = Decimal(num) / den
            if not c:
                a = [Decimal(1), Decimal(0)]
                for n in range(_J0_STEP_DEGREE - 1):
                    a.append(-a[n] / (n + 2) ** 2)
            else:
                h = c - prev
                j0 = dj0 = Decimal(0)
                for n in range(len(a) - 1, 0, -1):
                    j0 = j0 * h + a[n]
                    dj0 = dj0 * h + n * a[n]
                a = [j0 * h + a[0], dj0]
                inv = 1 / c
                for n in range(_J0_STEP_DEGREE - 1):
                    a.append(-((n + 1) ** 2 * a[n + 1] + c * a[n]
                               + (a[n - 1] if n else 0))
                             * inv / ((n + 1) * (n + 2)))
            digits.append([str(v) for v in a[:_J0_DEGREE + 1]])
            prev = c
    rows = np.ascontiguousarray(np.array(digits, dtype=np.longdouble).T)
    hi = rows[3:].astype(float)
    for arr in (centres, rows, hi):
        arr.setflags(write=False)
    return centres, rows, hi


def _j0_near(z: np.ndarray, zd: np.ndarray) -> np.ndarray:
    # z in extended precision, every value in [0, _J0_NEAR_CUT], and zd
    # the double nearest it. The offset x from the nearest centre is
    # exact (z and the centre lie within a factor 2 of each other), and
    # |x| <= 3/52, so the terms from a_3 x^3 on sum to under 3e-5 and
    # double carries them to 4e-21 absolute; the last three Horner steps
    # run in extended precision. Each step gathers its own coefficient
    # row by the centre index, which measured faster than gathering all
    # eleven at once
    centres, rows, hi = _j0_near_coeffs()
    idx = np.rint(zd * (_J0_PIECES / _J0_SPAN)).astype(np.intp)
    x = centres[idx]
    np.subtract(z, x, out=x)
    xd = x.astype(float)
    acc = hi[-1][idx]
    for row in hi[-2::-1]:
        acc *= xd
        acc += row[idx]
    acc = acc * x
    for row in rows[2:0:-1]:
        acc += row[idx]
        acc *= x
    acc += rows[0][idx]
    return acc


def _j0_tail(z: np.ndarray) -> np.ndarray:
    # z in extended precision, every value above _J0_NEAR_CUT
    zd = z.astype(float)
    p1, zq1 = _horner(_J0_TAIL, _J0_TAIL_SCALE / (zd * zd) - 1.0)
    # chi = s + lo: s the double difference, lo its exact rounding error
    # (zd > pi/4) plus the low parts of z and of pi/4, all far below an
    # ulp of s, so cos and sin of chi take lo to first order
    s = zd - _PI4_HI
    lo = (z - zd).astype(float) + ((zd - s) - _PI4_HI - _PI4_LO)
    cos_s, sin_s = np.cos(s), np.sin(s)
    sin_lo = sin_s * lo
    # P cos chi - Q sin chi = cos chi + (p1 cos chi + (-Q) sin chi): the
    # bracket is under 0.004 in size, so double carries it; only cos chi
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
# They are well conditioned only in a middle window. Below w = 1, g'''
# and up emerge from O(1/w) pieces that cancel, and log_i0_derivs
# refuses: l0_full sums every zero with w up to zerodata._FAR_Z = 1.4 by
# transforms._log_i0_series. For large w the recurrences degrade:
# g'' ~ 1/(2w^2) emerges from the cancellation 1 - r^2 - r/w of O(1)
# pieces once r hugs 1, and each further order repeats the game, so the
# relative error of g^(m) grows roughly like w^m * eps. The asymptotic
# series (divergent, optimally truncated) behaves oppositely: its error
# falls rapidly with w. At w = 18 both give m = 5 to about 1e-9 relative
# (measured against mpmath: at most 5e-10 from the recurrences just
# below, 1.2e-9 from the series at 18), which fixes the upper switch
# point.

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


@lru_cache(maxsize=None)
def _log_j0_fracs(n: int) -> tuple[Fraction, ...]:
    """a_1..a_n of log J0(z) = sum_k a_k (z^2/4)^k, exact (|z| < j1).

    They come from the ascending series J0 = sum_m (-1)^m (z^2/4)^m / (m!)^2;
    every a_k is negative. log I0(w) = sum_k a_k (-w^2/4)^k shares them.
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


@lru_cache(maxsize=None)
def _even_derivs(n: int) -> tuple[np.ndarray, np.ndarray]:
    # row m, column k - 1 for k = 1..n: the m-th derivative of
    # (-1)^(k-1) x^(2k) is falling[m, k-1] x^powers[m, k-1], with
    # (2k)!/(2k-m)! zero where 2k < m (and that power clipped to 0). Every
    # entry is an integer below 2^53, so exact; read-only, as every even
    # series of the package shares it
    falling = np.array([[(-1) ** (k - 1) * math.perm(2 * k, m)
                         for k in range(1, n + 1)]
                        for m in range(6)], dtype=float)
    powers = np.maximum(2 * np.arange(1, n + 1) - np.arange(6)[:, None], 0)
    for a in (falling, powers):
        a.setflags(write=False)
    return falling, powers


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


def _derivs_ratio(w: np.ndarray) -> np.ndarray:
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
    return np.array([np.log1p(i0m1), r, g2, g3, g4, g5])


def _derivs_asymptotic(w: np.ndarray) -> np.ndarray:
    x = 1.0 / w
    # the m-th derivatives of the leading part w - log(2 pi w)/2
    lead = [w - 0.5 * np.log(2.0 * math.pi * w), 1.0 - 0.5 * x] + [
        0.5 * (-1) ** m * math.factorial(m - 1) * x ** m for m in range(2, 6)]
    tails = _horner(_asymptotic_coeffs(), x)
    return np.array([lead[m] + x ** (m + 1) * tails[m] for m in range(6)])


def log_i0_derivs(w) -> list[float] | np.ndarray:
    """d^m/dw^m log I0(w) for m = 0..5.

    w is a float or a 1-D array, every value finite and >= 1; a smaller
    one raises ValueError, as transforms._log_i0_series sums log I0 below
    the split. A float gives a list of 6 floats; an array of n values
    gives an array of shape (6, n) whose row m is the m-th derivative. A
    float and the same value inside an array give identical numbers.
    Safe for w up to ~1e6 and beyond: past w = 18 only the ratio I1/I0
    and log I0 itself appear, never I0 or I1.
    """
    x = np.asarray(w, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if x.ndim != 1:
        raise ValueError(
            f"log_i0_derivs takes a float or a 1-D array, got shape {x.shape}")
    bad = ~(np.isfinite(x) & (x >= _ODE_LO))
    if bad.any():
        raise ValueError(
            f"log_i0_derivs needs finite w >= {_ODE_LO:g}, got "
            f"{float(x[bad][0])!r}; smaller arguments are summed by "
            "transforms._log_i0_series")
    out = np.empty((6, x.size))
    hi = x >= _ODE_HI
    for sel, regime in ((~hi, _derivs_ratio), (hi, _derivs_asymptotic)):
        if sel.any():
            out[:, sel] = regime(x[sel])
    return out[:, 0].tolist() if scalar else out


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
