"""Special-function kernel shared by every computation route.

Pure functions only. Three families matter downstream:

* J0 and its positive zeros, which set where the two-sided characteristic
  function of a single zero's contribution vanishes;
* log I0 and its derivatives through fifth order, over a float or a
  whole array of arguments, which drive the cumulant function;
* the coefficients c_k of log I0(w) = sum_{k>=1} (-1)^{k-1} c_k w^{2k} / 2^k,
  shared between the Fourier remainder and the density expansions.

I0 and I1 themselves overflow near w = 713 and never appear: the kernel
works with log I0 and the ratio I1/I0 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import i0e, i1e, j0 as _sp_j0, j1 as _sp_j1

__all__ = [
    "CoeffTable",
    "BaseConstants",
    "j0_lowbias",
    "log_i0_derivs",
    "c_coeffs",
    "j0_zeros",
    "arctan_integral",
    "base_constants",
]


# ---------------------------------------------------------------------------
# J0 and its zeros
# ---------------------------------------------------------------------------

# Ascending-series coefficients (-1)^n / (n!)^2 in extended precision.
# 27 terms leave the cutover argument (q = 9) with a relative remainder
# below 1e-21, far under the extended-precision ulp of the result.
_J0_SERIES_CUT = 6.0
_J0_COEFFS = np.ones(27, dtype=np.longdouble)
for _n in range(1, 27):
    _J0_COEFFS[_n] = -_J0_COEFFS[_n - 1] / np.longdouble(_n * _n)
del _n


def j0_lowbias(z) -> np.ndarray:
    """J0 over an array, with per-value bias far below an ulp.

    The cephes routine is accurate to a few ulp pointwise but sits a few
    1e-17 low on average; a product of hundreds of kernel factors turns
    that harmless pointwise bias into a one-sided relative drift
    proportional to the product length. For |z| <= 6 this evaluates the
    ascending series by Horner in 80-bit arithmetic instead, which is
    unbiased at the 1e-18 level; larger arguments (only reached by
    lattice terms that are negligible anyway) fall back to cephes.

    transforms.phat_prefix calls it for the near zone of each product
    only, the factors with z above 0.7; the far zone goes through the
    log-J0 power series of _log_j0_coeffs instead.

    Returns extended precision so callers can keep multiplying without
    re-rounding every factor to double.
    """
    zl = np.atleast_1d(np.asarray(z, dtype=np.longdouble))
    small = np.abs(zl) <= _J0_SERIES_CUT
    q = 0.25 * zl * zl
    acc = np.full_like(q, _J0_COEFFS[-1])
    for c in _J0_COEFFS[-2::-1]:
        acc = acc * q + c
    if bool(np.all(small)):
        return acc
    out = np.where(small, acc, 0.0)
    out[~small] = _sp_j0(zl[~small].astype(float))
    return out


def j0_zeros(L: int) -> list[float]:
    """First L positive zeros of J0, each to about 1e-13 absolute.

    Seed with the large-index asymptotic form b + 1/(8b), b = (l - 1/4)pi,
    then polish by Newton using J0' = -J1. The seed is within ~6e-3 of the
    true zero even at l = 1 and the gaps approach pi from below, so four
    Newton steps converge and cannot jump to a neighbouring zero.
    """
    if L < 1:
        raise ValueError("need at least one zero")
    out = []
    for l in range(1, L + 1):
        b = (l - 0.25) * math.pi
        x = b + 1.0 / (8.0 * b)
        for _ in range(4):
            f = _sp_j0(x)
            fp = -_sp_j1(x)
            x -= f / fp
        out.append(float(x))
    return out


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


def _log_series(b: list[Fraction]) -> tuple[Fraction, ...]:
    # f_1..f_n of log(1 + sum_{n>=1} b_n x^n), given b_0 = 1, b_1..b_n,
    # as exact rationals
    nmax = len(b) - 1
    f = [Fraction(0)] * (nmax + 1)
    for n in range(1, nmax + 1):
        acc = b[n]
        for jj in range(1, n):
            acc -= Fraction(jj, n) * f[jj] * b[n - jj]
        f[n] = acc
    return tuple(f[1:])


@lru_cache(maxsize=1)
def _log_coeff_fracs() -> tuple[Fraction, ...]:
    # f_k of log(1 + sum b_n x^n) where b_n = ((2n-1)!!)^2 / (n! 8^n) are
    # the coefficients of the I0 asymptotic bracket; exact rationals so the
    # large-w derivatives carry no composition error. Depth 24 is past the
    # optimal truncation point for w >= 20 and still shrinking at w = 18,
    # which is what lets _ODE_HI sit as low as 18.
    nmax = 24
    b = [Fraction(1)]
    for n in range(1, nmax + 1):
        b.append(b[-1] * Fraction((2 * n - 1) ** 2, 8 * n))
    return _log_series(b)


@lru_cache(maxsize=None)
def _log_j0_fracs(n: int) -> tuple[Fraction, ...]:
    """a_1..a_n of log J0(z) = sum_k a_k (z^2/4)^k, exact (|z| < j1).

    They come from the ascending series J0 = sum_m (-1)^m (z^2/4)^m / (m!)^2
    and equal -2^k c_k of the log-I0 family; every a_k is negative.
    """
    b = [Fraction((-1) ** m, math.factorial(m) ** 2) for m in range(n + 1)]
    return _log_series(b)


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
def _series_coeffs() -> tuple[tuple[int, np.ndarray], ...]:
    # per order m: the lowest surviving power p0 of w, and the coefficients
    # of (w^2)^j above it, in the m-th derivative of
    # sum_{k<=25} (-1)^(k-1) c_k w^(2k) / 2^k
    c = c_coeffs(25).c
    rows = []
    for m in range(6):
        kmin = max(1, (m + 1) // 2)
        rows.append((2 * kmin - m, np.array([
            (-1) ** (k - 1) * c[k - 1] * 0.5 ** k * math.perm(2 * k, m)
            for k in range(kmin, 26)])))
    return tuple(rows)


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    acc = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def _derivs_series(w: np.ndarray, max_order: int) -> np.ndarray:
    ww = w * w
    return np.array([w ** p0 * _horner(coeffs, ww)
                     for p0, coeffs in _series_coeffs()[: max_order + 1]])


def _derivs_ratio(w: np.ndarray, max_order: int) -> np.ndarray:
    # the exponentially scaled pair gives r = I1/I0 and log I0 without
    # ever forming I0 or I1
    e0 = i0e(w)
    r = i1e(w) / e0
    iw = 1.0 / w
    g2 = 1.0 - r * r - r * iw
    g3 = -(2.0 * r + iw) * g2 + r * iw * iw
    g4 = (-2.0 * g2 * g2 + 2.0 * g2 * iw * iw
          - (2.0 * r + iw) * g3 - 2.0 * r * iw ** 3)
    g5 = (-6.0 * g2 * g3 + 3.0 * g3 * iw * iw - 6.0 * g2 * iw ** 3
          - (2.0 * r + iw) * g4 + 6.0 * r * iw ** 4)
    return np.array([np.log(e0) + w, r, g2, g3, g4, g5][: max_order + 1])


def _derivs_asymptotic(w: np.ndarray, max_order: int) -> np.ndarray:
    x = 1.0 / w
    coeffs = _asymptotic_coeffs()
    rows = []
    for m in range(max_order + 1):
        # the m-th derivative of the leading part w - log(2 pi w)/2
        if m == 0:
            lead = w - 0.5 * np.log(2.0 * math.pi * w)
        elif m == 1:
            lead = 1.0 - 0.5 * x
        else:
            lead = 0.5 * (-1) ** m * math.factorial(m - 1) * x ** m
        rows.append(lead + x ** (m + 1) * _horner(coeffs[m], x))
    return np.array(rows)


def log_i0_derivs(w, max_order: int = 5) -> list[float] | np.ndarray:
    """d^m/dw^m log I0(w) for m = 0..max_order (max_order <= 5).

    w is a float or a 1-D array, every value finite and >= 0. A float
    gives a list of max_order + 1 floats; an array of n values gives an
    array of shape (max_order + 1, n) whose row m is the m-th
    derivative. A float and the same value inside an array give
    identical numbers. Safe for w up to ~1e6 and beyond: only the ratio
    I1/I0 and log I0 itself ever appear, never I0 or I1 bare.
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

@dataclass(frozen=True)
class CoeffTable:
    """Coefficients c_1..c_K of the log-Bessel expansions together with the
    J0 zeros j_1..j_L used to build the tail of the family."""
    c: tuple[float, ...]
    j: tuple[float, ...]
    K: int
    L: int


# k <= 5 have exact closed forms; evaluating these instead of the zero sum
# avoids the slow convergence the sum has at small k.
_C_EXACT = (
    Fraction(1, 2),
    Fraction(1, 16),
    Fraction(1, 72),
    Fraction(11, 3072),
    Fraction(19, 19200),
)


@lru_cache(maxsize=None)
def c_coeffs(K: int) -> CoeffTable:
    """c_1..c_K with c_k = (2^k / k) sum_l j_l^(-2k) for k > 5.

    The zero sum is truncated once a term contributes relatively less than
    1e-18; at k = 6 that happens after ~24 zeros and sooner for larger k.
    """
    if not isinstance(K, int) or not 1 <= K <= 30:
        raise ValueError(f"K must be an integer in 1..30, got {K!r}")
    L = 40
    jz = j0_zeros(L)
    cs = []
    for k in range(1, K + 1):
        if k <= 5:
            cs.append(float(_C_EXACT[k - 1]))
            continue
        s = 0.0
        for jl in jz:
            t = jl ** (-2 * k)
            s += t
            if t < 1e-18 * s:
                break
        else:
            raise ValueError(f"zero list exhausted before convergence at k={k}")
        cs.append(2.0 ** k / k * s)
    return CoeffTable(c=tuple(cs), j=tuple(jz), K=K, L=L)


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


@lru_cache(maxsize=1)
def _a0_a1() -> tuple[float, float]:
    from scipy.integrate import quad

    def near(x: float) -> float:
        # log I0(x)/x^2 -> 1/4 as x -> 0; evaluate the limit branch to keep
        # the quadrature smooth near the left endpoint
        return log_i0_derivs(x, 0)[0] / (x * x) if x > 1e-8 else 0.25

    # On (1, inf) subtract the exact asymptote first: with
    # h(x) = log I0(x) - x + (1/2) log(2 pi x), which decays like 1/(8x),
    #   int (log I0 - x)/x^2        = -(log 2pi + 1)/2 + int h/x^2
    #   int log x (log I0 - x)/x^2  = -(log 2pi + 2)/2 + int log x h/x^2
    # using int_1^inf x^-2 = 1, int log x x^-2 = 1, int (log x)^2 x^-2 = 2.
    # Leaving the log-growing asymptote in makes the adaptive extrapolation
    # struggle at the 1e-13 tolerances we ask for.
    def far(x: float) -> float:
        return (log_i0_derivs(x, 0)[0] - x
                + 0.5 * math.log(2.0 * math.pi * x)) / (x * x)

    l2pi = math.log(2.0 * math.pi)
    pieces = []
    # the log x weight on (0, 1) goes through the QAWS rule, which treats
    # the endpoint singularity exactly instead of by extrapolation; the
    # unweighted tail pieces split at the ratio/asymptotic switch so its
    # representation jump never lands inside a panel
    for g, segs, wgt in (
        (near, ((0.0, 1.0),), None),
        (far, ((1.0, _ODE_HI), (_ODE_HI, math.inf)), None),
        (near, ((0.0, 1.0),), "log"),
        (lambda x: far(x) * math.log(x),
         ((1.0, _ODE_HI), (_ODE_HI, math.inf)), None),
    ):
        tot = 0.0
        for lo, hi in segs:
            if wgt == "log":
                # 1e-12, not tighter: asking QAWS for 1e-13 here pushes it
                # into its roundoff guard and it returns a worse answer
                val, err = quad(g, lo, hi, weight="alg-loga", wvar=(0.0, 0.0),
                                epsabs=1e-12, epsrel=1e-12, limit=300)
            else:
                val, err = quad(g, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=300)
            if err > 1e-9:
                raise ArithmeticError(
                    f"base-constant quadrature failed to converge (residual {err:.2e})")
            tot += val
        pieces.append(tot)
    a0 = 1.0 + pieces[0] + pieces[1] - 0.5 * (l2pi + 1.0)
    a1 = pieces[2] + pieces[3] - 0.5 * (l2pi + 2.0)
    return a0, a1


def base_constants(qstar: int) -> BaseConstants:
    """A0, A1 and their conductor combinations A and X.

    A0 and A1 are fixed quadratures of log I0; A shifts A0 by log(q*/pi),
    and X collects the cross terms that the large-deviation model needs.
    """
    if not isinstance(qstar, int) or qstar < 1:
        raise ValueError(f"qstar must be a positive integer, got {qstar!r}")
    a0, a1 = _a0_a1()
    lq = math.log(qstar / math.pi)
    a = a0 + lq
    l2 = math.log(2.0)
    x = ((l2 + a0) * lq - 0.5 * l2 * l2 - 1.0 + a0 - a1) / math.pi
    return BaseConstants(A0=a0, A1=a1, A=a, X=x)
