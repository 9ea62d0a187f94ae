"""Transform-layer building blocks shared by the density methods.

The Fourier side needs no cutoff. phat_prefix gives the characteristic
function as a product of one J0 kernel factor per zero: the factors of
the low zeros explicitly, and every zero past each frequency's own
split, to the table end and beyond it, through one log-J0 series over
the tables' suffix sums. _prefix_log_bound bounds that product in closed
form, never rising with the frequency, for rs_method's lattice stop.

The Laplace side splits the distribution at a zero-height cutoff u.
Below it each zero contributes log I0(x), x = 2*alpha*s/sqrt(1/4+g^2):
the low zeros, with x above the Fourier side's split, as explicit terms,
and the rest, where a character has enough of them to pay, through the
log-I0 series over the same suffix sums, which log I0(x) =
sum_k a_k (-x^2/4)^k shares with log J0. Above u only
aggregate tail moments survive, and the remainder is a power series in
t = sqrt(2 B1)*s. The raw series sum_k (-1)^(k-1) c_k R_k t^(2k)
converges only inside the radius T carried by the tail statistics; the
accelerated remainder below reaches (j2/j1) T.

The raw remainder series loses accuracy quickly as t approaches T. The
accelerated form fixes that: the series implied by the smooth density
of zeros is summed exactly into arctan / log / inverse-tangent-integral
closed forms, and only the small difference between the true moments
and the smooth-density model is kept as a correction series, truncated
at eight terms. That correction is what makes saddle points at s in the
thousands reachable with a few thousand explicit zeros. One call,
_remainder, gives the accelerated remainder with all five of its
t-derivatives: near the origin as one fixed-length even series, model
and correction together, and further out from the closed forms, whose
derivatives of order two and up follow one rule.

Subtracting the smooth model also moves the wall. The raw series
diverges at |t| = T because the smooth j1-ring singularity sits there;
the correction series only keeps the difference from the model, so its
own terms fall off like (0.19 t^2/T^2)^k and its disk reaches the
second Bessel ring at (j2/j1) T, about 2.295 T. The closed forms are
entire on the real axis, so the accelerated remainder is usable on the
whole extended disk, with the retained-term check guarding accuracy as
the edge is approached.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .race import RaceSpec
from .specfun import J0_ZERO1, J0_ZERO2, _log_j0_coeffs
from .specfun import arctan_integral
from .specfun import base_constants, c_coeffs, j0_lowbias, log_i0_derivs
from .zerodata import TailStats, ZeroDataError, _exact_sum, resolve_table
from .zerodata import _SUFFIX_ORDERS

__all__ = [
    "AccuracyWarning",
    "AsymptoticL",
    "ConvergenceError",
    "LDerivs",
    "l0_asymptotic",
    "l0_full",
    "model_constants",
    "model_log_density",
    "model_log_exceedance",
    "model_saddle",
    "phat_prefix",
]

_J1SQ = J0_ZERO1 * J0_ZERO1

# the accelerated remainder converges out to the second Bessel ring
_EXT_RADIUS = J0_ZERO2 / J0_ZERO1

# below this |t|/T the closed forms are abandoned for the defining
# series, which is better conditioned near the origin (the closed
# forms subtract almost-equal terms there)
_SERIES_CUTOVER = 0.3

# the correction series is always truncated here; its terms fall off
# geometrically so more would add nothing above double precision
_CORR_TERMS = 8

# the series branch keeps k = 1.._SERIES_TERMS: at t/T = _SERIES_CUTOVER
# the order-5 terms past it sum to below 2^-60 of that order's value for
# every y from -0.9 up
_SERIES_TERMS = 24

_K = np.arange(1.0, _SERIES_TERMS + 1.0)
# row m: the m-th derivative of (-1)^(k-1) t^(2k) is _FALLING[m] t^_POWERS[m],
# with (2k)!/(2k-m)! zero where 2k < m (and that power clipped to 0)
_FALLING = np.array([[(-1) ** (k - 1) * math.perm(2 * k, m)
                      for k in range(1, _SERIES_TERMS + 1)] for m in range(6)],
                    dtype=float)
_POWERS = np.maximum(2 * np.arange(1, _SERIES_TERMS + 1)
                     - np.arange(6)[:, None], 0)

# phat_prefix sums the kernel factors with z <= _FAR_Z from the log-J0
# series, cut after _FAR_TERMS orders; its terms fall like (z/j1)^(2k)/k,
# so a higher split trades near-zone J0 calls for orders. When the far
# zone summed each far zero's powers per call, deep_cutoff passes took
# 28.7 to 30.2 ms at splits 1.0 to 1.6, and races 51.2 ms at 1.4 against
# 56.8 to 58.4 ms at the others (seed 7, 2-core VM). The split stays at
# 1.4 until it is timed over the suffix sums. At z = _FAR_Z the series
# drops 4.3e-29 per factor.
_FAR_Z = 1.4
_FAR_TERMS = _SUFFIX_ORDERS - 1

# the ratio of consecutive log-J0 terms rises towards (z/j1)^2 < this
# for every far factor (2.4048 < j1), so |a_57| q^57 W_57 / (1 - r) bounds
# what the series drops over a row's far factors
_FAR_RATIO = (_FAR_Z / 2.4048) ** 2

# log J0(_FAR_Z), rounded toward zero: no factor with z at or above
# _FAR_Z is larger in size, as J0 falls monotonically to its first
# minimum, -0.4028 at 3.8317, and every later extremum is smaller in size
_LOG_J0_FAR_Z = -0.5676515275271513

# phat_prefix evaluates the near factors in blocks of consecutive rows
# holding at most this many factors over all characters. Unblocked, the
# near factors of one mod 4 solve at u = 2999 formed a single block of
# 87,911, and the deep_cutoff benchmark's peak RSS rose from 60.1 MB to
# 65.7 MB; with blocks of 2^14 factors it read 60.4 MB.
_NEAR_BLOCK = 1 << 14


class ConvergenceError(ValueError):
    """The requested point lies outside the remainder's convergence disk.

    Carries min_u, the approximate zero cutoff that would bring the
    point inside (t/T scales like 1/u at fixed s).
    """

    def __init__(self, message: str, min_u: float | None = None):
        super().__init__(message)
        self.min_u = min_u


class AccuracyWarning(UserWarning):
    """A truncated tail term is large enough to threaten the target accuracy."""


def _radius_error(what: float, wall: float, u: float, label: str = "") -> ConvergenceError:
    # t/T is exactly linear in 1/u at fixed s (the nearest tail zero
    # sets the radius), so the needed cutoff follows by direct scaling;
    # the few-percent pad covers the slowly drifting log factors in T
    ratio = what / wall
    min_u = 1.05 * u * ratio
    where = f" ({label})" if label else ""
    return ConvergenceError(
        f"|t| = {what:.6g} is outside the usable radius {wall:.6g}{where}; "
        f"raise the zero cutoff to at least u ~ {min_u:.0f}",
        min_u=min_u,
    )


# ----------------------------------------------------------------- Fourier side

def phat_prefix(omegas, race: RaceSpec) -> np.ndarray:
    """The characteristic function at each frequency w in omegas: the
    product of the kernel factors J0(2*alpha*w/sqrt(1/4+g^2)) over every
    zero of every character, tabulated or past its table's end.

    Merged conjugate-pair tables already list both members' ordinates,
    so no multiplicity factor appears. Pass every frequency of a solve
    at once: the tables are resolved once per call.

    Every row splits at z = _FAR_Z, where z = t/sqrt(1/4+g^2) with
    t = 2*alpha*w falls as g grows. The near zeros (z above the split,
    the low ordinates) enter as explicit j0_lowbias factors. Every zero
    past them, to the table end and beyond it, enters through log J0(z) =
    sum_k a_k (z^2/4)^k, which for row w is sum_k a_k (t^2/4)^k W_k with
    W_k the table's suffix sum of (1/4+g^2)^(-k) from the split on
    (zerodata._SuffixSums), cut after _FAR_TERMS orders. No cutoff u
    enters, so a row depends on its own frequency alone: each row equals,
    bit for bit, what phat_prefix([w]) gives for its w. A row whose split
    reaches its table's end raises ZeroDataError, which names the table
    and the frequency; past the last zero the series would meet factors
    with z above _FAR_Z.

    The near factors of each row are a prefix of each character's zeros,
    so they form a ragged block. Consecutive rows are grouped into blocks
    of at most _NEAR_BLOCK factors over all characters (a longer row is a
    block of its own). Each block is flattened into one j0_lowbias call
    over all characters, and reduced row by row with segment reductions.

    Both parts stay unbiased in extended precision. The lattice sums
    downstream cancel to a few parts in 1e6 of their largest term, so a
    length-proportional rounding drift in a thousand-factor product
    would surface in their last two digits. The near factors come from
    j0_lowbias, which has no per-factor bias, and multiply in 80-bit
    arithmetic. The far sum adds positive power sums with coefficients
    that are all negative, so it has no cancellation and no per-factor
    rounding to accumulate.

    The products cannot underflow on the way. Every near factor has z
    above _FAR_Z, so |J0(z)| < 0.57, and exp(far) is at most 1; each
    partial product of a row is therefore at least as large in
    magnitude as the row's final value. A row whose value is a normal
    double never passes below the smallest long-double normal
    (3.4e-4932). A row below the double range rounds to a signed zero,
    as a sum of logs would give it too, and a zero factor gives 0.
    """
    return _phat_rows(omegas, race)[0]


def _phat_rows(omegas, race: RaceSpec):
    # phat_prefix's rows, and per row a bound on what cutting the series
    # after _FAR_TERMS orders drops from the log: every dropped term is
    # negative and the term ratios stay below _FAR_RATIO, so that is at
    # most |a_57| q^57 W_57 / (1 - _FAR_RATIO)
    ws = np.asarray(omegas, dtype=float).ravel()
    far = np.zeros(ws.size, dtype=np.longdouble)
    drop = np.zeros(ws.size, dtype=np.longdouble)
    coeffs = _log_j0_coeffs(_SUFFIX_ORDERS)[:, None]
    near = []
    for entry in race.characters:
        table = resolve_table(entry)
        sums = table._suffix_sums
        # every factor of row i is J0(t[i] / den), in both zones, with
        # t = 2*alpha*w formed in extended precision: rounded to double,
        # one argument error would be shared by every factor of a row
        t = np.longdouble(2.0 * entry.alpha) * ws
        # zeros before split[i] have z above _FAR_Z in row i, the split
        # taken as _prefix_log_bound and _reach_error take it
        split = sums.split(2.0 * entry.alpha * np.abs(ws) / _FAR_Z)
        if split.size and split.max() == len(table):
            raise _reach_error(race, ws[split == len(table)][0])
        # a_k q^k W_k for every order, q = t^2/4; the terms are all
        # negative, and accumulate adds them in order whatever the number
        # of rows
        q = 0.25 * np.square(t)
        terms = np.multiply.accumulate(
            np.broadcast_to(q, (_SUFFIX_ORDERS, q.size)), axis=0)
        terms *= coeffs * sums.columns(split)
        near.append((t, sums.den, split))
        far += np.add.accumulate(terms[:-1], axis=0)[-1]
        drop -= terms[-1]
    out = np.exp(far)
    sizes = sum(split for _, _, split in near)
    ends = np.cumsum(sizes)
    start = 0
    while start < ws.size:
        stop = max(start + 1, int(np.searchsorted(
            ends, ends[start] - sizes[start] + _NEAR_BLOCK, side="right")))
        _near_block(out, near, start, stop)
        start = stop
    return out.astype(float), (drop / (1.0 - _FAR_RATIO)).astype(float)


def _reach_error(race: RaceSpec, w: float) -> ZeroDataError:
    # the refusal of a row whose split passes a table's last zero, naming
    # the first such table and the frequency
    for entry in race.characters:
        table = resolve_table(entry)
        x = 2.0 * entry.alpha * abs(w) / _FAR_Z
        if table._suffix_sums.split(x) == len(table):
            break
    return ZeroDataError(
        f"{entry.label}: zero table ends at {table.last_zero:.6g}, but the "
        f"frequency w = {w:.6g} treats the zeros up to about {x:.6g} "
        f"explicitly")


def _prefix_log_bound(omegas, race: RaceSpec) -> np.ndarray:
    # an upper bound on log|phat_prefix(w)| at each w, summed over the
    # characters, that never rises as |w| grows while every table covers
    # the row: +inf (no bound) from the first w whose split reaches a
    # table's end. Each factor with z above _FAR_Z gives at most
    # _LOG_J0_FAR_Z; each factor with z at or below it gives at most
    # -z^2/4, as log J0 = sum_k a_k (z^2/4)^k has a_1 = -1 and every
    # a_k < 0, and those sum to -(t^2/4) W_1 from the split on. Both
    # parts fall as z grows, and a zero only moves from the far part (at
    # least -_FAR_Z^2/4 = -0.49) to the near one. Summed in double
    # precision: a few ulps per term, and a z within rounding of _FAR_Z
    # may take the wrong side of the split; rs_method._BOUND_MARGIN
    # covers both where the lattice stops
    ws = np.abs(np.asarray(omegas, dtype=float).ravel())
    out = np.zeros(ws.size)
    for entry in race.characters:
        table = resolve_table(entry)
        sums = table._suffix_sums
        t = 2.0 * entry.alpha * ws
        split = sums.split(t / _FAR_Z)
        end = split == len(table)
        split[end] = 0
        out += np.where(end, np.inf, split * _LOG_J0_FAR_Z
                        - 0.25 * t * t * sums.w1(split))
    return out


def _near_envelope(omega: float, race: RaceSpec) -> tuple[int, float]:
    # the zeros whose factors are near at omega, N over all characters,
    # and the log of the product of sqrt(2/(pi z)) over them. As
    # x M0(x)^2 rises to 2/pi, |J0(x)| <= sqrt(2/(pi x)) for x > 0, and
    # these zeros stay near at every larger frequency, where z grows in
    # proportion; every other factor is at most 1 in size. So for
    # w >= omega, |phat(w)| <= exp(log) (omega/w)^(N/2)
    count, log = 0, 0.0
    for entry in race.characters:
        table = resolve_table(entry)
        t = 2.0 * entry.alpha * abs(omega)
        g = table.gammas[:int(table._suffix_sums.split(t / _FAR_Z))]
        count += g.size
        log += 0.5 * float(np.sum(np.log(
            2.0 * np.sqrt(0.25 + g * g) / (math.pi * t))))
    return count, log


def _near_block(out, near, lo, hi) -> None:
    # multiplies the near factors of rows lo..hi-1 into out, which holds
    # exp(far). Factor j of a character's block belongs to row r and is
    # its zero j - first[r]; one j0_lowbias call takes every character's
    # factors, and a segment reduction takes each row's share
    parts = []
    for t, den, split in near:
        n = split[lo:hi]
        first = np.cumsum(n) - n
        idx = np.arange(int(first[-1] + n[-1])) - np.repeat(first, n)
        parts.append((n, first, np.repeat(t[lo:hi], n) / den[idx]))
    values = j0_lowbias(np.concatenate([z for _, _, z in parts]))
    for n, first, z in parts:
        f, values = values[:z.size], values[z.size:]
        rows = np.flatnonzero(n)
        out[lo + rows] *= np.multiply.reduceat(f, first[rows])


def _zeros_below(race: RaceSpec, u: float) -> list:
    # l0_full's zeros: each character's table and the count of its
    # ordinates at or below u, in race order; a cutoff a few mean gaps
    # past the final listed zero cannot hide a missing zero, anything
    # further out could
    out = []
    for entry in race.characters:
        table = resolve_table(entry)
        y_end = math.log(max(table.qstar * table.last_zero / (2.0 * math.pi),
                             2.0))
        gap = 2.0 * math.pi / (table.weight * y_end)
        if not u <= table.last_zero + 3.0 * gap:
            raise ZeroDataError(
                f"{entry.label}: zero table ends at {table.last_zero:.6g}, "
                f"so zeros below u = {u:g} are missing")
        out.append((table, table.count(u)))
    return out


# ----------------------------------------------------------------- Laplace side

def _model_derivs(x: float, y: float) -> list:
    """F(x) = (y-1) g(x) + h(x) and its first five derivatives at x > 0,
    in closed form, with g(x) = 2x arctan x - log(1+x^2) and h(x) = 2x Ti(x).

    F' = 2y arctan x + 2 Ti(x) and F'' = 2y/(1+x^2) + 2 arctan(x)/x. The
    higher orders differentiate F'' with D^n 1/(1+x^2) = (-1)^n n!
    Im (x-i)^-(n+1), and arctan(x)/x by Leibniz's rule.
    """
    at = math.atan(x)
    # D^n 1/(1+x^2), D^n arctan x and D^n 1/x, n = 0..3
    z = 1.0 / complex(x, -1.0)
    rat = [(-1) ** n * math.factorial(n) * (z ** (n + 1)).imag
           for n in range(4)]
    datan = [at] + rat[:3]
    dinv = [(-1) ** j * math.factorial(j) / x ** (j + 1) for j in range(4)]
    # the inverse tangent integral: arctan_integral covers [0, 1], beyond
    # which Ti(x) = Ti(1/x) + (pi/2) log x
    ti = (arctan_integral(x) if x <= 1.0 else
          arctan_integral(1.0 / x) + 0.5 * math.pi * math.log(x))
    out = [(y - 1.0) * (2.0 * x * at - math.log1p(x * x)) + 2.0 * x * ti,
           2.0 * y * at + 2.0 * ti]
    for n in range(4):
        out.append(2.0 * y * rat[n] + 2.0 * math.fsum(
            math.comb(n, j) * datan[j] * dinv[n - j] for j in range(n + 1)))
    return out


def _even_series(coefs: np.ndarray, t: float) -> list:
    # orders 0..5 in t of sum_k (-1)^(k-1) coefs[k-1] t^(2k). The powers
    # come from Python's float pow, the C library's, which misrounds t^p
    # in 2 of 3000 random cases where numpy's power misrounds 153
    n = coefs.size
    powers = np.array([t ** p for p in range(2 * n + 1)])
    terms = coefs * _FALLING[:, :n] * powers[_POWERS[:, :n]]
    return [math.fsum(row) for row in terms.tolist()]


def _remainder(t: float, y: float, T: float, r) -> tuple[list, float]:
    """The accelerated remainder of one series and its first five
    t-derivatives at 0 <= t, with the final correction term.

    The remainder is the smooth-density model pref * F(t/T), pref =
    2T^2/((y+1) j1^2), plus the correction sum over k <= 8 of (-1)^(k-1)
    (c_k r_k - a_k) t^(2k). The model's t^(2k) coefficient is (-1)^(k-1)
    a_k, a_k = 2 (y + 1/(2k-1)) / (k (2k-1) (y+1) j1^2 T^(2k-2)). The
    prefactor 2 in pref makes the t^2 coefficient of the model 2/j1^2,
    the full weight of the first Bessel ring in the smoothed kernel sum;
    with half that weight the correction series would keep the other
    half and gain nothing over the raw series (checked against
    brute-force tail sums over the zero tables).

    Below t = _SERIES_CUTOVER T model and correction are summed as one
    even series in t, c_k r_k for k <= 8 and a_k after, cut after
    _SERIES_TERMS terms; the closed forms of F subtract almost-equal
    terms there. From the cutover on F comes from _model_derivs. The
    final correction term, at order 0, bounds what truncating the
    correction series discards.
    """
    if len(r) < _CORR_TERMS:
        raise ValueError(
            f"per-character moment ratios reach order {len(r)}; "
            f"the correction series needs {_CORR_TERMS} (use Kmax >= 8)")
    model = (2.0 * (y + 1.0 / (2.0 * _K - 1.0))
             / (_K * (2.0 * _K - 1.0) * (y + 1.0) * _J1SQ
                * np.array([T ** (2 * j) for j in range(_SERIES_TERMS)])))
    raw = np.array(c_coeffs(_CORR_TERMS)) * np.asarray(r[:_CORR_TERMS])
    corr = raw - model[:_CORR_TERMS]
    last = (-1) ** (_CORR_TERMS - 1) * corr[-1] * t ** (2 * _CORR_TERMS)
    if t < _SERIES_CUTOVER * T:
        series = np.concatenate([raw, model[_CORR_TERMS:]])
        return _even_series(series, t), last
    pairs = zip(_model_derivs(t / T, y), _even_series(corr, t))
    return [2.0 * T ** (2 - m) / ((y + 1.0) * _J1SQ) * f + c
            for m, (f, c) in enumerate(pairs)], last


def _warn_if_truncated(value: float, last: float, t: float, T: float,
                       label: str) -> None:
    # the final retained correction term bounds what truncation dropped;
    # past 1e-7 of the remainder it threatens the target accuracy.
    # stacklevel 3 points at the caller of the public function.
    scale = max(abs(value), 1e-300)
    if abs(last) > 1e-7 * scale:
        warnings.warn(
            f"{label}: final correction term is {abs(last) / scale:.2e} of the "
            f"remainder (t/T = {abs(t) / T:.3f}); raise the zero cutoff for "
            f"full accuracy", AccuracyWarning, stacklevel=3)


# ----------------------------------------------------------- full cumulant side

# l0_full takes a character's zeros with x <= _FAR_Z below u from the
# series only when they number at least this many. The series costs two
# chunk tails of extended power sums, 270 to 370 us whatever the count,
# and an explicit zero 0.3 us (zeta, s = 1, median of 5 runs of 50 on a
# 2-core VM): 393 us explicit against 357 us at 768 zeros, 228 against
# 271 at 384. q5 1v2 at u = 250 (343 and 170 zeros) stays explicit
_SERIES_FROM = 768


@lru_cache(maxsize=1)
def _log_i0_rows() -> tuple[np.ndarray, np.ndarray]:
    # row m, column k - 1 for k = 1.._FAR_TERMS: the m-th s-derivative of
    # (-1)^k a_k s^(2k) is rows[m, k-1] s^powers[m, k-1], with a_k the
    # log-J0 coefficients and (2k)!/(2k-m)! zero where 2k < m (and that
    # power clipped to 0)
    k = np.arange(1, _FAR_TERMS + 1)
    rows = np.array([[(-1) ** j * math.perm(2 * j, m) for j in k.tolist()]
                     for m in range(6)], dtype=np.longdouble)
    rows *= _log_j0_coeffs(_SUFFIX_ORDERS)[:_FAR_TERMS]
    return rows, np.maximum(2 * k - np.arange(6)[:, None], 0)


def _log_i0_series(s: float, alpha: float, d: np.ndarray):
    # orders 0..5 in s of the sum of log I0(2 alpha s / sqrt(1/4 + g^2))
    # over the zeros whose power sums D_k, k = 1..57, are d: log I0(x) =
    # sum_k a_k (-x^2/4)^k makes it sum_k (-1)^k a_k alpha^(2k) s^(2k) D_k,
    # cut after _FAR_TERMS orders. In extended precision, s^(2k-m) formed
    # directly, so s = 0 gives exact zeros in the value and the odd
    # orders, and summed from the highest order down. Also the bound on
    # what the cut drops from the value, as _phat_rows takes it: the terms
    # alternate in sign, with ratios below _FAR_RATIO in size
    rows, powers = _log_i0_rows()
    # alpha^(2k) for k = 1..57 and s^p for p = 0..114, each by repeated
    # multiplication
    c = np.multiply.accumulate(
        np.full(_SUFFIX_ORDERS, np.longdouble(alpha) ** 2)) * d
    sp = np.ones(2 * _SUFFIX_ORDERS + 1, dtype=np.longdouble)
    np.multiply.accumulate(np.full(2 * _SUFFIX_ORDERS, np.longdouble(s)),
                           out=sp[1:])
    terms = rows * c[:-1] * sp[powers]
    drop = -_log_j0_coeffs(_SUFFIX_ORDERS)[-1] * c[-1] * sp[-1]
    return (np.add.accumulate(terms[:, ::-1], axis=1)[:, -1],
            float(drop / (1.0 - _FAR_RATIO)))


@dataclass(frozen=True)
class LDerivs:
    """The cumulant generating function and its first five s-derivatives."""

    s: float
    values: tuple
    u: float
    error_estimate: float

    @property
    def value(self) -> float:
        return self.values[0]

    @property
    def d1(self) -> float:
        return self.values[1]

    @property
    def d2(self) -> float:
        return self.values[2]

    @property
    def d3(self) -> float:
        return self.values[3]

    @property
    def d4(self) -> float:
        return self.values[4]

    @property
    def d5(self) -> float:
        return self.values[5]


def l0_full(s: float, race: RaceSpec, stats: TailStats) -> LDerivs:
    """Cumulant generating function with derivatives 1..5 at real s >= 0.

    The zeros below stats.u enter through log I0 with the chain rule.
    Each character's zeros with x = 2*alpha*s/sqrt(1/4+g^2) at or below
    _FAR_Z, split as phat_prefix splits its rows, enter through the
    log-I0 series over the suffix sums from the split to the cutoff
    (_log_i0_series), when they number at least _SERIES_FROM; the rest
    enter one log_i0_derivs term each. Each character's tail enters
    through the accelerated remainder in its own variable t_chi =
    alpha*sqrt(2 b1_chi)*s, all six orders from one _remainder call per
    character. The error estimate collects the final correction terms,
    which bound what truncating the correction series discards, and
    what cutting each log-I0 series drops from the value; a remainder
    whose final term exceeds 1e-7 of it raises AccuracyWarning.

    Each order's terms, explicit zeros, series and remainders together,
    are summed by zerodata._exact_sum and so rounded once: math.fsum
    below zerodata._BINNED_FROM terms, exponent bins from there on, with
    the same bits either way. A series is summed in extended precision
    and enters as two doubles whose sum is its extended value.
    """
    s = float(s)
    if s < 0.0:
        raise ValueError("s must be nonnegative (the function is even)")
    u = stats.u
    # per order, one array per character: its explicit zeros' terms, the
    # sum over its series zeros and then its remainder
    buckets = [[] for _ in range(6)]
    err_parts = []
    for entry, pc, (table, n_u) in zip(race.characters, stats.per_char,
                                       _zeros_below(race, u)):
        # the zeros before the split have x above _FAR_Z, split as
        # phat_prefix splits its rows; the rest enter through the series
        # when there are at least _SERIES_FROM of them
        split = n_u
        if n_u >= _SERIES_FROM:
            sums = table._suffix_sums
            first = int(sums.split(2.0 * entry.alpha * s / _FAR_Z))
            if n_u - first >= _SERIES_FROM:
                split = first
        g = table.gammas[:split]
        a = 2.0 * entry.alpha / np.sqrt(0.25 + g * g)
        d = log_i0_derivs(a * s, 5)
        p = np.ones_like(a)
        for m in range(6):
            buckets[m].append(p * d[m])
            p = p * a
        if split < n_u:
            series, drop = _log_i0_series(s, entry.alpha,
                                          sums.at(split) - sums.at(n_u))
            err_parts.append(drop)
            # each order as two doubles whose sum is its extended value
            hi = series.astype(float)
            lo = (series - hi).astype(float)
            for m in range(6):
                buckets[m].append(np.array([hi[m], lo[m]]))
        # remainder, once per series; the merged table carries `weight`
        # identical conjugate series
        b1_chi = pc.b[0] / pc.weight
        dtds = entry.alpha * math.sqrt(2.0 * b1_chi)
        t_chi = dtds * s
        T = pc.T_single
        # a usable radius, and |t| inside the extended disk (j2/j1) T
        if not T > 0.0:
            raise ConvergenceError(
                f"{entry.label}: no usable convergence radius at u = {u:g}; "
                "raise the cutoff")
        if abs(t_chi) >= _EXT_RADIUS * T:
            raise _radius_error(abs(t_chi), _EXT_RADIUS * T, u, entry.label)
        vals, last = _remainder(t_chi, pc.y, T, pc.r)
        _warn_if_truncated(vals[0], last, t_chi, T, entry.label)
        p = float(pc.weight)
        err_parts.append(abs(p * last))
        for m in range(6):
            buckets[m].append(np.array([p * vals[m]]))
            p *= dtds
    values = tuple(_exact_sum(np.concatenate(b)) for b in buckets)
    if s > 0.0 and not values[2] > 0.0:
        raise ArithmeticError(
            f"second derivative came out nonpositive ({values[2]:g}) at s = {s:g}; "
            f"the zero data must be inconsistent")
    return LDerivs(s=s, values=values, u=u,
                   error_estimate=math.fsum(err_parts))


# ------------------------------------------------------------- asymptotic model

@dataclass(frozen=True)
class ModelConstants:
    """Conductor- and race-level constants of the large-s model."""

    q: int
    qstar: int
    A0: float
    A: float
    X: float
    alpha_sum: float
    Y: float
    Z: float
    sum_alpha_delta: float
    deltas: tuple[float, ...]   # each character's span constant, race order


@dataclass(frozen=True)
class AsymptoticL:
    """Large-s model values of the cumulant function and derivatives 1..3."""

    s: float
    value: float
    d1: float
    d2: float
    d3: float
    W: float
    constants: ModelConstants


def model_constants(race: RaceSpec) -> ModelConstants:
    """Constants feeding the large-s model and the extreme-tail estimates.

    Requires every character to share one conductor, so that a single
    base constant A applies; that covers the prime-count case, prime
    moduli, and any single-series race. Mixed-conductor races have no
    such closed model and go through l0_full instead.
    """
    qstars = {entry.qstar for entry in race.characters}
    if len(qstars) != 1:
        raise ValueError(
            "the asymptotic model needs a single shared conductor "
            f"(got {sorted(qstars)}); mixed-conductor races go through l0_full")
    qstar = qstars.pop()
    bc = base_constants(qstar)
    parts_a = []
    parts_y = []
    parts_z = []
    deltas = tuple(resolve_table(entry).span_fit[0]
                   for entry in race.characters)
    for entry in race.characters:
        w = float(entry.weight)
        la = math.log(entry.alpha)
        parts_a.append(w * entry.alpha)
        parts_y.append(w * entry.alpha * la)
        parts_z.append(w * entry.alpha * la * la)
    alpha_sum = math.fsum(parts_a)
    return ModelConstants(
        q=race.q, qstar=qstar, A0=bc.A0, A=bc.A, X=bc.X,
        alpha_sum=alpha_sum,
        Y=math.fsum(parts_y) / alpha_sum,
        Z=math.fsum(parts_z) / alpha_sum,
        sum_alpha_delta=math.fsum(
            e.alpha * d for e, d in zip(race.characters, deltas)),
        deltas=deltas,
    )


def l0_asymptotic(s: float, race: RaceSpec) -> AsymptoticL:
    """Smooth-model cumulant function for large s (reliable from s ~ 10 up).

    Each character contributes the single-series model at alpha*s:
    derivative (log sigma)^2/2pi + A log(sigma)/pi + delta + X, with its
    integral for the value and the log-derivative forms for orders 2
    and 3. Conjugate pairs enter through their table's combined delta.
    """
    s = float(s)
    if s <= 0.0:
        raise ValueError("the asymptotic model needs s > 0")
    mc = model_constants(race)
    A, X = mc.A, mc.X
    v0, v1, v2, v3 = [], [], [], []
    for entry, delta in zip(race.characters, mc.deltas):
        w = float(entry.weight)
        al = entry.alpha
        sig = al * s
        ls = math.log(sig)
        smooth = ls * ls / (2.0 * math.pi) + A * ls / math.pi + X
        v1.append(w * al * smooth + al * delta)
        v0.append(sig * (w * al * smooth + al * delta)
                  - w * al * sig / math.pi * (ls + A - 1.0))
        v2.append(w * al * (ls + A) / (math.pi * s))
        v3.append(-w * al * (ls + A - 1.0) / (math.pi * s * s))
    return AsymptoticL(
        s=s,
        value=math.fsum(v0),
        d1=math.fsum(v1),
        d2=math.fsum(v2),
        d3=math.fsum(v3),
        W=math.log(s) + A + mc.Y,
        constants=mc,
    )


def _model_w(mc: ModelConstants, v: float) -> float:
    w2 = (mc.A * mc.A + mc.Y * mc.Y
          + 2.0 * math.pi * v / mc.alpha_sum
          - 2.0 * math.pi / mc.alpha_sum * mc.sum_alpha_delta
          - 2.0 * math.pi * mc.X
          - mc.Z)
    if w2 <= 1.0:
        raise ValueError(
            f"threshold v = {v:g} is below the model's validity range "
            f"(the saddle equation has no large root)")
    return math.sqrt(w2)


def model_saddle(race: RaceSpec, v: float) -> float:
    """Model solution s of d1 = v; useful as a starting point for solvers."""
    mc = model_constants(race)
    W = _model_w(mc, v)
    return math.exp(W - mc.A - mc.Y)


def model_log_density(race: RaceSpec, v: float) -> float:
    """Double-exponential model of log P0(v) for large v."""
    mc = model_constants(race)
    W = _model_w(mc, v)
    return -(mc.alpha_sum / mc.q) * (W - 1.0) * math.exp(W - mc.Y - mc.A0)


def model_log_exceedance(race: RaceSpec, v: float) -> float:
    """Model of log E(v): the density model less the log of the saddle."""
    mc = model_constants(race)
    W = _model_w(mc, v)
    log_s = W - mc.A - mc.Y
    return -(mc.alpha_sum / mc.q) * (W - 1.0) * math.exp(W - mc.Y - mc.A0) - log_s
