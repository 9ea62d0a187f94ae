"""Transform-layer building blocks shared by the density methods.

Both computational routes split the distribution at a zero-height
cutoff u. Below the cutoff every zero is treated explicitly: on the
Fourier side as a product of J0 kernel factors, on the Laplace side as
a sum of log I0 terms. Above the cutoff only aggregate tail moments
survive, and the two remainders are power series in tau = sigma_u*omega
or t = sqrt(2 B1)*s. This module holds the Fourier side's explicit
product (phat_prefix); its tail factor exp(-sum_k c_k R_k tau^(2k)) is
formed in rs_method, as one array over the lattice frequencies. That
factor and the raw Laplace series sum_k (-1)^(k-1) c_k R_k t^(2k)
converge only inside the radius T carried by the tail statistics; the
accelerated remainder below reaches (j2/j1) T.

The raw remainder series loses accuracy quickly as t approaches T. The
accelerated form fixes that: the series implied by the smooth density
of zeros is summed exactly into arctan / log / inverse-tangent-integral
closed forms, and only the small difference between the true moments
and the smooth-density model is kept as a correction series, truncated
at eight terms. That correction is what makes saddle points at s in the
thousands reachable with a few thousand explicit zeros.

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

import numpy as np

from .race import RaceSpec
from .specfun import J0_ZERO1, J0_ZERO2, _log_j0_coeffs, arctan_integral
from .specfun import base_constants, c_coeffs, j0_lowbias, log_i0_derivs
from .zerodata import TailStats, ZeroDataError, _exact_sum, resolve_table

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

# phat_prefix sums the kernel factors with z <= _FAR_Z from the log-J0
# series, truncated after _FAR_TERMS terms. Its terms fall like
# (z/j1)^(2k)/k, so a higher split trades long-double J0 calls, one per
# near factor, for rows of the power-sum table, one per term. At 1.4
# the solves at u = 1500 to 2999 of the deep_cutoff benchmark make 42%
# of the J0 calls they make at 0.7 and take 42% less time; 1.2 with 44
# terms and 1.6 with 74 were no faster than 1.4.
# At z = _FAR_Z the dropped part is 4.3e-29 per factor, below 7e-29, so
# below 1e-21 for rows of up to ten million far zeros; every other far
# factor drops less.
_FAR_Z = 1.4
_FAR_TERMS = 56

# phat_prefix evaluates the near factors in blocks of consecutive rows
# holding at most this many factors over all characters. Unblocked, the
# near factors of one mod 4 solve at u = 2999 form a single block of
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

def phat_prefix(omegas, race: RaceSpec, u: float) -> np.ndarray:
    """Products of explicit-zero kernel factors J0(2*alpha*w/sqrt(1/4+g^2)),
    one for each frequency w in omegas.

    Each product runs over every table zero at or below u. Merged
    conjugate-pair tables already list both members' ordinates, so no
    multiplicity factor appears. The tables are resolved and checked for
    coverage once per call, so pass every frequency of a solve at once.

    Every row splits at z = _FAR_Z, where z = t/sqrt(1/4+g^2) with
    t = 2*alpha*w falls as g grows. The far zeros (z at or below the
    split, the high ordinates) enter through log J0(z) = sum_k a_k
    (z^2/4)^k, cut after _FAR_TERMS terms, which for row w is sum_k a_k
    (t^2/4)^k S_k with S_k the sum of (1/4+g^2)^(-k) over the far zeros:
    a suffix of one power-sum table per character, built once per call
    and freed before the near factors are evaluated. No
    frequency-by-zero block is ever formed. Both zones take the same t,
    so a factor has one argument whichever zone it falls in.

    The near zeros enter as explicit j0_lowbias factors. Each row keeps
    a prefix of each character's zeros, so the near factors form a
    ragged block. Consecutive rows are grouped into blocks of at most
    _NEAR_BLOCK factors over all characters (a longer row is a block of
    its own). Each block is flattened into one j0_lowbias call over
    all characters, and reduced row by row with segment reductions.

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
    u = float(u)
    if u < 0.0:
        raise ValueError("cutoff u must be nonnegative")
    ws = np.asarray(omegas, dtype=float).ravel()
    far = np.zeros(ws.size, dtype=np.longdouble)
    near = []
    for entry, g in zip(race.characters, _explicit_zeros(race, u)):
        gl = g.astype(np.longdouble)
        den2 = 0.25 + gl * gl
        den = np.sqrt(den2)
        # every factor of row i is J0(t[i] / den), in both zones, with
        # t = 2*alpha*w formed in extended precision: rounded to double,
        # one argument error would be shared by every factor of a row
        t = np.longdouble(2.0 * entry.alpha) * ws
        # zeros before split[i] have z above _FAR_Z in row i
        split = np.searchsorted(den, np.abs(t).astype(float) / _FAR_Z)
        near.append((t, den, split))
        far += _far_logs(t, den2, split)
    out = np.exp(far)
    sizes = sum(split for _, _, split in near)
    ends = np.cumsum(sizes)
    start = 0
    while start < ws.size:
        stop = max(start + 1, int(np.searchsorted(
            ends, ends[start] - sizes[start] + _NEAR_BLOCK, side="right")))
        _near_block(out, near, start, stop)
        start = stop
    return out.astype(float)


def _far_logs(t, den2, split) -> np.ndarray:
    # row i: the log of the product of J0(t[i] / den) over the zeros
    # from split[i] on, sum_k a_k q_i^k S_k[split_i] with q = t^2/4 and
    # S_k[j] the sum over zeros from j on of den2^(-k). S is filled in
    # place; column den2.size - lo is the empty sum, 0
    lo = int(split.min(initial=den2.size))
    inv2 = 1.0 / den2[lo:]
    S = np.zeros((_FAR_TERMS, inv2.size + 1), dtype=np.longdouble)
    np.cumprod(np.broadcast_to(inv2, (_FAR_TERMS, inv2.size)), axis=0,
               out=S[:, :-1])
    suffix = S[:, :-1][:, ::-1]
    np.cumsum(suffix, axis=1, out=suffix)
    terms = _log_j0_coeffs(_FAR_TERMS)[:, None] * S[:, split - lo]
    # by Horner in q
    q = 0.25 * np.square(t)
    acc = terms[-1]
    for row in terms[-2::-1]:
        acc = acc * q + row
    return acc * q


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


def _explicit_zeros(race: RaceSpec, u: float) -> list:
    # each character's table ordinates at or below u, in race order; a
    # cutoff a few mean gaps past the final listed zero cannot hide a
    # missing zero, anything further out could
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
        out.append(table.gammas[table.gammas <= u])
    return out


# ----------------------------------------------------------------- Laplace side

def _model_series_coef(k: int, y: float) -> float:
    # coefficient of x^{2k} in (y-1)g(x) + h(x); both defining series
    # alternate with these magnitudes
    return (y - 1.0) / (k * (2.0 * k - 1.0)) + 2.0 / (2.0 * k - 1.0) ** 2


def _ti(x: float) -> float:
    # inverse tangent integral on [0, inf): the polynomial fit covers
    # [0, 1], beyond which Ti(x) = Ti(1/x) + (pi/2) log x
    if x <= 1.0:
        return arctan_integral(x)
    return arctan_integral(1.0 / x) + 0.5 * math.pi * math.log(x)


def _sigma_model(t: float, y: float, T: float, order: int) -> float:
    """Order-th t-derivative of the smooth-density part of the remainder.

    The part is 2T^2/((y+1) j1^2) * [(y-1) g(x) + h(x)] at x = t/T with
    g(x) = 2x arctan x - log(1+x^2) and h(x) = 2x Ti(x). The leading
    prefactor 2 makes the x^2 coefficient equal 2/j1^2, the full weight
    of the first Bessel ring in the smoothed kernel sum; with half that
    weight the correction series would keep the other half and gain
    nothing over the raw series (checked against brute-force tail sums
    over the zero tables). The closed forms hold for every real x; near
    the origin the defining series is better conditioned (the closed
    forms subtract almost-equal terms there) and is used instead.
    """
    x = t / T
    ax = abs(x)
    pref = 2.0 * T ** (2 - order) / ((y + 1.0) * _J1SQ)
    odd_flip = -1.0 if (x < 0.0 and order % 2 == 1) else 1.0
    if ax < _SERIES_CUTOVER:
        # the series handles ax == 0 as written: only a p == order term
        # survives (0**0 == 1), which is exactly the nonzero constant an
        # even-order derivative keeps at the origin
        parts = []
        acc = 0.0
        k = max(1, (order + 1) // 2)
        while k < 400000:
            p = 2 * k
            if p >= order:
                term = ((-1.0) ** (k - 1) * _model_series_coef(k, y)
                        * math.perm(p, order) * ax ** (p - order))
                parts.append(term)
                acc += term
                if abs(term) < 1e-17 * (abs(acc) + 1e-300) and p > order + 2:
                    break
            k += 1
        return odd_flip * pref * math.fsum(parts)
    at = math.atan(ax)
    q = 1.0 + ax * ax
    if order == 0:
        g = 2.0 * ax * at - math.log1p(ax * ax)
        h = 2.0 * ax * _ti(ax)
    elif order == 1:
        g = 2.0 * at
        h = 2.0 * _ti(ax) + 2.0 * at
    elif order == 2:
        g = 2.0 / q
        h = 2.0 * at / ax + 2.0 / q
    elif order == 3:
        g = -4.0 * ax / (q * q)
        h = 2.0 / (ax * q) - 2.0 * at / (ax * ax) - 4.0 * ax / (q * q)
    elif order == 4:
        g = (12.0 * ax * ax - 4.0) / q ** 3
        h = (-4.0 / (ax * ax * q) + 4.0 * at / ax ** 3
             - 8.0 / (q * q) + 16.0 * ax * ax / q ** 3)
    else:
        g = 48.0 * ax * (1.0 - ax * ax) / q ** 4
        h = (8.0 * (1.0 + 2.0 * ax * ax) / (ax ** 3 * q * q)
             + 4.0 / (ax ** 3 * q) - 12.0 * at / ax ** 4
             + 64.0 * ax / q ** 3 - 96.0 * ax ** 3 / q ** 4)
    return odd_flip * pref * ((y - 1.0) * g + h)


def _sigma_corr(t: float, rk, y: float, T: float, order: int):
    """Order-th t-derivative of the moment-vs-model correction series.

    Returns (value, last_term): the eight-term alternating sum of
    (c_k r_k - a_k) t^{2k} differentiated term-wise, and the final
    retained term for the caller's accuracy check.
    """
    if len(rk) < _CORR_TERMS:
        raise ValueError(
            f"per-character moment ratios reach order {len(rk)}; "
            f"the correction series needs {_CORR_TERMS} (use Kmax >= 8)")
    c = c_coeffs(_CORR_TERMS)
    parts = []
    last = 0.0
    for k in range(1, _CORR_TERMS + 1):
        p = 2 * k
        if p < order:
            continue
        # twice the model's series coefficient, mirroring the ring
        # weight in _sigma_model, so the difference below carries only
        # the second and later Bessel rings plus discreteness
        a_k = (2.0 * (y + 1.0 / (2.0 * k - 1.0))
               / (k * (2.0 * k - 1.0) * (y + 1.0) * _J1SQ * T ** (p - 2)))
        e_k = c[k - 1] * rk[k - 1] - a_k
        last = (-1.0) ** (k - 1) * e_k * math.perm(p, order) * t ** (p - order)
        parts.append(last)
    return math.fsum(parts), last


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


def _accelerated(t: float, y: float, T: float, rk, order: int):
    value_model = _sigma_model(t, y, T, order)
    value_corr, last = _sigma_corr(t, rk, y, T, order)
    return value_model + value_corr, last


# ----------------------------------------------------------- full cumulant side

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

    Explicit zeros below stats.u enter through log I0 with the chain
    rule; each character's tail enters through the accelerated
    remainder in its own variable t_chi = alpha*sqrt(2 b1_chi)*s. The
    error estimate collects the final correction terms, which bound
    what truncating the correction series discards; a series whose
    final term exceeds 1e-7 of its remainder raises AccuracyWarning.

    Each order's terms, zeros and remainders together, are summed by
    zerodata._exact_sum and so rounded once: math.fsum below
    zerodata._BINNED_FROM terms, exponent bins from there on, with the
    same bits either way.
    """
    s = float(s)
    if s < 0.0:
        raise ValueError("s must be nonnegative (the function is even)")
    u = stats.u
    # per order, one array per character: its explicit zeros' terms and
    # then its remainder
    buckets = [[] for _ in range(6)]
    err_parts = []
    for entry, pc, g in zip(race.characters, stats.per_char,
                            _explicit_zeros(race, u)):
        a = 2.0 * entry.alpha / np.sqrt(0.25 + g * g)
        d = log_i0_derivs(a * s, 5)
        p = np.ones_like(a)
        for m in range(6):
            buckets[m].append(p * d[m])
            p = p * a
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
        p = float(pc.weight)
        for m in range(6):
            val, last = _accelerated(t_chi, pc.y, T, pc.r, m)
            buckets[m].append(np.array([p * val]))
            if m == 0:
                _warn_if_truncated(val, last, t_chi, T, entry.label)
                err_parts.append(abs(p * last))
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
