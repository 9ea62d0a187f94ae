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
# series, truncated after _FAR_TERMS terms. Its terms fall like
# (z/j1)^(2k)/k, so a higher split trades long-double J0 calls, one per
# near factor, for rows of the power-sum table, one per term. At 1.4
# the solves at u = 1500 to 2999 of the deep_cutoff benchmark make 42%
# of the J0 calls they make at 0.7. With the piecewise Taylor J0, 20
# interleaved passes of that benchmark at seed 7 in one process took a
# median 75.9 ms at 1.4 (56 terms), 77.5 ms at 1.2 (44), 79.3 ms at 1.6
# (74) and 82.2 ms at 1.0 (35), on a 2-core VM.
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
    remainder in its own variable t_chi = alpha*sqrt(2 b1_chi)*s, all
    six orders from one _remainder call per character. The error
    estimate collects the final correction terms, which bound what
    truncating the correction series discards; a series whose final
    term exceeds 1e-7 of its remainder raises AccuracyWarning.

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
