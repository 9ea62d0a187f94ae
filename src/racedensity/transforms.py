"""Transform-layer building blocks shared by the density methods.

The Fourier side needs no cutoff. phat_prefix gives the characteristic
function as a product of one J0 kernel factor per zero: the factors of
the low zeros explicitly, and every zero past each frequency's own
split (zerodata.ZeroTable.split), to the table end and beyond it,
through one log-J0 series over the tables' suffix sums.
_prefix_log_bound bounds that product in closed form, never rising with
the frequency, for rs_method's lattice stop.

The Laplace side, l0_full, reads the same sums. Each zero contributes
log I0(x), x = 2*alpha*s/sqrt(1/4+g^2): the zeros with x above the same
split as explicit terms, and every other one, to the table end and
beyond it, through one log-I0 series over the suffix sums, which
log I0(x) = sum_k a_k (-x^2/4)^k shares with log J0. Where the split
passes a table's end, the zeros from its last one up to the height where
x falls to the split are virtual: Gauss-Legendre nodes in log g weighted
by the smooth zero density, which take the explicit path; the series
takes over from that height. No cutoff enters either side, and past
every table's end both read one model of the zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .race import RaceSpec
from .specfun import _log_j0_coeffs
from .specfun import base_constants, j0_lowbias, log_i0_derivs
from .zerodata import TailStats, ZeroDataError
from .zerodata import _check_race, _exact_sum, resolve_table
from .zerodata import _FAR_Z, _SUFFIX_ORDERS

__all__ = [
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

# the log-J0 and log-I0 series keep this many orders; the next bounds the cut
_FAR_TERMS = _SUFFIX_ORDERS - 1

# the ratio of consecutive log-J0 terms rises towards (z/j1)^2 < this
# for every far factor (2.4048 < j1), so the first term _far_terms drops,
# over 1 - r, bounds all that the series drops
_FAR_RATIO = (_FAR_Z / 2.4048) ** 2

# log J0(_FAR_Z), rounded toward zero: no factor with z at or above
# _FAR_Z is larger in size, as J0 falls monotonically to its first
# minimum, -0.4028 at 3.8317, and every later extremum is smaller in size
_LOG_J0_FAR_Z = -0.5676515275271513

# phat_prefix evaluates the near factors in blocks of consecutive rows
# holding at most this many factors over all characters. The largest
# block of the four benchmark workloads (seeds 1 to 10) and of the six
# published races' race_result at u = 4.352 to 2999 held 756 factors.
_NEAR_BLOCK = 1 << 14

# l0_full's virtual zeros past a table's end: Gauss-Legendre nodes in
# log g. Against 48 nodes, 24 moved L, L' and L'' by at most 7.6e-16
# relative, rounding, for pi vs Li at s = 10500 to 50000, mod 4 at 2150
# to 10000 and q5 1v2 at 280 to 2000
_VIRTUAL_NODES = 24


class ConvergenceError(ValueError):
    """A point outside a route's reach. No route raises it any more; it
    stays a public name because the benchmark runner (bench/run.py)
    counts it among the refusals."""


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

    A frequency that is not finite raises ValueError, which names it.
    """
    ws = np.asarray(omegas, dtype=float).ravel()
    bad = ~np.isfinite(ws)
    if bad.any():
        raise ValueError(
            "phat_prefix needs finite frequencies, got w = "
            f"{float(ws[bad][0])!r}")
    return _phat_rows(ws, race)[0]


def _phat_rows(omegas, race: RaceSpec):
    # phat_prefix's rows, and per row a bound on what cutting each log-J0
    # series (_far_terms) drops from the log
    ws = np.asarray(omegas, dtype=float).ravel()
    far = np.zeros(ws.size, dtype=np.longdouble)
    drop = np.zeros(ws.size, dtype=np.longdouble)
    near = []
    for entry in race.characters:
        table = resolve_table(entry)
        # every factor of row i is J0(t[i] / den), in both zones, with
        # t = 2*alpha*w formed in extended precision: rounded to double,
        # one argument error would be shared by every factor of a row
        t = np.longdouble(2.0 * entry.alpha) * ws
        # zeros before split[i] have z above _FAR_Z in row i
        split = table.split(2.0 * entry.alpha * np.abs(ws))
        if split.size and split.max() == len(table):
            raise _reach_error(race, ws[split == len(table)][0])
        # the terms are all negative, and accumulate adds them in order
        # whatever the number of rows
        terms, cut = _far_terms(0.25 * np.square(t),
                               table._suffix_sums.columns(split))
        # den, over the zeros that any row takes near
        g = table.gammas[:split.max(initial=0)].astype(np.longdouble)
        near.append((t, np.sqrt(0.25 + np.square(g)), split))
        far += np.add.accumulate(terms, axis=0)[-1]
        drop += cut
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


def _far_terms(q, w):
    # the log-J0 series sum_k a_k q^k W_k, k = 1.._FAR_TERMS, as terms
    # (row k - 1, one column per q), and |a_57 q^57 W_57|, the first term
    # it drops: over 1 - _FAR_RATIO, a bound on all it drops. q = t^2/4
    # gives phat_prefix's rows, q = -alpha^2 the coefficients of s^(2k)
    # in l0_full's log-I0 series. q^k by repeated multiplication, in
    # extended precision
    q = np.atleast_1d(q)
    terms = np.full((_SUFFIX_ORDERS, q.size), q)
    np.multiply.accumulate(terms, axis=0, out=terms)
    terms *= _log_j0_coeffs(_SUFFIX_ORDERS)[:, None] * w
    return terms[:-1], np.abs(terms[-1])


def _reach_error(race: RaceSpec, w: float) -> ZeroDataError:
    # the refusal of a row whose split passes a table's last zero, naming
    # the first such table and the frequency
    for entry in race.characters:
        table = resolve_table(entry)
        t = 2.0 * entry.alpha * abs(w)
        if table.split(t) == len(table):
            break
    return ZeroDataError(
        f"{entry.label}: zero table ends at {table.last_zero:.6g}, but the "
        f"frequency w = {w:.6g} treats the zeros up to about "
        f"{t / _FAR_Z:.6g} explicitly")


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
        split = table.split(t)
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
        g = table.gammas[:int(table.split(t))]
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


# ----------------------------------------------------------------- Laplace side

# the m-th s-derivative of s^(2k) is _FALLING[m, k-1] s^_POWERS[m, k-1]
# for k = 1.._FAR_TERMS: (2k)!/(2k-m)!, 0 where 2k < m (and that power
# clipped to 0). Every entry is an integer below 2^53, so exact
_FALLING = np.array([[math.perm(2 * k, m) for k in range(1, _FAR_TERMS + 1)]
                     for m in range(6)], dtype=np.longdouble)
_POWERS = np.maximum(2 * np.arange(1, _FAR_TERMS + 1)
                     - np.arange(6)[:, None], 0)
_FALLING.setflags(write=False)
_POWERS.setflags(write=False)


def _log_i0_series(s: float, alpha: float, d: np.ndarray):
    # orders 0..5 in s of the sum of log I0(2 alpha s / sqrt(1/4 + g^2))
    # over the zeros whose power sums D_k, k = 1..57, are d: log I0(x) =
    # sum_k a_k (-x^2/4)^k makes it the log-J0 series (_far_terms) at
    # q = -alpha^2, with s^(2k) for each term. In extended precision, s^p
    # formed directly, so s = 0 gives exact zeros in the value and the odd
    # orders, and summed from the highest order down. Also the bound on
    # what the cut drops from the value, as _phat_rows takes it
    c, cut = _far_terms(-np.longdouble(alpha) ** 2, d[:, None])
    # s^p for p = 0..114 by repeated multiplication
    sp = np.ones(2 * _SUFFIX_ORDERS + 1, dtype=np.longdouble)
    np.multiply.accumulate(np.full(2 * _SUFFIX_ORDERS, np.longdouble(s)),
                           out=sp[1:])
    terms = c[:, 0] * _FALLING * sp[_POWERS]
    return (np.add.accumulate(terms[:, ::-1], axis=1)[:, -1],
            float(cut[0] * sp[-1] / (1.0 - _FAR_RATIO)))


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    # the n-point Gauss-Legendre nodes and weights on [-1, 1], read-only
    nodes, weights = np.polynomial.legendre.leggauss(n)
    for a in (nodes, weights):
        a.setflags(write=False)
    return nodes, weights


def _virtual_zeros(table, top: float, n: int = _VIRTUAL_NODES):
    # the ordinates g and weights of n virtual zeros standing for the
    # smooth zero density weight/(2 pi) log(q* g/(2 pi)) on [last_zero,
    # top]: n-point Gauss-Legendre in log g, so each weight is the node's
    # weight times g times the density at g
    lo, hi = math.log(table.last_zero), math.log(top)
    nodes, weights = _gauss_legendre(n)
    g = np.exp(0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes)
    density = table.weight / (2.0 * math.pi) * np.log(
        table.qstar * g / (2.0 * math.pi))
    return g, 0.5 * (hi - lo) * weights * g * density


@dataclass(frozen=True)
class LDerivs:
    """The cumulant generating function and its first five s-derivatives."""

    s: float
    values: tuple
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
    """Cumulant generating function with derivatives 1..5 at finite s >= 0.

    Every zero of every character enters through log I0(x) with the chain
    rule, x = 2*alpha*s/sqrt(1/4+g^2), split as phat_prefix splits its
    rows (ZeroTable.split). The zeros with x above _FAR_Z are one
    log_i0_derivs term each (at s = 10 zeta's gamma_1 alone); every other
    one, to the table end and past it, enters through one log-I0 series
    (_log_i0_series) over the table's suffix sums from the split
    (_SuffixSums.columns), the sums that phat_prefix reads. Where the
    split reaches the table's end, the zeros from its last one up to the
    height where x falls to _FAR_Z are _VIRTUAL_NODES virtual zeros
    (_virtual_zeros), which take the explicit path, and the series takes
    over from that height (_SuffixSums.past). Past the last zero the
    zeros follow the smooth density, with g in place of sqrt(1/4+g^2),
    as the continuation of the suffix sums has it. The error estimate adds
    what cutting each series drops from the value and, past a table's
    end, the distance from the virtual zeros' value to that of half as
    many. That distance |Q24 - Q12| reads rounding only: the quadrature
    in log g settles by 6 nodes (zeta at s = 10500 to 50000, mod 4 at
    2150 to 10000, q5 1v2 at 280 to 2000). So the estimate bounds the
    series cuts alone; it counts neither rounding nor the model of the
    zeros past the table's end.

    stats is read only to refuse, with ZeroDataError, a record built for
    another race; its cutoff plays no part.

    Each order's terms, explicit zeros, virtual zeros and series
    together, are summed by zerodata._exact_sum and so rounded once:
    math.fsum below zerodata._BINNED_FROM terms, exponent bins from there
    on, with the same bits either way. A series is summed in extended
    precision and enters as two doubles whose sum is its extended value.
    """
    s = float(s)
    if not (math.isfinite(s) and s >= 0.0):
        raise ValueError(
            "s must be finite and nonnegative (the function is even), "
            f"got s = {s!r}")
    _check_race(stats, race)
    # per order, one array per character: its explicit and virtual
    # zeros' terms, then its series
    buckets = [[] for _ in range(6)]
    err_parts = []
    for entry in race.characters:
        table = resolve_table(entry)
        sums = table._suffix_sums
        t = 2.0 * entry.alpha * s
        # the zeros before the split have x above _FAR_Z
        split = int(table.split(t))
        g = table.gammas[:split]
        a = 2.0 * entry.alpha / np.sqrt(0.25 + g * g)
        weight = np.ones(split)
        if split < len(table):
            power_sums = sums.columns(np.array([split]))[:, 0]
        else:
            # past the last zero the model takes g for sqrt(1/4 + g^2), as
            # _past_table does, so x falls to _FAR_Z at the height top
            top = t / _FAR_Z
            virtual, w = _virtual_zeros(table, top)
            a = np.concatenate((a, 2.0 * entry.alpha / virtual))
            weight = np.concatenate((weight, w))
            power_sums = sums.past(top)
        d = log_i0_derivs(a * s)
        p = weight
        for m in range(6):
            buckets[m].append(p * d[m])
            p = p * a
        if split == len(table):
            # the virtual zeros' value against that of half as many
            half, w_half = _virtual_zeros(table, top, _VIRTUAL_NODES // 2)
            err_parts.append(abs(math.fsum(w * d[0, split:]) - math.fsum(
                w_half * log_i0_derivs(t / half)[0])))
        series, drop = _log_i0_series(s, entry.alpha, power_sums)
        err_parts.append(drop)
        # each order as two doubles whose sum is its extended value
        hi = series.astype(float)
        lo = (series - hi).astype(float)
        for m in range(6):
            buckets[m].append(np.array([hi[m], lo[m]]))
    values = tuple(_exact_sum(np.concatenate(b)) for b in buckets)
    if s > 0.0 and not values[2] > 0.0:
        raise ArithmeticError(
            f"second derivative came out nonpositive ({values[2]:g}) at s = {s:g}; "
            f"the zero data must be inconsistent")
    return LDerivs(s=s, values=values, error_estimate=math.fsum(err_parts))


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
