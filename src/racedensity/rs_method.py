"""Fourier route: Poisson summation of the characteristic function.

The density's Fourier transform is a product of one J0 kernel factor
per zero (transforms.phat_prefix). Poisson summation turns the inversion
integral into a lattice sum over frequencies m*domega; the wrap-around
(aliasing) error is a sum of exceedance masses at 2*pi/domega - v and
beyond, which the Gaussian exceedance bound controls, so the step can be
taken far larger than a quadrature view would suggest. The samples of
phat are formed once per parameter set and kept as arrays; each
threshold is one row of lattice terms, formed by array operations in the
scalar formula's order and reduced by math.fsum, which rounds the exact
sum once, so results are bit-reproducible.

The exceedance sum reads
    E(v) = 1/2 - v*domega/(2 pi) - (1/pi) sum_m phat(m*domega) sin(m v domega)/m
and the density sum
    P0(v) = (domega/pi) (1/2 + sum_m phat(m*domega) cos(m v domega)),
both truncated where the lattice stops: before the first lattice point
where a bound on |phat| that never rises with omega falls to e^-46
(below 1e-20), transforms._prefix_log_bound. Every zero enters each
sample, explicitly or through the log-J0 series past the row's split,
so no zero cutoff, series order or convergence radius enters the
lattice. The error estimate adds the aliasing bound, the per-sample
bound on what the series drops, and a bound on every lattice point past
the stop.

One Gaussian rule, exp(-w^2 / (2 sigma0^2)) with sigma0 the race's
deviation over every zero, bounds the aliasing of E and, in its density
form, of P0 (_alias_bound). Its inverse sets every frequency step: the
largest one whose aliasing bound is at most a given level: a third of
the target in choose_params, e^-46 in race_result, the target itself in
the step that an aliasing refusal names. Of the TailStats the functions
take, until the benchmark's call sites are revised, they read sigma0
alone; the cutoff and its zero count only label a result.
A record built for another race is refused (zerodata._check_race).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .race import RaceSpec
from .results import DensityResult
from .transforms import _FAR_TERMS, _near_envelope, _phat_rows
from .transforms import _prefix_log_bound, _reach_error
from .zerodata import TailStats, _check_race

__all__ = [
    "ParameterError",
    "RSParams",
    "PhatSample",
    "choose_params",
    "compute_E",
    "compute_P",
    "density_grid",
    "phat_samples",
    "race_result",
]

# the lattice stops where a bound on |phat| falls to e^-46 ~ 1e-20, a
# size that cannot move a result read at 1e-16
_EXPONENT_CUTOFF = 46.0

# how far below -46 the double-precision log bound must be for the
# lattice to stop. The bound is a sum of terms of one sign, each term off
# by a few ulps (a zero within rounding of the kernel split by a few
# more), so the computed sum is within 1e-8 of its size for fewer than a
# million zeros: under 1e-6 at 46
_BOUND_MARGIN = 1e-6

# the dropped lattice points are bounded point by point out to this many
# times the kept count, then by the near factors' envelope
_STOP_REACH = 10


class ParameterError(ValueError):
    """Poisson parameters cannot deliver the requested accuracy."""


@dataclass(frozen=True)
class RSParams:
    """The choices of one Poisson-summation run: the frequency step and
    the largest threshold it serves. Where the lattice stops follows from
    the zeros; the aliasing check reads the race's sigma0 alone.

    target, when set, arms the aliasing check in compute_E/compute_P:
    a wrap-around bound above it refuses the evaluation instead of
    silently degrading.
    """

    domega: float
    v_max: float
    target: float | None = None

    def __post_init__(self):
        if not (self.domega > 0.0 and math.isfinite(self.domega)):
            raise ParameterError("domega must be positive and finite")
        _check_v_max(self.v_max)
        if 2.0 * math.pi / self.domega <= self.v_max:
            raise ParameterError(
                f"2 pi / domega = {2.0 * math.pi / self.domega:.6g} must exceed "
                f"v_max = {self.v_max:.6g}; shrink domega")

    @property
    def K(self) -> int:
        """The log-J0 series order, 56; only the benchmark reads it."""
        return _FAR_TERMS


def _check_v_max(v_max: float) -> None:
    # a NaN v_max would disarm every later comparison against it
    if not (math.isfinite(v_max) and v_max >= 0.0):
        raise ParameterError(
            f"v_max must be finite and non-negative, got {v_max!r}")


class PhatSample(NamedTuple):
    """The characteristic function at one lattice frequency."""

    m: int
    omega: float
    phat: float
    error: float   # bound on what the series cut moves phat by

    @property
    def tail(self) -> float:
        """1.0, as every zero is in phat; only the benchmark reads it."""
        return 1.0


class _Samples(tuple):
    # phat_samples' records, with the race and step they were built for,
    # the lattice as read-only arrays (m as float, phat) that _lattice
    # reads, _lattice_stop's bounds on the points past them and the sums
    # of their series-cut bounds, weighted 1/m for E and evenly for P0:
    # all independent of v
    race: RaceSpec
    domega: float
    m: np.ndarray
    phat: np.ndarray
    dropped: tuple[float, float]
    errors: tuple[float, float]


def _lattice_stop(race: RaceSpec, domega: float,
                  sigma0: float) -> tuple[int, tuple[float, float]]:
    # n, the lattice points before the first whose bound on log|phat| is
    # at most -46; a point past a table's reach there refuses. And bounds
    # on what the sums drop past m = n: sum_{m > n} |phat(m domega)|
    # weighted 1/(pi m) for E and domega/pi for P0. Out to _STOP_REACH n
    # points each |phat| is at most exp(_prefix_log_bound), as far as the
    # tables reach; past the last such point L, the near factors'
    # envelope at L gives |phat| <= exp(log) (L/m)^(N/2). One bound
    # array serves both, so each point is bounded once: it first reaches
    # _STOP_REACH times the guess at n, twice where exp(-sigma0^2 w^2 / 2)
    # reaches e^-46, so that a stop within the guess needs no more, and
    # doubles while no stop is found
    def grow(bound, size):
        m = np.arange(bound.size + 1, size + 1)
        return np.concatenate((bound, _prefix_log_bound(m * domega, race)))

    bound = grow(np.empty(0), _STOP_REACH * (int(
        2.0 * math.sqrt(2.0 * _EXPONENT_CUTOFF) / (sigma0 * domega)) + 1))
    while True:
        small = bound <= -(_EXPONENT_CUTOFF + _BOUND_MARGIN)
        n = int(np.argmax(small | np.isinf(bound)))
        if small[n]:
            break
        if np.isinf(bound[n]):
            raise _reach_error(race, float((n + 1) * domega))
        bound = grow(bound, 2 * bound.size)
    reach = _STOP_REACH * max(n, 1)
    if bound.size < reach:
        bound = grow(bound, reach)
    bound = bound[n:reach]
    m = np.arange(n + 1, reach + 1)[np.isfinite(bound)]
    heads = np.exp(bound[:m.size])
    last = n + m.size
    N, log = _near_envelope(last * domega, race)
    tail_e, tail_p = _envelope_sums(last, N)
    scale = math.exp(log)
    return n, ((math.fsum((heads / m).tolist()) + scale * tail_e) / math.pi,
               domega / math.pi * (math.fsum(heads.tolist()) + scale * tail_p))


def _envelope_sums(last: int, N: int) -> tuple[float, float]:
    # bounds on sum_{m > last} (last/m)^(N/2) / m and on sum_{m > last}
    # (last/m)^(N/2): as the terms fall, each sum is below its integral
    # from last on, 2/N and last/(N/2 - 1); the second diverges for N <= 2
    if N <= 2:
        return math.inf, math.inf
    return 2.0 / N, last / (0.5 * N - 1.0)


def phat_samples(race: RaceSpec, params: RSParams,
                 stats: TailStats) -> tuple[PhatSample, ...]:
    """Characteristic-function values at the lattice points m*domega,
    m = 1..n, that the sums keep.

    The expensive, threshold-independent part of both Poisson sums;
    evaluate once and reuse across v. The tuple of PhatSample is for
    callers and the benchmark; compute_E and compute_P read the same
    values from the arrays the record also carries, m (as floats) and
    phat. The lattice stops before the first point where
    transforms._prefix_log_bound puts |phat| at or below e^-46 (less
    _BOUND_MARGIN in the log, for rounding); the record carries, as
    dropped, _lattice_stop's bounds on every point past it. Each
    sample's error bounds what cutting the log-J0 series after 56 orders
    moves it by; the record carries their sums as errors, and the race
    and step it was built for. stats.sigma0 only seeds the search for the stop: the samples do not
    depend on stats.u.
    """
    _check_race(stats, race)
    n, dropped = _lattice_stop(race, params.domega, stats.sigma0)
    m = np.arange(1, n + 1)
    omegas = m * params.domega
    values, drops = _phat_rows(omegas, race)
    # |phat| (1 - exp(-drop)) <= |phat| drop
    errors = np.abs(values) * drops
    samples = _Samples(map(PhatSample, m.tolist(), omegas.tolist(),
                           values.tolist(), errors.tolist()))
    samples.race = race
    samples.domega = params.domega
    samples.m = m.astype(float)
    samples.phat = values
    samples.m.flags.writeable = values.flags.writeable = False
    samples.dropped = dropped
    samples.errors = (math.fsum((errors / m).tolist()),
                      math.fsum(errors.tolist()))
    return samples


def _alias_bound(w: float, sigma0: float, density: bool) -> float:
    # the wrap-around error at w >= 0 is below E(w) <= exp(-w^2 / (2
    # sigma0^2)) (Rubinstein and Sarnak, "Chebyshev's bias", 1994); the
    # density at w below the exceedance mass one deviation earlier spread
    # over that deviation
    if density:
        w = max(w - sigma0, 0.0)
    bound = math.exp(-w * w / (2.0 * sigma0 * sigma0))
    return bound / sigma0 if density else bound


def _largest_step(v: float, sigma0: float, bound: float,
                  density: bool) -> float:
    # the largest step whose wrap-around point w = 2 pi / domega - v has
    # _alias_bound(w, sigma0, density) at most bound
    s = sigma0
    if density:
        v, bound = v + s, bound * s
    return 2.0 * math.pi / (v + s * math.sqrt(2.0 * math.log(1.0 / bound)))


def _step_text(step: float) -> str:
    # six digits of a step shaved by 1e-5, so that rounding never names
    # a step above it: a step a refusal names is accepted when fed back
    return f"{step * (1.0 - 1e-5):.6g}"


def _lattice(vs, race: RaceSpec, params: RSParams, stats, samples,
             density: bool):
    # E (density=False) or P0 at each v from one set of samples. The
    # checks run once, the aliasing bound at the largest |v|, where it is
    # worst, so every v shares one error estimate.
    _check_race(stats, race)
    bad = [v for v in vs if not math.isfinite(v)]
    if bad:
        raise ParameterError(f"thresholds must be finite, got {bad[0]!r}")
    reach = max(map(abs, vs), default=0.0)
    if reach > params.v_max:
        raise ParameterError(
            f"|v| = {reach:g} exceeds the v_max = {params.v_max:g} these "
            f"parameters were validated for")
    alias = _alias_bound(2.0 * math.pi / params.domega - reach, stats.sigma0,
                         density)
    if params.target is not None and alias > params.target:
        # the step for all of v_max
        step = _largest_step(params.v_max, stats.sigma0, params.target,
                             density)
        raise ParameterError(
            f"aliasing bound {alias:.3g} exceeds target {params.target:.3g}; "
            f"domega must be at most {_step_text(step)}")
    if samples is None:
        samples = phat_samples(race, params, stats)
    elif not (isinstance(samples, _Samples)
              and (samples.race is race or samples.race == race)
              and samples.domega == params.domega):
        raise ParameterError(
            f"samples are not phat_samples' lattice m = 1..n at domega = "
            f"{params.domega:g}; rebuild them with these params: "
            f"phat_samples(race, params, stats)")
    # the terms phat cos(m v w) and phat sin(m v w) / m, one row per v,
    # rounded as the scalar formulas round them: (m v) w, then the
    # product with phat, then the quotient by m. One threshold, as from
    # compute_E and compute_P, skips the outer product's cost
    w = params.domega
    terms = (samples.m * vs[0])[None] if len(vs) == 1 \
        else np.multiply.outer(vs, samples.m)
    terms *= w
    if density:
        np.cos(terms, out=terms)
        terms *= samples.phat
        values = [w / math.pi * (0.5 + math.fsum(row))
                  for row in terms.tolist()]
        err = alias + w / math.pi * samples.errors[1] + samples.dropped[1]
    else:
        np.sin(terms, out=terms)
        terms *= samples.phat
        terms /= samples.m
        values = [0.5 - v * w / (2.0 * math.pi) - math.fsum(row) / math.pi
                  for v, row in zip(vs, terms.tolist())]
        err = alias + samples.errors[0] / math.pi + samples.dropped[0]
    return values, err, len(samples)


def _lattice_result(v, race, params, stats, samples, density):
    (value,), err, n_terms = _lattice(
        [float(v)], race, params, stats, samples, density)
    log = math.log(value) if value > 0.0 else float("-inf")
    return DensityResult(
        v=float(v), log_p=log if density else math.nan,
        log_e=math.nan if density else log, method="fourier",
        params={"u": stats.u, "K": params.K, "domega": params.domega,
                "n_terms": n_terms, "n_zeros": stats.n_zeros},
        error_estimate=err)


def compute_E(v: float, race: RaceSpec, params: RSParams,
              stats: TailStats, samples=None) -> DensityResult:
    """Exceedance probability E(v) by the Poisson lattice sum.

    The error estimate adds the aliasing bound, Gaussian in
    stats.sigma0, the samples' bounds on what the series cut moves them
    by, and the bound on every lattice point past the stop. samples,
    when given, must come from phat_samples for this race at these
    params' step. The result's params["n_terms"] counts the lattice
    points summed: those phat_samples keeps, after its bound on |phat|
    has cut the lattice. params["K"] is the fixed series order, 56;
    stats.u and stats.n_zeros only label params["u"] and ["n_zeros"].
    """
    return _lattice_result(v, race, params, stats, samples, False)


def compute_P(v: float, race: RaceSpec, params: RSParams,
              stats: TailStats, samples=None) -> DensityResult:
    """Density P0(v) by the Poisson lattice sum. Even in v by construction."""
    return _lattice_result(v, race, params, stats, samples, True)


def density_grid(vs, race: RaceSpec, params: RSParams,
                 stats: TailStats) -> np.ndarray:
    """P0 on an array of thresholds: the lattice values themselves, one
    row per threshold of a thresholds x points matrix, over samples it
    draws afresh from phat_samples on each call. compute_P holds the log
    of the same value, so its .p, exp(log_p), can differ in the last bit,
    and a value at or below 0 gives log_p = -inf."""
    vs = np.asarray(vs, dtype=float).ravel().tolist()
    return np.array(_lattice(vs, race, params, stats, None, True)[0])


def choose_params(v_max: float, stats: TailStats, target: float,
                  domega: float = None) -> RSParams:
    """Parameters meeting the accuracy target: the largest step whose
    Gaussian-form aliasing bound stays under a third of the target, or
    the caller's explicit step, validated against it.

    Nothing else is chosen: the series cut (a sample's error, under
    5e-29 of it in the published races) and the lattice stop (e^-46) lie
    far below any target in the window.
    """
    _check_v_max(v_max)
    if not 1e-16 < target < 1e-2:
        raise ParameterError(
            f"target {target:.3g} outside the feasible window (1e-16, 1e-2): "
            f"the lattice sum reads differences of order-one quantities, so "
            f"double precision floors its accuracy near 1e-16")
    slack = target / 3.0
    domega_max = _largest_step(v_max, stats.sigma0, slack, False)
    if domega is None:
        domega = domega_max
    elif domega > domega_max:
        raise ParameterError(
            f"domega = {domega:g} leaves the aliasing bound above "
            f"{slack:.3g}; at most {_step_text(domega_max)} is admissible")
    return RSParams(domega=domega, v_max=v_max, target=target)


def race_result(race: RaceSpec, stats: TailStats,
                target: float = 1e-11) -> DensityResult:
    """Chance of the trailing contestant leading: E at the race offset,
    at the largest step whose aliasing bound, the Gaussian one in
    stats.sigma0, is e^-46, the level where the lattice drops its terms.
    The value and its estimate read stats.sigma0 alone; the cutoff
    stats.u and stats.n_zeros only label the result's params."""
    offset = race.offset
    if offset == 0.0:
        raise ParameterError(
            f"race {race.name or race.q} carries no offset; the headline "
            f"number for an unbiased race is 1/2 by symmetry")
    v = abs(offset)
    step = _largest_step(v, stats.sigma0, math.exp(-_EXPONENT_CUTOFF), False)
    params = choose_params(v, stats, target, domega=step)
    return compute_E(v, race, params, stats=stats)
