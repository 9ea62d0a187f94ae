"""Fourier route: Poisson summation of the characteristic function.

The density's Fourier transform is a product of explicit-zero kernel
factors and the controlled tail factor from transforms. Poisson
summation turns the inversion integral into a lattice sum over
frequencies m*domega; the wrap-around (aliasing) error is a sum of
exceedance masses at 2*pi/domega - v and beyond, which the Gaussian
exceedance bound controls, so the step can be taken far larger than a
quadrature view would suggest. Each lattice term is independent of the
others; they are precomputed once per parameter set and reduced in a
fixed ascending order so results are bit-reproducible.

The exceedance sum reads
    E(v) = 1/2 - v*domega/(2 pi) - (1/pi) sum_m phat(m*domega) sin(m v domega)/m
and the density sum
    P0(v) = (domega/pi) (1/2 + sum_m phat(m*domega) cos(m v domega)),
both truncated at the frequency ceiling C. It sits half a step below
the first lattice point whose tail-factor exponent reaches 46 (value
below 1e-20), or at the end of the remainder's convergence radius when
no lattice point inside it gets that far. The tail factor
exp(-sum_{k<=K} c_k R_k tau^(2k)), tau = sigma_u*omega, and its
per-term error are formed for all lattice points and all orders K at
once, by one array expression that serves both the samples and the
parameter choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .race import RaceSpec
from .results import DensityResult
from .specfun import c_coeffs
from .transforms import ConvergenceError, phat_prefix
from .zerodata import TailStats, aggregate_stats, montgomery_bound

__all__ = [
    "ParameterError",
    "RSParams",
    "PhatSample",
    "choose_params",
    "compute_E",
    "compute_P",
    "default_domega",
    "default_params",
    "density_grid",
    "phat_samples",
    "race_result",
]

# tail-factor exponent past which a lattice term is dropped: values
# below e^-46 ~ 1e-20 cannot move a result read at 1e-16
_EXPONENT_CUTOFF = 46.0

_NO_RADIUS = \
    "tail statistics carry no usable convergence radius; raise the cutoff u"


class ParameterError(ValueError):
    """Poisson parameters cannot deliver the requested accuracy."""


@dataclass(frozen=True)
class RSParams:
    """Parameter set for one Poisson-summation run.

    target, when set, arms the aliasing check in compute_E/compute_P:
    a wrap-around bound above it refuses the evaluation instead of
    silently degrading.
    """

    u: float
    K: int
    domega: float
    C: float
    v_max: float
    target: float | None = None

    def __post_init__(self):
        if not (self.domega > 0.0 and math.isfinite(self.domega)):
            raise ParameterError("domega must be positive and finite")
        if self.K < 1:
            raise ParameterError("K must be at least 1")
        if not (self.C > 0.0 and math.isfinite(self.C)):
            raise ParameterError(
                "frequency ceiling C must be positive and finite")
        _check_v_max(self.v_max)
        if 2.0 * math.pi / self.domega <= self.v_max:
            raise ParameterError(
                f"2 pi / domega = {2.0 * math.pi / self.domega:.6g} must exceed "
                f"v_max = {self.v_max:.6g}; shrink domega")


def _check_v_max(v_max: float) -> None:
    # a NaN v_max would disarm every later comparison against it
    if not (math.isfinite(v_max) and v_max >= 0.0):
        raise ParameterError(
            f"v_max must be finite and non-negative, got {v_max!r}")


@dataclass(frozen=True)
class PhatSample:
    """The characteristic function at one lattice frequency."""

    m: int
    omega: float
    prefix: float
    tail: float
    error: float   # absolute error estimate for prefix*tail

    @property
    def phat(self) -> float:
        return self.prefix * self.tail


def _stats_for(race: RaceSpec, params: RSParams, stats) -> TailStats:
    if stats is not None:
        if stats.u != params.u:
            raise ParameterError(
                f"stats were aggregated at u = {stats.u:g}, params ask {params.u:g}")
        if len(stats.R) < params.K:
            raise ParameterError(
                f"stats carry {len(stats.R)} moment ratios, K = {params.K} needed")
        return stats
    return aggregate_stats(race, params.u, Kmax=max(params.K, 2))


def phat_samples(race: RaceSpec, params: RSParams,
                 stats: TailStats = None) -> tuple[PhatSample, ...]:
    """Characteristic-function values at m*domega for 0 < m*domega < C.

    The expensive, threshold-independent part of both Poisson sums;
    evaluate once and reuse across v. Frequencies past the tail
    factor's convergence radius T/sigma_u come back as exact zeros and
    their kernel products are never formed. The error estimate has no
    part for what they drop yet, and it is not small: at q24 1v5,
    u = 4.352, a dropped |phat| reaches 9.6e-7. The kernel products of
    the other frequencies come from one phat_prefix call.
    """
    stats = _stats_for(race, params, stats)
    if not stats.T > 0.0:
        raise ConvergenceError(_NO_RADIUS)
    m = np.arange(1, int(math.ceil(params.C / params.domega)) + 1)
    m = m[m * params.domega < params.C]
    omegas = m * params.domega
    tau = stats.sigma_u * omegas
    inside = tau < stats.T
    exponents, errors = _tail_series(stats, tau[inside])
    tails, tail_errors = np.zeros(len(m)), np.zeros(len(m))
    tails[inside] = np.exp(-exponents[params.K - 1])
    tail_errors[inside] = errors[params.K - 1]
    live = tails != 0.0
    prefixes = np.zeros(len(m))
    prefixes[live] = phat_prefix(omegas[live], race, params.u)
    # d(exp(-x)) = -exp(-x) dx: the tail's exponent error transfers
    # multiplicatively
    return tuple(
        PhatSample(i, w, p, t, abs(p) * t * e)
        for i, w, p, t, e in zip(m.tolist(), omegas.tolist(),
                                 prefixes.tolist(), tails.tolist(),
                                 tail_errors.tolist()))


def _check_aliasing(v: float, params: RSParams, stats: TailStats,
                    density: bool) -> float:
    # the wrap-around error is below E(2 pi / domega - |v|); the density
    # at w is below the exceedance mass one deviation earlier spread over
    # that deviation
    w = 2.0 * math.pi / params.domega - abs(v)
    if density:
        bound = math.exp(montgomery_bound(max(w - stats.sigma0, 0.0), stats)) \
            / stats.sigma0
    else:
        bound = math.exp(montgomery_bound(w, stats))
    if params.target is not None and bound > params.target:
        need = abs(v) + stats.sigma0 * math.sqrt(
            2.0 * math.log(1.0 / params.target))
        raise ParameterError(
            f"aliasing bound {bound:.3g} exceeds target {params.target:.3g}; "
            f"domega must be at most {2.0 * math.pi / need:.6g}")
    return bound


def _truncation_bound(params: RSParams, stats: TailStats) -> float:
    # terms dropped past C have tail factor below e^-46; count how many
    # lattice points sit between C and the radius end T/sigma_u. The
    # points past the radius end are dropped too, and nothing here
    # bounds them
    if not stats.T > 0.0:
        return 0.0
    omega_end = stats.T / stats.sigma_u
    if omega_end <= params.C:
        return 0.0
    m_lo = int(math.floor(params.C / params.domega)) + 1
    m_hi = int(math.ceil(omega_end / params.domega))
    if m_hi < m_lo:
        return 0.0
    return math.exp(-_EXPONENT_CUTOFF) / math.pi * math.fsum(
        1.0 / m for m in range(m_lo, m_hi + 1))


def _lattice(vs, race: RaceSpec, params: RSParams, stats, samples,
             density: bool):
    # E (density=False) or P0 at each v from one set of samples. The
    # checks run once, the aliasing bound at the largest |v|, where it is
    # worst, so every v shares one error estimate.
    stats = _stats_for(race, params, stats)
    bad = [v for v in vs if not math.isfinite(v)]
    if bad:
        raise ParameterError(f"thresholds must be finite, got {bad[0]!r}")
    reach = max(map(abs, vs), default=0.0)
    if reach > params.v_max:
        raise ParameterError(
            f"|v| = {reach:g} exceeds the v_max = {params.v_max:g} these "
            f"parameters were validated for")
    alias = _check_aliasing(reach, params, stats, density)
    if samples is None:
        samples = phat_samples(race, params, stats)
    live = [s for s in samples if s.tail != 0.0]
    w = params.domega
    # s.prefix * s.tail is s.phat, spelled out to save a call per term
    if density:
        values = [w / math.pi * (0.5 + math.fsum(
            [s.prefix * s.tail * math.cos(s.m * v * w) for s in live]))
            for v in vs]
        err = (alias + w / math.pi * math.fsum([s.error for s in live])
               + w * _truncation_bound(params, stats))
    else:
        values = [0.5 - v * w / (2.0 * math.pi) - math.fsum(
            [s.prefix * s.tail * math.sin(s.m * v * w) / s.m for s in live])
            / math.pi for v in vs]
        err = (alias + math.fsum([s.error / s.m for s in live]) / math.pi
               + _truncation_bound(params, stats))
    return values, err, len(live), stats


def _lattice_result(v, race, params, stats, samples, density):
    (value,), err, n_terms, stats = _lattice(
        [float(v)], race, params, stats, samples, density)
    log = math.log(value) if value > 0.0 else float("-inf")
    return DensityResult(
        v=float(v), log_p=log if density else math.nan,
        log_e=math.nan if density else log, method="fourier",
        params={"u": params.u, "K": params.K, "domega": params.domega,
                "C": params.C, "n_terms": n_terms, "n_zeros": stats.n_zeros},
        error_estimate=err)


def compute_E(v: float, race: RaceSpec, params: RSParams,
              stats: TailStats = None, samples=None) -> DensityResult:
    """Exceedance probability E(v) by the Poisson lattice sum.

    The error estimate adds the aliasing bound, the summed per-term
    tail-factor error estimates, and the bound on terms dropped past
    the frequency ceiling.
    """
    return _lattice_result(v, race, params, stats, samples, False)


def compute_P(v: float, race: RaceSpec, params: RSParams,
              stats: TailStats = None, samples=None) -> DensityResult:
    """Density P0(v) by the Poisson lattice sum. Even in v by construction."""
    return _lattice_result(v, race, params, stats, samples, True)


def density_grid(vs, race: RaceSpec, params: RSParams,
                 stats: TailStats = None) -> np.ndarray:
    """P0 on an array of thresholds, sharing one set of lattice samples."""
    vs = np.asarray(vs, dtype=float).ravel().tolist()
    return np.array(_lattice(vs, race, params, stats, None, True)[0])


def default_domega(race: RaceSpec, sigma0: float) -> float:
    """Frequency step defaults: pi/2 for the prime-count distribution,
    0.8 for modulus 8, half the reciprocal deviation for other races."""
    if race.q == 1:
        return math.pi / 2.0
    if race.q == 8:
        return 0.8
    return 1.0 / (2.0 * sigma0)


def choose_params(v_max: float, stats: TailStats, target: float,
                  domega: float = None) -> RSParams:
    """Smallest-cost parameters meeting the accuracy target.

    The step is the largest one whose wrap-around bound stays under a
    third of the target (or the caller's explicit step, validated); K
    is the smallest retained order whose summed per-term error
    estimates stay under a third of the target; the ceiling falls half
    a step before the first lattice point whose order-K tail factor is
    below 1e-20. Stats with no usable convergence radius raise the
    ConvergenceError that phat_samples raises.
    """
    _check_v_max(v_max)
    if not 1e-16 < target < 1e-2:
        raise ParameterError(
            f"target {target:.3g} outside the feasible window (1e-16, 1e-2): "
            f"the lattice sum reads differences of order-one quantities, so "
            f"double precision floors its accuracy near 1e-16")
    slack = target / 3.0
    need = v_max + stats.sigma0 * math.sqrt(2.0 * math.log(1.0 / slack))
    domega_max = 2.0 * math.pi / need
    if domega is None:
        domega = domega_max
    elif domega > domega_max:
        raise ParameterError(
            f"domega = {domega:g} leaves the aliasing bound above "
            f"{slack:.3g}; at most {domega_max:.6g} is admissible")
    # the summed per-term error estimate of every order K = 1..Kmax at
    # once: |kernel product| <= 1, so a term's error is bounded by its
    # tail factor's own estimate, weighted 1/(pi m) as in the sums. A
    # lattice point counts for K while its exponent stays under the
    # cutoff, that is below K's ceiling.
    T = stats.T
    if not T > 0.0:
        raise ConvergenceError(_NO_RADIUS)
    m = np.arange(1, int(math.ceil(T / stats.sigma_u / domega)) + 1)
    tau = stats.sigma_u * (m * domega)
    m, tau = m[tau < T], tau[tau < T]
    exponents, errors = _tail_series(stats, tau)
    kept = exponents < _EXPONENT_CUTOFF
    budgets = np.where(kept, np.exp(-exponents) * errors / m, 0.0) \
        .sum(axis=1) / math.pi
    under = np.flatnonzero(budgets[1:] < slack)
    if under.size == 0:
        raise ParameterError(
            f"per-term error stays above {slack:.3g} even at K = "
            f"{len(stats.R)}; raise the zero cutoff u or the moment depth")
    K = int(under[0]) + 2
    # the ceiling sits half a step below the first lattice point whose
    # exponent reaches the cutoff, so the sums keep exactly the points
    # before it; with no such point it is the radius end
    past = np.flatnonzero(~kept[K - 1])
    C = (past[0] + 0.5) * domega if past.size else T / stats.sigma_u
    return RSParams(u=stats.u, K=K, domega=domega, C=float(C), v_max=v_max,
                    target=target)


def _tail_series(stats: TailStats, tau: np.ndarray):
    # for every order K = 1..Kmax (rows) at each tau = sigma_u*omega
    # inside the radius T (columns): the tail factor's exponent
    # sum_{k<=K} c_k R_k tau^(2k), and its per-term error estimate
    # c_K R_K tau^(2K+2) / (T^2 - tau^2), the omitted terms taken as a
    # geometric series in (tau/T)^2 from the last retained one
    Kmax = len(stats.R)
    cr = np.array(c_coeffs(Kmax)) * np.array(stats.R)
    powers = tau ** (2 * np.arange(1, Kmax + 2))[:, None]
    exponents = np.cumsum(cr[:, None] * powers[:-1], axis=0)
    errors = cr[:, None] * powers[1:] / (stats.T * stats.T - tau * tau)
    return exponents, errors


def default_params(race: RaceSpec, stats: TailStats,
                   target: float = 1e-11, v_max: float = None) -> RSParams:
    """choose_params with the per-race default frequency step."""
    if v_max is None:
        v_max = max(1.0, abs(race.offset))
    step = default_domega(race, stats.sigma0)
    return choose_params(v_max, stats, target, domega=step)


def race_result(race: RaceSpec, params: RSParams = None,
                stats: TailStats = None,
                target: float = 1e-11) -> DensityResult:
    """Chance of the trailing contestant leading: E at the race offset."""
    offset = race.offset
    if offset == 0.0:
        raise ParameterError(
            f"race {race.name or race.q} carries no offset; the headline "
            f"number for an unbiased race is 1/2 by symmetry")
    v = abs(offset)
    if params is None:
        if stats is None:
            raise ParameterError("race_result needs params or stats")
        params = default_params(race, stats, target=target, v_max=v)
    return compute_E(v, race, params, stats=stats)
