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
both truncated where the lattice stops: at the first lattice point
where a bound on |phat| that never rises with omega falls to e^-46
(below 1e-20), or at the end of the remainder's convergence radius
T/sigma_u when no lattice point inside it gets that far. The bound is
the tail factor times a bound on the explicit-zero product
(transforms._prefix_log_bound), whose J0 factors decay like a Gaussian
in omega long before the tail factor does. The zero cutoff is the tail
statistics' u. The tail factor exp(-sum_{k<=K} c_k R_k tau^(2k)),
tau = sigma_u*omega, and its per-term error are formed for all lattice
points and all orders K at once, by one array expression that serves
both the samples and the parameter choice; the parameter choice sums
over the points where the tail factor alone is above e^-46, a superset
of the points the samples keep.

One rule sets every frequency step: the largest one whose aliasing
bound, in its Gaussian form, is at most a given level: a third of the
target in choose_params, e^-46 in race_result, the target itself in
the step that an aliasing refusal names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .race import RaceSpec
from .results import DensityResult
from .specfun import c_coeffs
from .transforms import ConvergenceError, _prefix_log_bound, phat_prefix
from .zerodata import TailStats, montgomery_bound

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
# size that cannot move a result read at 1e-16. The bound is the tail
# factor times transforms._prefix_log_bound's bound on the kernel
# product; choose_params budgets over the points where the tail factor
# alone is above it, a superset
_EXPONENT_CUTOFF = 46.0

# how far below -46 the double-precision log bound must be for the
# lattice to stop. The bound and the tail exponent are sums of terms of
# one sign, each term off by a few ulps (a zero within rounding of the
# kernel split by a few more), so the computed sum is within 1e-8 of its
# size for fewer than a million zeros: under 1e-6 at 46
_BOUND_MARGIN = 1e-6

_NO_RADIUS = \
    "tail statistics carry no usable convergence radius; raise the cutoff u"


class ParameterError(ValueError):
    """Poisson parameters cannot deliver the requested accuracy."""


@dataclass(frozen=True)
class RSParams:
    """The choices of one Poisson-summation run: the tail order K, the
    frequency step and the largest threshold it serves. The zero cutoff
    and the point where the lattice stops come from the tail statistics
    the run is given.

    target, when set, arms the aliasing check in compute_E/compute_P:
    a wrap-around bound above it refuses the evaluation instead of
    silently degrading.
    """

    K: int
    domega: float
    v_max: float
    target: float | None = None

    def __post_init__(self):
        if not (self.domega > 0.0 and math.isfinite(self.domega)):
            raise ParameterError("domega must be positive and finite")
        if self.K < 1:
            raise ParameterError("K must be at least 1")
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


def _check_order(params: RSParams, stats: TailStats) -> None:
    if len(stats.R) < params.K:
        raise ParameterError(
            f"stats carry {len(stats.R)} moment ratios, K = {params.K} needed")


def _tail_lattice(stats: TailStats, domega: float):
    # the lattice points m = 1, 2, ... inside the radius T/sigma_u, the
    # tail series of every order there, and per order the points before
    # the first one whose exponent reaches the cutoff, of which
    # phat_samples keeps a prefix. The exponents grow with tau, so each
    # order marks a prefix, the whole radius when no point inside it
    # reaches the cutoff. Every order's exponent is at least its first
    # term c_1 R_1 tau^2, so the points from one step past where that
    # term reaches the cutoff are never built
    T = stats.T
    if not T > 0.0:
        raise ConvergenceError(_NO_RADIUS)
    tau_end = min(T, math.sqrt(_EXPONENT_CUTOFF
                               / (c_coeffs(1)[0] * stats.R[0])))
    m = np.arange(1, int(math.ceil(tau_end / stats.sigma_u / domega)) + 2)
    tau = stats.sigma_u * (m * domega)
    m, tau = m[tau < T], tau[tau < T]
    exponents, errors = _tail_series(stats, tau)
    return m, exponents, errors, exponents < _EXPONENT_CUTOFF


def phat_samples(race: RaceSpec, params: RSParams,
                 stats: TailStats) -> tuple[PhatSample, ...]:
    """Characteristic-function values at the lattice points m*domega,
    m = 1..n, that the sums keep.

    The expensive, threshold-independent part of both Poisson sums;
    evaluate once and reuse across v. The lattice stops before the
    first point where a bound on |phat| is at most e^-46 (less
    _BOUND_MARGIN in the log, for rounding): the order-K tail factor
    times the bound of transforms._prefix_log_bound on the kernel
    product. The bound never rises with omega, so every point dropped
    inside the radius is at most e^-46 too. Where no point gets that
    far, it stops at the tail factor's convergence radius T/sigma_u; no
    sample lies at or past the radius, and a DensityResult's
    params["n_terms"] counts the samples kept. The error
    estimate has no part for the points past the radius yet, and it is
    not small: at q24 1v5, u = 4.352, a dropped |phat| reaches 9.6e-7.
    The kernel products come from one phat_prefix call at the cutoff
    stats.u.
    """
    _check_order(params, stats)
    m, exponents, errors, kept = _tail_lattice(stats, params.domega)
    n = int(np.count_nonzero(kept[params.K - 1]))
    omegas = m[:n] * params.domega
    # the bound on log|phat| never rises, so no point past the first one
    # it puts below the cutoff is larger
    small = np.flatnonzero(
        _prefix_log_bound(omegas, race, stats.u) - exponents[params.K - 1, :n]
        <= -(_EXPONENT_CUTOFF + _BOUND_MARGIN))
    if small.size:
        n = int(small[0])
    m, omegas = m[:n], omegas[:n]
    tails = np.exp(-exponents[params.K - 1, :n])
    prefixes = phat_prefix(omegas, race, stats.u)
    # d(exp(-x)) = -exp(-x) dx: the tail's exponent error transfers
    # multiplicatively
    return tuple(
        PhatSample(i, w, p, t, abs(p) * t * e)
        for i, w, p, t, e in zip(m.tolist(), omegas.tolist(),
                                 prefixes.tolist(), tails.tolist(),
                                 errors[params.K - 1, :n].tolist()))


def _largest_step(v: float, stats: TailStats, bound: float,
                  density: bool) -> float:
    # the largest step whose wrap-around point w = 2 pi / domega - v has
    # exp(-w^2 / (2 sigma0^2)) at most bound, montgomery_bound's Gaussian
    # form. P0's bound is that one deviation earlier, over sigma0
    s = stats.sigma0
    if density:
        v, bound = v + s, bound * s
    return 2.0 * math.pi / (v + s * math.sqrt(2.0 * math.log(1.0 / bound)))


def _step_text(step: float) -> str:
    # six digits of a step shaved by 1e-5, so that rounding never names
    # a step above it: a step a refusal names is accepted when fed back
    return f"{step * (1.0 - 1e-5):.6g}"


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
        # the step for all of v_max
        step = _largest_step(params.v_max, stats, params.target, density)
        raise ParameterError(
            f"aliasing bound {bound:.3g} exceeds target {params.target:.3g}; "
            f"domega must be at most {_step_text(step)}")
    return bound


def _truncation_bound(n: int, params: RSParams, stats: TailStats,
                      density: bool) -> float:
    # the sums keep m = 1..n. When point n+1 lies inside the radius, the
    # lattice stopped where the bound on |phat| fell to e^-46, and as the
    # bound never rises, every point from there to the radius end
    # T/sigma_u, m_hi - n of them at most, has |phat| at most e^-46.
    # E weights them by 1/(pi m), and as 1/x is convex their 1/m sum to
    # at most log((m_hi + 1/2) / (n + 1/2)); P0 weights each by
    # domega/pi. The points past the radius end are dropped too,
    # unbounded here
    if not stats.sigma_u * ((n + 1) * params.domega) < stats.T:
        return 0.0
    m_hi = math.ceil(stats.T / stats.sigma_u / params.domega)
    if density:
        return math.exp(-_EXPONENT_CUTOFF) / math.pi * params.domega \
            * (m_hi - n)
    return math.exp(-_EXPONENT_CUTOFF) / math.pi * math.log(
        (m_hi + 0.5) / (n + 0.5))


def _lattice(vs, race: RaceSpec, params: RSParams, stats, samples,
             density: bool):
    # E (density=False) or P0 at each v from one set of samples. The
    # checks run once, the aliasing bound at the largest |v|, where it is
    # worst, so every v shares one error estimate.
    _check_order(params, stats)
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
    elif samples and not (samples[-1].m == len(samples) and samples[-1].omega
                          == samples[-1].m * params.domega):
        raise ParameterError(
            f"samples are not the lattice m = 1..n at domega = "
            f"{params.domega:g}; rebuild them with these params: "
            f"phat_samples(race, params, stats)")
    n = len(samples)
    w = params.domega
    # s.prefix * s.tail is s.phat, spelled out to save a call per term
    if density:
        values = [w / math.pi * (0.5 + math.fsum(
            [s.prefix * s.tail * math.cos(s.m * v * w) for s in samples]))
            for v in vs]
        err = (alias + w / math.pi * math.fsum([s.error for s in samples])
               + _truncation_bound(n, params, stats, True))
    else:
        values = [0.5 - v * w / (2.0 * math.pi) - math.fsum(
            [s.prefix * s.tail * math.sin(s.m * v * w) / s.m for s in samples])
            / math.pi for v in vs]
        err = (alias + math.fsum([s.error / s.m for s in samples]) / math.pi
               + _truncation_bound(n, params, stats, False))
    return values, err, n


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

    The error estimate adds the aliasing bound, the summed per-term
    tail-factor error estimates, and the bound on the terms the lattice
    drops inside the radius. samples, when given, must come from
    phat_samples at these params' step. The result's params["n_terms"]
    counts the lattice points summed: those phat_samples keeps, after
    its bound on |phat| has cut the lattice.
    """
    return _lattice_result(v, race, params, stats, samples, False)


def compute_P(v: float, race: RaceSpec, params: RSParams,
              stats: TailStats, samples=None) -> DensityResult:
    """Density P0(v) by the Poisson lattice sum. Even in v by construction."""
    return _lattice_result(v, race, params, stats, samples, True)


def density_grid(vs, race: RaceSpec, params: RSParams,
                 stats: TailStats) -> np.ndarray:
    """P0 on an array of thresholds, sharing one set of lattice samples."""
    vs = np.asarray(vs, dtype=float).ravel().tolist()
    return np.array(_lattice(vs, race, params, stats, None, True)[0])


def choose_params(v_max: float, stats: TailStats, target: float,
                  domega: float = None) -> RSParams:
    """Smallest-cost parameters meeting the accuracy target.

    The step is the largest one whose Gaussian-form aliasing bound stays
    under a third of the target (or the caller's explicit step,
    validated); K is the smallest retained order whose summed per-term
    error estimates stay under a third of the target, summed over the
    lattice points inside the radius whose order-K tail factor alone is
    above e^-46. phat_samples keeps a prefix of those points, cut
    further where its bound on the kernel product falls, so the budget
    covers every point it keeps. Stats with no usable convergence radius
    raise phat_samples' ConvergenceError.
    """
    _check_v_max(v_max)
    if not 1e-16 < target < 1e-2:
        raise ParameterError(
            f"target {target:.3g} outside the feasible window (1e-16, 1e-2): "
            f"the lattice sum reads differences of order-one quantities, so "
            f"double precision floors its accuracy near 1e-16")
    slack = target / 3.0
    domega_max = _largest_step(v_max, stats, slack, False)
    if domega is None:
        domega = domega_max
    elif domega > domega_max:
        raise ParameterError(
            f"domega = {domega:g} leaves the aliasing bound above "
            f"{slack:.3g}; at most {_step_text(domega_max)} is admissible")
    # the summed per-term error estimate of every order K = 1..Kmax at
    # once: |kernel product| <= 1, so a term's error is bounded by its
    # tail factor's own estimate, weighted 1/(pi m) as in the sums. A
    # lattice point counts for K where its order-K tail factor is above
    # e^-46, whether or not the kernel bound drops it from the samples.
    m, exponents, errors, kept = _tail_lattice(stats, domega)
    budgets = np.where(kept, np.exp(-exponents) * errors / m, 0.0) \
        .sum(axis=1) / math.pi
    under = np.flatnonzero(budgets[1:] < slack)
    if under.size == 0:
        raise ParameterError(
            f"per-term error stays above {slack:.3g} even at K = "
            f"{len(stats.R)}; raise the zero cutoff u or the moment depth")
    return RSParams(K=int(under[0]) + 2, domega=domega, v_max=v_max,
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


def race_result(race: RaceSpec, stats: TailStats,
                target: float = 1e-11) -> DensityResult:
    """Chance of the trailing contestant leading: E at the race offset,
    from the tail statistics at the run's zero cutoff, at the largest
    step whose aliasing bound is e^-46, where the lattice drops its terms,
    and choose_params' order K for target there."""
    offset = race.offset
    if offset == 0.0:
        raise ParameterError(
            f"race {race.name or race.q} carries no offset; the headline "
            f"number for an unbiased race is 1/2 by symmetry")
    v = abs(offset)
    step = _largest_step(v, stats, math.exp(-_EXPONENT_CUTOFF), False)
    params = choose_params(v, stats, target, domega=step)
    return compute_E(v, race, params, stats=stats)
