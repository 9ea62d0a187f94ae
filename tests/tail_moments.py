"""Race-level tail moments, built in the tests from per-table sums.

The package's tail statistics carry what its routes read: for the race,
sigma0; per character, read by l0_full alone and built on first read,
b_k(u), the single-series ratios and radius. The race moments of the
Rubinstein-Sarnak tail series, B_k = sum over characters alpha^(2k) b_k
and R_k = B_k / B_1^k, its fourth-cumulant ratio beta0 = R_2 at u = 0,
its convergence radius T, its deviation over the zeros above u,
sigma_u = sqrt(2 B_1), and the alpha-weighted explicit span S(u) are
built here from zerodata._tail_bk, the tables and the per-character
statistics, for the checks that still read them.
"""

import math
from dataclasses import dataclass

import numpy as np

from racedensity import zerodata as zd


@dataclass(frozen=True)
class RaceMoments:
    B: tuple      # B_k, k = 1..K
    R: tuple      # R_k = B_k / B_1^k
    beta0: float  # R_2 at u = 0
    T: float      # the race's radius: the smallest per-character one


def _B(race, u, k):
    # B_k(u) = sum over characters of alpha^(2k) b_k(u)
    return math.fsum(
        e.alpha ** (2 * k) * zd._tail_bk(zd.resolve_table(e), u, k)
        for e in race.characters)


def sigma_u(race, u):
    """sqrt(2 B_1(u)), the race's deviation over the zeros above u; at
    u = 0 it is the tail statistics' sigma0."""
    return math.sqrt(2.0 * _B(race, u, 1))


def span(race, u):
    """S(u), the sum over characters of alpha times the explicit span
    2 sum over gamma <= u of (1/4 + gamma^2)^(-1/2), each rounded once."""
    parts = []
    for e in race.characters:
        g = zd.resolve_table(e).gammas
        g = g[g <= u]
        parts.append(e.alpha * (2.0 * math.fsum(
            (1.0 / np.sqrt(0.25 + g * g)).tolist())))
    return math.fsum(parts)


def race_moments(race, stats, K=8):
    """B_k and R_k for k = 1..K at stats.u, beta0, and the race radius:
    each character's T_single rescaled by its alpha^2 b_1 against the
    race's B_1, NaN where any character has no radius."""
    Bk = tuple(_B(race, stats.u, k) for k in range(1, K + 1))
    radii = [p.T_single
             * math.sqrt(Bk[0] / (e.alpha ** 2 * (p.b[0] / e.weight)))
             for e, p in zip(race.characters, stats.per_char, strict=True)]
    full = _B(race, 0.0, 1)
    return RaceMoments(
        B=Bk, R=tuple(b / Bk[0] ** k for k, b in enumerate(Bk, start=1)),
        beta0=_B(race, 0.0, 2) / (full * full),
        T=math.nan if any(map(math.isnan, radii)) else min(radii))
