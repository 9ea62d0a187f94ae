"""Race-level tail moments, built in the tests from plain sums.

The package's tail statistics carry only what its routes read: for the
race, sigma0. The inverse-power tail sums b_k(u) = sum over gamma > u
of (1/4 + gamma^2)^(-k), the race moments of the Rubinstein-Sarnak tail
series, B_k = sum over characters alpha^(2k) b_k and R_k = B_k / B_1^k,
its fourth-cumulant ratio beta0 = R_2 at u = 0, its convergence radius
T, its deviation over the zeros above u, sigma_u = sqrt(2 B_1), and the
alpha-weighted explicit span S(u) are built here from the tables alone,
each sum one math.fsum over plain terms, for the checks that still read
them.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jn_zeros

from racedensity import zerodata as zd

J1 = float(jn_zeros(0, 1)[0])


@dataclass(frozen=True)
class RaceMoments:
    B: tuple      # B_k, k = 1..K
    R: tuple      # R_k = B_k / B_1^k
    beta0: float  # R_2 at u = 0
    T: float      # the race's radius: the smallest per-character one


def _plain_tail_bk(table, u, k, method):
    # b_k(u) as one fsum over the tabulated ordinates above u, plus the
    # analytic continuation past the table end; for k = 1 under "auto",
    # the recorded total less the head, and from the last zero on also
    # less the continuation's fall from there to u
    g = table.gammas
    U = float(g[-1])

    def past(x):
        y = math.log(table.qstar * x / (2.0 * math.pi))
        m = 2 * k - 1
        return table.weight * (y + 1.0 / m) / (2.0 * m * math.pi * x ** m)

    if k == 1 and method == "auto" and table.b1_total is not None:
        head_g = g[g <= u]
        b1 = table.b1_total - math.fsum(1.0 / (0.25 + head_g * head_g))
        return b1 if u < U else b1 - (past(U) - past(u))
    tail_g = g[g > u]
    return math.fsum((0.25 + tail_g * tail_g) ** (-k)) + past(max(u, U))


def _B(race, u, k):
    # B_k(u) = sum over characters of alpha^(2k) b_k(u)
    return math.fsum(
        e.alpha ** (2 * k)
        * _plain_tail_bk(zd.resolve_table(e), u, k, "auto")
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


def single_radius(entry, u):
    """A character's radius as a lone series at u: the tail asymptotics
    of b_1 and b_2 make (y+1/3)/(6(y+1)r_2) equal to b_1 u^2 / 2, with
    y = log(q* u / 2 pi) and r_2 = weight b_2 / b_1^2 (a merged table's
    b_k is weight times the per-member value), so the first
    oscillatory-kernel zero j1 sits at j1 sqrt of that. NaN where the
    ratio is not positive, below the first zero."""
    table = zd.resolve_table(entry)
    y = math.log(table.qstar * u / (2.0 * math.pi)) if u > 0.0 \
        else -math.inf
    b1 = _plain_tail_bk(table, u, 1, "auto")
    r2 = entry.weight * _plain_tail_bk(table, u, 2, "auto") / b1 ** 2
    if not (y + 1.0 / 3.0 > 0.0 and r2 > 0.0):
        return math.nan
    return J1 * math.sqrt((y + 1.0 / 3.0) / (6.0 * (y + 1.0) * r2))


def race_moments(race, stats, K=8):
    """B_k and R_k for k = 1..K at stats.u, beta0, and the race radius:
    each character's single_radius rescaled by its alpha^2 b_1 against
    the race's B_1, NaN where any character has no radius."""
    u = stats.u
    Bk = tuple(_B(race, u, k) for k in range(1, K + 1))
    radii = [single_radius(e, u) * math.sqrt(
        Bk[0] / (e.alpha ** 2 * _plain_tail_bk(zd.resolve_table(e), u, 1,
                                                "auto") / e.weight))
        for e in race.characters]
    full = _B(race, 0.0, 1)
    return RaceMoments(
        B=Bk, R=tuple(b / Bk[0] ** k for k, b in enumerate(Bk, start=1)),
        beta0=_B(race, 0.0, 2) / (full * full),
        T=math.nan if any(map(math.isnan, radii)) else min(radii))
