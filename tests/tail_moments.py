"""Race-level tail moments, built in the tests from per-table sums.

The package's tail statistics carry what its routes read: per character
b_k(u), the single-series ratios and radius. The race moments of the
Rubinstein-Sarnak tail series, B_k = sum over characters alpha^(2k) b_k
and R_k = B_k / B_1^k, its fourth-cumulant ratio beta0 = R_2 at u = 0
and its convergence radius T are built here from zerodata._tail_bk and
the per-character statistics, for the checks that still read them.
"""

import math
from dataclasses import dataclass

from racedensity import zerodata as zd


@dataclass(frozen=True)
class RaceMoments:
    B: tuple      # B_k, k = 1..K
    R: tuple      # R_k = B_k / B_1^k
    beta0: float  # R_2 at u = 0
    T: float      # the race's radius: the smallest per-character one


def race_moments(race, stats, K=8):
    """B_k and R_k for k = 1..K at stats.u, beta0, and the race radius:
    each character's T_single rescaled by its alpha^2 b_1 against the
    race's B_1, NaN where any character has no radius."""
    tables = [zd.resolve_table(e) for e in race.characters]

    def B(u, k):
        return math.fsum(e.alpha ** (2 * k) * zd._tail_bk(t, u, k)
                         for e, t in zip(race.characters, tables))

    Bk = tuple(B(stats.u, k) for k in range(1, K + 1))
    radii = [p.T_single
             * math.sqrt(Bk[0] / (p.alpha ** 2 * (p.b[0] / p.weight)))
             for p in stats.per_char]
    full = B(0.0, 1)
    return RaceMoments(
        B=Bk, R=tuple(b / Bk[0] ** k for k, b in enumerate(Bk, start=1)),
        beta0=B(0.0, 2) / (full * full),
        T=math.nan if any(map(math.isnan, radii)) else min(radii))
