#!/usr/bin/env python3
"""Fit the Chebyshev series of J0's Hankel form for z > 6.

For z > 6, J0(z) = sqrt(2/(pi z)) (P(z) cos chi - Q(z) sin chi) with
chi = z - pi/4. P and z*Q are smooth functions of 1/z^2 that tend to 1
and -1/8; this script expands P - 1 and z*Q + 1/8 as Chebyshev series
in y = 72/z^2 - 1, which maps z in [6, inf) onto y in (-1, 1]. The
values come from mpmath at 50 digits, through
    P = sqrt(pi z/2) (J0 cos chi + Y0 sin chi)
    Q = sqrt(pi z/2) (Y0 cos chi - J0 sin chi)
at the zeros of a Chebyshev polynomial of high degree, where the
interpolating series is a near-minimax fit. Every coefficient that
reaches TOL (absolute, on functions of size 1) is kept. The truncated
series are then rewritten exactly in powers of y, a change of basis
that loses nothing here (the sums of the absolute coefficients agree to
2%), and each coefficient is rounded once to a double; a Horner pass
over powers takes fewer array operations than Clenshaw's recurrence.

Run from the root of a checkout:

    python3 scripts/fit_j0_tail.py

Prints the two coefficient lists as Python literals, lowest power
first, the rows of specfun._J0_TAIL, then the largest difference
between each rounded polynomial and mpmath on a fine check grid.
"""

from __future__ import annotations

import mpmath

NODES = 64
TOL = 2e-18
CHECK = 2000


def _pq(z: mpmath.mpf) -> tuple[mpmath.mpf, mpmath.mpf]:
    # P - 1 and z Q + 1/8 at z
    chi = z - mpmath.pi / 4
    j0, y0 = mpmath.besselj(0, z), mpmath.bessely(0, z)
    amp = mpmath.sqrt(mpmath.pi * z / 2)
    p = amp * (j0 * mpmath.cos(chi) + y0 * mpmath.sin(chi))
    q = amp * (y0 * mpmath.cos(chi) - j0 * mpmath.sin(chi))
    return p - 1, z * q + mpmath.mpf(1) / 8


def _z(y: mpmath.mpf) -> mpmath.mpf:
    return mpmath.sqrt(72 / (y + 1))


def _chebyshev(part: int, vals, ys) -> list[mpmath.mpf]:
    # the interpolating Chebyshev coefficients of one function, cut
    # after the last that reaches TOL
    n = len(ys)
    coeffs = [(1 if j == 0 else 2) * mpmath.fsum(
        v[part] * mpmath.cos(mpmath.pi * j * (k + mpmath.mpf(1) / 2) / n)
        for k, v in enumerate(vals)) / n for j in range(n)]
    keep = max(j for j, c in enumerate(coeffs) if abs(c) >= TOL) + 1
    return coeffs[:keep]


def _powers(cheb: list[mpmath.mpf]) -> list[mpmath.mpf]:
    # sum_j cheb[j] T_j(y) in powers of y, by T_j = 2y T_(j-1) - T_(j-2)
    basis = [[mpmath.mpf(1)], [mpmath.mpf(0), mpmath.mpf(1)]]
    while len(basis) < len(cheb):
        nxt = [mpmath.mpf(0)] + [2 * a for a in basis[-1]]
        for k, b in enumerate(basis[-2]):
            nxt[k] -= b
        basis.append(nxt)
    out = [mpmath.mpf(0)] * len(cheb)
    for c, t in zip(cheb, basis):
        for k, a in enumerate(t):
            out[k] += c * a
    return out


def fit() -> tuple[list[float], list[float]]:
    ys = [mpmath.cos(mpmath.pi * (k + mpmath.mpf(1) / 2) / NODES)
          for k in range(NODES)]
    vals = [_pq(_z(y)) for y in ys]
    return tuple([float(c) for c in _powers(_chebyshev(part, vals, ys))]
                 for part in range(2))


def main() -> None:
    mpmath.mp.dps = 50
    rows = fit()
    for name, row in zip(("P - 1", "zQ + 1/8"), rows):
        print(f"# {name}\n({', '.join(repr(c) for c in row)})")
    worst = [mpmath.mpf(0), mpmath.mpf(0)]
    for i in range(1, CHECK + 1):
        y = -1 + 2 * mpmath.mpf(i) / CHECK
        want = _pq(_z(y))
        for part, row in enumerate(rows):
            got = mpmath.polyval([mpmath.mpf(c) for c in reversed(row)], y)
            worst[part] = max(worst[part], abs(got - want[part]))
    print(f"# terms {len(rows[0])} and {len(rows[1])}; largest error "
          f"{mpmath.nstr(worst[0], 3)} (P) and {mpmath.nstr(worst[1], 3)} (zQ)")


if __name__ == "__main__":
    main()
