#!/usr/bin/env python3
"""Generate zero-ordinate tables for the racedensity package.

Tables cover the Riemann zeta function and primitive Dirichlet L-functions of
conductor 3, 4, 5, 7, 8, 12, 13 and 24.  For each one the script

  1. evaluates the real Hardy Z function on an adaptive grid along the
     critical line (Euler-Maclaurin Hurwitz-zeta sums, float64, BLAS-batched),
  2. brackets sign changes, rescans suspicious small-|Z| same-sign intervals
     for close zero pairs, and refines brackets by bisection + secant,
  3. polishes low zeros and close pairs with mpmath at elevated precision and
     spot-checks a sample of the rest,
  4. verifies completeness with a counting-function CUSUM and a closed-form
     value of sum 1/(1/4+gamma^2) over the whole spectrum,
  5. writes the table with the metadata needed downstream (conductor, parity,
     weight, spectral sum).

After the tables it prints their build summaries (count, timings, check
results) as one JSON line on stdout.

Complex characters come in conjugate pairs whose zero sets are mirror images
of each other; one merged table (ordinates of both members, equivalently |t|
over the whole critical line for one member) serves the pair and is marked
weight 2.

Any validation failure raises; a table is only written after all its checks
pass.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.special import loggamma

from mpmath import mp

TWOPI = 2.0 * math.pi
EPS = np.finfo(float).eps

# EM truncation presets: (length factor c with N ~ c*t, correction order M).
SCAN = (0.45, 12)    # ~1e-9, cheap; plenty to isolate zeros
FULL = (0.85, 14)    # ~1e-13 relative; used for the final secant rounds


# --------------------------------------------------------------------------
# character registry
# --------------------------------------------------------------------------

def cyclic_expos(q: int, gen: int, order: int, j: int) -> dict[int, Fraction]:
    """Exponents x_n (chi(n) = exp(i*pi*x_n)) for the character on the cyclic
    unit group (Z/q)* that sends gen to exp(2*pi*i*j/order)."""
    out: dict[int, Fraction] = {}
    n = 1
    for k in range(order):
        out[n] = Fraction(2 * j * k, order) % 2
        n = (n * gen) % q
    if n != 1 or len(out) != order:
        raise ValueError(f"bad generator data ({q}, {gen}, {order})")
    return out


@dataclass
class Table:
    key: str
    q: int
    expos: dict[int, Fraction]
    U: float
    n_mp_polish: int = 24
    n_spots: int = 6
    # derived in finish():
    weight: int = 1
    a: int = 0
    chi: dict[int, complex] = field(default_factory=dict)
    eps_m12: complex = 1.0 + 0j
    eps_m12_mp: object = None
    im_worst: float = 0.0

    def finish(self) -> "Table":
        if self.q > 1:
            real = all(e in (0, 1) for e in self.expos.values())
            self.weight = 1 if real else 2
            self.a = 1 if self.expos[self.q - 1] == 1 else 0
            with mp.workdps(30):
                self.chi = {
                    n: complex(mp.expjpi(mp.mpf(e.numerator) / e.denominator))
                    for n, e in self.expos.items()
                }
        return self


def make_tables() -> list[Table]:
    F = Fraction
    tabs = [
        Table("mod13_j1", 13, cyclic_expos(13, 2, 12, 1), 150.0),
        Table("mod13_j2", 13, cyclic_expos(13, 2, 12, 2), 150.0),
        Table("mod13_j3", 13, cyclic_expos(13, 2, 12, 3), 150.0),
        Table("mod13_j4", 13, cyclic_expos(13, 2, 12, 4), 150.0),
        Table("mod13_j5", 13, cyclic_expos(13, 2, 12, 5), 150.0),
        Table("mod5_j1", 5, cyclic_expos(5, 2, 4, 1), 290.0),
        Table("mod7_j1", 7, cyclic_expos(7, 3, 6, 1), 300.0),
        Table("mod7_j2", 7, cyclic_expos(7, 3, 6, 2), 300.0),
        Table("mod12", 12, {1: F(0), 5: F(1), 7: F(1), 11: F(0)}, 350.0),
        Table("mod24_even", 24, {1: F(0), 5: F(0), 7: F(1), 11: F(1),
                                 13: F(1), 17: F(1), 19: F(0), 23: F(0)}, 350.0),
        Table("mod24_odd", 24, {1: F(0), 5: F(0), 7: F(0), 11: F(0),
                                13: F(1), 17: F(1), 19: F(1), 23: F(1)}, 350.0),
        Table("mod3", 3, cyclic_expos(3, 2, 2, 1), 450.0),
        Table("mod5_quad", 5, cyclic_expos(5, 2, 4, 2), 400.0),
        Table("mod8_even", 8, {1: F(0), 3: F(1), 5: F(1), 7: F(0)}, 400.0),
        Table("mod8_odd", 8, {1: F(0), 3: F(0), 5: F(1), 7: F(1)}, 400.0),
        Table("mod13_quad", 13, cyclic_expos(13, 2, 12, 6), 530.0),
        Table("mod7_quad", 7, cyclic_expos(7, 3, 6, 3), 580.0),
        Table("mod4", 4, cyclic_expos(4, 3, 2, 1), 3000.0, n_mp_polish=60, n_spots=10),
        Table("zeta", 1, {}, 15000.0, n_mp_polish=150, n_spots=40),
    ]
    return [t.finish() for t in tabs]


def compute_eps(tb: Table) -> None:
    """Root number via the Gauss sum; sets eps_m12 = eps^(-1/2)."""
    if tb.q == 1:
        tb.eps_m12 = 1.0 + 0j
        with mp.workdps(40):
            tb.eps_m12_mp = mp.mpc(1)
        return
    with mp.workdps(40):
        g = mp.mpc(0)
        for n, e in tb.expos.items():
            ang = mp.mpf(e.numerator) / e.denominator + mp.mpf(2 * n) / tb.q
            g += mp.expjpi(ang)
        eps = g / (mp.expjpi(mp.mpf(tb.a) / 2) * mp.sqrt(tb.q))
        if abs(abs(eps) - 1) > mp.mpf("1e-30"):
            raise RuntimeError(f"{tb.key}: root number off the unit circle: {eps}")
        if tb.weight == 1 and abs(eps - 1) > mp.mpf("1e-30"):
            raise RuntimeError(f"{tb.key}: real primitive character must have eps = 1")
        tb.eps_m12_mp = 1 / mp.sqrt(eps)
        tb.eps_m12 = complex(tb.eps_m12_mp)


# --------------------------------------------------------------------------
# float64 Euler-Maclaurin evaluation of Hardy Z
# --------------------------------------------------------------------------

_B2K: list[float] = []


def _b2k(M: int) -> list[float]:
    global _B2K
    if len(_B2K) <= M:
        with mp.workdps(40):
            _B2K = [float(mp.bernoulli(2 * k) / mp.factorial(2 * k))
                    for k in range(M + 1)]
    return _B2K


def hurwitz_half_line(t: np.ndarray, a: float, N: int, M: int) -> np.ndarray:
    """zeta(1/2 + i*t, a) by Euler-Maclaurin: N power terms, M corrections."""
    s = 0.5 + 1j * t
    b2k = _b2k(M)
    n = np.arange(N, dtype=float) + a
    ln = np.log(n)
    w = np.exp(-0.5 * ln)
    out = np.zeros(t.size, dtype=complex)
    chunk = max(32, int(4_000_000 / max(t.size, 1)))
    for i in range(0, N, chunk):
        A = np.outer(t, ln[i:i + chunk])
        out += np.cos(A) @ w[i:i + chunk]
        out -= 1j * (np.sin(A) @ w[i:i + chunk])
    Na = N + a
    lNa = math.log(Na)
    na_ms = np.exp(-s * lNa)
    out += na_ms * Na / (s - 1.0)
    out += 0.5 * na_ms
    P = s.copy()
    pw = na_ms / Na
    for k in range(1, M + 1):
        out += b2k[k] * P * pw
        if k < M:
            P = P * (s + (2 * k - 1)) * (s + 2 * k)
            pw = pw / (Na * Na)
    return out


def z_values(tb: Table, t: np.ndarray, preset=SCAN) -> np.ndarray:
    """Hardy Z at the given ordinates (any order, any sign)."""
    c_em, M = preset
    order = np.argsort(np.abs(t), kind="stable")
    res = np.empty(t.size)
    B = 1024
    for i in range(0, t.size, B):
        idx = order[i:i + B]
        tt = t[idx]
        tmax = float(np.abs(tt).max())
        N = max(48, int(c_em * tmax) + 48)
        if tb.q == 1:
            L = hurwitz_half_line(tt, 1.0, N, M)
        else:
            L = np.zeros(tt.size, dtype=complex)
            for nres, cval in tb.chi.items():
                L += cval * hurwitz_half_line(tt, nres / tb.q, N, M)
            L *= np.exp(-(0.5 + 1j * tt) * math.log(tb.q))
        zhalf = 0.25 + 0.5 * tb.a + 0.5j * tt
        theta = loggamma(zhalf).imag + 0.5 * tt * math.log(tb.q / math.pi)
        zz = tb.eps_m12 * np.exp(1j * theta) * L
        res[idx] = zz.real
        # floor on the scale: chunks consisting of converged root estimates
        # have |Z| ~ 0, but the imaginary rounding floor does not shrink
        scale = max(float(np.abs(zz).max()), 0.05)
        tb.im_worst = max(tb.im_worst, float(np.abs(zz.imag).max()) / scale)
    return res


# --------------------------------------------------------------------------
# scan / bracket / refine
# --------------------------------------------------------------------------

def _step(tb: Table, t: float) -> float:
    ref = max(abs(t), 10.0)
    dens = max(0.9, math.log(tb.q * ref / TWOPI))
    return min(1.0, TWOPI / (6.0 * dens))


def scan_domains(tb: Table) -> list[tuple[float, float]]:
    lo = 0.02
    if tb.weight == 2:
        return [(-tb.U, -lo), (lo, tb.U)]
    return [(lo, tb.U)]


def build_grid(tb: Table, A: float, B: float, refine_factor: float = 1.0) -> np.ndarray:
    t = A
    seg = [t]
    while t < B:
        t = min(B, t + _step(tb, t) / refine_factor)
        seg.append(t)
    return np.asarray(seg)


def find_brackets(tb: Table, grid: np.ndarray, zv: np.ndarray,
                  check_suspects: bool = True):
    """Sign-change brackets; optionally rescan small-|Z| same-sign intervals
    (close zero pairs hide there)."""
    sgn = np.sign(zv)
    flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    brackets = [(grid[i], grid[i + 1], zv[i], zv[i + 1]) for i in flips]
    n_pair = 0
    if check_suspects:
        absz = np.abs(zv)
        W = 1024
        suspects: list[tuple[int, float]] = []
        for i0 in range(0, zv.size - 1, W):
            i1 = min(zv.size - 1, i0 + W)
            m = float(np.median(absz[i0:min(zv.size, i0 + W)]))
            mask = (sgn[i0:i1] * sgn[i0 + 1:i1 + 1] > 0) & \
                   (np.minimum(absz[i0:i1], absz[i0 + 1:i1 + 1]) < 0.30 * m)
            suspects.extend((int(i0 + j), m) for j in np.nonzero(mask)[0])
        for i, m in suspects:
            a, b = grid[i], grid[i + 1]
            fine = np.linspace(a, b, 34)
            fz = z_values(tb, fine, SCAN)
            fs = np.sign(fz)
            hits = np.nonzero(fs[:-1] * fs[1:] < 0)[0]
            if hits.size == 0 and np.abs(fz[1:-1]).min() < 0.05 * m:
                fine = np.linspace(a, b, 514)
                fz = z_values(tb, fine, SCAN)
                fs = np.sign(fz)
                hits = np.nonzero(fs[:-1] * fs[1:] < 0)[0]
            for h in hits:
                brackets.append((fine[h], fine[h + 1], fz[h], fz[h + 1]))
            n_pair += int(hits.size)
    return brackets, int(flips.size), n_pair


def refine_brackets(tb: Table, brackets) -> np.ndarray:
    """Bisection then bracket-guarded secant; returns signed roots."""
    if not brackets:
        return np.empty(0)
    lo = np.array([b[0] for b in brackets])
    hi = np.array([b[1] for b in brackets])
    flo = np.array([b[2] for b in brackets])
    fhi = np.array([b[3] for b in brackets])
    for _ in range(10):
        mid = 0.5 * (lo + hi)
        fm = z_values(tb, mid, SCAN)
        left = np.sign(fm) == np.sign(flo)
        lo = np.where(left, mid, lo)
        flo = np.where(left, fm, flo)
        hi = np.where(left, hi, mid)
        fhi = np.where(left, fhi, fm)
    x0, f0 = lo.copy(), flo.copy()
    x1, f1 = hi.copy(), fhi.copy()
    root = 0.5 * (lo + hi)
    active = np.ones(lo.size, dtype=bool)
    for _ in range(24):
        if not active.any():
            break
        ia = np.nonzero(active)[0]
        d = f1[ia] - f0[ia]
        with np.errstate(divide="ignore", invalid="ignore"):
            x2 = x1[ia] - f1[ia] * (x1[ia] - x0[ia]) / d
        bad = ~np.isfinite(x2) | (x2 <= lo[ia]) | (x2 >= hi[ia])
        x2 = np.where(bad, 0.5 * (lo[ia] + hi[ia]), x2)
        f2 = z_values(tb, x2, FULL)
        left = np.sign(f2) == np.sign(flo[ia])
        lo[ia] = np.where(left, x2, lo[ia])
        flo[ia] = np.where(left, f2, flo[ia])
        hi[ia] = np.where(left, hi[ia], x2)
        fhi[ia] = np.where(left, fhi[ia], f2)
        x0[ia], f0[ia] = x1[ia], f1[ia]
        x1[ia], f1[ia] = x2, f2
        root[ia] = x2
        tol = np.maximum(1e-13, 8 * EPS * np.abs(root))
        active &= (hi - lo) > tol
    width = hi - lo
    tol = np.maximum(1e-13, 8 * EPS * np.abs(root))
    if (width > 8 * tol).any():
        worst = float(width.max())
        raise RuntimeError(f"{tb.key}: secant failed to converge (worst width {worst:g})")
    return 0.5 * (lo + hi)


def dedupe(signed: np.ndarray) -> np.ndarray:
    if signed.size == 0:
        return signed
    s = np.sort(signed)
    groups = [[s[0]]]
    for x in s[1:]:
        if x - groups[-1][-1] < 1e-7:
            groups[-1].append(x)
        else:
            groups.append([x])
    return np.array([float(np.mean(g)) for g in groups])


# --------------------------------------------------------------------------
# completeness checks
# --------------------------------------------------------------------------

def smooth_count(tb: Table, g: np.ndarray) -> np.ndarray:
    return tb.weight / TWOPI * g * (np.log(tb.q * g / TWOPI) - 1.0)


def counting_residuals(tb: Table, g: np.ndarray) -> np.ndarray:
    return np.arange(1, g.size + 1) - smooth_count(tb, g)


def cusum_ranges(tb: Table, g: np.ndarray) -> list[tuple[float, float]]:
    """Gamma ranges where the counting residual level-shifts down, which is
    the signature of missed zeros."""
    R = counting_residuals(tb, g)
    W = 64
    if g.size < 3 * W:
        return []
    meds = []
    for i0 in range(0, g.size - W + 1, W // 2):
        meds.append((i0, float(np.median(R[i0:i0 + W]))))
    bad = []
    for (ia, ma), (ib, mb) in zip(meds, meds[1:]):
        if mb - ma < -0.75:
            a = float(g[max(0, ia)]) - 1.0
            b = float(g[min(g.size - 1, ib + W)]) + 1.0
            bad.append((a, b))
    merged: list[tuple[float, float]] = []
    for a, b in sorted(bad):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def rescan_range(tb: Table, a: float, b: float) -> np.ndarray:
    a = max(a, 0.02)
    b = min(b, tb.U)
    if b <= a:
        return np.empty(0)
    out = []
    doms = [(a, b)] if tb.weight == 1 else [(a, b), (-b, -a)]
    for A, B in doms:
        grid = build_grid(tb, A, B, refine_factor=16.0)
        zv = z_values(tb, grid, SCAN)
        brk, _, _ = find_brackets(tb, grid, zv, check_suspects=True)
        out.append(refine_brackets(tb, brk))
    return np.concatenate(out) if out else np.empty(0)


# --------------------------------------------------------------------------
# mpmath reference layer
# --------------------------------------------------------------------------

def mp_L(tb: Table, s):
    tot = mp.mpc(0)
    for n, e in tb.expos.items():
        tot += mp.expjpi(mp.mpf(e.numerator) / e.denominator) * \
            mp.zeta(s, mp.mpf(n) / tb.q)
    return mp.power(tb.q, -s) * tot


def mp_Z(tb: Table, t):
    if tb.q == 1:
        return mp.siegelz(t)
    s = mp.mpf("0.5") + mp.mpc(0, 1) * t
    z = (s + tb.a) / 2
    theta = mp.im(mp.loggamma(z)) + t / 2 * mp.log(mp.mpf(tb.q) / mp.pi)
    return mp.re(tb.eps_m12_mp * mp.expj(theta) * mp_L(tb, s))


def mp_polish(tb: Table, t_seed: float, dps: int = 22, itmax: int = 6) -> float:
    """Secant refinement of one (signed) zero ordinate at elevated precision."""
    with mp.workdps(dps):
        t0 = mp.mpf(repr(float(t_seed)))
        t1 = t0 + mp.mpf("1e-7")
        f0 = mp_Z(tb, t0)
        f1 = mp_Z(tb, t1)
        for _ in range(itmax):
            if f1 == f0:
                break
            t2 = t1 - f1 * (t1 - t0) / (f1 - f0)
            t0, f0 = t1, f1
            t1, f1 = t2, mp_Z(tb, t2)
            if abs(t1 - t0) < mp.mpf("1e-18") * max(1, abs(t1)):
                break
        return float(t1)


def b1_total_value(tb: Table) -> float:
    """Closed form for the sum of 1/(1/4+gamma^2) over the table's entire
    spectrum (to infinity), from the logarithmic derivative of the completed
    L-function at s=1.

    L(1) and L'(1) come from the Laurent expansion of the Hurwitz zeta at
    s=1 (the character sum kills the poles): the constant terms are -psi(a)
    and the generalized Stieltjes constant -gamma_1(a)."""
    with mp.workdps(30):
        if tb.q == 1:
            return float(1 + mp.euler / 2 - mp.log(4 * mp.pi) / 2)
        L1 = mp.mpc(0)
        S1 = mp.mpc(0)
        for n, e in tb.expos.items():
            cv = mp.expjpi(mp.mpf(e.numerator) / e.denominator)
            aa = mp.mpf(n) / tb.q
            L1 -= cv * mp.digamma(aa)
            S1 -= cv * mp.stieltjes(1, aa)
        L1 = L1 / tb.q
        dL1 = -mp.log(tb.q) * L1 + S1 / tb.q
        v = mp.log(mp.mpf(tb.q) / mp.pi) + mp.digamma((1 + tb.a) / mp.mpf(2)) \
            + 2 * mp.re(dL1 / L1)
        if tb.weight == 1:
            v = v / 2
        return float(v)


# --------------------------------------------------------------------------
# per-table driver
# --------------------------------------------------------------------------

def build_table(tb: Table, outdir: Path) -> dict:
    t_start = time.time()
    compute_eps(tb)
    info: dict = {"key": tb.key, "q": tb.q, "weight": tb.weight, "parity": tb.a}

    roots = []
    nflip = npair = 0
    for A, B in scan_domains(tb):
        grid = build_grid(tb, A, B)
        zv = z_values(tb, grid, SCAN)
        brk, nf, npp = find_brackets(tb, grid, zv)
        roots.append(refine_brackets(tb, brk))
        nflip += nf
        npair += npp
    signed = dedupe(np.concatenate(roots))
    info["scan_flips"] = nflip
    info["close_pair_zeros"] = npair

    # completeness: counting residual CUSUM, rescan any suspicious range
    for attempt in range(3):
        g = np.sort(np.abs(signed))
        ranges = cusum_ranges(tb, g)
        info["cusum_attempts"] = attempt
        if not ranges:
            break
        extra = [rescan_range(tb, a, b) for a, b in ranges]
        signed = dedupe(np.concatenate([signed] + extra))
    else:
        raise RuntimeError(f"{tb.key}: counting residual still shifting after rescans")

    # polish low zeros and close pairs at elevated precision
    order = np.argsort(np.abs(signed))
    g_abs = np.abs(signed)[order]
    polish_idx = set(order[:tb.n_mp_polish].tolist())
    gaps = np.diff(g_abs)
    mean_gap = TWOPI / (tb.weight * np.log(np.maximum(tb.q * g_abs[1:] / TWOPI, 1.5)))
    close = np.nonzero(gaps < 0.15 * mean_gap)[0]
    for i in close:
        # same-sign neighbors only: opposite-sign ordinates are far apart on
        # the critical line even when their absolute values nearly coincide
        si, sj = order[i], order[i + 1]
        if np.sign(signed[si]) == np.sign(signed[sj]):
            polish_idx.add(int(si))
            polish_idx.add(int(sj))
    max_dpolish = 0.0
    for i in sorted(polish_idx):
        ref = mp_polish(tb, signed[i], dps=25 if abs(signed[i]) > 500 else 22)
        max_dpolish = max(max_dpolish, abs(ref - signed[i]))
        signed[i] = ref
    if max_dpolish > 5e-10:
        raise RuntimeError(f"{tb.key}: polish moved a zero by {max_dpolish:g}")
    info["n_polished"] = len(polish_idx)
    info["polish_max_delta"] = max_dpolish

    # spot checks on the unpolished range
    n = signed.size
    worst_spot = 0.0
    if tb.n_spots > 0 and n > tb.n_mp_polish + 4:
        order = np.argsort(np.abs(signed))
        qs = np.linspace(0.05, 0.95, tb.n_spots)
        for f in qs:
            i = int(order[int(tb.n_mp_polish + f * (n - tb.n_mp_polish - 1))])
            ref = mp_polish(tb, signed[i], dps=18, itmax=3)
            dd = abs(ref - signed[i])
            worst_spot = max(worst_spot, dd)
            if dd > 2e-10:
                raise RuntimeError(f"{tb.key}: spot check off by {dd:g} at {signed[i]:.3f}")
    info["spot_worst"] = worst_spot

    g = np.sort(np.abs(signed))

    # zeta only: indexed cross-check against an independent implementation
    if tb.q == 1:
        idxs = list(range(1, 31)) + [100, 300, 1000, 3000, 8000, 16000]
        with mp.workdps(20):
            for nidx in idxs:
                if nidx <= g.size:
                    ref = float(mp.im(mp.zetazero(nidx)))
                    if abs(ref - g[nidx - 1]) > 1e-9:
                        raise RuntimeError(
                            f"zeta: ordinate {nidx} is {g[nidx - 1]!r}, reference {ref!r}")
        info["zeta_index_check"] = len([i for i in idxs if i <= g.size])

    # counting residual statistics. Sampled AT the jump points the residual
    # mean sits at (formula constant) + 1/2; the constant is 7/8 for zeta,
    # and for primitive real or conjugate-pair-merged Dirichlet tables it is
    # parity-universal (the Gauss-sum phase cancels), empirically -1/8 + a/4
    # per character. A single missed or spurious zero shifts the mean by
    # about +-0.5 times its depth into the list, so a +-0.2 band catches any
    # miscount in the bulk while CUSUM covers ones near the top.
    R = counting_residuals(tb, g)
    info["resid_mean"] = float(R.mean())
    info["resid_min"] = float(R.min())
    info["resid_max"] = float(R.max())
    if tb.q == 1:
        expect = 0.875 + 0.5
    else:
        expect = tb.weight * (-0.125 + 0.25 * tb.a) + 0.5
    if abs(R.mean() - expect) > 0.2:
        raise RuntimeError(
            f"{tb.key}: counting residual mean {R.mean():g}, expected ~{expect:g}")

    # spectral-sum identity
    b1tot = b1_total_value(tb)
    head = float(np.sum(1.0 / (0.25 + g * g)))
    y = math.log(tb.q * tb.U / TWOPI)
    tail = tb.weight * (y + 1.0) / (TWOPI * tb.U)
    cbar = float(np.median(R[g.size // 2:]))
    # partial summation: tail = smooth integral + (mean residual - boundary
    # residual)/(1/4+U^2); the two residual terms largely cancel
    r_end = g.size - float(smooth_count(tb, np.array([tb.U]))[0])
    tail += (cbar - r_end) / (0.25 + tb.U * tb.U)
    diff = b1tot - head - tail
    # floor: the oscillating part of the counting function contributes
    # O(weight/U^2) to the true tail, which the smooth estimate cannot see
    tol = max(3e-6 * abs(b1tot), 2.5 * tb.weight / tb.U ** 2)
    info["b1_total"] = b1tot
    info["b1_identity_diff"] = diff
    info["b1_identity_tol"] = tol
    if not (math.isfinite(diff) and abs(diff) <= tol):
        raise RuntimeError(f"{tb.key}: spectral sum mismatch {diff:g} (tol {tol:g})")

    if tb.im_worst > 1e-8:
        raise RuntimeError(f"{tb.key}: Z not numerically real ({tb.im_worst:g})")
    info["im_worst"] = tb.im_worst
    info["count"] = int(g.size)
    info["gamma_first"] = float(g[0])
    info["gamma_last"] = float(g[-1])
    info["seconds"] = round(time.time() - t_start, 2)

    write_table(tb, g, b1tot, outdir / f"{tb.key}.txt")
    return info


def write_table(tb: Table, g: np.ndarray, b1tot: float, path: Path) -> None:
    chi_desc = " ".join(f"{n}:{e}" for n, e in sorted(tb.expos.items())) or "1:0"
    lines = [
        "# racedensity zero table",
        f"# key: {tb.key}",
        f"# qstar: {tb.q}",
        f"# parity: {tb.a}",
        f"# weight: {tb.weight}",
        f"# count: {g.size}",
        f"# max_gamma: {tb.U:.6f}",
        f"# b1_total: {b1tot!r}",
        f"# chi: {chi_desc}",
        "# method: euler-maclaurin hurwitz zeta scan (float64), secant polish,"
        " mpmath validation",
    ]
    lines.extend(f"{x:.17g}" for x in g)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# self test
# --------------------------------------------------------------------------

def self_test() -> None:
    print("self-test: Euler-Maclaurin vs mpmath hurwitz", flush=True)
    assert abs(_b2k(2)[1] - 1.0 / 12.0) < 1e-16
    for tval, aval in [(2.5, 1.0), (50.3, 1 / 3), (500.7, 3 / 7),
                       (3000.1, 23 / 24), (14990.4, 1.0)]:
        with mp.workdps(25):
            ref = complex(mp.zeta(mp.mpc(0.5, tval), mp.mpf(aval)))
        for (c_em, M), tol in [(FULL, 5e-13), (SCAN, 2e-9)]:
            N = max(48, int(c_em * tval) + 48)
            mine = hurwitz_half_line(np.array([tval]), aval, N, M)[0]
            # the 5e-15*t term is the float64 phase-rounding floor: arguments
            # t*log(n) are O(1e5) and round to ~eps*|arg|
            bound = tol * abs(ref) + 5e-15 * max(tval, 1.0)
            if abs(mine - ref) > bound:
                raise RuntimeError(
                    f"EM mismatch t={tval} a={aval} c={c_em}: "
                    f"abs {abs(mine - ref):g} > {bound:g}")

    tabs = {t.key: t for t in make_tables()}

    print("self-test: zeta Z vs siegelz", flush=True)
    tz = tabs["zeta"]
    compute_eps(tz)
    for tval in [14.0, 100.1, 1000.3, 7005.06]:
        mine = z_values(tz, np.array([tval]), FULL)[0]
        with mp.workdps(20):
            ref = float(mp.siegelz(tval))
        if abs(mine - ref) > 1e-10 * max(1.0, abs(ref)):
            raise RuntimeError(f"zeta Z mismatch at t={tval}: {mine!r} vs {ref!r}")

    print("self-test: Dirichlet Z real and vs mpmath", flush=True)
    for key in ["mod4", "mod5_j1", "mod13_j5", "mod24_even"]:
        tb = tabs[key]
        compute_eps(tb)
        ts = np.array([3.2, 17.9, 61.7, -44.3] if tb.weight == 2 else [3.2, 17.9, 61.7])
        mine = z_values(tb, ts, FULL)
        for tval, mv in zip(ts, mine):
            with mp.workdps(22):
                ref = float(mp_Z(tb, mp.mpf(repr(float(tval)))))
            if abs(mv - ref) > 1e-10 * max(1.0, abs(ref)):
                raise RuntimeError(f"{key} Z mismatch at t={tval}: {mv!r} vs {ref!r}")
        if tb.im_worst > 1e-10:
            raise RuntimeError(f"{key}: Z imaginary part too large ({tb.im_worst:g})")

    print("self-test: first-zero anchors", flush=True)
    tm4 = tabs["mod4"]
    grid = build_grid(tm4, 0.02, 15.0)
    zv = z_values(tm4, grid, SCAN)
    brk, _, _ = find_brackets(tm4, grid, zv)
    r = refine_brackets(tm4, brk)
    if not (r.size >= 1 and abs(r[0] - 6.0209489046975965) < 1e-8):
        raise RuntimeError(f"mod4 first zero wrong: {r[:2]}")
    grid = build_grid(tz, 0.02, 22.0)
    zv = z_values(tz, grid, SCAN)
    brk, _, _ = find_brackets(tz, grid, zv)
    r = refine_brackets(tz, brk)
    if not (r.size == 2 and abs(r[0] - 14.134725141734694) < 1e-8
            and abs(r[1] - 21.022039638771555) < 1e-8):
        raise RuntimeError(f"zeta first zeros wrong: {r}")
    print("self-test: all passed", flush=True)


# --------------------------------------------------------------------------

def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="src/racedensity/data")
    ap.add_argument("--only", nargs="*", default=None,
                    help="subset of table keys to build")
    ap.add_argument("--self-test-only", action="store_true")
    ap.add_argument("--skip-self-test", action="store_true")
    args = ap.parse_args()

    if not args.skip_self_test:
        self_test()
    if args.self_test_only:
        return

    outdir = Path(args.out)
    summaries = []
    for tb in make_tables():
        if args.only and tb.key not in args.only:
            continue
        print(f"[{time.strftime('%H:%M:%S')}] building {tb.key} "
              f"(q={tb.q}, U={tb.U}, weight={tb.weight})", flush=True)
        info = build_table(tb, outdir)
        summaries.append(info)
        print(f"  -> {info['count']} zeros in {info['seconds']}s; "
              f"resid mean {info['resid_mean']:.3f}; "
              f"b1 diff {info['b1_identity_diff']:.2e} (tol {info['b1_identity_tol']:.2e}); "
              f"polish {info['n_polished']} (max {info['polish_max_delta']:.2e}); "
              f"spots worst {info['spot_worst']:.2e}", flush=True)

    # the per-table summaries, one JSON line on stdout
    print(json.dumps(summaries), flush=True)
    print("all requested tables built", flush=True)


if __name__ == "__main__":
    main()
