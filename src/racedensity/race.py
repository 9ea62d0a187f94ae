"""Race definitions: moduli, contestants, character data, bias offsets.

A race compares prime counts across residue classes of a small modulus q
(or pi(x) against Li(x) when q = 1). Everything a distribution calculation
needs is collected in a RaceSpec: the characters that drive the
fluctuation, their coefficients alpha, the zero-table each one draws from,
and the offset v at which the exceedance probability E(v) answers the
race question.

Supported moduli are fixed to the small set this package ships zero data
for, a table in its data directory for every character. A race of any
other modulus, or with other coefficients or offset, is a RaceSpec of
RaceEntry values whose tables are zero table files; each file's headers
give the conductor and weight its entry must match (see
zerodata.load_zeros). Every RaceSpec holds at least one character, each
with alpha in (0, 1].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "Character",
    "RaceEntry",
    "RaceError",
    "RaceSpec",
    "SUPPORTED_MODULI",
    "alpha_coeffs",
    "characters",
    "prime_count_race",
    "square_race",
    "square_root_count",
    "two_way_race",
]

SUPPORTED_MODULI = (1, 4, 5, 7, 8, 13, 24)

# unit group generators (g, order) for each supported modulus; every unit
# is a unique product of generator powers, and characters are indexed by
# exponent tuples against these
_GENERATORS = {
    1: (),
    4: ((3, 2),),
    5: ((2, 4),),
    7: ((3, 6),),
    8: ((7, 2), (5, 2)),
    13: ((2, 12),),
    24: ((23, 2), (7, 2), (13, 2)),
}

# bundled zero-table key per character label; conjugate pairs share one
# merged table (both members' positive ordinates, ascending)
_TABLE_KEYS = {
    (4, "mod4"): "mod4",
    (5, "q5.j1"): "mod5_j1", (5, "q5.j2"): "mod5_quad", (5, "q5.j3"): "mod5_j1",
    (7, "q7.j1"): "mod7_j1", (7, "q7.j2"): "mod7_j2", (7, "q7.j3"): "mod7_quad",
    (7, "q7.j4"): "mod7_j2", (7, "q7.j5"): "mod7_j1",
    (8, "q8.m4"): "mod4", (8, "q8.m8"): "mod8_odd", (8, "q8.p8"): "mod8_even",
    (13, "q13.j01"): "mod13_j1", (13, "q13.j02"): "mod13_j2",
    (13, "q13.j03"): "mod13_j3", (13, "q13.j04"): "mod13_j4",
    (13, "q13.j05"): "mod13_j5", (13, "q13.j06"): "mod13_quad",
    (13, "q13.j07"): "mod13_j5", (13, "q13.j08"): "mod13_j4",
    (13, "q13.j09"): "mod13_j3", (13, "q13.j10"): "mod13_j2",
    (13, "q13.j11"): "mod13_j1",
    (24, "q24.c3"): "mod3", (24, "q24.c4"): "mod4",
    (24, "q24.c8e"): "mod8_even", (24, "q24.c8o"): "mod8_odd",
    (24, "q24.c12"): "mod12", (24, "q24.c24e"): "mod24_even",
    (24, "q24.c24o"): "mod24_odd",
}


class RaceError(ValueError):
    pass


def _euler_phi(q: int) -> int:
    return sum(1 for n in range(1, q + 1) if math.gcd(n, q) == 1) if q > 1 else 1


@dataclass(frozen=True)
class Character:
    """One nontrivial Dirichlet character mod q, with its values cached
    for every residue and the bundled zero table it draws on."""
    label: str
    q: int
    qstar: int        # conductor
    parity: int       # chi(-1) = (-1)**parity
    order: int
    table_key: str
    values: tuple[complex, ...]   # indexed by n mod q; 0 on non-units

    def value(self, n: int) -> complex:
        return self.values[n % self.q]


def _conductor(q: int, values: tuple[complex, ...]) -> int:
    # smallest divisor d of q such that the character only depends on the
    # residue mod d (over units of q)
    units = [n for n in range(1, q) if math.gcd(n, q) == 1]
    for d in sorted(k for k in range(1, q + 1) if q % k == 0):
        classes: dict[int, complex] = {}
        ok = True
        for n in units:
            r = n % d
            if r in classes:
                if abs(classes[r] - values[n]) > 1e-12:
                    ok = False
                    break
            else:
                classes[r] = values[n]
        if ok:
            return d
    return q


@lru_cache(maxsize=None)
def characters(q: int) -> tuple[Character, ...]:
    """All nontrivial characters mod q in fixed (lexicographic label)
    order. Empty for q = 1."""
    if q not in SUPPORTED_MODULI:
        raise RaceError(
            f"modulus {q} not supported; supported: {SUPPORTED_MODULI}. "
            "Build other races from RaceEntry values with table files.")
    gens = _GENERATORS[q]
    if not gens:
        return ()
    # exponent vector of every unit against the generator list
    expo = {1: (0,) * len(gens)}
    stack = [1]
    while stack:
        n = stack.pop()
        e = expo[n]
        for i, (g, _) in enumerate(gens):
            m = (n * g) % q
            if m not in expo:
                e2 = list(e)
                e2[i] = (e2[i] + 1) % gens[i][1]
                expo[m] = tuple(e2)
                stack.append(m)
    # character indexed by exponent tuple s (not all zero):
    #   chi_s(n) = prod_i exp(2 pi i s_i e_i / d_i)
    out = []
    index_tuples = [()]
    for _, d in gens:
        index_tuples = [t + (s,) for t in index_tuples for s in range(d)]
    for s in index_tuples:
        if all(x == 0 for x in s):
            continue
        vals = [0j] * q
        for n, e in expo.items():
            ph = sum(si * ei / di for si, ei, (_, di) in zip(s, e, gens))
            v = cmath.exp(2j * math.pi * ph)
            # snap real characters onto exact +-1
            if abs(v.imag) < 1e-12:
                v = complex(round(v.real), 0.0)
            vals[n] = v
        order = 1
        for si, (_, di) in zip(s, gens):
            if si:
                oi = di // math.gcd(si, di)
                order = order * oi // math.gcd(order, oi)
        label = _label_for(q, s, gens)
        par = 0 if abs(vals[(q - 1) % q] - 1) < 1e-9 else 1
        out.append(Character(
            label=label, q=q, qstar=_conductor(q, tuple(vals)), parity=par,
            order=order, table_key=_TABLE_KEYS[q, label],
            values=tuple(vals)))
    out.sort(key=lambda c: c.label)
    return tuple(out)


def _label_for(q: int, s: tuple[int, ...], gens) -> str:
    if q == 4:
        return "mod4"
    if q in (5, 7, 13):
        return f"q{q}.j{s[0]:02d}" if q == 13 else f"q{q}.j{s[0]}"
    if q == 8:
        # s = (a, b) against generators (7, 5): (1,0) is the conductor-4
        # character, (0,1) the even conductor-8 one, (1,1) the odd one
        return {(1, 0): "q8.m4", (0, 1): "q8.p8", (1, 1): "q8.m8"}[s]
    if q == 24:
        # s against generators (23, 7, 13); conductor and parity determine
        # the classical name for each of the 7 real characters
        return {(1, 0, 0): "q24.c3", (1, 1, 0): "q24.c4", (0, 0, 1): "q24.c8e",
                (1, 1, 1): "q24.c8o", (0, 1, 0): "q24.c12",
                (0, 1, 1): "q24.c24e", (1, 0, 1): "q24.c24o"}[s]
    raise RaceError(f"no labeling for q={q}")


def alpha_coeffs(q: int, a: int, b: int) -> tuple[tuple[Character, float], ...]:
    """alpha per nontrivial character for the two-way race of residue
    classes a and b: alpha = |chi(a) - chi(b)|/2, in [0, 1]."""
    if math.gcd(a, q) != 1 or math.gcd(b, q) != 1:
        raise RaceError(f"residues ({a}, {b}) must be coprime to q={q}")
    if (a - b) % q == 0:
        raise RaceError(f"residues ({a}, {b}) coincide mod {q}")
    out = []
    for c in characters(q):
        alpha = abs(c.value(a) - c.value(b)) / 2.0
        if alpha > 1.0 + 1e-12:
            raise RaceError(f"alpha out of range for {c.label}: {alpha}")
        out.append((c, min(alpha, 1.0)))
    total = sum(al * al for _, al in out)
    phi_half = _euler_phi(q) / 2.0
    if abs(total - phi_half) > 1e-12:
        raise RaceError(
            f"character sum broken for q={q}: sum alpha^2 = {total!r}, "
            f"expected phi(q)/2 = {phi_half!r}")
    return tuple(out)


def square_root_count(q: int, n: int) -> int:
    """c(n) = #{x mod q : x^2 = n mod q} - 1, the density-bias count."""
    if math.gcd(n, q) != 1:
        raise RaceError(f"n={n} not coprime to q={q}")
    return sum(1 for x in range(q) if (x * x - n) % q == 0) - 1


@dataclass(frozen=True)
class RaceEntry:
    """One fluctuation series of a race: a character (or the zeta series),
    its coefficient, and the zero table that feeds it."""
    label: str
    qstar: int
    alpha: float
    table: str     # bundled table key, or a zero table file path
    weight: int = 1   # number of L-functions merged in the table


@dataclass(frozen=True)
class RaceSpec:
    q: int
    kind: str                       # prime-count | two-way | square-vs-nonsquare
    contestants: tuple[int, ...]    # () | (a, b)
    characters: tuple[RaceEntry, ...]
    offset: float
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("prime-count", "two-way", "square-vs-nonsquare"):
            raise RaceError(f"unknown race kind {self.kind!r}")
        if not self.offset >= 0.0:
            raise RaceError(f"offset must be >= 0, got {self.offset!r}")
        if not self.characters:
            raise RaceError("a race needs at least one character")
        for e in self.characters:
            if not 0.0 < e.alpha <= 1.0:
                raise RaceError(
                    f"alpha for {e.label} outside (0, 1]: {e.alpha}")
        if self.kind == "two-way" and self.q in SUPPORTED_MODULI:
            total = sum(e.alpha ** 2 * e.weight for e in self.characters)
            phi_half = _euler_phi(self.q) / 2.0
            if abs(total - phi_half) > 1e-12:
                raise RaceError(
                    f"sum of alpha^2 over characters is {total!r}, "
                    f"expected phi({self.q})/2 = {phi_half!r}")


def _entries_from_alphas(q, coeffs) -> tuple[RaceEntry, ...]:
    # merge conjugate pairs onto their shared table, drop alpha = 0. A
    # true zero can come out of the complex character values as a few
    # 1e-15, differently for the two members of a pair; the smallest
    # genuine alpha is sin(pi/12) = 0.2588
    by_table: dict[str, list] = {}
    order: list[str] = []
    for c, al in coeffs:
        if al < 1e-12:
            continue
        if c.table_key not in by_table:
            by_table[c.table_key] = [c, al, 0]
            order.append(c.table_key)
        rec = by_table[c.table_key]
        if abs(rec[1] - al) > 1e-12:
            raise RaceError(
                f"conjugate characters disagree on alpha for {c.table_key}")
        rec[2] += 1
    out = []
    for key in order:
        c, al, mult = by_table[key]
        out.append(RaceEntry(label=key, qstar=c.qstar, alpha=al,
                             table=key, weight=mult))
    return tuple(out)


def prime_count_race() -> RaceSpec:
    """pi(x) against Li(x): the single zeta series, unit coefficient,
    and the bias offset 1 from the square-prime term."""
    entry = RaceEntry(label="zeta", qstar=1, alpha=1.0, table="zeta")
    return RaceSpec(q=1, kind="prime-count", contestants=(),
                    characters=(entry,), offset=1.0, name="zeta")


def two_way_race(q: int, a: int, b: int) -> RaceSpec:
    """Race of residue class a against residue class b mod q.

    The offset is (c(a) - c(b))/2 where c counts square roots: residue
    classes with more square roots sit persistently lower, and each
    square root shifts the normalized fluctuation by one half. This
    reproduces every published case (offset 1 for q = 4, 5, 7, 13 races
    of 1 against a nonresidue; 2 for the mod 8 race of 1 against 3).
    """
    a, b = a % q, b % q
    coeffs = alpha_coeffs(q, a, b)
    off = (square_root_count(q, a) - square_root_count(q, b)) / 2.0
    if off < 0:
        raise RaceError(
            f"race ({a} leads {b}) mod {q} has negative bias {off}; "
            f"state it as ({b} leads {a}) and use 1 - E({-off})")
    return RaceSpec(q=q, kind="two-way", contestants=(a, b),
                    characters=_entries_from_alphas(q, coeffs), offset=off,
                    name=f"q{q}.{a}v{b}")


def square_race(q: int) -> RaceSpec:
    """Square versus nonsquare residues mod an odd prime q: its one
    quadratic character with unit coefficient, on that character's
    table_key, offset 1 (all the square-root excess sits on the residue
    side). Mod 8, with three quadratic characters, raises RaceError."""
    if q == 4:
        # squares mod 4 are just {1}, so this is the 1-versus-3 race
        spec = two_way_race(4, 1, 3)
        return RaceSpec(q=4, kind="square-vs-nonsquare", contestants=(1, 3),
                        characters=spec.characters, offset=spec.offset,
                        name="q4.square")
    quads = [c for c in characters(q) if c.order == 2]
    if len(quads) != 1:
        raise RaceError(f"no square race for q={q}")
    quad, = quads
    entry = RaceEntry(label=quad.label, qstar=quad.qstar, alpha=1.0,
                      table=quad.table_key)
    return RaceSpec(q=q, kind="square-vs-nonsquare", contestants=(),
                    characters=(entry,), offset=1.0, name=f"q{q}.square")
