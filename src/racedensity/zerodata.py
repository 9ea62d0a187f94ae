"""Zero tables and the tail statistics built from them.

Every calculation route starts from lists of positive imaginary parts
gamma of nontrivial L-function zeros. This module loads and validates
those lists, evaluates the inverse-power sums

    b_k(u) = sum over gamma > u of (1/4 + gamma^2)^(-k)

with an analytic continuation past the end of each table, and aggregates
them across the characters of a race into the moment data (B_k, R_k,
sigma_u, convergence radius T, explicit span S) that the Fourier and
cumulant (saddle-point) layers consume. Each table carries two indexes of
these sums, built on first use and only as far as a call reaches: exact
prefix sums at every 128th zero, from which b_k(u) and S(u) come rounded
once (_PrefixSums), and, for the Fourier route's log-J0 series, the sums
from every zero on in extended precision (_SuffixSums).

Tables for conjugate character pairs are merged: one file holds both
members' ordinates ascending, with weight = 2 recorded in the header.
All per-table sums then already cover the pair, while per-character
ratios recover the single-series values through the weight.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .race import RaceEntry, RaceSpec
from .specfun import J0_ZERO1

__all__ = [
    "CharTailStats",
    "FrozenSpanWarning",
    "TailStats",
    "ThinTailWarning",
    "ZeroDataError",
    "ZeroTable",
    "aggregate_stats",
    "available_tables",
    "bundled_table",
    "load_zeros",
    "montgomery_bound",
    "resolve_table",
]

_TWO_PI = 2.0 * math.pi

class ZeroDataError(ValueError):
    pass


class ThinTailWarning(UserWarning):
    """Fewer than 100 tabulated zeros lie above the cutoff, so b_k leans
    on the analytic continuation past the table end."""


class FrozenSpanWarning(UserWarning):
    """The cutoff lies past the table end, so the explicit span S stops
    growing at the last tabulated zero."""


@dataclass(frozen=True)
class ZeroTable:
    """An ascending list of zero ordinates for one L-function (weight 1)
    or a merged conjugate pair (weight 2), plus the exact full-spectrum
    value of b_1 when known. Loading builds no sums; the indexes behind
    b_k, S and the Fourier route are built on first use."""
    gammas: np.ndarray
    qstar: int
    label: str
    source: str
    weight: int = 1
    parity: int = 0
    b1_total: float | None = None

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise ZeroDataError(f"{self.label}: empty zero table")
        if not np.all(np.isfinite(g)):
            raise ZeroDataError(f"{self.label}: non-finite ordinate")
        if g[0] <= 0.0 or np.any(np.diff(g) <= 0.0):
            raise ZeroDataError(
                f"{self.label}: ordinates must be positive and strictly "
                "ascending")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "gammas", g)
        if self.qstar < 1:
            raise ZeroDataError(f"{self.label}: qstar must be >= 1")
        # the counting function can never wander far from its smooth
        # approximation; a residual of 4 means zeros are missing or
        # duplicated, far outside genuine counting fluctuations
        r = self.counting_residuals()
        worst = max(np.max(np.abs(r)), np.max(np.abs(r - 1.0)))
        if worst >= 4.0:
            raise ZeroDataError(
                f"{self.label}: counting residual reaches {worst:.2f} "
                "(>= 4); the table has gaps or duplicates")

    def smooth_count(self, u):
        """Expected number of ordinates below u, up to bounded terms."""
        u = np.asarray(u, dtype=float)
        x = u / _TWO_PI
        return self.weight * x * (np.log(np.maximum(self.qstar * x, 1e-300))
                                  - 1.0)

    def counting_residuals(self) -> np.ndarray:
        """N(gamma_i) - smooth(gamma_i) at each jump (counting gamma_i)."""
        n = np.arange(1, self.gammas.size + 1, dtype=float)
        return n - self.smooth_count(self.gammas)

    def count(self, u: float) -> int:
        """Number of tabulated ordinates at or below u."""
        return int(np.searchsorted(self.gammas, u, side="right"))

    @property
    def last_zero(self) -> float:
        return float(self.gammas[-1])

    def __len__(self) -> int:
        return int(self.gammas.size)

    @cached_property
    def full_sums(self) -> tuple[float, float]:
        """b_1(0) and b_2(0), the inverse-power sums over every ordinate."""
        return _tail_bk(self, 0.0, 1), _tail_bk(self, 0.0, 2)

    @cached_property
    def _prefix_sums(self) -> _PrefixSums:
        # the exact sums behind b_k and S, extended as calls reach them
        return _PrefixSums(self.gammas)

    @cached_property
    def _suffix_sums(self) -> _SuffixSums:
        # the Fourier route's sums over the zeros from each one on, built
        # on first use rather than at load
        return _SuffixSums(self)

    @cached_property
    def span_fit(self) -> tuple[float, int]:
        """(delta, n_used): the constant term of the explicit span
        S(u) = 2 sum over gamma <= u of (1/4 + gamma^2)^(-1/2) in its
        large-u expansion, and the ordinates behind the estimate.

        delta is the median residual over the table's top decade (the
        median rides out both the jump discontinuities and the slow
        main-term drift). Sampling the running sum right at a zero lands
        just after a jump, which sits half a jump above the phase-averaged
        residual; the long-run counting offset itself is folded into the
        constant by partial summation. Subtracting half of each sample's
        own jump removes that bias, and brings the estimate within a few
        1e-5 of the level the residual actually oscillates about."""
        g = self.gammas
        half_jump = 1.0 / np.sqrt(0.25 + g * g)
        cum = 2.0 * np.cumsum(half_jump)
        top = g >= g[-1] / 10.0
        resid = cum[top] - _span_main(self, g[top]) - half_jump[top]
        return _median(resid), int(np.count_nonzero(top))


def load_zeros(path: str, qstar: int | None = None,
               label: str | None = None) -> ZeroTable:
    """Read a zero table file: '#' header lines with 'name: value'
    fields, then one ordinate per line, ascending."""
    head: dict[str, tuple[str, int]] = {}   # name -> (value, line)
    vals: list[float] = []
    prev = 0.0
    try:
        fh = open(path, encoding="utf-8")
    except OSError as e:
        raise ZeroDataError(f"{path}: {e.strerror or e}") from None
    with fh:
        for i, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    k, v = body.split(":", 1)
                    head[k.strip()] = (v.strip(), i)
                continue
            try:
                x = float(line)
            except ValueError:
                raise ZeroDataError(
                    f"{path}:{i}: not a number: {line!r}") from None
            if not math.isfinite(x) or x <= 0.0:
                raise ZeroDataError(
                    f"{path}:{i}: ordinates must be finite and positive")
            if x <= prev:
                raise ZeroDataError(
                    f"{path}:{i}: ordinate {x!r} not above previous {prev!r}")
            prev = x
            vals.append(x)

    def number(key, kind, default=None):
        if key not in head:
            return default
        text, line = head[key]
        try:
            return kind(text)
        except ValueError:
            raise ZeroDataError(
                f"{path}:{line}: header {key} must be "
                f"{'an integer' if kind is int else 'a number'}, "
                f"got {text!r}") from None

    if not vals:
        raise ZeroDataError(f"{path}: no ordinates found")
    count = number("count", int)
    if count is not None and count != len(vals):
        raise ZeroDataError(
            f"{path}: header says {count} ordinates, file has {len(vals)}")
    max_gamma = number("max_gamma", float)
    if max_gamma is not None and vals[-1] > max_gamma + 1e-9:
        raise ZeroDataError(
            f"{path}: last ordinate {vals[-1]!r} above the header's "
            f"search ceiling {head['max_gamma'][0]}")
    if qstar is None:
        qstar = number("qstar", int)
        if qstar is None:
            raise ZeroDataError(
                f"{path}: no qstar header and none supplied")
    if label is None:
        label = (number("key", str)
                 or os.path.splitext(os.path.basename(path))[0])
    return ZeroTable(
        gammas=np.array(vals), qstar=qstar, label=label, source=path,
        weight=number("weight", int, 1), parity=number("parity", int, 0),
        b1_total=number("b1_total", float))


# found once, next to this file, with no import of importlib.resources,
# whose lookup took about 18 of the 21 us of a warm bundled_table call
_PACKAGE_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "data")


def _data_dir() -> str:
    return os.environ.get("RACE_DENSITY_DATA") or _PACKAGE_DATA


def available_tables() -> tuple[str, ...]:
    d = _data_dir()
    try:
        names = os.listdir(d)
    except OSError:
        return ()
    return tuple(sorted(os.path.splitext(f)[0] for f in names
                        if f.endswith(".txt")))


# (absolute data directory, key) -> table, so that a warm call does no
# path work
_table_cache: dict[tuple[str, str], ZeroTable] = {}


def bundled_table(key: str) -> ZeroTable:
    """Load a packaged zero table by key (e.g. 'zeta', 'mod4',
    'mod13_j5'), honoring the RACE_DENSITY_DATA directory override; a
    relative override is taken from the working directory of each call."""
    d = _data_dir()
    if not os.path.isabs(d):
        d = os.path.abspath(d)
    table = _table_cache.get((d, key))
    if table is None:
        path = os.path.abspath(os.path.join(d, key + ".txt"))
        if not os.path.exists(path):
            raise ZeroDataError(
                f"no bundled zero table {key!r}; available: "
                f"{', '.join(available_tables())}")
        table = _table_cache[d, key] = load_zeros(path, label=key)
    return table


def _tail_bk(table: ZeroTable, u: float, k: int) -> float:
    """b_k(u), the inverse-power sum over ordinates above u: the
    tabulated ones, then the analytic continuation past the table end.
    Past the last tabulated ordinate only the analytic term remains; its
    own relative accuracy decays like k/u, which is why aggregate_stats
    warns about thin tails rather than silently degrading."""
    return _tail_sums(table, u, (k,), table.count(u))[0][0]


def _span(table: ZeroTable, u: float) -> float:
    """S(u) = 2 sum over gamma <= u of (1/4 + gamma^2)^(-1/2), the
    explicit span."""
    return _tail_sums(table, u, (), table.count(u))[1]


def _tail_sums(table: ZeroTable, u: float, ks,
               n_head: int) -> tuple[tuple[float, ...], float]:
    """b_k(u) for each k in ks, and S(u), with n_head = table.count(u).

    Both come from the exact sums over the n_head ordinates at or below
    u, the head (_PrefixSums), each rounded once by math.fsum. S is twice
    the head's sum. b_k's tabulated part is the table's total less the
    head; for k = 1 with a known full-spectrum total, it is that total
    less the rounded head sum. Every value has the bits of math.fsum over
    the plain terms.
    """
    if not (math.isfinite(u) and u >= 0.0):
        raise ValueError(f"u must be finite and >= 0, got {u!r}")
    sums = table._prefix_sums
    if n_head == len(table):
        # nothing tabulated above u
        span, = sums.heads((0.5,), n_head)
        b = tuple(_past_table(table, u, k) for k in ks)
        return b, 2.0 * math.fsum(span)
    span, *heads = sums.heads((0.5, *ks), n_head)
    b = []
    for k, head in zip(ks, heads):
        if k == 1 and table.b1_total is not None:
            b.append(table.b1_total - math.fsum(head))
        else:
            # fsum rounds to nearest even, so minus the rounded head less
            # the total is the rounded total less the head
            b.append(-math.fsum(head + [-p for p in sums.total(k)])
                     + _past_table(table, table.last_zero, k))
    return tuple(b), 2.0 * math.fsum(span)


def _past_table(table: ZeroTable, ueff, k: int):
    # b_k's analytic continuation past ueff, at or beyond the table end:
    # the smooth zero density's integral of gamma^(-2k); ueff may be long
    y = math.log(table.qstar * ueff / _TWO_PI)
    m = 2 * k - 1
    return table.weight * (y + 1.0 / m) / (2.0 * m * math.pi * ueff ** m)


# the Fourier route's log-J0 series takes 56 orders and the 57th bounds
# what it drops; the suffix sums are formed per chunk of 256 zeros
_SUFFIX_ORDERS = 57
_SUFFIX_CHUNK = 256


class _SuffixSums:
    """W_k(i) = sum over j >= i of (1/4 + gamma_j^2)^(-k), k = 1..57, over
    the tabulated zeros from the i-th on, plus b_k's analytic
    continuation past the table end (_past_table); W_1 is b1_total less
    the head sum where the table carries b1_total, as _tail_bk takes it.
    Summed in extended precision a chunk at a time: construction keeps
    the per-order totals from each chunk on, and W_1 in double (w1), the
    columns of every order and sqrt(1/4 + gamma^2) (den) are built only
    up to the highest index a caller reaches. A chunk's values follow
    from its own zeros and the totals at its ends, so their bits do not
    depend on which calls came before. No 57-by-n array is ever formed.
    """

    def __init__(self, table: ZeroTable):
        self._table = table
        chunks = -(-len(table) // _SUFFIX_CHUNK)
        # _tops[:, s]: the sums from the first zero of chunk s on
        self._tops = np.empty((_SUFFIX_ORDERS, chunks + 1), dtype=np.longdouble)
        self._tops[:, chunks] = [
            _past_table(table, np.longdouble(table.last_zero), k)
            for k in range(1, _SUFFIX_ORDERS + 1)]
        heads = np.zeros(chunks + 1, dtype=np.longdouble)
        for s in range(chunks - 1, -1, -1):
            totals = self._powers(1.0 / self._den2(s)).sum(axis=1)
            self._tops[:, s] = self._tops[:, s + 1] + totals
            heads[s + 1] = totals[0]
        # W_1 at the first zero of each chunk
        self._starts = self._tops[0] if table.b1_total is None \
            else np.longdouble(table.b1_total) - np.cumsum(heads)
        self._w1 = np.empty(0)
        self._cols = np.empty((_SUFFIX_ORDERS, 0), dtype=np.longdouble)
        self.den = np.empty(0, dtype=np.longdouble)

    def _den2(self, s: int) -> np.ndarray:
        g = self._table.gammas[s * _SUFFIX_CHUNK:(s + 1) * _SUFFIX_CHUNK]
        return 0.25 + np.square(g.astype(np.longdouble))

    @staticmethod
    def _powers(inv: np.ndarray) -> np.ndarray:
        # inv^k, orders k = 1..57 down the rows
        return np.multiply.accumulate(
            np.broadcast_to(inv, (_SUFFIX_ORDERS, inv.size)), axis=0)

    def _w1_chunk(self, s: int, den2: np.ndarray) -> np.ndarray:
        # extended W_1 at the zeros of chunk s
        return self._starts[s] - np.concatenate(
            ([0.0], np.cumsum(1.0 / den2[:-1])))

    def split(self, x) -> np.ndarray:
        """How many zeros have sqrt(1/4 + gamma^2) below each x."""
        x = np.asarray(x, dtype=float)
        return np.searchsorted(self._table.gammas,
                               np.sqrt(np.maximum(x * x - 0.25, 0.0)))

    def w1(self, i: np.ndarray) -> np.ndarray:
        """W_1(i[r]) in double, every index below the zero count."""
        while self._w1.size <= int(i.max(initial=-1)):
            s = self._w1.size // _SUFFIX_CHUNK
            self._w1 = np.concatenate(
                (self._w1, self._w1_chunk(s, self._den2(s)).astype(float)))
        return self._w1[i]

    def columns(self, i: np.ndarray) -> np.ndarray:
        """W_k(i[r]) for k = 1..57 (rows) at each index (columns), every
        index below the zero count; den then reaches past every index."""
        top = int(i.max(initial=-1))
        while (c := self._cols.shape[1]) <= top:
            s, j = divmod(c, _SUFFIX_CHUNK)
            den2 = self._den2(s)
            stop = min(top + 1 - c, den2.size - j)
            # summed from the chunk's last zero down, in place, then added
            # to the totals past the chunk
            p = self._powers(1.0 / den2[j:])
            np.add.accumulate(p[:, ::-1], axis=1, out=p[:, ::-1])
            col = p[:, :stop] + self._tops[:, s + 1, None]
            col[0] = self._w1_chunk(s, den2)[j:j + stop]
            self._cols = np.concatenate((self._cols, col), axis=1)
            self.den = np.concatenate((self.den, np.sqrt(den2[j:j + stop])))
        return self._cols[:, i]

    def at(self, i: int) -> np.ndarray:
        """W_k(i) for k = 1..57 at one index up to the zero count, below
        it with the bits of columns([i]): the totals past i's chunk plus
        that chunk's zeros from i on, summed in the same order. Builds
        no column."""
        if i == len(self._table):
            out = self._tops[:, -1].copy()
            out[0] = self._starts[-1]
            return out
        s, j = divmod(i, _SUFFIX_CHUNK)
        den2 = self._den2(s)
        p = self._powers(1.0 / den2[j:])
        out = np.add.accumulate(p[:, ::-1], axis=1)[:, -1] + self._tops[:, s + 1]
        out[0] = self._w1_chunk(s, den2)[j]
        return out


# From this many terms on, _exact_sum (l0_full's order sums) bins by
# exponent instead of running math.fsum over a list; below it, binning's
# fixed cost of some 30 us loses. Median of 7 runs of 200 calls on a
# 2-core Xeon VM over zeta's 1/(1/4 + gamma^2), its square root and 8th
# power (fsum against binned, in us): 35-47 against 32-71 at 1000 terms, 85-97
# against 61-76 at 2000, 182-194 against 66-86 at 4096 and 569-612
# against 112-156 at 13728. _PrefixSums bins every table total and block
# whatever its length: it runs fsum over the result several times.
_BINNED_FROM = 2048


def _exact_sum(x: np.ndarray) -> float:
    # math.fsum(x.tolist()) bit for bit: both round the exact sum once
    return math.fsum(x.tolist() if x.size < _BINNED_FROM else _exact_bins(x))


def _exact_bins(x: np.ndarray) -> list[float]:
    # a few hundred doubles with the exact sum of x, so that one fsum over
    # them is short
    return _exact_rows(x[None, :])[0]


def _exact_rows(x: np.ndarray) -> list[list[float]]:
    # per row of x, doubles with the row's exact sum, two per run of terms
    # with one exponent: a sorted row, as a zero table gives, has one run
    # per exponent. Each x is q * 2**(e - 53) with an integer
    # |q| < 2**53; the 26-bit halves of q (q >> 26 keeps the sign, the
    # low half is >= 0), summed over a run, stay integers below 2**53 for
    # fewer than 2**26 terms, and rescaled they keep every bit of x at or
    # above 2**-1074, subnormals included. size * max|x| < 2**1022 keeps
    # every partial sum finite, here and in fsum; past it, or for inf and
    # nan, the rows themselves are returned, so fsum raises or propagates
    # as it would
    if not (0 < x.size < 2 ** 26
            and np.abs(x).max() < 2.0 ** 1022 / x.size):
        return x.tolist()
    m, e = np.frexp(x.ravel())
    q = np.ldexp(m, 53).astype(np.int64)
    # where a run starts: a new exponent, or a new row
    start = np.empty(e.size, dtype=bool)
    start[0] = True
    np.not_equal(e[1:], e[:-1], out=start[1:])
    start[::x.shape[1]] = True
    at = np.flatnonzero(start)
    scale = e[at]
    halves = np.stack((
        np.ldexp(np.add.reduceat(q >> 26, at).astype(float), scale - 27),
        np.ldexp(np.add.reduceat(q & (2 ** 26 - 1), at).astype(float),
                 scale - 53)), axis=1).ravel().tolist()
    ends = (2 * np.searchsorted(at, np.arange(1, len(x) + 1) * x.shape[1])).tolist()
    return [halves[a:b] for a, b in zip([0] + ends[:-1], ends)]


# _PrefixSums keeps an exact prefix sum at every this many zeros
_CHECKPOINT = 128


class _PrefixSums:
    """Exact sums of (1/4 + gamma^2)^(-k) over a table's leading zeros, for
    each order k asked for; order 1/2 stands for the span's terms
    1/sqrt(1/4 + gamma^2).

    Per order it holds the exact expansion (_expansion) of the sum over
    the first 128c zeros, c = 0, 1, ..., built only up to the highest
    checkpoint a call reaches, and that of the full-table total, built on
    first use. A sum over the first n zeros is then a checkpoint's parts
    and at most 127 terms, which one math.fsum rounds once, to the bits
    of math.fsum over all n terms. Each checkpoint follows from the one
    before and its own 128 terms, so no value depends on which calls came
    first, and no orders-by-n array is ever formed.
    """

    def __init__(self, gammas: np.ndarray):
        self._g = gammas
        self._marks: dict[float, list[list[float]]] = {}
        self._totals: dict[float, list[float]] = {}

    def heads(self, orders, n: int) -> list[list[float]]:
        """Per order, doubles whose exact sum is that of its terms over
        the first n zeros."""
        c = n // _CHECKPOINT
        self._extend(orders, c)
        rows = _terms(self._g[c * _CHECKPOINT:n], orders).tolist()
        return [self._marks[k][c] + row for k, row in zip(orders, rows)]

    def total(self, k: float) -> list[float]:
        """The expansion of order k's sum over every zero."""
        parts = self._totals.get(k)
        if parts is None:
            parts = _expansion(_exact_bins(_terms(self._g, (k,))[0]))
            self._totals[k] = parts
        return parts

    def _extend(self, orders, c: int) -> None:
        # checkpoints up to c for every order, from the exact sums of
        # whole blocks, up to 16 blocks of terms at a time
        short = [k for k in orders if len(self._marks.setdefault(k, [[]])) <= c]
        if not short:
            return
        for lo in range(min(len(self._marks[k]) for k in short) - 1, c, 16):
            hi = min(lo + 16, c)
            g = self._g[lo * _CHECKPOINT:hi * _CHECKPOINT]
            blocks = _exact_rows(_terms(g, short).reshape(-1, _CHECKPOINT))
            for i, k in enumerate(short):
                marks = self._marks[k]
                for b in range(max(lo, len(marks) - 1), hi):
                    marks.append(_expansion(
                        marks[b] + blocks[i * (hi - lo) + b - lo]))


def _terms(g: np.ndarray, orders) -> np.ndarray:
    # (1/4 + g^2)^(-k) down the rows, one per order k: k = 1 by division,
    # as numpy's power takes an exponent of -1, and 1/2 as 1/sqrt; the
    # other orders by one broadcast power, which gives the bits of one
    # power per order (the tests check both)
    den = 0.25 + g * g
    rows = den ** -np.array(orders, dtype=float)[:, None]
    for i, k in enumerate(orders):
        if k == 1:
            rows[i] = 1.0 / den
        elif k == 0.5:
            rows[i] = 1.0 / np.sqrt(den)
    return rows


def _expansion(x: list[float]) -> list[float]:
    # doubles whose exact sum is that of x: each the correctly rounded
    # remainder the ones before it leave, down to a zero remainder (at
    # most four for k <= 8 on the bundled tables, five for k <= 10)
    parts = []
    while (rest := math.fsum(x + [-p for p in parts])) != 0.0:
        parts.append(rest)
    return parts


def _span_main(table: ZeroTable, t: np.ndarray) -> np.ndarray:
    lt = np.log(t)
    a_chi = math.log(table.qstar / _TWO_PI)
    return table.weight * (lt * lt / (2.0 * math.pi) + a_chi * lt / math.pi)


def _median(x: np.ndarray) -> float:
    # np.median's bits without its import of numpy.ma: the middle value,
    # or the mean of the middle two
    s = np.sort(x)
    mid = s.size // 2
    return float(s[mid] if s.size % 2 else (s[mid - 1] + s[mid]) / 2.0)


@dataclass(frozen=True)
class CharTailStats:
    label: str
    qstar: int
    weight: int
    alpha: float
    b: tuple[float, ...]     # table-level b_k(u), k = 1..Kmax
    n_zeros: int
    S: float
    y: float
    r: tuple[float, ...]     # single-series ratios r_k, k = 1..Kmax
    T_single: float          # convergence radius as a lone series
    T_effective: float       # radius inside this race's normalization


@dataclass(frozen=True)
class TailStats:
    race: str
    u: float
    Kmax: int
    B: tuple[float, ...]     # B_k = sum over characters alpha^(2k) b_k
    R: tuple[float, ...]     # R_k = B_k / B_1^k
    sigma_u: float
    sigma0: float
    beta0: float             # R_2 evaluated at u = 0
    S: float                 # alpha-weighted explicit span
    n_zeros: int
    T: float
    per_char: tuple[CharTailStats, ...]


# (resolved path, qstar, label) -> (st_mtime_ns, st_size, table)
_file_cache: dict[tuple[str, int, str], tuple[int, int, ZeroTable]] = {}


def resolve_table(entry: RaceEntry,
                  tables: dict[str, ZeroTable] | None = None) -> ZeroTable:
    """The zero table an entry draws from: a file when entry.table holds
    a path separator or ends in .txt, else the bundled table of that key.
    A file is read again only once its modification time or size has
    changed, so its cached full_sums and span_fit survive between calls.
    tables, when given, maps entry labels to tables that win over both.
    The entry and its table must agree on how many series the table
    holds (their weight)."""
    if tables and entry.label in tables:
        table = tables[entry.label]
    elif not (os.sep in entry.table or entry.table.endswith(".txt")):
        table = bundled_table(entry.table)
    else:
        try:
            st = os.stat(entry.table)
        except OSError as e:
            raise ZeroDataError(f"{entry.table}: {e.strerror or e}") from None
        key = (os.path.realpath(entry.table), entry.qstar, entry.label)
        hit = _file_cache.get(key)
        if hit is None or hit[:2] != (st.st_mtime_ns, st.st_size):
            hit = (st.st_mtime_ns, st.st_size,
                   load_zeros(entry.table, qstar=entry.qstar,
                              label=entry.label))
            _file_cache[key] = hit
        table = hit[2]
    if table.weight != entry.weight:
        raise ZeroDataError(
            f"{entry.label}: the race gives weight {entry.weight}, its table "
            f"{table.source} holds weight {table.weight}; make them agree "
            "(weight.<label> in the race config, or the table's weight "
            "header)")
    return table


def _t_single(y: float, r2: float) -> float:
    # the tail asymptotics of b_1 and b_2 make (y+1/3)/(6(y+1)r_2) equal
    # to b_1 u^2 / 2, which is where the first oscillatory-kernel zero
    # pinches the transform's log expansion
    if not (y + 1.0 / 3.0 > 0.0 and r2 > 0.0):
        return float("nan")
    return J0_ZERO1 * math.sqrt((y + 1.0 / 3.0) / (6.0 * (y + 1.0) * r2))


def aggregate_stats(race: RaceSpec, u: float, Kmax: int = 8) -> TailStats:
    """All tail statistics of a race at truncation height u.

    B_k sums alpha^(2k) b_k over the race's characters (merged tables
    already cover conjugate pairs). The convergence radius T is the
    smallest per-character radius after rescaling each one into the
    race's own variance normalization.
    """
    if Kmax < 2:
        raise ValueError("Kmax must be at least 2")
    rows = []
    for e in race.characters:
        t = resolve_table(e)
        n_head = t.count(u)
        b, S = _tail_sums(t, u, range(1, Kmax + 1), n_head)
        n_above = len(t) - n_head
        if n_above < 100:
            warnings.warn(
                f"{t.label}: only {n_above} tabulated zeros above u={u:g}; "
                f"b_1..b_{Kmax} lean on the analytic tail (relative error "
                f"of order {Kmax / max(u, t.last_zero):.1e} * 10)",
                ThinTailWarning, stacklevel=2)
        if u > t.last_zero:
            warnings.warn(
                f"{e.label}: span frozen at table end {t.last_zero:g} < "
                f"u={u:g}", FrozenSpanWarning, stacklevel=2)
        rows.append((e, t, b, n_head, S))
    B = tuple(
        math.fsum(e.alpha ** (2 * k) * b[k - 1] for e, _, b, *_ in rows)
        for k in range(1, Kmax + 1))
    if B[0] <= 0.0:
        raise ZeroDataError(f"race {race.name or race.q}: b_1 sum is zero")
    R = tuple(bk / B[0] ** k for k, bk in enumerate(B, start=1))
    B1_0 = math.fsum(e.alpha ** 2 * t.full_sums[0] for e, t, *_ in rows)
    B2_0 = math.fsum(e.alpha ** 4 * t.full_sums[1] for e, t, *_ in rows)
    per = []
    for e, t, b, n_head, S in rows:
        y = math.log(t.qstar * u / _TWO_PI) if u > 0.0 else float("-inf")
        # single-series ratios r_k = b_k / b_1^k: the merged table's b_k
        # is weight times the per-member value, so r_k picks up
        # weight^(k-1)
        r = tuple(t.weight ** (k - 1) * b[k - 1] / b[0] ** k
                  for k in range(1, Kmax + 1))
        t_single = _t_single(y, r[1])
        # effective radius per character: alpha^2 b_1(chi) of the limiting
        # series against the race's own B_1
        t_eff = t_single * math.sqrt(B[0] / (e.alpha ** 2 * (b[0] / t.weight))) \
            if e.alpha > 0 else float("inf")
        per.append(CharTailStats(
            label=e.label, qstar=t.qstar, weight=t.weight, alpha=e.alpha,
            b=b, n_zeros=n_head, S=S, y=y,
            r=r, T_single=t_single, T_effective=t_eff))
    t_vals = [p.T_effective for p in per]
    T = float("nan") if any(math.isnan(t) for t in t_vals) else min(t_vals)
    return TailStats(
        race=race.name, u=float(u), Kmax=Kmax, B=B, R=R,
        sigma_u=math.sqrt(2.0 * B[0]), sigma0=math.sqrt(2.0 * B1_0),
        beta0=B2_0 / (B1_0 * B1_0),
        S=math.fsum(p.alpha * p.S for p in per),
        n_zeros=sum(p.n_zeros for p in per), T=T, per_char=tuple(per))


def montgomery_bound(v: float, stats: TailStats) -> float:
    """Upper bound on log E(v) from exponential-moment inequalities.

    Always applies the full-spectrum Gaussian bound -v^2/(2 sigma_0^2);
    a truncation whose explicit span S(u) is at most v sharpens it to
    -(v - S)^2 / (2 sigma_u^2). The tighter bound wins.
    """
    if not v >= 0.0:
        raise ValueError(f"v must be >= 0, got {v!r}")
    if v == 0.0:
        return 0.0
    best = -v * v / (2.0 * stats.sigma0 * stats.sigma0)
    if stats.u > 0.0 and v >= stats.S and stats.sigma_u > 0.0:
        best = min(best, -(v - stats.S) ** 2 / (2.0 * stats.sigma_u ** 2))
    return best
