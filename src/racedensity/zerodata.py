"""Zero tables and the sums built from them.

Every calculation route starts from lists of positive imaginary parts
gamma of nontrivial L-function zeros. This module loads and validates
those lists, and gathers over the characters of a race what the Fourier
route reads into TailStats: sigma_0 = sqrt(2 sum of alpha^2 b_1), b_1 the
inverse-square sum over every zero of a table, with the cutoff and zero
count that label a result. Each table carries, built on first use and only
as far as a call reaches, the power sums from every zero on in extended
precision (_SuffixSums), with an analytic continuation past the table's
end (_past_table), for the log-J0 and log-I0 series of both routes; W_1
is summed like every order, what a recorded b1_total leaves past the
last zero standing in for its continuation.
ZeroTable.split, from the ordinates alone, says where those series
start: both routes take explicitly only the zeros whose kernel argument
is above _FAR_Z.

Tables for conjugate character pairs are merged: one file holds both
members' ordinates ascending, with weight = 2 recorded in the header.
All per-table sums then already cover the pair.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .race import RaceEntry, RaceSpec
from .specfun import _require_extended

__all__ = [
    "TailStats",
    "ZeroDataError",
    "ZeroTable",
    "aggregate_stats",
    "available_tables",
    "bundled_table",
    "load_zeros",
    "resolve_table",
]

_TWO_PI = 2.0 * math.pi

class ZeroDataError(ValueError):
    pass


@dataclass(frozen=True)
class ZeroTable:
    """An ascending list of zero ordinates for one L-function (weight 1)
    or a merged conjugate pair (weight 2), plus the exact full-spectrum
    value of b_1 when known. Loading builds no sums; the suffix sums
    both routes read are built on first use."""
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
        if self.weight < 1:
            raise ZeroDataError(f"{self.label}: weight must be >= 1")
        if self.parity not in (0, 1):
            raise ZeroDataError(
                f"{self.label}: parity must be 0 or 1, got {self.parity!r}")
        # a NaN or infinite b_1 would reach the solve as a NaN step
        if self.b1_total is not None and not (
                self.b1_total > 0.0 and math.isfinite(self.b1_total)):
            raise ZeroDataError(
                f"{self.label}: b1_total must be positive and finite, got "
                f"{self.b1_total!r}")
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

    def split(self, t) -> np.ndarray:
        """How many zeros have z = t/sqrt(1/4 + gamma^2) above _FAR_Z at
        each t = 2*alpha*|w| (phat_prefix) or 2*alpha*s (l0_full): the
        zeros both routes take explicitly. Reads only the ordinates."""
        x = np.asarray(t, dtype=float) / _FAR_Z
        return np.searchsorted(self.gammas,
                               np.sqrt(np.maximum(x * x - 0.25, 0.0)))

    @property
    def last_zero(self) -> float:
        return float(self.gammas[-1])

    def __len__(self) -> int:
        return int(self.gammas.size)

    @cached_property
    def b1_full(self) -> float:
        """b_1(0), the inverse-square sum over every ordinate: b1_total
        where the table carries it, else the tabulated sum rounded once
        plus the continuation past the last zero."""
        if self.b1_total is not None:
            return self.b1_total
        g = self.gammas
        return (math.fsum((1.0 / (0.25 + g * g)).tolist())
                + _past_table(self, self.last_zero, 1))

    @cached_property
    def _suffix_sums(self) -> _SuffixSums:
        # the log-J0 and log-I0 series' sums, built on first use
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
    fields, then one ordinate per line, ascending, finite and positive.
    A RaceEntry whose table is a path reads it here, so for a race built
    from RaceEntry values this file is the one outside input.

    Headers: count (integer, the ordinates in the file), max_gamma (no
    ordinate above it), qstar (integer >= 1; required unless the qstar
    argument gives it), key (the label, unless the label argument gives
    one; else the file name), weight (integer >= 1, 2 for a merged
    conjugate pair; default 1), parity (0 or 1, chi(-1) = (-1)**parity;
    default 0), b1_total (positive and finite: b_1 over every zero of
    the series). Other '#' lines are comments."""
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


def _past_table(table: ZeroTable, ueff, k):
    # b_k's analytic continuation past ueff, at or beyond the table end:
    # the smooth zero density's integral of gamma^(-2k), for an order k
    # or an array of them; ueff may be long
    y = math.log(table.qstar * ueff / _TWO_PI)
    m = 2 * k - 1
    return table.weight * (y + 1.0 / m) / (2.0 * m * math.pi * ueff ** m)


# both routes take a zero explicitly where its z is above _FAR_Z
# (ZeroTable.split) and every other one through a series over the suffix
# sums, formed per chunk of 256 zeros: 56 orders, the 57th bounding the
# cut, which drops 4.3e-29 per factor at z = _FAR_Z. A higher split needs
# more orders, a lower one more explicit zeros; 1.4 has not been re-timed
# since the series moved onto the suffix sums
_FAR_Z = 1.4
_SUFFIX_ORDERS = 57
_SUFFIX_CHUNK = 256
_ORDERS = np.arange(1, _SUFFIX_ORDERS + 1)


class _SuffixSums:
    """W_k(i) = sum over j >= i of (1/4 + gamma_j^2)^(-k), k = 1..57, over
    the tabulated zeros from the i-th on, plus b_k's analytic
    continuation past the table end (_past_table), for which W_1 takes
    what b1_total, where recorded, leaves past the last zero. Every
    order, W_1 included, is summed alike, in extended precision a chunk
    at a time: construction keeps the per-order totals from each chunk
    on, and one cache holds the columns of every order, built only up to
    the highest index a caller reaches; W_1 in double (w1) is its first
    row rounded. A chunk's values follow from its own zeros and the
    totals past it, so their bits do not depend on which calls came
    before. Construction and columns form their powers afresh and keep
    none. past gives the same sums over the zeros past a height beyond
    the table's end. Refuses, as j0_lowbias does, a long double not
    x87's.
    """

    def __init__(self, table: ZeroTable):
        _require_extended()
        self._table = table
        inv = self._inv(0, len(table))
        chunks = np.stack([self._powers(inv[a:a + _SUFFIX_CHUNK]).sum(axis=1)
                           for a in range(0, inv.size, _SUFFIX_CHUNK)], axis=1)
        past = _past_table(table, np.longdouble(table.last_zero), _ORDERS)
        # what b1_total leaves past the last zero, less the continuation
        # there: added to W_1's continuation here and in past
        self._anchor = 0.0 if table.b1_total is None else (
            table.b1_total - np.cumsum(chunks[0])[-1] - past[0])
        past[0] += self._anchor
        # _tops[:, s]: the sums from chunk s on, the continuation last
        self._tops = np.add.accumulate(
            np.hstack((chunks, past[:, None]))[:, ::-1], axis=1)[:, ::-1]
        self._cols = np.empty((_SUFFIX_ORDERS, 0), dtype=np.longdouble)

    def _inv(self, lo: int, hi: int) -> np.ndarray:
        # 1/(1/4 + gamma^2) in extended precision, zeros lo..hi-1
        g = self._table.gammas[lo:hi].astype(np.longdouble)
        return 1.0 / (0.25 + np.square(g))

    @staticmethod
    def _powers(inv: np.ndarray) -> np.ndarray:
        # inv^k, orders k = 1..57 down the rows
        return np.multiply.accumulate(
            np.broadcast_to(inv, (_SUFFIX_ORDERS, inv.size)), axis=0)

    def _grow(self, top: int) -> None:
        # extends the columns, held at the indices below their width c,
        # through top: per chunk, its powers summed from its last zero
        # down, in place, plus the totals past it
        if (c := self._cols.shape[1]) > top:
            return
        out = np.empty((_SUFFIX_ORDERS, top + 1), dtype=np.longdouble)
        out[:, :c] = self._cols
        for s in range(c // _SUFFIX_CHUNK, top // _SUFFIX_CHUNK + 1):
            lo, hi = max(c, s * _SUFFIX_CHUNK), (s + 1) * _SUFFIX_CHUNK
            p = self._powers(self._inv(lo, hi))
            np.add.accumulate(p[:, ::-1], axis=1, out=p[:, ::-1])
            np.add(p[:, :top + 1 - lo], self._tops[:, s + 1, None],
                   out=out[:, lo:hi])
        self._cols = out

    def w1(self, i: np.ndarray) -> np.ndarray:
        """columns(i)[0] rounded to double."""
        self._grow(int(i.max(initial=-1)))
        return self._cols[0, i].astype(float)

    def columns(self, i: np.ndarray) -> np.ndarray:
        """W_k(i[r]) for k = 1..57 (rows) at each index (columns), every
        index below the zero count."""
        self._grow(int(i.max(initial=-1)))
        return self._cols[:, i]

    def past(self, h: float) -> np.ndarray:
        """W_k for k = 1..57 over the zeros above h, at or past the last
        zero: b_k's continuation from h, W_1 moved by the anchor."""
        w = _past_table(self._table, np.longdouble(h), _ORDERS)
        w[0] += self._anchor
        return w


# From this many terms on, _exact_sum (l0_full's order sums) bins by
# exponent instead of running math.fsum over a list; below it, binning's
# fixed cost of some 30 us loses. Median of 7 runs of 200 calls on a
# 2-core Xeon VM over zeta's 1/(1/4 + gamma^2), its square root and 8th
# power (fsum against binned, in us): 35-47 against 32-71 at 1000 terms, 85-97
# against 61-76 at 2000, 182-194 against 66-86 at 4096 and 569-612
# against 112-156 at 13728.
_BINNED_FROM = 2048


def _exact_sum(x: np.ndarray) -> float:
    # math.fsum(x.tolist()) bit for bit: both round the exact sum once
    return math.fsum(x.tolist() if x.size < _BINNED_FROM else _exact_bins(x))


def _exact_bins(x: np.ndarray) -> list[float]:
    # doubles with the exact sum of the 1-D x, two per run of terms with
    # one exponent: a sorted x, as a zero table gives, has one run per
    # exponent, so that one fsum over them is short. Each x is
    # q * 2**(e - 53) with an integer |q| < 2**53; the 26-bit halves of q
    # (q >> 26 keeps the sign, the low half is >= 0), summed over a run,
    # stay integers below 2**53 for fewer than 2**26 terms, and rescaled
    # they keep every bit of x at or above 2**-1074, subnormals included.
    # size * max|x| < 2**1022 keeps every partial sum finite, here and in
    # fsum; past it, or for inf and nan, x itself is returned, so fsum
    # raises or propagates as it would
    if not (0 < x.size < 2 ** 26
            and np.abs(x).max() < 2.0 ** 1022 / x.size):
        return x.tolist()
    m, e = np.frexp(x)
    q = np.ldexp(m, 53).astype(np.int64)
    # where a run starts: the first term, or a new exponent
    at = np.flatnonzero(np.concatenate(([True], e[1:] != e[:-1])))
    scale = e[at]
    return np.stack((
        np.ldexp(np.add.reduceat(q >> 26, at).astype(float), scale - 27),
        np.ldexp(np.add.reduceat(q & (2 ** 26 - 1), at).astype(float),
                 scale - 53)), axis=1).ravel().tolist()


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
class TailStats:
    """A race at a cutoff u: sigma0, which the Fourier route reads, and
    the zero count that labels a Fourier result with u. l0_full reads
    only the race."""
    race: RaceSpec
    u: float
    sigma0: float            # sqrt(2 sum of alpha^2 b_1(0))
    n_zeros: int


def _check_race(stats: TailStats, race: RaceSpec) -> None:
    # a record of another race would answer under this one's name
    if not (stats.race is race or stats.race == race):
        raise ZeroDataError(
            f"these tail statistics were built for race "
            f"{stats.race.name or stats.race.q}, not {race.name or race.q}; "
            f"rebuild them with aggregate_stats(race, u)")


# (resolved path, qstar, label) -> (st_mtime_ns, st_size, table)
_file_cache: dict[tuple[str, int, str], tuple[int, int, ZeroTable]] = {}


def resolve_table(entry: RaceEntry,
                  tables: dict[str, ZeroTable] | None = None) -> ZeroTable:
    """The zero table an entry draws from: a file when entry.table holds
    a path separator or ends in .txt, else the bundled table of that key.
    A file is read again only once its modification time or size has
    changed, so its cached b1_full and span_fit survive from call to call.
    tables, when given, maps entry labels to tables that win over both.
    The entry and its table must agree on how many series the table
    holds (their weight) and on its conductor (qstar)."""
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
    if (table.weight, table.qstar) != (entry.weight, entry.qstar):
        raise ZeroDataError(
            f"{entry.label}: the race gives weight {entry.weight} and qstar "
            f"{entry.qstar}, its table {table.source} holds weight "
            f"{table.weight} and qstar {table.qstar}; make them agree "
            "(the entry's weight and qstar, or the table's headers)")
    return table


def aggregate_stats(race: RaceSpec, u: float) -> TailStats:
    """The statistics of a race at label height u: sigma0 = sqrt(2 B), B
    the sum of alpha^2 b_1(0) over the characters' full tables (merged
    tables already cover conjugate pairs), and the zeros at or below u."""
    if not (math.isfinite(u) and u >= 0.0):
        raise ValueError(f"u must be finite and >= 0, got {u!r}")
    tables = [resolve_table(e) for e in race.characters]
    B = math.fsum(e.alpha ** 2 * t.b1_full
                  for e, t in zip(race.characters, tables))
    if B <= 0.0:
        raise ZeroDataError(f"race {race.name or race.q}: b_1 sum is zero")
    return TailStats(race=race, u=float(u), sigma0=math.sqrt(2.0 * B),
                     n_zeros=sum(t.count(u) for t in tables))
