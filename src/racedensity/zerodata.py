"""Zero tables and the tail statistics built from them.

Every calculation route starts from lists of positive imaginary parts
gamma of nontrivial L-function zeros. This module loads and validates
those lists, evaluates the inverse-power sums

    b_k(u) = sum over gamma > u of (1/4 + gamma^2)^(-k)

with an analytic continuation past the end of each table, and aggregates
them across the characters of a race into the moment data (B_k, R_k,
sigma_u, convergence radius T, explicit span S) that the Fourier and
cumulant (saddle-point) layers consume.

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
    value of b_1 when known."""
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
    def _power_sums(self) -> dict[int, list[float]]:
        # k -> doubles whose exact sum is that of (1/4 + gamma^2)^(-k)
        # over every ordinate, filled in by _full_power_sum on first use
        return {}

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


_table_cache: dict[str, ZeroTable] = {}


def bundled_table(key: str) -> ZeroTable:
    """Load a packaged zero table by key (e.g. 'zeta', 'mod4',
    'mod13_j5'), honoring the RACE_DENSITY_DATA directory override."""
    path = os.path.join(_data_dir(), key + ".txt")
    path = os.path.abspath(path)
    if path not in _table_cache:
        if not os.path.exists(path):
            raise ZeroDataError(
                f"no bundled zero table {key!r}; available: "
                f"{', '.join(available_tables())}")
        _table_cache[path] = load_zeros(path, label=key)
    return _table_cache[path]


def _tail_bk(table: ZeroTable, u: float, k: int) -> float:
    """b_k(u), the inverse-power sum over ordinates above u.

    For k = 1 with a known full-spectrum total, the head sum is
    subtracted from it; otherwise the tabulated tail is summed and the
    analytic continuation attached at the end of the table. Past the
    last tabulated ordinate only the analytic term remains; its own
    relative accuracy decays like k/u, which is why aggregate_stats
    warns about thin tails rather than silently degrading.
    """
    if not (math.isfinite(u) and u >= 0.0):
        raise ValueError(f"u must be finite and >= 0, got {u!r}")
    g = table.gammas
    U = float(g[-1])
    n_head = table.count(u)
    if k == 1 and table.b1_total is not None and u < U:
        head_g = g[:n_head]
        return table.b1_total - math.fsum(1.0 / (0.25 + head_g * head_g))
    # fsum rounds the exact sum once, so the full sum less the head terms
    # gives the same bits as the tail terms; sum whichever side is shorter
    if 2 * n_head < len(g):
        head_g = g[:n_head]
        tabulated = math.fsum(_full_power_sum(table, k)
                              + (-(0.25 + head_g * head_g) ** (-k)).tolist())
    else:
        tail_g = g[n_head:]
        tabulated = math.fsum(((0.25 + tail_g * tail_g) ** (-k)).tolist())
    ueff = max(u, U)
    y = math.log(table.qstar * ueff / _TWO_PI)
    m = 2 * k - 1
    tail = table.weight * (y + 1.0 / m) / (2.0 * m * math.pi * ueff ** m)
    return tabulated + tail


def _full_power_sum(table: ZeroTable, k: int) -> list[float]:
    # the table's sum of (1/4 + gamma^2)^(-k), exact as an expansion: each
    # part is the correctly rounded remainder the ones before it leave,
    # down to a zero remainder (at most four for k <= 8 on the bundled
    # tables, five for k <= 10)
    parts = table._power_sums.get(k)
    if parts is None:
        g = table.gammas
        terms = _exact_bins((0.25 + g * g) ** (-k))
        parts = []
        while (rest := math.fsum(terms + [-p for p in parts])) != 0.0:
            parts.append(rest)
        table._power_sums[k] = parts
    return parts


def _exact_bins(x: np.ndarray) -> list[float]:
    # a few hundred doubles with the exact sum of x >= 0, so the
    # expansion's fsum passes are short. Each x is q * 2**(e - 53) with an
    # integer q < 2**53; the 26-bit halves of q, summed per exponent e,
    # stay integers below 2**53 for fewer than 2**26 terms, and rescaled
    # they keep every bit of x at or above 2**-1074, subnormals included
    if x.size >= 2 ** 26:
        return x.tolist()
    m, e = np.frexp(x)
    q = np.ldexp(m, 53).astype(np.int64)
    e0 = int(e.min())
    hi = np.bincount(e - e0, weights=q >> 26)
    lo = np.bincount(e - e0, weights=q & (2 ** 26 - 1))
    scale = np.arange(hi.size) + e0
    return np.ldexp(hi, scale - 27).tolist() + np.ldexp(lo, scale - 53).tolist()


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


def _span(table: ZeroTable, u: float) -> float:
    head = table.gammas[table.gammas <= u]
    return 2.0 * math.fsum(1.0 / np.sqrt(0.25 + head * head))


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
    delta: float
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
        b = tuple(_tail_bk(t, u, k) for k in range(1, Kmax + 1))
        n_above = len(t) - t.count(u)
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
        rows.append((e, t, b))
    B = tuple(
        math.fsum(e.alpha ** (2 * k) * b[k - 1] for e, _, b in rows)
        for k in range(1, Kmax + 1))
    if B[0] <= 0.0:
        raise ZeroDataError(f"race {race.name or race.q}: b_1 sum is zero")
    R = tuple(bk / B[0] ** k for k, bk in enumerate(B, start=1))
    B1_0 = math.fsum(e.alpha ** 2 * t.full_sums[0] for e, t, _ in rows)
    B2_0 = math.fsum(e.alpha ** 4 * t.full_sums[1] for e, t, _ in rows)
    per = []
    for e, t, b in rows:
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
            b=b, n_zeros=t.count(u), S=_span(t, u), y=y,
            delta=t.span_fit[0], r=r, T_single=t_single,
            T_effective=t_eff))
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
