"""Zero tables, their power sums, and aggregated race statistics.

Reference values quoted here were computed independently of this
implementation (closed forms, high-precision quadrature of the explicit
formulas, or digits matching independently tabulated race parameters)
and frozen before the module was written.
"""

import math
import os
import sys
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from racedensity import rs_method as rs
from racedensity import transforms as tr
from racedensity import zerodata as zd
from racedensity.race import (
    SUPPORTED_MODULI, RaceEntry, RaceSpec, prime_count_race, square_race,
    square_root_count, two_way_race,
)
from racedensity.zerodata import (
    TailStats, ZeroDataError, ZeroTable, aggregate_stats, available_tables,
    bundled_table, load_zeros,
)
from tail_moments import _plain_tail_bk, race_moments, sigma_u, single_radius

EULER_GAMMA = 0.5772156649015329


def counting_mean(table, u_lo=0.0, u_hi=None):
    """N(u) less its smooth approximation, averaged over the midpoints
    between consecutive ordinates inside [u_lo, u_hi], and the mean it
    should have: 7/8 for the prime-count series, weight*(-1/8 + parity/4)
    for Dirichlet series. Missing or spurious zeros move the mean off its
    target by more than 0.5."""
    g = table.gammas
    if u_hi is None:
        u_hi = float(g[-1])
    mids = 0.5 * (g[:-1] + g[1:])
    sel = (mids >= u_lo) & (mids <= u_hi)
    assert sel.any()
    res = np.arange(1, g.size)[sel] - table.smooth_count(mids[sel])
    if table.qstar == 1:
        expected = 7.0 / 8.0
    else:
        expected = table.weight * (-1.0 / 8.0 + table.parity / 4.0)
    return float(np.mean(res)), expected


def test_bundled_zeta_basics():
    t = bundled_table("zeta")
    assert t.gammas[0] == pytest.approx(14.134725141734695, abs=1e-9)
    assert t.count(100.0) == 29
    assert len(t) >= 16000
    assert t.qstar == 1 and t.weight == 1


def test_bundled_mod4_size():
    assert len(bundled_table("mod4")) >= 3000


def test_all_tables_load_and_validate():
    keys = available_tables()
    assert len(keys) >= 18
    for k in keys:
        mean, expected = counting_mean(bundled_table(k))
        assert abs(mean - expected) < 0.1, (k, mean, expected)


def test_every_table_key_is_bundled():
    # a character's table key must name a shipped table, or any race
    # drawing on that character fails when evaluated
    from racedensity.race import _TABLE_KEYS
    for key in sorted(set(_TABLE_KEYS.values())):
        assert len(bundled_table(key)) > 0, key


def test_two_way_races_carry_only_real_characters():
    # a character with alpha = 0 drops out of a race; rounding in the
    # complex character values must not leave it in with a weight-1 entry
    # on its pair's weight-2 table. The smallest genuine alpha is
    # sin(pi/12) = 0.2588
    n_races = 0
    for q in SUPPORTED_MODULI[1:]:
        units = [n for n in range(1, q) if math.gcd(n, q) == 1]
        for a in units:
            for b in units:
                if a == b or square_root_count(q, a) < square_root_count(q, b):
                    continue
                n_races += 1
                for e in two_way_race(q, a, b).characters:
                    assert e.alpha >= 0.25, (q, a, b, e)
                    assert e.weight == bundled_table(e.table).weight, (q, a, b, e)
    assert n_races == 184


def test_b1_closed_form():
    # the full inverse-square sum over all nontrivial zeros of the
    # conductor-1 function: 1 + gamma_E/2 - log(4 pi)/2
    want = 1.0 + EULER_GAMMA / 2 - math.log(4 * math.pi) / 2
    z = bundled_table("zeta")
    assert z.b1_full == pytest.approx(want, abs=1e-12)
    # without its recorded total, the table's own sum and continuation,
    # off by the continuation's next-order term
    assert replace(z, b1_total=None).b1_full == pytest.approx(
        want, abs=2.5 / z.last_zero ** 2)


def test_b1_header_matches_explicit_sum():
    # the recorded totals are analytically exact; the explicit sum with
    # the analytic continuation attached at the table end differs by the
    # continuation's next-order term, measured at 0.2-1.2 of weight/U^2
    # across the bundled tables
    for k in available_tables():
        t = bundled_table(k)
        explicit = _plain_tail_bk(t, 0.0, 1, "tail")
        assert abs(explicit - t.b1_total) < 2.5 * t.weight / t.last_zero ** 2, k


SIGMA_BETA = [
    # race builder, sigma_0, beta; four digits each, except the mod 5
    # two-way race where six digits of sigma_0 were fixed independently
    (prime_count_race, (0.2149, 0.0696)),
    (lambda: two_way_race(4, 1, 3), (0.3944, 0.1517)),
    (lambda: square_race(5), (0.3957, 0.1161)),
    (lambda: two_way_race(5, 1, 2), (0.599815, 0.0571)),
    (lambda: square_race(7), (0.5052, 0.1871)),
    (lambda: two_way_race(7, 1, 3), (0.8666, 0.0493)),
    (lambda: two_way_race(7, 1, 6), (0.9658, 0.1316)),
    (lambda: two_way_race(8, 1, 3), (0.6253, 0.0808)),
    (lambda: square_race(13), (0.6298, 0.2741)),
    (lambda: two_way_race(13, 1, 6), (1.6570, 0.0427)),
    (lambda: two_way_race(13, 1, 5), (1.8185, 0.1022)),
    (lambda: two_way_race(13, 1, 2), (2.0384, 0.2020)),
]


@pytest.mark.parametrize("build,want", SIGMA_BETA,
                         ids=[b().name for b, _ in SIGMA_BETA])
def test_sigma0_and_beta(build, want):
    race = build()
    st_ = aggregate_stats(race, 0.0)
    moments = race_moments(race, st_)
    assert st_.sigma0 == pytest.approx(want[0], abs=6e-5)
    assert moments.beta0 == pytest.approx(want[1], abs=6e-5)
    assert sigma_u(race, 0.0) == pytest.approx(st_.sigma0, rel=1e-12)
    assert moments.R[1] == pytest.approx(moments.beta0, rel=1e-12)


def test_aggregate_at_35():
    race = prime_count_race()
    st_ = aggregate_stats(race, 35.0)
    moments = race_moments(race, st_)
    assert st_.n_zeros == 5
    assert moments.B[0] == pytest.approx(0.0122355, abs=2e-7)
    assert sigma_u(race, 35.0) == pytest.approx(0.156432, abs=2e-6)
    assert moments.R[0] == pytest.approx(1.0, rel=1e-14)


def test_convergence_radius_reference_points():
    z = bundled_table("zeta")
    pc = prime_count_race()
    for n, want in [(250, 33.98), (800, 58.32)]:
        u = float(z.gammas[n - 1]) + 1e-9
        st_ = aggregate_stats(pc, u)
        assert st_.n_zeros == n
        assert single_radius(pc.characters[0], u) == pytest.approx(
            want, abs=0.02)
        assert race_moments(pc, st_).T == single_radius(pc.characters[0], u)


def test_tail_stats_hold_only_what_routes_read():
    # the Fourier route's step and aliasing check read sigma0, u and
    # n_zeros label its results, and l0_full reads only the race: no
    # record carries a per-character tail, and the module forms none
    assert [f.name for f in fields(TailStats)] == [
        "race", "u", "sigma0", "n_zeros"]
    assert not hasattr(TailStats, "per_char")
    for name in ("CharTailStats", "_char_tail", "_tail_bk", "_tail_sums",
                 "_PrefixSums", "ThinTailWarning"):
        assert not hasattr(zd, name), name
    assert not hasattr(tr, "_zeros_below")
    race = prime_count_race()
    st_ = aggregate_stats(race, 100.0)
    assert st_.race is race
    assert vars(st_).keys() == {"race", "u", "sigma0", "n_zeros"}
    with pytest.raises(TypeError):
        aggregate_stats(race, 100.0, Kmax=8)


def test_span_constants():
    # constant term of the explicit span's smooth expansion; the
    # phase-corrected median nails these to a few parts in 1e5, and the
    # prime-count constant feeds the extreme-tail model through e^W so
    # the tight tolerance there is load-bearing
    for key, want, tol in [("zeta", 0.50309, 2e-5), ("mod4", -0.0836, 1e-4),
                           ("mod7_quad", -0.1224, 3e-4),
                           ("mod13_quad", -0.2103, 3e-4)]:
        delta, n_used = bundled_table(key).span_fit
        assert delta == pytest.approx(want, abs=tol), key
        assert n_used > 100


def test_counting_zeta_window():
    mean, expected = counting_mean(bundled_table("zeta"), 50.0, 1000.0)
    assert expected == 0.875
    assert abs(mean - 0.875) < 0.2


def test_counting_flags_deleted_zero():
    z = bundled_table("zeta")
    g = np.delete(z.gammas, 3000)
    t = ZeroTable(gammas=g, qstar=1, label="gap", source="synthetic")
    mean, expected = counting_mean(t, float(g[3100]), float(g[4100]))
    assert abs(mean - expected) > 0.5


def test_missing_block_rejected_at_construction():
    z = bundled_table("zeta")
    g = np.delete(z.gammas, slice(3000, 3020))
    with pytest.raises(ZeroDataError, match="counting residual"):
        ZeroTable(gammas=g, qstar=1, label="torn", source="synthetic")


def test_table_construction_rejects_disorder():
    with pytest.raises(ZeroDataError, match="ascending"):
        ZeroTable(gammas=np.array([14.1, 14.1, 21.0]), qstar=1,
                  label="dup", source="x")
    with pytest.raises(ZeroDataError, match="ascending"):
        ZeroTable(gammas=np.array([-3.0, 14.1]), qstar=1, label="neg",
                  source="x")
    with pytest.raises(ZeroDataError, match="empty"):
        ZeroTable(gammas=np.array([]), qstar=1, label="none", source="x")


def test_tail_formula_against_brute_truncation():
    # drop everything the table knows above u, keep only the analytic
    # continuation (_SuffixSums.past), and compare with the true value
    # from the full table: the relative error shrinks like k/u
    z = bundled_table("zeta")
    for u in (50.0, 100.0, 300.0, 1000.0):
        g = z.gammas[z.gammas <= u]
        trunc = ZeroTable(gammas=g, qstar=1, label="trunc", source="x")
        pure = trunc._suffix_sums.past(u)
        for k in range(1, 9):
            true = _plain_tail_bk(z, u, k, "tail")
            rel = abs(float(pure[k - 1]) - true) / true
            assert rel < 10.0 * k / u, (u, k, rel)
    # past the table the sums are the continuation formula alone, b_1
    # moved by what b1_total leaves past the last zero
    t = bundled_table("mod5_quad")
    past = t._suffix_sums.past(500.0)
    y = math.log(5 * 500.0 / (2 * math.pi))
    assert float(past[1]) == pytest.approx(
        (y + 1 / 3) / (6 * math.pi * 500.0 ** 3), rel=1e-13)
    assert float(past[0]) == pytest.approx(
        _plain_tail_bk(t, 500.0, 1, "auto"), rel=1e-13)


def test_tail_head_consistency():
    # the suffix sums at the first zero, less the head below u = 100,
    # are those from the first zero past it
    z = bundled_table("zeta")
    cols = z._suffix_sums.columns(np.array([0, 29]))
    for k in (2, 3):
        head = math.fsum((0.25 + g * g) ** -k for g in z.gammas[:29])
        assert float(cols[k - 1, 0]) - head == pytest.approx(
            float(cols[k - 1, 1]), rel=1e-12)


@pytest.mark.parametrize("key", available_tables())
def test_tail_bk_bit_exact_against_plain_sum(key):
    # b_1(0), the one tail sum the package still rounds in double
    # (ZeroTable.b1_full, behind sigma0), has the bits of one fsum over
    # the plain terms plus the continuation, for a table without a
    # recorded total; with one, it is that total
    t = bundled_table(key)
    assert t.b1_full == t.b1_total
    bare = replace(t, b1_total=None)
    assert bare.b1_full == _plain_tail_bk(bare, 0.0, 1, "auto")
    assert bare.b1_full == _plain_tail_bk(t, 0.0, 1, "tail")


@pytest.mark.parametrize("key", available_tables())
def test_terms_have_the_bits_of_one_power_per_order(key):
    # the suffix sums form every order's powers at once; each row must
    # hold the bits of that order formed alone, by repeated
    # multiplication in extended precision, whole or in unaligned slices,
    # as construction takes whole chunks and columns their tails
    g = bundled_table(key).gammas.astype(np.longdouble)
    inv = 1.0 / (0.25 + g * g)
    want = [inv]
    for _ in range(1, zd._SUFFIX_ORDERS):
        want.append(want[-1] * inv)
    for lo, hi in ((0, len(g)), (5, 133), (len(g) - 130, len(g) - 1)):
        rows = zd._SuffixSums._powers(inv[lo:hi])
        for k, (row, w) in enumerate(zip(rows, want), start=1):
            assert np.array_equal(row, w[lo:hi]), (k, lo)


def test_tail_bk_bit_exact_with_subnormal_terms():
    # at k = 37 the top zeta terms fall below the smallest normal double;
    # the exponent bins behind l0_full's order sums must still keep every
    # bit, of either sign, and zero terms must add nothing
    t = bundled_table("zeta")
    g = t.gammas
    x = (0.25 + g * g) ** (-37)
    assert x.min() < sys.float_info.min
    # tails of it long enough to be binned
    assert len(g) - 3000 >= zd._BINNED_FROM
    for lo in (0, 30, 1000, 3000):
        assert zd._exact_sum(x[lo:]).hex() == math.fsum(x[lo:].tolist()).hex()
    x = np.concatenate([x, [0.0, 5e-324]])
    assert math.fsum(zd._exact_bins(x) + (-x).tolist()) == 0.0
    signs = np.random.default_rng(37).choice([-1.0, 1.0], x.size)
    x = np.concatenate([signs * x, [-0.0, -5e-324, 3 * 5e-324]])
    assert math.fsum(zd._exact_bins(x) + (-x).tolist()) == 0.0
    assert zd._exact_sum(x).hex() == math.fsum(x.tolist()).hex()


def _signed_terms(rng, n):
    # signed doubles with exponents across 1e-300..1e300, with zeros and
    # small multiples of the smallest subnormal mixed in
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
    pick = rng.random(n)
    x[pick < 0.05] = 0.0
    tiny = pick > 0.95
    x[tiny] = rng.integers(-40, 41, int(tiny.sum())) * 5e-324
    return x


@pytest.mark.parametrize("n", sorted({1, 100, zd._BINNED_FROM - 1,
                                      zd._BINNED_FROM, 4095, 4096, 20000}))
def test_exact_sum_is_fsum(n):
    # math.fsum over a list is the oracle, bit for bit, on both sides of
    # the size switch
    rng = np.random.default_rng(n)
    x = _signed_terms(rng, n)
    narrow = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n) \
        * 2.0 ** rng.integers(-60, 1, n)
    for y in (x, narrow, narrow[::-1].copy(), np.abs(narrow)):
        assert zd._exact_sum(y).hex() == math.fsum(y.tolist()).hex()
    # exact cancellation: every term meets its negation somewhere
    half = _signed_terms(rng, (n + 1) // 2)
    both = rng.permutation(np.concatenate([half, -half]))
    assert zd._exact_sum(both).hex() == math.fsum(both.tolist()).hex()
    assert zd._exact_sum(both) == 0.0


@pytest.mark.parametrize("n", [3, zd._BINNED_FROM + 5])
def test_exact_sum_nonfinite_as_fsum(n):
    # inf, nan and overflowing partial sums give fsum's value or raise
    # fsum's exception
    cases = ([math.inf], [-math.inf], [math.nan], [math.inf, -math.inf],
             [1e308, 1e308], [1e308, 1e308, -1e308], [math.inf, 1e308])
    for extra in cases:
        x = np.concatenate([np.full(n - len(extra), 0.5), extra])
        try:
            want = math.fsum(x.tolist())
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc)):
                zd._exact_sum(x)
            continue
        got = zd._exact_sum(x)
        assert got.hex() == want.hex() or math.isnan(got) and math.isnan(want)


@pytest.mark.parametrize("race", [
    prime_count_race(), square_race(4), two_way_race(5, 1, 2), square_race(13),
    two_way_race(8, 1, 3), two_way_race(24, 1, 5)], ids=lambda r: r.name)
def test_aggregate_stats_of_published_races_as_plain_sums(race):
    # every field, bit for bit, as with b_1(0) taken as a plain fsum, at
    # cutoffs from below the first zero to past every table's end
    tables = [zd.resolve_table(e) for e in race.characters]
    sigma0 = math.sqrt(2.0 * math.fsum(
        e.alpha ** 2 * _plain_tail_bk(t, 0.0, 1, "auto")
        for e, t in zip(race.characters, tables)))
    for u in (4.352, 60.0, 140.0, 1500.0, 2999.0, 12000.0, 14000.0, 2e4):
        want = TailStats(race=race, u=u, sigma0=sigma0, n_zeros=sum(
            int(np.count_nonzero(t.gammas <= u)) for t in tables))
        assert repr(aggregate_stats(race, u)) == repr(want), u


@pytest.mark.parametrize("race", [prime_count_race(), two_way_race(5, 1, 2)])
def test_aggregate_stats_independent_of_call_order(race, monkeypatch):
    # every field and every l0_full value, bit for bit, whichever call
    # built the suffix sums' columns first: fresh tables taken in
    # ascending and then in descending order of s, inside every table
    # and past some tables' ends
    ss = (0.0, 3.0, 30.0, 300.0)

    def record(s):
        stats = aggregate_stats(race, 100.0)
        return repr(stats), repr(tr.l0_full(s, race, stats))
    monkeypatch.setattr(zd, "_table_cache", {})
    up = [record(s) for s in ss]
    monkeypatch.setattr(zd, "_table_cache", {})
    down = [record(s) for s in reversed(ss)]
    assert down[::-1] == up


# (i, j) ranges: within a chunk, across one chunk edge, whole chunks,
# and across many
BETWEEN_RANGES = [(0, 3), (250, 262), (256, 512), (100, 700), (0, 2000),
                  (12000, 12300)]


@pytest.mark.parametrize("i, j", BETWEEN_RANGES)
def test_suffix_sums_between_as_exact_sums(i, j, monkeypatch):
    # W_k(i) - W_k(j) from the suffix sums' columns, within a chunk,
    # across one chunk edge and across whole chunks, against the exact
    # sum of the zeros i..j-1: each column's term rounds k + 2 times and
    # passes through at most 256 + chunks additions, so each column is
    # within n 2^-64 of itself, b1_total for W_1, whose continuation
    # takes what the recorded total leaves past the last zero. From a
    # fresh table, built only through j; asked again after a longer
    # call, the same bits
    monkeypatch.setattr(zd, "_table_cache", {})
    table = bundled_table("zeta")
    sums = table._suffix_sums
    cols = sums.columns(np.array([i, j]))
    assert cols.dtype == np.longdouble and cols.shape == (57, 2)
    assert sums._cols.shape[1] == j + 1
    d = cols[:, 0] - cols[:, 1]
    sums.columns(np.array([j + 300]))
    assert np.array_equal(sums.columns(np.array([i, j])), cols)
    dens = [Fraction(1, 4) + Fraction(g) ** 2 for g in table.gammas[i:j]]
    for k in (1, 2, 8, 57):
        exact = _fixed_point_sum([den ** -k for den in dens])
        n = 256 + len(table) // 256 + 1 + k + 2
        scale = table.b1_total if k == 1 else cols[k - 1, 0]
        got = Fraction(*d[k - 1].as_integer_ratio())
        assert abs(got - exact) <= Fraction(2 * n, 2 ** 64) \
            * Fraction(*np.longdouble(scale).as_integer_ratio()), k


@pytest.mark.parametrize("key", available_tables())
def test_w1_is_the_first_column_row_rounded(key):
    # W_1 in double, read alone, has the bits of the columns' first row
    # rounded, at the first and last zero and either side of a chunk
    # edge; and the first zero's W_1 rounds to the recorded total
    t = bundled_table(key)
    i = np.array([k for k in (0, 255, 256, len(t) - 1) if k < len(t)])
    sums = zd._SuffixSums(t)
    assert np.array_equal(sums.w1(i), sums.columns(i)[0].astype(float))
    if t.b1_total is not None:
        assert float(zd._SuffixSums(t).columns(np.array([0]))[0, 0]) \
            == t.b1_total


@pytest.mark.parametrize("key, deep", [("zeta", 15301), ("mod4", 3129)])
def test_deep_column_same_read_first_or_stepwise(key, deep):
    # a deep read first, on a fresh table, gives every column up to it
    # the bits of the same columns reached through shallower reads on
    # another fresh table, for every order and for W_1 in double
    path = bundled_table(key).source
    first = load_zeros(path)._suffix_sums
    stepwise = load_zeros(path)._suffix_sums
    first.columns(np.array([deep]))
    first.w1(np.array([deep]))
    steps = np.array([3, 255, 256, 700, deep - 1, deep])
    for i in steps:
        stepwise.columns(np.array([i]))
        stepwise.w1(np.array([i]))
    assert first._cols.shape == stepwise._cols.shape == (57, deep + 1)
    assert np.array_equal(stepwise.columns(steps), first.columns(steps))
    assert np.array_equal(stepwise.w1(steps), first.w1(steps))


@pytest.mark.parametrize("key", ["zeta", "mod4", "mod5_j1", "mod13_quad"])
def test_past_table_over_orders_is_each_order(key):
    # the continuation over an array of orders has the bits of each
    # order taken alone, at the last zero and past it
    t = bundled_table(key)
    k = np.arange(1, zd._SUFFIX_ORDERS + 1)
    for h in (t.last_zero, 1.37 * t.last_zero, 12345.678):
        h = np.longdouble(h)
        each = [zd._past_table(t, h, int(j)) for j in k]
        assert np.array_equal(zd._past_table(t, h, k), np.array(each))


def _fixed_point_sum(terms) -> Fraction:
    # the sum of positive rationals, largest first, each truncated to a
    # multiple of 2^-N that puts the sum's error 2^-100 below its size:
    # exact integer sums in place of a Fraction sum, whose denominators
    # grow with every term
    top = terms[0]
    n = 100 + len(terms).bit_length() - (
        top.numerator.bit_length() - top.denominator.bit_length() - 1)
    return Fraction(sum((t.numerator << n) // t.denominator for t in terms),
                    1 << n)


def _file_race(path, gammas, b1_total):
    path.write_text(f"# qstar: 1\n# b1_total: {b1_total!r}\n"
                    + "".join(f"{g!r}\n" for g in gammas.tolist()))
    race = prime_count_race()
    return replace(race, characters=(
        replace(race.characters[0], table=str(path)),))


def test_prefix_sums_built_as_far_as_calls_reach(tmp_path, monkeypatch):
    # loading builds no sums, and aggregate_stats none either; l0_full
    # builds the suffix sums' columns only through its split, and a call
    # at a lower s builds nothing more
    z = bundled_table("zeta")
    monkeypatch.setattr(zd, "_table_cache", {})
    assert "_suffix_sums" not in vars(bundled_table("zeta"))
    race = _file_race(tmp_path / "zeta.txt", z.gammas, z.b1_total)
    assert "_suffix_sums" not in vars(load_zeros(str(tmp_path / "zeta.txt")))
    t = zd.resolve_table(race.characters[0])
    stats = aggregate_stats(race, 2000.0)
    assert "_suffix_sums" not in vars(t)
    tr.l0_full(1000.0, race, stats)
    cols = t._suffix_sums._cols
    assert cols.shape == (57, int(t.split(2000.0)) + 1)
    tr.l0_full(100.0, race, aggregate_stats(race, 500.0))
    assert zd.resolve_table(race.characters[0]) is t
    assert t._suffix_sums._cols is cols


def test_rewritten_table_gets_fresh_power_sums(tmp_path):
    # a file rewritten with fewer zeros is a new table: l0_full must come
    # from its own ordinates, not from sums cached for the old ones
    z = bundled_table("zeta")
    path = tmp_path / "zeta.txt"
    race = _file_race(path, z.gammas[:2000], z.b1_total)
    before = tr.l0_full(700.0, race, aggregate_stats(race, 100.0))
    _file_race(path, z.gammas[:1000], z.b1_total)
    after = tr.l0_full(700.0, race, aggregate_stats(race, 100.0))
    assert len(zd.resolve_table(race.characters[0])) == 1000
    # the same file under another label is read afresh
    fresh = replace(race, characters=(
        replace(race.characters[0], label="fresh"),))
    assert repr(after) == repr(
        tr.l0_full(700.0, fresh, aggregate_stats(fresh, 100.0)))
    assert after.values != before.values


def test_negative_cutoff_rejected():
    for u in (-1.0, math.nan):
        with pytest.raises(ValueError, match="finite"):
            aggregate_stats(prime_count_race(), u)


def moment_ratios(stats):
    # even moments of the limiting distribution against those of a
    # Gaussian of the same variance, orders 2, 4, 6 and 8
    r2, r3, r4 = stats.R[1], stats.R[2], stats.R[3]
    return (
        1.0,
        1.0 - r2 / 2.0,
        1.0 - 3.0 * r2 / 2.0 + 2.0 * r3 / 3.0,
        1.0 - 3.0 * r2 + 3.0 * r2 * r2 / 4.0 + 8.0 * r3 / 3.0
        - 11.0 * r4 / 8.0,
    )


def test_moment_ratios_zeta():
    race = prime_count_race()
    got = moment_ratios(race_moments(race, aggregate_stats(race, 0.0)))
    want = (1.0, 0.9652, 0.9034, 0.8229)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=5e-4)


def test_moment_ratios_decreasing():
    for build in (prime_count_race, lambda: two_way_race(13, 1, 2)):
        race = build()
        got = moment_ratios(race_moments(race, aggregate_stats(race, 0.0)))
        assert sorted(got, reverse=True) == list(got)
        assert all(0.0 < g <= 1.0 for g in got)


def test_montgomery_bound_zeta():
    # the Gaussian exceedance bound exp(-v^2 / (2 sigma0^2)) that the
    # Fourier route's aliasing check reads, at v = 3 for zeta
    st0 = aggregate_stats(prime_count_race(), 0.0)
    bound = rs._alias_bound(3.0, st0.sigma0, False)
    assert math.log(bound) == pytest.approx(-97.421, abs=0.01)


def test_normalized_ratio_floor():
    # R_k/R_2^(k-1) >= 1: the combined zero multiset's power sums are
    # log-convex no matter how the characters mix
    race = two_way_race(5, 1, 2)
    for u in (29.0, 100.0, 200.0):
        R = race_moments(race, aggregate_stats(race, u)).R
        for k in range(2, 9):
            assert R[k - 1] / R[1] ** (k - 1) >= 0.999, (u, k)


def test_multi_character_moment_bounds():
    # mixing characters pushes the distribution toward a Gaussian: the
    # variance-normalized moments stay below the averaged single-series
    # values scaled by half the unit count, and the second ratio drops
    # below half its single-series average outright
    sp = two_way_race(5, 1, 2)
    phi_half = 2.0
    for u in (29.0, 100.0, 200.0):
        st_ = aggregate_stats(sp, u)
        R = race_moments(sp, st_).R
        singles = []
        for e in sp.characters:
            b = [_plain_tail_bk(bundled_table(e.table), u, k, "auto")
                 for k in range(1, 9)]
            rk = [e.weight ** (k - 1) * b[k - 1] / b[0] ** k
                  for k in range(1, 9)]
            singles.append((e.weight, rk))
        wtot = sum(w for w, _ in singles)
        for k in range(3, 9):
            avg = sum(w * rk[k - 1] / rk[1] ** (k - 1)
                      for w, rk in singles) / wtot
            lhs = R[k - 1] / R[1] ** (k - 1)
            assert lhs <= avg * phi_half ** (k - 2), (u, k)
        avg_r2 = sum(w * rk[1] for w, rk in singles) / wtot
        assert R[1] <= avg_r2 / phi_half * 1.05, u


def test_file_path_table(tmp_path):
    # an entry whose table is a file path draws on that file, not on the
    # bundled table of its label
    z = bundled_table("zeta")
    p = tmp_path / "short.txt"
    p.write_text(f"# qstar: 1\n# b1_total: {z.b1_total!r}\n"
                 + "".join(f"{g!r}\n" for g in z.gammas[:500].tolist()))
    race = prime_count_race()
    race = replace(race, characters=(
        replace(race.characters[0], table=str(p)),))
    st_ = aggregate_stats(race, 20.0)
    assert st_.n_zeros == 1
    t = zd.resolve_table(race.characters[0])
    assert t.source == str(p) and len(t) == 500
    w = [float(x) for x in t._suffix_sums.columns(np.array([1]))[:, 0]]
    assert w[1] == pytest.approx(_plain_tail_bk(t, 20.0, 2, "auto"),
                                 rel=1e-15)
    # both tables give b_1 from the same b1_total; b_2 tells them apart
    assert w[0] == pytest.approx(_plain_tail_bk(z, 20.0, 1, "auto"),
                                 rel=1e-15)
    assert abs(w[1] / _plain_tail_bk(z, 20.0, 2, "auto") - 1.0) > 1e-12


def test_aggregate_matches_manual_weighting():
    # sigma0^2 / 2 sums the full tables' b_1 weighted by alpha^2
    sp = two_way_race(5, 1, 2)
    st_ = aggregate_stats(sp, 35.0)
    manual = math.fsum(
        e.alpha ** 2 * _plain_tail_bk(bundled_table(e.table), 0.0, 1, "auto")
        for e in sp.characters)
    assert st_.sigma0 ** 2 / 2.0 == pytest.approx(manual, rel=1e-13)


@given(st.floats(0.0, 380.0), st.floats(0.5, 20.0))
@settings(max_examples=40, deadline=None)
def test_tail_bk_monotone(u, du):
    # the suffix sums fall as their first zero rises, and with the order
    t = bundled_table("mod5_quad")
    i, j = (min(t.count(x), len(t) - 1) for x in (u, u + du))
    w = t._suffix_sums.columns(np.array([i, j]))
    assert w[1, 1] <= w[1, 0]
    assert w[2, 0] <= w[1, 0]


def test_load_zeros_roundtrip(tmp_path):
    p = tmp_path / "tiny.txt"
    p.write_text(
        "# custom zero table\n"
        "# key: tiny\n# qstar: 3\n# parity: 1\n# weight: 1\n"
        "# count: 3\n# b1_total: 0.25\n"
        "8.039\n11.25\n13.9\n")
    t = load_zeros(str(p))
    assert t.label == "tiny" and t.qstar == 3 and t.parity == 1
    assert t.b1_total == 0.25 and len(t) == 3
    assert t.last_zero == 13.9


def test_load_zeros_errors(tmp_path):
    cases = [
        ("# qstar: 1\n14.1\noops\n", "tiny.txt:3: not a number"),
        ("# qstar: 1\n14.1\n13.0\n", "not above previous"),
        ("# qstar: 1\n-2.0\n", "positive"),
        ("# qstar: 1\n# count: 5\n14.1\n", "header says 5"),
        ("14.1\n15.0\n", "no qstar"),
        ("# qstar: 1\n", "no ordinates"),
        ("# qstar: four\n14.1\n",
         "tiny.txt:1: header qstar must be an integer, got 'four'"),
        ("# qstar: 1\n\n# b1_total: n/a\n14.1\n",
         "tiny.txt:3: header b1_total must be a number"),
        # b_1 sums positive terms; chi(-1) = (-1)**parity reads 0 or 1
        ("# qstar: 1\n# b1_total: nan\n14.1\n",
         "tiny: b1_total must be positive and finite, got nan"),
        ("# qstar: 1\n# b1_total: inf\n14.1\n",
         "tiny: b1_total must be positive and finite, got inf"),
        ("# qstar: 1\n# b1_total: -1.0\n14.1\n",
         "tiny: b1_total must be positive and finite, got -1.0"),
        ("# qstar: 1\n# parity: 2\n14.1\n", "tiny: parity must be 0 or 1"),
    ]
    for text, match in cases:
        p = tmp_path / "tiny.txt"
        p.write_text(text)
        with pytest.raises(ZeroDataError, match=match):
            load_zeros(str(p))
    with pytest.raises(ZeroDataError):
        load_zeros(str(tmp_path / "absent.txt"))


@pytest.mark.parametrize("weight", [0, -2])
def test_load_zeros_refuses_weight_below_one(tmp_path, weight):
    # refused by its header's name: weight 0 would load and -2 would read
    # as a table with gaps or duplicates
    p = tmp_path / "tiny.txt"
    p.write_text(f"# qstar: 1\n# weight: {weight}\n14.134725142\n21.022039639\n")
    with pytest.raises(ZeroDataError, match="tiny: weight must be >= 1"):
        load_zeros(str(p))


def test_entry_and_table_weights_must_agree(tmp_path):
    # an entry weight of 2 on a file without a weight header would give
    # one series two weights: the tail sums would use 1, the model 2
    table = tmp_path / "mod4.txt"
    source = Path(bundled_table("mod4").source).read_text()
    table.write_text("".join(
        line for line in source.splitlines(keepends=True)
        if not line.startswith("# weight")))
    race = RaceSpec(q=9, kind="two-way", contestants=(), offset=1.0,
                    characters=(RaceEntry("a", 4, 1.0, str(table), 2),))
    with pytest.raises(ZeroDataError, match="weight 2.*weight 1"):
        aggregate_stats(race, 100.0)
    with pytest.raises(ZeroDataError, match="weight 2.*weight 1"):
        tr.model_constants(race)


def test_entry_and_table_conductors_must_agree():
    # an entry qstar of 5 over the bundled mod 4 table would give one
    # series two conductors: the tails would use the table's 4, the
    # model the entry's 5. The solve refuses; every published race's
    # entries agree with their tables
    race = two_way_race(4, 1, 3)
    race = replace(race, characters=(replace(race.characters[0], qstar=5),))
    assert race.characters[0].qstar == 5
    with pytest.raises(ZeroDataError, match="qstar 5.*qstar 4"):
        rs.race_result(race, aggregate_stats(race, 100.0))
    with pytest.raises(ZeroDataError, match="qstar 5.*qstar 4"):
        tr.model_constants(race)
    for race in (prime_count_race(), square_race(4), two_way_race(5, 1, 2),
                 square_race(13), two_way_race(8, 1, 3),
                 two_way_race(24, 1, 5)):
        for entry in race.characters:
            assert zd.resolve_table(entry).qstar == entry.qstar


def test_data_dir_override(tmp_path, monkeypatch):
    p = tmp_path / "zeta.txt"
    p.write_text("# key: zeta\n# qstar: 1\n14.134725\n21.022040\n25.010858\n")
    monkeypatch.setenv("RACE_DENSITY_DATA", str(tmp_path))
    t = bundled_table("zeta")
    assert len(t) == 3 and t.source.startswith(str(tmp_path))
    monkeypatch.delenv("RACE_DENSITY_DATA")
    assert len(bundled_table("zeta")) >= 16000


def test_relative_data_override_follows_working_directory(tmp_path,
                                                          monkeypatch):
    # a relative RACE_DENSITY_DATA is read against the working directory
    # of each call, even once a table has been loaded through it
    z = bundled_table("zeta")
    for name, n in (("a", 1000), ("b", 2000)):
        d = tmp_path / name / "tables"
        d.mkdir(parents=True)
        (d / "zeta.txt").write_text(
            "# qstar: 1\n" + "".join(f"{g!r}\n" for g in z.gammas[:n].tolist()))
    monkeypatch.setattr(zd, "_table_cache", {})
    monkeypatch.setenv("RACE_DENSITY_DATA", "tables")
    monkeypatch.chdir(tmp_path / "a")
    a = bundled_table("zeta")
    assert len(a) == 1000
    assert a.source == str(tmp_path / "a" / "tables" / "zeta.txt")
    monkeypatch.chdir(tmp_path / "b")
    assert len(bundled_table("zeta")) == 2000
    monkeypatch.chdir(tmp_path / "a")
    assert bundled_table("zeta") is a


def test_warm_bundled_table_does_no_path_work(monkeypatch):
    # a table already loaded comes back without joining, normalising or
    # testing its path
    z = bundled_table("zeta")

    def refuse(*args):
        raise AssertionError("path work on a warm call")
    for name in ("join", "abspath", "exists"):
        monkeypatch.setattr(os.path, name, refuse)
    assert bundled_table("zeta") is z


def test_unknown_bundled_key():
    with pytest.raises(ZeroDataError, match="available:"):
        bundled_table("nonexistent_table")


def test_file_table_read_once_until_rewritten(tmp_path, monkeypatch):
    # a race's file-path table is read once; later calls, and
    # l0_asymptotic's two lookups, reuse it until the file changes
    table = tmp_path / "mod4.txt"
    table.write_text(Path(bundled_table("mod4").source).read_text())
    race = RaceSpec(q=9, kind="two-way", contestants=(), offset=1.0,
                    characters=(RaceEntry("main", 4, 1.0, str(table)),))
    loads = []
    load = zd.load_zeros
    monkeypatch.setattr(zd, "load_zeros",
                        lambda *a, **k: loads.append(a) or load(*a, **k))
    resolves = []
    resolve = tr.resolve_table
    monkeypatch.setattr(tr, "resolve_table",
                        lambda *a, **k: resolves.append(a) or resolve(*a, **k))
    first = aggregate_stats(race, 1000.0)
    assert len(loads) == 1
    assert aggregate_stats(race, 1000.0) == first
    model = tr.l0_asymptotic(50.0, race)
    assert len(loads) == 1
    assert len(resolves) == 1
    # the same bytes under a new modification time: read once more
    stat = os.stat(table)
    os.utime(table, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10 ** 9))
    assert aggregate_stats(race, 1000.0) == first
    assert tr.l0_asymptotic(50.0, race) == model
    assert len(loads) == 2
