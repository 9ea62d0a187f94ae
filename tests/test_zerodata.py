"""Zero tables, inverse-power tail sums, and aggregated race statistics.

Reference values quoted here were computed independently of this
implementation (closed forms, high-precision quadrature of the explicit
formulas, or digits matching independently tabulated race parameters)
and frozen before the module was written.
"""

import functools
import inspect
import math
import os
import sys
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jn_zeros

from racedensity import rs_method as rs
from racedensity import transforms as tr
from racedensity import zerodata as zd
from racedensity.race import (
    SUPPORTED_MODULI, prime_count_race, race_from_config, square_race,
    square_root_count, two_way_race,
)
from racedensity.zerodata import (
    CharTailStats, TailStats, ThinTailWarning, ZeroDataError, ZeroTable,
    aggregate_stats, available_tables, bundled_table, load_zeros,
)
from racedensity.zerodata import _tail_bk
from tail_moments import race_moments, sigma_u

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
    got = _tail_bk(bundled_table("zeta"), 0.0, 1)
    assert got == pytest.approx(want, abs=1e-12)


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
        assert st_.per_char[0].T_single == pytest.approx(want, abs=0.02)


def test_single_series_radius_identity():
    j1 = jn_zeros(0, 1)[0]
    st_ = aggregate_stats(square_race(7), 50.0)
    p = st_.per_char[0]
    want = j1 * math.sqrt((p.y + 1 / 3) / (6 * (p.y + 1) * p.r[1]))
    assert p.T_single == pytest.approx(want, rel=1e-13)


def test_tail_stats_hold_only_what_routes_read():
    # the Fourier route's step and aliasing check read sigma0, u and
    # n_zeros label its results; per_char, which only l0_full's
    # remainder reads, is a cached property, and a character's label,
    # alpha and weight come from its RaceEntry. The order count is fixed,
    # not chosen, and l0_full counts no zeros of its own
    assert [f.name for f in fields(TailStats)] == [
        "race", "u", "sigma0", "n_zeros"]
    assert isinstance(vars(TailStats)["per_char"], functools.cached_property)
    assert [f.name for f in fields(CharTailStats)] == [
        "b", "n_zeros", "y", "r", "T_single"]
    assert not hasattr(tr, "_zeros_below")
    race = prime_count_race()
    st_ = aggregate_stats(race, 100.0)
    assert st_.race is race
    assert "per_char" not in vars(st_)
    assert len(st_.per_char[0].b) == len(st_.per_char[0].r) \
        == zd._TAIL_ORDERS == tr._CORR_TERMS == 8
    assert "per_char" in vars(st_)
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
    # continuation, and compare with the true value from the full table:
    # the relative error shrinks like k/u
    z = bundled_table("zeta")
    for u in (50.0, 100.0, 300.0, 1000.0):
        g = z.gammas[z.gammas <= u]
        trunc = ZeroTable(gammas=g, qstar=1, label="trunc", source="x")
        for k in range(1, 9):
            pure = _tail_bk(trunc, u, k)
            true = _tail_bk(z, u, k)
            rel = abs(pure - true) / true
            assert rel < 10.0 * k / u, (u, k, rel)


def test_tail_head_consistency():
    z = bundled_table("zeta")
    for k in (2, 3):
        full = _tail_bk(z, 0.0, k)
        at_u = _tail_bk(z, 100.0, k)
        head = math.fsum((0.25 + g * g) ** -k for g in z.gammas[:29])
        assert full - head == pytest.approx(at_u, rel=1e-12)


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


def _checkpoint_edges(table):
    # cutoffs whose heads hold 0, 127, 128, 129, 255, 256, n - 1 and n
    # ordinates (those the table has), and one past the table end
    g = table.gammas
    n = len(g)
    counts = sorted({h for h in (0, 127, 128, 129, 255, 256, n - 1, n)
                     if h <= n})
    us = [0.0 if h == 0 else float(g[h - 1]) for h in counts]
    assert [table.count(u) for u in us] == counts
    return us + [table.last_zero + 1.0]


@pytest.mark.parametrize("key", available_tables())
def test_tail_bk_bit_exact_against_plain_sum(key):
    # b_k from the exact prefix sums must give the very bits of one fsum
    # over the plain terms, on both sides of every checkpoint a head can
    # reach
    t = bundled_table(key)
    g = t.gammas
    rng = np.random.default_rng(sum(map(ord, key)))
    n = len(g)
    us = ([0.0] + g[::max(1, n // 12)].tolist()
          + rng.uniform(0.0, 1.05 * t.last_zero, 8).tolist()
          + [float(g[n // 2 - 1]), float(g[n // 2]),
             float(0.5 * (g[n // 2 - 1] + g[n // 2])),
             t.last_zero, t.last_zero + 1.0]
          + _checkpoint_edges(t))
    # heads both shorter and longer than half the table
    assert {2 * t.count(u) < n for u in us} == {True, False}
    for k in range(1, 11):
        for u in us:
            assert _tail_bk(t, u, k) == _plain_tail_bk(t, u, k, "auto"), (u, k)
    # b_1 from the table's own total, as for a table with no b1_total
    t = replace(t, b1_total=None)
    for u in us:
        assert _tail_bk(t, u, 1) == _plain_tail_bk(t, u, 1, "auto"), u


@pytest.mark.parametrize("key", available_tables())
def test_terms_have_the_bits_of_one_power_per_order(key):
    # the prefix sums form every order's terms at once; each row must hold
    # the bits of numpy's power for that order alone, as the plain sums
    # take them (for k = 1 that is a reciprocal, which a broadcast power
    # does not give), whole or in unaligned slices
    g = bundled_table(key).gammas
    den = 0.25 + g * g
    orders = tuple(range(1, 11))
    want = [den ** -k for k in orders]
    for lo, hi in ((0, len(g)), (5, 133), (len(g) - 130, len(g) - 1)):
        rows = zd._terms(g[lo:hi], orders)
        for k, row, w in zip(orders, rows, want):
            assert np.array_equal(row, w[lo:hi]), (k, lo)


def test_tail_bk_bit_exact_with_subnormal_terms():
    # at k = 37 the top zeta terms fall below the smallest normal double;
    # the exponent bins behind the full sum must still keep every bit,
    # of either sign, and zero terms must add nothing
    t = bundled_table("zeta")
    g = t.gammas
    x = (0.25 + g * g) ** (-37)
    assert x.min() < sys.float_info.min
    # u = g[3000]: a head long enough that one plain sum of it would be
    # binned, here 23 checkpoints and 57 terms negated against the total
    assert 3000 >= zd._BINNED_FROM
    for u in (0.0, 30.0, 1000.0, float(g[3000]), t.last_zero,
              *_checkpoint_edges(t)):
        assert _tail_bk(t, u, 37) == _plain_tail_bk(t, u, 37, "auto"), u
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


def _plain_tail_sums(table, u, ks, n_head):
    # the oracle of zerodata._tail_sums: one fsum over the plain terms
    assert n_head == int(np.count_nonzero(table.gammas <= u))
    return tuple(_plain_tail_bk(table, u, k, "auto") for k in ks)


def _tail_record(race, stats) -> tuple:
    # every field of stats, per_char's or its refusal past a table's
    # coverage, and each table's b_1..b_8 at stats.u, past its end too
    try:
        per = repr(stats.per_char)
    except ZeroDataError as exc:
        per = f"refused: {exc}"
    u = stats.u
    b = [zd._tail_sums(t, u, range(1, 9), t.count(u))
         for t in map(zd.resolve_table, race.characters)]
    return repr(stats), per, repr(b)


@pytest.mark.filterwarnings("ignore::racedensity.zerodata.ThinTailWarning")
@pytest.mark.parametrize("race", [
    prime_count_race(), square_race(4), two_way_race(5, 1, 2), square_race(13),
    two_way_race(8, 1, 3), two_way_race(24, 1, 5)], ids=lambda r: r.name)
def test_aggregate_stats_of_published_races_as_plain_sums(race, monkeypatch):
    # every field and tail, bit for bit, as with the tail sums taken as
    # plain fsums, at cutoffs from below the first checkpoint to past
    # every table's end but zeta's; past a table's coverage per_char
    # refuses alike, and the table's b_k still match
    us = (4.352, 60.0, 140.0, 1500.0, 2999.0, 12000.0, 14000.0)
    with monkeypatch.context() as m:
        m.setattr(zd, "_tail_sums", _plain_tail_sums)
        want = [_tail_record(race, aggregate_stats(race, u)) for u in us]
    for u, w in zip(us, want):
        assert _tail_record(race, aggregate_stats(race, u)) == w, u
    # every table covers u = 60, so its tails are compared there
    assert not want[1][1].startswith("refused")


@pytest.mark.filterwarnings("ignore::racedensity.zerodata.ThinTailWarning")
@pytest.mark.parametrize("race", [prime_count_race(), two_way_race(5, 1, 2)])
def test_aggregate_stats_independent_of_call_order(race, monkeypatch):
    # every field and tail, bit for bit, whichever cutoff built the
    # prefix sums' checkpoints first: fresh tables taken in ascending and
    # then in descending order of cutoff
    us = (0.0, 30.0, 1000.0, 13000.0)
    monkeypatch.setattr(zd, "_table_cache", {})
    up = [_tail_record(race, aggregate_stats(race, u)) for u in us]
    monkeypatch.setattr(zd, "_table_cache", {})
    down = [_tail_record(race, aggregate_stats(race, u)) for u in reversed(us)]
    assert down[::-1] == up


# between(i, j)'s ranges, each with the chunks its non-empty parts sum
BETWEEN_CHUNKS = {(0, 3): {0}, (250, 262): {0, 1}, (256, 512): set(),
                  (100, 700): {0, 2}, (0, 2000): {7}, (12000, 12300): {46, 48}}


@pytest.mark.parametrize("i, j", BETWEEN_CHUNKS)
def test_suffix_sums_between_as_exact_sums(i, j, monkeypatch):
    # D_k = W_k(i) - W_k(j), within a chunk, across one chunk edge and
    # across whole chunks, against the exact sum of the zeros' terms:
    # each term rounds k + 2 times, and no term passes through more than
    # 256 + chunks additions. From a fresh table, building no column and
    # keeping, read-only, the powers of the chunks that its non-empty
    # part chunks sum, and only those. Asked again, directly and after a
    # neighbouring range over the same chunks, it gives the same bits
    monkeypatch.setattr(zd, "_table_cache", {})
    table = bundled_table("zeta")
    sums = table._suffix_sums
    d = sums.between(i, j)
    assert d.dtype == np.longdouble and d.shape == (57,)
    assert sums._cols.shape[1] == 0
    assert set(sums._rows) == BETWEEN_CHUNKS[i, j]
    assert not any(rows.flags.writeable for rows in sums._rows.values())
    assert np.array_equal(sums.between(i, j), d)
    sums.between(i + 1, j - 1)
    assert np.array_equal(sums.between(i, j), d)
    dens = [Fraction(1, 4) + Fraction(g) ** 2 for g in table.gammas[i:j]]
    for k in (1, 2, 8, 57):
        exact = _fixed_point_sum([den ** -k for den in dens])
        n = 256 + len(table) // 256 + 1 + k + 2
        got = Fraction(*d[k - 1].as_integer_ratio())
        assert abs(got - exact) <= Fraction(n, 2 ** 64) * exact, k
    # the last zero alone: its own powers, nothing past the table end
    last = table.gammas[-1:].astype(np.longdouble)
    assert np.array_equal(sums.between(len(table) - 1, len(table)),
                          sums._powers(1.0 / (0.25 + last * last))[:, 0])


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


def _index_state(table):
    # the prefix-sum index as built so far: per order the expansion
    # objects at each checkpoint, and the totals
    sums = table._prefix_sums
    return ({k: list(marks) for k, marks in sums._marks.items()},
            dict(sums._totals))


def test_prefix_sums_built_as_far_as_calls_reach(tmp_path, monkeypatch):
    # loading builds no sums, and aggregate_stats only the empty start
    # behind b_1(0); reading per_char builds checkpoints only up to its
    # cutoff's, with the totals behind b_2..b_8 (b_1 comes from the
    # recorded total); a second read at a lower cutoff builds nothing
    z = bundled_table("zeta")
    monkeypatch.setattr(zd, "_table_cache", {})
    assert "_prefix_sums" not in vars(bundled_table("zeta"))
    race = _file_race(tmp_path / "zeta.txt", z.gammas, z.b1_total)
    assert "_prefix_sums" not in vars(load_zeros(str(tmp_path / "zeta.txt")))
    t = zd.resolve_table(race.characters[0])
    assert "_prefix_sums" not in vars(t)
    first = aggregate_stats(race, 2000.0)
    assert _index_state(t) == ({1: [[]]}, {})
    first.per_char
    marks, totals = _index_state(t)
    assert sorted(marks) == list(range(1, 9))
    assert {len(m) for m in marks.values()} == {t.count(2000.0) // 128 + 1}
    assert sorted(totals) == list(range(2, 9))
    second = aggregate_stats(race, 500.0)
    second.per_char
    assert zd.resolve_table(race.characters[0]) is t
    after = _index_state(t)
    assert after[0].keys() == marks.keys() and after[1].keys() == totals.keys()
    assert all(a is b for k in marks for a, b in zip(after[0][k], marks[k],
                                                     strict=True))
    assert all(after[1][k] is totals[k] for k in totals)
    for st_, u in ((first, 2000.0), (second, 500.0)):
        assert st_.per_char[0].b == tuple(
            _plain_tail_bk(t, u, k, "auto") for k in range(1, 9))


def test_rewritten_table_gets_fresh_power_sums(tmp_path):
    # a file rewritten with fewer zeros is a new table: its b_k must come
    # from its own ordinates, not from sums cached for the old ones
    z = bundled_table("zeta")
    path = tmp_path / "zeta.txt"
    race = _file_race(path, z.gammas[:2000], z.b1_total)
    before = aggregate_stats(race, 100.0)
    before.per_char
    _file_race(path, z.gammas[:1000], z.b1_total)
    after = aggregate_stats(race, 100.0)
    t = load_zeros(str(path))
    assert len(t) == 1000
    want = tuple(_plain_tail_bk(t, 100.0, k, "auto") for k in range(1, 9))
    assert after.per_char[0].b == want
    assert before.per_char[0].b[1:] != want[1:]


def test_tail_warns_when_thin():
    t = bundled_table("mod5_quad")
    race = square_race(5)
    stats = aggregate_stats(race, t.last_zero - 1.0)
    with pytest.warns(ThinTailWarning):
        tr.l0_full(1.0, race, stats)
    beyond = _tail_bk(t, 500.0, 2)
    # past the table the value is the continuation formula alone
    y = math.log(5 * 500.0 / (2 * math.pi))
    want = (y + 1 / 3) / (6 * math.pi * 500.0 ** 3)
    assert beyond == pytest.approx(want, rel=1e-13)


def test_aggregate_warns_once_per_thin_table():
    # mod5_j1 holds few zeros above 250, mod5_quad enough: each l0_full
    # call warns once for all orders b_1..b_8, naming the line that
    # called it; aggregate_stats and a direct read of per_char, which
    # builds the tails, warn of nothing
    race = two_way_race(5, 1, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stats = aggregate_stats(race, 250.0)
        stats.per_char
        assert caught == []
        for s in (1.0, 2.0):
            tr.l0_full(s, race, stats)
            line = inspect.currentframe().f_lineno - 1
    thin = [w for w in caught if issubclass(w.category, ThinTailWarning)]
    assert len(thin) == 2
    assert all("mod5_j1" in str(w.message) for w in thin)
    assert [(w.filename, w.lineno) for w in thin] == [(__file__, line)] * 2


def test_negative_cutoff_rejected():
    for u in (-1.0, math.nan):
        with pytest.raises(ValueError, match="finite"):
            aggregate_stats(prime_count_race(), u)


def test_replaced_cutoff_gets_its_own_tails():
    # dataclasses.replace gives a record that builds the tails at its own
    # cutoff, not one that shares the tails read from the first
    race = prime_count_race()
    stats = aggregate_stats(race, 100.0)
    stats.per_char
    moved = replace(stats, u=500.0)
    assert "per_char" not in vars(moved)
    assert moved.per_char == aggregate_stats(race, 500.0).per_char
    assert moved.per_char[0].n_zeros == bundled_table("zeta").count(500.0)
    assert moved.per_char != stats.per_char


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
        for e, p in zip(sp.characters, st_.per_char, strict=True):
            rk = [e.weight ** (k - 1) * p.b[k - 1] / p.b[0] ** k
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
    t = load_zeros(str(p))
    st_ = aggregate_stats(race, 20.0)
    assert st_.n_zeros == 1
    b = st_.per_char[0].b
    assert b == tuple(_tail_bk(t, 20.0, k) for k in range(1, 9))
    # both tables give b_1 from the same b1_total; b_2 tells them apart
    assert b[1] != _tail_bk(z, 20.0, 2)


def test_aggregate_matches_manual_weighting():
    # each character's b_k is its table's, and sigma0^2 / 2 sums the full
    # tables' b_1 weighted by alpha^2
    sp = two_way_race(5, 1, 2)
    st_ = aggregate_stats(sp, 35.0)
    for e, p in zip(sp.characters, st_.per_char):
        for k in (1, 3, 6):
            manual = _tail_bk(bundled_table(e.table), 35.0, k)
            assert p.b[k - 1] == pytest.approx(manual, rel=1e-13)
    manual = math.fsum(
        e.alpha ** 2 * _tail_bk(bundled_table(e.table), 0.0, 1)
        for e in sp.characters)
    assert st_.sigma0 ** 2 / 2.0 == pytest.approx(manual, rel=1e-13)


@given(st.floats(0.0, 380.0), st.floats(0.5, 20.0))
@settings(max_examples=40, deadline=None)
def test_tail_bk_monotone(u, du):
    t = bundled_table("mod5_quad")
    b2a = _tail_bk(t, u, 2)
    b2b = _tail_bk(t, u + du, 2)
    b3a = _tail_bk(t, u, 3)
    assert b2b <= b2a * (1 + 1e-12)
    assert b3a <= b2a * (1 + 1e-12)


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
    ]
    for text, match in cases:
        p = tmp_path / "tiny.txt"
        p.write_text(text)
        with pytest.raises(ZeroDataError, match=match):
            load_zeros(str(p))
    with pytest.raises(ZeroDataError):
        load_zeros(str(tmp_path / "absent.txt"))


def test_entry_and_table_weights_must_agree(tmp_path):
    # a config weight of 2 on a file without a weight header would give
    # one series two weights: the tail sums would use 1, the model 2
    table = tmp_path / "mod4.txt"
    table.write_text("".join(
        line for line in open(bundled_table("mod4").source)
        if not line.startswith("# weight")))
    cfg = tmp_path / "race.cfg"
    cfg.write_text(f"q = 9\nkind = custom\noffset = 1\ntable.a = {table}\n"
                   "qstar.a = 4\nalpha.a = 1\nweight.a = 2\n")
    race = race_from_config(str(cfg))
    with pytest.raises(ZeroDataError, match="weight 2.*weight 1"):
        aggregate_stats(race, 100.0)
    with pytest.raises(ZeroDataError, match="weight 2.*weight 1"):
        tr.model_constants(race)


def test_entry_and_table_conductors_must_agree(tmp_path):
    # a config qstar of 5 over the bundled mod 4 table would give one
    # series two conductors: the tails would use the table's 4, the
    # model the entry's 5. The solve refuses; every published race's
    # entries agree with their tables
    cfg = tmp_path / "race.cfg"
    cfg.write_text("q = 4\nresidues = 1, 3\nqstar.mod4 = 5\n")
    race = race_from_config(str(cfg))
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


@pytest.mark.filterwarnings("ignore::racedensity.zerodata.ThinTailWarning")
def test_file_table_read_once_until_rewritten(tmp_path, monkeypatch):
    # a config race's file-path table is read once; later calls, and
    # l0_asymptotic's two lookups, reuse it until the file changes
    table = tmp_path / "mod4.txt"
    table.write_text(open(bundled_table("mod4").source).read())
    cfg = tmp_path / "race.cfg"
    cfg.write_text(f"q = 9\nkind = custom\noffset = 1\n"
                   f"table.main = {table}\nqstar.main = 4\nalpha.main = 1\n")
    race = race_from_config(str(cfg))
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
