"""Zero tables, inverse-power tail sums, and aggregated race statistics.

Reference values quoted here were computed independently of this
implementation (closed forms, high-precision quadrature of the explicit
formulas, or digits matching independently tabulated race parameters)
and frozen before the module was written.
"""

import math
import os
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jn_zeros

from racedensity import transforms as tr
from racedensity import zerodata as zd
from racedensity.race import (
    SUPPORTED_MODULI, prime_count_race, race_from_config, square_race,
    square_root_count, two_way_race,
)
from racedensity.zerodata import (
    FrozenSpanWarning, ThinTailWarning, ZeroDataError, ZeroTable,
    aggregate_stats, available_tables, bundled_table, load_zeros,
    montgomery_bound,
)
from racedensity.zerodata import _span, _tail_bk

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
    st_ = aggregate_stats(build(), 0.0)
    assert st_.sigma0 == pytest.approx(want[0], abs=6e-5)
    assert st_.beta0 == pytest.approx(want[1], abs=6e-5)
    assert st_.sigma_u == pytest.approx(st_.sigma0, rel=1e-12)
    assert st_.R[1] == pytest.approx(st_.beta0, rel=1e-12)


def test_aggregate_at_35():
    st_ = aggregate_stats(prime_count_race(), 35.0)
    assert st_.n_zeros == 5
    assert st_.B[0] == pytest.approx(0.0122355, abs=2e-7)
    assert st_.sigma_u == pytest.approx(0.156432, abs=2e-6)
    assert st_.R[0] == pytest.approx(1.0, rel=1e-14)


def test_convergence_radius_reference_points():
    z = bundled_table("zeta")
    pc = prime_count_race()
    for n, want in [(250, 33.98), (800, 58.32)]:
        u = float(z.gammas[n - 1]) + 1e-9
        st_ = aggregate_stats(pc, u)
        assert st_.n_zeros == n
        assert st_.T == pytest.approx(want, abs=0.02)


def test_single_series_radius_identity():
    j1 = jn_zeros(0, 1)[0]
    st_ = aggregate_stats(square_race(7), 50.0)
    p = st_.per_char[0]
    want = j1 * math.sqrt((p.y + 1 / 3) / (6 * (p.y + 1) * p.r[1]))
    assert st_.T == pytest.approx(want, rel=1e-13)
    assert p.T_effective == pytest.approx(p.T_single, rel=1e-13)


def test_multi_series_radius_below_singles():
    # scaling each series into the race normalization can only move its
    # singularity, and the race radius is the worst of them
    st_ = aggregate_stats(two_way_race(13, 1, 2), 50.0)
    assert st_.T == pytest.approx(
        min(p.T_effective for p in st_.per_char), rel=1e-14)
    assert all(math.isfinite(p.T_effective) for p in st_.per_char)


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


def test_span_values():
    z = bundled_table("zeta")
    assert _span(z, 1.0) == 0.0
    want = 2 * sum(1 / math.sqrt(0.25 + g * g) for g in z.gammas[:29])
    assert _span(z, 100.0) == pytest.approx(want, rel=1e-14)


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
    # b_k(u) as one fsum over the tabulated ordinates above u (or, for
    # k = 1 under "auto", the recorded total less the head), plus the
    # analytic continuation past the table end
    g = table.gammas
    U = float(g[-1])
    if k == 1 and method == "auto" and table.b1_total is not None and u < U:
        head_g = g[g <= u]
        return table.b1_total - math.fsum(1.0 / (0.25 + head_g * head_g))
    tail_g = g[g > u]
    explicit = math.fsum((0.25 + tail_g * tail_g) ** (-k))
    ueff = max(u, U)
    y = math.log(table.qstar * ueff / (2.0 * math.pi))
    m = 2 * k - 1
    return explicit + table.weight * (y + 1.0 / m) \
        / (2.0 * m * math.pi * ueff ** m)


@pytest.mark.parametrize("key", available_tables())
def test_tail_bk_bit_exact_against_plain_sum(key):
    # whichever side of u _tail_bk sums, fsum's single rounding of the
    # exact sum must give the very bits of the plain tail sum
    t = bundled_table(key)
    g = t.gammas
    rng = np.random.default_rng(sum(map(ord, key)))
    n = len(g)
    us = ([0.0] + g[::max(1, n // 12)].tolist()
          + rng.uniform(0.0, 1.05 * t.last_zero, 8).tolist()
          + [float(g[n // 2 - 1]), float(g[n // 2]),
             float(0.5 * (g[n // 2 - 1] + g[n // 2])),
             t.last_zero, t.last_zero + 1.0])
    # the head {gamma <= u} is the shorter side for some u, not for others
    assert {2 * t.count(u) < n for u in us} == {True, False}
    for k in range(1, 11):
        for u in us:
            assert _tail_bk(t, u, k) == _plain_tail_bk(t, u, k, "auto"), (u, k)


def test_tail_bk_bit_exact_with_subnormal_terms():
    # at k = 37 the top zeta terms fall below the smallest normal double;
    # the exponent bins behind the full sum must still keep every bit,
    # and zero terms must add nothing
    t = bundled_table("zeta")
    g = t.gammas
    x = (0.25 + g * g) ** (-37)
    assert x.min() < sys.float_info.min
    for u in (0.0, 30.0, 1000.0, t.last_zero):
        assert _tail_bk(t, u, 37) == _plain_tail_bk(t, u, 37, "auto"), u
    x = np.concatenate([x, [0.0, 5e-324]])
    assert math.fsum(zd._exact_bins(x) + (-x).tolist()) == 0.0


def _file_race(path, gammas, b1_total):
    path.write_text(f"# qstar: 1\n# b1_total: {b1_total!r}\n"
                    + "".join(f"{g!r}\n" for g in gammas.tolist()))
    race = prime_count_race()
    return replace(race, characters=(
        replace(race.characters[0], table=str(path)),))


def test_power_sums_built_once_per_table(tmp_path):
    # the full-table sums behind b_k are built on a table's first use and
    # kept on it: a second aggregate_stats builds none
    z = bundled_table("zeta")
    race = _file_race(tmp_path / "zeta.txt", z.gammas, z.b1_total)
    t = zd.resolve_table(race.characters[0])
    assert t._power_sums == {}
    first = aggregate_stats(race, 100.0)
    built = dict(t._power_sums)
    # b_1 comes from the recorded total
    assert sorted(built) == list(range(2, 9))
    second = aggregate_stats(race, 200.0)
    assert zd.resolve_table(race.characters[0]) is t
    assert t._power_sums.keys() == built.keys()
    assert all(t._power_sums[k] is parts for k, parts in built.items())
    for st_, u in ((first, 100.0), (second, 200.0)):
        assert st_.per_char[0].b == tuple(
            _plain_tail_bk(t, u, k, "auto") for k in range(1, 9))


def test_rewritten_table_gets_fresh_power_sums(tmp_path):
    # a file rewritten with fewer zeros is a new table: its b_k must come
    # from its own ordinates, not from sums cached for the old ones
    z = bundled_table("zeta")
    path = tmp_path / "zeta.txt"
    race = _file_race(path, z.gammas[:2000], z.b1_total)
    before = aggregate_stats(race, 100.0)
    _file_race(path, z.gammas[:1000], z.b1_total)
    after = aggregate_stats(race, 100.0)
    t = load_zeros(str(path))
    assert len(t) == 1000
    want = tuple(_plain_tail_bk(t, 100.0, k, "auto") for k in range(1, 9))
    assert after.per_char[0].b == want
    assert before.per_char[0].b[1:] != want[1:]


def test_tail_warns_when_thin():
    t = bundled_table("mod5_quad")
    with pytest.warns(ThinTailWarning):
        aggregate_stats(square_race(5), t.last_zero - 1.0)
    beyond = _tail_bk(t, 500.0, 2)
    # past the table the value is the continuation formula alone
    y = math.log(5 * 500.0 / (2 * math.pi))
    want = (y + 1 / 3) / (6 * math.pi * 500.0 ** 3)
    assert beyond == pytest.approx(want, rel=1e-13)


def test_aggregate_warns_once_per_thin_table():
    # mod5_j1 holds few zeros above 250, mod5_quad enough: one warning
    # for all orders b_1..b_8, naming the line that asked for the stats
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        aggregate_stats(two_way_race(5, 1, 2), 250.0)
    thin = [w for w in caught if issubclass(w.category, ThinTailWarning)]
    assert len(thin) == 1
    assert "mod5_j1" in str(thin[0].message)
    assert thin[0].filename == __file__


def test_span_warns_when_frozen():
    # mod5_j1 ends below 290: a cutoff past it freezes that character's
    # span, and the typed warnings stay visible to UserWarning filters
    race = two_way_race(5, 1, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ThinTailWarning)
        with pytest.warns(FrozenSpanWarning, match="mod5_j1"):
            stats = aggregate_stats(race, 300.0)
    table = bundled_table("mod5_j1")
    assert stats.per_char[0].S == _span(table, table.last_zero)
    assert issubclass(ThinTailWarning, UserWarning)
    assert issubclass(FrozenSpanWarning, UserWarning)


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
    st_ = aggregate_stats(prime_count_race(), 0.0)
    got = moment_ratios(st_)
    want = (1.0, 0.9652, 0.9034, 0.8229)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=5e-4)


def test_moment_ratios_decreasing():
    for build in (prime_count_race, lambda: two_way_race(13, 1, 2)):
        got = moment_ratios(aggregate_stats(build(), 0.0))
        assert sorted(got, reverse=True) == list(got)
        assert all(0.0 < g <= 1.0 for g in got)


def test_montgomery_bound_zeta():
    st0 = aggregate_stats(prime_count_race(), 0.0)
    assert montgomery_bound(3.0, st0) == pytest.approx(-97.421, abs=0.01)
    assert montgomery_bound(0.0, st0) == 0.0
    with pytest.raises(ValueError):
        montgomery_bound(-1.0, st0)


def test_montgomery_bound_sharpens_with_span():
    # at the truncation height where the explicit span first reaches 1,
    # the windowed bound for v = 3 lands near -142.3, far below the
    # full-variance bound of -97.4
    z = bundled_table("zeta")
    cum = 2 * np.cumsum(1 / np.sqrt(0.25 + z.gammas ** 2))
    i = int(np.searchsorted(cum, 1.0))
    u = float(z.gammas[i]) + 1e-9
    pc = prime_count_race()
    st_u = aggregate_stats(pc, u)
    assert st_u.S == pytest.approx(1.0, abs=0.05)
    bound = montgomery_bound(3.0, st_u)
    assert bound == pytest.approx(-142.64, abs=1.5)
    assert bound < -140.0


@given(st.floats(0.1, 12.0), st.floats(0.0, 3.0))
@settings(max_examples=30, deadline=None)
def test_montgomery_monotone_in_v(v, dv):
    st0 = aggregate_stats(prime_count_race(), 0.0)
    assert montgomery_bound(v + dv, st0) <= montgomery_bound(v, st0) + 1e-12


def test_normalized_ratio_floor():
    # R_k/R_2^(k-1) >= 1: the combined zero multiset's power sums are
    # log-convex no matter how the characters mix
    for u in (29.0, 100.0, 200.0):
        st_ = aggregate_stats(two_way_race(5, 1, 2), u)
        for k in range(2, 9):
            assert st_.R[k - 1] / st_.R[1] ** (k - 1) >= 0.999, (u, k)


def test_multi_character_moment_bounds():
    # mixing characters pushes the distribution toward a Gaussian: the
    # variance-normalized moments stay below the averaged single-series
    # values scaled by half the unit count, and the second ratio drops
    # below half its single-series average outright
    sp = two_way_race(5, 1, 2)
    phi_half = 2.0
    for u in (29.0, 100.0, 200.0):
        st_ = aggregate_stats(sp, u)
        singles = []
        for p in st_.per_char:
            rk = [p.weight ** (k - 1) * p.b[k - 1] / p.b[0] ** k
                  for k in range(1, 9)]
            singles.append((p.weight, rk))
        wtot = sum(w for w, _ in singles)
        for k in range(3, 9):
            avg = sum(w * rk[k - 1] / rk[1] ** (k - 1)
                      for w, rk in singles) / wtot
            lhs = st_.R[k - 1] / st_.R[1] ** (k - 1)
            assert lhs <= avg * phi_half ** (k - 2), (u, k)
        avg_r2 = sum(w * rk[1] for w, rk in singles) / wtot
        assert st_.R[1] <= avg_r2 / phi_half * 1.05, u


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
    assert st_.B[0] == pytest.approx(_tail_bk(t, 20.0, 1), rel=1e-14)


def test_aggregate_matches_manual_weighting():
    sp = two_way_race(5, 1, 2)
    st_ = aggregate_stats(sp, 35.0)
    for k in (1, 3, 6):
        manual = math.fsum(
            e.alpha ** (2 * k) * _tail_bk(bundled_table(e.table), 35.0, k)
            for e in sp.characters)
        assert st_.B[k - 1] == pytest.approx(manual, rel=1e-13)


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


def test_data_dir_override(tmp_path, monkeypatch):
    p = tmp_path / "zeta.txt"
    p.write_text("# key: zeta\n# qstar: 1\n14.134725\n21.022040\n25.010858\n")
    monkeypatch.setenv("RACE_DENSITY_DATA", str(tmp_path))
    t = bundled_table("zeta")
    assert len(t) == 3 and t.source.startswith(str(tmp_path))
    monkeypatch.delenv("RACE_DENSITY_DATA")
    assert len(bundled_table("zeta")) >= 16000


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
