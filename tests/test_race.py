"""Character data, alpha coefficients, offsets, and the RaceSpec checks."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from racedensity.race import (
    RaceEntry, RaceError, RaceSpec, SUPPORTED_MODULI, alpha_coeffs,
    characters, prime_count_race, square_race,
    square_root_count, two_way_race,
)


def _phi(q):
    return sum(1 for n in range(1, q + 1) if math.gcd(n, q) == 1)


def character_values(q, n):
    # chi(n) for every nontrivial character mod q, in label order
    return tuple(c.value(n) for c in characters(q))


def test_q4_character_value():
    assert character_values(4, 3) == (-1 + 0j,)


def test_q5_character_values_at_2():
    # the three nontrivial characters mod 5 at the generator 2, in label
    # order: a primitive fourth root, -1, and its conjugate
    vals = character_values(5, 2)
    assert vals[0] == pytest.approx(1j)
    assert vals[1] == pytest.approx(-1 + 0j)
    assert vals[2] == pytest.approx(-1j)


def test_q8_character_values_at_7():
    labels = [c.label for c in characters(8)]
    assert labels == ["q8.m4", "q8.m8", "q8.p8"]
    assert character_values(8, 7) == (-1 + 0j, -1 + 0j, 1 + 0j)


def test_q8_conductors_parity_tables():
    by = {c.label: c for c in characters(8)}
    assert (by["q8.m4"].qstar, by["q8.m4"].parity) == (4, 1)
    assert (by["q8.p8"].qstar, by["q8.p8"].parity) == (8, 0)
    assert (by["q8.m8"].qstar, by["q8.m8"].parity) == (8, 1)
    assert by["q8.m4"].table_key == "mod4"
    assert by["q8.p8"].table_key == "mod8_even"
    assert by["q8.m8"].table_key == "mod8_odd"


def test_character_group_size():
    for q in (4, 5, 7, 8, 13, 24):
        assert len(characters(q)) == _phi(q) - 1
    assert characters(1) == ()


def test_character_orthogonality():
    for q in (4, 5, 7, 8, 13, 24):
        units = [n for n in range(1, q) if math.gcd(n, q) == 1]
        for c in characters(q):
            assert abs(sum(c.value(n) for n in units)) < 1e-10
        for n in units:
            s = sum(c.value(n) for c in characters(q))
            expect = _phi(q) - 1 if n == 1 else -1
            assert abs(s - expect) < 1e-10


def test_character_multiplicativity():
    for q in (5, 8, 13, 24):
        units = [n for n in range(1, q) if math.gcd(n, q) == 1]
        for c in characters(q):
            for m in units:
                for n in units:
                    assert c.value(m * n) == pytest.approx(
                        c.value(m) * c.value(n), abs=1e-12)


def test_conjugate_pairs_share_tables():
    by = {c.label: c.table_key for c in characters(13)}
    assert by["q13.j01"] == by["q13.j11"] == "mod13_j1"
    assert by["q13.j05"] == by["q13.j07"] == "mod13_j5"
    assert by["q13.j06"] == "mod13_quad"
    q7 = {c.label: c.table_key for c in characters(7)}
    assert q7["q7.j1"] == q7["q7.j5"] == "mod7_j1"
    assert q7["q7.j3"] == "mod7_quad"


def test_alpha_sum_rule():
    for q, a, b in [(4, 1, 3), (5, 1, 2), (5, 1, 3), (7, 1, 3), (7, 1, 6),
                    (8, 1, 3), (8, 1, 5), (13, 1, 2), (13, 1, 6), (24, 1, 5)]:
        total = sum(al * al for _, al in alpha_coeffs(q, a, b))
        assert total == pytest.approx(_phi(q) / 2, abs=1e-12)


def test_alpha_symmetry():
    for q, a, b in [(5, 1, 2), (13, 2, 7), (8, 3, 5), (24, 5, 7)]:
        fwd = [al for _, al in alpha_coeffs(q, a, b)]
        rev = [al for _, al in alpha_coeffs(q, b, a)]
        assert fwd == pytest.approx(rev, abs=1e-14)


@given(st.sampled_from([5, 7, 8, 13, 24]), st.data())
def test_alpha_unit_shift_invariance(q, data):
    units = [n for n in range(1, q) if math.gcd(n, q) == 1]
    a = data.draw(st.sampled_from(units))
    b = data.draw(st.sampled_from([u for u in units if u != a]))
    c = data.draw(st.sampled_from(units))
    base = sorted(al for _, al in alpha_coeffs(q, a, b))
    shifted = sorted(al for _, al in alpha_coeffs(q, c * a % q, c * b % q))
    assert base == pytest.approx(shifted, abs=1e-12)


def test_q13_alpha_assignment():
    # the coefficient landing on each merged table, squared; the mod13_j5
    # pair (smallest first zero) carries the dominant weight against 2,
    # the balanced weight against 5, and nearly drops out against 6
    for b, want in [
        (2, {"mod13_j1": 0.0669873, "mod13_j2": 0.25, "mod13_j3": 0.5,
             "mod13_j4": 0.75, "mod13_j5": 0.9330127, "mod13_quad": 1.0}),
        (5, {"mod13_j1": 0.5, "mod13_j2": 1.0, "mod13_j3": 0.5,
             "mod13_j5": 0.5, "mod13_quad": 1.0}),
        (6, {"mod13_j1": 0.9330127, "mod13_j2": 0.25, "mod13_j3": 0.5,
             "mod13_j4": 0.75, "mod13_j5": 0.0669873, "mod13_quad": 1.0}),
    ]:
        got = {e.table: e.alpha ** 2 for e in two_way_race(13, 1, b).characters}
        assert set(got) == set(want)
        for k in want:
            assert got[k] == pytest.approx(want[k], abs=1e-7)


def test_zero_alpha_characters_dropped():
    assert {e.table for e in two_way_race(7, 1, 6).characters} \
        == {"mod7_j1", "mod7_quad"}
    assert {e.table for e in two_way_race(8, 1, 3).characters} \
        == {"mod4", "mod8_even"}
    assert {e.table for e in two_way_race(13, 1, 5).characters} \
        == {"mod13_j1", "mod13_j2", "mod13_j3", "mod13_j5", "mod13_quad"}


def test_offsets():
    assert prime_count_race().offset == 1.0
    assert two_way_race(4, 1, 3).offset == 1.0
    assert two_way_race(5, 1, 2).offset == 1.0
    assert two_way_race(7, 1, 3).offset == 1.0
    assert two_way_race(7, 1, 6).offset == 1.0
    assert two_way_race(8, 1, 3).offset == 2.0
    assert two_way_race(13, 1, 6).offset == 1.0
    assert square_race(5).offset == 1.0
    assert square_race(13).offset == 1.0
    assert square_race(7).offset == 1.0


def test_square_root_counts():
    # mod 8 every unit squares to 1, so 1 carries three roots' excess
    assert square_root_count(8, 1) == 3
    assert square_root_count(8, 3) == -1
    assert square_root_count(5, 4) == 1
    assert square_root_count(5, 2) == -1
    assert square_root_count(24, 1) == 7


def test_reversed_race_rejected():
    with pytest.raises(RaceError, match="negative bias"):
        two_way_race(5, 2, 1)
    with pytest.raises(RaceError, match="1 - E"):
        two_way_race(8, 3, 1)


def test_q24_races_draw_on_mod24_odd():
    # the characters with chi(b) = -1: 13 is 1 mod 3, 4 and 12 but 5 mod
    # 8; 23 is 2 mod 3, 3 mod 4, 7 mod 8 and 11 mod 12
    assert {e.table for e in two_way_race(24, 1, 13).characters} == {
        "mod8_even", "mod8_odd", "mod24_even", "mod24_odd"}
    assert {e.table for e in two_way_race(24, 1, 23).characters} == {
        "mod3", "mod4", "mod8_odd", "mod24_odd"}


def test_square_race_single_quadratic_table():
    # each square race field by field: the quadratic character's label,
    # conductor and table_key, unit coefficient and offset 1. Mod 8 has
    # three quadratic characters, so no square race
    for q, label, key in [(5, "q5.j2", "mod5_quad"), (7, "q7.j3", "mod7_quad"),
                          (13, "q13.j06", "mod13_quad")]:
        assert square_race(q) == RaceSpec(
            q=q, kind="square-vs-nonsquare", contestants=(),
            characters=(RaceEntry(label=label, qstar=q, alpha=1.0,
                                  table=key),),
            offset=1.0, name=f"q{q}.square")
    assert square_race(4) == RaceSpec(
        q=4, kind="square-vs-nonsquare", contestants=(1, 3),
        characters=(RaceEntry(label="mod4", qstar=4, alpha=1.0,
                              table="mod4"),),
        offset=1.0, name="q4.square")
    with pytest.raises(RaceError, match="no square race for q=8"):
        square_race(8)


def test_alpha_power_sums_decrease():
    # sum over characters of alpha^(2k), the k-th coefficient moment,
    # can only shrink as k grows since every alpha is at most 1
    for q, a, b in [(5, 1, 2), (7, 1, 3), (13, 1, 2), (13, 1, 5), (24, 1, 7)]:
        sp = two_way_race(q, a, b)
        prev = math.inf
        for k in range(1, 9):
            mk = sum(e.weight * e.alpha ** (2 * k) for e in sp.characters)
            assert mk <= prev + 1e-12
            prev = mk


def test_bad_inputs_rejected():
    with pytest.raises(RaceError, match="not supported"):
        characters(6)
    with pytest.raises(RaceError, match="coprime"):
        two_way_race(13, 1, 13)
    with pytest.raises(RaceError, match="coincide"):
        two_way_race(5, 2, 7)
    for kind in ("circular", "multi-way"):
        with pytest.raises(RaceError, match="unknown race kind"):
            RaceSpec(q=5, kind=kind, contestants=(), characters=(),
                     offset=0.0)
    with pytest.raises(RaceError, match="offset"):
        RaceSpec(q=5, kind="two-way", contestants=(1, 2),
                 characters=(), offset=-1.0)


def test_entry_invariants():
    with pytest.raises(RaceError, match="outside"):
        RaceSpec(q=5, kind="two-way", contestants=(1, 2),
                 characters=(RaceEntry("x", 5, 1.5, "mod5_quad"),),
                 offset=1.0)
    # a coefficient that breaks the sum rule of a supported modulus is
    # caught, not silently accepted; another offset is a free choice
    race = two_way_race(5, 1, 2)
    j1, quad = race.characters
    assert replace(race, offset=3.0).offset == 3.0
    with pytest.raises(RaceError, match="sum of alpha"):
        replace(race, characters=(j1, replace(quad, alpha=0.5)))
    # a race with no character, or one at alpha 0, has no fluctuation
    # to draw a density from: refused here, not deep in a solve
    with pytest.raises(RaceError, match="at least one character"):
        RaceSpec(q=9, kind="two-way", contestants=(), characters=(),
                 offset=1.0)
    for alpha in (0.0, -0.0, math.nan):
        with pytest.raises(RaceError, match=r"outside \(0, 1\]"):
            RaceSpec(q=9, kind="two-way", contestants=(), offset=1.0,
                     characters=(RaceEntry("x", 5, alpha, "mod5_quad"),))
    assert 1 in SUPPORTED_MODULI and 24 in SUPPORTED_MODULI
