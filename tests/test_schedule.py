import json
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from rankzero.ordinal import OMEGA, enumerate_below, parse_ordinal
from rankzero.pointset import Leaf, build_rank_set, canonical_json, cardinality, derive
from rankzero.schedule import (
    RadiiSequence,
    build_limit_schedule,
    build_radii,
    build_row_schedule,
    build_sector_schedule,
    convergence_exponent_check,
    growth_threshold_index,
    schedule_from_json,
    schedule_to_json,
    sector_arc,
    standard_arc,
    triangular,
    validate_radii,
)


class TestRadii:
    def test_ladder_start(self):
        r = build_radii(12)
        assert list(r.log_radii[:5]) == [1, 2, 3, 5, 8]

    def test_multiplicative_law_is_equality(self):
        r = build_radii(12)
        for n in range(1, 11):
            assert r.log_radius(n + 2) == r.log_radius(n + 1) + r.log_radius(n)

    def test_extension_past_stored_range(self):
        r = build_radii(5)
        assert r.log_radius(7) == 21

    def test_validator_accepts_ladder(self):
        validate_radii(build_radii(10))

    def test_validator_rejects_slow_growth(self):
        with pytest.raises(ValueError):
            validate_radii(RadiiSequence((F(1), F(2), F(5, 2))))

    def test_validator_rejects_small_ratio(self):
        with pytest.raises(ValueError):
            validate_radii(RadiiSequence((F(1), F(3, 2), F(3))))

    def test_growth_threshold_is_five(self):
        r = build_radii(12)
        assert growth_threshold_index(r) == 5
        assert growth_threshold_index(r) == 5  # stable across runs


class TestRowSchedule:
    def test_row_sizes(self):
        s = build_row_schedule(3, 1, 10)
        for n in range(1, 11):
            assert len(s.zeros_in_ring(n)) == n

    def test_spot_zeros(self):
        s = build_row_schedule(3, 1, 10)
        c = s.enumeration()
        assert (s.zeros[0].log_r, s.zeros[0].turn) == (F(1), c[0])
        assert (s.zeros[2].log_r, s.zeros[2].turn) == (F(2), c[1])
        assert (s.zeros[6].log_r, s.zeros[6].turn) == (F(5), c[0])

    def test_row_map(self):
        s = build_row_schedule(3, 1, 10)
        assert [s.row_of(l) for l in (7, 8, 9, 10)] == [4, 4, 4, 4]

    def test_radii_increase_along_zeros(self):
        s = build_row_schedule(3, 1, 10)
        logs = [z.log_r for z in s.zeros]
        assert logs == sorted(logs)

    def test_angle_provenance(self):
        s = build_row_schedule(3, 2, 8)
        source = s.source_tree()
        from rankzero.pointset import member

        for z in s.zeros:
            assert member(source, z.turn)

    def test_insufficient_angles_error(self):
        # rank 1 with nu = 1 is the single point Leaf(1/8)
        assert build_rank_set(1, 1, standard_arc()) == Leaf(F(1, 8))
        with pytest.raises(ValueError, match="angles"):
            build_row_schedule(1, 1, 3)

    def test_rank_metadata_is_recorded(self):
        s = build_row_schedule(parse_ordinal("w+1"), 2, 5)
        assert (s.variant, s.alpha, s.nu) == ("rows", parse_ordinal("w+1"), 2)
        assert s.source_tree() == build_rank_set(parse_ordinal("w+1"), 2, standard_arc())
        assert s.radii == build_radii(5)


class TestSectorSchedule:
    def test_sector_arcs_strongly_disjoint(self):
        arcs = [sector_arc(t) for t in range(1, 9)]
        for i in range(len(arcs)):
            for j in range(i + 1, len(arcs)):
                assert arcs[i].strongly_disjoint(arcs[j])

    def test_sector_arcs_approach_quarter_turn(self):
        centers = [sector_arc(t).center for t in range(1, 8)]
        assert centers == sorted(centers)
        assert all(c < F(1, 4) for c in centers)

    def test_radius_interleave(self):
        # ring of sector t inside super-row n has global index n(n-1)/2 + t
        assert triangular(1) + 2 == 3  # second radius of super-row 2
        assert triangular(2) + 3 == 6  # third radius of super-row 3
        s = build_sector_schedule(2, 3)
        ring3 = s.zeros_in_ring(3)
        assert {z.sector for z in ring3} == {2}
        assert all(z.log_r == F(3) for z in ring3)

    def test_one_sector_per_ring(self):
        s = build_sector_schedule(2, 5)
        for n in range(1, s.n_rings + 1):
            assert len(s.ring_sectors(n)) <= 1

    def test_radii_non_decreasing_along_zeros(self):
        s = build_sector_schedule(2, 5)
        logs = [z.log_r for z in s.zeros]
        assert logs == sorted(logs)

    def test_ring_counts_below_global_index(self):
        s = build_sector_schedule(2, 5)
        for n in range(3, 13):
            assert 0 < len(s.zeros_in_ring(n)) < n

    def test_sector_rank_counts(self):
        s = build_sector_schedule(2, 4)
        for t in range(1, 5):
            assert cardinality(derive(s.source_tree(t), 1)) == t

    def test_limit_alpha_rejected(self):
        with pytest.raises(ValueError):
            build_sector_schedule(OMEGA, 3)


class TestLimitSchedule:
    def test_sector_ranks_follow_enumeration(self):
        s = build_limit_schedule(OMEGA, 5)
        betas = enumerate_below(OMEGA, 5)
        for t in range(1, 6):
            d = derive(s.source_tree(t), betas[t - 1])
            assert isinstance(d, Leaf)

    def test_purity(self):
        s = build_limit_schedule(OMEGA, 5)
        for n in range(1, s.n_rings + 1):
            assert len(s.ring_sectors(n)) <= 1

    def test_successor_alpha_rejected(self):
        with pytest.raises(ValueError):
            build_limit_schedule(3, 3)

    def test_transfinite_limit(self):
        s = build_limit_schedule(parse_ordinal("w*2"), 5)
        betas = enumerate_below(parse_ordinal("w*2"), 5)
        assert betas[4] == OMEGA  # the enumeration reaches past the finite part
        d = derive(s.source_tree(5), OMEGA)
        assert isinstance(d, Leaf)

    def test_transfinite_limit_reaches_omega_plus_one(self):
        betas = enumerate_below(parse_ordinal("w*2"), 8)
        t = betas.index(parse_ordinal("w+1")) + 1
        s = build_limit_schedule(parse_ordinal("w*2"), t)
        tree = s.source_tree(t)
        assert derive(tree, parse_ordinal("w+1")) == Leaf(sector_arc(t).center)
        assert derive(tree, parse_ordinal("w+2")) is None


class TestConvergence:
    def test_partial_and_tail(self):
        r = build_radii(21)
        rep = convergence_exponent_check(r, F(1), 10)
        assert rep.partial_low <= rep.partial_high
        # against a direct high-precision sum
        with mp.workprec(300):
            direct = sum(mp.mpf(n) * mp.exp(-mp.mpf(int(r.log_radius(n)))) for n in range(1, 11))
        assert rep.partial_low <= direct <= rep.partial_high
        assert rep.tail_bound > 0

    def test_deep_tail_is_tiny(self):
        r = build_radii(21)
        rep = convergence_exponent_check(r, F(1), 20)
        assert rep.tail_bound < mp.mpf("1e-6")

    def test_small_exponent_still_certified(self):
        r = build_radii(21)
        rep = convergence_exponent_check(r, F(1, 100), 20)
        assert rep.tail_bound < mp.mpf("1e-6")

    def test_zero_terms(self):
        r = build_radii(21)
        rep = convergence_exponent_check(r, F(1), 0)
        assert rep.partial_low == rep.partial_high == 0
        assert rep.tail_bound > 0

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            convergence_exponent_check(build_radii(5), F(0), 3)


def _corrupt(edit):
    obj = schedule_to_json(build_row_schedule(3, 1, 6))
    edit(obj)
    return obj


class TestInvariants:
    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda o: o["zeros"].insert(0, o["zeros"].pop(3)),
                     "rings must ascend", id="unsorted"),
        pytest.param(lambda o: o["zeros"][0].update(row=0), "ring 0 outside 1..6",
                     id="ring-0"),
        pytest.param(lambda o: o["zeros"].append(dict(o["zeros"][-1], row=7, log_r="21")),
                     "ring 7 outside 6..6", id="past-the-ladder"),
        pytest.param(lambda o: o["zeros"][4].update(log_r="5/2"),
                     "not the log radius of ring 3", id="wrong-log-r"),
        pytest.param(lambda o: o.update(log_radii=["1", "3/2", "2", "5/2", "3", "7/2"]),
                     "radius ratio", id="slow-ladder"),
    ])
    def test_loader_rejects(self, edit, message):
        with pytest.raises(ValueError, match=message):
            schedule_from_json(_corrupt(edit))

    def test_built_in_code_is_checked_too(self):
        s = build_row_schedule(3, 1, 6)
        with pytest.raises(ValueError, match="rings must ascend"):
            replace(s, zeros=s.zeros[::-1])

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: build_row_schedule(3, 1, 6), id="rows"),
        pytest.param(lambda: build_sector_schedule(2, 4), id="sectors"),
        pytest.param(lambda: replace(build_row_schedule(3, 1, 6), zeros=()), id="empty"),
    ])
    def test_truncations_are_prefixes(self, make):
        s = make()
        for rows in range(s.n_rings + 2):
            assert s.zeros[:s.through(rows)] == tuple(z for z in s.zeros if z.ring <= rows)
            assert s.zeros_in_ring(rows) == tuple(z for z in s.zeros if z.ring == rows)
        assert s.n_rings == max((z.ring for z in s.zeros), default=0)


class TestJson:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_row_schedule(3, 1, 8),
            lambda: build_row_schedule(parse_ordinal("w+1"), 2, 6),
            lambda: build_sector_schedule(2, 4),
            lambda: build_limit_schedule(OMEGA, 4),
        ],
    )
    def test_round_trip(self, make):
        s = make()
        blob = json.dumps(schedule_to_json(s), sort_keys=True)
        assert schedule_from_json(json.loads(blob)) == s


# Rank parameters whose sets the angle enumeration expands completely: the
# first isolated point of every sector set sits within depth 3.  Limit
# layouts stop at 4 super-rows, before the enumeration below w reaches 4.
_ROW_RANKS = ["2", "3", "4", "w+1", "w+2", "w+3", "w*2+1"]
_LIMIT_RANKS = ["w", "w*2", "w^2"]

schedules = st.one_of(
    st.builds(build_row_schedule, st.sampled_from(_ROW_RANKS), st.integers(1, 3),
              st.integers(1, 6)),
    st.builds(build_sector_schedule, st.sampled_from(["1"] + _ROW_RANKS),
              st.integers(1, 4)),
    st.builds(build_limit_schedule, st.sampled_from(_LIMIT_RANKS), st.integers(1, 4)),
)


@given(schedules)
@settings(max_examples=40, deadline=None)
def test_canonical_bytes_round_trip(s):
    data = canonical_json(schedule_to_json(s))
    loaded = schedule_from_json(json.loads(data))
    assert loaded == s
    assert canonical_json(schedule_to_json(loaded)) == data
