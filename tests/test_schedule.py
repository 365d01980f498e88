import json
from dataclasses import replace
from fractions import Fraction as F
from itertools import islice
from math import inf

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import oracle
import plans
import rankzero.schedule as schedule
from rankzero.ordinal import OMEGA, enumerate_below, parse_ordinal, successor
from rankzero.pointset import (
    Leaf,
    build_rank_set,
    canonical_json,
    cardinality,
    derive,
    enumerate_points,
    materialize,
)
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


def _materialized_angles(tree, needed):
    """The enumeration before deep sets had points: sorted angles of
    materialize, read as exhausted when depth 3 adds none to depth 2, so a
    set whose first leaf lies deeper than three clusters gave none."""
    per = max(needed, 4)
    best = []
    for depth in range(1, 10):
        got = materialize(tree, depth, per)
        if len(got) >= needed:
            return tuple(got)
        if len(got) == len(best) and depth > 2:
            return tuple(got)
        best = got
    raise ValueError(f"need {needed} angles, materialize yields {len(best)}")


def _layout_trees():
    """(tree, needed) of every set a layout of the benchmark's cli-pipeline
    plans builds: row ranks at every nmax, with nu 1 or 2 for the shallow
    pool and 1 otherwise, and sector ranks at their slot's nmax; and a few
    finite sets."""
    cases = []
    pools = {"shallow": plans.SHALLOW, "deep": plans.DEEP, "defect": plans.DEFECT}
    for kind, pool in pools.items():
        nus = plans.ROW_NU if kind == "shallow" else (1,)
        sector_nmax = plans.SECTOR_SLOTS[kind][0]
        for a in map(parse_ordinal, pool):
            cases.extend((build_rank_set(a, nu, standard_arc()), nmax)
                         for nmax in plans.ROW_NMAX for nu in nus)
            cases.extend((build_rank_set(a, t, sector_arc(t)), sector_nmax)
                         for t in range(1, sector_nmax + 1))
    # finite sets: t points in sector t, and three points of E(4, 3)
    cases.extend((build_rank_set(1, t, sector_arc(t)), 6) for t in range(1, 7))
    cases.append((derive(build_rank_set(4, 3, standard_arc()), 3), 4))
    for alpha in plans.LIMIT_RANKS:
        betas = enumerate_below(parse_ordinal(alpha), 6)
        cases.extend((build_rank_set(successor(b), 1, sector_arc(t)), n)
                     for t, b in enumerate(betas, 1) for n in (5, 6) if t <= n)
    return cases


class TestEnumeration:
    def test_sets_the_old_enumeration_filled_keep_their_angles(self):
        """Where the old enumeration gave every angle a layout needs, or
        exhausted a finite set, the angles are the same; every other set
        takes the first points of enumerate_points."""
        filled = 0
        for tree, needed in _layout_trees():
            old = _materialized_angles(tree, needed)
            new = schedule._enumerate_angles(tree, needed)
            if len(old) >= needed or cardinality(tree) != inf:
                assert new == old
            else:
                assert old == ()
                assert new == tuple(islice(enumerate_points(tree), needed))
                filled += 1
        # rows: 4 ranks x 3 nmax; sectors: 4 ranks x 5 sectors; limits:
        # b_5 = 4 and b_6 = 5 of w at nmax 5 and 6, b_6 = 4 of the other
        # four at nmax 6
        assert filled == 12 + 20 + 3 + 4

    def test_deep_sets_skip_the_materialize_loop(self, monkeypatch):
        depths = []
        real = schedule.materialize

        def recorded(tree, depth, per):
            depths.append((depth, per))
            return real(tree, depth, per)

        monkeypatch.setattr(schedule, "materialize", recorded)
        got = schedule._enumerate_angles(build_rank_set(5, 1, standard_arc()), 12)
        assert len(got) == 12 and depths == [(3, 1)]


def _layout_cases():
    cases = []
    for alpha in plans.SHALLOW + plans.DEEP + plans.DEFECT:
        cases.extend(("rows", alpha, nmax) for nmax in plans.ROW_NMAX)
        cases.extend(("sectors", alpha, nmax) for nmax, _ in plans.SECTOR_SLOTS.values())
    cases.extend(("limit", alpha, nmax) for alpha in plans.LIMIT_RANKS
                 for nmax, _ in plans.LIMIT_SLOTS)
    cases.extend(("limit", alpha, nmax) for alpha, window in plans.LARGE_LIMITS for nmax in window)
    cases.extend(("sectors", alpha, plans.LARGE_SECTOR_NMAX) for alpha in plans.LARGE_SECTOR_RANKS)
    return sorted(set(cases))


def _build(layout, alpha, nmax, nu=1):
    if layout == "rows":
        return build_row_schedule(parse_ordinal(alpha), nu, nmax)
    if layout == "sectors":
        return build_sector_schedule(parse_ordinal(alpha), nmax)
    return build_limit_schedule(parse_ordinal(alpha), nmax)


def _ring_counts(s):
    counts = {}
    for z in s.zeros:
        counts[z.ring] = counts.get(z.ring, 0) + 1
    return counts


class TestLayoutLaw:
    @pytest.mark.parametrize("layout, alpha, nmax", _layout_cases())
    def test_every_ring_holds_what_the_layout_promises(self, layout, alpha, nmax):
        """Ring n holds min(n, size) zeros, the benchmark oracle's
        expected_rings, on every rank and nmax the benchmark draws."""
        want = {ring: count for ring, (count, _) in
                oracle.expected_rings(layout, alpha, nmax).items()}
        assert _ring_counts(_build(layout, alpha, nmax)) == want

    @pytest.mark.parametrize("layout, alpha, nmax, nu, zeros", [
        ("rows", "5", 6, 1, 21),
        ("rows", "6", 12, 2, 78),
        ("rows", "w+4", 12, 1, 78),
        ("sectors", "5", 4, 1, 30),
        ("sectors", "5", 16, 1, 1496),
        ("limit", "w", 12, 1, 584),
        ("limit", "w^w", 20, 1, 2680),
    ])
    def test_zero_counts_of_deep_sets(self, layout, alpha, nmax, nu, zeros):
        # refused, 0, 236 and 2,192 zeros before deep sets had points
        s = _build(layout, alpha, nmax, nu)
        assert len(s) == zeros
        assert set(_ring_counts(s)) == set(range(1, s.radii.n_max + 1))


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
