import random
import sys
from functools import lru_cache, reduce
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rankzero.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    enumerate_below,
    format_ordinal,
    ordinal_add,
    ordinal_sub_left,
    parse_ordinal,
    predecessor,
)
from rankzero.ordinal import _PREFIXES, _below_of_size, _size  # the memo under test

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402  (read only)


def o(text: str) -> Ordinal:
    return parse_ordinal(text)


def cnf_from_pairs(pairs):
    return reduce(ordinal_add, (Ordinal.omega_power(e, c) for e, c in pairs), ZERO)


ordinals = st.recursive(
    st.integers(0, 5).map(Ordinal.from_int),
    lambda kids: st.lists(
        st.tuples(kids, st.integers(1, 3)), min_size=1, max_size=3
    ).map(cnf_from_pairs),
    max_leaves=6,
)


def _cnf_compare(a: Ordinal, b: Ordinal) -> int:
    """The Cantor-normal-form order written out, as -1, 0 or 1: the first
    term that differs decides, by exponent and then by coefficient, and a
    proper prefix is the smaller ordinal."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = _cnf_compare(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) == len(b.terms):
        return 0
    return -1 if len(a.terms) < len(b.terms) else 1


@lru_cache(maxsize=None)
def _bounded_below(a: Ordinal, budget: int) -> frozenset:
    """Every ordinal below a of description size at most the budget: the
    cumulative sets the enumeration once took differences of, generated by
    over-generating in three cases and filtering by size."""
    if budget < 1 or a.is_zero:
        return frozenset()
    out = {ZERO}
    e0, c0 = a.terms[0]
    rest = Ordinal(a.terms[1:])
    # leading exponent strictly below e0
    for e in _bounded_below(e0, budget - 2):
        se = _size(e)
        for c in range(1, budget - se):
            for tail in _bounded_below(Ordinal.omega_power(e), budget - se - c):
                out.add(Ordinal(((e, c),) + tail.terms))
            out.add(Ordinal(((e, c),)))
    # leading term w^e0 with a smaller coefficient
    se0 = _size(e0)
    for c in range(1, c0):
        if se0 + c + 1 > budget:
            break
        for tail in _bounded_below(Ordinal.omega_power(e0), budget - se0 - c):
            out.add(Ordinal(((e0, c),) + tail.terms))
        out.add(Ordinal(((e0, c),)))
    # leading term equal, strictly smaller remainder
    head_size = se0 + c0
    if head_size + 1 <= budget:
        for tail in _bounded_below(rest, budget - head_size):
            out.add(Ordinal(((e0, c0),) + tail.terms))
    return frozenset(v for v in out if _size(v) <= budget)


def _agrees_with_cnf_compare(a: Ordinal, b: Ordinal) -> bool:
    c = _cnf_compare(a, b)
    return ((a < b, a == b, a > b, a <= b, a >= b)
            == (c < 0, c == 0, c > 0, c <= 0, c >= 0))


class TestCompare:
    def test_finite_below_omega(self):
        assert Ordinal.from_int(3) < OMEGA

    def test_reflexive(self):
        x = o("w*2+1")
        assert x == x and x <= x and x >= x and not x < x and not x > x

    def test_leading_term_dominates(self):
        assert o("w^2") > o("w*5+9")

    @given(ordinals, ordinals)
    def test_trichotomy(self, a, b):
        assert [a < b, a == b, a > b].count(True) == 1
        assert (a < b) == (b > a)

    @given(ordinals, ordinals, ordinals)
    @settings(max_examples=60)
    def test_transitive(self, a, b, c):
        if a <= b and b <= c:
            assert a <= c

    @given(ordinals, ordinals)
    @example(o("w^(w^2+1)*3"), o("w^(w^2+1)*2+w^w"))
    @example(o("w^(w^2+1)"), o("w^(w^2)*7+1"))
    @example(o("w^(w^(w+1))"), o("w^(w^w*2)"))
    @example(o("w^w+w"), o("w^w+w+1"))
    def test_operators_are_the_cnf_order(self, a, b):
        assert _agrees_with_cnf_compare(a, b)

    def test_operators_are_the_cnf_order_below_a_nested_bound(self):
        small = sorted(_bounded_below(o("w^(w^2+1)*3"), 9), key=format_ordinal)
        assert len(small) == 43
        assert o("w^(w^2)*2") in small  # an exponent with a nested exponent
        for a in small:
            for b in small:
                assert _agrees_with_cnf_compare(a, b)

    def test_ordinals_from_other_types_are_refused(self):
        with pytest.raises(TypeError):
            OMEGA < 3


class TestPredecessor:
    def test_finite(self):
        assert predecessor(Ordinal.from_int(5)) == Ordinal.from_int(4)

    def test_limit_has_none(self):
        assert predecessor(OMEGA) is None

    def test_mixed(self):
        assert predecessor(o("w^2+3")) == o("w^2+2")

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            predecessor(ZERO)

    @given(ordinals)
    def test_adjacency(self, a):
        if a.is_zero:
            return
        p = predecessor(a)
        if p is None:
            assert a.is_limit
            return
        assert p < a
        # nothing sits strictly between p and a
        for x in enumerate_below(a, 25):
            assert x <= p


class TestEnumerateBelow:
    def test_below_omega(self):
        assert enumerate_below(OMEGA, 4) == [Ordinal.from_int(k) for k in range(4)]

    def test_finite_exhausts(self):
        assert enumerate_below(5, 5) == [Ordinal.from_int(k) for k in range(5)]
        assert enumerate_below(5, 9) == [Ordinal.from_int(k) for k in range(5)]

    def test_omega_times_two(self):
        got = enumerate_below(o("w*2"), 6)
        assert len(got) == 6
        assert len(set(got)) == 6
        for x in got:
            assert x < o("w*2")
        # completeness: specific values appear at finite indices
        prefix = enumerate_below(o("w*2"), 40)
        for target in (o("w+5"), o("7"), o("w+1")):
            assert target in prefix

    @given(ordinals, st.integers(1, 15))
    @settings(max_examples=60)
    def test_distinct_and_below(self, a, count):
        if a.is_zero:
            return
        got = enumerate_below(a, count)
        assert len(set(got)) == len(got)
        for x in got:
            assert x < a

    @pytest.mark.parametrize("limit, targets", [
        ("w", ["3", "7"]),
        ("w^2", ["w*3", "w+5"]),
        ("w^w", ["w^2", "w^3+1"]),
        ("w^2+w", ["w^2+3", "w*4"]),
    ])
    def test_limit_rank_children_reach_smaller_ranks(self, limit, targets):
        """The construction takes the m-th child rank of a limit rank from
        enumerate_below, so the ranks it lists must climb toward the limit:
        each target sits at a finite index."""
        prefix = enumerate_below(o(limit), 40)
        for target in targets:
            assert o(target) < o(limit)
            assert o(target) in prefix

    @given(ordinals)
    @example(o("w^(w^2+1)*3"))
    @example(o("w^2*3+w"))
    @settings(max_examples=60, deadline=None)
    def test_each_size_is_the_difference_of_the_cumulative_sets(self, a):
        for size in range(1, 12):
            want = sorted(_bounded_below(a, size) - _bounded_below(a, size - 1))
            assert list(_below_of_size(a, size)) == want, size

    @pytest.mark.parametrize("limit", sorted(oracle.LIMIT_ENUMERATIONS))
    def test_limit_layouts_take_the_pinned_enumeration(self, limit):
        """The limit layout seeds sector t with entry t - 1, so the 20
        entries the benchmark pins per limit rank must not move."""
        want = [o(text) for text in oracle.LIMIT_ENUMERATIONS[limit]]
        assert enumerate_below(o(limit), 20) == want

    def test_deterministic(self):
        assert enumerate_below(o("w^2"), 25) == enumerate_below(o("w^2"), 25)

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_memo_matches_one_pass_per_count(self, order):
        """The stored prefix answers every count as a fresh budget loop does,
        whatever order the counts are asked in."""

        def fresh(a, count):
            out, prev, budget = [], frozenset(), 1
            while len(out) < count and budget <= count + 2:
                cur = _bounded_below(a, budget)
                out.extend(sorted(cur - prev))
                prev = cur
                budget += 1
            return out[:count]

        counts = list(range(1, 31))
        if order == "descending":
            counts.reverse()
        elif order == "shuffled":
            random.Random(8).shuffle(counts)
        _PREFIXES.clear()
        for text in ("1", "5", "w", "w+3", "w*2", "w^2", "w^w", "w^(w+1)", "w^2*3+w"):
            a = o(text)
            for c in counts:
                assert enumerate_below(a, c) == fresh(a, c), (text, c)


class TestArithmetic:
    def test_absorption(self):
        assert ordinal_add(ONE, OMEGA) == OMEGA
        assert ordinal_add(OMEGA, ONE) == o("w+1")

    @given(ordinals, ordinals)
    @settings(max_examples=60)
    def test_sub_left_inverts_add(self, a, b):
        assert ordinal_sub_left(a, ordinal_add(a, b)) == b

    def test_sub_left_requires_order(self):
        with pytest.raises(ValueError):
            ordinal_sub_left(OMEGA, ONE)


class TestSyntax:
    @pytest.mark.parametrize(
        "text",
        ["0", "5", "w", "w+3", "w*2", "w^2", "w^w", "w^2*3+w*2+5", "w^(w+1)*2",
         "w^(w^w)+w^2*3+1"],
    )
    def test_canonical_round_trip(self, text):
        assert format_ordinal(parse_ordinal(text)) == text

    @given(ordinals)
    def test_parse_inverts_format(self, a):
        assert parse_ordinal(format_ordinal(a)) == a

    def test_sums_normalize(self):
        assert parse_ordinal("1+w") == OMEGA
        assert parse_ordinal("w+w") == o("w*2")

    @pytest.mark.parametrize("text", ["", "w^", "w*0", "q", "w+", "(w", "3 3"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_ordinal(text)

    @pytest.mark.parametrize("text", ["w+", "3+", "w^", "w*", "w^(1"])
    def test_input_that_stops_early_says_so(self, text):
        with pytest.raises(ValueError, match="^unexpected end of ordinal$"):
            parse_ordinal(text)
