import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from rankzero.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    compare,
    enumerate_below,
    format_ordinal,
    fundamental_sequence,
    ordinal_add,
    ordinal_sub_left,
    parse_ordinal,
    predecessor,
)
from rankzero.ordinal import _PREFIXES, _bounded_below  # the memo under test


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


class TestCompare:
    def test_finite_below_omega(self):
        assert compare(Ordinal.from_int(3), OMEGA) == -1

    def test_reflexive(self):
        x = o("w*2+1")
        assert compare(x, x) == 0

    def test_leading_term_dominates(self):
        assert compare(o("w^2"), o("w*5+9")) == 1

    @given(ordinals, ordinals)
    def test_trichotomy(self, a, b):
        c = compare(a, b)
        assert c in (-1, 0, 1)
        assert (c == 0) == (a == b)
        assert compare(b, a) == -c

    @given(ordinals, ordinals, ordinals)
    @settings(max_examples=60)
    def test_transitive(self, a, b, c):
        if compare(a, b) <= 0 and compare(b, c) <= 0:
            assert compare(a, c) <= 0


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
        assert compare(p, a) == -1
        # nothing sits strictly between p and a
        for x in enumerate_below(a, 25):
            assert compare(x, p) <= 0


class TestFundamentalSequence:
    def test_omega(self):
        for n in (1, 2, 7):
            assert fundamental_sequence(OMEGA, n) == Ordinal.from_int(n)

    def test_omega_squared(self):
        assert fundamental_sequence(o("w^2"), 3) == o("w*3")

    def test_omega_to_omega(self):
        assert fundamental_sequence(o("w^w"), 2) == o("w^2")

    def test_tail_recursion(self):
        assert fundamental_sequence(o("w^2+w"), 5) == o("w^2+5")

    def test_successor_rejected(self):
        with pytest.raises(ValueError):
            fundamental_sequence(o("w+1"), 2)

    @given(ordinals, st.integers(1, 4))
    @settings(max_examples=60)
    def test_increasing_below(self, a, n):
        if not a.is_limit:
            return
        fn = fundamental_sequence(a, n)
        fn1 = fundamental_sequence(a, n + 1)
        assert compare(fn, fn1) == -1
        assert compare(fn1, a) == -1

    def test_cofinal_spot_check(self):
        a = o("w^2")
        for b in enumerate_below(a, 12):
            assert any(
                compare(fundamental_sequence(a, n), b) >= 0 for n in range(1, 12)
            )


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
            assert compare(x, o("w*2")) == -1
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
            assert compare(x, a) == -1

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
