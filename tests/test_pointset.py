import hashlib
import json
import random
from fractions import Fraction as F
from functools import reduce
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from rankzero.ordinal import (
    OMEGA,
    ZERO,
    Ordinal,
    enumerate_below,
    ordinal_add,
    parse_ordinal,
    predecessor,
)
from rankzero.pointset import (
    Arc,
    Leaf,
    PickedKids,
    build_rank_set,
    cardinality,
    derive,
    canonical_json,
    derive_once,
    enumerate_points,
    materialize,
    member,
    rank_of,
    rank_profile,
    singleton_refine,
    tree_from_json,
    tree_to_json,
    union_disjoint,
)
from rankzero.pointset import Cluster, Forest, _child_arc, _spec_children  # under test
from rankzero.schedule import standard_arc


def o(text):
    return parse_ordinal(text)


HOST = Arc(F(1, 8), F(1, 96))


class TestArc:
    def test_validation(self):
        with pytest.raises(ValueError):
            Arc(F(0), F(1, 4))
        with pytest.raises(ValueError):
            Arc(F(0), F(0))

    def test_rejects_a_quarter_turn_in_any_form(self):
        for half_width in (F(1, 4), 0.25, F(1, 3), F(-1, 8)):
            with pytest.raises(ValueError):
                Arc(F(1, 8), half_width)

    @pytest.mark.parametrize("turn,expect", [
        (0, F(0)), (3, F(0)), (F(-1, 3), F(2, 3)), (F(5, 4), F(1, 4)),
        (F(1), F(0)), (0.375, F(3, 8)), (-0.125, F(7, 8)), (F(2, 3), F(2, 3)),
    ])
    def test_turns_normalize_to_exact_fractions(self, turn, expect):
        arc, leaf = Arc(turn, 0.125), Leaf(turn)
        for value in (arc.center, leaf.angle):
            assert value == expect and type(value) is F
        assert arc.half_width == F(1, 8) and type(arc.half_width) is F

    def test_exact_turns_are_kept(self):
        center, half_width = F(2, 3), F(1, 9)
        arc = Arc(center, half_width)
        assert arc.center is center and arc.half_width is half_width
        assert Leaf(center).angle is center

    def test_child_arcs_wrap_below_zero(self):
        arc = Arc(F(1, 100), F(1, 10))
        child = _child_arc(arc, 1)
        assert child.center == F(1, 100) - F(1, 20) + 1 == F(24, 25)
        assert child.half_width == F(1, 270)
        assert all(0 <= _child_arc(arc, n).center < 1 for n in range(1, 8))

    def test_wraparound_distance(self):
        a = Arc(F(1, 64), F(1, 32))
        assert a.contains(F(63, 64))

    def test_disjointness_is_exact(self):
        a = Arc(F(0), F(1, 16))
        b = Arc(F(1, 8), F(1, 16))  # closed arcs touch at 1/16
        assert not a.strongly_disjoint(b)
        assert a.strongly_disjoint(Arc(F(1, 8) + F(1, 1000), F(1, 16)))


class TestBuild:
    def test_rank_one_is_center_point(self):
        assert build_rank_set(1, 1, HOST) == Leaf(F(1, 8))

    def test_rank_two_angles_increase_to_limit(self):
        tree = build_rank_set(2, 1, HOST)
        angles = materialize(tree, 1, 4)
        assert len(angles) == 4
        assert angles == sorted(angles)
        assert all(a < F(1, 8) for a in angles)

    def test_two_copies_prune_to_two_points(self):
        tree = build_rank_set(3, 2, HOST)
        twice = derive_once(derive_once(tree))
        assert cardinality(twice) == 2
        assert derive_once(twice) is None

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            build_rank_set(0, 1, HOST)

    def test_limit_with_copies_rejected(self):
        with pytest.raises(ValueError):
            build_rank_set(OMEGA, 2, HOST)

    def test_child_arcs_disjoint_and_shrinking(self):
        tree = build_rank_set(3, 1, HOST)
        kids = []
        for n, child in _spec_children(tree.arc, tree.kids):
            kids.append(child)
            if n >= 6:
                break
        arcs = [k.arc for k in kids]
        for i in range(len(arcs)):
            for j in range(i + 1, len(arcs)):
                assert arcs[i].strongly_disjoint(arcs[j])
        widths = [a.half_width for a in arcs]
        assert widths == sorted(widths, reverse=True)
        # arcs approach the limit angle without touching it
        gaps = [abs(F(1, 8) - a.center) for a in arcs]
        assert gaps == sorted(gaps, reverse=True)
        assert all(g > a.half_width for g, a in zip(gaps, arcs))

    def test_collapse_rank_recursion(self):
        # constant child ranks: one more than the children
        t4 = build_rank_set(4, 1, HOST)
        child_ranks = [rank_of(c) for _, (_, c) in zip(range(3), _spec_children(t4.arc, t4.kids))]
        assert all(r == o("2") for r in child_ranks)
        assert rank_of(t4) == o("3")
        # enumerated child ranks: supremum, not attained
        tw = build_rank_set(OMEGA, 1, HOST)
        seen = [rank_of(c) for _, (_, c) in zip(range(6), _spec_children(tw.arc, tw.kids))]
        assert rank_of(tw) == OMEGA
        assert max(seen) < OMEGA
        assert len(set(seen)) == len(seen)


class TestDerive:
    def test_leaf_prunes_to_empty(self):
        assert derive_once(Leaf(F(1, 3))) is None

    def test_rank_two_prunes_to_limit(self):
        assert derive_once(build_rank_set(2, 1, HOST)) == Leaf(F(1, 8))

    def test_double_prune_of_rank_three(self):
        tree = build_rank_set(3, 1, HOST)
        assert derive_once(derive_once(tree)) == Leaf(F(1, 8))

    def test_stage_two_of_rank_two_empty(self):
        assert derive(build_rank_set(2, 1, HOST), 2) is None

    def test_limit_stage_singleton(self):
        assert derive(build_rank_set(OMEGA, 1, HOST), OMEGA) == Leaf(F(1, 8))

    def test_three_copies_at_stage_three(self):
        tree = build_rank_set(4, 3, HOST)
        assert cardinality(derive(tree, 3)) == 3
        assert derive(tree, 4) is None

    def test_stage_zero_is_identity(self):
        tree = build_rank_set(3, 1, HOST)
        assert derive(tree, 0) is tree

    @pytest.mark.parametrize("alpha", ["2", "3", "4", "w", "w+2", "w*2", "w^2"])
    def test_iterated_pruning_matches_stages(self, alpha):
        tree = build_rank_set(o(alpha), 1, HOST)
        cur = tree
        for k in range(1, 7):
            cur = derive_once(cur)
            assert cur == derive(tree, k)

    def test_monotone_in_stage(self):
        tree = build_rank_set(o("w+1"), 1, HOST)
        big = derive(tree, o("w"))
        small = derive(tree, 2)
        for angle in materialize(big, 2, 3):
            assert member(small, angle)

    def test_limit_stage_agrees_with_fundamental_chain(self):
        tree = build_rank_set(OMEGA, 1, HOST)
        apex = F(1, 8)
        at_limit = derive(tree, OMEGA)
        assert at_limit == Leaf(apex)
        for n in range(1, 5):
            stage = Ordinal.from_int(n)
            assert member(derive(tree, stage), apex)
        # a point of finite rank is eventually eliminated along the chain
        finite_point = materialize(derive(tree, 1), 1, 4)[0]
        assert not member(derive(tree, Ordinal.from_int(9)), finite_point)

    def test_survivor_set_contains_limits(self):
        tree = build_rank_set(2, 1, HOST)
        d = derive(tree, 1)
        assert member(d, F(1, 8))
        assert not member(tree, F(1, 8))


small_alphas = st.sampled_from(["1", "2", "3", "4", "w", "w+1", "w*2"]).map(parse_ordinal)


def ordinals_up_to(top: str):
    """Ordinals at most top, as sums of up to three terms w^e * c with e in
    0..3, w, w+1 and c in 1..3."""
    exponents = [o(e) for e in ("0", "1", "2", "3", "w", "w+1")]
    top = o(top)
    return st.lists(
        st.tuples(st.sampled_from(exponents), st.integers(1, 3)), max_size=3
    ).map(
        lambda pairs: reduce(ordinal_add, (Ordinal.omega_power(e, c) for e, c in pairs), ZERO)
    ).filter(lambda a: a <= top)


class TestProperties:
    @given(small_alphas, st.integers(1, 3), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_stage_monotonicity(self, alpha, nu, k):
        # containment of later stages in earlier ones holds from stage 1 on;
        # stage 0 is exempt, since the sets avoid their accumulation points
        from rankzero.ordinal import predecessor

        if predecessor(alpha) is None:
            nu = 1
        tree = build_rank_set(alpha, nu, HOST)
        later = derive(tree, k + 1)
        earlier = derive(tree, k)
        for angle in materialize(later, 2, 2):
            assert member(earlier, angle)

    @given(ordinals_up_to("w^(w+1)*2+3").filter(lambda a: not a.is_zero),
           st.integers(1, 3), ordinals_up_to("w^(w+1)"), ordinals_up_to("w^(w+1)"))
    @settings(max_examples=150, deadline=None)
    def test_stages_compose_by_ordinal_sum(self, alpha, nu, a, b):
        if predecessor(alpha) is None:
            nu = 1
        tree = build_rank_set(alpha, nu, HOST)
        assert derive(derive(tree, a), b) == derive(tree, ordinal_add(a, b))

    @given(small_alphas, st.integers(1, 2))
    @settings(max_examples=30, deadline=None)
    def test_profile_never_increases(self, alpha, nu):
        from rankzero.ordinal import predecessor

        if predecessor(alpha) is None:
            nu = 1
        tree = build_rank_set(alpha, nu, HOST)
        # the profile constructor itself enforces monotonicity
        rank_profile(tree, [0, 1, 2, alpha])

    @given(small_alphas, st.integers(1, 2), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_materialize_monotone(self, alpha, nu, depth, per):
        from rankzero.ordinal import predecessor

        if predecessor(alpha) is None:
            nu = 1
        tree = build_rank_set(alpha, nu, HOST)
        base = set(materialize(tree, depth, per))
        assert base <= set(materialize(tree, depth + 1, per))
        assert base <= set(materialize(tree, depth, per + 1))


    @given(
        st.sampled_from(["1", "2", "3", "4", "w", "w+1", "w+3", "w*2", "w^2", "w^w"]),
        st.integers(1, 3),
        st.sampled_from(["0", "1", "2", "w"]),
        st.integers(0, 63),
    )
    @settings(max_examples=40, deadline=None)
    def test_canonical_bytes_round_trip(self, alpha, nu, beta, center):
        alpha = parse_ordinal(alpha)
        from rankzero.ordinal import predecessor

        if predecessor(alpha) is None:
            nu = 1
        tree = derive(build_rank_set(alpha, nu, Arc(F(center, 64), F(1, 96))), beta)
        data = canonical_json(tree_to_json(tree))
        loaded = tree_from_json(json.loads(data))
        assert loaded == tree
        assert canonical_json(tree_to_json(loaded)) == data


class TestIsolation:
    @pytest.mark.parametrize("alpha,nu", [("2", 1), ("3", 2), ("w", 1), ("w+1", 1)])
    def test_set_avoids_own_accumulation_points(self, alpha, nu):
        tree = build_rank_set(o(alpha), nu, HOST)
        d1 = derive(tree, 1)
        for angle in materialize(tree, 3, 3):
            assert not member(d1, angle)


class TestUnion:
    A1 = Arc(F(1, 8), F(1, 96))
    A2 = Arc(F(3, 8), F(1, 96))

    def test_two_leaves_prune_to_nothing(self):
        u = union_disjoint([(Leaf(self.A1.center), self.A1), (Leaf(self.A2.center), self.A2)])
        assert derive_once(u) is None

    def test_mixed_ranks(self):
        A = build_rank_set(2, 1, self.A1)
        B = build_rank_set(3, 1, self.A2)
        u = union_disjoint([(A, self.A1), (B, self.A2)])
        assert cardinality(derive(u, 1)) == float("inf")
        assert derive(u, 2) == Leaf(F(3, 8))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            union_disjoint([(Leaf(F(0)), Arc(F(0), F(1, 16))),
                            (Leaf(F(1, 16)), Arc(F(1, 16), F(1, 16)))])

    def test_tree_outside_declared_arc_rejected(self):
        stray = build_rank_set(2, 1, self.A2)
        with pytest.raises(ValueError):
            union_disjoint([(stray, self.A1)])

    def test_pruning_commutes_with_union(self):
        rng = random.Random(7)
        pool = ["1", "2", "3", "w", "w+1"]
        for _ in range(25):
            alpha_a, alpha_b = o(rng.choice(pool)), o(rng.choice(pool))
            A = build_rank_set(alpha_a, 1, self.A1)
            B = build_rank_set(alpha_b, 1, self.A2)
            u = union_disjoint([(A, self.A1), (B, self.A2)])
            for beta in {Ordinal.from_int(0), Ordinal.from_int(1), alpha_a, alpha_b}:
                lhs = derive(u, beta)
                rhs = union_disjoint(
                    [(derive(A, beta), self.A1), (derive(B, beta), self.A2)]
                )
                assert lhs == rhs


class TestRefine:
    def test_leaf_identity(self):
        leaf = Leaf(F(1, 8))
        assert singleton_refine(leaf, 0, F(1, 8)) is leaf

    def test_two_clusters_pick_one(self):
        tree = build_rank_set(2, 2, HOST)
        limits = sorted(m.limit for m in tree.members)
        refined = singleton_refine(tree, 1, limits[0])
        assert derive(refined, 1) == Leaf(limits[0])

    def test_limit_tree_apex(self):
        tree = build_rank_set(OMEGA, 1, HOST)
        refined = singleton_refine(tree, OMEGA, F(1, 8))
        assert derive(refined, OMEGA) == Leaf(F(1, 8))

    def test_refine_below_collapse_rank(self):
        tree = build_rank_set(OMEGA, 1, HOST)
        refined = singleton_refine(tree, 3, F(1, 8))
        assert derive(refined, 3) == Leaf(F(1, 8))
        assert rank_of(refined) == Ordinal.from_int(3)
        # still a subset of the original
        for angle in materialize(refined, 2, 3):
            assert member(tree, angle)

    def test_refine_at_a_limit_rank_picks_one_child_per_rank(self):
        tree = build_rank_set(o("w*2"), 1, standard_arc())
        refined = singleton_refine(tree, OMEGA, tree.limit)
        assert isinstance(refined.kids, PickedKids) and refined.kids.alpha == OMEGA
        kids = islice(_spec_children(refined.arc, refined.kids), 5)
        assert [rank_of(child) for _, child in kids] == enumerate_below(OMEGA, 5)
        assert derive(refined, OMEGA) == Leaf(tree.limit)
        for angle in materialize(refined, 2, 3):
            assert member(tree, angle)

    def test_refine_into_child(self):
        tree = build_rank_set(3, 1, HOST)
        target = materialize(derive(tree, 1), 1, 3)[0]
        refined = singleton_refine(tree, 1, target)
        assert derive(refined, 1) == Leaf(target)

    def test_bad_target_rejected(self):
        tree = build_rank_set(2, 1, HOST)
        with pytest.raises(ValueError):
            singleton_refine(tree, 1, F(2, 7))


class TestMaterialize:
    def test_leaf(self):
        assert materialize(Leaf(F(1, 8)), 3, 5) == [F(1, 8)]

    def test_grid_count(self):
        assert len(materialize(build_rank_set(3, 1, HOST), 2, 3)) == 9

    def test_monotone_under_inclusion(self):
        tree = build_rank_set(o("w"), 1, HOST)
        small = set(materialize(tree, 2, 3))
        assert small <= set(materialize(tree, 3, 3))
        assert small <= set(materialize(tree, 2, 5))

    def test_all_points_inside_host(self):
        for alpha in ("2", "w", "w^2"):
            for a in materialize(build_rank_set(o(alpha), 1, HOST), 3, 3):
                assert HOST.contains(a)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            materialize(Leaf(F(0)), 0, 1)


def _weights(tree, bound):
    """Every point of weight at most `bound`, as angle -> weight, by plain
    recursion over the children: child n adds n, forest member i adds i."""
    if isinstance(tree, Leaf):
        return {tree.angle: 0}
    if isinstance(tree, Forest):
        pairs = enumerate(tree.members, 1)
    else:
        pairs = _spec_children(tree.arc, tree.kids)
    out = {tree.limit: 0} if isinstance(tree, Cluster) and tree.with_apex else {}
    for n, child in pairs:
        if n > bound:
            break
        out.update({a: w + n for a, w in _weights(child, bound - n).items()})
    return out


def _first_leaf(tree):
    """The leaf reached through the first member and every first child."""
    if isinstance(tree, Forest):
        tree = tree.members[0]
    while not isinstance(tree, Leaf):
        tree = next(_spec_children(tree.arc, tree.kids))[1]
    return tree.angle


def _enumeration_trees():
    deep = build_rank_set(6, 1, HOST)
    limit = build_rank_set(o("w*2"), 1, standard_arc())
    return {
        "rank-2": build_rank_set(2, 1, HOST),
        "rank-5": build_rank_set(5, 1, HOST),
        "rank-6": deep,
        "rank-w+5": build_rank_set(o("w+5"), 1, HOST),
        "rank-w^w": build_rank_set(o("w^w"), 1, HOST),
        "forest-6x3": build_rank_set(6, 3, HOST),
        "forest-w+3x2": build_rank_set(o("w+3"), 2, HOST),
        "derived-6-by-2": derive(deep, 2),
        "derived-w^2-by-w+1": derive(build_rank_set(o("w^2"), 1, HOST), o("w+1")),
        "derived-forest": derive(build_rank_set(5, 2, HOST), 1),
        "picked-w*2-at-w": singleton_refine(limit, OMEGA, limit.limit),
        "picked-6-at-2": singleton_refine(deep, 2, deep.limit),
        "finite-forest": derive(build_rank_set(4, 3, HOST), 3),
        "leaf": Leaf(F(1, 8)),
    }


ENUMERATION_TREES = _enumeration_trees()


class TestEnumeratePoints:
    @pytest.mark.parametrize("name", sorted(ENUMERATION_TREES))
    def test_each_point_once_by_weight_then_angle(self, name):
        tree = ENUMERATION_TREES[name]
        prefix = list(islice(enumerate_points(tree), 60))
        assert len(set(prefix)) == len(prefix)
        assert len(prefix) == min(60, cardinality(tree))
        assert _first_leaf(tree) in prefix[:50]
        bound = 0
        while not set(prefix) <= set(weights := _weights(tree, bound)):
            bound += 1
        keys = [(weights[a], a) for a in prefix]
        assert keys == sorted(keys)
        # every point lighter than the prefix's last weight is in the prefix
        last = keys[-1][0]
        assert {a for a, w in weights.items() if w < last} <= set(prefix)
        assert all(member(tree, a) for a in prefix)

    def test_a_finite_set_stops_at_its_cardinality(self):
        tree = ENUMERATION_TREES["finite-forest"]
        assert list(enumerate_points(tree)) == materialize(tree, 1, 1)
        assert len(materialize(tree, 1, 1)) == cardinality(tree) == 3
        assert list(enumerate_points(None)) == []

    def test_weights_of_rank_six(self):
        # E(6) collapses at stage 5: its leaves sit at depth 5, so weight W
        # holds C(W - 1, 4) of them
        tree = ENUMERATION_TREES["rank-6"]
        weights = _weights(tree, 8)
        counts = [sum(w == k for w in weights.values()) for k in range(9)]
        assert counts == [0, 0, 0, 0, 0, 1, 5, 15, 35]
        order = sorted(weights, key=lambda a: (weights[a], a))
        assert list(islice(enumerate_points(tree), 56)) == order


class TestProfile:
    def test_non_increasing_enforced(self):
        tree = build_rank_set(3, 2, HOST)
        prof = rank_profile(tree, ["0", "1", "2", "3"])
        cards = [c for _, c in prof.entries]
        assert cards == [float("inf"), float("inf"), 2, 0]

    def test_extra_isolated_point(self):
        prof = rank_profile(Leaf(F(0)), ["0", "1"], extra_isolated=1)
        assert prof.as_dict() == {"0": 2, "1": 0}


class TestJson:
    @pytest.mark.parametrize("alpha,nu", [("1", 1), ("2", 1), ("3", 2), ("w", 1), ("w^2", 1)])
    def test_round_trip_constructions(self, alpha, nu):
        tree = build_rank_set(o(alpha), nu, HOST)
        blob = json.dumps(tree_to_json(tree))
        assert tree_from_json(json.loads(blob)) == tree

    def test_round_trip_derived_and_refined(self):
        tree = build_rank_set(o("w+1"), 1, HOST)
        derived = derive(tree, 2)
        refined = singleton_refine(tree, 3, F(1, 8))
        for t in (derived, refined, None):
            blob = json.dumps(tree_to_json(t))
            assert tree_from_json(json.loads(blob)) == t

    def test_pristine_cluster_uses_compact_schema(self):
        obj = tree_to_json(build_rank_set(2, 1, HOST))
        assert obj["kind"] == "cluster"
        assert set(obj) == {"kind", "limit", "ordinal", "nu", "arc"}

    def test_deterministic_dumps(self):
        tree = build_rank_set(o("w"), 1, HOST)
        again = build_rank_set(o("w"), 1, HOST)
        assert canonical_json(tree_to_json(tree)) == canonical_json(tree_to_json(again))


def _child_center(n):
    """Limit angle of HOST's n-th sub-arc."""
    return F(1, 8) - F(1, 96) / 2**n


# Built over an apex of successor rank (children of one rank, "const") and of
# limit rank (children enumerating the ordinals below it, "enum").
_CONST, _ENUM = build_rank_set(o("w+3"), 1, HOST), build_rank_set(o("w*2"), 1, HOST)
_PINNED_TREES = {
    "const": (_CONST, "512790ea2f0d869b8dfaf4be5358b276e00dab8f357fe451d3f5d766345692ac"),
    "const-d1": (derive(_CONST, 1),
                 "217b822c8dc8a07cf163afb86afdd1f2e539938f2d1f56f9a3e4c0b2a51d8048"),
    "const-dw": (derive(_CONST, o("w")),
                 "32bb3d30a288cf9b043610b44caf8e89727625f6dfd0f23b1994b7a71dba1be1"),
    "const-d1-d2": (derive(derive(_CONST, 1), 2),
                    "231213fcd391aa3c630b4433564b7075c1246cb622a08f1166336dd0ec08541d"),
    "const-r-w+1": (singleton_refine(_CONST, o("w+1"), F(1, 8)),
                    "8c4cddf310fd60dae814c11657f8df6a61ce7471801197a0cf63954c6750988d"),
    "const-r-w": (singleton_refine(_CONST, o("w"), F(1, 8)),
                  "c6a8946c7790717ad8353d3ee27a28882058f802e155e80ffb319d7772a88efb"),
    "const-r-child2": (singleton_refine(_CONST, 1, _child_center(2)),
                       "c6b5658a641299048c145e71d89028493009314b912a60b0139a9c52196220a1"),
    "enum": (_ENUM, "a0c59d43ebb60ef9c82648a480cf1748c12562a84b003744d22c11fdadbce94a"),
    "enum-d1": (derive(_ENUM, 1),
                "809868e32f942528e4f63d2d7e107a1a50142c8076432de0d76a5b603f9f27a3"),
    "enum-dw+1": (derive(_ENUM, o("w+1")),
                  "da39e6fec8d647a5b366065e73c20c64c572754d229b672818fe3f6a3d3d0518"),
    "enum-r-w": (singleton_refine(_ENUM, o("w"), F(1, 8)),
                 "c6065226a73ec02d536fe7c66d85c37b2fb8dc7d613a09f5187a1ed10fe9ba15"),
    "enum-r-w+1": (singleton_refine(_ENUM, o("w+1"), F(1, 8)),
                   "73d3bf36aa6bdd24b7b9249927ca0057d9d68237628a2c4f6e06e57e9d6aaa3a"),
    # child 5 of the w*2 apex has rank w, the fifth ordinal below w*2
    "enum-r-child5": (singleton_refine(_ENUM, 1, _child_center(5)),
                      "6f4b83dc545fbf8aa30f6b4709a89cf04cf3c3e0aa36f2ca726777f886f5179b"),
    "enum-r-child5-d1": (derive(singleton_refine(_ENUM, 1, _child_center(5)), 1),
                         "02aacbdb687cb2578d2b1f21ce00725c53cb591f25eec82916f9bbcfb6967316"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_TREES))
def test_tree_bytes_are_pinned(name):
    tree, digest = _PINNED_TREES[name]
    blob = canonical_json(tree_to_json(tree))
    assert hashlib.sha256(blob).hexdigest() == digest
    assert tree_from_json(json.loads(blob)) == tree
