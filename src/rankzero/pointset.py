"""Countable closed subsets of a circular arc with exact transfinite
accumulation structure.

A set is described symbolically by a finite tree: a Leaf is an isolated
point (an exact rational turn on the unit circle) and a Cluster is a lazy
countable family of child subtrees on shrinking pairwise disjoint sub-arcs
converging to a limit angle.  Each cluster carries its exact collapse rank:
the ordinal stage at which repeated pruning of isolated points reduces the
set to the limit angle alone.  Pruning at any ordinal stage, unions over
strongly disjoint arcs, refinement to a prescribed singleton, and
materialization to concrete angles are all computed exactly on these
descriptors; no floating point is involved anywhere in this module.

The denoted point set of a tree is the set of its leaf angles; a cluster
contributes its limit angle only when flagged (which happens to every
cluster that survives at least one pruning stage, since derived sets are
closed).
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from math import inf
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from .ordinal import (
    ONE,
    ZERO,
    Ordinal,
    OrdinalLike,
    as_ordinal,
    enumerate_below,
    format_ordinal,
    ordinal_add,
    ordinal_sub_left,
    parse_ordinal,
    predecessor,
    successor,
)

__all__ = [
    "Arc",
    "Leaf",
    "Cluster",
    "Forest",
    "RankTree",
    "RankProfile",
    "build_rank_set",
    "derive",
    "derive_once",
    "union_disjoint",
    "singleton_refine",
    "materialize",
    "enumerate_points",
    "member",
    "cardinality",
    "rank_of",
    "rank_profile",
    "tree_to_json",
    "tree_from_json",
    "turn_distance",
]


def _norm_turn(t) -> Fraction:
    """t as an exact turn in [0, 1); a Fraction that already is one is kept."""
    if type(t) is Fraction and 0 <= t < 1:
        return t
    return Fraction(t) % 1


def turn_distance(a: Fraction, b: Fraction) -> Fraction:
    """Circular distance between two angles, in turns."""
    d = abs(_norm_turn(a) - _norm_turn(b))
    return min(d, 1 - d)


_QUARTER = Fraction(1, 4)


@dataclass(frozen=True)
class Arc:
    """Closed arc of the unit circle: angles within half_width of center.

    All angles are exact rational turns; half_width must be positive and
    below a quarter turn so that arcs are proper.
    """

    center: Fraction
    half_width: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _norm_turn(self.center))
        if type(self.half_width) is not Fraction:
            object.__setattr__(self, "half_width", Fraction(self.half_width))
        if not 0 < self.half_width < _QUARTER:
            raise ValueError("arc half_width must lie in (0, 1/4)")

    def contains(self, angle: Fraction) -> bool:
        return turn_distance(self.center, angle) <= self.half_width

    def strongly_disjoint(self, other: "Arc") -> bool:
        return turn_distance(self.center, other.center) > self.half_width + other.half_width


def _child_arc(arc: Arc, n: int) -> Arc:
    """Sub-arc hosting child n: centered half_width/2^n below the limit
    angle with half-width half_width/3^(n+2).

    The family is pairwise strongly disjoint, avoids the limit angle, and
    converges to it monotonically from below.
    """
    h = arc.half_width
    return Arc(arc.center - h / 2**n, h / 3 ** (n + 2))


# -- tree nodes ---------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    angle: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "angle", _norm_turn(self.angle))


@dataclass(frozen=True)
class ApexKids:
    """Child n is a fresh collapse-rank tree on the n-th sub-arc, of rank
    rank - 1, or of the n-th ordinal below rank when rank is a limit."""

    rank: Ordinal


@dataclass(frozen=True)
class DerivedKids:
    """Children of the base pruned by beta; children of lower rank vanish."""

    base: "KidsSpec"
    beta: Ordinal


@dataclass(frozen=True)
class PickedKids:
    """Sub-selection of base children realizing collapse rank alpha."""

    base: "KidsSpec"
    alpha: Ordinal


KidsSpec = Union[ApexKids, DerivedKids, PickedKids]


@dataclass(frozen=True)
class Cluster:
    arc: Arc
    kids: KidsSpec
    rank: Ordinal
    with_apex: bool = False

    @property
    def limit(self) -> Fraction:
        return self.arc.center


@dataclass(frozen=True)
class Forest:
    """Finite union of subtrees on pairwise strongly disjoint arcs."""

    members: Tuple[Union[Leaf, Cluster], ...]


RankTree = Union[Leaf, Cluster, Forest]
Card = Union[int, float]  # float only for inf


def rank_of(tree: RankTree) -> Ordinal:
    """Collapse rank: pruning at this stage leaves exactly one point."""
    if isinstance(tree, Leaf):
        return ZERO
    if isinstance(tree, Cluster):
        return tree.rank
    raise ValueError("a forest has no single collapse rank")


def _apex_tree(rho: Ordinal, arc: Arc) -> Union[Leaf, Cluster]:
    """A set on `arc` whose pruning chain collapses to {arc.center} exactly
    at stage rho and empties at stage rho + 1."""
    if rho.is_zero:
        return Leaf(arc.center)
    return Cluster(arc, ApexKids(rho), rho, False)


def _spec_children(arc: Arc, spec: KidsSpec) -> Iterator[Tuple[int, Union[Leaf, Cluster]]]:
    """Effective children as (base sub-arc index, subtree), lazily."""
    if isinstance(spec, ApexKids):
        p = predecessor(spec.rank)
        for n in count(1):
            rank = p if p is not None else enumerate_below(spec.rank, n)[n - 1]
            yield n, _apex_tree(rank, _child_arc(arc, n))
    elif isinstance(spec, DerivedKids):
        for n, child in _spec_children(arc, spec.base):
            if rank_of(child) >= spec.beta:
                yield n, derive(child, spec.beta)  # type: ignore[arg-type]
    elif isinstance(spec, PickedKids):
        alpha = spec.alpha
        stream = _spec_children(arc, spec.base)
        p = predecessor(alpha)
        if p is not None:
            for n, child in stream:
                if rank_of(child) >= p:
                    yield n, _rank_select(child, p)
        else:
            for m in count(1):
                goal = enumerate_below(alpha, m)[m - 1]
                for n, child in stream:
                    if rank_of(child) >= goal:
                        yield n, _rank_select(child, goal)
                        break
    else:  # pragma: no cover
        raise TypeError(f"unknown kids spec {spec!r}")


def _rank_select(tree: Union[Leaf, Cluster], goal: Ordinal) -> Union[Leaf, Cluster]:
    """A subtree of `tree` with collapse rank exactly `goal` (goal <= rank)."""
    if goal == rank_of(tree):
        return tree
    assert isinstance(tree, Cluster)
    for _, child in _spec_children(tree.arc, tree.kids):
        if rank_of(child) >= goal:
            return _rank_select(child, goal)
    raise AssertionError("unreachable: child ranks are cofinal")  # pragma: no cover


# -- hulls and normalization --------------------------------------------------


def _hull(tree: Union[Leaf, Cluster]) -> Tuple[Fraction, Fraction]:
    """(center, half_width) of an arc containing the whole subtree."""
    if isinstance(tree, Leaf):
        return tree.angle, Fraction(0)
    return tree.arc.center, tree.arc.half_width


def _pieces(tree: RankTree) -> Tuple[Union[Leaf, Cluster], ...]:
    """The members of a forest, or the tree itself."""
    return tree.members if isinstance(tree, Forest) else (tree,)


def _sort_key(tree: Union[Leaf, Cluster]):
    c, h = _hull(tree)
    return (c, h, 0 if isinstance(tree, Leaf) else 1)


def _forest(members: Sequence[Optional[RankTree]]) -> Optional[RankTree]:
    flat: List[Union[Leaf, Cluster]] = []
    for m in members:
        if m is None:
            continue
        if isinstance(m, Forest):
            flat.extend(m.members)
        else:
            flat.append(m)
    if not flat:
        return None
    if len(flat) == 1:
        return flat[0]
    return Forest(tuple(sorted(flat, key=_sort_key)))


# -- construction -------------------------------------------------------------


def build_rank_set(alpha: OrdinalLike, nu: int, host: Arc) -> RankTree:
    """The canonical set E on `host` with prescribed pruning behavior.

    For alpha with a predecessor, pruning alpha-1 times leaves exactly nu
    points and pruning alpha times leaves nothing.  For limit alpha (nu must
    be 1) pruning at stage alpha leaves exactly one point.  In both cases
    the set is disjoint from its own accumulation points.
    """
    alpha = as_ordinal(alpha)
    if alpha.is_zero:
        raise ValueError("rank parameter must be >= 1")
    if nu < 1:
        raise ValueError("nu must be a positive integer")
    p = predecessor(alpha)
    if p is None:
        if nu != 1:
            raise ValueError("limit rank parameters only support nu = 1")
        return _apex_tree(alpha, host)
    if nu == 1:
        return _apex_tree(p, host)
    h, c = host.half_width, host.center
    members = []
    for j in range(1, nu + 1):
        sub = Arc(c - h + (2 * j - 1) * h / nu, h / (3 * nu))
        members.append(_apex_tree(p, sub))
    result = _forest(members)
    assert result is not None
    return result


# -- derivation ---------------------------------------------------------------


def _derived_kids(kids: KidsSpec, beta: Ordinal) -> KidsSpec:
    if isinstance(kids, DerivedKids):
        return DerivedKids(kids.base, ordinal_add(kids.beta, beta))
    return DerivedKids(kids, beta)


def derive(e: Optional[RankTree], beta: OrdinalLike) -> Optional[RankTree]:
    """The set of points surviving `beta` pruning stages; None is empty.

    Successor stages remove the isolated points; a limit stage keeps the
    points surviving every earlier stage.  Both are resolved exactly from
    the collapse ranks, without expanding the lazy children.
    """
    beta = as_ordinal(beta)
    if e is None or beta.is_zero:
        return e
    if isinstance(e, Leaf):
        return None
    if isinstance(e, Forest):
        return _forest([derive(m, beta) for m in e.members])
    if beta > e.rank:
        return None
    if beta == e.rank:
        return Leaf(e.limit)
    return Cluster(e.arc, _derived_kids(e.kids, beta), ordinal_sub_left(beta, e.rank), True)


def derive_once(e: Optional[RankTree]) -> Optional[RankTree]:
    """Single pruning stage: drop isolated points, keep accumulation points."""
    return derive(e, ONE)


# -- unions -------------------------------------------------------------------


def union_disjoint(sets: Sequence[Tuple[Optional[RankTree], Arc]]) -> Optional[RankTree]:
    """Union of finitely many sets on pairwise strongly disjoint host arcs.

    Pruning then commutes with the union at every stage, exactly.
    """
    arcs = [arc for _, arc in sets]
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            if not arcs[i].strongly_disjoint(arcs[j]):
                raise ValueError(
                    f"host arcs {i} and {j} overlap: closed arcs must be disjoint"
                )
    for tree, arc in sets:
        if tree is None:
            continue
        for piece in _pieces(tree):
            hc, hh = _hull(piece)
            if turn_distance(hc, arc.center) + hh > arc.half_width:
                raise ValueError("set leaves its declared host arc")
    return _forest([tree for tree, _ in sets])


# -- membership ---------------------------------------------------------------


def member(e: Optional[RankTree], angle: Fraction) -> bool:
    """Exact membership of an angle in the denoted point set."""
    if e is None:
        return False
    angle = _norm_turn(angle)
    if isinstance(e, Leaf):
        return e.angle == angle
    if isinstance(e, Forest):
        for m in e.members:
            hc, hh = _hull(m)
            if turn_distance(hc, angle) <= hh:
                return member(m, angle)
        return False
    if angle == e.limit:
        return e.with_apex
    child = _child_containing(e, angle)
    return child is not None and member(child, angle)


def _child_containing(cluster: Cluster, angle: Fraction) -> Optional[Union[Leaf, Cluster]]:
    """The effective child whose sub-arc holds angle (not the limit angle),
    or None when no child does."""
    h = cluster.arc.half_width
    delta = _norm_turn(cluster.limit - angle)
    if delta == 0 or delta > h:
        return None
    # children sit at offsets h/2^n below the limit; stop once they are all
    # strictly closer to the limit than the query angle
    for n in count(1):
        off = h / 2**n
        hw = h / 3 ** (n + 2)
        if off + hw < delta:
            return None
        if abs(delta - off) <= hw:
            break
    # the effective child on sub-arc n, unless pruning removed it
    for i, child in _spec_children(cluster.arc, cluster.kids):
        if i == n:
            return child
        if i > n:
            return None
    return None  # pragma: no cover


# -- refinement ---------------------------------------------------------------


def singleton_refine(e: RankTree, alpha: OrdinalLike, target: Fraction) -> RankTree:
    """A subset of e whose stage-alpha pruning is exactly {target}."""
    alpha = as_ordinal(alpha)
    target = _norm_turn(target)
    if not member(derive(e, alpha), target):
        raise ValueError(
            f"angle {target} does not survive {format_ordinal(alpha)} pruning stages"
        )
    return _refine(e, alpha, target)


def _refine(e: RankTree, alpha: Ordinal, target: Fraction) -> RankTree:
    if isinstance(e, Leaf):
        return e
    if isinstance(e, Forest):
        for m in e.members:
            if member(derive(m, alpha), target):
                return _refine(m, alpha, target)
        raise AssertionError("unreachable: member check passed")  # pragma: no cover
    if alpha == e.rank:
        return e
    if target == e.limit:
        if alpha.is_zero:
            return Leaf(e.limit)
        return Cluster(e.arc, PickedKids(e.kids, alpha), alpha, e.with_apex)
    child = _child_containing(e, target)
    if child is not None and member(derive(child, alpha), target):
        return _refine(child, alpha, target)
    raise AssertionError("unreachable: member check passed")  # pragma: no cover


# -- materialization ----------------------------------------------------------


def materialize(e: Optional[RankTree], depth: int, per_level: int) -> List[Fraction]:
    """Deterministic finite prefix of the denoted set, as sorted angles.

    Every cluster is expanded to its first per_level children, down to
    `depth` nested cluster expansions; clusters still unexpanded at the
    frontier contribute nothing (except a flagged limit angle).  The result
    grows monotonically under inclusion in both parameters.
    """
    if depth < 1 or per_level < 1:
        raise ValueError("depth and per_level must be >= 1")
    out: set = set()
    _gather(e, depth, per_level, out)
    return sorted(out)


def _gather(e: Optional[RankTree], depth: int, per_level: int, out: set) -> None:
    if e is None:
        return
    if isinstance(e, Leaf):
        out.add(e.angle)
        return
    if isinstance(e, Forest):
        for m in e.members:
            _gather(m, depth, per_level, out)
        return
    if e.with_apex:
        out.add(e.limit)
    if depth == 0:
        return
    taken = 0
    for _, child in _spec_children(e.arc, e.kids):
        _gather(child, depth - 1, per_level, out)
        taken += 1
        if taken >= per_level:
            break


def enumerate_points(e: Optional[RankTree]) -> Iterator[Fraction]:
    """Every point of the denoted set exactly once, by address weight.

    The weight of a point is the sum of the base child indices along its
    path from the root, a forest member counting its index from 1; a
    flagged limit angle weighs what its cluster does.  For W = 0, 1, 2, ...
    the points of weight exactly W come in ascending angle, and the
    iteration stops after the last point of a finite set.  Each weight
    holds finitely many points (child n adds n), so a prefix of any length
    is reached after finitely many child expansions.
    """
    # heap entries (weight, tie, base, node, siblings): node is the child
    # at `weight` of a parent at `base`, siblings yields the parent's later
    # (index, child) pairs
    heap: list = []
    tie = count()

    def push(base: int, siblings: Iterator) -> None:
        pair = next(siblings, None)
        if pair is not None:
            heapq.heappush(heap, (base + pair[0], next(tie), base, pair[1], siblings))

    if e is not None:
        push(0, enumerate(e.members, 1) if isinstance(e, Forest) else iter([(0, e)]))
    while heap:
        weight, points = heap[0][0], []
        while heap and heap[0][0] == weight:
            _, _, base, node, siblings = heapq.heappop(heap)
            push(base, siblings)
            if isinstance(node, Leaf):
                points.append(node.angle)
                continue
            if node.with_apex:
                points.append(node.limit)
            push(weight, _spec_children(node.arc, node.kids))
        yield from sorted(points)


# -- cardinality and rank profiles --------------------------------------------


def cardinality(e: Optional[RankTree]) -> Card:
    """Exact number of points; math.inf for countably infinite sets."""
    if e is None:
        return 0
    if isinstance(e, Leaf):
        return 1
    if isinstance(e, Forest):
        total: Card = 0
        for m in e.members:
            c = cardinality(m)
            if c == inf:
                return inf
            total += c
        return total
    # every cluster has infinitely many nonempty children by construction
    return inf


@dataclass(frozen=True)
class RankProfile:
    """Cardinalities of the pruning chain at selected ordinal stages."""

    entries: Tuple[Tuple[Ordinal, Card], ...]

    def __post_init__(self) -> None:
        prev: Optional[Card] = None
        for _, card in self.entries:
            if prev is not None and card > prev:
                raise ValueError("cardinalities must be non-increasing along the chain")
            prev = card

    def as_dict(self) -> dict:
        return {
            format_ordinal(beta): ("infinite" if card == inf else card)
            for beta, card in self.entries
        }


def rank_profile(e: Optional[RankTree], betas: Sequence[OrdinalLike],
                 extra_isolated: int = 0) -> RankProfile:
    """Profile of e at the given stages; extra_isolated adds that many
    isolated points at stage 0 only (used for an adjoined origin)."""
    entries = []
    for b in sorted({as_ordinal(b) for b in betas}):
        card = cardinality(derive(e, b))
        if b.is_zero and card != inf:
            card += extra_isolated
        entries.append((b, card))
    return RankProfile(tuple(entries))


# -- JSON ---------------------------------------------------------------------


def canonical_json(obj) -> bytes:
    """The one byte form of every JSON artifact, manifest and report."""
    return json.dumps(obj, sort_keys=True, indent=1).encode("ascii")


def _arc_to_json(arc: Arc) -> dict:
    return {"center": str(arc.center), "half_width": str(arc.half_width)}


def _arc_from_json(obj: dict) -> Arc:
    return Arc(Fraction(obj["center"]), Fraction(obj["half_width"]))


def _kids_to_json(kids: KidsSpec) -> dict:
    if isinstance(kids, ApexKids):
        p = predecessor(kids.rank)
        if p is not None:
            ranks = {"kind": "const", "value": format_ordinal(p)}
        else:
            ranks = {"kind": "enum", "limit": format_ordinal(kids.rank)}
        return {"kind": "apex", "ranks": ranks}
    if isinstance(kids, DerivedKids):
        return {"kind": "derived", "base": _kids_to_json(kids.base),
                "beta": format_ordinal(kids.beta)}
    return {"kind": "picked", "base": _kids_to_json(kids.base),
            "alpha": format_ordinal(kids.alpha)}


def _kids_from_json(obj: dict) -> KidsSpec:
    kind = obj["kind"]
    if kind == "apex":
        r = obj["ranks"]
        if r["kind"] == "const":
            return ApexKids(successor(parse_ordinal(r["value"])))
        limit = parse_ordinal(r["limit"])
        if not limit.is_limit:
            raise ValueError(f"enum kids need a limit ordinal, not {limit}")
        return ApexKids(limit)
    if kind == "derived":
        return DerivedKids(_kids_from_json(obj["base"]), parse_ordinal(obj["beta"]))
    if kind == "picked":
        return PickedKids(_kids_from_json(obj["base"]), parse_ordinal(obj["alpha"]))
    raise ValueError(f"unknown kids kind {kind!r}")


def _spec_rank(spec: KidsSpec) -> Ordinal:
    """The collapse rank of a cluster with these kids: rank for apex kids,
    the base rank less beta for derived kids (beta below the base rank) and
    alpha for picked kids (alpha positive and at most the base rank)."""
    if isinstance(spec, ApexKids):
        return spec.rank
    base = _spec_rank(spec.base)
    if isinstance(spec, DerivedKids):
        if not spec.beta < base:
            raise ValueError(f"derived kids prune {spec.beta} stages of rank {base}")
        return ordinal_sub_left(spec.beta, base)
    if not ZERO < spec.alpha <= base:
        raise ValueError(f"picked kids of rank {spec.alpha} outside 1..{base}")
    return spec.alpha


def tree_to_json(e: Optional[RankTree]) -> dict:
    """Descriptor serialization; the loader replays it exactly."""
    if e is None:
        return {"kind": "empty"}
    if isinstance(e, Leaf):
        return {"kind": "leaf", "angle": str(e.angle)}
    if isinstance(e, Forest):
        return {"kind": "forest", "members": [tree_to_json(m) for m in e.members]}
    obj = {
        "kind": "cluster",
        "limit": str(e.limit),
        "ordinal": format_ordinal(e.rank),
        "nu": 1,
        "arc": _arc_to_json(e.arc),
    }
    if _apex_tree(e.rank, e.arc) != e:
        obj["kids"] = _kids_to_json(e.kids)
        obj["with_apex"] = e.with_apex
    return obj


def tree_from_json(obj: dict) -> Optional[RankTree]:
    kind = obj["kind"]
    if kind == "empty":
        return None
    if kind == "leaf":
        return Leaf(Fraction(obj["angle"]))
    if kind == "forest":
        tree = _forest([tree_from_json(m) for m in obj["members"]])
        pieces = _pieces(tree) if tree is not None else ()
        for a, b in combinations(pieces, 2):
            (ca, ha), (cb, hb) = _hull(a), _hull(b)
            if turn_distance(ca, cb) <= ha + hb:
                raise ValueError("forest members must lie on strongly disjoint arcs")
        return tree
    if kind == "cluster":
        arc = _arc_from_json(obj["arc"])
        rank = parse_ordinal(obj["ordinal"])
        if Fraction(obj["limit"]) != arc.center:
            raise ValueError("cluster limit does not match its arc center")
        if "kids" not in obj:
            return _apex_tree(rank, arc)
        kids = _kids_from_json(obj["kids"])
        implied = _spec_rank(kids)
        if implied != rank:
            raise ValueError(f"cluster ordinal {rank} is not the rank {implied} its kids imply")
        return Cluster(arc, kids, rank, bool(obj.get("with_apex", False)))
    raise ValueError(f"unknown tree kind {kind!r}")
