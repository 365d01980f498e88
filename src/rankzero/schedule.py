"""Radius ladders and zero schedules for the infinite products.

Radii grow as a_n = e^(g_n) with g_n the Fibonacci-type sequence 1, 2, 3,
5, 8, ...; only the exact integer exponents are ever stored, since a_10 is
already near 4.5e38 and all downstream arithmetic is log-domain.  The key
growth law a_{n+2} >= a_{n+1} * a_n then holds with equality, and the
auxiliary bound a_n >= 1 / (1 - (1 - 2^-(n+1))^(1/(n+1))) holds from a
threshold index that the validator certifies with interval arithmetic.

Three schedule layouts are provided:

* row layout: ring n (radius a_n) carries the first n angles of one
  rank-constructed set, so ring n holds exactly n zeros;
* sector layout: ring (n, t) = radius a with global index n(n-1)/2 + t
  carries the first n angles of the t-th sector set E(alpha, t), one sector
  per ring;
* limit layout: identical geometry, sector t hosting a set of collapse
  rank b_t where b_1, b_2, ... enumerates the ordinals below a limit bound.

Sector arcs sit at turn angles 1/4 - 1/2^(t+2), increasing to the quarter
turn, with half-widths 1/(3*2^(t+4)); all pairwise strongly disjoint.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import inf
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from mpmath import iv

from .ordinal import (
    Ordinal,
    OrdinalLike,
    as_ordinal,
    enumerate_below,
    format_ordinal,
    parse_ordinal,
    predecessor,
    successor,
)
from .pointset import (
    Arc,
    RankTree,
    build_rank_set,
    cardinality,
    enumerate_points,
    materialize,
    tree_from_json,
    tree_to_json,
)

__all__ = [
    "RadiiSequence",
    "Zero",
    "ZeroSchedule",
    "build_radii",
    "validate_radii",
    "growth_threshold_index",
    "build_row_schedule",
    "build_sector_schedule",
    "build_limit_schedule",
    "schedule_to_json",
    "schedule_from_json",
    "convergence_exponent_check",
    "ConvergenceReport",
    "sector_arc",
    "standard_arc",
    "triangular",
]

_MAT_DEPTH_CAP = 9


def standard_arc() -> Arc:
    """Default host arc for row schedules."""
    return Arc(Fraction(1, 8), Fraction(1, 96))


def sector_arc(t: int) -> Arc:
    """Host arc of sector t >= 1; centers increase to the quarter turn."""
    if t < 1:
        raise ValueError("sector index must be >= 1")
    return Arc(Fraction(1, 4) - Fraction(1, 2 ** (t + 2)), Fraction(1, 3 * 2 ** (t + 4)))


def triangular(n: int) -> int:
    return n * (n + 1) // 2


@dataclass(frozen=True)
class RadiiSequence:
    """Strictly increasing radii stored as exact log values (base e)."""

    log_radii: Tuple[Fraction, ...]

    @property
    def n_max(self) -> int:
        return len(self.log_radii)

    def log_radius(self, n: int) -> Fraction:
        """log a_n for n >= 1, continued by the Fibonacci recurrence past
        the stored range (exact for generated ladders)."""
        if n < 1:
            raise ValueError("radius index must be >= 1")
        if n <= len(self.log_radii):
            return self.log_radii[n - 1]
        a, b = self.log_radii[-2], self.log_radii[-1]
        for _ in range(n - len(self.log_radii)):
            a, b = b, a + b
        return b


def build_radii(n_max: int) -> RadiiSequence:
    """The canonical ladder: log a_n follows 1, 2, 3, 5, 8, ... so that
    a_{n+2} = a_{n+1} * a_n exactly."""
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    logs = [Fraction(1), Fraction(2)]
    while len(logs) < n_max:
        logs.append(logs[-1] + logs[-2])
    return RadiiSequence(tuple(logs))


def validate_radii(radii: RadiiSequence) -> None:
    """Exact rational checks: strict growth, the multiplicative law
    log a_{n+2} >= log a_{n+1} + log a_n, and ratio steps of at least
    e^(7/10) > 2 (needed by the certified tail bounds)."""
    logs = radii.log_radii
    for i in range(1, len(logs)):
        if logs[i] <= logs[i - 1]:
            raise ValueError(f"radii not strictly increasing at index {i + 1}")
        if logs[i] - logs[i - 1] < Fraction(7, 10):
            raise ValueError(
                f"radius ratio below e^(7/10) at index {i + 1}; tail bounds need >= 2x steps"
            )
    for i in range(len(logs) - 2):
        if logs[i + 2] < logs[i + 1] + logs[i]:
            raise ValueError(f"multiplicative growth law fails at index {i + 1}")


def _iv_fraction(f: Fraction):
    """A rational as an interval at the current iv precision."""
    return iv.mpf(f.numerator) / iv.mpf(f.denominator)


@contextmanager
def _iv_prec(bits: int):
    """Run the block with iv.prec = bits, then restore the caller's."""
    saved = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = saved


def growth_threshold_index(radii: RadiiSequence) -> int:
    """Smallest index from which a_n >= 1/(1 - (1 - 2^-(n+1))^(1/(n+1)))
    holds through n_max, certified by interval arithmetic at 200 bits."""
    with _iv_prec(200):
        holds: List[bool] = []
        for n in range(1, radii.n_max + 1):
            one = iv.mpf(1)
            p = one - one / iv.mpf(2 ** (n + 1))
            root = p ** (one / iv.mpf(n + 1))
            rhs = one / (one - root)
            lhs = iv.exp(_iv_fraction(radii.log_radius(n)))
            if lhs.a > rhs.b:
                holds.append(True)
            elif lhs.b < rhs.a:
                holds.append(False)
            else:
                raise ArithmeticError(
                    f"interval comparison unresolved at n={n}; raise the precision"
                )
        for i in range(len(holds)):
            if all(holds[i:]):
                return i + 1
        raise ValueError("growth bound never holds on the generated range")


# -- zero schedules -----------------------------------------------------------


@dataclass(frozen=True)
class Zero:
    """One zero: radius a_ring (stored as its exact log), exact turn angle,
    and the sector it came from (row schedules use None)."""

    ring: int
    log_r: Fraction
    turn: Fraction
    sector: Optional[int] = None


@dataclass(frozen=True)
class ZeroSchedule:
    variant: str  # "rows" | "sectors" | "limit"
    alpha: Ordinal
    nu: Optional[int]  # None means unbounded (sector and limit layouts)
    radii: RadiiSequence
    zeros: Tuple[Zero, ...]
    # enumeration actually used per sector (key 0 holds the row layout's one)
    angles: Dict[int, Tuple[Fraction, ...]] = field(default_factory=dict)
    sources: Dict[int, Optional[RankTree]] = field(default_factory=dict)
    # per-zero numeric constants of the evaluator and the probe, keyed by
    # what they depend on (a precision, "float" or "exact"); evaluator._kept
    # is their only reader and writer, and builds each on first use
    tables: Dict[object, object] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        """The evaluator relies on these for built and loaded schedules alike:
        rings ascend within 1..n_max (so truncations are prefixes), each
        zero sits exactly on its ring's radius of a validated ladder at a
        turn in [0, 1), and it comes from a sector with a source set (the
        row layout's zeros carry no sector and come from set 0).  Variant,
        alpha and nu agree as the builders set them."""
        successor_rank = predecessor(self.alpha) is not None
        fits = {
            "rows": type(self.nu) is int and self.nu >= 1 and successor_rank,
            "sectors": self.nu is None and successor_rank,
            "limit": self.nu is None and self.alpha.is_limit,
        }
        if not fits.get(self.variant, False):
            raise ValueError(f"variant {self.variant!r} does not fit alpha "
                             f"{format_ordinal(self.alpha)} and nu {self.nu!r}")
        if self.angles.keys() != self.sources.keys():
            raise ValueError("angles and sources must list the same sectors")
        validate_radii(self.radii)
        rows = self.variant == "rows"
        prev = 1
        for i, zero in enumerate(self.zeros, start=1):
            if not prev <= zero.ring <= self.radii.n_max:
                raise ValueError(f"zero {i}: ring {zero.ring} outside "
                                 f"{prev}..{self.radii.n_max}; rings must ascend")
            if zero.log_r != self.radii.log_radius(zero.ring):
                raise ValueError(f"zero {i}: log_r {zero.log_r} is not the log "
                                 f"radius of ring {zero.ring}")
            if not 0 <= zero.turn < 1:
                raise ValueError(f"zero {i}: turn {zero.turn} outside [0, 1)")
            if (zero.sector is None) != rows or (zero.sector or 0) not in self.sources:
                raise ValueError(f"zero {i}: sector {zero.sector} is not a sector "
                                 f"of this {self.variant} schedule")
            prev = zero.ring

    def __len__(self) -> int:
        return len(self.zeros)

    @property
    def n_rings(self) -> int:
        return self.zeros[-1].ring if self.zeros else 0

    def through(self, rows: int) -> int:
        """Count of the zeros in rings <= rows: they are zeros[:through(rows)]."""
        return bisect_right(self.zeros, rows, key=attrgetter("ring"))

    def row_of(self, l: int) -> int:
        """Ring index of the l-th zero (1-based), i.e. the row map."""
        if not 1 <= l <= len(self.zeros):
            raise ValueError(f"zero index {l} outside 1..{len(self.zeros)}")
        return self.zeros[l - 1].ring

    def zeros_in_ring(self, n: int) -> Tuple[Zero, ...]:
        return self.zeros[self.through(n - 1):self.through(n)]

    def ring_sectors(self, n: int) -> set:
        return {z.sector for z in self.zeros_in_ring(n)}

    def source_tree(self, sector: int = 0) -> Optional[RankTree]:
        return self.sources.get(sector)

    def enumeration(self, sector: int = 0) -> Tuple[Fraction, ...]:
        return self.angles.get(sector, ())


def _enumerate_angles(tree: RankTree, needed: int) -> Tuple[Fraction, ...]:
    """The angles a layout takes its zeros from, in one of two orders.

    A finite set, and an infinite one with a leaf within three nested
    clusters, gives the sorted angles of `materialize`, growing the
    expansion until `needed` are available or a finite set is exhausted.
    Any other infinite set, and one whose expansion stops growing before
    `needed`, gives the first `needed` points of `enumerate_points`, by
    address weight.  The shallow sets keep the order of `materialize` until
    they take theirs from `enumerate_points` too, which moves their bytes.
    """
    if materialize(tree, 3, 1):
        per = max(needed, 4)
        best: List[Fraction] = []
        for depth in range(1, _MAT_DEPTH_CAP + 1):
            got = materialize(tree, depth, per)
            if len(got) >= needed:
                return tuple(got)
            if len(got) == len(best) and depth > 2:
                if cardinality(tree) != inf:
                    return tuple(got)  # exhausted: finite set
                break
            best = got
    return tuple(islice(enumerate_points(tree), needed))


def _layout(variant: str, alpha: Ordinal, nu: Optional[int],
            rings: List[Tuple[int, int]], trees: Dict[int, RankTree],
            needed: int) -> ZeroSchedule:
    """Ring i carries the first `count` angles of sector t's set, where
    rings[i - 1] = (t, count); sector 0 is the row layout's one set, and
    its zeros carry no sector."""
    radii = build_radii(max(3, len(rings)))
    angles = {t: _enumerate_angles(tree, needed) for t, tree in trees.items()}
    zeros = tuple(
        Zero(ring, radii.log_radius(ring), turn, t or None)
        for ring, (t, count) in enumerate(rings, start=1)
        for turn in angles[t][:count]
    )
    return ZeroSchedule(variant, alpha, nu, radii, zeros, angles, trees)


def _sector_layout(variant: str, alpha: Ordinal, n_rows: int, make_tree) -> ZeroSchedule:
    """Super-row n holds rings n(n-1)/2 + t for t = 1..n; ring (n, t)
    carries the first n angles of sector t's set make_tree(t)."""
    rings = [(t, n) for n in range(1, n_rows + 1) for t in range(1, n + 1)]
    trees = {t: make_tree(t) for t in range(1, n_rows + 1)}
    return _layout(variant, alpha, None, rings, trees, n_rows)


def build_sector_schedule(alpha: OrdinalLike, n_rows: int) -> ZeroSchedule:
    """Sector layout for a rank parameter with a predecessor: sector t hosts
    E(alpha, t), so pruning its closure alpha-1 times leaves t points.  Each
    radius carries zeros of exactly one sector."""
    alpha = as_ordinal(alpha)
    if predecessor(alpha) is None:
        raise ValueError(
            "limit rank parameter: use build_limit_schedule for limit ordinals"
        )
    if n_rows < 1:
        raise ValueError("n_rows must be >= 1")
    return _sector_layout(
        "sectors", alpha, n_rows, lambda t: build_rank_set(alpha, t, sector_arc(t))
    )


def build_limit_schedule(alpha: OrdinalLike, n_rows: int) -> ZeroSchedule:
    """Limit layout: sector t hosts a set of collapse rank b_t, where
    b_1, b_2, ... is the fixed enumeration of the ordinals below alpha."""
    alpha = as_ordinal(alpha)
    if not alpha.is_limit:
        raise ValueError("successor rank parameter: use build_sector_schedule")
    if n_rows < 1:
        raise ValueError("n_rows must be >= 1")
    betas = enumerate_below(alpha, n_rows)
    return _sector_layout(
        "limit", alpha, n_rows,
        lambda t: build_rank_set(successor(betas[t - 1]), 1, sector_arc(t)),
    )


def build_row_schedule(alpha: OrdinalLike, nu: int, n_max: int) -> ZeroSchedule:
    """Row layout of E(alpha, nu) on the standard arc: ring n carries the
    first n enumerated angles at radius a_n, so the l-th zero of ring n is
    radius a_n times the l-th angle."""
    alpha = as_ordinal(alpha)
    tree = build_rank_set(alpha, nu, standard_arc())
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rings = [(0, n) for n in range(1, n_max + 1)]
    s = _layout("rows", alpha, nu, rings, {0: tree}, n_max)
    got = len(s.enumeration())
    if got < n_max:
        raise ValueError(
            f"row layout needs {n_max} distinct angles but the set materializes "
            f"to {got}"
        )
    return s


# -- convergence exponent ------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    """Certified enclosure of the partial sum of n / a_n^exponent plus a
    strict upper bound on the whole remaining tail.

    Endpoints are directed-rounded mpf values straight from the interval
    arithmetic; converting them to float could underflow a tiny positive
    tail bound to zero, which would no longer be an upper bound.
    """

    partial_low: object
    partial_high: object
    tail_bound: object


def convergence_exponent_check(
    radii: RadiiSequence, exponent: Fraction, n_terms: int
) -> ConvergenceReport:
    """Bound sum(n / a_n^exponent) at 200 bits.  The partial sum is a
    certified interval; the tail uses a_m >= a_anchor * 2^(m - anchor),
    valid because every ratio step of a validated ladder is at least
    e^(7/10) > 2."""
    exponent = Fraction(exponent)
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    validate_radii(radii)
    with _iv_prec(200):
        expo = _iv_fraction(exponent)
        total = iv.mpf(0)
        for n in range(1, n_terms + 1):
            total += iv.mpf(n) * iv.exp(-expo * _iv_fraction(radii.log_radius(n)))
        anchor = n_terms if n_terms >= 1 else 1
        log_anchor = _iv_fraction(radii.log_radius(anchor))
        # tail: sum over m >= 1 of (anchor + m) * (a_anchor * 2^m)^(-exponent),
        # a plain geometric series with ratio 2^(-exponent) < 1
        r = iv.exp(-expo * iv.log(iv.mpf(2)))
        geom = iv.mpf(anchor) * r / (1 - r) + r / (1 - r) ** 2
        tail = iv.exp(-expo * log_anchor) * geom
        if n_terms == 0:
            # no computed terms: the bound covers the full series from n = 1
            tail = tail + iv.mpf(1) * iv.exp(-expo * log_anchor)
        return ConvergenceReport(total.a, total.b, tail.b)


# -- JSON ----------------------------------------------------------------------


def schedule_to_json(s: ZeroSchedule) -> dict:
    return {
        "variant": s.variant,
        "alpha": format_ordinal(s.alpha),
        "nu": s.nu,
        "log_radii": [str(f) for f in s.radii.log_radii],
        "zeros": [
            {
                "row": z.ring,
                "log_r": str(z.log_r),
                "turn": str(z.turn),
                "sector": z.sector,
            }
            for z in s.zeros
        ],
        "angles": {str(k): [str(a) for a in v] for k, v in sorted(s.angles.items())},
        "sources": {str(k): tree_to_json(v) for k, v in sorted(s.sources.items())},
    }


def schedule_from_json(obj: dict) -> ZeroSchedule:
    radii = RadiiSequence(tuple(Fraction(x) for x in obj["log_radii"]))
    zeros = tuple(
        Zero(z["row"], Fraction(z["log_r"]), Fraction(z["turn"]), z["sector"])
        for z in obj["zeros"]
    )
    if not (isinstance(obj["angles"], dict) and isinstance(obj["sources"], dict)):
        raise ValueError("angles and sources must be objects keyed by sector")
    angles = {
        int(k): tuple(Fraction(a) for a in v) for k, v in obj["angles"].items()
    }
    sources = {int(k): tree_from_json(v) for k, v in obj["sources"].items()}
    return ZeroSchedule(
        obj["variant"],
        parse_ordinal(obj["alpha"]),
        obj["nu"],
        radii,
        zeros,
        angles,
        sources,
    )
