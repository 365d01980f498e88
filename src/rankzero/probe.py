"""Certification harness for the dilation families of scheduled products.

A dilation rule turns the radius ladder into integer dilation factors.  The
three stock rules, the classes RatioPlus, GeometricMean and Sector:

* ratio-plus:  j_k = floor(a_k / r + 1), which parks j_k * r just above
  a_k, so the k-th ring of zeros collapses onto the circle of radius r;
* geometric-mean:  j_k = floor(L * sqrt(a_k * a_{k+1})), which leaves every
  ring ratio divergent, so nothing clusters anywhere away from the origin;
* sector:  j_k = floor(a^(k)_t / r + 1) against the sector layout, pinning
  sector t's rings onto radius r.

All dilation factors are exact big integers obtained by certified interval
floors.  Clustering certificates measure the exact distance from a target
point to the nearest scheduled zero of the dilated function; for ratio-plus
and sector rules the distance also has the exact rational majorant r/j_k.
Classification and certificates feed an order report that attaches the
symbolic rank profile of the claimed set of convergence failures;
those rank facts come straight from the tree descriptors and are
independent of every floating-point computation here.

The nearest-zero search and the condition-(M) sweep screen, then certify,
through evaluator._screened: the search with a float lower bound on each
zero's log distance, the sweep with a float upper bound on the log of the
spherical derivative.  Either way the result is the one the exhaustive
loop returns.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar, List, Optional, Sequence, Tuple, Union

from mpmath import iv, mp

from .evaluator import (
    _EPS,
    _GUARD,
    LogPolar,
    _distance_log_bounds,
    _kept,
    _mpf_fraction,
    _screened,
    _spherical_log_bound,
    _tail_hypothesis,
    _zero_constants,
    default_precision,
    spherical_derivative,
)
from .ordinal import ONE, ZERO, successor
from .pointset import RankProfile, _pieces, rank_of, rank_profile
from .schedule import RadiiSequence, ZeroSchedule, _iv_fraction, _iv_prec, triangular

__all__ = [
    "RatioPlus",
    "GeometricMean",
    "Sector",
    "Classification",
    "Certificate",
    "SweepRow",
    "ProbeReport",
    "dilation_factor",
    "dilation_factors",
    "classify",
    "non_c0_certificate",
    "condition_m_sweep",
    "order_report",
    "InconclusiveProbe",
]


class InconclusiveProbe(RuntimeError):
    """A probe whose certificates failed; reports carry the details."""


def _check_r(r: Fraction, name: str) -> Fraction:
    r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError(f"{name} needs 0 < r < 1")
    return r


@dataclass(frozen=True)
class RatioPlus:
    """j_k = floor(a_k / r + 1)."""

    r: Fraction
    sector: ClassVar[int] = 0
    pins_rings: ClassVar[bool] = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _check_r(self.r, "ratio-plus"))

    def radius_index(self, k: int) -> int:
        """Global ring index whose radius drives j_k."""
        return k

    def k_cap(self, schedule: ZeroSchedule) -> int:
        return schedule.n_rings

    def describe(self) -> str:
        return f"ratio-plus:r={self.r}"

    def factor(self, radii: RadiiSequence, k: int) -> int:
        return _floor_over_r(radii.log_radius(k), self.r)


@dataclass(frozen=True)
class GeometricMean:
    """j_k = floor(L * sqrt(a_k * a_{k+1}))."""

    L: Fraction
    r: ClassVar[Fraction] = Fraction(1, 2)
    sector: ClassVar[int] = 0
    pins_rings: ClassVar[bool] = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "L", Fraction(self.L))
        if self.L <= 0:
            raise ValueError("geometric-mean needs L > 0")

    def k_cap(self, schedule: ZeroSchedule) -> int:
        return schedule.n_rings

    def describe(self) -> str:
        return f"geometric-mean:L={self.L}"

    def factor(self, radii: RadiiSequence, k: int) -> int:
        half = (radii.log_radius(k) + radii.log_radius(k + 1)) / 2
        prec = max(default_precision() + _GUARD, _magnitude_bits(half))
        return _certified_floor(
            lambda: _iv_fraction(self.L) * iv.exp(_iv_fraction(half)), prec
        )


@dataclass(frozen=True)
class Sector:
    """j_k = floor(a^(k)_t / r + 1), with a^(k)_t the radius of ring
    (k, t) of the sector layout."""

    r: Fraction
    t: int
    pins_rings: ClassVar[bool] = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _check_r(self.r, "sector rule"))
        if self.t < 1:
            raise ValueError("sector index must be >= 1")

    @property
    def sector(self) -> int:
        return self.t

    def radius_index(self, k: int) -> int:
        if k < self.t:
            raise ValueError(f"sector rule needs k >= t = {self.t}")
        return triangular(k - 1) + self.t

    def k_cap(self, schedule: ZeroSchedule) -> int:
        # the last complete super-row n satisfies n(n+1)/2 <= n_rings
        n = 1
        while triangular(n + 1) <= schedule.n_rings:
            n += 1
        return n

    def describe(self) -> str:
        return f"sector:r={self.r},t={self.t}"

    def factor(self, radii: RadiiSequence, k: int) -> int:
        return _floor_over_r(radii.log_radius(self.radius_index(k)), self.r)


# Every rule has r (the target radius of its certificates; geometric-mean
# rules certify at 1/2), sector (0 outside the sector layout), pins_rings
# (whether j_k * r lands just above a ring radius, pinning that ring's zeros
# onto radius r), k_cap(schedule), describe() and factor(radii, k).  The
# rules that pin rings also have radius_index(k), the pinned ring.
DilationRule = Union[RatioPlus, GeometricMean, Sector]


def _certified_floor(expr, start_prec: int) -> int:
    """floor of expr() evaluated in interval arithmetic, escalating the
    precision until both endpoints agree.

    The endpoint floors must also be taken at the escalated precision: at
    the ambient default they would be rounded to 53 bits, which silently
    corrupts values past 2^53.
    """
    prec = start_prec
    for _ in range(8):
        with _iv_prec(prec):
            x = expr()
            with mp.workprec(prec + 20):
                lo, hi = int(mp.floor(x.a)), int(mp.floor(x.b))
        if lo == hi:
            return lo
        prec *= 2
    raise ArithmeticError(f"floor undecidable below {prec} bits")


def _magnitude_bits(log_value: Fraction) -> int:
    """Bits needed for the integer part of e^log_value, with headroom."""
    return max(0, int(log_value * 1.4427)) + 80


def _floor_over_r(log_radius: Fraction, r: Fraction) -> int:
    """floor(e^log_radius / r + 1), which puts j * r just above the radius."""
    prec = max(default_precision() + _GUARD, _magnitude_bits(log_radius))
    return _certified_floor(
        lambda: iv.exp(_iv_fraction(log_radius)) / _iv_fraction(r) + 1, prec
    )


def dilation_factor(rule: DilationRule, radii: RadiiSequence, k: int) -> int:
    """Exact j_k for the rule (arbitrary-precision integer), computed once
    per rule, ladder and k.  ValueError unless j_k >= 1: f(0 z) is not a
    member of the family {f(nz) : n >= 1}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    j = _dilation_factor(rule, radii, k)
    if j < 1:
        raise ValueError(f"{rule.describe()} gives j_{k} = {j}; "
                         "dilation factors must be >= 1")
    return j


@lru_cache(maxsize=None)
def _dilation_factor(rule: DilationRule, radii: RadiiSequence, k: int) -> int:
    # exact, so independent of the working precision _certified_floor
    # starts from
    return rule.factor(radii, k)


def dilation_factors(rule: DilationRule, radii: RadiiSequence,
                     k_range: Sequence[int]) -> List[Tuple[int, int]]:
    out = []
    prev = None
    for k in k_range:
        j = dilation_factor(rule, radii, k)
        if prev is not None and j <= prev:
            raise ValueError(f"dilation factors not strictly increasing at k={k}")
        out.append((k, j))
        prev = j
    return out


# -- dichotomy classification ---------------------------------------------------


@dataclass(frozen=True)
class Classification:
    branch: str  # "toward-lower" | "toward-upper" | "neither"
    trail: Tuple[Tuple[int, Optional[float], float], ...]  # (k, lower gap, upper gap)


def classify(rule: DilationRule, radii: RadiiSequence,
             k_range: Sequence[int]) -> Classification:
    """Which side of the radius ladder j_k * r collapses onto, with r the
    rule's certificate radius rule.r.

    The lower gap is log(j_k * r) - log a_n with n the largest index
    whose radius does not exceed j_k * r; the upper gap is the distance
    to the next radius.  Below a_1 there is no lower gap (None) and the
    upper gap runs to a_1.  One gap shrinking to zero monotonically marks
    the branch; anything else is neither (both gaps diverge for the
    geometric-mean rule).
    """
    r = rule.r
    xs = []
    # the lower gap shrinks like 1/j, so resolving it takes precision past
    # the bit length of j itself
    for k, j in dilation_factors(rule, radii, k_range):
        with mp.workprec(max(default_precision(), j.bit_length() + 120)):
            log_r = mp.log(mp.mpf(r.numerator)) - mp.log(mp.mpf(r.denominator))
            xs.append(mp.log(mp.mpf(j)) + log_r)
    return _branch(radii, k_range, xs)


def _branch(radii: RadiiSequence, k_range: Sequence[int], xs: List) -> Classification:
    """Gaps from each log modulus in xs (mpf) to the radii around it, and
    the branch they mark."""
    trail = []
    lows, highs = [], []
    for k, x in zip(k_range, xs):
        n = 0  # the largest index with a_n <= x, 0 below a_1
        while _mpf_fraction(radii.log_radius(n + 1)) <= x:
            n += 1
        with mp.workprec(mp.prec + 2 * _magnitude_bits(radii.log_radius(n + 1))):
            gl = x - _mpf_fraction(radii.log_radius(n)) if n else None
            gu = _mpf_fraction(radii.log_radius(n + 1)) - x
        lows.append(gl)
        highs.append(gu)
        trail.append((k, None if gl is None else float(gl), float(gu)))
    branch = "neither"
    if _shrinks(lows):
        branch = "toward-lower"
    elif _shrinks(highs):
        branch = "toward-upper"
    return Classification(branch, tuple(trail))


def _shrinks(gaps: List) -> bool:
    if any(g is None or g < 0 for g in gaps):
        return False
    nonincreasing = all(b <= a for a, b in zip(gaps, gaps[1:]))
    return nonincreasing and (gaps[-1] == 0 or gaps[-1] < gaps[0])


# -- clustering certificates ----------------------------------------------------


@dataclass(frozen=True)
class CertificateEntry:
    k: int
    j: int
    dist_low: object  # mpf endpoints of the certified distance interval;
    dist_high: object  # floats would underflow far before e^-2584
    rational_bound: Optional[Fraction]  # r/j_k when the rule guarantees it


@dataclass(frozen=True)
class Certificate:
    target_turn: Optional[Fraction]  # None marks the origin
    entries: Tuple[CertificateEntry, ...]
    passed: bool
    reason: str


def _target(cert: Certificate) -> str:
    return "origin" if cert.target_turn is None else str(cert.target_turn)


def _zero_distance(schedule: ZeroSchedule, j: int, r: Fraction,
                   turn: Fraction) -> Tuple[object, object]:
    """Certified interval of min |b/j - r e^(2 pi i turn)| over all
    scheduled zeros b: the interval with the least upper end, the first
    such in schedule order.

    Screened (evaluator._screened) on the log of the upper end with
    _distance_log_bounds: a skipped zero's distance, and so its upper end,
    is above the least upper end, so it can neither win nor tie.
    """
    point = _iv_fraction(r) * _cis(turn)
    found = {}
    zeros = _kept(schedule, ("iv", iv.prec), dict)  # filled as the screen asks

    def certify(i):
        if i not in zeros:
            b = schedule.zeros[i]
            zeros[i] = iv.exp(_iv_fraction(b.log_r)) * _cis(b.turn)
        found[i] = _cnorm(zeros[i] / iv.mpf(j) - point)
        return float(mp.log(found[i].b))

    _screened(_distance_log_bounds(schedule, j, r, turn), certify)
    best = found[min(sorted(found), key=lambda i: found[i].b)]
    return best.a, best.b


def _cis(turn: Fraction):
    two_pi = 2 * iv.pi
    ang = two_pi * _iv_fraction(turn)
    return iv.mpc(iv.cos(ang), iv.sin(ang))


def _cnorm(c):
    return iv.sqrt(c.real**2 + c.imag**2)


def non_c0_certificate(
    schedule: ZeroSchedule,
    rule: DilationRule,
    target_turn: Optional[Fraction],
    delta: Fraction,
    k_range: Sequence[int],
    strict: bool = True,
) -> Certificate:
    """Zero-clustering certificate at the point r * e^(2 pi i target).

    Passes when the certified distance from the target to the nearest
    dilated zero decreases strictly across k_range and finishes below
    r * delta.  target_turn None certifies clustering at the origin, where
    the distance is simply the smallest dilated zero modulus.  With strict
    set, a target outside the source enumeration is rejected; otherwise it
    produces a (failing) certificate, which is how off-set immunity is
    demonstrated.

    The nearest zero is screened (_zero_distance), so the entries are
    those of an exhaustive search.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not schedule.zeros:
        raise ValueError("the schedule has no zeros to certify clustering of")
    r = rule.r
    if target_turn is not None:
        target_turn = Fraction(target_turn) % 1
        if strict and not any(target_turn in angs for angs in schedule.angles.values()):
            raise ValueError(
                f"target turn {target_turn} is not an enumerated source angle"
            )
    entries: List[CertificateEntry] = []
    for k, j in dilation_factors(rule, schedule.radii, k_range):
        # distances shrink like 1/j, so the interval resolution must scale
        # with the bit length of j
        with _iv_prec(max(default_precision() + _GUARD, j.bit_length() + 160)):
            if target_turn is None:
                # rings ascend, so the first zero is a smallest one
                d = iv.exp(_iv_fraction(schedule.zeros[0].log_r)) / iv.mpf(j)
                dl, dh = mp.mpf(d.a), mp.mpf(d.b)
                bound = None
            else:
                dl, dh = _zero_distance(schedule, j, r, target_turn)
                dl, dh = mp.mpf(dl), mp.mpf(dh)
                bound = None
                if rule.pins_rings:
                    ring = rule.radius_index(k)
                    ring_angles = {z.turn for z in schedule.zeros_in_ring(ring)}
                    if target_turn in ring_angles:
                        bound = Fraction(r, j)
            entries.append(CertificateEntry(k, j, dl, dh, bound))
    decreasing = all(b.dist_high < a.dist_low for a, b in zip(entries, entries[1:]))
    threshold = r * delta
    final_ok = bool(entries) and bool(
        entries[-1].dist_high * threshold.denominator < threshold.numerator
    )
    passed = bool(entries) and decreasing and final_ok
    if passed:
        reason = "distances decrease strictly and finish below r*delta"
    elif not decreasing:
        reason = "distances do not decrease monotonically"
    else:
        reason = "final distance not below r*delta"
    return Certificate(target_turn, tuple(entries), passed, reason)


# -- condition (M) sweep ---------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    n: int
    point_index: int
    max_spherical: object
    valid: bool


@dataclass(frozen=True)
class _GridPoint:
    """Point m of ring k of a sweep mesh, center + (k/3) radius e^(2 pi i m/8k),
    for the screen: float log_mag and phase within err of full()'s."""

    log_mag: float
    phase: float
    err: float
    center: object
    radius: object
    k: int
    m: int
    exact: ClassVar[None] = None

    def full(self) -> LogPolar:
        point = self.center
        if self.k:
            ang = 2 * mp.pi * self.m / (8 * self.k)
            point += self.radius * mp.mpf(self.k) / 3 * mp.exp(mp.mpc(0, 1) * ang)
        return LogPolar.from_complex(point)


def _grid_point(center, radius, k: int, m: int) -> _GridPoint:
    # With u = 2^-53, complex(center) is within u|c|, rho within 3u rho and
    # e^(i ang) within 19u + 3u (angle, cos, sin) of their full-precision
    # values; the product and sum round once: p is within D = 32u(|c| + rho)
    # of the point P (whose own rounding the constant absorbs).  With d =
    # D/|p| <= 1/4, |P - p| <= (4d/3)|P|, so log|P| and arg P are within
    # -log(1 - 4d/3) <= 2d and asin(4d/3) < 3d of log|p| and arg p, and log
    # and phase add 2u(|log|p|| + 8).  Past d = 1/4 no bound is stated.
    c, rho = complex(center), float(radius) * k / 3
    p = c + rho * cmath.exp(1j * (2 * math.pi * m / (8 * k))) if k else c
    d = 32 * _EPS * (abs(c) + rho) / abs(p) if p else math.inf
    if not d <= 0.25:
        return _GridPoint(-math.inf, 0.0, math.inf, center, radius, k, m)
    lm = math.log(abs(p))
    return _GridPoint(lm, cmath.phase(p), 3 * d + 2 * _EPS * (abs(lm) + 8), center, radius, k, m)


def _mesh(schedule: ZeroSchedule, j: int, turn: Fraction, modulus: Fraction, radius):
    """Deterministic mesh of the disk of the given radius around
    modulus * e^(2 pi i turn): the center and three rings of 8k points as
    _GridPoints, and the preimages b/j of every scheduled zero b landing
    inside the disk as LogPolars with exact tags, so a zero hit is
    recognized exactly and the spike of the spherical derivative cannot be
    missed.

    A zero whose float bound _distance_log_bounds exceeds the log of the
    radius lies outside; mp decides |b/j - center| <= radius for the rest.
    """
    center = _mpf_fraction(modulus) * mp.exp(mp.mpc(0, 2 * mp.pi * _mpf_fraction(turn)))
    pts = [_grid_point(center, radius, k, m) for k in range(4) for m in range(8 * k or 1)]
    log_radius = math.log(float(radius))
    log_j = mp.log(mp.mpf(j))
    for i, bound in enumerate(_distance_log_bounds(schedule, j, modulus, turn)):
        if bound <= log_radius:
            log_b, angle = _zero_constants(schedule)[i]
            if abs(mp.exp(mp.mpc(mp.make_mpf(log_b) - log_j, angle)) - center) <= radius:
                zero = schedule.zeros[i]
                pts.append(LogPolar.from_exact(zero.log_r, zero.turn, den=j))
    return pts


def condition_m_sweep(
    schedule: ZeroSchedule,
    points: Sequence[Tuple[Fraction, Fraction]],
    rule: DilationRule,
    n_range: Sequence[int],
) -> List[SweepRow]:
    """Sample the dilated family's spherical derivative on closed disks of
    radius 1/n around each point (given as (turn, modulus) pairs).

    Row (n, i) reports max over the mesh of j_n * f#(j_n z), the spherical
    derivative of the n-th family member.  The Marty-style surrogate at
    level n holds when every point with index at most n exceeds n.

    Screened (evaluator._screened) on -log(j_n * f#(j_n z)) with the
    negated _spherical_log_bound, which is finite at exact zero preimages,
    where j_n f# = j_n |f'|, and +inf wherever floats cannot decide: every
    skipped point is below the maximum, so each row's maximum is the number
    an exhaustive sweep returns.
    """
    out: List[SweepRow] = []
    with mp.workprec(default_precision() + _GUARD):
        for n in n_range:
            j = dilation_factor(rule, schedule.radii, n)
            radius = mp.mpf(1) / n
            for i, (turn, modulus) in enumerate(points, start=1):
                turn, modulus = Fraction(turn), Fraction(modulus)
                # j times the largest modulus in the disk
                valid = _tail_hypothesis(schedule, mp.log(j * (_mpf_fraction(modulus) + radius)))
                mesh = _mesh(schedule, j, turn, modulus, radius)
                sds = {}

                def certify(k):
                    z = mesh[k].full() if isinstance(mesh[k], _GridPoint) else mesh[k]
                    sds[k] = mp.mpf(j) * spherical_derivative(schedule, j, z)
                    return -mp.log(sds[k])

                _screened([-_spherical_log_bound(schedule, j, z) for z in mesh], certify)
                out.append(SweepRow(n, i, max(sds.values()), bool(valid)))
    return out


# -- order report ----------------------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    rule_description: str
    branch: str
    certificates: Tuple[Certificate, ...]
    claimed: str
    rank_conclusion: RankProfile

    @property
    def failing_targets(self) -> Tuple[str, ...]:
        return tuple(_target(c) for c in self.certificates if not c.passed)

    @property
    def inconclusive(self) -> bool:
        return bool(self.failing_targets)

    def as_dict(self) -> dict:
        return {
            "rule": self.rule_description,
            "branch": self.branch,
            "claimed": self.claimed,
            "rank_profile": self.rank_conclusion.as_dict(),
            "inconclusive": self.inconclusive,
            "failing_targets": list(self.failing_targets),
            "certificates": [
                {
                    "target": _target(c),
                    "passed": c.passed,
                    "reason": c.reason,
                    "entries": [
                        {
                            "k": e.k,
                            "j": str(e.j),
                            "dist_low": mp.nstr(e.dist_low, 12),
                            "dist_high": mp.nstr(e.dist_high, 12),
                            "rational_bound": (
                                str(e.rational_bound) if e.rational_bound else None
                            ),
                        }
                        for e in c.entries
                    ],
                }
                for c in self.certificates
            ],
        }


def order_report(
    schedule: ZeroSchedule,
    rule: DilationRule,
    depth: int = 3,
    k_range: Optional[Sequence[int]] = None,
) -> ProbeReport:
    """Assemble certificates plus the exact symbolic rank profile of the
    claimed set of convergence failures.

    Ratio-plus rules claim the origin together with r times the closure of
    the source set; sector rules restrict to their sector; geometric-mean
    rules claim the origin alone.  Certificates cover the origin and the
    first `depth` enumerated angles at delta = 1/100, so a certificate
    passes when its last distance is below r/100; any failure marks the
    report inconclusive and lists the failing targets.  The k range runs
    up to rule.k_cap(schedule), by default over its last five indices.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, not {depth}")
    sector = rule.sector
    tree = schedule.source_tree(sector)
    if rule.pins_rings and tree is None:
        raise ValueError(f"{rule.describe()} claims sector {sector}, "
                         "which has no source set in this schedule")
    cap = rule.k_cap(schedule)
    if k_range is None:
        lo = max(depth + 1, cap - 4, sector)  # sector rules need k >= t
        k_range = range(lo, cap + 1)
    if not k_range:
        raise ValueError("no dilation index to probe: the schedule is too small "
                         "for the depth, or the k range is empty")
    # past the cap j_k needs the radii continued beyond the ladder, whose
    # bit lengths grow like Fibonacci numbers; a schedule without zeros is
    # refused by the certificates instead
    if schedule.zeros and max(k_range) > cap:
        raise ValueError(f"k = {max(k_range)} is past the last index this schedule "
                         f"supports for {rule.describe()}: k <= {cap}")

    delta = Fraction(1, 100)
    certs: List[Certificate] = [
        non_c0_certificate(schedule, rule, None, delta, k_range)
    ]
    if rule.pins_rings:
        for turn in schedule.enumeration(sector)[:depth]:
            certs.append(non_c0_certificate(schedule, rule, turn, delta, k_range))

    branch = classify(rule, schedule.radii, k_range)

    if not rule.pins_rings:
        claimed = "{0}"
        profile = RankProfile(((ZERO, 1), (ONE, 0)))
    else:
        label = "closure of the source set" if sector == 0 else f"closure of sector {sector}"
        claimed = f"{{0}} union {rule.r} * {label}"
        # stages 0 and 1, the largest collapse rank among the pieces (each
        # piece of that rank is down to one point) and the stage after it
        top = max(rank_of(piece) for piece in _pieces(tree))
        profile = rank_profile(tree, (ZERO, ONE, top, successor(top)), extra_isolated=1)

    return ProbeReport(rule.describe(), branch.branch, tuple(certs), claimed, profile)
