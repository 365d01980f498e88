"""Certified log-domain evaluation of the scheduled infinite products.

The products have zeros at moduli e^1, e^2, e^3, e^5, e^8, ..., so values
and arguments routinely live at moduli far beyond hardware floats.  Complex
numbers are therefore carried as (log of modulus, phase); the only kernel
that ever matters is log(1 - e^s) for a complex s, which is evaluated on
three documented branches:

* Re s >= +40:  1 - e^s = -e^s (1 - e^-s); the tiny correction is kept,
* Re s <= -40:  direct log(1 - e^s), no cancellation possible,
* otherwise:    direct evaluation, switching to an expm1-based path when
  1 - e^s suffers cancellation (|1 - e^s| < 1/2).

The truncation tail of a product evaluation is certified: with q_j the
ratio of |z| to the j-th radius, the dropped rings j contribute at most
sum of j * q_j / (1 - q_j), a convergent majorant whenever |z| does not
exceed the radius two rings below the truncation.

No certified tail is claimed for the logarithmic derivative; its consumers
only use self-consistency and monotone comparisons.

Only log_eval and family_eval truncate, to their rows_used argument; every
other entry point reads all the rings of the schedule it is given, so a
caller that wants fewer rings passes a shorter schedule.

Four searches screen, then certify: a float pass bounds every candidate,
and _screened evaluates at full precision only where that can decide the
result, so only full-precision values are reported.  _screened visits the
candidates in ascending order of a float lower bound, stops once the next
bound exceeds the least value so far, and raises ArithmeticError if a
value it computes crosses its bound.  The candidates it skips are never
evaluated, so skipping them rests on one assumption: float rounding stays
far below the screen's slack (_SCREEN_SLACK, 1e-6 in log units, added to
first-order rounding bounds).  The four searches are family_floor and
sector_divergence (bounded by _floor_log_bound), and the probe layer's
nearest-zero search (_distance_log_bounds) and condition-(M) sweep
(_spherical_log_bound); all four bounds live in this module.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from mpmath import iv, mp

from .pointset import _hull, _pieces
from .schedule import Zero, ZeroSchedule, _iv_fraction, _iv_prec

__all__ = [
    "LogPolar",
    "EvalResult",
    "SectorBoundReport",
    "SectorDivergence",
    "default_precision",
    "log_eval",
    "family_eval",
    "family_floor",
    "log_derivative",
    "spherical_derivative",
    "sector_bound_check",
    "sector_divergence",
    "small_product_constant",
]

_GUARD = 30
_SCOPED_BITS: ContextVar[int] = ContextVar("rankzero_bits", default=200)


def default_precision() -> int:
    """Working precision in bits: the innermost precision_scope, else 200;
    never below 64."""
    return max(64, _SCOPED_BITS.get())


@contextmanager
def precision_scope(bits: int):
    """Make default_precision() start from `bits` inside the block only."""
    token = _SCOPED_BITS.set(bits)
    try:
        yield
    finally:
        _SCOPED_BITS.reset(token)


def _mpf_fraction(f: Fraction):
    """A rational as an mpf at the working precision.  Numerator and
    denominator are rounded separately; artifact digests depend on it."""
    return mp.mpf(f.numerator) / mp.mpf(f.denominator)


@dataclass(frozen=True)
class ExactScale:
    """Exact modulus e^log_rat * scale with an exact turn angle; lets a
    dilated sample land on a scheduled zero and be recognized exactly."""

    log_rat: Fraction
    scale: Fraction
    turn: Fraction

    def hits(self, zero: Zero) -> bool:
        return (
            self.scale == 1
            and self.log_rat == zero.log_r
            and (self.turn - zero.turn) % 1 == 0
        )


@dataclass(frozen=True)
class LogPolar:
    """A complex value as (natural log of modulus, phase in (-pi, pi]).

    log_mag is -inf exactly when the value is zero.  The optional exact tag
    preserves rational provenance through dilations.
    """

    log_mag: object
    phase: object
    exact: Optional[ExactScale] = None

    @staticmethod
    def origin() -> "LogPolar":
        return LogPolar(mp.ninf, mp.mpf(0))

    @staticmethod
    def from_exact(log_rat: Fraction, turn: Fraction, den: int = 1) -> "LogPolar":
        """e^log_rat / den at the exact turn angle."""
        log_rat, turn = Fraction(log_rat), Fraction(turn) % 1
        if den < 1:
            raise ValueError("den must be positive")
        with mp.workprec(default_precision() + _GUARD):
            lm = _mpf_fraction(log_rat) - mp.log(den)
            ph = _norm_phase(2 * mp.pi * _mpf_fraction(turn))
        return LogPolar(lm, ph, ExactScale(log_rat, Fraction(1, den), turn))

    @staticmethod
    def from_complex(value) -> "LogPolar":
        value = mp.mpc(value)
        if value == 0:
            return LogPolar.origin()
        return LogPolar(mp.log(abs(value)), mp.arg(value))

    @property
    def is_zero(self) -> bool:
        return self.log_mag == mp.ninf

    def to_complex(self):
        if self.is_zero:
            return mp.mpc(0)
        return mp.exp(mp.mpc(self.log_mag, self.phase))

    def scaled_by_int(self, j: int) -> "LogPolar":
        if j < 1:
            raise ValueError("dilation factors are positive integers")
        if self.is_zero:
            return self
        lm = self.log_mag + mp.log(mp.mpf(j))
        exact = replace(self.exact, scale=self.exact.scale * j) if self.exact else None
        return LogPolar(lm, self.phase, exact)


def _norm_phase(x):
    two_pi = 2 * mp.pi
    x = mp.fmod(x, two_pi)
    if x > mp.pi:
        x -= two_pi
    elif x <= -mp.pi:
        x += two_pi
    return x


# -- the kernel ---------------------------------------------------------------

_BRANCH = 40


def _log_one_minus_exp(s) -> Tuple[object, object]:
    """(log|1 - e^s|, arg(1 - e^s)); (-inf, 0) when e^s is exactly 1."""
    re = mp.re(s)
    if re >= _BRANCH:
        # 1 - e^s = -e^s (1 - e^-s); e^-s is tiny but its effect is kept
        u = mp.exp(-s)
        rest = mp.log(1 - u)
        mag = re + mp.re(rest)
        ph = _norm_phase(mp.pi + mp.im(s) + mp.im(rest))
        return mag, ph
    if re <= -_BRANCH:
        v = mp.log(1 - mp.exp(s))
        return mp.re(v), _norm_phase(mp.im(v))
    w = mp.exp(s)
    d = 1 - w
    if d == 0:
        return mp.ninf, mp.mpf(0)
    if abs(d) < mp.mpf(1) / 2:
        d = -mp.expm1(s)  # cancellation zone: expm1 keeps full precision
        if d == 0:
            return mp.ninf, mp.mpf(0)
    return mp.log(abs(d)), mp.arg(d)


@dataclass(frozen=True)
class EvalResult:
    """Truncated product value with a certified bound on the dropped tail."""

    value: LogPolar
    tail_log_bound: object
    valid: bool

    @property
    def floor(self):
        """log|f_truncated| minus the tail bound, at the precision of the
        reader: a lower bound on log|f| up to the rounding of the main sum."""
        return self.value.log_mag - self.tail_log_bound


def _rows(schedule: ZeroSchedule, rows_used: Optional[int]) -> int:
    """The truncation depth in rings: all of them by default."""
    if rows_used is None:
        return schedule.n_rings
    if not 0 <= rows_used <= schedule.n_rings:
        raise ValueError(f"rows_used {rows_used} outside 0..{schedule.n_rings}")
    return rows_used


def _hit(schedule: ZeroSchedule, z: LogPolar, end: int) -> Optional[int]:
    """The index of the zero among schedule.zeros[:end] that z is exactly,
    if any."""
    if z.exact is None:
        return None
    return next(
        (i for i, zero in enumerate(schedule.zeros[:end]) if z.exact.hits(zero)), None
    )


def _tail_hypothesis(schedule: ZeroSchedule, log_mag, rows: int) -> bool:
    """Whether |z| = e^log_mag is at most the radius two rings below the
    truncation, where _tail_bound holds."""
    return rows >= 3 and log_mag <= _mpf_fraction(schedule.radii.log_radius(rows - 2))


def _zero_constants(schedule: ZeroSchedule) -> Tuple[Tuple[object, object], ...]:
    """(log a_ring, 2 pi turn) as mpf per zero, aligned with schedule.zeros.

    Built once per schedule and working precision; the values are the ones
    the kernels would compute inline, so results are bit-identical.
    """
    key = mp.prec
    table = schedule.tables.get(key)
    if table is None:
        table = tuple(
            (_mpf_fraction(zero.log_r), 2 * mp.pi * _mpf_fraction(zero.turn))
            for zero in schedule.zeros
        )
        schedule.tables[key] = table
    return table


def _tail_bound(schedule: ZeroSchedule, log_mag, rows_used: int):
    """Strict majorant of |log f - log f_truncated| at modulus e^log_mag.

    Ring j holds at most j zeros, each factor obeys
    |log(1 - w)| <= |w| / (1 - |w|), and the ring ratios q_j collapse
    superexponentially, so the series is summed until it is negligible and
    the rest is closed off geometrically.
    """
    if log_mag == mp.ninf:
        return mp.mpf(0)
    with _iv_prec(mp.prec + _GUARD):
        x = iv.mpf(log_mag)
        total = iv.mpf(0)
        j = rows_used + 1
        last_term = None
        for _ in range(400):
            q = iv.exp(x - _iv_fraction(schedule.radii.log_radius(j)))
            if q.b >= 1:
                raise ArithmeticError("tail hypothesis violated in bound computation")
            term = iv.mpf(j) * q / (1 - q)
            total += term
            last_term = term
            if term.b < mp.mpf(2) ** (-mp.prec - 10):
                break
            j += 1
        else:  # pragma: no cover
            raise ArithmeticError("tail bound did not converge")
        # remaining terms decay at least geometrically with ratio 2/e
        ratio = iv.mpf(2) / iv.exp(iv.mpf(1))
        total += last_term * ratio / (1 - ratio)
        return mp.mpf(total.b)


def _log_product(table, log_mag, phase):
    """(sum of log|1 - z/b|, sum of arg(1 - z/b)) over the zeros b of table,
    pairs (log|b|, arg b) as _zero_constants gives them, at
    z = e^(log_mag + i phase), summed in table order; (-inf, 0) as soon as
    a factor vanishes."""
    mag = mp.mpf(0)
    ph = mp.mpf(0)
    for log_r, angle in table:
        m, p = _log_one_minus_exp(mp.mpc(log_mag - log_r, _norm_phase(phase - angle)))
        if m == mp.ninf:
            return mp.ninf, mp.mpf(0)
        mag += m
        ph += p
    return mag, ph


def log_eval(schedule: ZeroSchedule, z: LogPolar, rows_used: Optional[int] = None) -> EvalResult:
    """Product of (1 - z/b) over the zeros b of the first rows_used rings.

    The certified tail hypothesis requires |z| at most the radius two rings
    below the truncation; outside it the value is still returned with
    valid=False.  An exact hit on a scheduled zero gives log_mag = -inf.
    """
    rows = _rows(schedule, rows_used)
    end = schedule.through(rows)
    with mp.workprec(default_precision() + _GUARD):
        if z.is_zero:
            return EvalResult(LogPolar(mp.mpf(0), mp.mpf(0)), mp.mpf(0), True)
        if _hit(schedule, z, end) is not None:
            return EvalResult(LogPolar.origin(), mp.mpf(0), True)
        mag, ph = _log_product(_zero_constants(schedule)[:end], z.log_mag, z.phase)
        if mag == mp.ninf:
            return EvalResult(LogPolar.origin(), mp.mpf(0), True)
        valid = _tail_hypothesis(schedule, z.log_mag, rows)
        tail = _tail_bound(schedule, z.log_mag, rows) if valid else mp.inf
        return EvalResult(LogPolar(mag, _norm_phase(ph)), tail, valid)


def family_eval(
    schedule: ZeroSchedule, j: int, z: LogPolar, rows_used: Optional[int] = None
) -> EvalResult:
    """Evaluate the j-th dilation: the product at j*z."""
    with mp.workprec(default_precision() + _GUARD):
        return log_eval(schedule, z.scaled_by_int(j), rows_used)


def log_derivative(schedule: ZeroSchedule, z: LogPolar) -> LogPolar:
    """Truncated logarithmic derivative: sum of 1/(z - b) over the scheduled
    zeros.  Carries no certified tail; use it only for self-consistency and
    monotone comparisons."""
    with mp.workprec(default_precision() + _GUARD):
        if _hit(schedule, z, len(schedule)) is not None:
            raise ValueError("logarithmic derivative has a pole at a scheduled zero")
        zc = z.to_complex()
        total = mp.mpc(0)
        for log_r, angle in _zero_constants(schedule):
            total += 1 / (zc - mp.exp(mp.mpc(log_r, angle)))
        return LogPolar.from_complex(total)


def _derivative_at_zero(schedule: ZeroSchedule, hit: int):
    """log |f'(b)| at the scheduled zero b = schedule.zeros[hit]: the product
    over every other entry of schedule.zeros of |1 - b/b'|, divided by |b|;
    -inf when b is listed twice, a double zero."""
    table = _zero_constants(schedule)
    log_b, angle_b = table[hit]
    mag, _ = _log_product(table[:hit] + table[hit + 1:], log_b, angle_b)
    return mag - log_b


def spherical_derivative(schedule: ZeroSchedule, j: int, z: LogPolar) -> object:
    """|f'(w)| / (1 + |f(w)|^2) at w = j*z, in overflow-safe log arithmetic.

    At a scheduled zero this is |f'(w)| exactly.  The dilation chain factor
    j belongs to the family member, not to this quantity; sweeps that need
    the family's derivative multiply by j themselves.
    """
    with mp.workprec(default_precision() + _GUARD):
        w = z.scaled_by_int(j) if j != 1 else z
        hit = _hit(schedule, w, len(schedule))
        if hit is not None:
            return mp.exp(_derivative_at_zero(schedule, hit))
        fv = log_eval(schedule, w)
        if fv.value.is_zero:  # numeric zero without exact tag
            return mp.inf
        lf = fv.value.log_mag
        ld = log_derivative(schedule, w)
        if ld.is_zero:
            return mp.mpf(0)
        log_fprime = ld.log_mag + lf
        two_lf = 2 * lf
        if two_lf > 0:
            log_denom = two_lf + mp.log1p(mp.exp(-two_lf))
        else:
            log_denom = mp.log1p(mp.exp(two_lf))
        return mp.exp(log_fprime - log_denom)


# -- float screens ------------------------------------------------------------

_EPS = 2.0**-53
# added to every screen bound on top of its running rounding bounds, which
# are first order; the terms they drop are smaller by many orders
_SCREEN_SLACK = 1e-6
# relative error at which a float factor e^s - 1 counts as rounding noise
_NOISE = 1e-3


def _float_constants(schedule: ZeroSchedule) -> Tuple[Tuple[float, float], ...]:
    """(log a_ring, 2 pi turn) as floats per zero, aligned with schedule.zeros."""
    table = schedule.tables.get("float")
    if table is None:
        table = tuple(
            (float(zero.log_r), 2 * math.pi * float(zero.turn)) for zero in schedule.zeros
        )
        schedule.tables["float"] = table
    return table


def _log_sigmoid_peak(x: float) -> float:
    """x - log(1 + e^(2x)): log of |f| / (1 + |f|^2) at log|f| = x."""
    if x > 0:
        return -x - math.log1p(math.exp(-2 * x))
    return x - math.log1p(math.exp(2 * x))


def _float_log_sum(schedule: ZeroSchedule, j: int, z: LogPolar):
    """Floats (lf, err_lf, S, err_S) at w = j z over the scheduled zeros:
    lf approximates log|f(w)| and S the sum of e^s / (e^s - 1) with
    s = log w - log b per zero b; err_lf and err_S are first-order bounds
    on their rounding.

    Each factor uses the three branches of _log_one_minus_exp in floats (the
    expm1 form for e^s - 1 in the middle one).  None where floats cannot
    bound the value: exact-tagged points (which may be zeros), the origin
    and factors e^s - 1 within rounding noise of zero.
    """
    if z.exact is not None or z.is_zero:
        return None
    log_z = float(z.log_mag)
    log_j = math.log(j)
    x = log_z + log_j
    y = float(z.phase)
    table = _float_constants(schedule)
    lf = err_lf = abs_lf = 0.0
    total = 0j
    err_total = abs_total = 0.0
    for log_r, angle in table:
        s = complex(x - log_r, y - angle)
        es = 4 * _EPS * (abs(log_z) + log_j + abs(log_r) + 10)  # rounding of s
        if s.real >= _BRANCH:
            # log|1 - e^s| = Re s + log|1 - e^-s| and e^s/(e^s - 1) = 1/(1 - e^-s)
            m, t = s.real, 1.0
            tiny = 3 * math.exp(-s.real)
            em, et = es + tiny, tiny
        elif s.real <= -_BRANCH:
            e = cmath.exp(s)
            m, t = -e.real, -e
            em = et = 2 * abs(e) * (es + abs(e) + _EPS)
        else:
            a, cos, sin = math.exp(s.real), math.cos(s.imag), math.sin(s.imag)
            # e^s - 1 without cancellation
            d = complex(math.expm1(s.real) * cos - 2 * math.sin(s.imag / 2) ** 2, a * sin)
            ad = abs(d)
            rel = (a + 1) * (es + 8 * _EPS) / ad if ad else math.inf
            if rel > _NOISE:
                return None
            m = math.log(ad)
            t = complex(a * cos, a * sin) / d
            em = 2 * rel + _EPS * abs(m)
            et = abs(t) * (2 * rel + es + 8 * _EPS)
        lf += m
        err_lf += em
        abs_lf += abs(m)
        total += t
        err_total += et
        abs_total += abs(t)
    err_lf += len(table) * _EPS * abs_lf
    err_total += len(table) * _EPS * abs_total
    return lf, err_lf, total, err_total


def _spherical_log_bound(schedule: ZeroSchedule, j: int, z: LogPolar) -> float:
    """Float upper bound U on log(j * spherical_derivative(schedule, j, z)).

    With w = j z and S as in _float_log_sum, f'/f(w) = S / w, so the
    logarithm of j f#(w) is -log|z| + log|S| + log|f| - log(1 + |f|^2); U
    takes the worst case of both rounding bounds plus _SCREEN_SLACK.

    U is +inf where _float_log_sum gives up and where S cancels below its
    error bound, which includes the empty product.
    """
    terms = _float_log_sum(schedule, j, z)
    if terms is None:
        return math.inf
    lf, err_lf, total, err_total = terms
    if abs(total) <= 2 * err_total:
        return math.inf
    lo, hi = lf - err_lf, lf + err_lf
    peak = -math.log(2) if lo <= 0 <= hi else max(_log_sigmoid_peak(lo), _log_sigmoid_peak(hi))
    return -float(z.log_mag) + math.log(abs(total) + err_total) + peak + _SCREEN_SLACK


def _floor_log_bound(schedule: ZeroSchedule, j: int, z: LogPolar) -> float:
    """Float lower bound on log|f(j z)| minus _tail_bound at j z: the float
    log|f| less its rounding bound and _SCREEN_SLACK, less the tail.

    -inf where _float_log_sum gives up and outside the tail hypothesis.
    Runs at the working precision of log_eval, so the tail is the one
    log_eval reports.
    """
    terms = _float_log_sum(schedule, j, z)
    if terms is None:
        return -math.inf
    log_w = z.scaled_by_int(j).log_mag
    rows = schedule.n_rings
    if not _tail_hypothesis(schedule, log_w, rows):
        return -math.inf
    lf, err_lf, _, _ = terms
    return lf - err_lf - _SCREEN_SLACK - float(_tail_bound(schedule, log_w, rows))


def _distance_log_bounds(schedule: ZeroSchedule, j: int, r: Fraction,
                         turn: Fraction) -> List[float]:
    """Float lower bound on log|b/j - r e^(2 pi i turn)| per scheduled zero b.

    With |b/j| and r the two moduli and delta the angle between them,
    |b/j - p|^2 is the square of the modulus gap ||b/j| - r| plus the
    square of the angular part 2 sqrt(|b/j| r) |sin(delta/2)|, so the
    distance is at least the larger part.  Each part is bounded below from
    float logs with first-order rounding bounds (-inf where rounding could
    close it, as on the ring the rule pins), and the larger one is lowered
    by _SCREEN_SLACK on top.
    """
    log_j = math.log(j)
    log_num, log_den = math.log(r.numerator), math.log(r.denominator)
    v = log_num - log_den  # log r
    theta = 2 * math.pi * float(turn)
    out = []
    for log_r, angle in _float_constants(schedule):
        u = log_r - log_j  # log |b/j|
        e = 8 * _EPS * (abs(log_r) + log_j + log_num + log_den + 1)  # rounding of u and v
        gap = abs(u - v) * (1 - _EPS) - e
        lg = max(u, v) - e + math.log(-math.expm1(-gap)) if gap > 0 else -math.inf
        sin = abs(math.sin((angle - theta) / 2)) - 8 * _EPS * (abs(angle) + abs(theta) + 1)
        la = math.log(2) + (u + v - e) / 2 + math.log(sin) if sin > 0 else -math.inf
        bound = max(lg, la)
        out.append(bound - 8 * _EPS * (abs(bound) + 1) - _SCREEN_SLACK)
    return out


def _screened(bounds: Sequence[float], certify) -> dict:
    """{k: certify(k)} for the indices k that can hold the least value,
    given that every bounds[k] is a lower bound on certify(k).

    certify runs in ascending order of the bounds (a stable sort, so -inf
    bounds first and ties in index order) until the next bound is strictly
    greater than the least value so far; every skipped value is then above
    the minimum, and a bound equal to it is still evaluated.  The dict is in
    evaluation order.  A value below its bound raises ArithmeticError.  That
    the skipped candidates are above the minimum rests on the float rounding
    in the bounds staying below _SCREEN_SLACK.
    """
    values = {}
    least = math.inf
    for k in sorted(range(len(bounds)), key=bounds.__getitem__):
        if bounds[k] > least:
            break
        values[k] = certify(k)
        if not values[k] >= bounds[k]:
            raise ArithmeticError("a float screen bound crossed its certified value")
        least = min(least, values[k])
    return values


def family_floor(schedule: ZeroSchedule, j: int, points: Sequence[LogPolar]):
    """Certified floor of log|f_j| on the points: the least
    EvalResult.floor of family_eval(schedule, j, z), the difference taken
    at the caller's precision (-inf if some point misses the tail
    hypothesis or hits a zero).

    Screened (_screened) with _floor_log_bound, which is -inf at
    exact-tagged points, outside the tail hypothesis and wherever floats
    cannot decide.
    """
    if not points:
        raise ValueError("the floor needs at least one point")
    with mp.workprec(default_precision() + _GUARD):
        bounds = [_floor_log_bound(schedule, j, z) for z in points]

    def certify(k):
        return family_eval(schedule, j, points[k]).floor

    return min(_screened(bounds, certify).values())


# -- sector lower bound ---------------------------------------------------------


def small_product_constant():
    """Certified (lower, upper) bounds of prod(1 - 2^-j) over j >= 1 (about
    0.288788) at the working precision, computed once per precision."""
    return _small_product_bounds(default_precision())


@lru_cache(maxsize=None)
def _small_product_bounds(prec: int):
    with _iv_prec(prec + _GUARD):
        terms = iv.prec + 10
        prod = iv.mpf(1)
        for j in range(1, terms + 1):
            prod *= 1 - iv.mpf(1) / iv.mpf(2) ** j
        # log of the remaining factors is at least -2^(1-terms), so they
        # multiply to at least 1 - 2^(1-terms)
        lower = (prod * (1 - iv.mpf(2) ** (1 - terms))).a
        with mp.workprec(iv.prec):  # the endpoints convert exactly
            return mp.mpf(lower), mp.mpf(prod.b)


@dataclass(frozen=True)
class SectorBoundReport:
    ring: int
    lhs: object  # computed log |f_truncated(z)|
    certified_lhs: object  # lhs minus the truncation tail bound
    rhs: object  # divergence bound log K_n for this ring at the given angular gap
    passed: bool  # certified_lhs >= rhs


@dataclass(frozen=True)
class SectorDivergence:
    rings: Tuple[int, ...]  # per point, as SectorBoundReport.ring
    passed: Tuple[bool, ...]  # per point, as SectorBoundReport.passed
    floor: object  # the least SectorBoundReport.certified_lhs over the points


def _ray_arcs(schedule: ZeroSchedule) -> list:
    """The arcs the ray of a checked point must keep alpha0 away from, as
    (center turn, half width, error message) with mpf turns: one per
    distinct zero turn of the full (untruncated) set, in order of first
    appearance, then the hull of every source piece, since all the angles
    of a sector lie in its source's hull arcs."""
    arcs = [
        (_mpf_fraction(turn), mp.mpf(0), f"ray too close to the zero ray at turn {turn}")
        for turn in dict.fromkeys(zero.turn for zero in schedule.zeros)
    ]
    for sector, tree in sorted(schedule.sources.items()):
        if tree is None:
            continue
        for piece in _pieces(tree):
            center, half_width = _hull(piece)
            arcs.append((_mpf_fraction(center), _mpf_fraction(half_width),
                         f"ray within alpha0 of the zero arc at sector {sector}"))
    return arcs


def _sector_ring(schedule: ZeroSchedule, z: LogPolar, alpha0, arcs) -> int:
    """The ring index n with a_n < |z| <= a_{n+1}, once z is checked:
    ValueError unless |z| exceeds the first radius, the ray of z keeps
    alpha0 away from every arc of _ray_arcs, and the schedule meets the
    tail hypothesis at z."""
    if z.is_zero or z.log_mag <= _mpf_fraction(schedule.radii.log_radius(1)):
        raise ValueError("modulus must exceed the first radius")
    n = 1
    while z.log_mag > _mpf_fraction(schedule.radii.log_radius(n + 1)):
        n += 1
    two_pi = 2 * mp.pi
    turn = z.phase / two_pi
    for center, half_width, message in arcs:
        if two_pi * (_turn_gap(turn, center) - half_width) < alpha0:
            raise ValueError(message)
    if not _tail_hypothesis(schedule, z.log_mag, schedule.n_rings):
        raise ValueError("tail hypothesis fails: the schedule has too few rings "
                         "for this modulus")
    return n


def _divergence_bound(n: int, alpha0):
    """log K_n: K_n = 2^(n(n-1)/2) * sin(alpha0/2)^(3(n+1)) times the lower
    end of the small-product constant."""
    k0_low, _ = small_product_constant()
    return (
        mp.mpf(n * (n - 1)) / 2 * mp.log(2)
        + 3 * (n + 1) * mp.log(mp.sin(alpha0 / 2))
        + mp.log(k0_low)
    )


def _checked_alpha0(alpha0):
    alpha0 = mp.mpf(alpha0)
    if alpha0 <= 0:
        raise ValueError("alpha0 must be positive")
    return alpha0


def sector_bound_check(schedule: ZeroSchedule, z: LogPolar, alpha0) -> SectorBoundReport:
    """Check the off-ray divergence bound at z.

    With n the ring index satisfying a_n < |z| <= a_{n+1} and the ray of z
    at angular distance at least alpha0 from every zero ray, the product is
    at least K_n = 2^(n(n-1)/2) * sin(alpha0/2)^(3(n+1)) times the
    small-product constant.  The check is a claim about f, not about the
    truncated product: it passes when log|f_truncated(z)| minus the
    truncation tail bound, which is a lower bound on log|f(z)| up to the
    rounding of the main sum, is at least log K_n.
    """
    with mp.workprec(default_precision() + _GUARD):
        alpha0 = _checked_alpha0(alpha0)
        n = _sector_ring(schedule, z, alpha0, _ray_arcs(schedule))
        res = log_eval(schedule, z)
        certified = res.floor
        rhs = _divergence_bound(n, alpha0)
        return SectorBoundReport(n, res.value.log_mag, certified, rhs, bool(certified >= rhs))


def sector_divergence(
    schedule: ZeroSchedule, points: Sequence[LogPolar], alpha0
) -> SectorDivergence:
    """sector_bound_check at every point, reduced to what a divergence claim
    reports: each point's ring and pass flag, and the floor, the least
    certified_lhs over the points.  Every point gets sector_bound_check's
    checks, with its ValueErrors, before anything is evaluated.

    Screened (_screened) with _floor_log_bound at j = 1, which bounds every
    certified_lhs from below: the screen finds the floor, and of the points
    it skips, those whose bound is at least log K_n pass without evaluation
    and the others are evaluated one by one through _screened, so each
    value is checked against its bound.  The flags and the floor are the
    numbers sector_bound_check returns.
    """
    if not points:
        raise ValueError("the floor needs at least one point")
    with mp.workprec(default_precision() + _GUARD):
        alpha0 = _checked_alpha0(alpha0)
        arcs = _ray_arcs(schedule)
        rings = tuple(_sector_ring(schedule, z, alpha0, arcs) for z in points)
        log_k = {n: _divergence_bound(n, alpha0) for n in set(rings)}
        bounds = [_floor_log_bound(schedule, 1, z) for z in points]

        def certify(k):
            return log_eval(schedule, points[k]).floor

        certified = _screened(bounds, certify)
        floor = min(certified.values())
        for k, n in enumerate(rings):
            if k not in certified and bounds[k] < log_k[n]:
                certified[k] = _screened([bounds[k]], lambda _: certify(k))[0]
        passed = tuple(
            bool(bounds[k] >= log_k[n] or certified[k] >= log_k[n])
            for k, n in enumerate(rings)
        )
    return SectorDivergence(rings, passed, floor)


def _turn_gap(a, b):
    d = mp.fmod(abs(a - b), 1)
    return min(d, 1 - d)
