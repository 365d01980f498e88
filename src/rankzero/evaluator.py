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

Every entry point reads all the rings of the schedule it is given; a
caller that wants fewer rings passes a shorter schedule.  The tail past
the schedule's last ring is certified: with q_j the ratio of |z| to the
j-th radius, the rings j beyond it contribute at most the sum of
j * q_j / (1 - q_j), a convergent majorant whenever |z| does not exceed
the radius two rings below the last.

The product loop, _log_product, takes the zeros in ascending modulus and
stops at the first zero b where |z/b| is so small that neither its factor
nor any later one can move a bit of the two rounded sums: round-to-nearest
leaves a p-bit sum unchanged by an addend below 2^-(p+2) of it.  The test
runs in floats with a margin of 2^8 (derived at _CUT_BITS), and a sum that
is 0, or 0 as a float, never stops the loop, so the sums, and every byte
written from them, are those of the whole table.

No certified tail is claimed for the logarithmic derivative; its consumers
only use self-consistency and monotone comparisons.

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
(_spherical_log_bound, finite at exact zero preimages); all four bounds
live in this module, in floats only: _floor_log_bound takes a float
majorant of the interval _tail_bound, which log_eval keeps for the values
it reports.  The sweep's meshes find the zero preimages in their disks
with _distance_log_bounds too: mp tests only the zeros it cannot place
outside the disk.
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
    "SectorDivergence",
    "default_precision",
    "log_eval",
    "family_eval",
    "family_floor",
    "log_derivative",
    "spherical_derivative",
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


@lru_cache(maxsize=None)
def _pi(prec: int):
    """pi and 2 pi as mpf at prec bits: the values mp.pi and 2 * mp.pi take
    there, without evaluating the constant at every use."""
    with mp.workprec(prec):
        pi = +mp.pi
        return pi, 2 * pi


def _norm_phase(x):
    """x reduced to (-pi, pi] by mp.fmod by 2 pi.  For an x in [0, pi] that
    fits the working precision, fmod returns x itself, so that x is returned
    as it is; fmod leaves a wider x unrounded only when x is tiny, so a wider
    x, like every x outside [0, pi], takes the fmod path."""
    prec = mp.prec
    pi, two_pi = _pi(prec)
    sign, _, _, bits = x._mpf_
    if not sign and bits <= prec and x <= pi:
        return x
    x = mp.fmod(x, two_pi)
    if x > pi:
        x -= two_pi
    elif x <= -pi:
        x += two_pi
    return x


# -- the kernel ---------------------------------------------------------------

_BRANCH = 40
_HALF = mp.mpf(0.5)


def _log_one_minus_exp(s) -> Tuple[object, object]:
    """(log|1 - e^s|, arg(1 - e^s)); (-inf, 0) when e^s is exactly 1."""
    re = mp.re(s)
    if re >= _BRANCH:
        # 1 - e^s = -e^s (1 - e^-s); e^-s is tiny but its effect is kept
        u = mp.exp(-s)
        rest = mp.log(1 - u)
        mag = re + mp.re(rest)
        ph = _norm_phase(_pi(mp.prec)[0] + mp.im(s) + mp.im(rest))
        return mag, ph
    if re <= -_BRANCH:
        v = mp.log(1 - mp.exp(s))
        return mp.re(v), _norm_phase(mp.im(v))
    w = mp.exp(s)
    d = 1 - w
    if d == 0:
        return mp.ninf, mp.mpf(0)
    size = abs(d)
    if size < _HALF:
        d = -mp.expm1(s)  # cancellation zone: expm1 keeps full precision
        if d == 0:
            return mp.ninf, mp.mpf(0)
        size = abs(d)
    return mp.log(size), mp.arg(d)


@dataclass(frozen=True)
class EvalResult:
    """Product value over the scheduled zeros with a certified bound on the
    tail past the schedule's last ring, +inf outside the tail hypothesis."""

    value: LogPolar
    tail_log_bound: object

    @property
    def valid(self) -> bool:
        """Whether the tail bound holds: |z| meets the tail hypothesis."""
        return self.tail_log_bound < mp.inf

    @property
    def floor(self):
        """log|f_schedule| minus the tail bound, at the precision of the
        reader: a lower bound on log|f| up to the rounding of the main sum."""
        return self.value.log_mag - self.tail_log_bound


def _hit(schedule: ZeroSchedule, z: LogPolar) -> Optional[int]:
    """The index of the scheduled zero that z is exactly, if any."""
    if z.exact is None:
        return None
    return next((i for i, zero in enumerate(schedule.zeros) if z.exact.hits(zero)), None)


def _tail_hypothesis(schedule: ZeroSchedule, log_mag) -> bool:
    """Whether |z| = e^log_mag is at most the radius two rings below the
    schedule's last, where _tail_bound holds."""
    rows = schedule.n_rings
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


def _tail_bound(schedule: ZeroSchedule, log_mag):
    """Strict majorant of |log f - log f_schedule| at modulus e^log_mag,
    f_schedule being the product over the scheduled zeros.

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
        j = schedule.n_rings + 1
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


# The product loop stops at the first factor that cannot move either
# rounded sum S (mag or ph) at p = mp.prec bits.  Let q = e^re, re being the
# kernel's input log|z| - log|b|, and suppose 2q < 2^-(p + c) min(|S|, 1):
# * q < 2^-(p + 2), so re <= -40 and the kernel takes log(1 - e^s) directly;
#   e^s rounds to w with |w| < 2q, so Re(1 - w) rounds to exactly 1 and
#   1 - w = 1 + iy with |y| < 2q;
# * log|1 + iy| <= y^2 / 2 and |atan y| <= |y|, so both the log modulus and
#   the phase of the factor are below 2q (_norm_phase sends a negative phase
#   that small to 0 and keeps a positive one);
# * round-to-nearest leaves a p-bit S unchanged by an addend below half the
#   spacing of p-bit numbers under |S|, which is at least 2^-(p + 2) |S|
#   (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2.1).
# So c = 2 would do in exact arithmetic; c = 10 leaves a factor 2^8 for the
# float test (relative errors near 2^-52 in re, |S| and the log) and for
# mpmath's exp and atan, which are a few ulps off, not correctly rounded.
# The table ascends in log|b|, so every later q is smaller and passes the
# same test against the same sums: the loop can end there.  A sum that is 0,
# or 0 as a float, never passes.
_CUT_BITS = 10


def _log_product(table, log_mag, phase):
    """(sum of log|1 - z/b|, sum of arg(1 - z/b)) over the zeros b of table,
    pairs (log|b|, arg b) as _zero_constants gives them in ascending log|b|,
    at z = e^(log_mag + i phase), summed in table order; (-inf, 0) as soon
    as a factor vanishes.  Stops where no later factor can change either
    rounded sum, so the sums are the ones the whole table gives."""
    mag = mp.mpf(0)
    ph = mp.mpf(0)
    cut = -(mp.prec + _CUT_BITS + 1) * math.log(2)  # log of 2^-(p + c) / 2
    for log_r, angle in table:
        re = log_mag - log_r
        x = float(re)
        if x < cut:
            least = min(abs(float(mag)), abs(float(ph)), 1.0)
            if least > 0 and x < cut + math.log(least):
                break
        m, p = _log_one_minus_exp(mp.mpc(re, _norm_phase(phase - angle)))
        if m == mp.ninf:
            return mp.ninf, mp.mpf(0)
        mag += m
        ph += p
    return mag, ph


def log_eval(schedule: ZeroSchedule, z: LogPolar) -> EvalResult:
    """Product of (1 - z/b) over the scheduled zeros b.

    The certified tail hypothesis requires |z| at most the radius two rings
    below the schedule's last; outside it the value is still returned, with
    an infinite tail bound.  An exact hit on a scheduled zero gives
    log_mag = -inf.
    """
    with mp.workprec(default_precision() + _GUARD):
        if z.is_zero:
            return EvalResult(LogPolar(mp.mpf(0), mp.mpf(0)), mp.mpf(0))
        if _hit(schedule, z) is not None:
            return EvalResult(LogPolar.origin(), mp.mpf(0))
        mag, ph = _log_product(_zero_constants(schedule), z.log_mag, z.phase)
        if mag == mp.ninf:
            return EvalResult(LogPolar.origin(), mp.mpf(0))
        if _tail_hypothesis(schedule, z.log_mag):
            tail = _tail_bound(schedule, z.log_mag)
        else:
            tail = mp.inf
        return EvalResult(LogPolar(mag, _norm_phase(ph)), tail)


def family_eval(schedule: ZeroSchedule, j: int, z: LogPolar) -> EvalResult:
    """Evaluate the j-th dilation: the product at j*z."""
    with mp.workprec(default_precision() + _GUARD):
        return log_eval(schedule, z.scaled_by_int(j))


def log_derivative(schedule: ZeroSchedule, z: LogPolar) -> LogPolar:
    """Truncated logarithmic derivative: sum of 1/(z - b) over the scheduled
    zeros.  Carries no certified tail; use it only for self-consistency and
    monotone comparisons."""
    with mp.workprec(default_precision() + _GUARD):
        if _hit(schedule, z) is not None:
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
        hit = _hit(schedule, w)
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
    """x - log(1 + e^(2x)), the log of |f| / (1 + |f|^2) at log|f| = x: even
    in x, so taken at -|x|, where e^(2x) cannot overflow."""
    x = abs(x)
    return -x - math.log1p(math.exp(-2 * x))


def _float_factors(x: float, y: float, x_size: float, table):
    """Floats (lf, err_lf, S, err_S) at w = e^(x + i y) over the zeros b of
    table, pairs (log|b|, arg b) as _float_constants gives them: lf
    approximates the sum of log|1 - e^s| and S the sum of e^s / (e^s - 1),
    with s = log w - log b per zero b; err_lf and err_S are first-order
    bounds on their rounding, given that x_size bounds |x| and the terms x
    was summed from.

    Each factor uses the three branches of _log_one_minus_exp in floats (the
    expm1 form for e^s - 1 in the middle one).  None where a factor e^s - 1
    is within rounding noise of zero.
    """
    lf = err_lf = abs_lf = 0.0
    total = 0j
    err_total = abs_total = 0.0
    for log_r, angle in table:
        s = complex(x - log_r, y - angle)
        es = 4 * _EPS * (x_size + abs(log_r) + 10)  # rounding of s
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


def _float_log_sum(schedule: ZeroSchedule, j: int, z: LogPolar):
    """_float_factors at w = j z over the scheduled zeros, so lf
    approximates log|f(w)|; None also at exact-tagged points (which may be
    zeros) and the origin."""
    if z.exact is not None or z.is_zero:
        return None
    log_z = float(z.log_mag)
    log_j = math.log(j)
    return _float_factors(log_z + log_j, float(z.phase), abs(log_z) + log_j,
                          _float_constants(schedule))


def _spherical_log_bound(schedule: ZeroSchedule, j: int, z: LogPolar) -> float:
    """Float upper bound U on log(j * spherical_derivative(schedule, j, z)).

    With w = j z and S as in _float_log_sum, f'/f(w) = S / w, so the
    logarithm of j f#(w) is -log|z| + log|S| + log|f| - log(1 + |f|^2); U
    takes the worst case of both rounding bounds plus _SCREEN_SLACK.  Where
    w is exactly a scheduled zero b, j f#(w) = j |f'(b)|, whose logarithm
    is log j + the sum over the other zeros b' of log|1 - b/b'|, less
    log|b|; U bounds that sum as _float_factors does.

    U is +inf where _float_log_sum or _float_factors gives up, as at a zero
    listed twice, and where S cancels below its error bound, which includes
    the empty product.
    """
    hit = None if z.exact is None else _hit(schedule, z.scaled_by_int(j))
    if hit is not None:
        table = _float_constants(schedule)
        log_b, angle = table[hit]
        terms = _float_factors(log_b, angle, abs(log_b), table[:hit] + table[hit + 1:])
        if terms is None:
            return math.inf
        return math.log(j) + terms[0] + terms[1] - log_b + _SCREEN_SLACK
    terms = _float_log_sum(schedule, j, z)
    if terms is None:
        return math.inf
    lf, err_lf, total, err_total = terms
    if abs(total) <= 2 * err_total:
        return math.inf
    lo, hi = lf - err_lf, lf + err_lf
    peak = -math.log(2) if lo <= 0 <= hi else max(_log_sigmoid_peak(lo), _log_sigmoid_peak(hi))
    return -float(z.log_mag) + math.log(abs(total) + err_total) + peak + _SCREEN_SLACK


def _float_tail(schedule: ZeroSchedule, log_mag) -> float:
    """Float upper bound on _tail_bound(schedule, log_mag): the
    same terms j q_j / (1 - q_j), each raised by a first-order bound on its
    rounding, until one falls below 1e-20, the rest closed with the 2/e
    geometric ratio _tail_bound relies on (2.7845 > 2 / (e - 2)) and 1e-300
    for terms that underflow.  +inf where some q_j exceeds 1/2."""
    x = float(log_mag)
    rows = schedule.n_rings
    total = 0.0
    for j in range(rows + 1, rows + 401):
        log_r = float(schedule.radii.log_radius(j))
        q = math.exp(x - log_r)
        if q > 0.5:
            break
        term = j * q / (1 - q) * (1 + 8 * _EPS * (abs(x) + abs(log_r) + 4) / (1 - q))
        total += term
        if term < 1e-20:
            return total * (1 + (j - rows) * _EPS) + term * 2.7845 + 1e-300
    return math.inf


def _floor_log_bound(schedule: ZeroSchedule, j: int, z: LogPolar) -> float:
    """Float lower bound on log|f(j z)| minus _tail_bound at j z: the float
    log|f| less its rounding bound, _SCREEN_SLACK and _float_tail.

    -inf where _float_log_sum gives up and outside the tail hypothesis.
    Runs at the working precision of log_eval, so the tail hypothesis is
    decided as log_eval decides it.
    """
    terms = _float_log_sum(schedule, j, z)
    if terms is None:
        return -math.inf
    log_w = z.scaled_by_int(j).log_mag
    if not _tail_hypothesis(schedule, log_w):
        return -math.inf
    lf, err_lf, _, _ = terms
    return lf - err_lf - _SCREEN_SLACK - _float_tail(schedule, log_w)


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
class SectorDivergence:
    rings: Tuple[int, ...]  # per point, the ring n with a_n < |z| <= a_{n+1}
    passed: Tuple[bool, ...]  # per point, whether its certified floor is >= log K_n
    floor: object  # the least certified floor over the points


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
    if not _tail_hypothesis(schedule, z.log_mag):
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


def sector_divergence(
    schedule: ZeroSchedule, points: Sequence[LogPolar], alpha0
) -> SectorDivergence:
    """The off-ray divergence bound at every point: with n the ring of z
    (a_n < |z| <= a_{n+1}) and its ray at least alpha0 from every zero ray,
    |f(z)| >= K_n = 2^(n(n-1)/2) * sin(alpha0/2)^(3(n+1)) times the
    small-product constant.  A point passes when its certified floor, the
    EvalResult.floor of log_eval at z, is at least log K_n: a claim about f,
    not the truncated product.  Every point gets _sector_ring's checks, with
    their ValueErrors, before anything is evaluated.

    Screened (_screened) with _floor_log_bound at j = 1, which bounds every
    certified floor from below: the screen finds the least floor, and of
    the points it skips, those whose bound is at least log K_n pass without
    evaluation and the others are evaluated one by one through _screened,
    so each value is checked against its bound.  The flags and the floor
    are the numbers an unscreened check at every point gives.
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
