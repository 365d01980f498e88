"""Certified log-domain evaluation of the scheduled infinite products.

The products have zeros at moduli e^1, e^2, e^3, e^5, e^8, ..., so values
and arguments routinely live at moduli far beyond hardware floats.  Complex
numbers are therefore carried as (log of modulus, phase).  The product
itself is taken as a product: with z = e^(log|z| + i phase), computed once
per point, and b^-1 = e^(-log|b| - i arg b), kept per zero and working
precision, each zero b costs w = z b^-1, d = 1 - w and P <- P d, and
log|P| and arg P are taken once at the end.  mpf exponents are unbounded,
so P neither overflows nor underflows, at any modulus.

The product loop runs on integers at the working precision p: each part
of z, b^-1 and P is m 2^e, m a signed odd mantissa or 0, and each zero costs
one step, _times_one_minus, with the bits of libmp's
mpc_mul(P, mpc_sub(1, mpc_mul(z, b^-1))).  libmp multiplies exactly and
rounds each exact sum once, to nearest with ties to even (Higham, Accuracy
and Stability of Numerical Algorithms, 2nd ed., 2.1), so rounding the same
exact sums at the same three points, w, Re(1 - w) and P d, gives the same
bits; Im(1 - w) = -Im w is exact.  The exception, mpf_add's shortcut for an
addend wholly more than p + 4 bits below the other, rounds with that addend
as a sticky unit and can round the other way than the exact sum; _sum
copies it.  So each rounding is within u = 2^-p of its exact value, or
17/16 u on the shortcut, and a computed factor is (1 - w)(1 + delta) with
|delta| at most u (17/16 + 4 |w| / |1 - w|) to first order, the 4 u
covering the exponentials of z and b^-1 (9/8 u each, rounded from p + 4
bits) and the multiply that forms w; each multiply into P adds at most
17/16 u (Higham, ch. 3).

Every entry point reads all the rings of the schedule it is given; a
caller that wants fewer rings passes a shorter schedule.  The tail past
the schedule's last ring is certified: with q_j the ratio of |z| to the
j-th radius, the rings j beyond it contribute at most the sum of
j * q_j / (1 - q_j), a convergent majorant whenever |z| does not exceed
the radius two rings below the last.

The product loop, _log_product, takes the zeros in ascending modulus and
stops at the first zero where |P| |w| (zeros left) is below
2^-(p+2) min(|Re P|, |Im P|): that factor and every later one round to
(1, -Im w), and multiplying P by it leaves both rounded parts of P as they
are.  The test runs in floats with a margin of 2^8 (derived at _CUT_BITS),
and a part of P that is 0 never stops the loop, so P, and every byte
written from it, is that of the whole table.

No certified tail is claimed for the logarithmic derivative; its consumers
only use self-consistency and monotone comparisons.

Four searches screen, then certify: a float pass bounds every candidate,
and _screened evaluates at full precision, in ascending order of the
bounds, until the next bound exceeds the least value so far, raising
ArithmeticError if a value crosses its bound.  Skipping the rest rests on
one assumption: float rounding stays far below _SCREEN_SLACK (1e-6 in log
units, added to first-order rounding bounds).  The bounds live here, in
floats: _floor_log_bound for family_floor and sector_divergence (with a
float majorant of the interval _tail_bound that log_eval reports), and for
the probe layer _distance_log_bounds (nearest-zero search, and the sweep
meshes' disk tests) and _spherical_log_bound (condition-(M) sweep; finite
at exact zero preimages, and given the grid points in floats with a stated
error, so only those it certifies are built at full precision).  Their
loop, _float_factors, sums log|1 - e^s| on two branches, Re s >= 40 and
below, and stops at the first zero with Re s <= -40, adding the zeros
left times e^(Re s), raised for rounding, to its error bounds.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from mpmath import iv, mp
from mpmath.libmp import (
    fone, fzero, mpc_add, mpc_exp, mpc_mpf_div, mpc_sub, mpf_add, mpf_atan2,
    mpf_gt, mpf_hypot, mpf_le, mpf_log, mpf_mod, mpf_neg, mpf_sub, round_nearest as _RN,
    to_float,
)

from .pointset import _hull, _pieces
from .schedule import ZeroSchedule, _iv_fraction, _iv_prec

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
            ph = mp.make_mpf(_norm_phase((2 * mp.pi * _mpf_fraction(turn))._mpf_))
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
    """pi and 2 pi as _mpf_ tuples at prec bits: the values mp.pi and
    2 * mp.pi take there, without evaluating the constant at every use."""
    with mp.workprec(prec):
        pi = +mp.pi
        return pi._mpf_, (2 * pi)._mpf_


def _norm_phase(x):
    """x, an _mpf_ tuple, reduced to (-pi, pi] by mpf_mod by 2 pi at
    mp.prec, as mp.fmod reduces it.  For an x in [0, pi] that fits the
    working precision, mpf_mod returns x itself, so that x is returned as it
    is; mpf_mod leaves a wider x unrounded only when x is tiny, so a wider
    x, like every x outside [0, pi], takes the mpf_mod path."""
    prec = mp.prec
    pi, two_pi = _pi(prec)
    if not x[0] and x[3] <= prec and mpf_le(x, pi):
        return x
    x = mpf_mod(x, two_pi, prec, _RN)
    if mpf_gt(x, pi):
        x = mpf_sub(x, two_pi, prec, _RN)
    elif mpf_le(x, mpf_neg(pi)):
        x = mpf_add(x, two_pi, prec, _RN)
    return x


# Re s = +-40 splits _float_factors' two branches and is where it stops
_BRANCH = 40
# 1 in _times_one_minus' form: (Re m, Re e, Im m, Im e)
_ONE = (1, 0, 0, 0)


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


def _kept(schedule: ZeroSchedule, key, build):
    """schedule.tables[key], made by build() on first use: the one reader
    and writer of the per-schedule tables."""
    if key not in schedule.tables:
        schedule.tables[key] = build()
    return schedule.tables[key]


def _hit(schedule: ZeroSchedule, z: LogPolar) -> Optional[int]:
    """The index of the first scheduled zero that z is exactly, if any."""
    if z.exact is None or z.exact.scale != 1:
        return None
    first = _kept(schedule, "exact", lambda: dict(reversed(
        [((zero.log_r, zero.turn), i) for i, zero in enumerate(schedule.zeros)])))
    return first.get((z.exact.log_rat, z.exact.turn))


def _tail_hypothesis(schedule: ZeroSchedule, log_mag) -> bool:
    """Whether |z| = e^log_mag is at most the radius two rings below the
    schedule's last, where _tail_bound holds; that log radius is kept per
    schedule and working precision."""
    rows = schedule.n_rings
    return rows >= 3 and log_mag <= _kept(
        schedule, ("edge", mp.prec), lambda: _mpf_fraction(schedule.radii.log_radius(rows - 2)))


def _zero_constants(schedule: ZeroSchedule) -> Tuple[Tuple[tuple, tuple], ...]:
    """(log a_ring, 2 pi turn) as _mpf_ tuples per zero, aligned with
    schedule.zeros.

    Built once per schedule and working precision.
    """
    return _kept(schedule, mp.prec, lambda: tuple(
        (_mpf_fraction(zero.log_r)._mpf_, (2 * mp.pi * _mpf_fraction(zero.turn))._mpf_)
        for zero in schedule.zeros
    ))


_SHARED_TAILS: ContextVar[bool] = ContextVar("rankzero_shared_tails", default=False)


@contextmanager
def _shared_tails():
    """Inside the block, _tail_bound keeps each of its sums."""
    token = _SHARED_TAILS.set(True)
    try:
        yield
    finally:
        _SHARED_TAILS.reset(token)


def _tail_bound(schedule: ZeroSchedule, log_mag):
    """Strict majorant of |log f - log f_schedule| at modulus e^log_mag,
    f_schedule being the product over the scheduled zeros.

    Ring j holds at most j zeros, each factor obeys
    |log(1 - w)| <= |w| / (1 - |w|), and the ring ratios q_j collapse
    superexponentially, so the series is summed until it is negligible and
    the rest is closed off geometrically.  The sum depends only on the
    schedule, the working precision and log_mag, exactly as given; inside
    _shared_tails it is kept under all three, so the points of one circle
    share one sum.
    """
    if log_mag == mp.ninf:
        return mp.mpf(0)
    if not _SHARED_TAILS.get():
        return _tail_sum(schedule, log_mag)
    return _kept(schedule, ("tail", mp.prec, mp.convert(log_mag)._mpf_),
                 lambda: _tail_sum(schedule, log_mag))


def _tail_sum(schedule: ZeroSchedule, log_mag):
    """_tail_bound's interval sum, at log_mag > -inf."""
    with _iv_prec(mp.prec + _GUARD):
        x = iv.mpf(log_mag)
        total = iv.mpf(0)
        j = schedule.n_rings + 1
        last_term = None
        negligible = mp.mpf(2) ** (-mp.prec - 10)
        for _ in range(400):
            q = iv.exp(x - _iv_fraction(schedule.radii.log_radius(j)))
            if q.b >= 1:
                raise ArithmeticError("tail hypothesis violated in bound computation")
            term = iv.mpf(j) * q / (1 - q)
            total += term
            last_term = term
            if term.b < negligible:
                break
            j += 1
        else:  # pragma: no cover
            raise ArithmeticError("tail bound did not converge")
        # remaining terms decay at least geometrically with ratio 2/e
        ratio, rest = _two_over_e(iv.prec)
        total += last_term * ratio / rest
        return mp.mpf(total.b)


@lru_cache(maxsize=None)
def _two_over_e(prec: int):
    """The intervals 2/e and 1 - 2/e at iv precision prec, for _tail_sum."""
    with _iv_prec(prec):
        ratio = iv.mpf(2) / iv.exp(iv.mpf(1))
        return ratio, 1 - ratio


def _signed(x) -> Tuple[int, int]:
    """A finite _mpf_ tuple as (m, e), m signed: x = m 2^e."""
    return (-x[1] if x[0] else x[1]), x[2]


def _mpf(m: int, e: int):
    """The _mpf_ tuple of m 2^e, m odd or 0."""
    return (int(m < 0), abs(m), e, abs(m).bit_length()) if m else fzero


def _sum(sm: int, se: int, tm: int, te: int, prec: int) -> Tuple[int, int]:
    """sm 2^se + tm 2^te, the mantissas odd or 0, with the bits of libmp's
    mpf_add at prec bits, as an odd or zero mantissa and its exponent: the
    exact sum rounded once, to nearest with ties to even, or, on mpf_add's
    shortcut (low ends more than 100 bits apart and one addend wholly more
    than prec + 4 bits below the other), the larger addend with the smaller
    one as a sticky unit below it."""
    if not sm or not tm:
        m, e = (sm, se) if sm else (tm, te)
    else:
        offset = se - te
        if offset > 100 and abs(sm).bit_length() + offset - abs(tm).bit_length() > prec + 4:
            m, e = (sm << (prec + 4)) + (1 if tm > 0 else -1), se - prec - 4
        elif offset < -100 and abs(tm).bit_length() - offset - abs(sm).bit_length() > prec + 4:
            m, e = (tm << (prec + 4)) + (1 if sm > 0 else -1), te - prec - 4
        elif offset >= 0:
            m, e = tm + (sm << offset), te
        else:
            m, e = sm + (tm << -offset), se
    if not m:
        return 0, 0
    a = -m if m < 0 else m
    n = a.bit_length() - prec
    if n > 0:
        t = a >> (n - 1)
        if t & 1 and (t & 2 or a & ((1 << (n - 1)) - 1)):
            a = (t >> 1) + 1
        else:
            a = t >> 1
        e += n
    if not a & 1:
        tz = (a & -a).bit_length() - 1
        a, e = a >> tz, e + tz
    return (-a if m < 0 else a), e


def _times_one_minus(P, z, inv, prec: int):
    """P (1 - z inv), each complex number as (Re m, Re e, Im m, Im e) in
    _sum's form, with the bits of libmp's mpc_mul(P, mpc_sub(1,
    mpc_mul(z, inv))) at prec bits: each part of a product is _sum of two
    exact products, Re(1 - w) is _sum of 1 and -Re w, and Im(1 - w) = -Im w
    is exact."""
    re_m, re_e, im_m, im_e = P
    zr, zre, zi, zie = z
    br, bre, bi, bie = inv
    wr, wre = _sum(zr * br, zre + bre, -(zi * bi), zie + bie, prec)
    wi, wie = _sum(zr * bi, zre + bie, zi * br, zie + bre, prec)
    dr, dre = _sum(1, 0, -wr, wre, prec)
    # Re P d = Re P Re d + Im P Im w and Im P d = -Re P Im w + Im P Re d
    return (*_sum(re_m * dr, re_e + dre, im_m * wi, im_e + wie, prec),
            *_sum(-(re_m * wi), re_e + wie, im_m * dr, im_e + dre, prec))


def _inverses(table) -> Tuple[Tuple[float, Tuple[int, int, int, int]], ...]:
    """(log|b| as a float, b^-1 = e^(-log|b| - i arg b) in _times_one_minus'
    form, from mpc_exp at the working precision) per pair (log|b|, arg b) of
    table."""
    prec = mp.prec
    exps = (mpc_exp((mpf_neg(log_r), mpf_neg(angle)), prec, _RN) for log_r, angle in table)
    return tuple((to_float(log_r, rnd=_RN), (*_signed(re), *_signed(im)))
                 for (log_r, _), (re, im) in zip(table, exps))


def _zero_inverses(schedule: ZeroSchedule):
    """_inverses of _zero_constants, built once per schedule and precision."""
    return _kept(schedule, ("inv", mp.prec), lambda: _inverses(_zero_constants(schedule)))


# The product loop stops at the first zero where no factor from it on can
# move a bit of P at p = mp.prec bits.  Suppose the computed w obeys
# |P| |w| n < 2^-(p + 2) m, n being the zeros left and m = min(|Re P|, |Im P|):
# * |w| < 2^-(p + 2), so Re(1 - w) rounds to exactly 1 and the factor is
#   exactly (1, -y), y = Im w, |y| <= |w|;
# * the step rounds Re P + y Im P and Im P - y Re P once each, and |y| |P|
#   is below 2^-(p + 2) of both |Re P| and |Im P|; round-to-nearest leaves a
#   p-bit number unchanged by an addend below half the spacing of p-bit
#   numbers under it, which is at least 2^-(p + 1) of it (Higham, Accuracy
#   and Stability of Numerical Algorithms, 2nd ed., 2.1), and so does
#   mpf_add's sticky shortcut, so P stays as it is, and with it the test;
#   every later |w| is no larger up to rounding, the table ascending in
#   log|b|;
# * with n, the factors dropped move the exact product by at most a
#   relative 2^-(p + 1), which a radius on P can add.
# The loop tests x + log n < -(p + c) log 2 + log(m / |P|) in floats, x being
# log|z| - log|b|.  c = 2 would do in exact arithmetic; c = 10 leaves a
# factor 2^8 for the computed |w|, within a relative 4 u of e^x (u = 2^-p:
# the exponentials of z and b^-1 and the multiply), for the float m / |P|
# and log n, a few ulps off, and for float rounding in x beyond the bound
# 4 eps (|log|z|| + |log|b||) added to it (eps = 2^-53).  A part of P that is
# 0, or 0 as a float once scaled by |P|, never passes.
_CUT_BITS = 10


def _log_product(table, log_mag, phase, inverses=None, skip=None):
    """(log|P|, arg P) as mpf for P the product of (1 - z/b) over the zeros b
    of table, pairs (log|b|, arg b) as _zero_constants gives them in ascending
    log|b|, but for the one at index skip, at z = e^(log_mag + i phase),
    log_mag and phase as _mpf_ tuples; inverses is _inverses(table), made
    here if not given.  (-inf, 0) when z is a zero to the last bit (log_mag
    is its log|b| and phase its arg b as _norm_phase reduces it) or P rounds
    to 0.  Stops where no later factor can change a bit of P, so the result
    is the one the whole table gives.

    z, each b^-1 and P are held as integers, and each zero costs one
    _times_one_minus, with the bits of libmp's calls on the _mpf_ tuples;
    P becomes an _mpf_ pair only for the float cut test and at the end."""
    prec = mp.prec
    if inverses is None:
        inverses = _inverses(table)
    re, im = mpc_exp((log_mag, phase), prec, _RN)
    z = (*_signed(re), *_signed(im))
    x_z = to_float(log_mag, rnd=_RN)
    cut = -(prec + _CUT_BITS) * math.log(2)
    n = len(table)
    P = _ONE
    for i, ((log_r, angle), (x_r, inv)) in enumerate(zip(table, inverses)):
        x = x_z - x_r
        if x < cut and P[0] and P[2]:
            # the parts of P scaled to a top bit near 1, as floats
            re, im = _mpf(*P[:2]), _mpf(*P[2:])
            top = max(re[2] + re[3], im[2] + im[3])
            re, im = (to_float((0, man, exp - top, bc), rnd=_RN) for _, man, exp, bc in (re, im))
            least = min(re, im) / math.hypot(re, im)
            err = 4 * _EPS * (abs(x_z) + abs(x_r))
            if least > 0 and x + err + math.log(n - i) < cut + math.log(least):
                break
        if i == skip:
            continue
        if log_r == log_mag and _norm_phase(angle) == phase:
            return mp.ninf, mp.mpf(0)
        P = _times_one_minus(P, z, inv, prec)
    if not P[0] and not P[2]:
        return mp.ninf, mp.mpf(0)
    re, im = _mpf(*P[:2]), _mpf(*P[2:])
    return (mp.make_mpf(mpf_log(mpf_hypot(re, im, prec, _RN), prec, _RN)),
            mp.make_mpf(mpf_atan2(im, re, prec, _RN)))


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
        mag, ph = _log_product(_zero_constants(schedule), mp.convert(z.log_mag)._mpf_,
                               mp.convert(z.phase)._mpf_, _zero_inverses(schedule))
        if mag == mp.ninf:
            return EvalResult(LogPolar.origin(), mp.mpf(0))
        if _tail_hypothesis(schedule, z.log_mag):
            tail = _tail_bound(schedule, z.log_mag)
        else:
            tail = mp.inf
        return EvalResult(LogPolar(mag, mp.make_mpf(_norm_phase(ph._mpf_))), tail)


def family_eval(schedule: ZeroSchedule, j: int, z: LogPolar) -> EvalResult:
    """Evaluate the j-th dilation: the product at j*z."""
    with mp.workprec(default_precision() + _GUARD):
        return log_eval(schedule, z.scaled_by_int(j))


def _derivative_sum(schedule: ZeroSchedule, z: LogPolar):
    """log_derivative without its check for a pole: the sum of 1/(z - b) by
    the libmp calls of mp's `total += 1 / (z - b)`, so with its bits; the b,
    mp.exp of _zero_constants, are built once per schedule and precision."""
    prec = mp.prec
    zeros = _kept(schedule, ("exp", prec),
                  lambda: tuple(mpc_exp(c, prec, _RN) for c in _zero_constants(schedule)))
    zc, total = z.to_complex()._mpc_, (fzero, fzero)
    for b in zeros:
        term = mpc_mpf_div(fone, mpc_sub(zc, b, prec, _RN), prec, _RN)
        total = mpc_add(total, term, prec, _RN)
    return LogPolar.from_complex(mp.make_mpc(total))


def log_derivative(schedule: ZeroSchedule, z: LogPolar) -> LogPolar:
    """Truncated logarithmic derivative: sum of 1/(z - b) over the scheduled
    zeros.  Carries no certified tail; use it only for self-consistency and
    monotone comparisons."""
    with mp.workprec(default_precision() + _GUARD):
        if _hit(schedule, z) is not None:
            raise ValueError("logarithmic derivative has a pole at a scheduled zero")
        return _derivative_sum(schedule, z)


def _derivative_at_zero(schedule: ZeroSchedule, hit: int):
    """log |f'(b)| at the scheduled zero b = schedule.zeros[hit]: the product
    over every other entry of schedule.zeros of |1 - b/b'|, divided by |b|;
    -inf when b is listed twice, a double zero."""
    table = _zero_constants(schedule)
    log_b, angle_b = table[hit]
    mag, _ = _log_product(table, log_b, _norm_phase(angle_b), _zero_inverses(schedule), hit)
    return mag - mp.make_mpf(log_b)


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
        lf = mp.mpf(0)  # f(0) = 1
        if not w.is_zero:
            lf, _ = _log_product(_zero_constants(schedule), mp.convert(w.log_mag)._mpf_,
                                 mp.convert(w.phase)._mpf_, _zero_inverses(schedule))
        if lf == mp.ninf:  # numeric zero without exact tag
            return mp.inf
        ld = _derivative_sum(schedule, w)
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
    return _kept(schedule, "float", lambda: tuple(
        (float(zero.log_r), 2 * math.pi * float(zero.turn)) for zero in schedule.zeros
    ))


def _log_sigmoid_peak(x: float) -> float:
    """x - log(1 + e^(2x)), the log of |f| / (1 + |f|^2) at log|f| = x: even
    in x, so taken at -|x|, where e^(2x) cannot overflow."""
    x = abs(x)
    return -x - math.log1p(math.exp(-2 * x))


def _float_factors(x: float, y: float, x_size: float, x_err: float, table):
    """Floats (lf, err_lf, S, err_S) at w = e^(x + i y) over the zeros b of
    table, pairs (log|b|, arg b) from _float_constants in ascending log|b|:
    lf approximates the sum of log|1 - e^s| and S that of e^s / (e^s - 1),
    s = log w - log b; err_lf and err_S bound their rounding to first order,
    given that x_size bounds |x| and the terms x was summed from, and the
    error x_err of x and y each.  A factor with Re s >= 40 is summed as
    Re s + log|1 - e^-s|, the others through expm1 for e^s - 1; at the
    first zero with Re s <= -40 the loop stops and adds the zeros left times
    a bound on any later term to the error bounds and absolute sums.  None
    where a factor e^s - 1 is within rounding noise of zero."""
    lf = err_lf = abs_lf = 0.0
    total = 0j
    err_total = abs_total = 0.0
    for i, (log_r, angle) in enumerate(table):
        s = complex(x - log_r, y - angle)
        es = 4 * _EPS * (x_size + abs(log_r) + 10) + 2 * x_err  # error of s
        if s.real <= -_BRANCH:
            # each term left is at most q / (1 - q), q <= e^(Re s + es) <= e^-39,
            # so below e^(Re s)(1 + 2 es + 16 eps), rounding of exp included
            rest = (len(table) - i) * math.exp(s.real) * (1 + 2 * es + 16 * _EPS)
            err_lf, abs_lf = err_lf + rest, abs_lf + rest
            err_total, abs_total = err_total + rest, abs_total + rest
            break
        if s.real >= _BRANCH:
            # log|1 - e^s| = Re s + log|1 - e^-s| and e^s/(e^s - 1) = 1/(1 - e^-s)
            m, t = s.real, 1.0
            tiny = 3 * math.exp(-s.real)
            em, et = es + tiny, tiny
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


def _spherical_log_bound(schedule: ZeroSchedule, j: int, z) -> float:
    """Float upper bound U on log(j * spherical_derivative(schedule, j, z))
    at an exact-tagged z or at a sweep grid point (probe._GridPoint).

    With w = j z and S as _float_factors gives it at w, f'/f(w) = S / w, so
    the log of j f#(w) is -log|z| + log|S| + log|f| - log(1 + |f|^2); U
    takes the worst case of both rounding bounds and of z.err, plus
    _SCREEN_SLACK.  Where w is exactly a scheduled zero b, j f#(w) =
    j |f'(b)|, whose logarithm is log j + the sum over the other zeros b'
    of log|1 - b/b'|, less log|b|; U bounds that sum as _float_factors does.
    U is +inf at an exact z that is no zero, where z.err is +inf or floats
    give up, as at a zero listed twice, and where S cancels below its error
    bound, as in the empty product.
    """
    hit = None if z.exact is None else _hit(schedule, z.scaled_by_int(j))
    table = _float_constants(schedule)
    if hit is not None:
        log_b, angle = table[hit]
        terms = _float_factors(log_b, angle, abs(log_b), 0.0, table[:hit] + table[hit + 1:])
        if terms is None:
            return math.inf
        return math.log(j) + terms[0] + terms[1] - log_b + _SCREEN_SLACK
    if z.exact is not None or not z.err < math.inf:
        return math.inf
    log_j = math.log(j)
    terms = _float_factors(z.log_mag + log_j, z.phase, abs(z.log_mag) + log_j, z.err, table)
    if terms is None:
        return math.inf
    lf, err_lf, total, err_total = terms
    if abs(total) <= 2 * err_total:
        return math.inf
    lo, hi = lf - err_lf, lf + err_lf
    peak = -math.log(2) if lo <= 0 <= hi else max(_log_sigmoid_peak(lo), _log_sigmoid_peak(hi))
    return -z.log_mag + z.err + math.log(abs(total) + err_total) + peak + _SCREEN_SLACK


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

    -inf at exact-tagged points (maybe zeros), the origin, outside the tail
    hypothesis and where floats give up.  Runs at the working precision of
    log_eval, so the tail hypothesis is decided as log_eval decides it.
    """
    if z.exact is not None or z.is_zero:
        return -math.inf
    log_w = z.scaled_by_int(j).log_mag
    if not _tail_hypothesis(schedule, log_w):
        return -math.inf
    log_z, log_j = float(z.log_mag), math.log(j)
    terms = _float_factors(log_z + log_j, float(z.phase), abs(log_z) + log_j, 0.0,
                           _float_constants(schedule))
    if terms is None:
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
    EvalResult.floor of family_eval(schedule, j, z) (-inf if some point
    misses the tail hypothesis or hits a zero).

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
    # Floats pass the arcs that clear alpha0 by the margin, mp decides the
    # rest: t is within 3u|t| and the other floats within u|.| of mp's (u =
    # 2^-53), t - center and 1 - d round once, % 1 is exact and the gap is
    # 1-Lipschitz, so the value is within 2 pi u(4|t| + 8) + 2ua <= 51u(|t| +
    # 1 + a) of mp's.
    t, a = float(z.phase) / (2 * math.pi), float(alpha0)
    margin = 64 * _EPS * (abs(t) + 1 + a)
    for center, half_width, message in arcs:
        d = abs(t - float(center)) % 1
        if 2 * math.pi * (min(d, 1 - d) - float(half_width)) - a <= margin:
            d = mp.fmod(abs(z.phase / (2 * mp.pi) - center), 1)
            if 2 * mp.pi * (min(d, 1 - d) - half_width) < alpha0:
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
