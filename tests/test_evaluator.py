import math
import re
from dataclasses import fields, replace
from fractions import Fraction as F
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import rankzero.evaluator as evaluator
from rankzero import verification
from rankzero.evaluator import (
    _GUARD,
    EvalResult,
    LogPolar,
    _mpf_fraction,
    default_precision,
    family_eval,
    family_floor,
    log_derivative,
    log_eval,
    precision_scope,
    sector_divergence,
    small_product_constant,
    spherical_derivative,
)
from rankzero.evaluator import (
    _float_tail,
    _floor_log_bound,
    _log_one_minus_exp,
    _log_product,
    _norm_phase,
    _screened,
    _spherical_log_bound,
    _tail_bound,
    _zero_constants,
)
from rankzero.ordinal import as_ordinal
from rankzero.pointset import Leaf
from rankzero.probe import GeometricMean, RatioPlus, dilation_factor
from rankzero.schedule import (
    Zero,
    ZeroSchedule,
    build_radii,
    build_row_schedule,
    build_sector_schedule,
)


def make_schedule(zeros, n_rings=6):
    radii = build_radii(max(3, n_rings))
    return ZeroSchedule(
        "rows", as_ordinal(1), 1, radii, tuple(zeros),
        {0: tuple(sorted({z.turn for z in zeros}))}, {0: None},
    )


def truncated(schedule, rows):
    """The schedule cut to the zeros of its first rows rings."""
    return replace(schedule, zeros=schedule.zeros[:schedule.through(rows)])


class SectorBound(NamedTuple):
    ring: int
    lhs: object  # computed log |f_truncated(z)|
    certified_lhs: object  # lhs minus the truncation tail bound
    rhs: object  # divergence bound log K_n for this ring at the given angular gap
    passed: bool  # certified_lhs >= rhs


def _sector_bound_check(schedule, z, alpha0):
    """Criterion 6's check at one point, without screening: the ring n of
    z, its log_eval value and floor, log K_n and whether the floor reaches
    it, after the checks sector_divergence makes."""
    with mp.workprec(default_precision() + _GUARD):
        alpha0 = evaluator._checked_alpha0(alpha0)
        n = evaluator._sector_ring(schedule, z, alpha0, evaluator._ray_arcs(schedule))
        res = log_eval(schedule, z)
        rhs = evaluator._divergence_bound(n, alpha0)
        return SectorBound(n, res.value.log_mag, res.floor, rhs, bool(res.floor >= rhs))


@pytest.fixture(scope="module")
def sched():
    return build_row_schedule(3, 1, 12)


@pytest.fixture
def log_eval_calls(monkeypatch):
    """The arguments of every log_eval call looked up through the evaluator
    module, which is how its own functions call it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return log_eval(*args, **kwargs)

    monkeypatch.setattr(evaluator, "log_eval", counted)
    return calls


class TestKernel:
    def brute(self, s):
        with mp.workprec(400):
            v = 1 - mp.exp(s)
            return (mp.log(abs(v)), mp.arg(v))

    @pytest.mark.parametrize(
        "re,im",
        [(39.999, 0.3), (40.001, 0.3), (-39.999, -0.7), (-40.001, -0.7),
         (0.2, 0.1), (1e-9, 1e-9), (-0.3, 3.0), (5.0, -2.0), (200.0, 1.0),
         (-500.0, 0.5)],
    )
    def test_matches_brute_force_across_seams(self, re, im):
        with mp.workprec(230):
            s = mp.mpc(re, im)
            mag, ph = _log_one_minus_exp(s)
        bm, bp = self.brute(s)
        assert abs(mag - bm) < mp.mpf("1e-55")
        assert abs(ph - bp) < mp.mpf("1e-55")

    def test_exact_unit(self):
        with mp.workprec(230):
            mag, ph = _log_one_minus_exp(mp.mpc(0, 0))
        assert mag == mp.ninf


def _reference_norm_phase(x):
    """_norm_phase without its fast path: every input through mp.fmod."""
    two_pi = 2 * mp.pi
    x = mp.fmod(x, two_pi)
    if x > mp.pi:
        x -= two_pi
    elif x <= -mp.pi:
        x += two_pi
    return x


def _reference_kernel(s):
    """_log_one_minus_exp with every phase through _reference_norm_phase."""
    re = mp.re(s)
    if re >= 40:
        rest = mp.log(1 - mp.exp(-s))
        return re + mp.re(rest), _reference_norm_phase(mp.pi + mp.im(s) + mp.im(rest))
    if re <= -40:
        v = mp.log(1 - mp.exp(s))
        return mp.re(v), _reference_norm_phase(mp.im(v))
    d = 1 - mp.exp(s)
    if d == 0:
        return mp.ninf, mp.mpf(0)
    if abs(d) < mp.mpf(1) / 2:
        d = -mp.expm1(s)
        if d == 0:
            return mp.ninf, mp.mpf(0)
    return mp.log(abs(d)), mp.arg(d)


def _reference_log_product(table, log_mag, phase):
    """_log_product without its cut: every factor of the table, in order."""
    mag = ph = mp.mpf(0)
    for log_r, angle in table:
        m, p = _reference_kernel(mp.mpc(log_mag - log_r, _reference_norm_phase(phase - angle)))
        if m == mp.ninf:
            return mp.ninf, mp.mpf(0)
        mag += m
        ph += p
    return mag, ph


PRODUCT_TABLES = {
    "criteria-6-8": lambda: build_row_schedule(3, 1, 12),
    "sector-6": lambda: build_sector_schedule(3, 6),
}


@pytest.fixture(scope="module")
def product_schedules():
    return {name: build() for name, build in PRODUCT_TABLES.items()}


@pytest.fixture
def kernel_calls(monkeypatch):
    """A count of _log_one_minus_exp calls made through the evaluator module."""
    calls = []

    def counted(s):
        calls.append(s)
        return _log_one_minus_exp(s)

    monkeypatch.setattr(evaluator, "_log_one_minus_exp", counted)
    return calls


class TestProductCut:
    @pytest.mark.parametrize("prec", [64 + _GUARD, 200 + _GUARD])
    @pytest.mark.parametrize("name", sorted(PRODUCT_TABLES))
    @given(
        st.data(),
        st.sampled_from(["free", "aligned", "at-zero", "without-zero"]),
        st.integers(-2**40, 2**40),
        st.floats(-math.pi, math.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_cut_product_equals_the_whole_product(
        self, product_schedules, name, prec, data, mode, nudge, phase
    ):
        """Bit for bit.  z lies gap below the radius of entry k, off the
        float grid, with the gap spread widely or drawn near the cut for sums
        of size 1; at k = 0 a large gap makes both sums small, down to float
        underflow.  "aligned" puts the zeros below k on the positive axis
        and z on the negative one, so the phase sum stays near 0 while the
        modulus sum grows.  "at-zero" puts z on entry k, and "without-zero"
        also takes that entry out of the table, as _derivative_at_zero
        does."""
        with mp.workprec(prec):
            table = _zero_constants(product_schedules[name])
            k = data.draw(st.one_of(st.just(0), st.integers(0, len(table) - 1)))
            near = (prec + evaluator._CUT_BITS + 1) * math.log(2)
            gap = data.draw(st.one_of(st.floats(-5, 900), st.floats(near - 12, near + 12)))
            log_r, angle = table[k]
            log_mag = log_r - gap + mp.mpf(nudge) * mp.mpf(2) ** -(prec - 10)
            z_phase = mp.mpf(phase)
            if mode == "aligned":
                table = tuple((r, mp.mpf(0)) for r, _ in table[:k]) + table[k:]
                z_phase = +mp.pi
            elif mode != "free":
                log_mag, z_phase = log_r, _norm_phase(angle)
            if mode == "without-zero":
                table = table[:k] + table[k + 1:]
            got = _log_product(table, log_mag, z_phase)
            want = _reference_log_product(table, log_mag, z_phase)
            assert got[0] == want[0] and got[1] == want[1]

    @pytest.mark.parametrize("prec", [64 + _GUARD, 200 + _GUARD])
    @given(
        st.floats(0, 760),
        st.floats(-20, 20),
        st.floats(0, 2),
        st.lists(st.floats(0, 2 * math.pi), min_size=2, max_size=5),
        st.floats(-math.pi, math.pi),
    )
    @settings(max_examples=80, deadline=None)
    def test_cut_product_equals_the_whole_product_at_the_edge(
        self, prec, depth, offset, spacing, angles, phase
    ):
        """Bit for bit on a two-scale table.  A zero of modulus 1, e^depth
        times |z|, leaves sums of size about e^-depth, down to float
        underflow; the later zeros start within 20 log units of where a
        factor stops moving the smaller sum in exact arithmetic (2q below
        2^-(p+2) of it), which is where a cut that is too eager shows."""
        with mp.workprec(prec):
            log_mag, z_phase = mp.mpf(-depth), mp.mpf(phase)
            first = ((mp.mpf(0), mp.mpf(angles[0])),)
            mag, ph = _reference_log_product(first, log_mag, z_phase)
            least = min(abs(float(mag)), abs(float(ph)), 1.0)
            edge = (prec + 3) * math.log(2) + math.log(max(least, 1e-300)) + offset
            table = first + tuple(
                (log_mag + edge + i * spacing, mp.mpf(angle))
                for i, angle in enumerate(angles[1:])
            )
            got = _log_product(table, log_mag, z_phase)
            want = _reference_log_product(table, log_mag, z_phase)
            assert got[0] == want[0] and got[1] == want[1]

    @pytest.mark.parametrize("name", sorted(PRODUCT_TABLES))
    def test_vanishing_factor_gives_minus_infinity(self, product_schedules, name):
        with mp.workprec(200 + _GUARD):
            table = _zero_constants(product_schedules[name])
            for log_r, angle in (table[0], table[-1]):
                got = _log_product(table, log_r, _norm_phase(angle))
                assert got == _reference_log_product(table, log_r, _norm_phase(angle))
                assert got == (mp.ninf, 0)

    def test_cut_drops_only_negligible_factors(self, product_schedules, kernel_calls):
        """On criteria 6/8's schedule at |z| = 1, ring 12 (log a_12 = 233)
        lies beyond the cut and ring 11 (144) before it.  With every
        partial sum near e^-800, which floats cannot hold, nothing is cut."""
        s = product_schedules["criteria-6-8"]
        with mp.workprec(200 + _GUARD):
            table = _zero_constants(s)
            _log_product(table, mp.mpf(0), mp.mpf("0.3"))
            assert len(kernel_calls) == s.through(11) == len(table) - 12
            kernel_calls.clear()
            _log_product(table, table[0][0] - 800, mp.mpf("0.3"))
            assert len(kernel_calls) == len(table)


@pytest.mark.parametrize("prec", [64 + _GUARD, 200 + _GUARD])
@given(st.floats(-3 * math.pi, math.pi), st.integers(0, 200), st.integers(-2**60, 2**60))
@settings(max_examples=60, deadline=None)
def test_norm_phase_equals_fmod(prec, x, extra, nudge):
    """On the phases _log_product reduces, (-3 pi, pi], with up to 200 bits
    more than the working precision."""
    with mp.workprec(prec + extra):
        wide = mp.mpf(x) + mp.mpf(nudge) * mp.mpf(2) ** -(prec + 10)
    with mp.workprec(prec):
        assert _norm_phase(wide) == _reference_norm_phase(wide)


@pytest.mark.parametrize("prec", [64 + _GUARD, 200 + _GUARD])
def test_norm_phase_on_edges_and_tiny_wide_inputs(prec):
    with mp.workprec(prec):
        pi = +mp.pi
        # fmod keeps -4, which is below -pi, so 2 pi is added
        edges = [mp.mpf(0), pi, -pi, 2 * pi, -3 * pi, pi / 2, mp.mpf(-4)]
    with mp.workprec(3 * prec):
        # tiny with more than prec bits: fmod returns it unrounded
        tiny = mp.mpf(2) ** -(prec + 5) * (1 + mp.mpf(2) ** -(2 * prec))
        wide = [tiny, +mp.pi, mp.pi / 3]
    with mp.workprec(prec):
        for x in edges + wide:
            assert _norm_phase(x) == _reference_norm_phase(x)
        assert _norm_phase(tiny) == tiny != +tiny


@pytest.mark.parametrize("x", [-800.0, -3.5, -1e-300, -0.0, 0.0, 1e-300, 2.0, 800.0])
def test_log_sigmoid_peak_is_even(x):
    """Bit for bit the two-branch form it replaced, on both signs."""
    old = -x - math.log1p(math.exp(-2 * x)) if x > 0 else x - math.log1p(math.exp(2 * x))
    assert evaluator._log_sigmoid_peak(x) == old == evaluator._log_sigmoid_peak(-x)


class TestLogEval:
    def test_value_at_origin_is_one(self, sched):
        res = log_eval(truncated(sched, 8), LogPolar.origin())
        assert res.value.log_mag == 0 and res.value.phase == 0
        assert res.valid and res.tail_log_bound == 0

    def test_exact_zero_hit(self, sched):
        z = LogPolar.from_exact(F(1), sched.enumeration()[0])
        res = log_eval(sched, z)
        assert res.value.is_zero

    def test_zero_outside_truncation_not_hit(self, sched):
        z = LogPolar.from_exact(F(55), sched.enumeration()[0])  # ring 9 zero
        res = log_eval(truncated(sched, 8), z)
        assert not res.value.is_zero
        # the modulus breaks the tail hypothesis for 8 rings
        assert res.tail_log_bound == mp.inf and not res.valid

    def test_valid_is_read_off_the_tail_bound(self, sched):
        assert [f.name for f in fields(EvalResult)] == ["value", "tail_log_bound"]
        z = LogPolar(mp.mpf("2.5"), mp.pi / 5)
        assert log_eval(truncated(sched, 8), z).valid
        assert not log_eval(truncated(sched, 4), z).valid
        assert EvalResult(LogPolar.origin(), mp.mpf(0)).valid

    def test_mp_position_of_a_zero_without_exact_tag(self, sched):
        """A point that is a scheduled zero to the last bit, with no exact
        tag: the product loop finds the vanishing factor itself."""
        zero = sched.zeros[0]
        assert zero.turn < F(1, 2)  # its angle is its phase
        with mp.workprec(default_precision() + _GUARD):
            log_b, angle = _zero_constants(sched)[0]
            z = LogPolar(log_b, angle)
        res = log_eval(sched, z)
        assert res.value.is_zero and res.tail_log_bound == 0 and res.valid
        assert spherical_derivative(sched, 1, z) == mp.inf

    def test_matches_direct_product(self, sched):
        with mp.workprec(300):
            w = mp.exp(mp.mpc("2.5", 0)) * mp.exp(mp.mpc(0, 1) * mp.pi / 5)
            prod = mp.mpc(1)
            for z in sched.zeros:
                if z.ring <= 8:
                    b = mp.exp(mp.mpc(int(z.log_r), 0)) * mp.exp(
                        mp.mpc(0, 2) * mp.pi * mp.mpf(z.turn.numerator) / z.turn.denominator
                    )
                    prod *= 1 - w / b
            expect_mag = mp.log(abs(prod))
            got = log_eval(truncated(sched, 8), LogPolar(mp.mpf("2.5"), mp.pi / 5))
            assert abs(got.value.log_mag - expect_mag) < mp.mpf("1e-50")

    def test_truncation_consistency(self, sched):
        z = LogPolar(mp.mpf("2.5"), mp.pi / 5)
        r8 = log_eval(truncated(sched, 8), z)
        r12 = log_eval(sched, z)
        assert r8.valid
        assert abs(r8.value.log_mag - r12.value.log_mag) <= r8.tail_log_bound

    def test_conjugate_symmetry(self):
        zeros = (
            Zero(1, F(1), F(1, 8)), Zero(1, F(1), F(7, 8)),
            Zero(2, F(2), F(1, 8)), Zero(2, F(2), F(7, 8)),
        )
        s = make_schedule(zeros)
        a = log_eval(s, LogPolar(mp.mpf("1.5"), mp.mpf("0.9")))
        b = log_eval(s, LogPolar(mp.mpf("1.5"), -mp.mpf("0.9")))
        assert abs(a.value.log_mag - b.value.log_mag) < mp.mpf("1e-50")
        assert abs(a.value.phase + b.value.phase) < mp.mpf("1e-50")

    def test_tail_bound_encloses_its_exact_input(self, sched):
        with mp.workprec(230):
            third = mp.mpf(1) / 3
            x = third + mp.mpf(2) ** -200
            # a 40-digit rounding cannot tell x from 1/3 ...
            assert mp.nstr(x, 40) == mp.nstr(third, 40)
            # ... but the tail grows with the modulus, so its bound must too
            s = truncated(sched, 3)
            assert _tail_bound(s, x) > _tail_bound(s, third)


@pytest.mark.parametrize("rows", [12, 10, 4])
@given(st.floats(0, 1000), st.integers(-2**40, 2**40))
@settings(max_examples=40, deadline=None)
def test_float_tail_bounds_the_certified_tail(sched, rows, depth, nudge):
    """Across the tail hypothesis of criteria 6 and 8's schedule, cut to
    rows rings: log_mag up to 1000 below log a_(rows - 2), where the float
    terms underflow, and off the float grid."""
    s = truncated(sched, rows)
    with precision_scope(200), mp.workprec(default_precision() + _GUARD):
        top = _mpf_fraction(s.radii.log_radius(rows - 2))
        log_mag = min(top, top - depth + mp.mpf(nudge) * mp.mpf(2) ** -90)
        tail = _float_tail(s, log_mag)
        assert _tail_bound(s, log_mag) <= tail < math.inf


def test_float_tail_is_infinite_at_the_first_radius_past_the_schedule(sched):
    with mp.workprec(default_precision() + _GUARD):
        log_mag = _mpf_fraction(sched.radii.log_radius(sched.n_rings + 1))
        assert _float_tail(sched, log_mag) == math.inf


@pytest.mark.parametrize("rows", [8, 10, 12])
def test_sector_bound_check_reads_the_rings_of_its_schedule(sched, rows):
    """A caller that wants fewer rings passes a shorter schedule: the check
    on the first rows rings is log_eval truncated there."""
    z = LogPolar(mp.mpf("4.5"), mp.mpf("-2.5"))
    rep = _sector_bound_check(truncated(sched, rows), z, 0.3)
    with mp.workprec(default_precision() + _GUARD):
        res = log_eval(truncated(sched, rows), z)
        assert rep.lhs == res.value.log_mag
        assert rep.certified_lhs == res.floor
        assert sector_divergence(truncated(sched, rows), [z], 0.3).floor == res.floor


class TestFamily:
    def test_unit_dilation_is_identity(self, sched):
        z = LogPolar(mp.mpf("2.5"), mp.pi / 5)
        s = truncated(sched, 8)
        assert family_eval(s, 1, z).value.log_mag == log_eval(s, z).value.log_mag

    def test_zero_fidelity_through_dilation(self, sched):
        c1 = sched.enumeration()[0]
        j = 5962
        z = LogPolar.from_exact(F(8), c1, den=j)  # a_5 c_1 / j
        assert family_eval(sched, j, z).value.is_zero

    def test_rejects_bad_factor(self, sched):
        with pytest.raises(ValueError):
            LogPolar.origin().scaled_by_int(0)


class TestLogDerivative:
    def test_single_zero(self):
        s = make_schedule([Zero(1, F(1), F(0))])
        with mp.workprec(300):
            z = LogPolar(mp.mpf("0.5"), mp.mpf("1.0"))
            got = log_derivative(s, z).to_complex()
            expect = 1 / (z.to_complex() - mp.exp(mp.mpc(1, 0)))
            assert abs(got - expect) < mp.mpf("1e-50")

    def test_antipodal_pair_cancels_at_origin(self):
        s = make_schedule([Zero(1, F(1), F(0)), Zero(1, F(1), F(1, 2))])
        got = log_derivative(s, LogPolar.origin())
        assert got.is_zero or got.log_mag < -100

    def test_pole_at_zero_rejected(self, sched):
        z = LogPolar.from_exact(F(1), sched.enumeration()[0])
        with pytest.raises(ValueError):
            log_derivative(sched, z)

    def test_truncation_stability(self, sched):
        z = LogPolar(mp.mpf(7), mp.mpf("2.0"))
        d8 = log_derivative(truncated(sched, 8), z).to_complex()
        d12 = log_derivative(sched, z).to_complex()
        assert abs(d8 - d12) / abs(d12) < mp.mpf("1e-6")


def _exhaustive_floor(schedule, j, points):
    """The floor without screening: family_eval at every point."""
    values = []
    for z in points:
        res = family_eval(schedule, j, z)
        values.append(res.value.log_mag - res.tail_log_bound)
    return min(values)


def _circle(log_mag, count=36):
    return [LogPolar(log_mag, 2 * mp.pi * i / count - mp.pi) for i in range(count)]


def _zero_preimages(schedule, j, ring):
    return [LogPolar.from_exact(z.log_r, z.turn, den=j)
            for z in schedule.zeros_in_ring(ring)]


# (schedule, rule, k, points): criterion 8's circle |z| = 1/2; a ratio-plus
# circle next to the ring it pins, alone and with that ring's exact zero
# preimages; the first 10 rings, whose tail hypothesis fails on the outer
# of two circles; exact preimages alone
FLOOR_CASES = {
    **{f"criterion-8-k{k}": (lambda s: s, GeometricMean(F(1)), k,
                             lambda s, j: _circle(-mp.log(2)))
       for k in range(4, 9)},
    "pinned-ring": (lambda s: s, RatioPlus(F(1, 2)), 6, lambda s, j: _circle(-mp.log(2), 12)),
    "pinned-ring-preimages": (lambda s: s, RatioPlus(F(1, 2)), 6,
                              lambda s, j: _circle(-mp.log(2), 12) + _zero_preimages(s, j, 6)),
    "two-circles-rows-10": (lambda s: truncated(s, 10), RatioPlus(F(1, 2)), 5,
                            lambda s, j: _circle(mp.mpf(20), 12) + _circle(mp.mpf(30), 12)),
    "preimages-only": (lambda s: s, RatioPlus(F(1, 2)), 7, lambda s, j: _zero_preimages(s, j, 3)),
}


class TestFloor:
    @pytest.mark.parametrize("case", sorted(FLOOR_CASES))
    def test_screened_floor_equals_exhaustive_floor(self, sched, case):
        make, rule, k, make_points = FLOOR_CASES[case]
        s = make(sched)
        j = dilation_factor(rule, s.radii, k)
        points = make_points(s, j)
        # mpf ==, at the caller's precision
        assert family_floor(s, j, points) == _exhaustive_floor(s, j, points)

    @pytest.mark.parametrize("case", sorted(FLOOR_CASES))
    def test_floor_bounds_are_below_every_certified_value(self, sched, case):
        make, rule, k, make_points = FLOOR_CASES[case]
        s = make(sched)
        j = dilation_factor(rule, s.radii, k)
        for z in make_points(s, j):
            with mp.workprec(default_precision() + _GUARD):
                bound = _floor_log_bound(s, j, z)
            if z.exact is not None:
                assert bound == -math.inf
            if bound != -math.inf:
                res = family_eval(s, j, z)
                assert bound <= res.value.log_mag - res.tail_log_bound

    def test_empty_point_set_is_rejected(self, sched):
        with pytest.raises(ValueError):
            family_floor(sched, 5, [])

    def test_criterion8_makes_few_product_evaluations(self, log_eval_calls):
        calls = log_eval_calls
        with precision_scope(200):
            assert verification.check_geometric_mean_immunity().passed
        # the unscreened criterion evaluates all 36 points for each of 5 k
        assert len(calls) <= 15


class TestSpherical:
    def test_empty_schedule_is_flat(self):
        s = make_schedule([])
        assert spherical_derivative(s, 1, LogPolar(mp.mpf(1), mp.mpf(0))) == 0

    def test_value_at_simple_zero_is_derivative_modulus(self, sched):
        c1 = sched.enumeration()[0]
        z = LogPolar.from_exact(F(1), c1)
        got = spherical_derivative(sched, 1, z)
        # brute force: product over the other zeros, divided by |b|
        with mp.workprec(300):
            b0 = mp.exp(mp.mpc(1, 0)) * mp.exp(mp.mpc(0, 2) * mp.pi * mp.mpf(c1.numerator) / c1.denominator)
            prod = mp.mpc(1)
            for z2 in sched.zeros:
                b = mp.exp(mp.mpc(int(z2.log_r), 0)) * mp.exp(
                    mp.mpc(0, 2) * mp.pi * mp.mpf(z2.turn.numerator) / z2.turn.denominator
                )
                if abs(b - b0) < mp.mpf("1e-40"):
                    continue
                prod *= 1 - b0 / b
            expect = abs(prod) / abs(b0)
        assert abs(got - expect) / expect < mp.mpf("1e-40")

    def test_doubled_zero_has_zero_derivative(self):
        # listed twice, b = a_2 e^(2 pi i / 8) is a double zero: f'(b) = 0
        zeros = [Zero(2, F(2), F(1, 8)), Zero(3, F(3), F(3, 8))]
        b = LogPolar.from_exact(F(2), F(1, 8))
        doubled = make_schedule(zeros[:1] * 2 + zeros[1:], n_rings=4)
        assert spherical_derivative(doubled, 1, b) == 0
        assert spherical_derivative(make_schedule(zeros, n_rings=4), 1, b) > 0

    @pytest.mark.parametrize("j", [1, 3])
    def test_screen_bound_at_a_zero(self, j):
        # finite and above j f#(b) = j |f'(b)| at a simple zero b; +inf at a
        # doubled one, where floats give up
        zeros = [Zero(2, F(2), F(1, 8)), Zero(3, F(3), F(3, 8)), Zero(3, F(3), F(1, 2))]
        simple = make_schedule(zeros, n_rings=4)
        doubled = make_schedule(zeros[:1] * 2 + zeros[1:], n_rings=4)
        with mp.workprec(default_precision() + _GUARD):
            b = LogPolar.from_exact(F(2), F(1, 8), den=j)
            bound = _spherical_log_bound(simple, j, b)
            assert mp.log(j * spherical_derivative(simple, j, b)) <= bound < math.inf
            assert _spherical_log_bound(doubled, j, b) == math.inf

    def test_near_zero_dominates_far_on_sparse_schedule(self):
        s = make_schedule([Zero(3, F(3), F(0))])
        near = spherical_derivative(s, 1, LogPolar(mp.mpf(3) + mp.log(mp.mpf("1.001")), mp.mpf(0)))
        far = spherical_derivative(s, 1, LogPolar(mp.mpf(3) + mp.log(mp.mpf("1.5")), mp.mpf(0)))
        assert near > far


class TestSectorBound:
    def test_passes_off_ray(self, sched):
        rep = _sector_bound_check(sched, LogPolar(mp.mpf(4), mp.pi), 0.3)
        assert rep.ring == 3
        assert rep.passed

    def test_rejects_small_modulus(self, sched):
        with pytest.raises(ValueError):
            _sector_bound_check(sched, LogPolar(mp.mpf("0.5"), mp.pi), 0.3)

    def test_rejects_on_ray(self, sched):
        c1 = sched.enumeration()[0]
        z = LogPolar(mp.mpf(4), 2 * mp.pi * mp.mpf(c1.numerator) / c1.denominator)
        with pytest.raises(ValueError, match="ray"):
            _sector_bound_check(sched, z, 0.3)

    @pytest.mark.parametrize("alpha, nu, n_max", [(3, 2, 8), (1, 3, 2)])
    def test_rejects_ray_at_source_piece_without_zeros(self, alpha, nu, n_max):
        # the last member of the source forest (a cluster, then a point)
        # hosts no zero, so only the check against source pieces catches it
        s = build_row_schedule(alpha, nu, n_max)
        last = s.source_tree().members[-1]
        turn = last.angle if isinstance(last, Leaf) else last.arc.center
        assert all(z.turn < turn for z in s.zeros)
        z = LogPolar(mp.mpf(4), 2 * mp.pi * mp.mpf(turn.numerator) / turn.denominator)
        with pytest.raises(ValueError, match="zero arc"):
            _sector_bound_check(s, z, 0.01)

    def test_small_product_constant(self):
        lo, hi = small_product_constant()
        assert lo <= hi
        assert abs(lo - mp.mpf("0.288788095086602")) < mp.mpf("1e-12")

    def test_small_product_constant_encloses_double_precision_product(self):
        with precision_scope(200):
            lo, hi = small_product_constant()
        with mp.workprec(2 * 230):
            terms = 470
            prod = mp.mpf(1)
            for j in range(1, terms + 1):
                prod *= 1 - mp.mpf(2) ** -j
            # the infinite product lies in [prod * (1 - 2^(1-terms)), prod]
            assert lo <= prod * (1 - mp.mpf(2) ** (1 - terms))
            assert hi >= prod

    def test_small_product_constant_is_memoized_per_precision(self):
        with precision_scope(200):
            pair = small_product_constant()
            assert small_product_constant() is pair
        with precision_scope(120):
            other = small_product_constant()
        assert other is not pair and other != pair


def _exhaustive_divergence(schedule, points, alpha0):
    """Criterion 6 without screening: _sector_bound_check at every point."""
    return [_sector_bound_check(schedule, z, alpha0) for z in points]


def _exact_samples(schedule, n):
    """Criterion 6's samples of ring n as exact-tagged points, where floats
    give up."""
    lo, hi = schedule.radii.log_radius(n), schedule.radii.log_radius(n + 1)
    return [LogPolar.from_exact(lo + (hi - lo) * F(i, 5), F(1, 8) + d)
            for d in (F(1, 8), F(1, 4), F(3, 8), F(1, 2)) for i in range(1, 6)]


def _clustered_schedule():
    """Twenty zeros on ring 1 within 0.06 rad of turn 0 and one on each of
    rings 2-4: more zeros near a ray than the construction puts there, so
    the divergence bound fails beside them."""
    zeros = [Zero(1, F(1), F(k, 2000)) for k in range(20)]
    zeros += [Zero(n, F(log_r), F(0)) for n, log_r in ((2, 2), (3, 3), (4, 5))]
    return make_schedule(zeros, 4)


# (schedule, points, alpha0): criterion 6's samples per ring;
# those of ring 5 as exact-tagged points, so every flag falls back to
# log_eval; ring 5's samples with exact-tagged ring-6 points, evaluated
# first for their -inf bounds though their values are higher; two points
# beside a cluster of zeros, where the bound fails and floats cannot decide
# (the floor needs only the first), and one that passes
DIVERGENCE_CASES = {
    **{f"criterion-6-ring-{n}": (lambda s: s,
                                 lambda s, n=n: verification._divergence_samples(s, n), 0.3)
       for n in range(3, 9)},
    "exact-tagged": (lambda s: s, lambda s: _exact_samples(s, 5), 0.3),
    "mixed": (lambda s: s,
              lambda s: verification._divergence_samples(s, 5) + _exact_samples(s, 6)[:5],
              0.3),
    "clustered-zeros": (lambda s: _clustered_schedule(),
                        lambda s: [LogPolar(mp.mpf("1.01"), mp.mpf("0.3666")),
                                   LogPolar(mp.mpf("1.01"), mp.mpf("0.5")),
                                   LogPolar(mp.mpf("1.5"), mp.pi)],
                        0.3),
}


@pytest.fixture(scope="module")
def divergence_case(sched):
    """(schedule, points, alpha0, reference reports) per case of
    DIVERGENCE_CASES, the exhaustive reports computed once per case."""
    memo = {}

    def case(name):
        if name not in memo:
            make, make_points, alpha0 = DIVERGENCE_CASES[name]
            s = make(sched)
            points = make_points(s)
            memo[name] = s, points, alpha0, _exhaustive_divergence(s, points, alpha0)
        return memo[name]

    return case


def _ray_at_source_piece():
    """A ray on the last source piece of row (3, 2, 8), which hosts no zero."""
    s = build_row_schedule(3, 2, 8)
    turn = s.source_tree().members[-1].arc.center
    return s, LogPolar(mp.mpf(4), 2 * mp.pi * _mpf_fraction(turn)), 0.01


# (schedule, point, alpha0) that _sector_bound_check rejects
BAD_DIVERGENCE_INPUTS = {
    "alpha0": lambda s: (s, LogPolar(mp.mpf(4), mp.pi), 0),
    "small-modulus": lambda s: (s, LogPolar(mp.mpf("0.5"), mp.pi), 0.3),
    "zero-ray": lambda s: (s, LogPolar(mp.mpf(4), 2 * mp.pi * _mpf_fraction(s.enumeration()[0])),
                           0.3),
    "source-piece": lambda s: _ray_at_source_piece(),
    "tail": lambda s: (truncated(s, 6), LogPolar(mp.mpf(30), mp.pi), 0.3),
}


class TestSectorDivergence:
    @pytest.mark.parametrize("case", sorted(DIVERGENCE_CASES))
    def test_screened_divergence_equals_exhaustive_divergence(self, divergence_case, case):
        s, points, alpha0, reports = divergence_case(case)
        div = sector_divergence(s, points, alpha0)
        assert div.rings == tuple(r.ring for r in reports)
        assert div.passed == tuple(r.passed for r in reports)
        # mpf ==, at the guarded precision of _sector_bound_check
        assert div.floor == min(r.certified_lhs for r in reports)

    @pytest.mark.parametrize("case", sorted(DIVERGENCE_CASES))
    def test_divergence_bounds_are_below_every_certified_value(self, divergence_case, case):
        s, points, alpha0, reports = divergence_case(case)
        finite = 0
        for z, rep in zip(points, reports):
            with mp.workprec(default_precision() + _GUARD):
                bound = _floor_log_bound(s, 1, z)
            if z.exact is not None:
                assert bound == -math.inf
            if bound != -math.inf:
                finite += 1
                assert bound <= rep.certified_lhs
        assert finite > 0 or case == "exact-tagged"

    def test_undecided_points_fall_back_to_log_eval(self, divergence_case, log_eval_calls):
        calls = log_eval_calls
        exact, clustered = divergence_case("exact-tagged"), divergence_case("clustered-zeros")
        calls.clear()  # the references' own calls
        s, points, alpha0, _ = exact
        assert all(sector_divergence(s, points, alpha0).passed)
        assert len(calls) == len(points)  # each point once, for its flag or the floor
        calls.clear()
        s, points, alpha0, _ = clustered
        div = sector_divergence(s, points, alpha0)
        assert div.passed == (False, False, True)
        # the floor evaluates the first point, the second one's flag needs it
        assert [args[1] for args in calls] == points[:2]

    @pytest.mark.parametrize("case", sorted(BAD_DIVERGENCE_INPUTS))
    def test_rejects_what_sector_bound_check_rejects(self, sched, case):
        s, bad, alpha0 = BAD_DIVERGENCE_INPUTS[case](sched)
        with pytest.raises(ValueError) as single:
            _sector_bound_check(s, bad, alpha0)
        good = LogPolar(mp.mpf("4.5"), mp.mpf("-2.5"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(single.value))}$"):
            sector_divergence(s, [good, bad], alpha0)

    def test_empty_point_set_is_rejected(self, sched):
        with pytest.raises(ValueError):
            sector_divergence(sched, [], 0.3)

    def test_flag_concedes_the_tail(self):
        s = _clustered_schedule()
        z = LogPolar(mp.mpf("1.01"), mp.mpf("0.6"))
        rep = _sector_bound_check(s, z, 0.3)
        tail = rep.lhs - rep.certified_lhs
        assert rep.ring == 1 and tail > 0
        # alpha0 that puts log K_1 = 6 log sin(alpha0/2) + log k0 halfway
        # between the certified value and the truncated product's
        k0_low, _ = small_product_constant()
        with mp.workprec(default_precision() + _GUARD):
            alpha0 = 2 * mp.asin(mp.exp((rep.certified_lhs + tail / 2 - mp.log(k0_low)) / 6))
        rep = _sector_bound_check(s, z, alpha0)
        assert rep.certified_lhs < rep.rhs < rep.lhs
        assert not rep.passed
        assert sector_divergence(s, [z], alpha0).passed == (False,)

    def test_criterion6_makes_few_product_evaluations(self, log_eval_calls):
        calls = log_eval_calls
        with precision_scope(200):
            assert verification.check_sector_divergence().passed
        # the unscreened criterion evaluates all 20 points of each of 6 rings
        assert len(calls) <= 12


@pytest.mark.parametrize("call", [
    pytest.param(lambda s: family_floor(s, 5, _circle(-mp.log(2), 12)), id="family_floor"),
    pytest.param(lambda s: sector_divergence(s, verification._divergence_samples(s, 4), 0.3),
                 id="sector_divergence"),
])
def test_crossed_floor_bound_raises(sched, monkeypatch, call):
    monkeypatch.setattr(evaluator, "_floor_log_bound", lambda *args: 1e9)
    with pytest.raises(ArithmeticError, match="screen bound"):
        call(sched)


class TestScreened:
    def screen(self, bounds, values):
        seen = []

        def certify(k):
            seen.append(k)
            return values[k]

        return _screened(bounds, certify), seen

    def test_order_ties_and_stop(self):
        bounds = [3.0, -math.inf, 2.0, 2.0, 4.0, 2.5]
        values = [3.5, 2.0, 2.0, 2.2, 4.0, 2.5]
        found, seen = self.screen(bounds, values)
        # -inf first, equal bounds in index order, a bound equal to the least
        # value still evaluated, then a stop at the first greater bound
        assert seen == [1, 2, 3]
        assert list(found) == seen
        assert found == {1: 2.0, 2: 2.0, 3: 2.2}

    def test_stops_only_on_a_strictly_greater_bound(self):
        assert self.screen([1.0, 1.0], [1.0, 5.0])[1] == [0, 1]
        assert self.screen([1.0, math.nextafter(1.0, 2.0)], [1.0, 5.0])[1] == [0]

    def test_mpf_values_and_infinite_values(self):
        found, seen = self.screen([0.5, -math.inf, 0.25], [mp.mpf(1), mp.inf, mp.mpf("0.3")])
        # an infinite least value stops nothing; 0.3 then stops at 0.5
        assert seen == [1, 2]
        assert min(found.values()) == mp.mpf("0.3")

    def test_crossed_bound_raises(self):
        with pytest.raises(ArithmeticError, match="screen bound"):
            self.screen([-math.inf, 1.0], [2.0, 0.5])


def test_precision_scope_is_local():
    assert default_precision() == 200
    with precision_scope(80):
        assert default_precision() == 80
        with precision_scope(10):
            assert default_precision() == 64
        assert default_precision() == 80
    assert default_precision() == 200
