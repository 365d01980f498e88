import inspect
import math
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv, mp

import rankzero.evaluator as evaluator
import rankzero.probe as probe
from rankzero import verification
from rankzero.evaluator import (
    _GUARD,
    LogPolar,
    _mpf_fraction,
    _spherical_log_bound,
    _zero_constants,
    default_precision,
    precision_scope,
    spherical_derivative,
)
from rankzero.ordinal import OMEGA
from rankzero.pointset import canonical_json
from rankzero.probe import (
    GeometricMean,
    RatioPlus,
    Sector,
    SweepRow,
    classify,
    condition_m_sweep,
    dilation_factor,
    dilation_factors,
    non_c0_certificate,
    order_report,
)
from rankzero.schedule import (
    build_limit_schedule,
    build_radii,
    build_row_schedule,
    build_sector_schedule,
    triangular,
)
from rankzero.schedule import _iv_fraction, _iv_prec

HALF = F(1, 2)


def _center(turn, modulus):
    return _mpf_fraction(modulus) * mp.exp(mp.mpc(0, 2 * mp.pi * _mpf_fraction(turn)))


def _full(z):
    """A mesh point at full precision: a grid point built, a zero preimage
    as it is."""
    return z.full() if isinstance(z, probe._GridPoint) else z


def _forced_mesh(schedule, j, turn, modulus, radius):
    return [_full(z) for z in probe._mesh(schedule, j, turn, modulus, radius)]


def _exhaustive_sweep(schedule, points, rule, n_range):
    """The sweep without screening: spherical_derivative at every mesh point,
    every grid point built at full precision.

    Returns the rows and, per row, (j, [(z, j * f#(j z)) per mesh point z]),
    z as _mesh gives it to the screen.
    """
    rows = schedule.n_rings
    out = []
    meshes = []
    with mp.workprec(default_precision() + 30):
        for n in n_range:
            j = dilation_factor(rule, schedule.radii, n)
            radius = mp.mpf(1) / n
            for i, (turn, modulus) in enumerate(points, start=1):
                turn, modulus = F(turn), F(modulus)
                center = _center(turn, modulus)
                top_log = mp.log(mp.mpf(j)) + mp.log(abs(center) + radius)
                valid = rows >= 3 and top_log <= _mpf_fraction(
                    schedule.radii.log_radius(rows - 2)
                )
                best = mp.mpf(0)
                values = []
                for z in probe._mesh(schedule, j, turn, modulus, radius):
                    sd = mp.mpf(j) * spherical_derivative(schedule, j, _full(z))
                    values.append((z, sd))
                    if sd > best:
                        best = sd
                out.append(SweepRow(n, i, best, bool(valid)))
                meshes.append((j, values))
    return out, meshes


def _zero_intervals(schedule, j, r, turn):
    """The interval distance from every scheduled zero b to the target."""
    point = _iv_fraction(r) * probe._cis(turn)
    return [
        probe._cnorm(iv.exp(_iv_fraction(z.log_r)) * probe._cis(z.turn) / iv.mpf(j) - point)
        for z in schedule.zeros
    ]


def _exhaustive_zero_distance(intervals):
    """The nearest-zero search without screening: the least upper end,
    first in schedule order."""
    best = None
    for d in intervals:
        if best is None or d.b < best.b:
            best = d
    return best.a, best.b


def _enumerated(count, sector=0):
    return lambda s: s.enumeration(sector)[:count]


# (schedule, [(rule, targets, k range)]) for the certificates of criteria 7,
# 8 (a geometric-mean rule: no zero is pinned onto the target) and 10, a
# target off the source set, and a sector layout at 6 super-rows, where j_6
# has 2,305 bits for t = 1 and 6,033 bits for t = 3
CERTIFICATE_CASES = {
    "criterion-7": (lambda: build_row_schedule(3, 1, 10), [
        (RatioPlus(F(3, 10)), _enumerated(5), range(6, 11)),
        (RatioPlus(F(7, 10)), _enumerated(5), range(6, 11)),
    ]),
    "criterion-8": (lambda: build_row_schedule(3, 1, 12), [
        (GeometricMean(F(1)), _enumerated(5), range(4, 9)),
    ]),
    "criterion-10": (lambda: build_sector_schedule(2, 5), [
        (Sector(HALF, 1), _enumerated(2, 1), range(2, 6)),
        (Sector(HALF, 2), _enumerated(2, 2), range(2, 6)),
    ]),
    "off-set": (lambda: build_row_schedule(3, 1, 12), [
        (RatioPlus(HALF), lambda s: [F(5, 8)], range(6, 11)),
    ]),
    "sector-6": (lambda: build_sector_schedule(2, 6), [
        (Sector(HALF, 1), _enumerated(2, 1), range(2, 7)),
        (Sector(HALF, 3), _enumerated(1, 3), range(6, 7)),
    ]),
}


def _distance_cases(case):
    """(schedule, j, r, turn) per certificate entry of a case."""
    make, probes = CERTIFICATE_CASES[case]
    s = make()
    for rule, targets, k_range in probes:
        for k, j in dilation_factors(rule, s.radii, k_range):
            for turn in targets(s):
                yield s, j, rule.r, turn


def _certificate_precision(j):
    return max(default_precision() + _GUARD, j.bit_length() + 160)


def _criterion9_points(schedule):
    c1 = schedule.enumeration()[0]
    return [(c1, HALF), (c1 + HALF, HALF)]


def _criterion9_disks(schedule):
    """(j, turn, modulus, radius) of criterion 9's ten disks, the radius at
    the sweep's working precision."""
    for n in range(5, 10):
        j = dilation_factor(RatioPlus(HALF), schedule.radii, n)
        for turn, modulus in _criterion9_points(schedule):
            yield j, turn, modulus, mp.mpf(1) / n


def _reference_mesh(center, radius, schedule, j):
    """probe._mesh with every disk test in mp at the working precision."""
    pts = [LogPolar.from_complex(center)]
    for k in range(1, 4):
        rho = radius * mp.mpf(k) / 3
        for m in range(8 * k):
            ang = 2 * mp.pi * m / (8 * k)
            pts.append(LogPolar.from_complex(center + rho * mp.exp(mp.mpc(0, 1) * ang)))
    log_j = mp.log(mp.mpf(j))
    for z, (log_r, angle) in zip(schedule.zeros, _zero_constants(schedule)):
        pre = mp.exp(mp.mpc(mp.make_mpf(log_r) - log_j, angle))
        if abs(pre - center) <= radius:
            pts.append(LogPolar.from_exact(z.log_r, z.turn, den=j))
    return pts


def _empty(schedule):
    return type(schedule)(
        schedule.variant, schedule.alpha, schedule.nu, schedule.radii, (), {0: ()},
        {0: None},
    )


# criterion 9's schedule and points, its first 10 rings, and the empty
# schedule
SWEEP_CASES = {
    "criterion-9": lambda s: s,
    "rows-10": lambda s: replace(s, zeros=s.zeros[:s.through(10)]),
    "empty": _empty,
}


@pytest.fixture(scope="module")
def radii():
    return build_radii(12)


@pytest.fixture(scope="module")
def sched():
    return build_row_schedule(3, 1, 12)


@pytest.fixture(scope="module")
def exhaustive_sweep(sched):
    """_exhaustive_sweep of criterion 9's points over n = 5, 6 per case of
    SWEEP_CASES, computed once per case: (schedule, rows, meshes)."""
    memo = {}

    def sweep(case):
        if case not in memo:
            s = SWEEP_CASES[case](sched)
            memo[case] = (s, *_exhaustive_sweep(
                s, _criterion9_points(sched), RatioPlus(HALF), range(5, 7)))
        return memo[case]

    return sweep


class TestCertifiedFloor:
    def test_escalates_until_the_endpoints_agree(self):
        precisions = []

        def expr():
            precisions.append(iv.prec)
            return 1 - iv.mpf(2) ** -100

        assert probe._certified_floor(expr, 64) == 0
        assert precisions == [64, 128]

    def test_an_interval_across_an_integer_is_undecidable(self):
        with pytest.raises(ArithmeticError, match="floor undecidable"):
            probe._certified_floor(lambda: iv.mpf([0, 1]), 64)


class TestDilationFactors:
    def test_known_value(self, radii):
        # floor(2 e^8 + 1) with e^8 = 2980.958...
        assert dilation_factor(RatioPlus(F(1, 2)), radii, 5) == 5962

    @pytest.mark.parametrize("k", [4, 7, 9, 10])
    def test_ratio_plus_against_high_precision_floor(self, radii, k):
        r = F(1, 2)
        j = dilation_factor(RatioPlus(r), radii, k)
        with mp.workprec(600):
            x = mp.exp(int(radii.log_radius(k))) * 2 + 1
            assert j == int(mp.floor(x))
            # the defining bracket: a_k < j r < a_{k+1}
            a_k = mp.exp(int(radii.log_radius(k)))
            a_k1 = mp.exp(int(radii.log_radius(k + 1)))
            assert a_k < j * mp.mpf(1) / 2 < a_k1

    def test_geometric_mean_value(self, radii):
        j = dilation_factor(GeometricMean(F(1)), radii, 4)
        with mp.workprec(400):
            assert j == int(mp.floor(mp.exp(mp.mpf(13) / 2)))

    def test_sector_indexing(self, radii):
        rule = Sector(F(1, 2), 2)
        assert rule.radius_index(2) == 3
        assert rule.radius_index(3) == triangular(2) + 2
        with pytest.raises(ValueError):
            rule.radius_index(1)

    def test_rules_describe_themselves(self):
        assert RatioPlus(F(1, 2)).describe() == "ratio-plus:r=1/2"
        assert GeometricMean(F(3, 2)).describe() == "geometric-mean:L=3/2"
        assert Sector(F(1, 2), 2).describe() == "sector:r=1/2,t=2"

    @pytest.mark.parametrize("make", [
        lambda: RatioPlus(F(1)),
        lambda: RatioPlus(F(0)),
        lambda: GeometricMean(F(0)),
        lambda: Sector(F(3, 2), 1),
        lambda: Sector(F(1, 2), 0),
    ])
    def test_rules_reject_bad_parameters(self, make):
        with pytest.raises(ValueError):
            make()

    def test_rejects_k_below_one(self, radii):
        with pytest.raises(ValueError):
            dilation_factor(RatioPlus(F(1, 2)), radii, 0)

    def test_rejects_a_zero_factor(self, radii):
        # floor(e^(3/2) / 10) = 0: f(0 z) is no member of {f(nz) : n >= 1}
        with pytest.raises(ValueError, match="j_1 = 0"):
            dilation_factor(GeometricMean(F(1, 10)), radii, 1)

    @pytest.mark.parametrize("check, most", [
        (verification.check_zero_clustering, 10),  # 50 when each use recomputes
        (verification.check_geometric_mean_immunity, 5),  # 35 likewise
    ])
    def test_criteria_compute_each_factor_once(self, monkeypatch, check, most):
        # tracing wraps plain functions only, so the memo sits behind one
        assert inspect.isfunction(probe.dilation_factor)
        floors = []
        certified_floor = probe._certified_floor

        def counted(*args):
            floors.append(args)
            return certified_floor(*args)

        monkeypatch.setattr(probe, "_certified_floor", counted)
        probe._dilation_factor.cache_clear()
        with precision_scope(200):
            assert check().passed
        assert len(floors) <= most

    def test_strictly_increasing_enforced(self, radii):
        class Listed:
            """A rule whose factors are 10, 10, 11."""

            def factor(self, radii, k):
                return (10, 10, 11)[k - 1]

        with pytest.raises(ValueError):
            dilation_factors(Listed(), radii, range(1, 4))


class TestClassify:
    def test_ratio_plus_collapses_from_above(self, radii):
        cl = classify(RatioPlus(F(1, 2)), radii, range(4, 10))
        assert cl.branch == "toward-lower"
        lows = [g for _, g, _ in cl.trail]
        assert all(a >= b for a, b in zip(lows, lows[1:]))

    def test_geometric_mean_is_neither(self, radii):
        cl = classify(GeometricMean(F(1)), radii, range(4, 9))
        assert cl.branch == "neither"

    def test_factors_below_the_first_radius_measure_up_to_it(self, radii):
        # j_1 r and j_2 r lie below a_1 = e: their upper gaps run to a_1,
        # not to a_2, and the four do not shrink
        cl = classify(GeometricMean(F(1, 3)), radii, range(1, 5))
        assert [low for _, low, _ in cl.trail[:2]] == [None, None]
        assert [round(up, 3) for _, _, up in cl.trail] == [1.693, 0.307, 0.803, 0.295]
        assert cl.branch == "neither"

    def test_moduli_below_the_first_radius_collapse_upward(self, radii):
        xs = [mp.mpf(x) for x in ("-0.5", "-0.25", "-0.125")]
        cl = probe._branch(radii, range(1, 4), xs)
        assert cl.trail == ((1, None, 1.5), (2, None, 1.25), (3, None, 1.125))
        assert cl.branch == "toward-upper"

    def test_exact_coincidence_gives_zero_gaps(self, radii):
        # dilated moduli sitting exactly on the radii 1, 2, 3, 5, 8 (in logs),
        # which no integer factor can do; the mpf values are exact
        xs = [mp.mpf(k) for k in (1, 2, 3, 5, 8)]
        cl = probe._branch(radii, range(1, 6), xs)
        assert cl.branch == "toward-lower"
        assert all(g == 0 for _, g, _ in cl.trail)


class TestCertificates:
    def test_ratio_plus_targets_pass(self, sched):
        rule = RatioPlus(F(1, 2))
        c = sched.enumeration()
        cert = non_c0_certificate(sched, rule, c[0], F(1, 1000), range(6, 11))
        assert cert.passed
        ds = [(e.dist_low, e.dist_high) for e in cert.entries]
        assert all(b[1] < a[0] for a, b in zip(ds, ds[1:]))
        # the exact rational majorant really majorizes
        for e in cert.entries:
            assert e.rational_bound is not None
            assert e.dist_high < mp.mpf(e.rational_bound.numerator) / e.rational_bound.denominator

    def test_certificate_coherence_with_branch(self, sched):
        # a passing certificate away from the origin needs a collapsing branch
        rule = GeometricMean(F(1))
        assert classify(rule, sched.radii, range(4, 9)).branch == "neither"
        for m in range(3):
            cert = non_c0_certificate(
                sched, rule, sched.enumeration()[m], F(1, 1000), range(4, 9)
            )
            assert not cert.passed

    def test_origin_clusters_under_any_increasing_rule(self, sched):
        for rule in (RatioPlus(F(1, 2)), GeometricMean(F(1))):
            cert = non_c0_certificate(sched, rule, None, F(1, 1000), range(4, 9))
            assert cert.passed

    def test_off_set_immunity(self, sched):
        rule = RatioPlus(F(1, 2))
        cert = non_c0_certificate(
            sched, rule, F(5, 8), F(1, 1000), range(6, 11), strict=False
        )
        assert not cert.passed

    @pytest.mark.parametrize("case", sorted(CERTIFICATE_CASES))
    def test_screened_distances_equal_exhaustive_distances(self, case):
        finite = 0
        for s, j, r, turn in _distance_cases(case):
            with _iv_prec(_certificate_precision(j)):
                intervals = _zero_intervals(s, j, r, turn)
                bounds = probe._distance_log_bounds(s, j, r, turn)
                # every finite bound is below its zero's certified distance
                for bound, d in zip(bounds, intervals):
                    if bound != -math.inf:
                        finite += 1
                        assert bound <= mp.log(d.a)
                # mpf == on both endpoints
                assert probe._zero_distance(s, j, r, turn) == _exhaustive_zero_distance(intervals)
        assert finite > 0

    @given(st.fractions(F(1, 1000), F(999, 1000), max_denominator=1000),
           st.fractions(0, 1, max_denominator=10**6), st.integers(1, 2**300))
    @settings(max_examples=25, deadline=None)
    def test_distance_bounds_hold_for_any_target(self, sched, r, turn, j):
        with _iv_prec(_certificate_precision(j)):
            intervals = _zero_intervals(sched, j, r, turn)
            bounds = probe._distance_log_bounds(sched, j, r, turn)
            for bound, d in zip(bounds, intervals):
                assert bound == -math.inf or bound <= mp.log(d.a)
            assert probe._zero_distance(sched, j, r, turn) == _exhaustive_zero_distance(intervals)

    def test_certificates_make_few_interval_distances(self, monkeypatch):
        calls = []

        def counted(c):
            calls.append(c)
            return norm(c)

        norm = probe._cnorm
        monkeypatch.setattr(probe, "_cnorm", counted)
        with precision_scope(200):
            for check in (verification.check_zero_clustering,
                          verification.check_geometric_mean_immunity,
                          verification.check_sector_layouts):
                assert check().passed
        # criteria 7, 8 and 10 take 5,580 interval distances unscreened
        assert len(calls) <= 400

    def test_crossed_distance_bound_raises(self, sched, monkeypatch):
        monkeypatch.setattr(probe, "_distance_log_bounds",
                            lambda schedule, *args: [1e9] * len(schedule.zeros))
        with pytest.raises(ArithmeticError, match="screen bound"):
            non_c0_certificate(sched, RatioPlus(HALF), sched.enumeration()[0], F(1, 1000),
                               range(6, 7))

    def test_strict_mode_rejects_off_set(self, sched):
        rule = RatioPlus(F(1, 2))
        with pytest.raises(ValueError):
            non_c0_certificate(sched, rule, F(5, 8), F(1, 1000), range(6, 11))


class TestSweep:
    def test_flat_function_fails_surrogate(self):
        empty = _empty(build_row_schedule(3, 1, 12))
        rows = condition_m_sweep(
            empty, [(F(0), F(1, 2))], RatioPlus(F(1, 2)), range(5, 7)
        )
        assert all(r.max_spherical == 0 for r in rows)

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_screened_rows_equal_exhaustive_rows(self, sched, exhaustive_sweep, case):
        s, reference, _ = exhaustive_sweep(case)
        screened = condition_m_sweep(
            s, _criterion9_points(sched), RatioPlus(HALF), range(5, 7))
        assert [(r.n, r.point_index, r.valid) for r in screened] == [
            (r.n, r.point_index, r.valid) for r in reference
        ]
        assert all(a.max_spherical == b.max_spherical for a, b in zip(screened, reference))

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_finite_screen_bounds_hold(self, exhaustive_sweep, case):
        s, _, meshes = exhaustive_sweep(case)
        finite = finite_exact = 0
        with mp.workprec(default_precision() + 30):
            for j, values in meshes:
                for z, sd in values:  # sd is j * f#(j z)
                    bound = _spherical_log_bound(s, j, z)
                    if not s.zeros:
                        assert bound == math.inf
                    if bound == math.inf:
                        continue
                    finite += 1
                    finite_exact += z.exact is not None
                    assert bound >= mp.log(sd)
        assert len(meshes) == 4
        assert (finite > 0 and finite_exact > 0) or not s.zeros

    @pytest.mark.parametrize("case", ["criterion-9", "rows-10"])
    def test_zero_preimages_get_finite_bounds(self, sched, case):
        s = SWEEP_CASES[case](sched)
        preimages = 0
        with mp.workprec(default_precision() + _GUARD):
            for j, turn, modulus, radius in _criterion9_disks(sched):
                for z in probe._mesh(s, j, turn, modulus, radius):
                    if z.exact is not None:
                        preimages += 1
                        assert _spherical_log_bound(s, j, z) < math.inf
        assert preimages == 35

    def test_criterion9_sweep_makes_few_full_precision_calls(self, sched, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return spherical_derivative(*args, **kwargs)

        monkeypatch.setattr(probe, "spherical_derivative", counted)
        rows = condition_m_sweep(
            sched, _criterion9_points(sched), RatioPlus(HALF), range(5, 10)
        )
        assert len(rows) == 10
        # the exhaustive sweep makes 525 calls on these meshes
        assert len(calls) <= 20

    def test_crossed_sweep_bound_raises(self, sched, monkeypatch):
        monkeypatch.setattr(probe, "_spherical_log_bound", lambda *args: -1e9)
        with pytest.raises(ArithmeticError, match="screen bound"):
            condition_m_sweep(sched, _criterion9_points(sched), RatioPlus(HALF), range(5, 6))

    def test_clustered_point_blows_up(self, sched):
        c1 = sched.enumeration()[0]
        rows = condition_m_sweep(
            sched, [(c1, F(1, 2))], RatioPlus(F(1, 2)), range(5, 8)
        )
        maxima = [r.max_spherical for r in rows]
        assert maxima[0] < maxima[1] < maxima[2]
        assert all(r.max_spherical > r.n for r in rows)


class TestMesh:
    @pytest.fixture
    def mp_disk_tests(self, monkeypatch):
        """The zeros whose disk test _mesh leaves to mp: each such test reads
        the mp table of the zeros."""
        calls = []

        def counted(schedule):
            calls.append(schedule)
            return _zero_constants(schedule)

        monkeypatch.setattr(probe, "_zero_constants", counted)
        return calls

    @pytest.mark.parametrize("case", ["criterion-9", "rows-10"])
    def test_float_disk_test_equals_mp(self, sched, case, mp_disk_tests):
        s = SWEEP_CASES[case](sched)
        preimages = 0
        with mp.workprec(default_precision() + _GUARD):
            for j, turn, modulus, radius in _criterion9_disks(sched):
                mesh = _forced_mesh(s, j, turn, modulus, radius)
                assert mesh == _reference_mesh(_center(turn, modulus), radius, s, j)
                preimages += sum(z.exact is not None for z in mesh)
        # floats place every other zero of the ten meshes outside
        assert len(mp_disk_tests) == preimages > 0

    @pytest.mark.parametrize("make, rule, k_range, sector", [
        (lambda: build_sector_schedule(2, 5), Sector(HALF, 1), range(2, 6), 1),
        (lambda: build_limit_schedule("w", 6), RatioPlus(HALF), range(3, 8), 2),
    ])
    def test_sector_and_limit_meshes_equal_mp(self, make, rule, k_range, sector):
        s = make()
        preimages = 0
        with mp.workprec(default_precision() + _GUARD):
            for n, j in dilation_factors(rule, s.radii, k_range):
                radius = mp.mpf(1) / n
                for turn in s.enumeration(sector)[:2]:
                    mesh = _forced_mesh(s, j, turn, HALF, radius)
                    assert mesh == _reference_mesh(_center(turn, HALF), radius, s, j)
                    preimages += sum(z.exact is not None for z in mesh)
        assert preimages > 0

    @pytest.mark.parametrize("inside", [True, False])
    def test_edge_near_a_preimage_falls_back_to_mp(self, sched, inside, mp_disk_tests):
        j = dilation_factor(RatioPlus(HALF), sched.radii, 5)
        zero = sched.zeros_in_ring(5)[0]
        turn = sched.enumeration()[0]
        with mp.workprec(default_precision() + _GUARD):
            pre = LogPolar.from_exact(zero.log_r, zero.turn, den=j)
            center = _center(turn, HALF)
            # the preimage lies 1e-13 inside or outside the disk's edge
            gap = mp.mpf("1e-13") if inside else -mp.mpf("1e-13")
            radius = abs(pre.to_complex() - center) + gap
            mesh = _forced_mesh(sched, j, turn, HALF, radius)
            assert mesh == _reference_mesh(center, radius, sched, j)
            assert (pre in mesh) == inside
        assert len(mp_disk_tests) == sum(z.exact is not None for z in mesh) + (not inside)

    def test_overflowing_preimage_moduli_are_decided_from_logs(self, mp_disk_tests):
        s = build_row_schedule(3, 1, 15)
        j = 5
        assert any(float(z.log_r) - math.log(j) > 700 for z in s.zeros)  # ring 15: 987
        first = s.zeros[0]
        with mp.workprec(default_precision() + _GUARD):
            radius = mp.mpf(1) / 5
            mesh = _forced_mesh(s, j, first.turn, HALF, radius)
            assert mesh == _reference_mesh(_center(first.turn, HALF), radius, s, j)
            # |e/5 - 1/2| < 1/5 on the first zero's ray
            assert LogPolar.from_exact(first.log_r, first.turn, den=j) in mesh
        assert len(mp_disk_tests) == sum(z.exact is not None for z in mesh)


def _grid_case(turn, modulus, n, k, m):
    """probe._grid_point and the point it stands for, at full precision, on
    the mesh of the disk of radius 1/n around modulus e^(2 pi i turn)."""
    center = _center(turn, modulus)
    radius = mp.mpf(1) / n
    grid = probe._grid_point(center, radius, k, m)
    return grid, grid.full()


def _phase_gap(a, b):
    """|a - b| reduced modulo 2 pi to [0, pi]: phases may sit on either side
    of the cut at pi."""
    d = mp.fmod(abs(a - b), 2 * mp.pi)
    return min(d, 2 * mp.pi - d)


class TestGridPoints:
    @given(
        st.sampled_from([64, 200, 333]),
        st.fractions(0, 3, max_denominator=10**6),
        st.fractions(F(1, 10**6), 4, max_denominator=10**6),
        st.integers(1, 40),
        st.integers(0, 3),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_floats_lie_within_their_error(self, bits, turn, modulus, n, k, data):
        """Disks anywhere around the origin, including ones that reach it."""
        m = data.draw(st.integers(0, max(0, 8 * k - 1)))
        with precision_scope(bits), mp.workprec(default_precision() + _GUARD):
            grid, full = _grid_case(turn, modulus, n, k, m)
            if grid.err < math.inf:
                assert abs(mp.mpf(grid.log_mag) - full.log_mag) <= grid.err
                assert _phase_gap(mp.mpf(grid.phase), full.phase) <= grid.err

    @given(
        st.sampled_from([64, 200]),
        st.integers(1, 40),
        st.integers(1, 3),
        st.integers(1, 16),
        st.sampled_from([-1, 1]),
        st.integers(-10**6, 10**6),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_floats_lie_within_their_error_near_the_origin(
            self, bits, n, k, digits, sign, twist, data):
        """Grid point m of ring k at about 10^-digits times the center's
        modulus from the origin: the center opposite to it, at k/(3n) times
        1 +- 10^-digits, its turn moved by twist 10^-(digits + 6)."""
        m = data.draw(st.integers(0, 8 * k - 1))
        turn = (F(m, 8 * k) + HALF + F(twist, 10 ** (digits + 6))) % 1
        modulus = F(k, 3 * n) * (1 + sign * F(1, 10 ** digits))
        with precision_scope(bits), mp.workprec(default_precision() + _GUARD):
            grid, full = _grid_case(turn, modulus, n, k, m)
            if grid.err < math.inf:
                assert abs(mp.mpf(grid.log_mag) - full.log_mag) <= grid.err
                assert _phase_gap(mp.mpf(grid.phase), full.phase) <= grid.err

    @given(st.sampled_from([64, 200]), st.integers(1, 40), st.integers(1, 3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_no_bound_at_the_origin(self, sched, bits, n, k, data):
        """A disk whose grid point m of ring k falls on the origin: modulus
        k/(3n), the point's ring radius, and the center opposite to it."""
        m = data.draw(st.integers(0, 8 * k - 1))
        turn = (F(m, 8 * k) + HALF) % 1
        with precision_scope(bits), mp.workprec(default_precision() + _GUARD):
            grid, full = _grid_case(turn, F(k, 3 * n), n, k, m)
            assert grid.err == math.inf
            assert full.is_zero or full.log_mag < -50
            assert _spherical_log_bound(sched, 1, grid) == math.inf


class TestOrderReport:
    def test_row_schedule_order(self):
        s = build_row_schedule(3, 2, 10)
        rep = order_report(s, RatioPlus(F(7, 10)), depth=3)
        assert rep.branch == "toward-lower"
        assert not rep.inconclusive
        assert rep.rank_conclusion.as_dict()["2"] == 2
        assert rep.rank_conclusion.as_dict()["3"] == 0

    def test_geometric_mean_claims_origin_only(self):
        s = build_row_schedule(3, 1, 10)
        rep = order_report(s, GeometricMean(F(1)), depth=2,
                           k_range=range(4, 9))
        assert rep.claimed == "{0}"
        assert rep.rank_conclusion.as_dict() == {"0": 1, "1": 0}

    def test_sector_rank_matches_sector_index(self):
        s = build_sector_schedule(2, 5)
        for t in (1, 2):
            rep = order_report(s, Sector(F(1, 2), t), depth=2,
                               k_range=range(max(2, t), 6))
            assert not rep.inconclusive
            assert rep.rank_conclusion.as_dict()["1"] == t

    def test_limit_schedule_sector_rank(self):
        s = build_limit_schedule(OMEGA, 5)
        rep = order_report(s, Sector(F(1, 2), 3), depth=1)
        prof = rep.rank_conclusion.as_dict()
        assert prof["2"] == 1 and prof["3"] == 0

    # profiles of sector rules on limit and sector layouts, as the stages
    # derived from the ordinal alpha gave them before the stages came from
    # the source tree
    @pytest.mark.parametrize("build, alpha, n_rows, t, profile", [
        (build_limit_schedule, "w", 5, 1, {"0": 2, "1": 0}),
        (build_limit_schedule, "w", 5, 3, {"0": "infinite", "1": "infinite", "2": 1, "3": 0}),
        (build_limit_schedule, "w*2", 5, 2, {"0": "infinite", "1": 1, "2": 0}),
        (build_limit_schedule, "w^(w+1)", 5, 4,
         {"0": "infinite", "1": "infinite", "3": 1, "4": 0}),
        (build_sector_schedule, "w+1", 4, 2, {"0": "infinite", "1": "infinite", "w": 2,
                                              "w+1": 0}),
    ])
    def test_sector_rule_profiles(self, build, alpha, n_rows, t, profile):
        s = build(alpha, n_rows)
        rep = order_report(s, Sector(HALF, t), depth=1, k_range=range(t, t + 2))
        assert rep.rank_conclusion.as_dict() == profile

    def test_rule_without_a_source_set_is_rejected(self):
        s = build_sector_schedule(2, 4)
        with pytest.raises(ValueError, match="no source set"):
            order_report(s, RatioPlus(HALF), depth=1)

    def test_report_serializes(self):
        s = build_row_schedule(3, 1, 10)
        rep = order_report(s, RatioPlus(F(1, 2)), depth=2)
        blob = canonical_json(rep.as_dict()).decode("ascii")
        assert '"branch"' in blob and '"rank_profile"' in blob
