"""Acceptance suite: every release gate as a checkable function.

Each check returns a CheckResult with deterministic detail strings, so the
serialized report of a run is byte-for-byte reproducible at a fixed
precision; the final check asserts exactly that by running the whole suite
twice.  run_suite prints one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from mpmath import mp

from .evaluator import (
    LogPolar,
    _mpf_fraction,
    default_precision,
    family_floor,
    sector_divergence,
)
from .ordinal import (
    OMEGA,
    as_ordinal,
    format_ordinal,
    parse_ordinal,
    predecessor,
)
from .pointset import (
    Arc,
    Leaf,
    build_rank_set,
    canonical_json,
    cardinality,
    derive,
    derive_once,
    materialize,
    member,
    singleton_refine,
    union_disjoint,
)
from .probe import (
    GeometricMean,
    RatioPlus,
    Sector,
    classify,
    condition_m_sweep,
    dilation_factor,
    non_c0_certificate,
    order_report,
)
from .schedule import (
    build_limit_schedule,
    build_radii,
    build_row_schedule,
    build_sector_schedule,
    convergence_exponent_check,
    growth_threshold_index,
    standard_arc,
    validate_radii,
)

__all__ = ["CheckResult", "run_suite", "suite_report_bytes", "CRITERIA"]


@dataclass
class CheckResult:
    cid: int
    name: str
    passed: bool
    details: List[str]


def _nstr(x, digits: int = 12) -> str:
    return mp.nstr(mp.mpf(x), digits)


# -- criterion 1: rank construction ---------------------------------------------


_ALPHAS = ["1", "2", "3", "4", "w", "w+1", "w+2", "w*2", "w^2", "w^2+w"]


def check_rank_construction() -> CheckResult:
    details: List[str] = []
    ok = True
    host = standard_arc()
    for alpha_text in _ALPHAS:
        alpha = parse_ordinal(alpha_text)
        p = predecessor(alpha)
        nus = (1,) if p is None else (1, 2, 3)
        for nu in nus:
            tree = build_rank_set(alpha, nu, host)
            if p is not None:
                good = (
                    cardinality(derive(tree, p)) == nu
                    and derive(tree, alpha) is None
                )
            else:
                d = derive(tree, alpha)
                good = isinstance(d, Leaf) and derive_once(d) is None
            # the set avoids its own accumulation points
            d1 = derive(tree, 1)
            pts = materialize(tree, 3, 3)
            isolated = all(not member(d1, a) for a in pts)
            # stagewise pruning agrees with the ordinal-stage computation
            chain_ok = True
            cur = tree
            for k in range(1, 7):
                cur = derive_once(cur)
                if cur != derive(tree, k):
                    chain_ok = False
                    break
            good = good and isolated and chain_ok
            ok = ok and good
            details.append(
                f"alpha={alpha_text} nu={nu}: rank={'ok' if good else 'FAIL'}"
            )
    return CheckResult(1, "rank construction", ok, details)


# -- criterion 2: union law -------------------------------------------------------


def _random_disjoint_arcs(rng: random.Random) -> Tuple[Arc, Arc]:
    while True:
        c1 = Fraction(rng.randrange(0, 64), 64)
        c2 = Fraction(rng.randrange(0, 64), 64)
        w1 = Fraction(1, rng.choice([72, 96, 128]))
        w2 = Fraction(1, rng.choice([72, 96, 128]))
        a1, a2 = Arc(c1, w1), Arc(c2, w2)
        if a1.strongly_disjoint(a2):
            return a1, a2


def check_union_law() -> CheckResult:
    rng = random.Random(20240817)
    pool = [parse_ordinal(t) for t in ("1", "2", "3", "w", "w+1", "w*2")]
    failures = 0
    for trial in range(100):
        arc_a, arc_b = _random_disjoint_arcs(rng)
        alpha_a, alpha_b = rng.choice(pool), rng.choice(pool)
        nu_a = rng.choice((1, 2)) if predecessor(alpha_a) is not None else 1
        nu_b = rng.choice((1, 2)) if predecessor(alpha_b) is not None else 1
        A = build_rank_set(alpha_a, nu_a, arc_a)
        B = build_rank_set(alpha_b, nu_b, arc_b)
        U = union_disjoint([(A, arc_a), (B, arc_b)])
        stages = {as_ordinal(0), as_ordinal(1), as_ordinal(2), alpha_a, alpha_b}
        for beta in stages:
            lhs = derive(U, beta)
            rhs = union_disjoint([(derive(A, beta), arc_a), (derive(B, beta), arc_b)])
            if lhs != rhs:
                failures += 1
                break
    ok = failures == 0
    return CheckResult(
        2, "union law", ok, [f"100 random disjoint pairs, failures={failures}"]
    )


# -- criterion 3: singleton refinement --------------------------------------------


def check_singleton_refine() -> CheckResult:
    host = standard_arc()
    cases = []
    for alpha_text, nu in [("1", 1), ("2", 1), ("2", 2), ("3", 1), ("3", 2),
                           ("4", 1), ("4", 3), ("w", 1), ("w+1", 1), ("w+1", 2),
                           ("w*2", 1)]:
        alpha = parse_ordinal(alpha_text)
        tree = build_rank_set(alpha, nu, host)
        p = predecessor(alpha)
        stage = p if p is not None else alpha
        targets = materialize(derive(tree, stage), 1, 2)[:1]
        for t in targets:
            cases.append((tree, stage, t))
        # a second target at an earlier stage exercises descent into children
        if not stage.is_zero:
            earlier = materialize(derive(tree, 1), 1, 3)
            if earlier:
                cases.append((tree, as_ordinal(1), earlier[0]))
    cases = cases[:20]
    ok = True
    details = []
    for i, (tree, stage, target) in enumerate(cases):
        refined = singleton_refine(tree, stage, target)
        got = derive(refined, stage)
        good = got == Leaf(target)
        ok = ok and good
        details.append(
            f"case {i}: stage={format_ordinal(stage)} "
            f"target={target} {'ok' if good else 'FAIL'}"
        )
    details.insert(0, f"{len(cases)} refinement cases")
    return CheckResult(3, "singleton refinement", ok, details)


# -- criterion 4: radii -----------------------------------------------------------


def check_radii() -> CheckResult:
    radii = build_radii(21)
    details = []
    ok = True
    eq = all(
        radii.log_radius(n + 2) == radii.log_radius(n + 1) + radii.log_radius(n)
        for n in range(1, 11)
    )
    ok = ok and eq
    details.append(f"multiplicative law with equality through n=12: {eq}")
    validate_radii(radii)
    t1 = growth_threshold_index(radii)
    t2 = growth_threshold_index(radii)
    stable = t1 == t2 == 5
    ok = ok and stable
    details.append(f"auxiliary growth bound holds from index {t1} (stable: {stable})")
    rep = convergence_exponent_check(radii, Fraction(1), 20)
    tail_ok = rep.tail_bound < mp.mpf("1e-6")
    ok = ok and tail_ok
    details.append(
        f"sum(n/a_n) n<=20 in [{_nstr(rep.partial_low)}, {_nstr(rep.partial_high)}], "
        f"tail < 1e-6: {tail_ok}"
    )
    return CheckResult(4, "radius ladder", ok, details)


# -- criterion 5: row schedule counting --------------------------------------------


def check_row_counting() -> CheckResult:
    s = build_row_schedule(3, 1, 10)
    c = s.enumeration()
    details = []
    counts_ok = all(len(s.zeros_in_ring(n)) == n for n in range(1, 11))
    spot_ok = (
        s.zeros[0].log_r == 1 and s.zeros[0].turn == c[0]
        and s.zeros[2].log_r == 2 and s.zeros[2].turn == c[1]
        and s.zeros[6].log_r == 5 and s.zeros[6].turn == c[0]
    )
    rows_ok = all(s.row_of(l) == 4 for l in (7, 8, 9, 10))
    ok = counts_ok and spot_ok and rows_ok
    details.append(f"ring n holds n zeros for n<=10: {counts_ok}")
    details.append(f"spot zeros 1, 3, 7 at (a1,c1), (a2,c2), (a4,c1): {spot_ok}")
    details.append(f"row map of zeros 7..10 is 4: {rows_ok}")
    return CheckResult(5, "row schedule counting", ok, details)


# -- criterion 6: sector divergence -------------------------------------------------


def _divergence_samples(schedule, n: int) -> List[LogPolar]:
    lo = schedule.radii.log_radius(n)
    hi = schedule.radii.log_radius(n + 1)
    pts = []
    host_center = Fraction(1, 8)
    for d in (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(1, 2)):
        turn = host_center + d
        for i in range(1, 6):
            frac = Fraction(i, 5)
            log_r = lo + (hi - lo) * frac
            pts.append(
                LogPolar(
                    _mpf_fraction(log_r),
                    2 * mp.pi * _mpf_fraction(turn) - 2 * mp.pi * (turn > Fraction(1, 2)),
                )
            )
    return pts


def check_sector_divergence() -> CheckResult:
    s = build_row_schedule(3, 1, 12)
    ok = True
    details = []
    floor_by_ring = {}
    for n in range(3, 9):
        div = sector_divergence(s, _divergence_samples(s, n), 0.3, 12)
        all_pass = all(div.passed) and all(ring == n for ring in div.rings)
        floor_by_ring[n] = div.floor
        ok = ok and all_pass
        details.append(
            f"ring {n}: 20 samples pass={all_pass} "
            f"min certified log|f|={_nstr(floor_by_ring[n], 8)}"
        )
    increasing = all(
        floor_by_ring[n] < floor_by_ring[n + 1] for n in range(5, 8)
    )
    ok = ok and increasing
    details.append(f"certified lower bound strictly increasing on rings 5..8: {increasing}")
    return CheckResult(6, "sector divergence", ok, details)


# -- criterion 7: zero clustering ----------------------------------------------------


def check_zero_clustering() -> CheckResult:
    s = build_row_schedule(3, 1, 10)
    c = s.enumeration()
    ok = True
    details = []
    for r in (Fraction(3, 10), Fraction(7, 10)):
        rule = RatioPlus(r)
        for m in range(5):
            cert = non_c0_certificate(s, rule, c[m], Fraction(1, 1000), range(6, 11))
            rational_ok = all(
                e.rational_bound is not None and e.rational_bound == Fraction(r, e.j)
                for e in cert.entries
            )
            good = cert.passed and rational_ok
            ok = ok and good
            if m == 0:
                details.append(
                    f"r={r} target c1: final distance <= "
                    f"{_nstr(cert.entries[-1].dist_high, 8)} ({cert.reason})"
                )
            if not good:
                details.append(f"r={r} target c{m + 1}: FAIL ({cert.reason})")
    details.insert(0, "targets c1..c5, dilations k=6..10, exact majorant r/j checked")
    return CheckResult(7, "zero clustering", ok, details)


# -- criterion 8: geometric-mean immunity ---------------------------------------------


def check_geometric_mean_immunity() -> CheckResult:
    s = build_row_schedule(3, 1, 12)
    c = s.enumeration()
    rule = GeometricMean(Fraction(1))
    details = []
    cl = classify(rule, s.radii, range(4, 9))
    neither = cl.branch == "neither"
    details.append(f"classification: {cl.branch}")
    cert_fail = True
    for m in range(5):
        cert = non_c0_certificate(s, rule, c[m], Fraction(1, 1000), range(4, 9))
        cert_fail = cert_fail and not cert.passed
    details.append(f"all clustering certificates fail: {cert_fail}")
    circle = [LogPolar(-mp.log(mp.mpf(2)), 2 * mp.pi * i / 36 - mp.pi) for i in range(36)]
    floors = [family_floor(s, dilation_factor(rule, s.radii, k), circle, 12)
              for k in range(4, 9)]
    growing = all(a < b for a, b in zip(floors, floors[1:]))
    above = all(f > k for f, k in zip(floors, range(4, 9)))
    details.append(
        "certified log|f_j| floors on |z|=1/2 by k: "
        + ", ".join(_nstr(f, 8) for f in floors)
    )
    details.append(f"floors increase with k: {growing}; floors exceed k: {above}")
    ok = neither and cert_fail and growing and above
    return CheckResult(8, "geometric-mean immunity", ok, details)


# -- criterion 9: Marty-surrogate sweep ------------------------------------------------


def check_condition_m() -> CheckResult:
    s = build_row_schedule(3, 1, 12)
    c1 = s.enumeration()[0]
    rule = RatioPlus(Fraction(1, 2))
    rows = condition_m_sweep(
        s,
        [(c1, Fraction(1, 2)), (c1 + Fraction(1, 2), Fraction(1, 2))],
        rule,
        range(5, 10),
    )
    target = [r for r in rows if r.point_index == 1]
    control = [r for r in rows if r.point_index == 2]
    maxima = [r.max_spherical for r in target]
    increasing = all(a < b for a, b in zip(maxima, maxima[1:]))
    beats_n = all(r.max_spherical > r.n for r in target)
    valid = all(r.valid for r in rows)
    bounded = all(r.max_spherical < 1 for r in control)
    details = [
        "family spherical-derivative maxima at the clustered point: "
        + ", ".join(_nstr(m, 6) for m in maxima),
        f"strictly increasing: {increasing}; exceed n: {beats_n}; "
        f"meshes valid: {valid}",
        f"control point off every zero ray stays below 1: {bounded}",
    ]
    ok = increasing and beats_n and valid and bounded
    return CheckResult(9, "spherical-derivative sweep", ok, details)


# -- criterion 10: sector and limit layouts --------------------------------------------


def check_sector_layouts() -> CheckResult:
    details = []
    ok = True
    ss = build_sector_schedule(2, 5)
    sl = build_limit_schedule(OMEGA, 5)
    for label, sched in (("unbounded-order", ss), ("limit", sl)):
        purity = all(len(sched.ring_sectors(n)) <= 1 for n in range(1, 13))
        ok = ok and purity
        details.append(f"{label} layout: one sector per ring through ring 12: {purity}")
    for t in (1, 2):
        rule = Sector(Fraction(1, 2), t)
        rep = order_report(ss, rule, depth=2, k_range=range(max(2, t), 6))
        certs_ok = not rep.inconclusive
        profile = rep.rank_conclusion.as_dict()
        rank_ok = profile.get("1") == t
        ok = ok and certs_ok and rank_ok
        details.append(
            f"sector rule t={t}: certificates pass={certs_ok}, "
            f"count at the penultimate stage={profile.get('1')} (want {t})"
        )
    return CheckResult(10, "sector and limit layouts", ok, details)


# -- criterion 11: determinism ----------------------------------------------------------


CRITERIA: List[Tuple[int, str, Callable[[], CheckResult]]] = [
    (1, "rank construction", check_rank_construction),
    (2, "union law", check_union_law),
    (3, "singleton refinement", check_singleton_refine),
    (4, "radius ladder", check_radii),
    (5, "row schedule counting", check_row_counting),
    (6, "sector divergence", check_sector_divergence),
    (7, "zero clustering", check_zero_clustering),
    (8, "geometric-mean immunity", check_geometric_mean_immunity),
    (9, "spherical-derivative sweep", check_condition_m),
    (10, "sector and limit layouts", check_sector_layouts),
]


def _run_core() -> List[CheckResult]:
    return [fn() for _, _, fn in CRITERIA]


def suite_report_bytes(results: List[CheckResult]) -> bytes:
    payload = {
        "precision_bits": default_precision(),
        "criteria": [
            {"id": r.cid, "name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    return canonical_json(payload)


def check_determinism(first: Optional[List[CheckResult]] = None) -> CheckResult:
    a = suite_report_bytes(first if first is not None else _run_core())
    b = suite_report_bytes(_run_core())
    same = a == b
    return CheckResult(
        11,
        "determinism",
        same,
        [f"two full runs serialize to identical bytes: {same} ({len(a)} bytes)"],
    )


def run_suite(include_determinism: bool = True, echo=print) -> List[CheckResult]:
    """Run every criterion, printing one PASS/FAIL line per criterion."""
    results = _run_core()
    if include_determinism:
        results.append(check_determinism(results))
    width = max(len(r.name) for r in results) + 2
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        echo(f"{tag}  [{r.cid:2d}] {r.name.ljust(width)}{r.details[0]}")
    return results
