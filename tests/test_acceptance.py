"""Acceptance gate: one test per release criterion.

Each test prints its PASS/FAIL line (visible with pytest -s or -rA) and
asserts the criterion.  The determinism criterion reruns the entire core
suite and compares serialized reports byte for byte.
"""

import hashlib
import sys
from collections import Counter

import pytest

import rankzero.evaluator as evaluator
import rankzero.probe as probe
import rankzero.schedule as schedule
from rankzero import verification
from rankzero.evaluator import precision_scope
from rankzero.ordinal import OMEGA, enumerate_below, successor
from rankzero.pointset import build_rank_set
from rankzero.verification import (
    CRITERIA,
    check_determinism,
    suite_report_bytes,
)

from conftest import CountedTable, count_product_zeros, record_table_builds

# sha256 of `rankzero --precision 200 verify --suite core --out r.json`
CORE_REPORT_SHA256 = "286a5bb269d9de0870cb4890cb3926f93cf240260f037c9ce0b0d29f969f22e1"


@pytest.fixture(scope="module")
def core_results():
    with precision_scope(200):
        return {cid: fn() for cid, _, fn in CRITERIA}


def _report(result):
    tag = "PASS" if result.passed else "FAIL"
    print(f"{tag}  [{result.cid:2d}] {result.name}: {result.details[0]}")
    for line in result.details[1:]:
        print(f"          {line}")
    assert result.passed, f"criterion {result.cid} failed: {result.details}"


@pytest.mark.parametrize("cid,name", [(cid, name) for cid, name, _ in CRITERIA])
def test_criterion(cid, name, core_results):
    _report(core_results[cid])


def test_criterion_11_determinism(core_results):
    ordered = [core_results[cid] for cid, _, _ in CRITERIA]
    with precision_scope(200):
        result = check_determinism(ordered)
    _report(result)
    # and the serialized report itself is stable
    assert suite_report_bytes(ordered) == suite_report_bytes(ordered)


def test_core_report_bytes_are_pinned(core_results):
    ordered = [core_results[cid] for cid, _, _ in CRITERIA]
    with precision_scope(200):
        data = suite_report_bytes(ordered)
    assert hashlib.sha256(data).hexdigest() == CORE_REPORT_SHA256


@pytest.fixture(scope="module")
def core_counts():
    """Over one core suite run at 200 bits: the zeros the evaluator's
    product loop, _log_product, takes; calls of its interval tail bound,
    _tail_bound, and of its lookup of an exact hit, _hit; the zeros the
    float screens' loop, _float_factors, takes; the sweep's full-precision
    grid points, LogPolar.from_complex called from the probe layer; and the
    per-schedule tables _kept builds, as ("tables", kind) with the kind a
    precision or a key's first part, and how many of them were built twice
    for one schedule; and, under "fallback trees", the sets whose angles a
    layout took from enumerate_points."""
    calls = Counter()
    built = []  # (schedule, key) per table built
    fallbacks = []

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    def float_factors(*args):
        *head, table = args
        return screen_loop(*head, CountedTable(table, calls, "_float_factors zeros"))

    from_complex = evaluator.LogPolar.from_complex

    def grid_point(value):
        if sys._getframe(1).f_globals["__name__"] == probe.__name__:
            calls["sweep from_complex"] += 1
        return from_complex(value)

    def enumerate_points(tree):
        fallbacks.append(tree)
        return points(tree)

    screen_loop = evaluator._float_factors
    points = schedule.enumerate_points
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_tail_bound", "_hit"):
            patch.setattr(evaluator, name, counted(name, getattr(evaluator, name)))
        count_product_zeros(patch, calls)
        patch.setattr(evaluator, "_float_factors", float_factors)
        patch.setattr(evaluator.LogPolar, "from_complex", staticmethod(grid_point))
        record_table_builds(patch, built)
        patch.setattr(schedule, "enumerate_points", enumerate_points)
        with precision_scope(200):
            verification._run_core()
    for _, key in built:
        calls["tables", key[0] if isinstance(key, tuple) else key] += 1
    builds = Counter((id(schedule), key) for schedule, key in built)
    calls["tables built twice"] = sum(n > 1 for n in builds.values())
    calls["fallback trees"] = fallbacks
    return calls


def test_core_suite_product_zero_budget(core_counts):
    # exactly 1,608 zeros over 24 loops, the one each loop stops at included,
    # so a loop that takes more or fewer cannot pass; the log-sum loop it
    # replaced called its kernel 1,579 times, 1,867 before it stopped at the
    # factors that cannot move its rounded sums, 4,177 before the sweep
    # bounded zero preimages in floats
    assert core_counts["product zeros"] == 1608


def test_core_suite_interval_tail_budget(core_counts):
    # 19 calls before spherical_derivative stopped calling log_eval, which
    # bounds a tail it has no use for; 319 before the floor screens bounded
    # the tail in floats
    assert core_counts["_tail_bound"] == 11


def test_core_suite_exact_hit_scans(core_counts):
    # 67 before spherical_derivative and log_derivative shared the sum of
    # 1/(z - b), when log_derivative scanned again for the hit that
    # spherical_derivative had just ruled out; 75 before
    # spherical_derivative stopped calling log_eval
    assert core_counts["_hit"] == 59


def test_core_suite_float_screen_zeros(core_counts):
    # 64,169 before _float_factors stopped at the first zero with
    # Re s <= -40
    assert core_counts["_float_factors zeros"] == 35918


def test_core_suite_full_precision_grid_points(core_counts):
    # 490 before the sweep's meshes built their grid points in floats: all
    # 49 of each of criterion 9's ten meshes
    assert core_counts["sweep from_complex"] == 8


def test_core_suite_builds_each_table_once(core_counts):
    # float constants, zero constants at 230 bits, interval zeros per
    # iv.prec, the exact-hit index, the exp zero values, the inverse zeros
    # and the tail hypothesis' log radius per precision; no tail sums, which
    # are kept only inside _shared_tails, and the 11 _tail_bound calls meet
    # 11 moduli
    assert core_counts["tables built twice"] == 0
    built = {key[1]: n for key, n in core_counts.items() if isinstance(key, tuple)}
    assert built == {"float": 5, 230: 3, "iv": 9, "exact": 1, "exp": 1, "inv": 3, "edge": 3}


def test_core_suite_enumerates_one_deep_set(core_counts):
    # criterion 10's limit layout of w at 5 super-rows: sector 5 hosts a set
    # of collapse rank b_5 = 4, whose first leaf lies four clusters deep; it
    # had no zeros before deep sets took their points from enumerate_points
    b5 = enumerate_below(OMEGA, 5)[4]
    assert core_counts["fallback trees"] == [
        build_rank_set(successor(b5), 1, schedule.sector_arc(5))]
