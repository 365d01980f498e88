"""Acceptance gate: one test per release criterion.

Each test prints its PASS/FAIL line (visible with pytest -s or -rA) and
asserts the criterion.  The determinism criterion reruns the entire core
suite and compares serialized reports byte for byte.
"""

import hashlib
from collections import Counter

import pytest

import rankzero.evaluator as evaluator
from rankzero import verification
from rankzero.evaluator import precision_scope
from rankzero.verification import (
    CRITERIA,
    check_determinism,
    suite_report_bytes,
)

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
def core_kernel_calls():
    """Calls of the evaluator's kernel, _log_one_minus_exp, of its interval
    tail bound, _tail_bound, and of its scan for an exact hit, _hit, over
    one core suite run at 200 bits."""
    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    with pytest.MonkeyPatch.context() as patch:
        for name in ("_log_one_minus_exp", "_tail_bound", "_hit"):
            patch.setattr(evaluator, name, counted(name, getattr(evaluator, name)))
        with precision_scope(200):
            verification._run_core()
    return calls


def test_core_suite_kernel_call_budget(core_kernel_calls):
    # exactly 1,579 calls, so a product loop that stops calling the kernel
    # through the module cannot pass; 1,867 before the product loop stopped
    # at the factors that cannot move its rounded sums, 4,177 before the
    # sweep bounded zero preimages in floats
    assert core_kernel_calls["_log_one_minus_exp"] == 1579


def test_core_suite_interval_tail_budget(core_kernel_calls):
    # 19 calls before spherical_derivative stopped calling log_eval, which
    # bounds a tail it has no use for; 319 before the floor screens bounded
    # the tail in floats
    assert core_kernel_calls["_tail_bound"] == 11


def test_core_suite_exact_hit_scans(core_kernel_calls):
    # 75 before spherical_derivative stopped calling log_eval, which scans
    # again for the hit that spherical_derivative has just ruled out
    assert core_kernel_calls["_hit"] == 67
