"""Self-tests of the benchmark: seeded generators, the layout oracle, the
tracer's patch/restore, and the metric names promised by BENCHMARK.json."""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracle  # noqa: E402
import plans  # noqa: E402
import tracer  # noqa: E402


# -- generators -------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["cli-pipeline", "build-large"])
def test_plan_is_deterministic_per_seed(workload):
    assert plans.plan(workload, 7) == plans.plan(workload, 7)
    assert plans.plan(workload, 7) != plans.plan(workload, 8)


def test_verify_core_ignores_the_seed():
    assert plans.plan("verify-core", 1) == plans.plan("verify-core", 99)


def _builds(jobs):
    return [c["check"] for job in jobs for c in job if c["kind"] == "build-zeros"]


@pytest.mark.parametrize("seed", range(6))
def test_cli_cycles_have_the_same_composition(seed):
    builds = _builds(plans.cli_pipeline(seed))
    layouts = sorted(b["layout"] for b in builds)
    assert layouts == ["limit"] * 3 + ["rows"] * 4 + ["sectors"] * 3
    for layout in ("rows", "sectors"):
        alphas = [b["alpha"] for b in builds if b["layout"] == layout]
        assert sum(a in plans.DEEP for a in alphas) == 1
        assert sum(a in plans.DEFECT for a in alphas) == 1
    rows = [b for b in builds if b["layout"] == "rows"]
    assert sorted(b["nmax"] for b in rows if b["alpha"] not in plans.DEFECT) == [10, 11, 12]


@pytest.mark.parametrize("seed", range(6))
def test_build_large_cycles_have_the_same_composition(seed):
    jobs = plans.build_large(seed)
    builds = _builds(jobs)
    limits = {b["alpha"]: b["nmax"] for b in builds if b["layout"] == "limit"}
    assert limits.keys() == dict(plans.LARGE_LIMITS).keys()
    assert all(limits[a] in window for a, window in plans.LARGE_LIMITS)
    sectors = [b for b in builds if b["layout"] == "sectors"]
    assert sorted(b["alpha"] for b in sectors) == sorted(plans.LARGE_SECTOR_RANKS)
    pairs = [job for job in jobs if job[0]["kind"] == "build-set"]
    assert len(pairs) == plans.SETS_PER_CYCLE
    for build_set, derive in pairs:
        assert derive["inputs"] == [build_set["out"]]
        assert derive["argv"][1:3] == ["--set", build_set["out"]]


# -- the layout oracle --------------------------------------------------------------


@pytest.mark.parametrize("alpha,defect", [
    ("2", False), ("4", False), ("5", True), ("6", True),
    ("w+2", False), ("w+3", False), ("w+4", True), ("w*2+4", True), ("w^2+1", False),
])
def test_defect_predicate(alpha, defect):
    assert oracle.hits_defect(oracle.predecessor(alpha)) is defect


def test_layout_formulas():
    rows = oracle.expected_rings("rows", "3", 12)
    assert sum(n for n, _ in rows.values()) == 78
    sectors = oracle.expected_rings("sectors", "2", 6)
    assert sum(n for n, _ in sectors.values()) == 91
    sectors16 = oracle.expected_rings("sectors", "2", 16)
    assert sum(n for n, _ in sectors16.values()) == 1496
    limit = oracle.expected_rings("limit", "w", 6)
    assert sum(n for n, _ in limit.values()) == 76
    # sectors 5 and 6 (ranks 5 and 6) are the ones the defect empties:
    # the schedule the seed commit builds holds 59 zeros
    assert sum(n for n, bad in limit.values() if not bad) == 59


def test_limit_enumerations_match_the_program():
    from rankzero.ordinal import enumerate_below, format_ordinal, parse_ordinal

    for limit, prefix in oracle.LIMIT_ENUMERATIONS.items():
        got = [format_ordinal(b) for b in enumerate_below(parse_ordinal(limit), len(prefix))]
        assert got == prefix


# -- the tracer -----------------------------------------------------------------------


def _snapshot():
    from mpmath import iv, mp

    import rankzero.verification as verification

    state = {}
    for name, mod in sys.modules.items():
        if name == "rankzero" or name.startswith("rankzero."):
            state[name] = dict(mod.__dict__)
    state["mp"] = dict(mp.__dict__)
    state["iv"] = dict(iv.__dict__)
    state["criteria"] = list(verification.CRITERIA)
    return state


def _same(a, b):
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], dict):
            assert a[key].keys() == b[key].keys(), key
            for attr in a[key]:
                assert a[key][attr] is b[key][attr], f"{key}.{attr}"
        else:
            assert all(x is y for x, y in zip(a[key], b[key]))


def test_tracer_wraps_every_namespace_and_restores_every_object():
    import rankzero
    import rankzero.cli
    import rankzero.evaluator as evaluator
    import rankzero.probe as probe
    import rankzero.verification as verification
    from rankzero.evaluator import LogPolar
    from rankzero.schedule import build_row_schedule

    sched = build_row_schedule(3, 1, 6)
    z = LogPolar.from_exact(Fraction(5, 2), Fraction(1, 3))
    plain = evaluator.log_eval(sched, z)
    before = _snapshot()
    original = evaluator.log_eval

    t = tracer.Tracer()
    assert t.install() > 0
    try:
        for holder in (evaluator, rankzero):
            assert holder.log_eval is not original
            assert holder.log_eval.__wrapped__ is original
        assert probe.spherical_derivative.__wrapped__ is not None
        assert all(fn.__wrapped__ for _, _, fn in verification.CRITERIA)
        traced = rankzero.log_eval(sched, z)
    finally:
        assert t.uninstall() == []
    _same(before, _snapshot())

    assert (traced.value.log_mag, traced.value.phase, traced.tail_log_bound,
            traced.valid) == (plain.value.log_mag, plain.value.phase,
                              plain.tail_log_bound, plain.valid)
    names = [s[0] for s in t.spans]
    assert "evaluator.log_eval" in names
    assert t.mp_calls["evaluator"] > 0
    metrics, _ = tracer.per_layer_metrics([t.dump()])
    assert metrics["evaluator.log_eval.calls"] == 1
    assert metrics["evaluator.log_eval.zero_terms"] == len(sched.zeros)
    assert metrics["evaluator.valid_share"] == 1.0


def test_self_time_subtracts_child_spans():
    clock = iter([0.0, 1.0, 3.0, 10.0]).__next__
    t = tracer.Tracer(clock=clock)
    inner = t.wrap("pointset.derive", "pointset", lambda: None)
    outer = t.wrap("probe.classify", "probe", lambda: inner())
    outer()
    metrics, _ = tracer.per_layer_metrics([t.dump()])
    assert metrics["pointset.derive.self_s"] == 2.0
    assert metrics["probe.classify.self_s"] == 8.0
    assert metrics["probe.self_s"] == 8.0


# -- BENCHMARK.json ---------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    metrics, _ = tracer.per_layer_metrics([])
    names = list(metrics) + ["cli.bytes_written", "cli.bytes_read", "trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == names
    for m in spec["per_layer"]:
        assert m["unit"] == run._per_layer_unit(m["name"])


def test_harrell_davis_quantile():
    import run

    assert run.quantile([3.0], 0.5) == 3.0
    assert run.quantile([2.0] * 7, 0.9) == pytest.approx(2.0)
    xs = [i / 1000 for i in range(1001)]
    assert run.quantile(xs, 0.5) == pytest.approx(0.5, abs=1e-3)
    assert run.quantile(xs, 0.9) == pytest.approx(0.9, abs=2e-3)
