"""Counts of the zeros the evaluator's product loop takes and of the
per-schedule tables it builds; the benchmark's plans and oracle, which the
tests only read, are importable as `plans` and `oracle`."""

import sys
from collections import Counter
from pathlib import Path

import pytest

import rankzero.evaluator as evaluator
import rankzero.probe as probe

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))


class CountedTable:
    """A table that adds one to calls[key] for every entry a loop takes."""

    def __init__(self, table, calls, key):
        self.table, self.calls, self.key = table, calls, key

    def __len__(self):
        return len(self.table)

    def __iter__(self):
        for entry in self.table:
            self.calls[self.key] += 1
            yield entry


def count_product_zeros(patch, calls):
    """Make _log_product, looked up through the evaluator module as its own
    callers look it up, count under calls["product zeros"] the zeros its loop
    takes: those it multiplies, a skipped one and the one it stops at."""
    loop = evaluator._log_product

    def counted(table, log_mag, phase, inverses=None, skip=None):
        if inverses is None:
            inverses = evaluator._inverses(table)
        return loop(CountedTable(table, calls, "product zeros"), log_mag, phase, inverses, skip)

    patch.setattr(evaluator, "_log_product", counted)


@pytest.fixture
def product_zeros(monkeypatch):
    """A Counter whose "product zeros" are the zeros _log_product takes."""
    calls = Counter()
    count_product_zeros(monkeypatch, calls)
    return calls


def record_table_builds(patch, built):
    """Make _kept, in the evaluator and the probe layer, append (schedule,
    key) to built for every table it builds; holding the schedules keeps
    their ids from being reused."""
    kept = evaluator._kept

    def recorded(schedule, key, build):
        def recorded_build():
            built.append((schedule, key))
            return build()
        return kept(schedule, key, recorded_build)

    for module in (evaluator, probe):
        patch.setattr(module, "_kept", recorded)


@pytest.fixture
def table_builds(monkeypatch):
    """The (schedule, key) of every per-schedule table built in the test."""
    built = []
    record_table_builds(monkeypatch, built)
    return built
