"""The benchmark's pinned bytes, checked in process.

perfbench/pins.json records the sha256 of every artifact a benchmark cycle
writes that passed its checks.  Here every command of one cli-pipeline cycle,
the build-zeros and eval commands of three more cli-pipeline seeds (1 and 6
fail four of their 26 operations per cycle, 9 three, all in build-zeros),
and the build-set/derive pairs of one build-large cycle, run through the CLI
at the benchmark's precision, and each pinned artifact must have its pinned
digest.  The verify-core report goes through the benchmark's own oracle, so
a criterion that fails or moves is named.  The plans, pins and oracle are
only read.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from rankzero.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import plans  # noqa: E402

PINS = json.loads((BENCH / "pins.json").read_text())


def _set_jobs(jobs):
    return [job for job in jobs if job[0]["kind"] == "build-set"]


def _eval_jobs(jobs):
    return [[cmd for cmd in job if cmd["kind"] in ("build-zeros", "eval")] for job in jobs]


@pytest.mark.parametrize("workload, seed, select", [
    ("cli-pipeline", 0, list),
    ("cli-pipeline", 1, _eval_jobs),
    ("cli-pipeline", 6, _eval_jobs),
    ("cli-pipeline", 9, _eval_jobs),
    ("build-large", 0, _set_jobs),
], ids=["cli-pipeline", "cli-pipeline-1-evals", "cli-pipeline-6-evals", "cli-pipeline-9-evals",
        "build-large-sets"])
def test_pinned_artifacts_keep_their_bytes(workload, seed, select, tmp_path, monkeypatch):
    pins = PINS[workload][str(seed)]
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    written = set()
    for job in select(plans.plan(workload, seed)):
        for cmd in job:
            runner.invoke(main, ["--precision", str(plans.PRECISION), *cmd["argv"]],
                          catch_exceptions=False)
            written.add(cmd["out"])
    wanted = {name: digest for name, digest in pins.items() if name in written}
    assert wanted, "the selected commands write no pinned artifact"
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           if (tmp_path / name).exists() else None for name in wanted}
    assert got == wanted


def test_verify_core_report_passes_the_oracle(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ((cmd,),) = plans.plan("verify-core", 0)
    result = CliRunner().invoke(main, ["--precision", str(plans.PRECISION), *cmd["argv"]],
                                catch_exceptions=False)
    assert result.exit_code == 0
    verdicts = oracle.check_verify_report((tmp_path / cmd["out"]).read_bytes(), PINS)
    assert len(verdicts) == 11  # ten criteria and the report digest
    assert [message for verdict, message in verdicts if verdict != "ok"] == []
