"""The benchmark's pinned bytes and verdicts, checked in process.

perfbench/pins.json records the sha256 of every artifact a benchmark cycle
writes that passed its checks.  Here every command of four cli-pipeline
cycles (seeds 1 and 6 drew four ranks whose first leaf lies deeper than
three nested clusters, and seed 9 three; each of those builds used to
come out refused or with empty rings) and the build-set/derive pairs of
one build-large cycle run through the CLI at the benchmark's precision.
The benchmark's oracle checks each command, none may be a defect or wrong,
and each pinned artifact must have its pinned digest.  The verify-core
report goes through the same oracle, so a criterion that fails or moves is
named.  The plans, pins and oracle are only read.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

import oracle
import plans
from rankzero.cli import main
from rankzero.probe import InconclusiveProbe

PINS = json.loads((oracle.PINS_PATH).read_text())


def _set_jobs(jobs):
    return [job for job in jobs if job[0]["kind"] == "build-set"]


def _exit_code(result) -> int:
    """The exit code the console script gives: 4 for an inconclusive probe."""
    if isinstance(result.exception, InconclusiveProbe):
        return 4
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return result.exit_code


@pytest.mark.parametrize("workload, seed, select", [
    ("cli-pipeline", 0, list),
    ("cli-pipeline", 1, list),
    ("cli-pipeline", 6, list),
    ("cli-pipeline", 9, list),
    ("build-large", 0, _set_jobs),
], ids=["cli-pipeline", "cli-pipeline-1", "cli-pipeline-6", "cli-pipeline-9",
        "build-large-sets"])
def test_pinned_artifacts_keep_their_bytes(workload, seed, select, tmp_path, monkeypatch):
    pins = PINS[workload][str(seed)]
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    checker = oracle.Checker(tmp_path, PINS)
    written, verdicts = set(), []
    for job in select(plans.plan(workload, seed)):
        for cmd in job:
            result = runner.invoke(main, ["--precision", str(plans.PRECISION), *cmd["argv"]])
            verdict, message = checker.check(cmd, _exit_code(result), result.stdout,
                                             result.stderr)
            if verdict != "ok":
                verdicts.append((cmd["out"], verdict, message))
            written.add(cmd["out"])
    assert verdicts == []
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
