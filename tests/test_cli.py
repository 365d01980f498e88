import hashlib
import json
import os
import platform
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from click.testing import CliRunner

import rankzero
from rankzero.cli import main
from rankzero.evaluator import default_precision


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args):
    result = runner.invoke(main, list(args), catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def run_entry(*args, prelude=""):
    """The console entry point in a child process, after running `prelude`."""
    env = dict(os.environ)
    src = str(Path(rankzero.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = prelude + "\nfrom rankzero.cli import entry; entry()"
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestPipelines:
    def test_build_set_then_derive(self, runner, tmp_path):
        set_path = tmp_path / "set.json"
        out_path = tmp_path / "derived.json"
        run(runner, "build-set", "--alpha", "w+2", "--nu", "3", "--out", str(set_path))
        result = run(runner, "derive", "--set", str(set_path), "--beta", "w+1",
                     "--out", str(out_path))
        assert "cardinality 3" in result.output
        assert json.loads(out_path.read_text())["kind"] == "forest"

    def test_build_zeros_then_eval(self, runner, tmp_path):
        sched = tmp_path / "s.json"
        csv = tmp_path / "field.csv"
        run(runner, "build-zeros", "--alpha", "3", "--nu", "1", "--nmax", "6",
            "--out", str(sched))
        run(runner, "eval", "--schedule", str(sched), "--j", "1",
            "--grid", "ring:3", "--out", str(csv))
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "log_r,turn,log_mag,phase,tail_bound,valid"
        assert len(lines) == 65

    def test_probe_report(self, runner, tmp_path):
        sched = tmp_path / "s.json"
        rep = tmp_path / "report.json"
        run(runner, "build-zeros", "--alpha", "3", "--nu", "1", "--nmax", "8",
            "--out", str(sched))
        result = run(runner, "probe", "--schedule", str(sched),
                     "--rule", "ratio-plus:r=1/2", "--k", "4..7", "--depth", "2",
                     "--out", str(rep))
        assert "toward-lower" in result.output
        payload = json.loads(rep.read_text())
        assert payload["branch"] == "toward-lower"
        assert not payload["inconclusive"]

    def test_sector_variant(self, runner, tmp_path):
        sched = tmp_path / "s.json"
        run(runner, "build-zeros", "--alpha", "2", "--nu", "inf", "--nmax", "4",
            "--out", str(sched))
        payload = json.loads(sched.read_text())
        assert payload["variant"] == "sectors"

    def test_limit_variant(self, runner, tmp_path):
        sched = tmp_path / "s.json"
        run(runner, "build-zeros", "--alpha", "w", "--nmax", "4", "--out", str(sched))
        assert json.loads(sched.read_text())["variant"] == "limit"


# sha256 of `rankzero build-zeros --alpha 3 --nu 1 --nmax 6 --out s.json`
BUILD_ZEROS_3_1_6_SHA256 = "cc1e37d0ef5a3f7c6771b2c82d2326c3beaba0ec94bedf20764b340a863a254a"


class TestManifests:
    def test_manifest_written_with_digests(self, runner, tmp_path):
        out = tmp_path / "set.json"
        run(runner, "build-set", "--alpha", "2", "--out", str(out))
        manifest = json.loads((tmp_path / "set.json.manifest.json").read_text())
        assert manifest["command"] == "build-set"
        assert "set.json" in manifest["outputs"]
        assert len(manifest["outputs"]["set.json"]) == 64

    def test_manifest_records_the_environment(self, runner, tmp_path):
        out = tmp_path / "s.json"
        run(runner, "--precision", "200", "build-zeros", "--alpha", "3", "--nu", "1",
            "--nmax", "6", "--out", str(out))
        manifest = json.loads((tmp_path / "s.json.manifest.json").read_text())
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
        }
        # the artifact keeps the bytes it had before manifests recorded this
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == manifest["outputs"]["s.json"] == BUILD_ZEROS_3_1_6_SHA256

    def test_identical_runs_are_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run(runner, "build-zeros", "--alpha", "3", "--nu", "1", "--nmax", "6",
                "--out", str(out))
        assert a.read_bytes() == b.read_bytes()
        ma = json.loads((tmp_path / "a.json.manifest.json").read_text())
        mb = json.loads((tmp_path / "b.json.manifest.json").read_text())
        assert ma["outputs"]["a.json"] == mb["outputs"]["b.json"]


class TestVerify:
    def test_core_suite_passes_and_writes_report(self, runner, tmp_path):
        report = tmp_path / "report.json"
        result = run(runner, "verify", "--suite", "core", "--out", str(report))
        assert result.output.count("PASS") == 10
        assert "FAIL" not in result.output
        payload = json.loads(report.read_text())
        assert payload["all_passed"]


class TestFailures:
    def test_usage_error_from_bad_ordinal(self, runner, tmp_path):
        result = runner.invoke(
            main, ["build-set", "--alpha", "x", "--out", str(tmp_path / "o.json")]
        )
        assert result.exit_code == 2

    def test_usage_error_from_limit_nu(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["build-set", "--alpha", "w", "--nu", "2", "--out", str(tmp_path / "o.json")],
        )
        assert result.exit_code == 2

    def test_unknown_grid(self, runner, tmp_path):
        sched = tmp_path / "s.json"
        run(runner, "build-zeros", "--alpha", "3", "--nu", "1", "--nmax", "6",
            "--out", str(sched))
        result = runner.invoke(
            main, ["eval", "--schedule", str(sched), "--grid", "blob:1",
                   "--out", str(tmp_path / "x.csv")]
        )
        assert result.exit_code == 2

    def test_non_integer_j_is_a_usage_error(self, runner, tmp_path):
        sched = tmp_path / "s.json"
        run(runner, "build-zeros", "--alpha", "3", "--nu", "1", "--nmax", "6",
            "--out", str(sched))
        args = ["eval", "--schedule", str(sched), "--j", "abc",
                "--out", str(tmp_path / "x.csv")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "positive integer" in result.output
        # the console entry point turns it into exit status 2 and a message
        proc = run_entry(*args)
        assert proc.returncode == 2
        assert "positive integer" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command, content", [
        ("eval", '{"variant": "rows"}'),
        ("eval", "[1, 2]"),
        ("probe", "not json at all"),
        ("probe", '{"variant": "rows", "alpha": "3", "nu": 1, "log_radii": ["1/0"]}'),
        ("derive", '{"kind": "leaf"}'),
        ("derive", "\x00\xff"),
        # one point listed twice: the members' hulls are not disjoint
        ("derive", '{"kind": "forest", "members": [{"kind": "leaf", "angle": "1/8"}, '
                   '{"kind": "leaf", "angle": "1/8"}]}'),
        # child ranks enumerate the ordinals below a limit, and 3 is none
        ("derive", '{"kind": "cluster", "limit": "1/8", "ordinal": "3", "nu": 1, '
                   '"arc": {"center": "1/8", "half_width": "1/96"}, "kids": {"kind": '
                   '"apex", "ranks": {"kind": "enum", "limit": "3"}}, "with_apex": false}'),
        ("derive", '{"kind": "cluster", "limit": "1/7", "ordinal": "2", "nu": 1, '
                   '"arc": {"center": "1/8", "half_width": "1/96"}, "kids": {"kind": '
                   '"apex", "ranks": {"kind": "const", "value": "1"}}, "with_apex": false}'),
        # every child has rank w, so the cluster has rank w+1, not 1
        ("derive", '{"kind": "cluster", "limit": "1/8", "ordinal": "1", "nu": 1, '
                   '"arc": {"center": "1/8", "half_width": "1/96"}, "kids": {"kind": '
                   '"apex", "ranks": {"kind": "const", "value": "w"}}, "with_apex": false}'),
        # pruning 3 stages of a rank-3 base leaves no cluster
        ("derive", '{"kind": "cluster", "limit": "1/8", "ordinal": "0", "nu": 1, '
                   '"arc": {"center": "1/8", "half_width": "1/96"}, "kids": {"kind": '
                   '"derived", "beta": "3", "base": {"kind": "apex", "ranks": {"kind": '
                   '"const", "value": "2"}}}, "with_apex": true}'),
        # a picked rank of 0 would be a single point, not a cluster
        ("derive", '{"kind": "cluster", "limit": "1/8", "ordinal": "0", "nu": 1, '
                   '"arc": {"center": "1/8", "half_width": "1/96"}, "kids": {"kind": '
                   '"picked", "alpha": "0", "base": {"kind": "apex", "ranks": {"kind": '
                   '"const", "value": "2"}}}, "with_apex": false}'),
    ])
    def test_malformed_input_is_a_usage_error(self, runner, tmp_path, command, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content.encode("latin-1"))
        option = "--set" if command == "derive" else "--schedule"
        extra = {"eval": [], "probe": ["--rule", "ratio-plus:r=1/2"],
                 "derive": ["--beta", "1"]}[command]
        args = [command, option, str(bad), *extra, "--out", str(tmp_path / "o")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "cannot load" in result.output
        assert not (tmp_path / "o").exists()

    def test_malformed_schedule_through_entry(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"variant": "rows"}')
        proc = run_entry("eval", "--schedule", str(bad), "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert "cannot load" in proc.stderr and "log_radii" in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def schedules(tmp_path_factory):
    """A 10-ring row schedule, a 4-super-row sector schedule and a row
    schedule without zeros on disk."""
    root = tmp_path_factory.mktemp("schedules")
    paths = {"rows": root / "rows.json", "sectors": root / "sectors.json",
             "no-zeros": root / "no-zeros.json"}
    runner = CliRunner()
    run(runner, "build-zeros", "--alpha", "3", "--nu", "1", "--nmax", "10",
        "--out", str(paths["rows"]))
    run(runner, "build-zeros", "--alpha", "2", "--nu", "inf", "--nmax", "4",
        "--out", str(paths["sectors"]))
    paths["no-zeros"].write_text(json.dumps({
        "variant": "rows", "alpha": "3", "nu": 1,
        "log_radii": ["1", "2", "3", "5", "8"],
        "zeros": [], "angles": {"0": []}, "sources": {"0": {"kind": "empty"}},
    }))
    return paths


class TestBadArguments:
    @pytest.mark.parametrize("layout, args, message", [
        ("rows", ["probe", "--rule", "ratio-plus:r=1/0"], "bad rule"),
        ("rows", ["probe", "--rule", "geometric-mean:L=1/0"], "bad rule"),
        ("rows", ["probe", "--rule", "ratio-plus:r=1/2", "--k", "5..2"], "k range is empty"),
        ("rows", ["probe", "--rule", "ratio-plus:r=1/2", "--k", "0..2"], "k must be >= 1"),
        ("rows", ["probe", "--rule", "ratio-plus:r=1/2", "--depth", "12"], "too small"),
        ("rows", ["probe", "--rule", "sector:r=1/2,t=3", "--k", "1..2"], "no source set"),
        ("sectors", ["probe", "--rule", "sector:r=1/2,t=3", "--k", "1..2"], "k >= t = 3"),
        ("sectors", ["probe", "--rule", "ratio-plus:r=1/2"], "no source set"),
        ("rows", ["eval", "--rows", "40"], "rows_used 40 outside 0..10"),
        ("rows", ["eval", "--rows", "-1"], "rows_used -1 outside 0..10"),
        ("rows", ["eval", "--grid", "ring:40"], "ring 40 outside 1..10"),
        ("rows", ["eval", "--grid", "ring:0"], "ring 0 outside 1..10"),
        ("rows", ["eval", "--grid", "annulus:n=10"], "ring 11 outside 1..10"),
        ("rows", ["probe", "--rule", "ratio-plus:r=1/2", "--depth", "-1"],
         "depth must be >= 0"),
        ("rows", ["eval", "--grid", "ring:n=3,samples=0"], "samples must be >= 1"),
        ("rows", ["eval", "--grid", "ring:n=3,samples=-5"], "samples must be >= 1"),
        ("rows", ["eval", "--grid", "annulus:n=3,samples=0"], "samples must be >= 1"),
        ("no-zeros", ["probe", "--rule", "geometric-mean:L=1", "--k", "1..2"],
         "schedule has no zeros"),
    ])
    def test_usage_error(self, runner, tmp_path, schedules, layout, args, message):
        out = tmp_path / "o"
        command, *rest = args
        result = runner.invoke(
            main, [command, "--schedule", str(schedules[layout]), *rest, "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not out.exists()

    def test_usage_error_through_entry(self, tmp_path, schedules):
        out = tmp_path / "o.json"
        proc = run_entry("probe", "--schedule", str(schedules["rows"]),
                         "--rule", "ratio-plus:r=1/2", "--k", "5..2", "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert "k range is empty" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_corrupt_radii_are_rejected_on_load(self, runner, tmp_path, schedules):
        # the ladder 1, 3/2, 2, ... under the original zeros
        payload = json.loads(schedules["rows"].read_text())
        payload["log_radii"] = [str(1 + F(i, 2)) for i in range(len(payload["log_radii"]))]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["eval", "--schedule", str(bad), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "cannot load" in result.output and "radius ratio" in result.output
        assert not out.exists()


class TestExitCodes:
    def test_inconclusive_probe_exits_4(self, runner, tmp_path):
        sched = tmp_path / "s.json"
        run(runner, "build-zeros", "--alpha", "2", "--nu", "1", "--nmax", "6",
            "--out", str(sched))
        rep = tmp_path / "r.json"
        proc = run_entry("probe", "--schedule", str(sched), "--rule", "ratio-plus:r=1/2",
                         "--k", "2..3", "--depth", "2", "--out", str(rep))
        assert proc.returncode == 4, proc.stderr
        assert "inconclusive; failing targets: origin, 23/192, 47/384" in proc.stdout
        assert "Traceback" not in proc.stderr
        payload = json.loads(rep.read_text())
        assert payload["inconclusive"]
        assert payload["failing_targets"] == ["origin", "23/192", "47/384"]

    def test_failing_criterion_exits_3(self, tmp_path):
        prelude = (
            "import rankzero.verification as v\n"
            "v.CRITERIA[:] = [(1, 'forced', "
            "lambda: v.CheckResult(1, 'forced', False, ['forced failure']))]"
        )
        proc = run_entry("verify", "--suite", "core", prelude=prelude)
        assert proc.returncode == 3, proc.stderr
        assert "FAIL  [ 1] forced" in proc.stdout
        assert "invariant breach: acceptance criteria failed" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestPrecision:
    def test_precision_applies_to_one_invocation(self, runner, tmp_path):
        environ = dict(os.environ)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(runner, "--precision", "64", "build-set", "--alpha", "2", "--out", str(a))
        run(runner, "build-set", "--alpha", "2", "--out", str(b))
        first = json.loads((tmp_path / "a.json.manifest.json").read_text())
        second = json.loads((tmp_path / "b.json.manifest.json").read_text())
        assert first["precision_bits"] == 64
        assert second["precision_bits"] == 200
        assert dict(os.environ) == environ

    def test_environment_does_not_set_precision(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("RANKZERO_BITS", "80")
        assert default_precision() == 200
        run(runner, "build-set", "--alpha", "2", "--out", str(tmp_path / "a.json"))
        manifest = json.loads((tmp_path / "a.json.manifest.json").read_text())
        assert manifest["precision_bits"] == 200
