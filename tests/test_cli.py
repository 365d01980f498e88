import copy
import gc
import hashlib
import json
import math
import operator
import os
import platform
import subprocess
import sys
from fractions import Fraction as F
from functools import reduce
from pathlib import Path

import mpmath
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import rankzero
from rankzero.cli import entry, main
from rankzero.evaluator import default_precision
from rankzero.probe import InconclusiveProbe
from rankzero.schedule import build_row_schedule, build_sector_schedule, schedule_to_json


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

    def test_build_zeros_then_eval_on_an_annulus(self, runner, tmp_path):
        sched = tmp_path / "s.json"
        csv = tmp_path / "field.csv"
        run(runner, "build-zeros", "--alpha", "3", "--nu", "1", "--nmax", "6",
            "--out", str(sched))
        run(runner, "eval", "--schedule", str(sched), "--grid", "annulus:n=3,samples=4",
            "--out", str(csv))
        lines = csv.read_text().strip().splitlines()[1:]
        radii = build_row_schedule(3, 1, 6).radii
        assert len(lines) == 4
        assert all(radii.log_radius(3) < F(line.split(",")[0]) <= radii.log_radius(4)
                   for line in lines)

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

# sha256 of `rankzero --precision 200 eval --j 16 --grid ring:n=5,samples=64`
# on build_sector_schedule(3, 6), from the product loop that summed every zero
EVAL_SECTOR_3_6_SHA256 = "1de796008797bab6d4c736603ca183b3ccea684d73ef33f9f425470148572b5d"


def _tail_sums(table_builds):
    """How many interval tail sums _tail_bound made: its ("tail", ...)
    tables."""
    return sum(isinstance(key, tuple) and key[0] == "tail" for _, key in table_builds)


def test_eval_product_zeros_and_bytes(runner, tmp_path, product_zeros, table_builds):
    """A sector eval at a large dilation takes only the zeros that can move
    its rounded product, sums its tail once for the one modulus of its
    ring, and writes the bytes of the whole product."""
    sched, csv = tmp_path / "s.json", tmp_path / "field.csv"
    sched.write_text(json.dumps(schedule_to_json(build_sector_schedule(3, 6))))
    run(runner, "--precision", "200", "eval", "--schedule", str(sched), "--j", "16",
        "--grid", "ring:n=5,samples=64", "--out", str(csv))
    # the log-sum loop called its kernel 2,240 times, and 5,824 times, all 91
    # zeros at each of the 64 points, before its cut
    # 36 zeros at each point: the 35 multiplied and the one the loop stops at
    assert product_zeros["product zeros"] == 2304
    # 64 sums, one per point, before the sums were kept per modulus
    assert _tail_sums(table_builds) == 1
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == EVAL_SECTOR_3_6_SHA256


# sha256 of `rankzero --precision 200 eval` on three layouts no other pin
# covers, from the kernel that ran on mp objects, with the zeros the product
# loop takes in that eval, the one it stops at included, and the interval
# tail sums it makes; the log-sum loop called its kernel 1,600, 3,520 and
# 3,520 times, 0, 0 and 960 of them on its Re s >= 40 branch.  An annulus
# grid has a modulus per point and a ring grid one for all its points, and
# that of "re-s-above-40" lies outside the tail hypothesis, so it sums none.
# Sector 6 of "limit-annulus" hosts a set of collapse rank b_6 = 4, which
# had no points before deep sets took theirs from enumerate_points: ring 21
# was empty, the schedule had 20 rings, and the CSV hashed to eb73172f...;
# with ring 21 filled its tail bounds and tail-hypothesis edge move, and
# the 1,664 zeros and 64 tail sums stay
EVAL_LAYOUT_PINS = {
    "limit-annulus": (
        ["--alpha", "w^2", "--nmax", "6"], ["--j", "25", "--grid", "annulus:n=3,samples=64"],
        1664, 64, "b16dd7408760ddead7fe439b85584ad0bf883728381fa929d413b334a0750361"),
    "rows-large-j": (
        ["--alpha", "w^2+1", "--nu", "2", "--nmax", "10"],
        ["--j", "81193", "--grid", "ring:n=7,samples=64"],
        3520, 1, "38e6aadab3ff11877189c6b32f5505f9c7c485a60cb3910c33c24d2c2085c847"),
    "re-s-above-40": (
        ["--alpha", "3", "--nu", "1", "--nmax", "10"],
        ["--j", "100000000000000000000", "--grid", "ring:3"],
        3520, 0, "528034e27f08d036432347160bda0f83c4295250c596251ad57e9de52cf229a6"),
}


@pytest.mark.parametrize("case", sorted(EVAL_LAYOUT_PINS))
def test_eval_bytes_and_product_zeros(runner, tmp_path, product_zeros, table_builds, case):
    build, grid, n_zeros, n_tails, digest = EVAL_LAYOUT_PINS[case]
    sched, csv = tmp_path / "s.json", tmp_path / "field.csv"
    run(runner, "--precision", "200", "build-zeros", *build, "--out", str(sched))
    assert product_zeros["product zeros"] == 0
    run(runner, "--precision", "200", "eval", "--schedule", str(sched), *grid,
        "--out", str(csv))
    assert product_zeros["product zeros"] == n_zeros
    assert _tail_sums(table_builds) == n_tails
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest


# sha256 of `eval --rows N` (default grid ring:3) on the schedules fixture,
# from the evaluator that truncated to its rows_used argument
EVAL_ROWS_SHA256 = {
    ("rows", 0): "c137ae0e74ed4fa164c4f35f79e473db87216aef5a48b9ae5585f7537bc082e8",
    ("rows", 3): "a90c7b48c282fb3db847071b4624f06a410433971371069716d6e3f8c33ab73f",
    ("rows", 8): "08cb227faed010a429ba572aff7d591a3ebb015379307b9280bee9ecf80175fa",
    ("rows", 10): "329586fb603e89da67fc060a2920f521a3418e5d3aa28d1c17338d3e4a4e4f20",
    ("sectors", 4): "d24bc0f72b5060c36e92be238777ee78cb1d46dda2ca60252bc743589c0e56dc",
    ("sectors", 7): "42594c6e402b5af1f7a1e8a2b6918b85499c9d5a86237e61322ecdd7a24c6c4d",
    ("sectors", 10): "91759e5bec4c3b2e2536be33142d20655be809d8b574d460fc6b768038a072fb",
}


@pytest.mark.parametrize("layout, rows", sorted(EVAL_ROWS_SHA256))
def test_eval_rows_bytes(runner, tmp_path, schedules, layout, rows):
    """--rows N evaluates the schedule cut to its first N rings."""
    csv = tmp_path / "field.csv"
    run(runner, "eval", "--schedule", str(schedules[layout]), "--rows", str(rows),
        "--out", str(csv))
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == EVAL_ROWS_SHA256[layout, rows]


def test_eval_rows_at_an_empty_ring_is_the_ring_below(runner, tmp_path):
    """Ring 15 of this loaded limit layout holds no zeros, so the schedule
    cut at 15 rings is the one cut at 14, and its tail is bounded from ring
    15 on: a valid bound, looser than one that starts past ring 15.  No
    builder leaves a ring empty, but the loader does not count zeros per
    ring, so a schedule edited by hand can."""
    sched = tmp_path / "s.json"
    run(runner, "build-zeros", "--alpha", "w", "--nmax", "6", "--out", str(sched))
    obj = json.loads(sched.read_text())
    kept = [z for z in obj["zeros"] if z["row"] != 15]
    assert len(obj["zeros"]) - len(kept) == 5
    sched.write_text(json.dumps({**obj, "zeros": kept}))
    fields = {}
    for rows in (14, 15):
        csv = tmp_path / f"rows-{rows}.csv"
        run(runner, "eval", "--schedule", str(sched), "--rows", str(rows), "--out", str(csv))
        fields[rows] = csv.read_text()
    assert fields[14] == fields[15]
    assert all(line.endswith(",1") for line in fields[15].splitlines()[1:])


def test_entry_freezes_the_import_heap(monkeypatch):
    """The console script moves what import left on the heap out of the
    collector's reach before the command runs, usage errors included."""
    monkeypatch.setattr(sys, "argv", ["rankzero", "verify", "--suite", "bad"])
    assert gc.get_freeze_count() == 0
    try:
        with pytest.raises(SystemExit) as stop:
            entry()
        assert stop.value.code == 2
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


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


def _one_zero_schedule(turn="1/8", sector=None, **fields):
    """A hand-written one-zero row schedule as JSON, with the zero's turn
    and sector and any top-level fields replaced."""
    zero = {"row": 1, "log_r": "1", "turn": turn, "sector": sector}
    return json.dumps({
        "variant": "rows", "alpha": "3", "nu": 1, "log_radii": ["1", "2", "3"],
        "zeros": [zero], "angles": {"0": ["1/8"]},
        "sources": {"0": {"kind": "leaf", "angle": "1/8"}}, **fields,
    })


class TestFailures:
    def test_one_zero_schedule_loads(self, runner, tmp_path):
        # the malformed cases below each break one field of this schedule
        good = tmp_path / "good.json"
        good.write_text(_one_zero_schedule())
        run(runner, "eval", "--schedule", str(good), "--out", str(tmp_path / "x.csv"))

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
        # a turn of 10^400, whose residue mod 1 a float or 230 bits loses
        ("eval", _one_zero_schedule(turn="1e400")),
        ("probe", _one_zero_schedule(turn="1e400")),
        ("eval", _one_zero_schedule(turn="-1/8")),
        # a JSON number past the float range, 1e400 or Infinity, reads as inf
        ("eval", _one_zero_schedule(turn=math.inf)),
        ("probe", _one_zero_schedule(log_radii=["1", "2", "Infinity"]).replace(
            '"Infinity"', "1e400")),
        ("eval", _one_zero_schedule(angles="x")),
        ("eval", _one_zero_schedule(sources=[])),
        ("eval", _one_zero_schedule(sources=None)),
        ("eval", _one_zero_schedule(angles={"0": ["1/8"], "1": []})),
        # variant, alpha, nu and the zeros' sectors disagree
        ("eval", _one_zero_schedule(nu="x")),
        ("probe", _one_zero_schedule(nu=0)),
        ("eval", _one_zero_schedule(variant=5)),
        ("eval", _one_zero_schedule(alpha="w")),
        ("eval", _one_zero_schedule(sector=7)),
        ("probe", _one_zero_schedule(sector=7)),
        ("eval", _one_zero_schedule(variant="sectors")),
        ("eval", _one_zero_schedule(variant="limit", nu=None)),
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
        ("rows", ["eval", "--rows", "40"], "--rows 40 outside 0..10"),
        ("rows", ["eval", "--rows", "-1"], "--rows -1 outside 0..10"),
        ("rows", ["eval", "--j", "0"], "--j must be a positive integer"),
        ("rows", ["eval", "--grid", "disk:n=3"], "unknown grid kind"),
        ("rows", ["probe", "--rule", "bogus:r=1/2"], "unknown rule kind"),
        ("rows", ["probe", "--rule", "ratio-plus:r=1/2", "--k", "a..b"], "bad range"),
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
        # past the last ring j_k needs radii whose bit lengths grow like
        # Fibonacci numbers: ring 40 alone takes about 2.4e8 bits
        ("rows", ["probe", "--rule", "ratio-plus:r=1/2", "--k", "5..40"], "k <= 10"),
        ("sectors", ["probe", "--rule", "sector:r=1/2,t=2", "--k", "2..5"], "k <= 4"),
        # floor(e^(3/2) / 10) = 0, and f(0 z) is no member of {f(nz) : n >= 1}
        ("rows", ["probe", "--rule", "geometric-mean:L=1/10", "--k", "1..3"], "j_1 = 0"),
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

    @pytest.mark.parametrize("args, message", [
        (["derive", "--beta", "w+"], "unexpected end of ordinal"),
        (["build-zeros", "--alpha", "x"], "bad ordinal syntax"),
        (["build-zeros", "--alpha", "3", "--nu", "0"], "nu must be a positive integer"),
        (["verify", "--suite", "bogus"], "--suite must be 'all' or 'core'"),
    ])
    def test_usage_error_without_a_schedule(self, runner, tmp_path, args, message):
        out = tmp_path / "o"
        if args[0] == "derive":
            run(runner, "build-set", "--alpha", "2", "--out", str(tmp_path / "set.json"))
            args = [*args, "--set", str(tmp_path / "set.json")]
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not out.exists()

    def test_nu_of_a_limit_rank_is_ignored(self, runner, tmp_path):
        out = tmp_path / "s.json"
        result = run(runner, "build-zeros", "--alpha", "w", "--nu", "3", "--nmax", "4",
                     "--out", str(out))
        assert "--nu ignored" in result.output
        assert json.loads(out.read_text())["variant"] == "limit"

    def test_bad_rational_is_a_usage_error(self, runner, tmp_path):
        out = tmp_path / "set.json"
        result = runner.invoke(main, ["build-set", "--alpha", "2", "--arc-center", "1/0",
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "bad rational '1/0'" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("bits", ["-5", "0", "63"])
    def test_precision_below_64_is_a_usage_error(self, runner, tmp_path, schedules, bits):
        out = tmp_path / "o"
        result = runner.invoke(main, ["--precision", bits, "eval", "--schedule",
                                      str(schedules["rows"]), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "--precision" in result.output
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


def _json_paths(obj, path=()):
    """Every path of keys and indices into a JSON value, the empty path for
    the value itself included."""
    yield path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from _json_paths(value, path + (key,))


def _with_field(obj, path, value):
    """A copy of the JSON value obj with the field at path replaced."""
    if not path:
        return value
    obj = copy.deepcopy(obj)
    reduce(operator.getitem, path[:-1], obj)[path[-1]] = value
    return obj


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(10**18, 10**400)
    | st.floats() | st.text(max_size=6)
    | st.sampled_from(["1e400", "-1e400", "1/0", "-1/8", "9/8", "w", "0", "1", "10",
                       math.inf, -math.inf]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                              max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def four_ring_schedule():
    return schedule_to_json(build_row_schedule(3, 1, 4))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_corrupt_schedule_field_exits_cleanly(four_ring_schedule, data):
    """eval and probe on a schedule with one field replaced by any JSON
    value succeed, refuse it as a usage error or report an inconclusive
    probe; nothing else escapes."""
    path = data.draw(st.sampled_from(list(_json_paths(four_ring_schedule))), label="path")
    value = data.draw(json_values, label="value")
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("s.json").write_text(json.dumps(_with_field(four_ring_schedule, path, value)))
        for command, *rest in (["eval", "--grid", "ring:n=2,samples=4"],
                               ["probe", "--rule", "ratio-plus:r=1/2", "--depth", "1"]):
            result = runner.invoke(main, [command, "--schedule", "s.json", *rest,
                                          "--out", "o"])
            assert result.exit_code in (0, 2) or isinstance(
                result.exception, InconclusiveProbe), (command, result.exception)
