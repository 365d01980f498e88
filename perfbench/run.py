"""rankzero benchmark: end-to-end and per-layer metrics for three workloads.

Usage (from the root of a rankzero checkout):

    python3 perfbench/run.py --workload verify-core --seed 1 --seconds 20 --trace 0

Every operation runs the CLI in a fresh process (``perfbench/child.py``)
with ``RANKZERO_BITS`` removed and ``--precision 200`` passed, one at a time
(a closed loop with one client).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced cycle.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import oracle  # noqa: E402
import plans  # noqa: E402
from tracer import per_layer_metrics  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
CALIB = HERE / "calib.py"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 8
COMMAND_TIMEOUT_S = 150
# Reference seconds of a command's CPU time per calibration unit finished
# beside it: one unit's duration with the CPU to itself on the 2-core
# reference box (6-11 ms measured; 8 ms taken), times the scheduler's
# weight ratio between the command and the niced calibration loop.
REF_UNIT_S = 0.008 * calib.WEIGHT_RATIO

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "cmd_p50_s": "s", "cmd_p90_s": "s"}


class Speedometer:
    """Runs calib.py on the benchmark's CPU and converts any interval timed
    with ``time.perf_counter`` into reference seconds: the calibration units
    that finished in it, times REF_UNIT_S.

    The machine is shared: each CPU's speed swings by 20-50 % from second
    to second, independently of the other CPU, so clock times of one run
    do not compare with another's.  A command and the calibration loop
    that share one CPU see the same swings, and the scheduler splits the
    CPU between them in a fixed ratio, so the units the loop finishes
    while the command runs measure the command's work at a fixed
    reference speed."""

    def __init__(self, log: Path):
        self.log = log
        self.proc = subprocess.Popen([sys.executable, str(CALIB), str(log)],
                                     stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.ends: list = []
        self._wait_past(time.perf_counter())

    def _read(self) -> list:
        text = self.log.read_text() if self.log.exists() else ""
        lines = text.split("\n")[:-1]  # drop a line still being written
        return [float(x) for x in lines]

    def _wait_past(self, t: float) -> None:
        deadline = time.perf_counter() + 60
        while True:
            ends = self._read()
            if len(ends) >= 2 and ends[-1] > t:
                return
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("the calibration process stopped logging")
            time.sleep(0.005)

    def stop(self) -> None:
        try:
            self._wait_past(time.perf_counter())
        finally:
            self.proc.terminate()
            self.proc.wait()
        self.ends = self._read()

    def _work(self, t: float) -> float:
        ends = self.ends
        i = bisect.bisect_right(ends, t)
        if i == 0 or i == len(ends):
            raise ValueError("time outside the calibrated span")
        return i - 1 + (t - ends[i - 1]) / (ends[i] - ends[i - 1])

    def ref_s(self, start: float, end: float) -> float:
        return (self._work(end) - self._work(start)) * REF_UNIT_S


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RANKZERO_BITS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(cwd: Path, mode: str, argv: list, env: dict, name: str) -> dict:
    """Run one child process to completion; returns its clock readings and output."""
    rec_path = cwd / f".{name}.record.json"
    args = [sys.executable, str(CHILD), str(rec_path), mode]
    if mode != "setup":
        args += ["--precision", str(plans.PRECISION), *argv]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(args, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, stdout, stderr = -9, "", f"timed out after {exc.timeout} s"
    t_exit = time.perf_counter()
    rec = json.loads(rec_path.read_text()) if rec_path.exists() else {}
    return {
        "exit": code, "stdout": stdout, "stderr": stderr,
        # spawn -> end of `import rankzero.cli` -> process exit
        "t_spawn": t_spawn, "t_import": rec.get("t_import", t_exit), "t_exit": t_exit,
        "maxrss_kb": rec.get("maxrss_kb", 0),
        "trace": rec.get("trace"),
        "not_restored": rec.get("not_restored", []),
    }


def run_cycle(jobs: list, cwd: Path, mode: str, env: dict, checker) -> list:
    """Run every job of the plan once; returns one row per command run."""
    rows = []
    for job in jobs:
        for cmd in job:
            res = run_process(cwd, mode, cmd["argv"], env, cmd["out"])
            verdict, message = checker.check(cmd, res["exit"], res["stdout"], res["stderr"])
            res.update(cmd=cmd, verdict=verdict, message=message)
            out = cwd / cmd["out"]
            res["digest"] = oracle.sha256(out.read_bytes()) if out.exists() else None
            res["bytes_written"] = sum(
                p.stat().st_size for p in (out, cwd / (cmd["out"] + ".manifest.json"))
                if p.exists())
            res["bytes_read"] = sum((cwd / n).stat().st_size for n in cmd["inputs"])
            if cmd["kind"] == "verify":
                res["ops"] = verify_ops(res, out, checker.pins)
            else:
                res["ops"] = [(verdict, message)]
            rows.append(res)
            unusable = res["exit"] != 0 or (
                cmd["kind"] == "build-zeros" and not checker.schedule_zeros(cmd["out"]))
            if unusable and any(cmd["out"] in later["inputs"] for later in job):
                break  # the rest of the job reads this output
    return rows


def verify_ops(res: dict, out: Path, pins: dict) -> list:
    """Ten criteria plus the report as a whole."""
    if not out.exists():
        return [("wrong", f"no report: {res['message']}")] * 11
    ops = oracle.check_verify_report(out.read_bytes(), pins)
    if res["verdict"] != "ok":
        ops[-1] = (res["verdict"], res["message"])
    return ops


def pin_check(rows: list, pins: dict, checker) -> None:
    """Compare each clean artifact with its pinned digest, if one exists."""
    for r in rows:
        name = r["cmd"]["out"]
        want = pins.get(name)
        if (want is not None and r["verdict"] == "ok" and name not in checker.tainted
                and r["digest"] != want):
            r["verdict"], r["message"] = "wrong", f"{name} digest differs from the pin"
            r["ops"] = [(r["verdict"], r["message"])]


def clean_digests(rows: list, checker) -> dict:
    return {r["cmd"]["out"]: r["digest"] for r in rows
            if r["verdict"] == "ok" and r["cmd"]["out"] not in checker.tainted}


def execute(workload: str, seed: int, cwd: Path, mode: str, env: dict, pins: dict):
    """One cycle in a fresh directory; returns (rows, checker)."""
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    checker = oracle.Checker(cwd, pins)
    rows = run_cycle(plans.plan(workload, seed), cwd, mode, env, checker)
    pin_check(rows, pins.get(workload, {}).get(str(seed), {}), checker)
    return rows, checker


def quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta((n+1)p, (n+1)(1-p))
    weighted mean of the order statistics.  A command mix has gaps between
    its command kinds; the plain sample median jumps across such a gap
    when one command lands on the other side, this estimate moves a little.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 4096  # midpoint rule for the regularized incomplete beta
    cdf = [0.0]
    for k in range(steps):
        x = (k + 0.5) / steps
        cdf.append(cdf[-1] + math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                                      - log_beta) / steps)
    edge = [cdf[round(i * steps / n)] for i in range(n + 1)]
    return sum(x * (edge[i + 1] - edge[i]) for i, x in enumerate(xs)) / edge[-1]


def run_record(args, cycles: int, samples: int) -> dict:
    import mpmath

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(), "precision_bits": plans.PRECISION,
        "src_lines": src_lines, "cycles": cycles, "command_samples": samples,
        "clients": 1, "loop": "closed",
    }


def end_to_end(cycles: list, setups: list, timed) -> dict:
    """The end-to-end metrics, with intervals measured by `timed(a, b)`."""
    rows = [r for cyc, _ in cycles for r in cyc]
    latencies = [timed(r["t_spawn"], r["t_exit"]) for r in rows]
    return {
        "wall_s": statistics.median(
            sum(timed(r["t_import"], r["t_exit"]) for r in cyc) for cyc, _ in cycles),
        "setup_s": statistics.median(timed(r["t_spawn"], r["t_import"]) for r in setups + rows),
        "peak_rss_mb": max(r["maxrss_kb"] for r in rows) / 1024,
        "cmd_p50_s": quantile(latencies, 0.5),
        "cmd_p90_s": quantile(latencies, 0.9),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(plans.PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rankzero" / "cli.py").is_file():
        print(f"error: no rankzero sources under {SRC}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so the calibration loop and a running command stop
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = child_env()
    pins = oracle.load_pins()
    work = OUT_DIR / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    # one CPU for this process, its children and the speed reference
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    speed = Speedometer(work / "calibration.log")
    try:
        started = time.perf_counter()
        setups = [run_process(work, "setup", [], env, f"setup-{i}")
                  for i in range(SETUP_PROBES)]
        cycles = []  # (rows, checker) per cycle
        traced = None
        if args.trace:
            cycles.append(execute(args.workload, args.seed, work / "plain", "run", env, pins))
            traced = execute(args.workload, args.seed, work / "traced", "trace", env, pins)
        else:
            # whole cycles only; another starts if it should end within --seconds
            while True:
                t0 = time.perf_counter()
                cycles.append(execute(args.workload, args.seed,
                                      work / f"cycle{len(cycles)}", "run", env, pins))
                now = time.perf_counter()
                if now - started + (now - t0) > args.seconds:
                    break
    finally:
        speed.stop()
        shutil.rmtree(work, ignore_errors=True)

    all_cycles = cycles + ([traced] if traced else [])
    rows = [r for cyc, _ in all_cycles for r in cyc]
    ops = [op for r in rows for op in r["ops"]]
    failed = sum(1 for v, _ in ops if v != "ok")
    wrong = [m for v, m in ops if v == "wrong"]
    defects = sorted({m for v, m in ops if v == "defect"})
    reference = clean_digests(*cycles[0])
    for cyc, checker in all_cycles[1:]:
        if clean_digests(cyc, checker) != reference:
            wrong.append("a repeated or traced cycle wrote different artifact bytes")
    for r in rows:
        if r["not_restored"]:
            wrong.append(f"tracer left patched: {r['not_restored']}")

    raw = end_to_end(cycles, setups, lambda a, b: b - a)
    notes = []
    if args.trace:
        def busy(cyc):
            return sum(speed.ref_s(r["t_import"], r["t_exit"]) for r in cyc)

        metrics, notes = per_layer_metrics([r["trace"] for r in traced[0] if r["trace"]],
                                           speed.ref_s)
        metrics["cli.bytes_written"] = sum(r["bytes_written"] for r in traced[0])
        metrics["cli.bytes_read"] = sum(r["bytes_read"] for r in traced[0])
        metrics["trace.overhead_s"] = busy(traced[0]) - busy(cycles[0][0])
        notes.append(f"trace.overhead_s: traced minus untraced cycle on the same inputs, "
                     f"untraced {busy(cycles[0][0]):.3f} reference s")
        units = {name: _per_layer_unit(name) for name in metrics}
        samples = len(traced[0])
    else:
        metrics = end_to_end(cycles, setups, speed.ref_s)
        units = END_TO_END_UNITS
        samples = len(rows)
        notes.append(f"times in reference seconds (see README); cmd_p50_s and cmd_p90_s "
                     f"over {samples} invocations in {len(cycles)} cycle(s); setup_s is "
                     f"the median of {len(setups) + len(rows)} process set-ups")
        notes.append("clock seconds, CPU shared with the reference loop: " + ", ".join(
            f"{k} {v:.4g}" for k, v in raw.items() if k != "peak_rss_mb"))

    record = run_record(args, len(all_cycles), samples)
    record["raw_seconds"] = raw
    record["setup_total_s"] = sum(r["t_import"] - r["t_spawn"] for r in rows)
    result = {
        "correct": not wrong,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result, "wrong": wrong,
                    "known_defect": defects, "notes": notes,
                    "commands": [_row_summary(r, speed.ref_s) for r in rows]}, indent=1))

    print(f"rankzero benchmark: {args.workload} seed={args.seed} trace={args.trace}")
    for key in ("python", "mpmath", "mpmath_backend", "nproc", "precision_bits",
                "src_lines", "cycles", "command_samples"):
        print(f"  {key}: {record[key]}")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:.6g} {units[name]}")
    for note in notes:
        print(f"  note: {note}")
    print(f"  operations: {len(ops)} attempted, {failed} failed "
          f"({failed - len(wrong)} by the known enumeration defect)")
    for message in defects:
        print(f"  known defect: {message}")
    for message in wrong:
        print(f"  WRONG: {message}")
    print(json.dumps(result))
    return 0


def _per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_share") or name.endswith("_per_build") or name.endswith("_per_row"):
        return "ratio"
    if name.startswith("cli.bytes"):
        return "bytes"
    return "count"


def _row_summary(r: dict, timed) -> dict:
    return {"argv": r["cmd"]["argv"], "exit": r["exit"], "verdict": r["verdict"],
            "message": r["message"], "digest": r["digest"], "maxrss_kb": r["maxrss_kb"],
            "setup_s": timed(r["t_spawn"], r["t_import"]),
            "busy_s": timed(r["t_import"], r["t_exit"]),
            "clock_setup_s": r["t_import"] - r["t_spawn"],
            "clock_busy_s": r["t_exit"] - r["t_import"]}


if __name__ == "__main__":
    sys.exit(main())
