"""Correctness checks for every command the benchmark runs.

Each check returns ``(verdict, message)`` with verdict ``ok``, ``defect``
or ``wrong``.  ``defect`` marks a result that breaks an invariant in exactly
the way the known enumeration defect predicts (README, "Known defect"); it
counts as a failed operation but does not make the run incorrect.  Any
other broken invariant, a digest that differs from its pin, or an
unexpected exit code is ``wrong``.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

PINS_PATH = Path(__file__).with_name("pins.json")

# The fixed enumeration of the ordinals below each limit rank used by the
# limit layouts (ordinal.enumerate_below at the commit that defined this
# benchmark); b_t is entry t - 1.
LIMIT_ENUMERATIONS = {
    "w": ["0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12",
          "13", "14", "15", "16", "17", "18", "19"],
    "w*2": ["0", "1", "2", "3", "w", "4", "5", "w+1", "6", "w+2", "7", "w+3",
            "8", "w+4", "9", "w+5", "10", "w+6", "11", "w+7"],
    "w^2": ["0", "1", "2", "3", "w", "4", "w*2", "5", "w+1", "w*3", "6", "w+2",
            "w*2+1", "w*4", "7", "w+3", "w*2+2", "w*3+1", "w*5", "8"],
    "w^w": ["0", "1", "2", "3", "w", "4", "w*2", "w^2", "5", "w+1", "w*3",
            "w^2*2", "w^3", "6", "w+2", "w*2+1", "w*4", "w^2+1", "w^2*3", "w^3*2"],
    "w^(w+1)": ["0", "1", "2", "3", "w", "4", "w*2", "w^2", "5", "w+1", "w*3",
                "w^2*2", "w^3", "w^w", "6", "w+2", "w*2+1", "w*4", "w^2+1", "w^2*3"],
}

BRANCHES = ("toward-lower", "toward-upper", "neither")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


# -- the layout formulas --------------------------------------------------------


def _split_finite_tail(rank: str):
    """(limit part or None, finite tail n) of a rank written as lambda + n."""
    if rank.isdigit():
        return None, int(rank)
    head, plus, tail = rank.rpartition("+")
    if plus and tail.isdigit():
        return head, int(tail)
    return rank, 0


def predecessor(rank: str) -> str:
    head, n = _split_finite_tail(rank)
    if n == 0:
        raise ValueError(f"{rank} is a limit")
    if head is None:
        return str(n - 1)
    return head if n == 1 else f"{head}+{n - 1}"


def first_leaf_depth(apex: str) -> int:
    """Nesting depth of the first isolated point of the canonical set that
    collapses at stage `apex`: n for a finite rank n, 1 + n for lambda + n
    (a limit's first child is a single point)."""
    head, n = _split_finite_tail(apex)
    return n if head is None else 1 + n


def hits_defect(apex: str) -> bool:
    """Whether `_enumerate_angles` reads this set as empty: it stops when
    depth 3 yields no more angles than depth 2, which an infinite set whose
    first leaf sits deeper than depth 3 does (both yield none)."""
    return first_leaf_depth(apex) > 3


def _triangular(n: int) -> int:
    return n * (n + 1) // 2


def expected_rings(layout: str, alpha: str, nmax: int) -> dict:
    """ring -> (zero count the layout promises, whether the defect empties it)."""
    if layout == "rows":
        bad = hits_defect(predecessor(alpha))
        return {n: (n, bad) for n in range(1, nmax + 1)}
    rings = {}
    for n in range(1, nmax + 1):
        for t in range(1, n + 1):
            if layout == "sectors":
                size = t if alpha == "1" else math.inf
                apex = predecessor(alpha)
            else:
                b = LIMIT_ENUMERATIONS[alpha][t - 1]
                size = 1 if b == "0" else math.inf
                apex = b
            rings[_triangular(n - 1) + t] = (min(n, size), hits_defect(apex))
    return rings


# -- checks ---------------------------------------------------------------------


class Checker:
    """Checks one cycle's commands in order; keeps each job's schedule."""

    def __init__(self, cwd: Path, pins: dict):
        self.cwd = cwd
        self.pins = pins
        self.schedules = {}
        self.tainted = set()  # files produced from a defective schedule

    def schedule_zeros(self, name: str) -> int:
        """Zeros in a schedule this cycle built and parsed (0 if none)."""
        return len(self.schedules.get(name, {}).get("zeros", ()))

    def _manifest(self, cmd: dict):
        out = self.cwd / cmd["out"]
        man_path = self.cwd / (cmd["out"] + ".manifest.json")
        if not out.exists() or not man_path.exists():
            return "artifact or manifest missing"
        man = json.loads(man_path.read_text())
        if man.get("outputs") != {out.name: sha256(out.read_bytes())}:
            return "manifest output digest does not match the artifact"
        want = {name: sha256((self.cwd / name).read_bytes()) for name in cmd["inputs"]}
        if man.get("inputs") != want:
            return "manifest input digest does not match the input"
        if man.get("precision_bits") != 200:
            return f"manifest precision {man.get('precision_bits')}"
        return None

    def check(self, cmd: dict, exit_code: int, stdout: str, stderr: str):
        kind = cmd["check"]["kind"]
        if any(name in self.tainted for name in cmd["inputs"]):
            self.tainted.add(cmd["out"])
        if kind == "build-zeros":
            return self._build_zeros(cmd, exit_code, stderr)
        if exit_code not in ((0, 4) if kind == "probe" else (0,)):
            return "wrong", f"exit {exit_code}: {stderr.strip()[-200:]}"
        problem = self._manifest(cmd)
        if problem:
            return "wrong", problem
        problem = getattr(self, "_" + kind.replace("-", "_"))(cmd, exit_code, stdout)
        return ("wrong", problem) if problem else ("ok", "")

    def _build_zeros(self, cmd, exit_code, stderr):
        spec = cmd["check"]
        rings = expected_rings(spec["layout"], spec["alpha"], spec["nmax"])
        defective = any(bad for _, bad in rings.values())
        if exit_code != 0:
            if (exit_code == 2 and spec["layout"] == "rows" and defective
                    and "materializes to 0" in stderr):
                return "defect", "row layout refused: the set materializes to 0 angles"
            return "wrong", f"exit {exit_code}: {stderr.strip()[-200:]}"
        problem = self._manifest(cmd)
        if problem:
            return "wrong", problem
        sched = json.loads((self.cwd / cmd["out"]).read_text())
        self.schedules[cmd["out"]] = sched
        got = {}
        for z in sched["zeros"]:
            got[z["row"]] = got.get(z["row"], 0) + 1
        short = []
        for ring, (want, bad) in sorted(rings.items()):
            have = got.pop(ring, 0)
            if have == want:
                continue
            if have == 0 and bad:
                short.append(ring)
                continue
            return "wrong", f"ring {ring} holds {have} zeros, the layout gives {want}"
        if got:
            return "wrong", f"zeros on rings outside the layout: {sorted(got)}"
        if short:
            self.tainted.add(cmd["out"])
            return "defect", f"rings {short} left empty by the enumeration defect"
        return "ok", ""

    def _eval(self, cmd, exit_code, stdout):
        sched = self.schedules[cmd["inputs"][0]]
        rows = max((z["row"] for z in sched["zeros"]), default=0)
        logs = [Fraction(x) for x in sched["log_radii"]]
        while len(logs) < rows:
            logs.append(logs[-1] + logs[-2])
        bound = float(logs[rows - 3]) if rows >= 3 else -math.inf
        log_j = math.log(cmd["check"]["j"])
        lines = (self.cwd / cmd["out"]).read_text().splitlines()
        if lines[0] != "log_r,turn,log_mag,phase,tail_bound,valid":
            return "bad CSV header"
        if len(lines) != 1 + cmd["check"]["samples"]:
            return f"{len(lines) - 1} CSV rows for {cmd['check']['samples']} samples"
        for line in lines[1:]:
            log_r, _, log_mag, _, tail, valid = line.split(",")
            if valid not in ("0", "1"):
                return f"valid flag {valid!r}"
            if log_mag == "-inf":  # an exact hit on a scheduled zero
                continue
            x = float(Fraction(log_r)) + log_j
            if abs(x - bound) < 1e-9:
                continue
            if (valid == "1") != (x <= bound):
                return f"valid={valid} at log|jz|={x:.6g}, tail hypothesis bound {bound}"
            if (valid == "1") == (tail == "+inf"):
                return f"tail bound {tail} with valid={valid}"
        return None

    def _probe(self, cmd, exit_code, stdout):
        report = json.loads((self.cwd / cmd["out"]).read_text())
        if report["inconclusive"] != (exit_code == 4):
            return f"exit {exit_code} with inconclusive={report['inconclusive']}"
        if bool(report["failing_targets"]) != report["inconclusive"]:
            return "failing targets disagree with the verdict"
        if report["branch"] not in BRANCHES:
            return f"unknown branch {report['branch']!r}"
        return None

    def _build_set(self, cmd, exit_code, stdout):
        json.loads((self.cwd / cmd["out"]).read_text())
        return None

    def _derive(self, cmd, exit_code, stdout):
        want = f"stage {cmd['check']['beta']}: cardinality {cmd['check']['card']}"
        if stdout.strip() != want:
            return f"printed {stdout.strip()!r}, expected {want!r}"
        return None

    def _verify(self, cmd, exit_code, stdout):
        return None  # the report is checked criterion by criterion


def check_verify_report(data: bytes, pins: dict) -> list:
    """One (verdict, message) per criterion plus one for the whole report."""
    pin = pins.get("verify-core", {})
    report = json.loads(data)
    out = []
    for entry in report["criteria"]:
        digest = sha256(json.dumps(entry, sort_keys=True).encode())
        want = pin.get("criteria", {}).get(str(entry["id"]))
        if not entry["passed"]:
            out.append(("wrong", f"criterion {entry['id']} failed"))
        elif want is not None and digest != want:
            out.append(("wrong", f"criterion {entry['id']} details differ from the pin"))
        else:
            out.append(("ok", ""))
    want = pin.get("report")
    if want is not None and sha256(data) != want:
        out.append(("wrong", "report digest differs from the pin"))
    else:
        out.append(("ok", ""))
    return out
