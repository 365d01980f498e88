"""Write perfbench/pins.json: the digests the benchmark compares against.

    python3 perfbench/pin.py SEEDS [WORKLOAD ...]

runs one untraced cycle of each named workload (default: all) for seeds
0..SEEDS-1, or one ``verify --suite core`` for verify-core, and records the
digest of every artifact that passed its checks and does not derive from a
defective schedule.  The pins committed with the benchmark were made at the
commit that defined it; do not regenerate them to make a changed artifact
pass.
"""

import json
import shutil
import sys

import run
from oracle import PINS_PATH, load_pins, sha256


def main() -> int:
    seeds = int(sys.argv[1])
    workloads = sys.argv[2:] or ["verify-core", "cli-pipeline", "build-large"]
    env = run.child_env()
    work = run.OUT_DIR / "pin"
    pins = load_pins()
    if "verify-core" in workloads and pin_verify(work, env, pins):
        return 1
    for workload in workloads:
        if workload == "verify-core":
            continue
        pins[workload] = {}
        for seed in range(seeds):
            rows, checker = run.execute(workload, seed, work, "run", env, {})
            wrong = [r["message"] for r in rows if r["verdict"] == "wrong"]
            if wrong:
                print(f"{workload} seed {seed}: {wrong}; nothing pinned", file=sys.stderr)
                return 1
            pins[workload][str(seed)] = run.clean_digests(rows, checker)
            print(f"{workload} seed {seed}: {len(pins[workload][str(seed)])} artifacts pinned")
    shutil.rmtree(work, ignore_errors=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def pin_verify(work, env, pins) -> int:
    rows, _ = run.execute("verify-core", 0, work, "run", env, {})
    report = (work / "report.json").read_bytes()
    if rows[0]["verdict"] != "ok" or not json.loads(report)["all_passed"]:
        print("verify --suite core failed; nothing pinned", file=sys.stderr)
        return 1
    pins["verify-core"] = {
        "report": sha256(report),
        "criteria": {str(c["id"]): sha256(json.dumps(c, sort_keys=True).encode())
                     for c in json.loads(report)["criteria"]},
    }
    return 0


if __name__ == "__main__":
    sys.exit(main())
