"""One rankzero CLI invocation, run the way the ``rankzero`` console script
runs it (``from rankzero.cli import entry; entry()``), with timestamps.

Usage: python3 child.py RECORD MODE [rankzero arguments...]

MODE is ``setup`` (import rankzero.cli and exit), ``run`` (run the command)
or ``trace`` (run it with the layer tracer installed).  The process writes
RECORD as JSON: the ``time.perf_counter`` reading after ``import
rankzero.cli`` (CLOCK_MONOTONIC, so the parent can compare it with its own
readings), the exit code, the peak RSS and, when traced, the spans.
"""

import json
import resource
import sys
import time
import traceback


def main() -> int:
    record_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import rankzero.cli as cli

    rec = {"t_import": time.perf_counter()}
    code = 0
    if mode != "setup":
        tracer = root = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            command = next((a for a in argv if not a.startswith("-") and not a.isdigit()), "?")
            root = tracer.open_root(f"cli.{command}")
        sys.argv = ["rankzero", *argv]
        try:
            cli.entry()
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # the console script would print this and exit 1
            traceback.print_exc()
            code = 1
        if tracer is not None:
            tracer.close_root(root, code != 0)
            rec["not_restored"] = tracer.uninstall()
            rec["trace"] = tracer.dump()
    rec["exit"] = code
    rec["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(record_path, "w") as fh:
        json.dump(rec, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
