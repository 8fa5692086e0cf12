"""The benchmark's own self-test.

Runs every workload at a miniature scale and requires a correct result,
then plants one fault per check family and requires the run to fail
naming that check:

* a flipped byte in the BRISC image  -> ``brisc-decompress``
* an edited oracle output            -> ``edit-oracle``
* a fetch reply for the wrong function -> ``fetch-decode``

    python3 perfbench/selftest.py     # from the root of a checkout
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"

CLEAN = ("lcc-build", "wire-batch", "serve-fetch")
FAULTS = (
    ("lcc-build", "flip-brisc", "brisc-decompress"),
    ("lcc-build", "edit-oracle", "edit-oracle"),
    ("serve-fetch", "wrong-function", "fetch-decode"),
)


def _run(workload: str, inject=None):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--scale", "tiny"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    report = json.loads((RESULTS / f"{workload}-7-trace0.json").read_text())
    return proc, report


def main() -> int:
    problems = []
    for workload in CLEAN:
        proc, report = _run(workload)
        ok = proc.returncode == 0 and report["correct"]
        print(f"{'ok  ' if ok else 'FAIL'} {workload} (tiny) runs clean")
        if not ok:
            problems.append(f"{workload}: {proc.stderr[-2000:]}")
    for workload, inject, check in FAULTS:
        proc, report = _run(workload, inject)
        failure = report.get("failure") or {}
        ok = proc.returncode == 1 and failure.get("check") == check
        print(f"{'ok  ' if ok else 'FAIL'} {workload} --inject {inject} "
              f"fails check {check!r}: {failure.get('message', 'no failure')}")
        if not ok:
            problems.append(f"{workload}/{inject}: exit {proc.returncode}, "
                            f"failure {failure}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
