"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload lcc-build --seed 7 --seconds 10 --trace 0

Run it from the root of a checkout.  ``--trace 0`` prints every
end-to-end metric; ``--trace 1`` runs the same workload with layer spans
and prints every per-layer metric.  Each metric is listed on stderr with
its unit, sample count, median and quartiles; stdout's last line is the
JSON result.  A failed output check or determinism gate marks the run
incorrect, names the check, and exits 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    DEFAULT_SEED, END_TO_END, PER_LAYER, RESULTS_DIR, SRC_DIR,
    determinism_gate, log, provenance, summary,
)

WORKLOADS = ("lcc-build", "wire-batch", "serve-fetch")
INJECTIONS = ("flip-brisc", "edit-oracle", "wrong-function")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: the self-test's miniature inputs")
    p.add_argument("--inject", choices=INJECTIONS, default=None,
                   help="plant a fault the output checks must catch "
                        "(self-test only)")
    return p.parse_args(argv)


def _workload_module(name: str):
    if name == "lcc-build":
        import lcc_build as module
    elif name == "wire-batch":
        import wire_batch as module
    else:
        import serve_fetch as module
    return module


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        log(f"perfbench: no program sources at {SRC_DIR / 'repro'}; run "
            "from the root of a checkout")
        return 2
    # SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the running child and the server's finally block drains it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args.run_id = f"{args.workload}-{args.seed}-{time.time_ns()}"
    args.spans_path = RESULTS_DIR / f"spans-{args.workload}-{args.seed}.json"
    started = time.perf_counter()
    result = _workload_module(args.workload).run(args)

    failure = result.get("failure")
    if failure is None and result.get("iteration_check"):
        failure = {"check": "determinism",
                   "message": result["iteration_check"]}
    if failure is None and args.inject is None:
        gate = determinism_gate(args.workload, args.seed, args.scale,
                                result["counts"])
        if gate:
            failure = {"check": "determinism", "message": gate}

    if args.trace:
        names, source = PER_LAYER, result.get("layers", {})
        values = {k: float(source.get(k, 0.0)) for k in names}
        stats = {k: {"n": 1, "median": v, "q1": v, "q3": v}
                 for k, v in values.items()}
    else:
        names = END_TO_END
        stats = {k: summary(result.get("samples", {}).get(k, []))
                 for k in names}
        values = {k: s["median"] for k, s in stats.items()}

    correct = failure is None
    report = {
        "provenance": provenance(args.workload, args.seed),
        "args": {"seconds": args.seconds, "trace": args.trace,
                 "scale": args.scale, "inject": args.inject},
        "wall_s": time.perf_counter() - started,
        "correct": correct,
        "failure": failure,
        "metrics": {k: dict(stats[k], unit=names[k]) for k in names},
        "counts": result.get("counts", {}),
        "detail": result.get("detail", {}),
    }
    if args.trace:
        report["layer_self_s"] = result.get("layers", {}).get("layer_self_s")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out_path = (RESULTS_DIR /
                f"{args.workload}-{args.seed}-trace{args.trace}.json")
    out_path.write_text(json.dumps(report, indent=1, sort_keys=True))

    for name, s in stats.items():
        log(f"  {name:28s} {s['median']:14.6g} {names[name]:6s} "
            f"n={s['n']:<5d} q1={s['q1']:.6g} q3={s['q3']:.6g}")
    if failure:
        log(f"FAILED check {failure['check']!r}: {failure['message']}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result.get("attempted", 1)),
        "failed": 0 if correct else 1,
        "metrics": {k: {"value": values[k], "unit": names[k]} for k in names},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
