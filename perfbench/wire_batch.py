"""Workload ``wire-batch``: a seeded batch of generated units compiled
serially through ``stages=("wire", "deflate")`` on a fresh Toolchain.

No BRISC runs, so this is the bypass workload for builder changes: the
front end, the wire encoder and the compression kernels do all the work,
and the stage cache only takes writes.  Unit sizes are spread evenly
over 20-200 functions and are the same for every seed, so a seed changes
the programs and their order but not the amount of work.
"""

from __future__ import annotations

import gc
import random
import time
from pathlib import Path
from typing import Any, Dict, List

from common import (
    BenchFailure, HostClock, Tracer, child_main, gcc_oracle,
    install_compile_probes, log, peak_rss_mb, pipeline_layers, run_child,
    summary,
)

SCRIPT = "wire_batch.py"

#: (units, smallest, largest) functions per unit, per scale.
SCALES = {"full": (6, 20, 200), "tiny": (2, 4, 10)}
STAGES = ("wire", "deflate")


def child_setup(request: Dict[str, Any]) -> Dict[str, Any]:
    from repro.corpus import generate_program_source

    seed = request["seed"]
    count, lo, hi = SCALES[request["scale"]]
    rng = random.Random(seed * 104729 + 3)
    units = []
    for i in range(count):
        functions = lo + round(i * (hi - lo) / (count - 1))
        units.append((f"unit{i}",
                      generate_program_source(functions=functions,
                                              seed=seed * 100 + i)))
    rng.shuffle(units)
    oracle = gcc_oracle([source for _, source in units], tag=f"wire{seed}")
    return {"units": units, "oracle": oracle}


def _batch(units, tracer=None):
    """Compile every unit on a fresh Toolchain, timed by a HostClock."""
    from repro.pipeline import Toolchain

    root = tracer.begin("bench.batch") if tracer else None
    rows = []
    with HostClock() as clock:
        toolchain = Toolchain()
        for name, source in units:
            rows.append(toolchain.compile(source, name=name, stages=STAGES))
    if tracer:
        tracer.end(root)
    return clock, rows, toolchain, root


def _check_outputs(units, rows, oracle) -> None:
    """The decoded wire program must print what gcc's build prints, and
    the deflate blob must decompress to the VM code."""
    from repro.codegen import generate_program
    from repro.compress import deflate
    from repro.pipeline import vm_code_bytes
    from repro.vm import run_program
    from repro.wire import decode_module

    for (name, _), result, expected in zip(units, rows, oracle):
        program = generate_program(decode_module(result.wire_blob))
        output = run_program(program).output
        if output != expected:
            raise BenchFailure("wire-oracle", f"{name}: decoded wire "
                               f"program printed {output[:60]!r}, gcc "
                               f"printed {expected[:60]!r}")
        if deflate.decompress(result.deflated) != vm_code_bytes(
                result.program):
            raise BenchFailure("deflate-roundtrip", f"{name}: deflate "
                               "blob does not decompress to the VM code")


def child_measure(request: Dict[str, Any]) -> Dict[str, Any]:
    from repro.corpus import generate_program_source
    from repro.pipeline import Toolchain

    units = [tuple(u) for u in request["units"]]
    trace = request["trace"]
    # Lazy tables and imports load before timing starts.
    Toolchain().compile(generate_program_source(functions=4, seed=1),
                        stages=STAGES)
    reply: Dict[str, Any] = {"failed": None, "attempted": 0, "batches": []}
    blobs = None
    traced_layers: List[Dict[str, Any]] = []
    t_start = time.perf_counter()
    minimum = 3 if trace else 2
    try:
        while (len(reply["batches"]) < minimum
               or time.perf_counter() - t_start < request["seconds"]):
            # Each batch starts from the same heap: no garbage from the
            # previous batch is collected inside the timed region.
            gc.collect()
            traced = trace and len(reply["batches"]) % 2 == 1
            tracer = None
            if traced:
                tracer = Tracer(request["run_id"])
                install_compile_probes(tracer)
            try:
                clock, rows, toolchain, root = _batch(units, tracer)
            finally:
                if tracer:
                    tracer.restore()
            reply["attempted"] += len(rows)
            reply["batches"].append({"seconds": clock.seconds,
                                     "raw_s": clock.raw_s, "traced": traced})
            now = [(r.wire_blob, r.deflated) for r in rows]
            if blobs is None:
                blobs = now
                _check_outputs(units, rows, request["oracle"])
                reply["attempted"] += len(rows)
                reply["nodes"] = sum(r.artifacts["lower"].meta["nodes"]
                                     for r in rows)
                reply["instructions"] = sum(
                    r.artifacts["codegen"].meta["instructions"] for r in rows)
            elif now != blobs:
                raise BenchFailure("determinism", "wire or deflate blobs "
                                   "differ between batches")
            if tracer:
                layers = pipeline_layers(tracer, root)
                layers["batch_s"] = clock.raw_s
                layers["batch_corrected_s"] = clock.seconds
                layers["artifact_s"] = sum(a.seconds for r in rows
                                           for a in r.artifacts.values())
                layers["hit_ratio"] = toolchain.stats()["totals"]["hit_rate"]
                traced_layers.append(layers)
                tracer.dump(Path(request["spans_path"]))
            del rows, toolchain, tracer
        reply["counts"] = {
            "ship_bytes": sum(len(w) for w, _ in blobs),
            "deflate_bytes": sum(len(d) for _, d in blobs),
        }
        reply["source_kb"] = sum(len(s.encode()) for _, s in units) / 1024.0
        reply["layers"] = traced_layers
    except BenchFailure as exc:
        reply["failed"] = {"check": exc.check, "message": str(exc)}
    reply["rss_mb"] = peak_rss_mb()
    return reply


def run(args) -> Dict[str, Any]:
    request = {"kind": "setup", "seed": args.seed, "scale": args.scale}
    setups = [run_child(SCRIPT, request, args.seed) for _ in range(3)]
    setup = setups[0]
    log(f"wire-batch: set-up {[round(s['wall_s'], 2) for s in setups]} s, "
        f"{len(setup['units'])} units")
    reply = run_child(SCRIPT, {
        "kind": "measure", "units": setup["units"], "oracle": setup["oracle"],
        "seconds": args.seconds, "trace": bool(args.trace),
        "inject": args.inject, "run_id": args.run_id,
        "spans_path": str(args.spans_path),
    }, args.seed)
    log(f"wire-batch: batches "
        f"{[round(b['seconds'], 2) for b in reply['batches']]} s "
        f"(raw {[round(b['raw_s'], 2) for b in reply['batches']]} s)")
    out: Dict[str, Any] = {"attempted": 3 + reply["attempted"],
                           "failure": reply["failed"]}
    if reply["failed"]:
        return out
    plain = [b for b in reply["batches"] if not b["traced"]]
    out["samples"] = {
        "setup_s": [s["wall_s"] for s in setups],
        "build_s": [b["seconds"] for b in plain],
        "latency_ms": [b["seconds"] / len(setup["units"]) * 1000.0
                       for b in plain],
        "ship_bytes": [reply["counts"]["ship_bytes"]],
        "peak_rss_mb": [reply["rss_mb"]],
    }
    out["counts"] = reply["counts"]
    if args.trace:
        out["layers"] = _layers(reply, plain)
    return out


def _layers(reply, plain) -> Dict[str, Any]:
    traced = reply["layers"]

    def med(key):
        return summary([t[key] for t in traced])["median"]

    parse_s = med("cfront.parse_s")
    batch_s = med("batch_s")
    program = summary([
        sum(v for k, v in t["layers"].items() if k not in ("pipeline", "bench"))
        / t["batch_s"] for t in traced])["median"]
    lay = {k: med(k) for k in ("cfront.parse_s", "ir.lower_s",
                               "codegen.generate_s", "wire.encode_s",
                               "compress.deflate_s")}
    lay.update({
        "cfront.kb_per_s": reply["source_kb"] / parse_s,
        "ir.nodes": reply["nodes"],
        "codegen.instructions": reply["instructions"],
        "wire.bytes": reply["counts"]["ship_bytes"],
        "pipeline.overhead_s": batch_s - med("artifact_s"),
        "pipeline.hit_ratio": med("hit_ratio"),
        "trace.coverage": program,
        "trace.overhead": med("batch_corrected_s") / summary(
            [b["seconds"] for b in plain])["median"] - 1.0,
        "layer_self_s": traced[-1]["layers"],
    })
    return lay


if __name__ == "__main__":
    child_main({"setup": child_setup, "measure": child_measure})
