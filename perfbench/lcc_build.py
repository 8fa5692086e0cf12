"""Workload ``lcc-build``: cold six-stage build of an lcc-shaped unit,
in-place BRISC execution of its image, and a seeded chain of
one-function edits rebuilt with ``compile(prev=)``.

Every measured build runs in a fresh interpreter with no disk cache, so
the builder's process-lifetime memo tables start empty ("cold means
cold").  The parent process never imports the program.
"""

from __future__ import annotations

import hashlib
import random
import time
from pathlib import Path
from typing import Any, Dict, List

from common import (
    BenchFailure, HostClock, Tracer, child_main, compare_iterations,
    gcc_oracle, install_compile_probes, literal_edit, log, peak_rss_mb,
    pipeline_layers, run_child, summary,
)

SCRIPT = "lcc_build.py"

#: (synthetic functions, hand-written samples, edits) per scale.  The
#: full scale with seed 7 is exactly ``corpus.suite_source("lcc")``.
SCALES = {"full": (120, None, 3), "tiny": (8, ("wc", "calc"), 2)}


# -- child: set-up ------------------------------------------------------------------


def child_setup(request: Dict[str, Any]) -> Dict[str, Any]:
    """Generate the unit and its edit chain, and run the gcc oracle on the
    base source and on the last edit."""
    from repro.corpus import SAMPLES, generate_program_source, link_sources

    seed = request["seed"]
    functions, samples, edits = SCALES[request["scale"]]
    chosen = [SAMPLES[n] for n in (samples or SAMPLES)]
    base = link_sources(chosen + [generate_program_source(functions=functions,
                                                          seed=seed)])
    rng = random.Random(seed * 7919 + 1)
    sources, edited = [base], []
    for _ in range(edits):
        source, name = literal_edit(sources[-1], rng, f"calc{seed}_")
        sources.append(source)
        edited.append(name)
    oracle = gcc_oracle([base, sources[-1]], tag=f"lcc{seed}")
    return {"sources": sources, "edited": edited, "oracle": oracle}


# -- child: one measured iteration ---------------------------------------------------


def _exec_checked(brisc, blob: bytes, expected: str, check: str, tracer,
                  span: str):
    sid = tracer.begin(span) if tracer else None
    try:
        with HostClock() as clock:
            result = brisc.run_image(blob)
    except Exception as exc:  # a corrupt image may fault in any layer
        raise BenchFailure(check, f"in-place BRISC run raised "
                                  f"{type(exc).__name__}: {exc}") from exc
    finally:
        if tracer:
            tracer.end(sid)
    if result.output != expected:
        raise BenchFailure(check, f"BRISC output {result.output[:80]!r} != "
                                  f"gcc oracle {expected[:80]!r}")
    return result, clock


def child_measure(request: Dict[str, Any]) -> Dict[str, Any]:
    from repro import brisc, vm
    from repro.pipeline import PipelineConfig, Toolchain, vm_code_bytes

    sources: List[str] = request["sources"]
    oracle: List[str] = request["oracle"]
    chain = request["chain"]
    tracer = Tracer(request["run_id"]) if request["trace"] else None
    if tracer is not None:
        install_compile_probes(tracer)
    reply: Dict[str, Any] = {"failed": None, "attempted": 0}
    try:
        toolchain = Toolchain(config=PipelineConfig().with_journal())
        root = tracer.begin("bench.build") if tracer else None
        with HostClock() as clock:
            result = toolchain.compile(sources[0], name="lcc")
        if tracer:
            tracer.end(root)
        reply["build_s"] = clock.seconds
        reply["build_raw_s"] = clock.raw_s
        reply["attempted"] += 1
        cp = result.brisc
        image = cp.image.blob
        build = cp.build
        counts = {
            "ship_bytes": cp.size,
            "wire.bytes": len(result.wire_blob),
            "brisc.passes": build.passes,
            "brisc.candidates": build.candidates_tested,
            "brisc.admitted": sum(p.admitted for p in build.pass_stats),
            "image_sha256": hashlib.sha256(image).hexdigest(),
        }
        reply["counts"] = counts
        reply["rss_mb"] = peak_rss_mb()
        if not chain:
            return reply
        if request.get("inject") == "flip-brisc":
            flipped = bytearray(image)
            flipped[len(flipped) // 2] ^= 0x5A
            image = bytes(flipped)

        # Structural check: the image decodes back to the VM code.
        try:
            decoded = vm_code_bytes(brisc.decompress(image))
        except Exception as exc:
            raise BenchFailure("brisc-decompress",
                               f"decompress raised {type(exc).__name__}: "
                               f"{exc}") from exc
        if decoded != vm_code_bytes(result.program):
            raise BenchFailure("brisc-decompress", "decompressed image does "
                               "not re-encode to the codegen VM code")

        run, clock = _exec_checked(brisc, image, oracle[0], "brisc-oracle",
                                   tracer, "brisc.interp")
        reply["attempted"] += 1
        reply["exec_s"] = [clock.seconds]
        counts["vm.steps"] = run.steps
        reply["rss_mb"] = peak_rss_mb()

        layers: Dict[str, Any] = {}
        if tracer:
            layers.update(pipeline_layers(tracer, root))
            layers["build_traced_s"] = reply["build_raw_s"]
            layers["artifact_s"] = sum(a.seconds
                                       for a in result.artifacts.values())
            layers["brisc.scan_s"] = build.pass_stats[0].seconds
            layers["brisc.rescan_s"] = sum(p.seconds
                                           for p in build.pass_stats[1:])
            layers["ir.nodes"] = result.artifacts["lower"].meta["nodes"]
            layers["codegen.instructions"] = (
                result.artifacts["codegen"].meta["instructions"])
            layers["source_kb"] = len(sources[0].encode()) / 1024.0
            layers["brisc.interp_s"] = clock.seconds
            with tracer.span("vm.interp"), HostClock() as vm_clock:
                vm_run = vm.run_program(result.program)
            layers["vm.interp_s"] = vm_clock.seconds
            if vm_run.output != oracle[0]:
                raise BenchFailure("vm-oracle", "VM output differs from the "
                                   "gcc oracle")

        reply["edits"] = _edit_chain(toolchain, result, sources, oracle,
                                     tracer, reply, counts)
        reply["layers"] = layers
        if tracer:
            tracer.dump(Path(request["spans_path"]))
    except BenchFailure as exc:
        reply["failed"] = {"check": exc.check, "message": str(exc)}
    finally:
        if tracer:
            tracer.restore()
    return reply


def _edit_chain(toolchain, result, sources, oracle, tracer, reply,
                counts) -> List[Dict[str, Any]]:
    from repro import brisc
    from repro.pipeline import Toolchain, vm_code_bytes

    edits = []
    prev = result
    for k, source in enumerate(sources[1:], 1):
        sid = tracer.begin("bench.edit") if tracer else None
        with HostClock() as clock:
            now = toolchain.compile(source, name="lcc", prev=prev)
        if tracer:
            tracer.end(sid)
        reply["attempted"] += 1
        meta = now.artifacts
        row = {
            "seconds": clock.seconds,
            "raw_s": clock.raw_s,
            "replayed": bool(meta["brisc"].meta.get("replayed")),
            "derived": bool(meta["lower"].meta.get("derived")
                            and meta["codegen"].meta.get("derived")),
            "brisc_s": meta["brisc"].seconds,
        }
        if tracer:
            row["split_s"] = tracer.total("pipeline.split", within=sid)
        edits.append(row)
        # Structural check: delta output equals a cold compile.
        cold = Toolchain().compile(source, name="lcc",
                                   stages=("codegen", "wire"))
        if vm_code_bytes(cold.program) != vm_code_bytes(now.program):
            raise BenchFailure("edit-cold", f"edit {k}: VM code differs "
                               "from a cold compile of the edited source")
        if cold.wire_blob != now.wire_blob:
            raise BenchFailure("edit-cold", f"edit {k}: wire blob differs "
                               "from a cold compile of the edited source")
        prev = now
    _, clock = _exec_checked(brisc, prev.brisc.image.blob, oracle[1],
                             "edit-oracle", None, "")
    reply["attempted"] += 1
    reply["exec_s"].append(clock.seconds)
    counts["brisc.replay_ratio"] = (sum(e["replayed"] for e in edits)
                                    / len(edits))
    counts["edit_ship_bytes"] = prev.brisc.size
    return edits


# -- parent -------------------------------------------------------------------


def run(args) -> Dict[str, Any]:
    request = {"kind": "setup", "seed": args.seed, "scale": args.scale}
    setups = [run_child(SCRIPT, request, args.seed) for _ in range(3)]
    setup = setups[0]
    oracle = list(setup["oracle"])
    if args.inject == "edit-oracle":
        oracle[1] = oracle[1] + "0"
    log(f"lcc-build: set-up {[round(s['wall_s'], 2) for s in setups]} s, "
        f"edits in {setup['edited']}")

    iterations: List[Dict[str, Any]] = []
    failure = None
    t_start = time.perf_counter()
    while len(iterations) < 2 or time.perf_counter() - t_start < args.seconds:
        i = len(iterations)
        traced = bool(args.trace) and i == 0
        reply = run_child(SCRIPT, {
            "kind": "measure", "sources": setup["sources"], "oracle": oracle,
            "chain": i == 0, "trace": traced, "inject": args.inject,
            "run_id": args.run_id,
            "spans_path": str(args.spans_path),
        }, args.seed)
        iterations.append(reply)
        log(f"lcc-build: iteration {i + 1}: build "
            f"{reply.get('build_s', 0):.2f} s, exec "
            f"{[round(x, 2) for x in reply.get('exec_s', [])]} s, edits "
            f"{[(round(e['seconds'], 2), e['replayed']) for e in reply.get('edits', [])]}")
        if reply["failed"]:
            failure = reply["failed"]
            break
    return _report(args, setups, iterations, failure)


def _report(args, setups, iterations, failure) -> Dict[str, Any]:
    attempted = 3 + sum(it["attempted"] for it in iterations)
    out: Dict[str, Any] = {"attempted": attempted, "failure": failure,
                           "samples": {}, "counts": {}, "layers": {}}
    if failure:
        return out
    first = iterations[0]
    edits = first["edits"]
    untraced = [it["build_s"] for it in iterations[1 if args.trace else 0:]]
    out["samples"] = {
        "setup_s": [s["wall_s"] for s in setups],
        "build_s": untraced,
        "latency_ms": [x * 1000.0 for x in first["exec_s"]],
        "ship_bytes": [it["counts"]["ship_bytes"] for it in iterations],
        "peak_rss_mb": [it["rss_mb"] for it in iterations],
    }
    shared = ("ship_bytes", "wire.bytes", "brisc.passes", "brisc.candidates",
              "brisc.admitted", "image_sha256")
    out["iteration_check"] = compare_iterations(
        [{k: it["counts"][k] for k in shared} for it in iterations])
    out["counts"] = dict(first["counts"])
    out["detail"] = {
        "build_raw_s": [it["build_raw_s"] for it in iterations],
        "edits": edits,
    }

    layers = first["layers"]
    counts = first["counts"]
    replayed = [e for e in edits if e["replayed"]]
    fallback = [e for e in edits if not e["replayed"]]
    derived = sum(e["derived"] for e in edits)
    lay = {
        "wire.bytes": counts["wire.bytes"],
        "brisc.passes": counts["brisc.passes"],
        "brisc.candidates": counts["brisc.candidates"],
        "brisc.admitted": counts["brisc.admitted"],
        "brisc.candidates_per_admit": (counts["brisc.candidates"]
                                       / max(1, counts["brisc.admitted"])),
        "vm.steps": counts["vm.steps"],
        "brisc.replay_ratio": counts["brisc.replay_ratio"],
        "pipeline.derived_ratio": derived / len(edits),
        "brisc.replay_s": summary([e["brisc_s"] for e in replayed])["median"],
        "brisc.fallback_s": summary([e["brisc_s"] for e in fallback])["median"],
        "pipeline.edit_s": summary([e["seconds"] for e in edits])["median"],
        "pipeline.rebuild_mean_s": sum(e["seconds"] for e in edits) / len(edits),
    }
    if args.trace:
        for key in ("cfront.parse_s", "ir.lower_s", "codegen.generate_s",
                    "wire.encode_s", "compress.deflate_s", "brisc.build_s",
                    "brisc.encode_s", "brisc.scan_s", "brisc.rescan_s",
                    "ir.nodes", "codegen.instructions", "brisc.interp_s",
                    "vm.interp_s"):
            lay[key] = layers[key]
        lay["cfront.kb_per_s"] = layers["source_kb"] / layers["cfront.parse_s"]
        lay["brisc.slowdown"] = layers["brisc.interp_s"] / layers["vm.interp_s"]
        lay["pipeline.overhead_s"] = (layers["build_traced_s"]
                                      - layers["artifact_s"])
        lay["pipeline.split_s"] = summary(
            [e["split_s"] for e in edits])["median"]
        program_layers = {k: v for k, v in layers["layers"].items()
                          if k not in ("pipeline", "bench")}
        lay["trace.coverage"] = (sum(program_layers.values())
                                 / layers["build_traced_s"])
        lay["trace.overhead"] = (first["build_s"]
                                 / summary(untraced)["median"] - 1.0)
        lay["layer_self_s"] = layers["layers"]
    out["layers"] = lay
    return out


if __name__ == "__main__":
    child_main({"setup": child_setup, "measure": child_measure})
