"""Shared pieces of the benchmark: statistics, provenance, the gcc output
oracle, the layer tracer, child processes and the determinism gate.

Everything here is the benchmark's own code.  The program under test is
imported only inside child processes (and the serve-fetch client), from
``src/`` of the checkout the benchmark runs in.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"

#: The seed whose generated unit is ``corpus.suite_source("lcc")``.
DEFAULT_SEED = 7
#: The held-out seed: a claim tuned on the default seed must also hold here.
HELD_OUT_SEED = 21

#: Every end-to-end metric and its unit.  Each workload reports all of
#: them (see README.md for what each means on each workload).
END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "latency_ms": "ms",
    "ship_bytes": "B",
    "peak_rss_mb": "MB",
}

#: Every per-layer metric and its unit.  A workload that does not drive
#: a layer reports 0 for that layer's metrics.
PER_LAYER = {
    "cfront.parse_s": "s",
    "cfront.kb_per_s": "KB/s",
    "ir.lower_s": "s",
    "ir.nodes": "count",
    "codegen.generate_s": "s",
    "codegen.instructions": "count",
    "wire.encode_s": "s",
    "wire.bytes": "B",
    "compress.deflate_s": "s",
    "brisc.build_s": "s",
    "brisc.scan_s": "s",
    "brisc.rescan_s": "s",
    "brisc.passes": "count",
    "brisc.candidates": "count",
    "brisc.admitted": "count",
    "brisc.candidates_per_admit": "ratio",
    "brisc.encode_s": "s",
    "pipeline.overhead_s": "s",
    "brisc.interp_s": "s",
    "vm.interp_s": "s",
    "vm.steps": "count",
    "brisc.slowdown": "ratio",
    "pipeline.split_s": "s",
    "pipeline.edit_s": "s",
    "brisc.replay_ratio": "ratio",
    "pipeline.derived_ratio": "ratio",
    "brisc.replay_s": "s",
    "brisc.fallback_s": "s",
    "pipeline.rebuild_mean_s": "s",
    "service.handler_ms": "ms",
    "service.transport_ms": "ms",
    "service.protocol_us": "us",
    "container.ranges_us": "us",
    "container.assemble_us": "us",
    "pipeline.hit_ratio": "ratio",
    "service.miss_ms": "ms",
    "container.transfer_ratio": "ratio",
    "service.p99_ms": "ms",
    "service.rps": "req/s",
    "service.requests": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


class BenchFailure(Exception):
    """A named output check failed; the run is reported as incorrect."""

    def __init__(self, check: str, detail: str) -> None:
        super().__init__(detail)
        self.check = check


def log(message: str) -> None:
    """Progress goes to stderr; stdout's last line is the result."""
    print(message, file=sys.stderr, flush=True)


# -- statistics ---------------------------------------------------------------


def summary(values: Sequence[float]) -> Dict[str, Any]:
    """Sample count, median and quartiles of ``values``."""
    values = list(values)
    if not values:
        return {"n": 0, "median": 0.0, "q1": 0.0, "q3": 0.0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3}


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, min(len(ordered), int(-(-pct * len(ordered) // 100))))
    return ordered[rank - 1]


# -- provenance -----------------------------------------------------------------


def source_fingerprint(root: Path = SRC_DIR) -> str:
    """Digest of the Python sources under ``root``."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(workload: str, seed: int) -> Dict[str, Any]:
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or "unknown"
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                capture_output=True, text=True, timeout=10).stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit,
        "dirty": dirty,
        "source_fingerprint": source_fingerprint(),
        "bench_fingerprint": source_fingerprint(BENCH_DIR),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


# -- child processes -------------------------------------------------------------


def child_env(seed: int) -> Dict[str, str]:
    """Environment for every process that runs the program: sources from
    the checkout, no artifact disk cache, and a hash seed fixed by the
    workload seed so one seed always replays the same interpreter state."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    env.pop("REPRO_DISK_CACHE", None)
    env.pop("REPRO_CACHE_DIR", None)
    env["XDG_CACHE_HOME"] = str(WORK_DIR / "xdg-cache")
    env["TMPDIR"] = str(WORK_DIR)
    return env


def run_child(script: str, request: Dict[str, Any], seed: int,
              timeout: float = 170.0) -> Dict[str, Any]:
    """Run ``python3 <script> child <request.json> <reply.json>`` in a
    fresh interpreter and return its reply plus the wall time."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{os.getpid()}-{time.monotonic_ns()}"
    req_path = WORK_DIR / f"req-{tag}.json"
    reply_path = WORK_DIR / f"reply-{tag}.json"
    req_path.write_text(json.dumps(request))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / script), "child", str(req_path),
             str(reply_path)],
            env=child_env(seed), cwd=ROOT, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(
                f"{script} child exited {proc.returncode}:\n"
                f"{proc.stderr[-4000:]}")
        reply = json.loads(reply_path.read_text())
    finally:
        req_path.unlink(missing_ok=True)
        reply_path.unlink(missing_ok=True)
    reply["wall_s"] = wall
    return reply


def child_main(handlers: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]]
               ) -> None:
    """Entry point of a child: ``<script> child <request> <reply>``."""
    _, _, req_path, reply_path = sys.argv
    request = json.loads(Path(req_path).read_text())
    reply = handlers[request["kind"]](request)
    Path(reply_path).write_text(json.dumps(reply))


# -- host-speed correction ----------------------------------------------------
#
# On a shared 2-vCPU host the same compile takes 25% more or less wall
# time from one ten-second window to the next, because other tenants
# contend for the CPU; a run's median cannot average that out.  So each
# timed region samples the host's speed while it runs: a SIGALRM every
# PROBE_INTERVAL_S runs a fixed integer loop (~1.5 ms, no allocation that
# the garbage collector tracks) and records how long it took.  The
# region's time, less the probes' own time, is scaled by the probe's
# nominal time over the median probe time.  A change to the program
# does not change the probe, so it moves the corrected time as it moves
# the raw time.  Raw times stay in the report.

#: The probe's seconds on an uncontended host (10th percentile of 3000
#: probes on the 2-vCPU reference VM, Python 3.11).
PROBE_NOMINAL_S = 0.0015
PROBE_INTERVAL_S = 0.1


def speed_probe() -> float:
    """Seconds the fixed probe loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(25_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class HostClock:
    """Times a region of the main thread and samples host speed in it.

    ``raw_s`` is the region's wall time; ``seconds`` is that time less
    the probes, at the host speed the probe calls nominal.
    """

    def __enter__(self) -> "HostClock":
        self.probes = [speed_probe()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def _tick(self, *_) -> None:
        self.probes.append(speed_probe())

    def __exit__(self, *exc) -> bool:
        self.raw_s = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def scale(self) -> float:
        """Nominal over measured host speed during the region."""
        return PROBE_NOMINAL_S / statistics.median(self.probes)

    @property
    def seconds(self) -> float:
        return (self.raw_s - sum(self.probes[1:])) * self.scale


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the independent output oracle ----------------------------------------------

#: The runtime the C sources expect, for the host compiler.
ORACLE_SHIM = """#include <stdio.h>
void print_int(int x) { printf("%d", x); }
void print_str(char *s) { fputs(s, stdout); }
void print_double(double x) { printf("%.6g", x); }
"""


def gcc_oracle(sources: Sequence[str], tag: str) -> List[str]:
    """Build each C source with the host gcc plus the shim and return each
    program's stdout: the reference that never touches the compiler under
    test."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    outputs = []
    for i, source in enumerate(sources):
        stem = WORK_DIR / f"oracle-{tag}-{os.getpid()}-{i}"
        c_path, exe_path = stem.with_suffix(".c"), stem.with_suffix(".exe")
        c_path.write_text(ORACLE_SHIM + source)
        try:
            subprocess.run(["gcc", "-w", "-O1", "-fwrapv", "-o", str(exe_path),
                            str(c_path)], check=True, timeout=120,
                           capture_output=True)
            run = subprocess.run([str(exe_path)], input=b"", timeout=60,
                                 capture_output=True, check=True)
            outputs.append(run.stdout.decode())
        finally:
            c_path.unlink(missing_ok=True)
            exe_path.unlink(missing_ok=True)
    return outputs


# -- seeded one-function edits ---------------------------------------------------

#: Integer literals that are the right operand of ``+ - ^ * |``.  Masks
#: (``&``), shift counts and loop bounds are never touched, so an edited
#: program keeps every index in range and every divisor non-zero.
_EDITABLE_LITERAL = re.compile(r"(?<=[-+^*|] )(\d+)\b(?![.xXuU])")
_FUNCTION_HEAD = r"^int ({prefix}\w*)\(.*\) \{{$"


def function_bodies(source: str, prefix: str):
    """``(name, body_start, body_end)`` of each top-level function whose
    name starts with ``prefix``."""
    out = []
    for m in re.finditer(_FUNCTION_HEAD.format(prefix=prefix), source, re.M):
        depth, i = 1, m.end()
        while depth:
            c = source[i]
            depth += (c == "{") - (c == "}")
            i += 1
        out.append((m.group(1), m.end(), i - 1))
    return out


def literal_edit(source: str, rng, prefix: str):
    """Bump one integer literal inside one seeded function body."""
    candidates = [(name, list(_EDITABLE_LITERAL.finditer(source, a, b)))
                  for name, a, b in function_bodies(source, prefix)]
    candidates = [(name, lits) for name, lits in candidates if lits]
    name, lits = rng.choice(candidates)
    m = rng.choice(lits)
    value = int(m.group(1)) + rng.randint(1, 9)
    return source[:m.start()] + str(value) + source[m.end():], name


# -- the layer tracer -----------------------------------------------------------------


class Tracer:
    """Spans around calls into the program's layers.

    ``wrap`` replaces a module or class attribute with a timing wrapper;
    the same function patched under several names shares one wrapper.
    Spans (name, start, end, parent, run id) stay in memory; ``restore``
    puts every original back.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._wrappers: Dict[int, Callable] = {}
        self._patched: List[tuple] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name,
                           "start": time.perf_counter(), "end": None,
                           "parent": self._stack[-1] if self._stack else None,
                           "run": self.run_id})
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid]["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield sid
        finally:
            self.end(sid)

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        wrapper = self._wrappers.get(id(original))
        if wrapper is None:
            tracer = self

            def wrapper(*args, **kwargs):
                sid = tracer.begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.end(sid)

            wrapper.__wrapped__ = original
            self._wrappers[id(original)] = wrapper
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ---------------------------------------------------------------

    def self_times(self, within: Optional[int] = None) -> Dict[str, float]:
        """Self seconds per span name: each span's duration minus the part
        its direct children cover.  ``within`` limits the sum to the
        descendants of one span (inclusive)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        keep = None if within is None else self.descendants(within)
        out: Dict[str, float] = {}
        for s in self.spans:
            if keep is not None and s["id"] not in keep:
                continue
            own = s["end"] - s["start"] - child_time[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def descendants(self, root: int) -> set:
        keep = {root}
        for s in self.spans[root + 1:]:
            if s["parent"] in keep:
                keep.add(s["id"])
        return keep

    def total(self, name: str, parent_name: Optional[str] = None,
              within: Optional[int] = None) -> float:
        """Inclusive seconds of spans called ``name`` (optionally only those
        whose parent is called ``parent_name``)."""
        keep = None if within is None else self.descendants(within)
        out = 0.0
        for s in self.spans:
            if s["name"] != name or (keep is not None and s["id"] not in keep):
                continue
            if parent_name is not None:
                parent = s["parent"]
                if parent is None or self.spans[parent]["name"] != parent_name:
                    continue
            out += s["end"] - s["start"]
        return out

    def layer_self_times(self, within: Optional[int] = None
                         ) -> Dict[str, float]:
        """Self seconds per layer (the span name's prefix)."""
        out: Dict[str, float] = {}
        for name, secs in self.self_times(within).items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + secs
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"run": self.run_id, "spans": self.spans}))


def install_compile_probes(tracer: Tracer) -> None:
    """Wrap the layer entry points the pipeline's stages and the
    incremental compiler call, plus ``Toolchain.compile`` itself."""
    import repro.brisc as brisc
    import repro.brisc.encode as brisc_encode
    import repro.brisc.journal as journal
    import repro.codegen.riscgen as riscgen
    import repro.compress.deflate as deflate
    import repro.ir as ir
    import repro.pipeline.incremental as incremental
    import repro.pipeline.stages as stages
    from repro.pipeline import Toolchain

    tracer.wrap(Toolchain, "compile", "pipeline.compile")
    tracer.wrap(stages, "compile_to_ast", "cfront.parse")
    tracer.wrap(stages, "lower_unit", "ir.lower")
    tracer.wrap(ir, "lower_unit", "ir.lower")
    tracer.wrap(stages, "generate_program", "codegen.generate")
    tracer.wrap(riscgen, "generate_function", "codegen.function")
    tracer.wrap(stages, "encode_module", "wire.encode")
    tracer.wrap(stages, "pack_streams", "compress.streams")
    tracer.wrap(stages, "unpack_streams", "compress.streams")
    tracer.wrap(stages, "vm_code_bytes", "vm.encode")
    tracer.wrap(deflate, "compress", "compress.deflate")
    tracer.wrap(brisc, "build_dictionary", "brisc.build")
    tracer.wrap(brisc, "encode_image", "brisc.encode")
    tracer.wrap(brisc_encode, "encode_image", "brisc.encode")
    tracer.wrap(journal, "replay_build", "brisc.replay")
    tracer.wrap(incremental, "split_unit", "pipeline.split")


def pipeline_layers(tracer: Tracer, root: int) -> Dict[str, float]:
    """Per-layer times of one compile (the ``root`` span)."""
    selfs = tracer.self_times(root)
    layers = tracer.layer_self_times(root)
    return {
        "cfront.parse_s": tracer.total("cfront.parse", within=root),
        "ir.lower_s": tracer.total("ir.lower", within=root),
        "codegen.generate_s": (selfs.get("codegen.generate", 0.0)
                               + selfs.get("codegen.function", 0.0)),
        "wire.encode_s": tracer.total("wire.encode", within=root),
        "compress.deflate_s": tracer.total(
            "compress.deflate", parent_name="pipeline.compile", within=root),
        "brisc.build_s": tracer.total("brisc.build", within=root),
        "brisc.encode_s": tracer.total("brisc.encode", within=root),
        "layers": layers,
    }


# -- determinism gate ------------------------------------------------------------------


def determinism_gate(workload: str, seed: int, scale: str,
                     counts: Dict[str, Any]) -> Optional[str]:
    """Compare ``counts`` with the record an earlier run of the same
    program, benchmark, workload, scale and seed left in the checkout;
    store them when there is none.  Returns a failure message, or
    ``None``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "counts.json"
    try:
        records = json.loads(path.read_text())
    except (OSError, ValueError):
        records = {}
    # The inputs come from the benchmark's code, the counts from the
    # program's: a record is valid only while neither changes.
    key = (f"{source_fingerprint()}|{source_fingerprint(BENCH_DIR)}|"
           f"{workload}|{scale}|{seed}")
    previous = records.get(key)
    if previous is None:
        records[key] = counts
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(records, indent=1, sort_keys=True))
        tmp.replace(path)
        return None
    diffs = [f"{k}: {previous.get(k)!r} then {v!r}"
             for k, v in counts.items() if previous.get(k) != v]
    if diffs:
        return "counts differ from an earlier run: " + "; ".join(diffs)
    return None


def compare_iterations(rows: List[Dict[str, Any]]) -> Optional[str]:
    """Counts of every iteration of one run must equal the first's."""
    first = rows[0]
    for i, row in enumerate(rows[1:], 2):
        diffs = [f"{k}: {first[k]!r} vs {row.get(k)!r}"
                 for k in first if row.get(k) != first[k]]
        if diffs:
            return f"iteration {i} counts differ: " + "; ".join(diffs)
    return None
