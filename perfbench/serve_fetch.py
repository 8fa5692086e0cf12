"""Workload ``serve-fetch``: ``repro serve`` in its own process (started
through this script's ``serve`` entry, which adds the host-speed probe),
warmed with seeded 40-function units in v3 wire and BRISC containers,
driven by one load-generator process with two closed-loop connections.

The mix is seeded: one-function ``fetch_function`` requests on both
formats (a uniformly chosen function of a warm unit), about 10%
``compile`` requests that hit the stage cache, and in five evenly spaced
slots per connection a ``wire`` request for a unit the server has never
seen (under 1% of requests).  The compilers barely run, so the service,
protocol, container and cache-read layers carry the time; the unseen
units set the tail.
"""

from __future__ import annotations

import base64
import hashlib
import json
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from common import (
    PROBE_INTERVAL_S, PROBE_NOMINAL_S, ROOT, WORK_DIR, BenchFailure, Tracer,
    child_env, child_main, log, peak_rss_mb, percentile, run_child,
    speed_probe, summary,
)

SCRIPT = "serve_fetch.py"

#: (warm units, functions per unit) per scale.  A fixed size keeps the
#: work per request equal across seeds.
SCALES = {"full": (2, 40), "tiny": (1, 7)}
FORMATS = ("wire", "brisc")
COMPILE_STAGES = ["wire", "deflate"]
CONNECTIONS = 2
#: Unseen units per connection, spread evenly over the load window.  A
#: fixed count keeps the server's cache growth, and so its memory, the
#: same from run to run.  An unseen unit holds the server's interpreter
#: lock for 0.1-0.4 s and slows every fetch that overlaps it; with ten
#: per connection they overlapped about half the window on a slow host,
#: and the median latency flipped between "alone" and "overlapped" from
#: run to run (spread 0.32 over ten seeds).  Five keep the overlap well
#: under half.
MISSES_PER_CONNECTION = 5
COMPILE_SHARE = 0.10
#: Unseen-unit requests timed one at a time before the load window.
COLD_REQUESTS = 12


# -- the server process ----------------------------------------------------------


class Server:
    """``repro serve`` on an ephemeral port, in its own process, with the
    host-speed probe sampling inside it (see :func:`serve_main`)."""

    def __init__(self, seed: int) -> None:
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.probes_path = WORK_DIR / f"server-probes-{time.monotonic_ns()}.json"
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "serve",
             str(self.probes_path)],
            env=child_env(seed), cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """Graceful drain (SIGTERM); kill if it does not finish."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()

    def probes(self) -> List[List[float]]:
        """``[wall time, probe seconds]`` samples the stopped server took."""
        try:
            return json.loads(self.probes_path.read_text())
        finally:
            self.probes_path.unlink(missing_ok=True)


def serve_main(probes_path: str) -> int:
    """``python -m repro serve --port 0`` plus a SIGALRM that runs the
    speed probe every PROBE_INTERVAL_S on the server's main thread, so
    request times can be scaled by the speed of the host the server ran
    on.  The samples are written to ``probes_path`` at exit."""
    from repro.__main__ import main

    samples: List[List[float]] = []

    def tick(*_) -> None:
        samples.append([time.time(), speed_probe()])

    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        return main(["serve", "--port", "0"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        Path(probes_path).write_text(json.dumps(samples))


def _scale(probes: List[List[float]], window: List[float]) -> float:
    """Nominal over median probe time among the server's samples taken
    inside the wall-clock ``window``."""
    inside = [p for t, p in probes if window[0] <= t <= window[1]]
    return PROBE_NOMINAL_S / summary(inside or [p for _, p in probes])["median"]


# -- child: warm-up ------------------------------------------------------------------


def child_warm(request: Dict[str, Any]) -> Dict[str, Any]:
    """Generate the warm units, compile them on the server in both v3
    containers and for the compile mix, and fetch each full container."""
    from repro.container import container_index
    from repro.corpus import generate_program_source
    from repro.service import ServiceClient

    seed = request["seed"]
    count, size = SCALES[request["scale"]]
    units = []
    with ServiceClient(port=request["port"], timeout=60.0) as client:
        for i in range(count):
            name = f"warm{i}"
            source = generate_program_source(functions=size,
                                             seed=seed * 100 + 50 + i)
            client.compile(source, name=name, stages=COMPILE_STAGES)
            full = {}
            for fmt in FORMATS:
                reply = client.fetch_range(source, 0, 1 << 30, name=name,
                                           format=fmt)
                full[fmt] = base64.b64encode(reply["blob"]).decode("ascii")
            blob = base64.b64decode(full["wire"])
            functions = [f.name for f in container_index(blob).functions]
            units.append({"name": name, "source": source, "full": full,
                          "functions": functions})
    return {"units": units}


# -- child: load generator -------------------------------------------------------------


def _decode(fmt: str):
    if fmt == "wire":
        from repro.wire import decode_function
    else:
        from repro.brisc.encode import decode_function
    return decode_function


def _digest(reply: Dict[str, Any]) -> str:
    h = hashlib.sha256()
    for seg in reply["segments"]:
        h.update(str(seg["offset"]).encode())
        h.update(seg["b64"].encode())
    return h.hexdigest()


def _sweep(client, units, inject: Optional[str]) -> Dict[tuple, Dict]:
    """Fetch every function of every warm unit in both formats once and
    check each sparse reply decodes its function exactly as the full
    container does.  The load phase's replies must match these."""
    from repro.container import container_index

    ref: Dict[tuple, Dict] = {}
    for unit in units:
        for fmt in FORMATS:
            full = base64.b64decode(unit["full"][fmt])
            index = container_index(full)
            decode = _decode(fmt)
            for fn in unit["functions"]:
                asked = fn
                if inject == "wrong-function" and not ref:
                    chunk = index.function(fn).chunk
                    asked = next(r.name for r in index.functions
                                 if r.chunk != chunk)
                reply = client.fetch_function(unit["source"], asked,
                                              name=unit["name"], format=fmt)
                try:
                    got = decode(reply["blob"], fn)
                except Exception as exc:
                    raise BenchFailure(
                        "fetch-decode", f"{unit['name']}/{fmt}/{fn}: sparse "
                        f"reply does not decode: {type(exc).__name__}: {exc}"
                    ) from exc
                if got != decode(full, fn):
                    raise BenchFailure(
                        "fetch-decode", f"{unit['name']}/{fmt}/{fn}: sparse "
                        "reply decodes differently from the full container")
                ref[(unit["name"], fmt, fn)] = {
                    "digest": _digest(reply),
                    "transferred": reply["transferred"],
                    "total": reply["total_bytes"],
                    "reply": reply,
                }
    return ref


class _Connection(threading.Thread):
    """One closed-loop client: sends its next request when the last
    reply is in."""

    def __init__(self, index, port, units, ref, seed, start, seconds,
                 tracer) -> None:
        super().__init__(daemon=True)
        self.index, self.port, self.units, self.ref = index, port, units, ref
        self.rng = random.Random(seed * 1000003 + index)
        self.deadline = start + seconds
        self.tracer, self.trace_from = tracer, start + seconds / 2.0
        step = seconds / MISSES_PER_CONNECTION
        offset = (index + 1) / (CONNECTIONS + 1)
        self.miss_at = [start + (k + offset) * step
                        for k in range(MISSES_PER_CONNECTION)]
        self.rows: List[tuple] = []   # (kind, seconds, started, traced)
        self.failures: List[str] = []
        self.mismatch: Optional[str] = None

    def run(self) -> None:
        from repro.errors import DecodeError, ServiceError
        from repro.service import ServiceClient

        client = ServiceClient(port=self.port, timeout=60.0)
        n = 0
        try:
            while time.perf_counter() < self.deadline:
                n += 1
                unit = self.rng.choice(self.units)
                if self.miss_at and time.perf_counter() >= self.miss_at[0]:
                    self.miss_at.pop(0)
                    kind = "miss"
                    source = (f"{unit['source']}\n/* unseen {self.index}-{n} "
                              "*/\n")
                    call = (lambda: client.wire(
                        source, name=f"unseen{self.index}-{n}"))
                elif self.rng.random() < COMPILE_SHARE:
                    kind = "compile"
                    call = (lambda: client.compile(
                        unit["source"], name=unit["name"],
                        stages=COMPILE_STAGES))
                else:
                    kind = "fetch"
                    fmt = self.rng.choice(FORMATS)
                    fn = self.rng.choice(unit["functions"])
                    key = (unit["name"], fmt, fn)
                    call = (lambda: client.fetch_function(
                        unit["source"], fn, name=unit["name"], format=fmt))
                started = time.perf_counter()
                traced = (self.tracer is not None
                          and started >= self.trace_from)
                sid = self.tracer.begin(f"service.{kind}") if traced else None
                try:
                    reply = call()
                except (ServiceError, DecodeError, OSError) as exc:
                    self.failures.append(f"{kind}: {type(exc).__name__}: "
                                         f"{exc}")
                    continue
                finally:
                    if sid is not None:
                        self.tracer.end(sid)
                seconds = time.perf_counter() - started
                self.rows.append((kind, seconds, started, traced))
                if kind == "fetch" and self.mismatch is None:
                    if _digest(reply) != self.ref[key]["digest"]:
                        self.mismatch = (f"{'/'.join(key)}: reply differs "
                                         "from the verified sweep reply")
        finally:
            client.close()


class _RequestTracer(Tracer):
    """Request spans from several load threads.  A request span has no
    children here, so no parent stack is kept; a lock orders the list."""

    def __init__(self, run_id: str) -> None:
        super().__init__(run_id)
        self._lock = threading.Lock()

    def begin(self, name: str) -> int:
        with self._lock:
            self.spans.append({"id": len(self.spans), "name": name,
                               "start": time.perf_counter(), "end": None,
                               "parent": None, "run": self.run_id})
            return len(self.spans) - 1

    def end(self, sid: int) -> None:
        self.spans[sid]["end"] = time.perf_counter()


def _cold_requests(client, seed: int, size: int) -> List[float]:
    """Latencies of ``wire`` requests for ``COLD_REQUESTS`` freshly
    generated units, one at a time on the warm, otherwise idle server: what a
    client waits for a unit the server has never seen.  Distinct programs
    keep one program's quirks from setting the median.  (The unseen units
    inside the mix share the server with the other connection, so their
    latency mostly measures that contention; they are reported as
    ``service.miss_ms``.)"""
    from repro.corpus import generate_program_source

    sources = [generate_program_source(functions=size,
                                       seed=seed * 100 + 70 + n)
               for n in range(COLD_REQUESTS)]
    out = []
    for n, source in enumerate(sources):
        t0 = time.perf_counter()
        client.wire(source, name=f"cold{n}")
        out.append(time.perf_counter() - t0)
    return out


def _micro_us(fn, repeat: int = 200) -> float:
    """Median microseconds of ``fn`` over ``repeat`` calls."""
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e6)
    return summary(samples)["median"]


def child_load(request: Dict[str, Any]) -> Dict[str, Any]:
    from repro.service import ServiceClient

    units = request["units"]
    reply: Dict[str, Any] = {"failed": None}
    try:
        with ServiceClient(port=request["port"], timeout=60.0) as client:
            ref = _sweep(client, units, request.get("inject"))
            # Before the load, so the server's heap (and its collector's
            # schedule) is the same in every run with this seed.
            reply["cold_wall"] = [time.time()]
            reply["cold_s"] = _cold_requests(
                client, request["seed"], SCALES[request["scale"]][1])
            reply["cold_wall"].append(time.time())
            before = client.stats()
        tracer = (_RequestTracer(request["run_id"]) if request["trace"]
                  else None)
        start = time.perf_counter()
        threads = [_Connection(i, request["port"], units, ref,
                               request["seed"], start, request["seconds"],
                               tracer)
                   for i in range(CONNECTIONS)]
        reply["load_wall"] = [time.time()]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=request["seconds"] + 120)
        if any(t.is_alive() for t in threads):
            raise BenchFailure("load", "a load connection did not stop")
        window = time.perf_counter() - start
        reply["load_wall"].append(time.time())
        with ServiceClient(port=request["port"], timeout=60.0) as client:
            after = client.stats()
        for t in threads:
            if t.mismatch:
                raise BenchFailure("fetch-decode", t.mismatch)
        rows = [row for t in threads for row in t.rows]
        reply["failures"] = [f for t in threads for f in t.failures]
        reply["rows"] = [[k, s, tr] for k, s, _, tr in rows]
        reply["window_s"] = window
        reply["sweep"] = [[v["transferred"], v["total"]] for v in ref.values()]
        lat_b, lat_a = before["service"]["latency"], after["service"]["latency"]
        handled = lat_a["count"] - lat_b["count"] - 1  # the stats op itself
        reply["handler_ms"] = ((lat_a["seconds"] - lat_b["seconds"])
                               / max(1, handled) * 1000.0)
        tot_b, tot_a = before["toolchain"]["totals"], after["toolchain"]["totals"]
        hits = tot_a["cache_hits"] - tot_b["cache_hits"]
        runs = tot_a["runs"] - tot_b["runs"]
        reply["hit_ratio"] = hits / max(1, hits + runs)

        if request["trace"]:
            reply.update(_client_layers(ref, units))
        if tracer:
            tracer.dump(Path(request["spans_path"]))
    except BenchFailure as exc:
        reply["failed"] = {"check": exc.check, "message": str(exc)}
    reply["rss_mb"] = peak_rss_mb()
    return reply


def _client_layers(ref, units) -> Dict[str, float]:
    """Client-side layer costs, measured on a recorded fetch reply."""
    from repro.container import assemble_sparse, container_index
    from repro.service import protocol

    sample = next(iter(ref.values()))["reply"]
    message = {"id": 1, "ok": True,
               "result": {k: v for k, v in sample.items() if k != "blob"}}
    full = base64.b64decode(units[0]["full"]["wire"])
    fn = units[0]["functions"][0]
    segments = [(int(s["offset"]), base64.b64decode(s["b64"]))
                for s in sample["segments"]]

    def round_trip():
        frame = protocol.encode_message(message)
        protocol.decode_message(
            protocol.check_payload(frame[8:-4], frame[-4:]))

    return {
        "protocol_us": _micro_us(round_trip),
        "ranges_us": _micro_us(
            lambda: container_index(full).ranges_for_function(fn)),
        "assemble_us": _micro_us(
            lambda: assemble_sparse(sample["total_bytes"], segments)),
    }


# -- parent ----------------------------------------------------------------------


def run(args) -> Dict[str, Any]:
    setups, server, warm = [], None, None
    try:
        for rep in range(3):
            t0 = time.perf_counter()
            server = Server(args.seed)
            warm = run_child(SCRIPT, {"kind": "warm", "port": server.port,
                                      "seed": args.seed, "scale": args.scale},
                             args.seed)
            setups.append(time.perf_counter() - t0)
            if rep < 2:
                server.stop()
        log(f"serve-fetch: set-up {[round(s, 2) for s in setups]} s")
        load = run_child(SCRIPT, {
            "kind": "load", "port": server.port, "units": warm["units"],
            "scale": args.scale,
            "seconds": args.seconds, "seed": args.seed,
            "trace": bool(args.trace), "inject": args.inject,
            "run_id": args.run_id, "spans_path": str(args.spans_path),
        }, args.seed, timeout=args.seconds + 150)
        server_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    probes = server.probes()
    if load["failed"]:
        return {"attempted": 1, "failure": load["failed"]}
    rows = load["rows"]
    every = [s for _, s, _ in rows]
    plain = [s for _, s, traced in rows if not traced]
    misses = [s for kind, s, _ in rows if kind == "miss"]
    p99 = percentile(every, 99)
    log(f"serve-fetch: {len(rows)} requests in {load['window_s']:.1f} s, "
        f"{len(misses)} unseen units, {len(load['failures'])} failed")
    transferred = [t for t, _ in load["sweep"]]
    load_scale = _scale(probes, load["load_wall"])
    cold_scale = _scale(probes, load["cold_wall"])
    out: Dict[str, Any] = {
        "attempted": len(rows) + len(load["failures"]),
        "failure": ({"check": "requests", "message": load["failures"][0]}
                    if load["failures"] else None),
        "samples": {
            "setup_s": setups,
            "build_s": [s * cold_scale for s in load["cold_s"]],
            "latency_ms": [s * load_scale * 1000.0 for s in plain],
            "ship_bytes": [sum(transferred) / len(transferred)],
            "peak_rss_mb": [server_rss + load["rss_mb"]],
        },
        "detail": {
            "requests": len(rows), "unseen": len(misses),
            "rps": len(rows) / load["window_s"], "p99_ms": p99 * 1000.0,
            "samples_beyond_p99": sum(1 for s in every if s > p99),
            "load_scale": load_scale, "cold_scale": cold_scale,
            "cold_raw_s": load["cold_s"],
        },
    }
    out["counts"] = {"ship_bytes": out["samples"]["ship_bytes"][0]}
    if args.trace:
        mean_rtt = sum(every) / len(every) * 1000.0
        traced = [s for _, s, tr in rows if tr]
        out["layers"] = {
            "service.handler_ms": load["handler_ms"],
            "service.transport_ms": mean_rtt - load["handler_ms"],
            "service.protocol_us": load["protocol_us"],
            "container.ranges_us": load["ranges_us"],
            "container.assemble_us": load["assemble_us"],
            "pipeline.hit_ratio": load["hit_ratio"],
            "service.miss_ms": summary(misses)["median"] * 1000.0,
            "container.transfer_ratio": sum(t / n for t, n in load["sweep"])
                                        / len(load["sweep"]),
            "service.p99_ms": p99 * 1000.0,
            "service.rps": len(rows) / load["window_s"],
            "service.requests": len(rows),
            "trace.coverage": load["handler_ms"] / mean_rtt,
            "trace.overhead": (summary(traced)["median"]
                               / summary(plain)["median"] - 1.0),
        }
    return out


if __name__ == "__main__":
    if sys.argv[1] == "serve":
        sys.exit(serve_main(sys.argv[2]))
    child_main({"warm": child_warm, "load": child_load})
