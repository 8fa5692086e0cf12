"""The cluster harness: spawn a fleet, drive a batch, optionally break it.

``run_cluster`` is the engine behind ``python -m repro cluster``:

1. compile every corpus unit **in-process** first — the single-node
   reference blobs that every routed result must match byte for byte;
2. spawn N ``repro serve`` nodes (memory-only stores, federated peers)
   and one consistent-hash router in front of them;
3. run ``rounds`` sweeps of the unit list through the router from a
   small thread pool of retrying clients;
4. in ``--chaos`` mode, execute a seeded :func:`~repro.faults.node_kill_schedule`
   concurrently — SIGKILL a node mid-batch, restart it after a delay —
   while the batch keeps going through failover and client retries;
5. after the batch, sweep once more and interrogate every node's stats,
   asserting the acceptance contract: every request completed, every
   blob byte-identical to the reference, and every restarted node
   refilled at least one artifact over federation instead of
   recompiling.  :attr:`ClusterReport.reasons` names each unmet
   condition.

Everything is seeded; a failing run reproduces from its command line.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..errors import DecodeError, ServiceError
from ..service.client import ServiceClient
from .router import BackgroundRouter, RouterConfig
from .supervisor import ClusterSupervisor

__all__ = ["ClusterReport", "format_report", "run_cluster"]


@dataclass
class ClusterReport:
    """Everything one cluster run observed, machine-checkable."""

    nodes: int
    units: List[str]
    rounds: int
    chaos: bool
    seed: int
    completed: int = 0
    failed: int = 0
    mismatched: int = 0
    elapsed: float = 0.0
    kills: int = 0
    restarts: int = 0
    failovers: int = 0
    replays: int = 0
    federation_fills: int = 0
    federation_bytes: int = 0
    refilled_after_restart: int = 0
    #: Restarted node address -> refill probes it took (see run_cluster).
    refill_probes: Dict[str, int] = field(default_factory=dict)
    per_node: Dict[str, Any] = field(default_factory=dict)
    router: Dict[str, Any] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def reasons(self) -> List[str]:
        """One line per unmet acceptance condition; empty when ``ok``."""
        out: List[str] = []
        if self.failed:
            out.append(f"{self.failed} request(s) failed")
        if self.mismatched:
            out.append(f"{self.mismatched} blob(s) differ from the "
                       f"single-node reference")
        if self.errors:
            out.append(f"{len(self.errors)} error(s) recorded")
        # A restarted node came back with an empty store; it must have
        # refilled from a peer, not recompiled.
        for address, probes in sorted(self.refill_probes.items()):
            federation = _federation(self.per_node.get(address, {}))
            if int(federation.get("fills", 0)) > 0:
                continue
            out.append(
                f"restarted node {address} refilled 0 artifacts from peers "
                f"after {probes} refill probe(s) (federation probes "
                f"{federation.get('probes', 0)}, peek hits "
                f"{federation.get('peek_hits', 0)})")
        return out

    @property
    def ok(self) -> bool:
        return not self.reasons


def _federation(stats: Dict[str, Any]) -> Dict[str, Any]:
    """The federation counters inside one node's ``stats`` reply."""
    return stats.get("toolchain", {}).get("cache", {}).get("federation", {})


def _reference_blob(name: str, source: str) -> bytes:
    """Single-node ground truth: the unit's wire blob, compiled locally."""
    from ..pipeline import default_toolchain

    return default_toolchain().compile(
        source, name=name, stages=("wire",)).wire_blob


def _unit_sources(units: Sequence[str]) -> Dict[str, str]:
    from ..corpus import get_sample, suite_source

    sources: Dict[str, str] = {}
    for unit in units:
        try:
            sources[unit] = suite_source(unit)
        except KeyError:
            sources[unit] = get_sample(unit)
    return sources


class _ChaosRunner(threading.Thread):
    """Execute a kill/restart schedule against the supervisor, off-thread."""

    def __init__(self, supervisor: ClusterSupervisor, schedule,
                 report: ClusterReport) -> None:
        super().__init__(daemon=True, name="repro-cluster-chaos")
        self.supervisor = supervisor
        self.schedule = schedule
        self.report = report
        # Not "_stop": threading.Thread has a private method by that name.
        self._halt = threading.Event()

    def run(self) -> None:
        t0 = time.monotonic()
        events = []  # (when, action, node)
        for kill in self.schedule:
            events.append((kill.at, "kill", kill.node))
            events.append((kill.restart_at, "restart", kill.node))
        events.sort()
        for when, action, node in events:
            delay = when - (time.monotonic() - t0)
            if delay > 0 and self._halt.wait(delay):
                return
            try:
                if action == "kill":
                    self.supervisor.kill(node)
                    self.report.kills += 1
                else:
                    self.supervisor.restart(node)
                    self.report.restarts += 1
            except Exception as exc:
                self.report.errors.append(
                    f"chaos {action} of node {node} failed: "
                    f"{type(exc).__name__}: {exc}")

    def finish(self) -> None:
        """Let any pending restart land, then stop; never leave a node
        down at the end of the batch."""
        self.join(timeout=60.0)
        self._halt.set()
        for node in self.supervisor.nodes:
            if not node.running:
                try:
                    self.supervisor.restart(node.index)
                    self.report.restarts += 1
                except Exception as exc:
                    self.report.errors.append(
                        f"post-batch restart of node {node.index} failed: "
                        f"{type(exc).__name__}: {exc}")


def _batch_worker(host: str, port: int, jobs, sources, references,
                  report: ClusterReport, lock: threading.Lock,
                  deadline: float, retries: int, timeout: float) -> None:
    client = ServiceClient(host, port, timeout=timeout, retries=retries)
    try:
        while True:
            try:
                unit = jobs.pop()
            except IndexError:
                return
            try:
                blob = client.wire(sources[unit], name=unit,
                                   deadline=deadline)
            except (ServiceError, DecodeError, OSError) as exc:
                with lock:
                    report.failed += 1
                    report.errors.append(
                        f"{unit}: {type(exc).__name__}: {exc}")
                continue
            with lock:
                if blob == references[unit]:
                    report.completed += 1
                else:
                    report.mismatched += 1
                    report.errors.append(
                        f"{unit}: blob differs from single-node reference "
                        f"({len(blob)} vs {len(references[unit])} bytes)")
    finally:
        client.close()


def _refill_probe(node, peer, name: str, source: str,
                  report: ClusterReport, deadline: float, retries: int,
                  timeout: float) -> bool:
    """Compile ``name`` on ``peer``, then fetch it from ``node``, which
    has never seen it: the node serves it either by recompiling or by a
    federation fill from the peer.  Checks the reply against the
    single-node reference and returns whether probing ``node`` is done:
    its federation fills are nonzero afterwards, or the probe itself
    failed (recorded in ``report``)."""
    try:
        with ServiceClient(peer.host, peer.port, timeout=timeout,
                           retries=retries) as client:
            client.wire(source, name=name, deadline=deadline)
        with ServiceClient(node.host, node.port, timeout=timeout,
                           retries=retries) as client:
            blob = client.wire(source, name=name, deadline=deadline)
            stats = client.stats()
    except (ServiceError, DecodeError, OSError) as exc:
        report.errors.append(
            f"refill probe of node {node.index} with {name!r} failed: "
            f"{type(exc).__name__}: {exc}")
        return True
    if blob != _reference_blob(name, source):
        report.mismatched += 1
        report.errors.append(
            f"refill probe: {name!r} from node {node.index} differs from "
            f"the single-node reference")
    else:
        report.completed += 1
    return int(_federation(stats).get("fills", 0)) > 0


def _node_stats(supervisor: ClusterSupervisor,
                timeout: float = 5.0) -> Dict[str, Any]:
    stats: Dict[str, Any] = {}
    for node in supervisor.nodes:
        try:
            with ServiceClient(node.host, node.port,
                               timeout=timeout) as client:
                stats[node.address] = client.stats()
        except (ServiceError, DecodeError, OSError) as exc:
            stats[node.address] = {"error": f"{type(exc).__name__}: {exc}"}
    return stats


def run_cluster(
    units: Sequence[str],
    *,
    nodes: int = 3,
    rounds: int = 2,
    concurrency: int = 4,
    chaos: bool = False,
    kills: int = 1,
    seed: int = 1997,
    restart_after: float = 1.5,
    deadline: float = 30.0,
    retries: int = 4,
    timeout: float = 30.0,
    host: str = "127.0.0.1",
    node_concurrency: int = 2,
) -> ClusterReport:
    """Run one cluster batch; see the module docstring for the phases."""
    units = list(units)
    if not units:
        raise ValueError("at least one corpus unit required")
    report = ClusterReport(nodes=nodes, units=units, rounds=rounds,
                           chaos=chaos, seed=seed)
    sources = _unit_sources(units)
    references = {unit: _reference_blob(unit, sources[unit])
                  for unit in units}

    supervisor = ClusterSupervisor(nodes, host=host,
                                   concurrency=node_concurrency,
                                   deadline=max(deadline, 30.0))
    supervisor.start()
    try:
        router = BackgroundRouter(
            supervisor.addresses,
            RouterConfig(host=host, health_interval=0.2,
                         default_deadline=deadline))
        router.start()
        try:
            if not router.wait_alive(nodes, timeout=15.0):
                raise RuntimeError("router never saw every node alive")

            chaos_thread: Optional[_ChaosRunner] = None
            if chaos and kills > 0:
                from dataclasses import replace

                from ..faults import node_kill_schedule
                from .ring import HashRing

                # Scale the window to the batch's likely duration: one
                # compile per unit lands in the first round, the rest
                # are warm, so most wall-clock is in round one.
                window = max(3.0, 0.5 * len(units))
                schedule = node_kill_schedule(
                    nodes, kills, seed=seed, window=window,
                    restart_after=restart_after)
                # Remap victims onto nodes that own at least one unit
                # (the router's assignment, reproduced locally): killing
                # a node no unit hashes to would exercise no failover.
                ring = HashRing(supervisor.addresses,
                                replicas=router.router.config.replicas)
                owners = sorted({
                    supervisor.addresses.index(ring.node_for(unit))
                    for unit in units
                })
                schedule = [replace(kill, node=owners[kill.node % len(owners)])
                            for kill in schedule]
                chaos_thread = _ChaosRunner(supervisor, schedule, report)

            jobs = [unit for _ in range(rounds) for unit in units]
            jobs.reverse()  # pop() serves them in the written order
            lock = threading.Lock()
            t0 = time.monotonic()
            if chaos_thread is not None:
                chaos_thread.start()
            workers = [
                threading.Thread(
                    target=_batch_worker,
                    args=(host, router.port, jobs, sources, references,
                          report, lock, deadline, retries, timeout),
                    daemon=True, name=f"repro-cluster-client-{i}")
                for i in range(concurrency)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            if chaos_thread is not None:
                chaos_thread.finish()
                # The health loop must re-admit every restarted node
                # before the final sweep, or its hash slots would still
                # route to the failover successor.
                if not router.wait_alive(nodes, timeout=15.0):
                    report.errors.append(
                        "router did not re-admit every node after chaos")

            # Final sweep: one more pass of every unit through the
            # router.  A node that restarted with an empty store now
            # owns its hash slots again — requests for its units refill
            # over federation when any peer compiled them during
            # failover.
            _batch_worker(host, router.port, list(reversed(units)),
                          sources, references, report, lock,
                          deadline, retries, timeout)

            # Refill probe: the deterministic witness that a restarted
            # node heals from its peers instead of recompiling.  The
            # router sweep alone cannot guarantee a refill: a kill that
            # lands between batch requests leaves no peer holding the
            # victim's units, and when every unit hashes to the victim
            # no peer holds anything.  So the probe warms a live peer
            # with a renamed copy of a unit (fresh cache keys
            # everywhere) and fetches it from the restarted node
            # directly.  A peer ``cache_peek`` can time out on a loaded
            # host, and the node then recompiles; so the probe moves on
            # to the next unit until the node's own stats show a fill.
            for node in supervisor.nodes:
                if not node.restarts:
                    continue
                report.refill_probes[node.address] = 0
                peers = [p for p in supervisor.nodes
                         if p is not node and p.running]
                for unit in units if peers else ():
                    report.refill_probes[node.address] += 1
                    if _refill_probe(node, peers[0], f"{unit}.refill-probe",
                                     sources[unit], report, deadline,
                                     retries, timeout):
                        break
            report.elapsed = time.monotonic() - t0

            report.per_node = _node_stats(supervisor)
            for stats in report.per_node.values():
                federation = _federation(stats)
                report.federation_fills += int(federation.get("fills", 0))
                report.federation_bytes += int(
                    federation.get("fill_bytes", 0))
            # Fills observed on any node that was killed and restarted:
            # its store was empty, so a fill is necessarily a refill.
            for address in report.refill_probes:
                report.refilled_after_restart += int(_federation(
                    report.per_node.get(address, {})).get("fills", 0))

            try:
                with ServiceClient(host, router.port,
                                   timeout=timeout) as client:
                    router_stats = client.stats()
                report.router = router_stats.get("router", {})
                report.failovers = int(report.router.get("failovers", 0))
                report.replays = int(report.router.get("replays", 0))
            except (ServiceError, DecodeError, OSError) as exc:
                report.errors.append(
                    f"router stats unavailable: {type(exc).__name__}: {exc}")
        finally:
            router.stop()
    finally:
        supervisor.stop()
        report.per_node.setdefault("_supervisor", supervisor.snapshot())
    return report


def format_report(report: ClusterReport) -> str:
    """Human-readable run summary for the CLI."""
    total = report.completed + report.failed + report.mismatched
    lines = [
        f"cluster: {report.nodes} nodes, {len(report.units)} units x "
        f"{report.rounds} rounds"
        + (f", chaos (seed {report.seed})" if report.chaos else ""),
        f"requests : {report.completed}/{total} completed byte-identical "
        f"in {report.elapsed:.2f}s"
        + (f", {report.failed} failed" if report.failed else "")
        + (f", {report.mismatched} MISMATCHED" if report.mismatched else ""),
        f"failover : {report.kills} kills, {report.restarts} restarts, "
        f"{report.failovers} failovers, {report.replays} replays",
        f"federate : {report.federation_fills} fills, "
        f"{report.federation_bytes} bytes copied"
        + (f", {report.refilled_after_restart} refills on restarted nodes"
           if report.restarts else ""),
    ]
    for address, stats in sorted(report.per_node.items()):
        if address.startswith("_"):
            continue
        if "error" in stats:
            lines.append(f"  {address}: {stats['error']}")
            continue
        cache = stats.get("toolchain", {}).get("cache", {})
        federation = _federation(stats)
        out = stats.get("service", {}).get("federation_out", {})
        lines.append(
            f"  {address}: cache {cache.get('hits', 0)} hits / "
            f"{cache.get('misses', 0)} misses, federation in "
            f"{federation.get('fills', 0)} ({federation.get('fill_bytes', 0)}"
            f" B) / out {out.get('pulls', 0)} ({out.get('bytes', 0)} B)")
    lines.append("result   : " + ("OK" if report.ok else "FAILED"))
    for reason in report.reasons:
        lines.append(f"  reason: {reason}")
    for error in report.errors[:10]:
        lines.append(f"  error: {error}")
    if len(report.errors) > 10:
        lines.append(f"  ... and {len(report.errors) - 10} more errors")
    return "\n".join(lines)
