"""The five workloads of the e2e benchmark and the rigs that run them.

A *workload* turns a seed into inputs and builds a *rig*; a rig is one
freshly built system on one transport, offering ``query(range)``, the
transport's message counter, and ``instrument(tracer)`` for the traced
run.  ``--seed`` reaches only the generated ranges: every
``SystemConfig.seed`` stays at its default, so the program sees nothing of
the benchmark but its inputs.

Why each workload exists is recorded in ``BENCHMARK.json`` and, at
length, in the README next to this file.
"""

from __future__ import annotations

import inspect
import os
import shutil
import signal
import tempfile
from collections import Counter as Multiset
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro.core.config import SystemConfig
from repro.core.system import RangeSelectionSystem
from repro.obs import registry as obs_registry
from repro.obs.distributed import bucket_quantile
from repro.ranges.interval import IntRange
from repro.rpc import wire
from repro.rpc.cluster import LocalCluster
from repro.rpc.peer import DATA_KINDS
from repro.sim.query import AsyncQueryEngine
from repro.storage.snapshot import load_peer_snapshot
from repro.storage.wal import PeerDurability, read_wal_tolerant
from repro.util.rng import derive_rng
from repro.workloads.generators import UniformRangeWorkload, ZipfRangeWorkload

from tracing import Tracer

__all__ = [
    "WORKLOADS", "Workload", "Inputs", "Sandbox", "RUN_SECONDS", "CLIENT_TIMEOUT_MS",
]

#: ``run_seconds`` of BENCHMARK.json.  The timed counts below are sized so
#: that a workload's three timed phases together take about this long on
#: the reference box; ``--seconds`` scales them linearly.  Counts, not a
#: deadline, end a phase: a deadline would let a faster program answer
#: more queries against a fuller cache, and no count would repeat.
RUN_SECONDS = 10

DOMAIN = SystemConfig().domain
LIVE_PEERS = 8
LIVE_REPLICAS = 3
#: The client's request timeout, with its ``policies`` off.  The default
#: client shrinks a peer's timeout towards its round-trip time with a
#: floor of 100 ms and opens a circuit breaker after three timeouts; on
#: the shared reference box a peer process stalls for longer than that
#: every few runs (an fsync, a neighbour), one query's 15 stores then time
#: out together, the breaker fails the next two seconds of queries, and
#: the run is void.  No fault is injected here, so a stall is host noise:
#: with a fixed generous timeout it costs that query its latency and
#: nothing else.
CLIENT_TIMEOUT_MS = 30_000.0
#: The clusters run with PeerDurability's default compaction period.
COMPACT_EVERY = inspect.signature(PeerDurability).parameters["compact_every"].default


@dataclass(frozen=True)
class Inputs:
    """Everything one repetition feeds the program."""

    prestore: list[IntRange]
    warmup: list[IntRange]
    timed: list[IntRange]


# ---------------------------------------------------------------------------
# Process and disk hygiene
# ---------------------------------------------------------------------------

class Sandbox:
    """Owns every peer process and data root the benchmark creates.

    Data roots live under ``.work`` beside this file (the benchmark may
    only write inside its checkout), keep LocalCluster's
    ``repro-cluster-`` prefix, and are removed with their cluster.
    """

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = work_dir
        self._clusters: dict[LocalCluster, str | None] = {}

    def scratch_dir(self, prefix: str) -> str:
        """A fresh directory under the work dir (caller removes it)."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        return tempfile.mkdtemp(prefix=prefix, dir=self.work_dir)

    def open_cluster(self, peers: int, replicas: int, durable: bool) -> LocalCluster:
        data_root = self.scratch_dir("repro-cluster-") if durable else None
        cluster = LocalCluster(
            peers,
            SystemConfig(n_peers=peers, replicas=replicas),
            durable=durable,
            data_root=data_root,
        )
        self._clusters[cluster] = data_root
        try:
            cluster.start()
        except BaseException:
            self.close_cluster(cluster)
            raise
        return cluster

    def close_cluster(self, cluster: LocalCluster) -> None:
        data_root = self._clusters.pop(cluster, None)
        try:
            cluster.shutdown()
        finally:
            if data_root is not None:
                shutil.rmtree(data_root, ignore_errors=True)

    def close(self) -> None:
        """Tear down whatever is still open (error, Ctrl-C and SIGTERM
        paths), then the work dir itself."""
        for cluster in list(self._clusters):
            self.close_cluster(cluster)
        # An interrupt that lands inside LocalCluster.spawn leaves a peer
        # the cluster never recorded; it must die before its data root
        # goes, or it recreates the directory.
        for pid in _children():
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # exited, or already reaped by its Popen
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def leaks(self) -> list[str]:
        """Peer processes or data roots that outlived the run."""
        found = [f"cluster still open: {c!r}" for c in self._clusters]
        found += [f"child process {pid} still running" for pid in _children()]
        if self.work_dir.is_dir():
            found += [f"left behind: {path}" for path in self.work_dir.iterdir()]
        return found


def _children() -> list[int]:
    """Live child processes of this one, from ``/proc``."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we were looking
        # pid (comm) state ppid ...; comm may itself contain spaces.
        state, parent = stat.rsplit(")", 1)[-1].split()[:2]
        if parent == me and state != "Z":
            found.append(int(entry))
    return found


# ---------------------------------------------------------------------------
# Tracing hooks shared by the rigs
# ---------------------------------------------------------------------------

def _patch_topology(tracer: Tracer, system: Any) -> None:
    """Hashing, routing and replica planning: the engine reaches all of
    them through the system object, so instance attributes suffice."""
    tracer.patch(system, "identifiers_for", "lsh")
    tracer.patch(system.router, "route", "chord.route")
    tracer.patch(system.router, "replica_set", "core.replica_plan")
    tracer.patch(system, "failover_candidates", "core.replica_plan")


def _patch_registry(tracer: Tracer) -> None:
    """Every public way into ``obs.registry``.  Class-level, because the
    facades reach their counters through properties and dict subclasses
    that instance attributes cannot intercept; undone by ``uninstall``."""
    for cls, methods in (
        (obs_registry.Counter, ("inc", "set", "get")),
        (obs_registry.HistogramMetric, ("observe",)),
        (obs_registry.LabeledCounterDict, ("__setitem__",)),
        (obs_registry.MetricsRegistry, ("counter", "gauge", "histogram")),
    ):
        for method in methods:
            tracer.patch(cls, method, "obs.registry")


def _patch_handlers(tracer: Tracer, system: RangeSelectionSystem, network: Any) -> None:
    """Re-register every peer's handler behind a span, counting the
    bucket entries each match request has to scan."""
    counts = tracer.counts
    # One pair of wrappers for all peers, not one per peer: at 10,000
    # peers the closures would outweigh the stores they wrap.
    match = tracer.wrap("peer.match", _deliver)
    put = tracer.wrap("peer.store", _deliver)

    def traced(handler: Callable, store: Any) -> Callable:
        def dispatch(message):
            if message.kind == "match-request":
                bucket = store.bucket(message.payload[0])
                if bucket is not None:
                    counts["peer.entries_scanned"] += len(bucket)
                return match(handler, message)
            if message.kind == "store-request":
                return put(handler, message)
            return handler(message)

        return dispatch

    for node_id in system.router.node_ids:
        network.register(
            node_id, traced(system.peer_handler(node_id), system.stores[node_id])
        )


def _deliver(handler: Callable, message: Any) -> Any:
    return handler(message)


# ---------------------------------------------------------------------------
# Rigs
# ---------------------------------------------------------------------------

class SyncRig:
    """``core.system.RangeSelectionSystem`` on the synchronous transport."""

    def __init__(self, n_peers: int, prestore: list[IntRange]) -> None:
        self.system = RangeSelectionSystem(SystemConfig(n_peers=n_peers))
        for r in prestore:
            self.system.store_partition(r)
        self.query = self.system.query

    def query_with_own_trace(self, r: IntRange):
        """The same query with the program's own ``QueryTrace`` attached."""
        return self.system.query(r, trace=self.system.start_trace(r))

    def messages(self) -> int:
        return self.system.network.stats.messages

    def instrument(self, tracer: Tracer) -> None:
        _patch_topology(tracer, self.system)
        tracer.patch_transport(self.system.transport)
        _patch_handlers(tracer, self.system, self.system.network)
        _patch_registry(tracer)

    def close(self) -> None:
        pass


class SimRig:
    """``sim.query.AsyncQueryEngine``, closed loop through ``engine.run``."""

    def __init__(self, n_peers: int) -> None:
        self.engine = AsyncQueryEngine(
            RangeSelectionSystem(SystemConfig(n_peers=n_peers))
        )
        self.query = self.engine.run

    def messages(self) -> int:
        return self.engine.transport.stats.messages

    def instrument(self, tracer: Tracer) -> None:
        engine, sim = self.engine, self.engine.sim
        _patch_topology(tracer, engine.system)
        tracer.patch_transport(engine.transport)
        _patch_handlers(tracer, engine.system, engine.net)
        _patch_registry(tracer)
        tracer.patch(engine, "pick_origin", "sim.pick_origin")
        call_at = sim.call_at
        tracer.replace(
            sim,
            "call_at",
            tracer.wrap(
                "sim.kernel",
                lambda time, fn: call_at(time, tracer.wrap("sim.event", fn)),
            ),
        )
        tracer.patch(sim, "run_until_complete", "sim.kernel")

    def close(self) -> None:
        pass


class LiveRig:
    """``LocalCluster`` peer processes on loopback + one ``ClusterClient``."""

    def __init__(self, sandbox: Sandbox, durable: bool, prestore: list[IntRange]) -> None:
        self.sandbox = sandbox
        self.cluster = sandbox.open_cluster(LIVE_PEERS, LIVE_REPLICAS, durable)
        try:
            self.client = self.cluster.client(
                policies=False, timeout_ms=CLIENT_TIMEOUT_MS
            )
            for r in prestore:
                self.client.query(r)
        except BaseException:
            sandbox.close_cluster(self.cluster)
            raise
        self.query = self.client.query

    def messages(self) -> int:
        return self.client.transport.stats.messages

    def instrument(self, tracer: Tracer) -> None:
        _patch_topology(tracer, self.client.system)
        tracer.patch_transport(self.client.transport)
        _patch_registry(tracer)
        # rpc.client calls these through the module, so module attributes
        # are the public entry points.
        tracer.replace(wire, "call", tracer.wrap_async("wire.call", wire.call))
        for codec in ("encode_value", "decode_value"):
            tracer.replace(
                wire, codec, tracer.wrap_outermost("wire.codec", getattr(wire, codec))
            )

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            self.sandbox.close_cluster(self.cluster)

    # -- server-side numbers, from public surfaces only ------------------

    def server_sample(self) -> dict[str, float]:
        """Summed RSS and CPU of the peer processes, from ``/proc``."""
        page = os.sysconf("SC_PAGE_SIZE")
        ticks = os.sysconf("SC_CLK_TCK")
        rss = cpu = 0.0
        for process in self.cluster.processes.values():
            base = Path("/proc", str(process.pid))
            rss += int((base / "statm").read_text().split()[1]) * page
            fields = (base / "stat").read_text().rsplit(")", 1)[-1].split()
            cpu += (int(fields[11]) + int(fields[12])) / ticks
        return {"rss_mb": rss / 2**20, "cpu_s": cpu}

    def service_ms(self) -> dict[str, float]:
        """Mean and bucket-resolution p50 of ``server.service_ms`` over
        the data-plane request kinds, merged across the peers."""
        edges: list[float] = []
        counts: list[int] = []
        total = 0.0
        for address in self.client.members:
            snapshot = self.client.telemetry_of(address, spans=0)["metrics"]
            for family in snapshot["metrics"]:
                if family["name"] != "server.service_ms":
                    continue
                edges = family["edges"]
                for series in family["series"]:
                    if series["labels"].get("kind") not in DATA_KINDS:
                        continue
                    total += series["sum"]
                    counts = [
                        a + b for a, b in
                        zip(counts or [0] * len(series["counts"]), series["counts"])
                    ]
        served = sum(counts)
        return {
            "mean": total / served if served else 0.0,
            "p50": bucket_quantile(edges, counts, 0.5),
        }

    def placement_errors(self, stored: set[IntRange]) -> list[str]:
        """Every acked store must sit on ``replicas`` peers, once per
        distinct identifier of its range, and nothing else may be held."""
        system = self.client.system
        expected: Multiset = Multiset()
        for r in stored:
            for identifier in set(system.identifiers_for(r)):
                expected[(identifier, r)] = system.config.replicas
        held: Multiset = Multiset()
        for address in self.client.members:
            for identifier, descriptor, _rows, _primary in self.client.entries_of(address):
                held[(identifier, descriptor.range)] += 1
        if held == expected:
            return []
        return [
            f"{sum(held.values())} entries held over all members, expected "
            f"{sum(expected.values())} (replicas x identifiers x "
            f"{len(stored)} stored ranges); "
            f"{len((expected - held) + (held - expected))} keys differ"
        ]

    def wal_stats(self) -> dict[str, float]:
        """Records appended, bytes per record and compactions, read back
        from the peers' data directories.  Sequence numbers never reset,
        so the newest one is the number of appends; a compaction stamps
        the snapshot with the sequence it covers."""
        appended = compactions = 0
        wal_bytes = wal_records = 0
        for address in self.cluster.processes:
            data_dir = Path(self.cluster.data_root, address)
            snapshot = load_peer_snapshot(data_dir / PeerDurability.SNAPSHOT_NAME)
            covered = int(snapshot["wal_seq"]) if snapshot is not None else 0
            records, _torn, valid = read_wal_tolerant(data_dir / PeerDurability.WAL_NAME)
            appended += max([covered] + [int(r["seq"]) for r in records])
            compactions += covered // COMPACT_EVERY
            wal_bytes += valid
            wal_records += len(records)
        return {
            "appended": appended,
            "compactions": compactions,
            "bytes_per_record": wal_bytes / wal_records if wal_records else 0.0,
        }

    def restart_recover_ms(self, address: str) -> float:
        """SIGKILL one peer and time its restart up to the ready line."""
        self.cluster.kill(address)
        started = perf_counter()
        self.cluster.restart(address)
        return (perf_counter() - started) * 1000.0


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _uniform(count: int, seed: int) -> list[IntRange]:
    return UniformRangeWorkload(DOMAIN, count, seed).ranges()


@dataclass(frozen=True)
class Workload:
    name: str
    transport: str
    #: Counts at ``--seconds RUN_SECONDS`` and full scale.
    prestore: int
    warmup: int
    timed: int
    #: Probe groups (see probes.py) whose layers this workload stresses.
    probes: tuple[str, ...]
    make_inputs: Callable[[int, int, int, int], Inputs]
    make_rig: Callable[[Inputs, Sandbox], Any]

    def inputs(self, seed: int, seconds: float, divisor: int) -> Inputs:
        """Seeded inputs; ``divisor`` shrinks every count (``--scale tiny``)."""
        return self.make_inputs(
            seed,
            max(1, self.prestore // divisor),
            max(1, self.warmup // divisor),
            max(10, round(self.timed * seconds / RUN_SECONDS) // divisor),
        )


def _route_inputs(seed: int, _prestore: int, warmup: int, timed: int) -> Inputs:
    stream = ZipfRangeWorkload(
        DOMAIN, warmup + timed, seed, pool_size=1000, exponent=1.1
    ).ranges()
    return Inputs([], stream[:warmup], stream[warmup:])


def _match_inputs(seed: int, prestore: int, warmup: int, timed: int) -> Inputs:
    stream = _uniform(warmup + timed, seed + 1)
    return Inputs(_uniform(prestore, seed), stream[:warmup], stream[warmup:])


def _sim_inputs(seed: int, _prestore: int, warmup: int, timed: int) -> Inputs:
    stream = _uniform(warmup + timed, seed)
    return Inputs([], stream[:warmup], stream[warmup:])


def _read_inputs(seed: int, prestore: int, warmup: int, timed: int) -> Inputs:
    pool = _uniform(prestore, seed)
    picks = derive_rng(seed, "e2e/live_read").integers(len(pool), size=warmup + timed)
    stream = [pool[int(i)] for i in picks]
    return Inputs(pool, stream[:warmup], stream[warmup:])


def _write_inputs(seed: int, _prestore: int, warmup: int, timed: int) -> Inputs:
    # Distinct ranges, so every query is a miss and stores.
    distinct = list(dict.fromkeys(_uniform(2 * (warmup + timed), seed)))
    stream = distinct[: warmup + timed]
    if len(stream) < warmup + timed:
        raise ValueError("domain too small for that many distinct ranges")
    return Inputs([], stream[:warmup], stream[warmup:])


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sync_route_10k", "sync", 0, 1500, 2400, ("lsh", "chord", "obs"),
            _route_inputs, lambda i, _s: SyncRig(10_000, i.prestore),
        ),
        Workload(
            "sync_match_1k", "sync", 12_000, 200, 1000, ("lsh", "storage"),
            _match_inputs, lambda i, _s: SyncRig(1_000, i.prestore),
        ),
        Workload(
            "sim_10k", "sim", 0, 300, 800, ("lsh", "chord", "sim"),
            _sim_inputs, lambda i, _s: SimRig(10_000),
        ),
        Workload(
            "live_read_8p", "live", 100, 100, 500, ("lsh", "wire"),
            _read_inputs, lambda i, s: LiveRig(s, False, i.prestore),
        ),
        Workload(
            "live_write_8p_durable", "live", 0, 30, 300, ("lsh", "wire", "wal"),
            _write_inputs, lambda i, s: LiveRig(s, True, i.prestore),
        ),
    )
}
