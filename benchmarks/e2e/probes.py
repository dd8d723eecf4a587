"""Isolated probes: each layer's public function on fixed inputs.

Every probe is min-of-rounds (the least-disturbed round is the closest to
the code's own cost) over inputs that do not depend on ``--seed``.  They
complement the traced run: a probe has no tracing overhead and no
neighbours, so it answers "did this function get cheaper" exactly, while
the trace answers "does that matter to a query".

Probes are grouped by layer; a workload runs the groups whose layers it
stresses (``Workload.probes``) and reports the rest as 0.
"""

from __future__ import annotations

import asyncio
import json
import shutil
from pathlib import Path
from time import perf_counter
from typing import Callable

from repro.chord.ring import ChordRing
from repro.core.config import SystemConfig
from repro.core.matcher import matcher_by_name
from repro.db.partition import PartitionDescriptor
from repro.lsh import DomainMinHashIndex, LSHIdentifierScheme, family_for_domain
from repro.net.transport import TrafficStats
from repro.obs.registry import MetricsRegistry
from repro.ranges.interval import IntRange
from repro.rpc import wire
from repro.sim.kernel import Simulator
from repro.storage.bucket import Bucket, StoredEntry
from repro.storage.store import PeerStore
from repro.storage.wal import WalWriter, encode_wal_record, read_wal_tolerant
from repro.util.rng import derive_rng

from workloads import CLIENT_TIMEOUT_MS, DOMAIN, Sandbox, _uniform

__all__ = ["GROUPS", "run_probes"]

ROUNDS = 5
CONFIG = SystemConfig()
RELATION, ATTRIBUTE = "R", "value"


def best_of(fn: Callable[[], object], calls: int, rounds: int = ROUNDS) -> float:
    """Seconds per call: the fastest of ``rounds`` loops of ``calls``."""
    best = float("inf")
    for _ in range(rounds):
        start = perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, perf_counter() - start)
    return best / calls


def cycle(fn: Callable, items: list) -> Callable[[], object]:
    """``fn`` applied to the next of ``items`` on every call."""
    state = [0]
    count = len(items)

    def step():
        state[0] = index = (state[0] + 1) % count
        return fn(items[index])

    return step


def _scheme() -> LSHIdentifierScheme:
    return LSHIdentifierScheme.from_family(
        family_for_domain(CONFIG.family, DOMAIN),
        l=CONFIG.l, k=CONFIG.k, seed=CONFIG.seed, id_bits=CONFIG.id_bits,
    )


def probe_lsh(_sandbox: Sandbox) -> dict[str, float]:
    scheme = _scheme()
    ranges = _uniform(256, 0)
    start = perf_counter()
    index = DomainMinHashIndex(scheme, DOMAIN)
    build_s = perf_counter() - start
    for _ in range(2):
        start = perf_counter()
        DomainMinHashIndex(scheme, DOMAIN)
        build_s = min(build_s, perf_counter() - start)
    return {
        "probe.lsh_identifiers_accel_us": best_of(cycle(index.identifiers, ranges), 2000) * 1e6,
        "probe.lsh_identifiers_naive_us": best_of(cycle(scheme.identifiers, ranges), 200) * 1e6,
        "probe.lsh_index_build_ms": build_s * 1e3,
    }


def _ring(peers: int) -> tuple[ChordRing, float]:
    start = perf_counter()
    ring = ChordRing(m=CONFIG.id_bits, successor_list_size=4)
    ring.add_nodes(peers)
    ring.build()
    return ring, perf_counter() - start


def _lookup_us(ring: ChordRing) -> float:
    rng = derive_rng(0, "e2e/probe/lookup")
    ids = ring.node_ids
    pairs = [
        (int(rng.integers(0, 2**CONFIG.id_bits)), ids[int(rng.integers(len(ids)))])
        for _ in range(512)
    ]
    return best_of(cycle(lambda p: ring.lookup(p[0], start_id=p[1]), pairs), 2000) * 1e6


def probe_chord(_sandbox: Sandbox) -> dict[str, float]:
    small, _ = _ring(1_000)
    big, build_s = _ring(10_000)
    build_s = min(build_s, _ring(10_000)[1])
    return {
        "probe.chord_lookup_1k_us": _lookup_us(small),
        "probe.chord_lookup_10k_us": _lookup_us(big),
        "probe.chord_build_10k_ms": build_s * 1e3,
    }


def _bucket(entries: int) -> Bucket:
    bucket = Bucket(1)
    for r in list(dict.fromkeys(_uniform(2 * entries, 1)))[:entries]:
        bucket.add(StoredEntry(PartitionDescriptor(RELATION, ATTRIBUTE, r)))
    return bucket


def probe_storage(_sandbox: Sandbox) -> dict[str, float]:
    score = matcher_by_name(CONFIG.matcher).score
    queries = _uniform(64, 2)
    out = {}
    for entries, calls in ((10, 2000), (1000, 50)):
        bucket = _bucket(entries)
        out[f"probe.bucket_match_{entries}_us"] = best_of(
            cycle(lambda q: bucket.best_match(q, RELATION, ATTRIBUTE, score), queries),
            calls,
        ) * 1e6
    descriptors = [
        PartitionDescriptor(RELATION, ATTRIBUTE, r)
        for r in dict.fromkeys(_uniform(4000, 3))
    ]
    best = float("inf")
    for _ in range(ROUNDS):
        store = PeerStore(1)
        start = perf_counter()
        for i, descriptor in enumerate(descriptors):
            store.store(i & 63, descriptor)
        best = min(best, perf_counter() - start)
    out["probe.store_insert_us"] = best / len(descriptors) * 1e6
    return out


def probe_obs(_sandbox: Sandbox) -> dict[str, float]:
    counter = MetricsRegistry().counter("probe.counter")
    stats = TrafficStats()

    def facade_incr():
        stats.messages += 1

    return {
        "probe.registry_inc_us": best_of(counter.inc, 20_000) * 1e6,
        "probe.facade_incr_us": best_of(facade_incr, 20_000) * 1e6,
    }


def probe_sim(_sandbox: Sandbox) -> dict[str, float]:
    events = 20_000
    best = float("inf")
    for _ in range(ROUNDS):
        sim = Simulator()
        start = perf_counter()
        for i in range(events):
            sim.call_at(float(i % 97), _noop)
        sim.run()
        best = min(best, perf_counter() - start)
    return {"probe.kernel_events_per_s": events / best}


def _noop() -> None:
    return None


def _frame(kind: str, payload: object) -> bytes:
    """A request frame body exactly as ``wire.call`` builds it."""
    document = {"id": 0, "kind": kind, "sender": 1, "payload": wire.encode_value(payload)}
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


def probe_wire(sandbox: Sandbox) -> dict[str, float]:
    query = IntRange(200, 600)
    descriptor = PartitionDescriptor(RELATION, ATTRIBUTE, query)
    match = (123456789, query, RELATION, ATTRIBUTE)
    store = (123456789, descriptor, None, True)
    encoded = json.loads(_frame("match-request", match))["payload"]
    out = {
        "probe.wire_encode_match_us": best_of(lambda: _frame("match-request", match), 5000) * 1e6,
        "probe.wire_decode_match_us": best_of(lambda: wire.decode_value(encoded), 5000) * 1e6,
        "probe.wire_frame_match_bytes": 4 + len(_frame("match-request", match)),
        "probe.wire_frame_store_bytes": 4 + len(_frame("store-request", store)),
    }
    cluster = sandbox.open_cluster(1, 1, durable=False)
    loop = asyncio.new_event_loop()
    try:
        host, port = cluster.bootstrap_endpoint()
        out["probe.wire_call_ping_us"] = best_of(
            lambda: loop.run_until_complete(
                wire.call(host, port, "ping", timeout_ms=CLIENT_TIMEOUT_MS)
            ),
            200,
        ) * 1e6
    finally:
        loop.close()
        sandbox.close_cluster(cluster)
    return out


def probe_wal(sandbox: Sandbox) -> dict[str, float]:
    record = encode_wal_record({
        "op": "store", "via": "store", "identifier": 123456789,
        "descriptor": PartitionDescriptor(RELATION, ATTRIBUTE, IntRange(200, 600)),
        "partition": None, "primary": True, "access_clock": 42, "clock": 42,
    })
    directory = Path(sandbox.scratch_dir("probe-wal-"))
    try:
        out = {}
        for name, fsync, calls in (("nofsync", False, 2000), ("fsync", True, 100)):
            writer = WalWriter(directory / f"{name}.log", fsync=fsync)
            try:
                out[f"probe.wal_append_{name}_us"] = best_of(
                    lambda: writer.append(record), calls
                ) * 1e6
            finally:
                writer.close()
        path = directory / "nofsync.log"
        appended = 2000 * ROUNDS
        replay_s = best_of(lambda: read_wal_tolerant(path), 1, rounds=3)
        records, torn, _valid = read_wal_tolerant(path)
        if len(records) != appended or torn:
            raise RuntimeError(
                f"WAL probe read back {len(records)} of {appended} records ({torn} torn)"
            )
        out["probe.wal_replay_records_per_s"] = appended / replay_s
        return out
    finally:
        shutil.rmtree(directory, ignore_errors=True)


GROUPS: dict[str, Callable[[Sandbox], dict[str, float]]] = {
    "lsh": probe_lsh,
    "chord": probe_chord,
    "storage": probe_storage,
    "obs": probe_obs,
    "sim": probe_sim,
    "wire": probe_wire,
    "wal": probe_wal,
}


def run_probes(groups: tuple[str, ...], sandbox: Sandbox) -> dict[str, float]:
    """The probe metrics of ``groups``, by metric name."""
    out: dict[str, float] = {}
    for group in groups:
        out.update(GROUPS[group](sandbox))
    return out
