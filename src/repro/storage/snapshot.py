"""System snapshots: persist and restore the cache state as JSON.

Long experiments (and example sessions) warm the cache over thousands of
queries; snapshots let that state be saved and reloaded without replaying
the workload.  A snapshot captures the configuration and every stored
entry (identifier, descriptor, rows); loading rebuilds the system from the
same configuration — the hash functions and ring layout are deterministic
in the seed — and re-places each entry at its owner.

Two snapshot shapes share the entry-record format:

* the *system* snapshot (one file for a whole in-process simulation,
  placement recomputed on load), and
* the *peer* snapshot (one peer's store, written by the durability layer
  as the compaction target of its write-ahead log; placement is kept
  as-is because the live server reconciles ownership after restart).
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.config import SystemConfig
from repro.db.partition import Partition, PartitionDescriptor
from repro.errors import StorageError
from repro.ranges.domain import Domain
from repro.ranges.interval import IntRange
from repro.storage.store import PeerStore

if TYPE_CHECKING:
    from repro.core.system import RangeSelectionSystem

__all__ = [
    "snapshot_system",
    "restore_system",
    "save_system",
    "load_system",
    "snapshot_peer_store",
    "restore_peer_store",
    "save_peer_snapshot",
    "load_peer_snapshot",
]

_FORMAT_VERSION = 1
_PEER_FORMAT_VERSION = 1


def _entry_record(identifier: int, entry) -> dict:
    """One stored entry as a JSON-safe record (shared by both shapes)."""
    descriptor = entry.descriptor
    record: dict = {
        "identifier": identifier,
        "relation": descriptor.relation,
        "attribute": descriptor.attribute,
        "start": descriptor.range.start,
        "end": descriptor.range.end,
    }
    if entry.partition is not None:
        record["rows"] = [list(row) for row in entry.partition.rows]
    return record


def _descriptor_from_record(record: dict) -> PartitionDescriptor:
    return PartitionDescriptor(
        record["relation"],
        record["attribute"],
        IntRange(record["start"], record["end"]),
    )


def _partition_from_record(
    record: dict, descriptor: PartitionDescriptor
) -> Partition | None:
    if "rows" not in record:
        return None
    return Partition(
        descriptor=descriptor,
        rows=tuple(tuple(row) for row in record["rows"]),
    )


def _config_to_dict(config: SystemConfig) -> dict:
    raw = dataclasses.asdict(config)
    raw["domain"] = {
        "name": config.domain.name,
        "low": config.domain.low,
        "high": config.domain.high,
    }
    return raw


def _config_from_dict(raw: dict) -> SystemConfig:
    # Skip fields an older writer recorded that the config has since
    # dropped, so its snapshots still load.
    known = {field.name for field in dataclasses.fields(SystemConfig)}
    data = {key: value for key, value in raw.items() if key in known}
    domain = data.pop("domain")
    return SystemConfig(
        domain=Domain(domain["name"], domain["low"], domain["high"]), **data
    )


def snapshot_system(system: RangeSelectionSystem) -> dict:
    """The system's persistent state as a JSON-serializable dict."""
    entries = []
    for store in system.stores.values():
        for identifier, entry in store.entries():
            entries.append(_entry_record(identifier, entry))
    return {
        "format": _FORMAT_VERSION,
        "config": _config_to_dict(system.config),
        "entries": entries,
    }


def restore_system(snapshot: dict) -> RangeSelectionSystem:
    """Rebuild a system from a snapshot produced by :func:`snapshot_system`.

    Placement is *recomputed* from the configuration rather than trusted
    from the snapshot, so a snapshot can never violate the ownership
    invariant.  Duplicate placements of one descriptor (the ``l`` copies)
    deduplicate naturally through the store.
    """
    if snapshot.get("format") != _FORMAT_VERSION:
        raise StorageError(
            f"unsupported snapshot format {snapshot.get('format')!r}"
        )
    # Imported here: the peer-store half of this module is the WAL's
    # compaction format, loaded by every live peer, which runs no
    # in-process system.
    from repro.core.system import RangeSelectionSystem

    system = RangeSelectionSystem(_config_from_dict(snapshot["config"]))
    for record in snapshot["entries"]:
        descriptor = _descriptor_from_record(record)
        partition = _partition_from_record(record, descriptor)
        identifier = record["identifier"]
        owner = system.router.owner_of(system.place_identifier(identifier))
        system.stores[owner].store(identifier, descriptor, partition)
    return system


def save_system(system: RangeSelectionSystem, path: "str | Path") -> None:
    """Write a snapshot to a JSON file."""
    Path(path).write_text(
        json.dumps(snapshot_system(system), separators=(",", ":")),
        encoding="utf-8",
    )


def load_system(path: "str | Path") -> RangeSelectionSystem:
    """Read a snapshot file and restore the system."""
    return restore_system(json.loads(Path(path).read_text(encoding="utf-8")))


# ---------------------------------------------------------------------------
# Peer-store snapshots (the WAL compaction target)
# ---------------------------------------------------------------------------

def snapshot_peer_store(store: PeerStore, *, wal_seq: int = 0) -> dict:
    """One peer's store as a JSON-safe dict.

    Entry records extend the system-snapshot shape with ``primary`` and
    ``access_clock`` so a restart reconstructs replica ranks and LRU
    order exactly; ``wal_seq`` records the last WAL sequence number the
    snapshot covers, so replay can skip records it already contains.
    """
    entries = []
    for identifier, entry in store.entries():
        record = _entry_record(identifier, entry)
        record["primary"] = entry.primary
        record["access_clock"] = entry.access_clock
        entries.append(record)
    return {
        "format": _PEER_FORMAT_VERSION,
        "clock": store.clock,
        "wal_seq": wal_seq,
        "entries": entries,
    }


def restore_peer_store(snapshot: dict, store: PeerStore) -> int:
    """Apply a peer snapshot into ``store``; returns entries applied.

    Uses the replay primitive so clocks and ranks land exactly as
    snapshotted and nothing is re-journaled or evicted mid-restore.
    """
    if snapshot.get("format") != _PEER_FORMAT_VERSION:
        raise StorageError(
            f"unsupported peer snapshot format {snapshot.get('format')!r}"
        )
    applied = 0
    for record in snapshot.get("entries", []):
        descriptor = _descriptor_from_record(record)
        partition = _partition_from_record(record, descriptor)
        store.apply_store(
            int(record["identifier"]),
            descriptor,
            partition,
            bool(record.get("primary", True)),
            int(record.get("access_clock", 0)),
        )
        applied += 1
    store._clock = max(store._clock, int(snapshot.get("clock", 0)))
    return applied


def save_peer_snapshot(
    store: PeerStore, path: "str | Path", *, wal_seq: int = 0
) -> None:
    """Write a peer snapshot atomically (tmp file + rename).

    A crash mid-write leaves either the previous snapshot or none — never
    a torn one — so recovery can always trust a file that parses.
    """
    path = Path(path)
    body = json.dumps(
        snapshot_peer_store(store, wal_seq=wal_seq), separators=(",", ":")
    )
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(body)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_peer_snapshot(path: "str | Path") -> dict | None:
    """Read a peer snapshot; ``None`` when missing, torn, or corrupt.

    Recovery treats an unreadable snapshot as absent and falls back to
    pure WAL replay — a partial snapshot must never abort a restart.
    """
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (FileNotFoundError, OSError):
        return None
    try:
        snapshot = json.loads(raw)
    except ValueError:
        return None
    if not isinstance(snapshot, dict):
        return None
    if snapshot.get("format") != _PEER_FORMAT_VERSION:
        return None
    if not isinstance(snapshot.get("entries"), list):
        return None
    return snapshot
