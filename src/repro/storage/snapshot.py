"""The on-disk record of a stored entry, and the snapshots built from it.

One record describes one stored entry on disk: its key fields
``identifier, relation, attribute, start, end``, then ``primary`` and
``access_clock``, then ``rows`` when the entry keeps rows.
:func:`encode_entry` writes it and :func:`decode_entry` reads it back,
for every file this package keeps:

* a *peer* snapshot entry (one peer's store, the compaction target of
  its write-ahead log; placement is kept as-is because the live server
  reconciles ownership after restart) is the record on its own;
* a journal record (:mod:`repro.storage.wal`) is the record plus ``op``,
  ``via`` and the store's ``clock``; a remove carries the key fields only;
* a *system* snapshot entry (one file for a whole in-process simulation)
  is the key fields and rows: placement, and with it each copy's role,
  is recomputed on load.

Both snapshots reach the store through :meth:`PeerStore.replay`, the
same primitive journal replay uses, and every file is written through
:func:`write_atomic`.
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
from repro.ranges.interval import IntRange
from repro.rpc import wire
from repro.storage.store import PeerStore

if TYPE_CHECKING:
    from repro.core.system import RangeSelectionSystem

__all__ = [
    "encode_entry",
    "decode_entry",
    "write_atomic",
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


def encode_entry(
    identifier: int,
    descriptor: PartitionDescriptor,
    partition: Partition | None = None,
    primary: bool | None = None,
    access_clock: int = 0,
) -> dict:
    """One stored entry as its JSON-safe record.

    Without ``primary`` the record keeps the key fields and rows only:
    a remove names an entry, and a system snapshot recomputes roles.
    """
    bounds = descriptor.range
    record: dict = {
        "identifier": identifier,
        "relation": descriptor.relation,
        "attribute": descriptor.attribute,
        "start": bounds.start,
        "end": bounds.end,
        "primary": primary,
        "access_clock": access_clock,
    }
    if primary is None:
        del record["primary"], record["access_clock"]
    if partition is not None:
        record["rows"] = [list(row) for row in partition.rows]
    return record


def decode_entry(record: dict) -> dict:
    """Read any record :func:`encode_entry` wrote back as an op.

    The op has the shape the store's mutation hook emits and
    :meth:`PeerStore.replay` applies: ``op`` (a snapshot entry reads as
    ``"store"``), ``identifier`` and ``descriptor``; for a store also
    ``partition``, ``primary`` and ``access_clock``.  A journal record's
    ``via`` and ``clock`` come along.  Raises :class:`StorageError` for
    a record that is not an entry record.
    """
    try:
        descriptor = PartitionDescriptor(
            record["relation"],
            record["attribute"],
            IntRange(record["start"], record["end"]),
        )
        op = {
            "op": record.get("op", "store"),
            "identifier": int(record["identifier"]),
            "descriptor": descriptor,
        }
        if op["op"] not in ("store", "remove"):
            raise ValueError(f"unknown op {op['op']!r}")
        if "via" in record:
            op["via"] = record["via"]
        if op["op"] == "store":
            rows = record.get("rows")
            op["partition"] = None if rows is None else Partition(
                descriptor=descriptor, rows=tuple(tuple(row) for row in rows)
            )
            op["primary"] = bool(record.get("primary", True))
            op["access_clock"] = int(record.get("access_clock", 0))
            if "clock" in record:
                op["clock"] = int(record["clock"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"not an entry record ({exc!r})") from exc
    return op


def write_atomic(path: "str | Path", text: str) -> None:
    """Write ``text`` to ``path`` through a tmp file, flush, fsync and
    rename: a crash mid-write leaves the previous file or none, never a
    torn one, so a reader can trust any file that parses."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def snapshot_system(system: RangeSelectionSystem) -> dict:
    """The system's persistent state as a JSON-serializable dict."""
    return {
        "format": _FORMAT_VERSION,
        "config": wire.config_to_wire(system.config),
        "entries": [
            encode_entry(identifier, entry.descriptor, entry.partition)
            for store in system.stores.values()
            for identifier, entry in store.entries()
        ],
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

    # Skip fields an older writer recorded that the config has since
    # dropped, so its snapshots still load.
    known = {field.name for field in dataclasses.fields(SystemConfig)}
    system = RangeSelectionSystem(wire.config_from_wire(
        {key: value for key, value in snapshot["config"].items() if key in known}
    ))
    for op in map(decode_entry, snapshot["entries"]):
        identifier = op["identifier"]
        owner = system.router.owner_of(system.place_identifier(identifier))
        system.stores[owner].store(identifier, op["descriptor"], op["partition"])
    return system


def save_system(system: RangeSelectionSystem, path: "str | Path") -> None:
    """Write a snapshot to a JSON file (atomically)."""
    write_atomic(path, json.dumps(snapshot_system(system), separators=(",", ":")))


def load_system(path: "str | Path") -> RangeSelectionSystem:
    """Read a snapshot file and restore the system."""
    return restore_system(json.loads(Path(path).read_text(encoding="utf-8")))


# ---------------------------------------------------------------------------
# Peer-store snapshots (the WAL compaction target)
# ---------------------------------------------------------------------------

def snapshot_peer_store(store: PeerStore, *, wal_seq: int = 0) -> dict:
    """One peer's store as a JSON-safe dict.

    Entry records carry ``primary`` and ``access_clock`` so a restart
    reconstructs replica ranks and LRU order exactly; ``wal_seq`` records
    the last WAL sequence number the snapshot covers, so replay can skip
    records it already contains.
    """
    return {
        "format": _PEER_FORMAT_VERSION,
        "clock": store.clock,
        "wal_seq": wal_seq,
        "entries": [
            encode_entry(
                identifier, entry.descriptor, entry.partition,
                entry.primary, entry.access_clock,
            )
            for identifier, entry in store.entries()
        ],
    }


def restore_peer_store(snapshot: dict, store: PeerStore) -> int:
    """Apply a peer snapshot into ``store``; returns entries applied.

    Every entry is decoded before any is applied, then
    :meth:`PeerStore.replay` lands clocks and ranks exactly as
    snapshotted, re-journals nothing and evicts nothing.
    """
    if snapshot.get("format") != _PEER_FORMAT_VERSION:
        raise StorageError(
            f"unsupported peer snapshot format {snapshot.get('format')!r}"
        )
    ops = [decode_entry(record) for record in snapshot.get("entries", [])]
    return store.replay(ops, clock=int(snapshot.get("clock", 0)))


def save_peer_snapshot(
    store: PeerStore, path: "str | Path", *, wal_seq: int = 0
) -> None:
    """Write a peer snapshot atomically (:func:`write_atomic`)."""
    write_atomic(
        path,
        json.dumps(snapshot_peer_store(store, wal_seq=wal_seq), separators=(",", ":")),
    )


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
