"""Write-ahead log and crash-restart durability for one peer's store.

A live :class:`~repro.rpc.server.PeerServer` is in-memory; this module
makes it survive its own SIGKILL.  The contract is *commit before ack*:
every entry mutation (store, repair push, handoff, eviction) is written
to an append-only log as it happens, and the server commits the log —
one ``flush`` + ``fsync`` for everything written since the last — before
it replies to a request that caused one, so any write a client saw
acknowledged is on disk.  A crash loses only records nobody was told of.

On-disk layout under one ``--data-dir`` (one directory per peer)::

    wal.log        append-only journal, 4-byte BE length-prefixed JSON
    snapshot.json  compaction target (``storage.snapshot`` peer format)
    meta.json      SWIM incarnation persisted across restarts

A journal record is the entry record of :mod:`repro.storage.snapshot`
plus ``op``, ``via`` and the store's ``clock`` (a remove carries the key
fields only); replay reads it with the decoder snapshot entries go
through and applies it with :meth:`PeerStore.replay`, as a snapshot
restore does.  A journal in another record form — the wire-tag form
journals had before — does not replay: recovery raises
:class:`StorageError` naming the file before it applies anything.

The framing mirrors the wire protocol's: a torn tail — a SIGKILL
mid-append — is detected by an incomplete prefix, an incomplete body,
or a body that does not parse, and replay salvages every complete
record before it (the same policy as
:func:`repro.util.read_jsonl_tolerant` for flight-recorder JSONL).

Compaction folds the journal into an atomic-rename snapshot every
``compact_every`` committed records, behind the commit that got there.
The snapshot records the last WAL sequence number it covers; the
snapshot rename happens *before* the journal is truncated, so a crash
between the two leaves records the snapshot already contains — replay
skips any record with ``seq <= wal_seq`` and recovery stays idempotent.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from time import perf_counter
from typing import Callable

from repro.errors import StorageError
from repro.obs.log import get_logger
from repro.obs.registry import MetricsRegistry
from repro.rpc import wire
from repro.storage.snapshot import (
    decode_entry,
    encode_entry,
    load_peer_snapshot,
    restore_peer_store,
    save_peer_snapshot,
    write_atomic,
)
from repro.storage.store import PeerStore
from repro.util.tolerant import parse_json_record

logger = get_logger("storage.wal")

__all__ = [
    "WalWriter",
    "read_wal_tolerant",
    "PeerDurability",
    "encode_wal_record",
]

_LENGTH = struct.Struct("!I")

#: Upper bound on one journal record's JSON body; same rationale (and
#: size) as the wire frame cap — a corrupt prefix must not allocate
#: blindly during replay.
MAX_RECORD_BYTES = wire.MAX_FRAME_BYTES


def encode_wal_record(op: dict) -> dict:
    """A mutation-hook op as its journal record: the entry record
    (:func:`encode_entry`) plus ``op``, ``via`` and, for a store, the
    store's ``clock``.  :func:`decode_entry` reads it back."""
    if op["op"] == "store":
        record = encode_entry(
            op["identifier"], op["descriptor"], op.get("partition"),
            bool(op["primary"]), int(op["access_clock"]),
        )
        record["clock"] = int(op["clock"])
    else:
        record = encode_entry(op["identifier"], op["descriptor"])
    record["op"] = op["op"]
    record["via"] = op.get("via", "store")
    return record


class WalWriter:
    """Appends length-prefixed JSON records to the journal.

    :meth:`write` frames a record into the file buffer, :meth:`sync` makes
    what was written durable and :meth:`append` is one of each.
    Benchmarks and tests may pass ``fsync=False`` to measure/exercise the
    encode and framing path without paying for disk flushes.
    """

    def __init__(self, path: "str | Path", *, fsync: bool = True, seq: int = 0):
        self.path = Path(path)
        self.fsync = fsync
        self.seq = seq
        self._handle = open(self.path, "ab")
        self.appended = 0

    def write(self, record: dict) -> int:
        """Buffer one record; returns its assigned sequence number."""
        self.seq += 1
        body = json.dumps(
            {"seq": self.seq, **record}, separators=(",", ":")
        ).encode("utf-8")
        if len(body) > MAX_RECORD_BYTES:
            raise StorageError(
                f"WAL record of {len(body)} bytes exceeds MAX_RECORD_BYTES"
            )
        self._handle.write(_LENGTH.pack(len(body)) + body)
        self.appended += 1
        return self.seq

    def sync(self) -> None:
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def append(self, record: dict) -> int:
        """One durable append: :meth:`write`, then :meth:`sync`."""
        seq = self.write(record)
        self.sync()
        return seq

    def truncate(self) -> None:
        """Drop every journaled record (after a successful compaction)."""
        self._handle.seek(0)
        self._handle.truncate()
        self.sync()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()


def read_wal_tolerant(path: "str | Path") -> tuple[list[dict], int, int]:
    """Replay the journal, salvaging every complete record.

    Returns ``(records, torn, valid_bytes)`` where ``torn`` counts
    undecodable records and ``valid_bytes`` is the length of the readable
    prefix.  The journal is append-only, so the first torn record ends
    the readable region — framing is lost past it — exactly like a
    truncated final JSONL line in the flight recorder.  Writers resuming
    after a crash must truncate the file to ``valid_bytes`` before
    appending, or the records they add land beyond the torn region and
    become unreachable on the *next* replay.  A missing file reads as
    empty.
    """
    records: list[dict] = []
    torn = 0
    try:
        raw = Path(path).read_bytes()
    except (FileNotFoundError, OSError):
        return records, torn, 0
    offset = 0
    total = len(raw)
    while offset < total:
        if offset + _LENGTH.size > total:
            torn += 1  # torn tail: partial length prefix
            break
        (length,) = _LENGTH.unpack_from(raw, offset)
        if length > MAX_RECORD_BYTES or offset + _LENGTH.size + length > total:
            torn += 1  # torn tail: body never completed (or corrupt prefix)
            break
        body = raw[offset + _LENGTH.size : offset + _LENGTH.size + length]
        record = parse_json_record(body)
        if record is None or "seq" not in record or "op" not in record:
            torn += 1  # corrupt record: framing can't be trusted past it
            break
        records.append(record)
        offset += _LENGTH.size + length
    return records, torn, offset


class PeerDurability:
    """One peer's durable state: journal + snapshot + membership meta.

    Lifecycle on a server with ``--data-dir``::

        durability = PeerDurability(data_dir)
        stats = durability.recover(store)   # replay snapshot + WAL
        durability.attach(store)            # journal mutations from now on
        ...
        durability.close()

    ``recover`` must run before ``attach`` — replay goes through the
    store's replay primitives precisely so it cannot re-journal itself.
    """

    SNAPSHOT_NAME = "snapshot.json"
    WAL_NAME = "wal.log"
    META_NAME = "meta.json"

    def __init__(
        self,
        data_dir: "str | Path",
        *,
        fsync: bool = True,
        compact_every: int = 512,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if compact_every <= 0:
            raise StorageError("compact_every must be positive")
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.compact_every = compact_every
        self._store: PeerStore | None = None
        self._writer: WalWriter | None = None
        self._uncommitted = 0  # records written since the last commit
        self._since_compact = 0
        self._seq_floor = 0
        self._valid_wal_bytes: int | None = None
        self.compactions = 0
        self._registry = registry if registry is not None else MetricsRegistry()
        registry = self._registry
        self._fsync_ms = registry.histogram(
            "wal.fsync_ms", help="flush + fsync time of one commit",
            edges=(0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 1000),
        )
        self._records_per_commit = registry.histogram(
            "wal.records_per_commit", help="records one commit made durable"
        )

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    @property
    def snapshot_path(self) -> Path:
        return self.data_dir / self.SNAPSHOT_NAME

    @property
    def wal_path(self) -> Path:
        return self.data_dir / self.WAL_NAME

    @property
    def meta_path(self) -> Path:
        return self.data_dir / self.META_NAME

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self, store: PeerStore) -> dict:
        """Rebuild ``store`` from snapshot + WAL; returns replay stats,
        also counted as the registry's ``restore.*`` series.

        Tolerates a missing or partial snapshot (falls back to pure WAL
        replay) and a torn WAL tail (salvages every complete record).
        Every record the snapshot already covers is skipped by sequence
        number, so recovering after a crash mid-compaction applies each
        mutation exactly once.  A journal record that is not an entry
        record raises :class:`StorageError` naming the journal, before
        anything is applied.
        """
        snapshot = load_peer_snapshot(self.snapshot_path)
        wal_seq = int(snapshot.get("wal_seq", 0)) if snapshot is not None else 0
        records, torn, valid_bytes = read_wal_tolerant(self.wal_path)
        self._valid_wal_bytes = valid_bytes
        self._seq_floor = max([wal_seq] + [int(r["seq"]) for r in records])
        # Decode the whole journal before applying anything: a record
        # that is not an entry record fails the restart, not half of it.
        ops = []
        for record in records:
            if int(record["seq"]) <= wal_seq:
                continue  # already folded into the snapshot
            try:
                ops.append(decode_entry(record))
            except StorageError as exc:
                raise StorageError(
                    f"{self.wal_path}: record {record['seq']}: {exc}"
                ) from exc
        snapshot_entries = (
            restore_peer_store(snapshot, store) if snapshot is not None else 0
        )
        replayed = store.replay(ops)
        stats = {
            "snapshot_entries": snapshot_entries,
            "wal_records": replayed,
            "torn_records": torn,
            "entries": store.partition_count,
        }
        for name, help in (
            ("entries", "entries rebuilt from disk at startup"),
            ("wal_records", "WAL records replayed at startup"),
            ("torn_records", "torn WAL tail records skipped at startup"),
        ):
            self._registry.counter(f"restore.{name}", help=help).inc(stats[name])
        if stats["entries"] or replayed:
            logger.info(
                "%s: restored %d entrie(s) (%d snapshot, %d WAL record(s), %d torn)",
                self.data_dir, stats["entries"], snapshot_entries, replayed, torn,
            )
        return stats

    # ------------------------------------------------------------------
    # Journaling
    # ------------------------------------------------------------------

    def attach(
        self, store: PeerStore, schedule: Callable[[Callable], None] | None = None
    ) -> None:
        """Start journaling ``store``'s mutations (call after recover).

        A mutation is only written; ``schedule(commit)``, called after
        each, decides when :meth:`commit` makes it durable — at once by
        default, once per event-loop tick under a server — and whoever
        schedules must hold acknowledgements back until then.

        If recovery found a torn tail, the journal is truncated back to
        its readable prefix first — appending past torn bytes would put
        every new record beyond the point where the next replay stops.
        """
        if self._valid_wal_bytes is None and self.wal_path.exists():
            _, _, self._valid_wal_bytes = read_wal_tolerant(self.wal_path)
        if self._valid_wal_bytes is not None:
            try:
                if self.wal_path.stat().st_size > self._valid_wal_bytes:
                    with open(self.wal_path, "r+b") as handle:
                        handle.truncate(self._valid_wal_bytes)
                        handle.flush()
                        if self.fsync:
                            os.fsync(handle.fileno())
            except FileNotFoundError:
                pass
        self._store = store
        self._writer = WalWriter(
            self.wal_path, fsync=self.fsync, seq=self._seq_floor
        )
        self._schedule = schedule or (lambda commit: commit())
        store.mutation_hook = self._on_mutation

    def _on_mutation(self, op: dict) -> None:
        assert self._writer is not None
        self._writer.write(encode_wal_record(op))
        self._uncommitted += 1
        self._schedule(self.commit)

    def commit(self) -> None:
        """The commit point: one ``flush`` + ``fsync`` for every record
        written since the last, then the compaction check."""
        if self._writer is None or not self._uncommitted:
            return
        started = perf_counter()
        self._writer.sync()
        self._fsync_ms.observe((perf_counter() - started) * 1000.0)
        self._records_per_commit.observe(self._uncommitted)
        self._since_compact += self._uncommitted
        self._uncommitted = 0
        if self._since_compact >= self.compact_every:
            self.compact()

    def compact(self) -> None:
        """Fold the journal into the snapshot and truncate it.

        Snapshot first (atomic rename carrying the covered ``wal_seq``),
        truncate second: a crash in between merely leaves records the
        snapshot already covers, which replay skips by sequence number.
        """
        if self._store is None or self._writer is None:
            return
        save_peer_snapshot(
            self._store, self.snapshot_path, wal_seq=self._writer.seq
        )
        self._writer.truncate()
        self._since_compact = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Membership metadata
    # ------------------------------------------------------------------

    def load_incarnation(self) -> int | None:
        """The SWIM incarnation persisted by a previous run, if any."""
        try:
            raw = self.meta_path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            return None
        doc = parse_json_record(raw)
        if doc is None or not isinstance(doc.get("incarnation"), int):
            return None
        return doc["incarnation"]

    def store_incarnation(self, incarnation: int) -> None:
        """Persist the peer's current SWIM incarnation (atomic rename).

        Written on every self-incarnation bump; a restarting peer resumes
        at ``persisted + 1`` so its rejoin beats any tombstone the
        cluster holds for its previous life.
        """
        write_atomic(self.meta_path, json.dumps({"incarnation": incarnation}))

    def close(self) -> None:
        """Detach the hook, commit what is buffered, close the journal."""
        if self._store is not None and self._store.mutation_hook is self._on_mutation:
            self._store.mutation_hook = None
        if self._writer is not None:
            self.commit()
            self._writer.close()
        self._store = None
