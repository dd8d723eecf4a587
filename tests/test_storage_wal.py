"""Durability tests: WAL framing, snapshot + WAL recovery, replay fidelity.

The contract under test is ISSUE 10's tentpole: every acknowledged
mutation is journaled before the ack, and rebuilding a store from
snapshot + WAL yields a state *identical* to the in-memory one —
including LRU access clocks and primary/replica ranks — tolerating a
torn journal tail and a missing or partial snapshot.
"""

from __future__ import annotations

import json
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.matcher import JaccardMatcher
from repro.db.partition import Partition, PartitionDescriptor
from repro.errors import StorageError
from repro.ranges.interval import IntRange
from repro.storage.snapshot import (
    decode_entry,
    load_peer_snapshot,
    restore_peer_store,
    save_peer_snapshot,
    snapshot_peer_store,
)
from repro.storage.store import LRUEviction, PeerStore
from repro.storage.wal import (
    PeerDurability,
    WalWriter,
    encode_wal_record,
    read_wal_tolerant,
)
from repro.util.tolerant import parse_json_record, read_jsonl_tolerant


def desc(start: int, end: int, relation: str = "R") -> PartitionDescriptor:
    return PartitionDescriptor(relation, "value", IntRange(start, end))


def store_op(identifier, descriptor, *, partition=None, primary=True,
             access_clock=1, clock=1, via="store"):
    return {
        "op": "store", "via": via, "identifier": identifier,
        "descriptor": descriptor, "partition": partition,
        "primary": primary, "access_clock": access_clock, "clock": clock,
    }


def state_of(store: PeerStore) -> tuple[dict, int]:
    """Everything durability promises to preserve, comparably."""
    entries = {}
    for identifier, entry in store.entries():
        rows = None if entry.partition is None else entry.partition.rows
        entries[(identifier, entry.descriptor)] = (
            entry.primary, entry.access_clock, rows,
        )
    return entries, store.clock


class TestWalCodec:
    def test_store_record_round_trips(self):
        descriptor = desc(10, 20)
        partition = Partition(descriptor=descriptor, rows=((11, "a"), (15, "b")))
        op = store_op(
            7, descriptor, partition=partition, primary=False,
            access_clock=42, clock=99, via="repair-push",
        )
        decoded = decode_entry(encode_wal_record(op))
        assert decoded["op"] == "store"
        assert decoded["via"] == "repair-push"
        assert decoded["identifier"] == 7
        assert decoded["descriptor"] == descriptor
        assert decoded["partition"].rows == partition.rows
        assert decoded["primary"] is False
        assert decoded["access_clock"] == 42
        assert decoded["clock"] == 99

    def test_remove_record_round_trips(self):
        op = {
            "op": "remove", "via": "handoff",
            "identifier": 3, "descriptor": desc(0, 5),
        }
        record = encode_wal_record(op)
        assert record == {  # the key fields only
            "op": "remove", "via": "handoff", "identifier": 3,
            "relation": "R", "attribute": "value", "start": 0, "end": 5,
        }
        decoded = decode_entry(record)
        assert decoded == {
            "op": "remove", "via": "handoff",
            "identifier": 3, "descriptor": desc(0, 5),
        }

    def test_record_is_json_serialisable(self):
        record = encode_wal_record(store_op(1, desc(0, 9)))
        assert json.loads(json.dumps(record)) == record

    def test_snapshot_entry_is_the_journal_store_record(self):
        """One record: every snapshot entry equals the entry fields of
        that entry's journal store record, and both decode through
        ``decode_entry`` to the same op."""
        journal: list[dict] = []
        store = PeerStore(17)
        store.mutation_hook = journal.append
        store.store(1, desc(0, 10))                                   # descriptor only
        store.store(2, desc(20, 30), Partition(descriptor=desc(20, 30),
                                               rows=((21, "a"), (25, "b"))))
        store.store(3, desc(40, 50), primary=False)                   # replica
        snapshot = json.loads(json.dumps(snapshot_peer_store(store)))
        records = [json.loads(json.dumps(encode_wal_record(op))) for op in journal]
        assert len(snapshot["entries"]) == len(records) == 3
        for entry, record in zip(snapshot["entries"], records):
            assert entry == {
                key: value for key, value in record.items()
                if key not in ("op", "via", "clock")
            }
            from_journal = decode_entry(record)
            assert (from_journal.pop("via"), from_journal.pop("clock")) == (
                "store", record["clock"],
            )
            assert decode_entry(entry) == from_journal
        assert "rows" not in snapshot["entries"][0]
        assert snapshot["entries"][2]["primary"] is False


class TestWalFraming:
    def test_append_and_replay(self, tmp_path):
        path = tmp_path / "wal.log"
        writer = WalWriter(path, fsync=False)
        assert writer.append(encode_wal_record(store_op(1, desc(0, 9)))) == 1
        assert writer.append(
            encode_wal_record({"op": "remove", "via": "evict",
                               "identifier": 1, "descriptor": desc(0, 9)})
        ) == 2
        writer.close()
        records, torn, valid = read_wal_tolerant(path)
        assert torn == 0
        assert [record["seq"] for record in records] == [1, 2]
        assert valid == path.stat().st_size
        assert decode_entry(records[0])["descriptor"] == desc(0, 9)

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_wal_tolerant(tmp_path / "absent.log") == ([], 0, 0)

    def test_torn_tail_salvages_complete_records(self, tmp_path):
        path = tmp_path / "wal.log"
        writer = WalWriter(path, fsync=False)
        for i in range(3):
            writer.append(encode_wal_record(store_op(i, desc(i, i + 5))))
        writer.close()
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(size - 3)  # SIGKILL mid-append
        records, torn, valid = read_wal_tolerant(path)
        assert [record["seq"] for record in records] == [1, 2]
        assert torn == 1
        assert valid < size - 3

    def test_partial_length_prefix_is_torn(self, tmp_path):
        path = tmp_path / "wal.log"
        writer = WalWriter(path, fsync=False)
        writer.append(encode_wal_record(store_op(1, desc(0, 9))))
        writer.close()
        valid_size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00")  # 2 of 4 prefix bytes made it
        records, torn, valid = read_wal_tolerant(path)
        assert len(records) == 1 and torn == 1
        assert valid == valid_size

    def test_corrupt_body_ends_readable_region(self, tmp_path):
        path = tmp_path / "wal.log"
        writer = WalWriter(path, fsync=False)
        writer.append(encode_wal_record(store_op(1, desc(0, 9))))
        writer.close()
        with open(path, "ab") as handle:
            garbage = b"not json at all!"
            handle.write(struct.pack("!I", len(garbage)) + garbage)
        # A record that frames but does not parse cannot be trusted —
        # nor can anything after it.
        more = WalWriter(path, fsync=False, seq=1)
        more.append(encode_wal_record(store_op(2, desc(10, 19))))
        more.close()
        records, torn, _ = read_wal_tolerant(path)
        assert [record["seq"] for record in records] == [1]
        assert torn == 1

    def test_oversized_record_refused(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.storage.wal.MAX_RECORD_BYTES", 64)
        writer = WalWriter(tmp_path / "wal.log", fsync=False)
        with pytest.raises(StorageError):
            writer.append(encode_wal_record(store_op(1, desc(0, 10 ** 6))))
        writer.close()

    def test_truncate_drops_all_records(self, tmp_path):
        path = tmp_path / "wal.log"
        writer = WalWriter(path, fsync=False)
        writer.append(encode_wal_record(store_op(1, desc(0, 9))))
        writer.truncate()
        writer.close()
        assert read_wal_tolerant(path) == ([], 0, 0)


class TestPeerSnapshot:
    def populated(self) -> PeerStore:
        store = PeerStore(17)
        store.store(1, desc(0, 10), Partition(descriptor=desc(0, 10),
                                              rows=((1,), (2,))))
        store.store(2, desc(20, 30), primary=False)
        return store

    def test_round_trip_preserves_state(self):
        original = self.populated()
        restored = PeerStore(17)
        count = restore_peer_store(snapshot_peer_store(original), restored)
        assert count == 2
        assert state_of(restored) == state_of(original)

    def test_file_round_trip_carries_wal_seq(self, tmp_path):
        path = tmp_path / "snapshot.json"
        save_peer_snapshot(self.populated(), path, wal_seq=41)
        snapshot = load_peer_snapshot(path)
        assert snapshot is not None and snapshot["wal_seq"] == 41

    def test_missing_file_loads_none(self, tmp_path):
        assert load_peer_snapshot(tmp_path / "absent.json") is None

    def test_partial_snapshot_loads_none(self, tmp_path):
        path = tmp_path / "snapshot.json"
        save_peer_snapshot(self.populated(), path)
        raw = path.read_text(encoding="utf-8")
        path.write_text(raw[: len(raw) // 2], encoding="utf-8")  # torn write
        assert load_peer_snapshot(path) is None

    def test_wrong_format_rejected_on_restore(self):
        with pytest.raises(StorageError):
            restore_peer_store({"format": 99, "entries": []}, PeerStore(1))


class TestRecovery:
    def run_ops(self, store: PeerStore) -> None:
        for i in range(5):
            partition = Partition(descriptor=desc(i * 10, i * 10 + 9),
                                  rows=((i,),)) if i % 2 == 0 else None
            store.store(i, desc(i * 10, i * 10 + 9), partition,
                        primary=(i % 2 == 0))
        store.store(1, desc(10, 19))  # duplicate re-store promotes
        store.remove(3, desc(30, 39), via="handoff")

    def recovered(self, data_dir) -> tuple[PeerStore, dict]:
        store = PeerStore(17)
        stats = PeerDurability(data_dir, fsync=False).recover(store)
        return store, stats

    def test_pure_wal_recovery(self, tmp_path):
        live = PeerStore(17)
        durability = PeerDurability(tmp_path, fsync=False)
        durability.attach(live)
        self.run_ops(live)
        durability.close()
        store, stats = self.recovered(tmp_path)
        assert state_of(store) == state_of(live)
        assert stats["snapshot_entries"] == 0
        assert stats["wal_records"] == 7
        assert stats["torn_records"] == 0

    def test_snapshot_plus_wal_recovery(self, tmp_path):
        live = PeerStore(17)
        durability = PeerDurability(tmp_path, fsync=False, compact_every=3)
        durability.attach(live)
        self.run_ops(live)
        durability.close()
        assert durability.compactions >= 1
        store, stats = self.recovered(tmp_path)
        assert state_of(store) == state_of(live)
        assert stats["snapshot_entries"] > 0
        # Compaction folded most records away; only the tail replays.
        assert stats["wal_records"] < 7

    def test_torn_tail_loses_only_the_final_record(self, tmp_path):
        live = PeerStore(17)
        durability = PeerDurability(tmp_path, fsync=False)
        durability.attach(live)
        for i in range(5):
            live.store(i, desc(i * 10, i * 10 + 9))
        durability.close()
        wal = Path(tmp_path) / PeerDurability.WAL_NAME
        with open(wal, "r+b") as handle:
            handle.truncate(wal.stat().st_size - 3)
        store, stats = self.recovered(tmp_path)
        assert stats["torn_records"] == 1
        assert stats["entries"] == 4  # the unacked final store is gone
        assert sorted(store.identifiers()) == [0, 1, 2, 3]

    def test_attach_repairs_torn_tail_before_appending(self, tmp_path):
        # Records appended after a torn region would be unreachable on
        # the *next* replay; attach must truncate the tail first.
        first = PeerStore(17)
        durability = PeerDurability(tmp_path, fsync=False)
        durability.attach(first)
        first.store(1, desc(0, 9))
        first.store(2, desc(10, 19))
        durability.close()
        wal = Path(tmp_path) / PeerDurability.WAL_NAME
        with open(wal, "r+b") as handle:
            handle.truncate(wal.stat().st_size - 2)
        second = PeerStore(17)
        durability = PeerDurability(tmp_path, fsync=False)
        durability.recover(second)
        durability.attach(second)
        second.store(3, desc(20, 29))  # journaled after the repair
        durability.close()
        store, stats = self.recovered(tmp_path)
        assert stats["torn_records"] == 0
        assert sorted(store.identifiers()) == [1, 3]

    def test_partial_snapshot_falls_back_to_wal(self, tmp_path):
        live = PeerStore(17)
        durability = PeerDurability(tmp_path, fsync=False)
        durability.attach(live)
        self.run_ops(live)
        durability.close()
        snapshot = Path(tmp_path) / PeerDurability.SNAPSHOT_NAME
        snapshot.write_text('{"format": 1, "entr', encoding="utf-8")
        store, stats = self.recovered(tmp_path)
        assert stats["snapshot_entries"] == 0
        assert state_of(store) == state_of(live)

    def test_crash_between_snapshot_and_truncate_is_idempotent(
        self, tmp_path, monkeypatch
    ):
        live = PeerStore(17)
        durability = PeerDurability(tmp_path, fsync=False)
        durability.attach(live)
        for i in range(6):
            live.store(i, desc(i * 10, i * 10 + 9))
        # Snapshot lands, journal truncation "crashes": the WAL keeps
        # records the snapshot already covers.
        monkeypatch.setattr(durability._writer, "truncate", lambda: None)
        durability.compact()
        live.store(99, desc(990, 999))
        durability.close()
        store, stats = self.recovered(tmp_path)
        assert state_of(store) == state_of(live)
        assert stats["snapshot_entries"] == 6
        assert stats["wal_records"] == 1  # seq <= wal_seq skipped

    def test_a_wire_tag_journal_record_is_refused_naming_the_file(self, tmp_path):
        # The record form journals had before they shared the snapshot's
        # entry record: descriptors behind the network codec's tags.
        writer = WalWriter(tmp_path / PeerDurability.WAL_NAME, fsync=False)
        writer.append(encode_wal_record(store_op(1, desc(0, 9))))
        writer.append({
            "op": "store", "via": "store", "identifier": 2,
            "descriptor": {"$desc": ["R", "value", 10, 19]},
            "primary": True, "access_clock": 2, "clock": 2,
        })
        writer.append(encode_wal_record(store_op(3, desc(20, 29))))
        writer.close()
        store = PeerStore(17)
        with pytest.raises(StorageError, match=PeerDurability.WAL_NAME):
            PeerDurability(tmp_path, fsync=False).recover(store)
        # Neither part of the journal nor the records around it replayed.
        assert state_of(store) == ({}, 0)

    def test_empty_data_dir_recovers_empty(self, tmp_path):
        store, stats = self.recovered(tmp_path)
        assert stats == {
            "snapshot_entries": 0, "wal_records": 0,
            "torn_records": 0, "entries": 0,
        }
        assert store.partition_count == 0

    def test_incarnation_round_trips(self, tmp_path):
        durability = PeerDurability(tmp_path, fsync=False)
        assert durability.load_incarnation() is None
        durability.store_incarnation(7)
        assert PeerDurability(tmp_path, fsync=False).load_incarnation() == 7

    def test_torn_meta_reads_as_absent(self, tmp_path):
        durability = PeerDurability(tmp_path, fsync=False)
        durability.meta_path.write_text('{"incarn', encoding="utf-8")
        assert durability.load_incarnation() is None

    def test_compact_every_must_be_positive(self, tmp_path):
        with pytest.raises(StorageError):
            PeerDurability(tmp_path, compact_every=0)


class TestHookIsObservational:
    """No ``--data-dir`` must mean byte-identical store behavior; the
    hook, when attached, must change nothing the caller can observe."""

    OPS = [
        ("store", 1, (0, 10), True),
        ("store", 2, (20, 30), False),
        ("store", 1, (0, 10), True),     # duplicate
        ("store", 3, (40, 50), True),
        ("store", 4, (60, 70), False),
        ("store", 5, (80, 90), True),    # overflows LRU capacity
        ("remove", 2, (20, 30), None),
        ("remove", 9, (0, 1), None),     # absent: no-op, no record
    ]

    def apply(self, store: PeerStore) -> list:
        outcomes = []
        for kind, identifier, (start, end), primary in self.OPS:
            if kind == "store":
                outcomes.append(
                    store.store(identifier, desc(start, end), primary=primary)
                )
            else:
                outcomes.append(store.remove(identifier, desc(start, end)))
        return outcomes

    def test_hooked_store_behaves_like_plain_store(self):
        plain = PeerStore(3, LRUEviction(4))
        hooked = PeerStore(3, LRUEviction(4))
        journal: list[dict] = []
        hooked.mutation_hook = journal.append
        assert self.apply(hooked) == self.apply(plain)
        assert state_of(hooked) == state_of(plain)
        # Evictions are journaled, absent removes are not.
        assert any(op["op"] == "remove" and op["via"] == "evict"
                   for op in journal)
        assert not any(op["identifier"] == 9 for op in journal)

    def test_default_store_has_no_hook(self):
        assert PeerStore(1).mutation_hook is None

    def test_a_served_match_is_journaled_under_lru_only(self):
        score = JaccardMatcher().score
        for eviction, refreshes in ((LRUEviction(8), 1), (None, 0)):
            store = PeerStore(3, eviction)
            journal: list[dict] = []
            store.mutation_hook = journal.append
            store.store(1, desc(0, 10))
            mutations = store.mutations
            found = store.best_match_in_bucket(1, IntRange(0, 10), "R", "value", score)
            assert found is not None
            store.best_match_local(IntRange(0, 10), "R", "value", score)
            access = [op for op in journal if op["via"] == "access"]
            assert len(access) == 2 * refreshes
            assert all(op["access_clock"] == op["clock"] for op in access)
            # A refresh is not a placement change: the repair round's
            # idle skip must not see it.
            assert store.mutations == mutations


# One durable lifetime: identifiers collide (duplicate re-stores), roles
# mix and flip both ways, served matches refresh LRU clocks, capacity
# forces LRU evictions, and handoffs delete entries.
op_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),          # identifier
        st.integers(min_value=0, max_value=80),         # range start
        st.integers(min_value=1, max_value=40),         # range width
        st.booleans(),                                  # primary
        st.sampled_from(["store", "repair-push", "handoff", "role", "match"]),
    ),
    min_size=1,
    max_size=40,
)


MATCH_SCORE = JaccardMatcher().score


@given(op_lists)
# A served match refreshes [0,10]'s LRU clock; a restarted peer must see
# that refresh, or it evicts in a different order.
@example([(1, 0, 10, True, "store"), (1, 5, 10, True, "store"),
          (2, 20, 10, True, "store"), (1, 0, 10, True, "match"),
          (2, 25, 10, True, "store")])
@settings(max_examples=30, deadline=None)
def test_wal_replay_reconstructs_store_exactly(ops):
    """Replaying a randomized op sequence through the WAL reconstructs a
    state identical to the in-memory store, including LRU access clocks
    and primary/replica ranks."""
    with tempfile.TemporaryDirectory() as data_dir:
        live = PeerStore(7, LRUEviction(8))
        durability = PeerDurability(data_dir, fsync=False, compact_every=9)
        durability.attach(live)
        for identifier, start, width, primary, kind in ops:
            descriptor = desc(start, start + width)
            if kind == "handoff":
                live.remove(identifier, descriptor, via="handoff")
            elif kind == "role":
                live.set_primary(identifier, descriptor, primary)
            elif kind == "match":
                live.best_match_in_bucket(
                    identifier, descriptor.range, "R", "value", MATCH_SCORE
                )
            else:
                partition = (
                    Partition(descriptor=descriptor, rows=((start,),))
                    if primary else None
                )
                live.store(identifier, descriptor, partition,
                           primary=primary, via=kind)
        durability.close()
        recovered = PeerStore(7, LRUEviction(8))
        PeerDurability(data_dir, fsync=False).recover(recovered)
        assert state_of(recovered) == state_of(live)


class TestTolerantReaders:
    def test_parse_json_record_accepts_objects_only(self):
        assert parse_json_record('{"a": 1}') == {"a": 1}
        assert parse_json_record(b'{"a": 1}') == {"a": 1}
        assert parse_json_record('{"a": 1') is None        # truncated
        assert parse_json_record("[1, 2]") is None         # not an object
        assert parse_json_record("42") is None
        assert parse_json_record(b"\xff\xfe{}") is None    # bad utf-8

    def test_read_jsonl_tolerant_skips_torn_final_line(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n{"c": ', encoding="utf-8")
        records, skipped = read_jsonl_tolerant(str(path))
        assert records == [{"a": 1}, {"b": 2}]
        assert skipped == 1

    def test_flight_recorder_reader_is_the_shared_one(self):
        # The extraction must leave the historical import path working.
        from repro.obs.distributed import read_jsonl_tolerant as from_obs

        assert from_obs is read_jsonl_tolerant


class TestCommitBeforeAck:
    """Group commit: mutations are written as they happen and made
    durable by ``commit``; what a crash may lose is exactly what was
    never committed, hence never acknowledged."""

    @staticmethod
    def deferred(tmp_path, **options) -> tuple[PeerStore, PeerDurability, list]:
        live = PeerStore(17)
        durability = PeerDurability(tmp_path / "live", fsync=False, **options)
        scheduled: list = []
        durability.attach(live, scheduled.append)
        return live, durability, scheduled

    @staticmethod
    def crash(tmp_path) -> PeerStore:
        """What a process killed right now would come back with: the
        data dir as the OS has it, buffered bytes gone."""
        image = tmp_path / f"crash-{len(list(tmp_path.iterdir()))}"
        shutil.copytree(tmp_path / "live", image)
        recovered = PeerStore(17)
        PeerDurability(image, fsync=False).recover(recovered)
        return recovered

    def test_write_buffers_and_sync_makes_durable(self, tmp_path):
        path = tmp_path / "wal.log"
        writer = WalWriter(path, fsync=False)
        assert writer.write(encode_wal_record(store_op(1, desc(0, 9)))) == 1
        assert writer.write(encode_wal_record(store_op(2, desc(10, 19)))) == 2
        assert read_wal_tolerant(path)[0] == []
        writer.sync()
        assert [r["seq"] for r in read_wal_tolerant(path)[0]] == [1, 2]
        assert writer.append(encode_wal_record(store_op(3, desc(20, 29)))) == 3
        assert [r["seq"] for r in read_wal_tolerant(path)[0]] == [1, 2, 3]
        writer.close()

    def test_default_schedule_commits_every_record_at_once(self, tmp_path):
        live = PeerStore(17)
        durability = PeerDurability(tmp_path, fsync=False)
        durability.attach(live)
        live.store(1, desc(0, 9))
        assert len(read_wal_tolerant(durability.wal_path)[0]) == 1
        durability.close()

    def test_the_scheduler_is_handed_commit_after_every_record(self, tmp_path):
        live, durability, scheduled = self.deferred(tmp_path)
        for i in range(3):
            live.store(i, desc(i * 10, i * 10 + 9))
        assert scheduled == [durability.commit] * 3
        durability.close()

    def test_crash_between_write_and_commit_loses_unacked_records_only(self, tmp_path):
        live, durability, _ = self.deferred(tmp_path)
        for i in range(3):
            live.store(i, desc(i * 10, i * 10 + 9))
        durability.commit()  # the ack point of these three
        acked = state_of(live)
        live.store(7, desc(70, 79))
        live.remove(0, desc(0, 9), via="handoff")
        assert state_of(self.crash(tmp_path)) == acked
        # A tail torn mid-flush changes nothing: it is salvaged around.
        with open(durability.wal_path, "ab") as handle:
            handle.write(struct.pack("!I", 200) + b'{"seq":4,"op":"st')
        assert state_of(self.crash(tmp_path)) == acked
        durability.close()

    def test_close_commits_what_is_still_buffered(self, tmp_path):
        live, durability, _ = self.deferred(tmp_path)
        for i in range(4):
            live.store(i, desc(i * 10, i * 10 + 9))
        assert state_of(self.crash(tmp_path)) == ({}, 0)
        durability.close()
        assert state_of(self.crash(tmp_path)) == state_of(live)

    def test_compaction_waits_for_the_commit(self, tmp_path):
        live, durability, _ = self.deferred(tmp_path, compact_every=3)
        for i in range(5):
            live.store(i, desc(i * 10, i * 10 + 9))
        assert durability.compactions == 0 and not durability.snapshot_path.exists()
        durability.commit()
        assert durability.compactions == 1
        # Snapshot first, covering all five; the journal is empty again.
        assert load_peer_snapshot(durability.snapshot_path)["wal_seq"] == 5
        assert read_wal_tolerant(durability.wal_path)[0] == []
        assert state_of(self.crash(tmp_path)) == state_of(live)
        durability.close()

    def test_commit_metrics_count_records_and_fsyncs(self, tmp_path):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        live = PeerStore(17)
        durability = PeerDurability(tmp_path, fsync=False, registry=registry)
        scheduled: list = []
        durability.attach(live, scheduled.append)
        for i in range(3):
            live.store(i, desc(i * 10, i * 10 + 9))
        durability.commit()
        durability.commit()  # nothing new: not a commit
        live.store(9, desc(90, 99))
        durability.close()
        per_commit = registry.histogram("wal.records_per_commit")
        assert (per_commit.count(), per_commit.sum()) == (2, 4.0)
        assert registry.histogram("wal.fsync_ms").count() == 2
