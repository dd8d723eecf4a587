"""Tests for composite answers (Section 5.2's user-facing proposal)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.composite import compose_replies, query_composite
from repro.core.config import SystemConfig
from repro.core.system import MatchReply, RangeSelectionSystem
from repro.db.partition import PartitionDescriptor
from repro.ranges.interval import IntRange
from repro.ranges.rangeset import RangeSet
from repro.rpc.engine import ChainOutcome, LocatePhase


def reply(peer: int, identifier: int, start: int, end: int) -> MatchReply:
    descriptor = PartitionDescriptor("R", "value", IntRange(start, end))
    return MatchReply(peer, identifier, descriptor, 0.5)


def chain(identifier: int, answer: MatchReply | None) -> ChainOutcome:
    """One lookup chain; ``answer=None`` is a chain no replica answered."""
    return ChainOutcome(
        identifier=identifier,
        owner=answer.peer_id if answer is not None else 99,
        hops=1,
        route_ms=0.0,
        reply=answer,
        completed_ms=0.0,
        timed_out=answer is None,
    )


def locate_result(query: IntRange, replies: list[MatchReply]) -> LocatePhase:
    best = max(
        (r for r in replies if r.descriptor is not None),
        key=lambda r: r.score,
        default=None,
    )
    return LocatePhase(
        hashed_query=query,
        chains=tuple(chain(r.identifier, r) for r in replies),
        partial=False,
        best=best,
        started=0.0,
        locate_ms=0.0,
        route_ms=0.0,
        timeouts=0,
        failovers=0,
    )


class TestComposeReplies:
    def test_two_halves_cover_fully(self):
        query = IntRange(0, 99)
        located = locate_result(
            query, [reply(1, 10, 0, 49), reply(2, 20, 50, 120)]
        )
        answer = compose_replies(query, located)
        assert answer.complete
        assert answer.recall == 1.0
        assert answer.residual == RangeSet.empty()
        # Neither part alone covers the query (each covers half).
        assert answer.best_single_recall == pytest.approx(0.5)
        assert answer.gain_over_best_single == pytest.approx(0.5)

    def test_gap_reported_as_residual(self):
        query = IntRange(0, 99)
        located = locate_result(
            query, [reply(1, 10, 0, 29), reply(2, 20, 70, 99)]
        )
        answer = compose_replies(query, located)
        assert not answer.complete
        assert answer.residual == RangeSet.of((30, 69))
        assert answer.recall == pytest.approx(0.6)
        assert "missing" in answer.describe()

    def test_no_replies_means_zero_recall(self):
        query = IntRange(0, 9)
        located = locate_result(query, [MatchReply(5, 1, None, 0.0)])
        located = replace(located, chains=(*located.chains, chain(2, None)))
        answer = compose_replies(query, located)
        assert answer.recall == 0.0
        assert answer.residual == RangeSet.of((0, 9))
        # The empty bucket's peer answered; the unreachable chain's did not.
        assert answer.peers_contacted == 1

    def test_overlapping_parts_not_double_counted(self):
        query = IntRange(0, 99)
        located = locate_result(
            query, [reply(1, 10, 0, 60), reply(2, 20, 40, 99)]
        )
        answer = compose_replies(query, located)
        assert answer.recall == 1.0

    def test_describe_complete(self):
        query = IntRange(0, 9)
        located = locate_result(query, [reply(1, 10, 0, 9)])
        assert "fully covered" in compose_replies(query, located).describe()


class TestQueryComposite:
    def test_composite_never_below_best_single(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=80, seed=91))
        queries = [IntRange(i * 7 % 900, i * 7 % 900 + 60) for i in range(150)]
        for query in queries:
            answer = query_composite(system, query)
            assert answer.recall >= answer.best_single_recall - 1e-12

    def test_store_on_miss_still_happens(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=30, seed=92))
        query_composite(system, IntRange(100, 200))
        assert system.unique_partitions() == 1
        # An exact repeat is then complete.
        answer = query_composite(system, IntRange(100, 200))
        assert answer.complete

    def test_padding_override_applies(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=30, seed=93))
        query_composite(system, IntRange(100, 200), padding=0.2)
        stored = {
            entry.descriptor.range
            for store in system.stores.values()
            for _, entry in store.entries()
        }
        assert IntRange(100, 200).pad(0.2, 0, 1000) in stored
