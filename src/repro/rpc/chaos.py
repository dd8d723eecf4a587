"""A deterministic chaos harness for the live cluster.

The self-healing machinery of :mod:`repro.rpc.server` is only credible
if it survives faults it did not choose.  This module injects them in a
*reproducible* way: a :class:`ChaosSchedule` is a seeded, pre-computed
list of :class:`ChaosEvent` — kill, pause/resume, delay, drop, two-sided
partition/heal — and a :class:`ChaosRunner` applies it to a
:class:`~repro.rpc.cluster.LocalCluster` at the scheduled offsets.  The
same ``(seed, peers, spec)`` triple always yields the same schedule, so a
failing chaos run replays exactly.

Faults come in two flavours mirroring the harness primitives:

- **process faults** (``kill``, ``pause``/``resume``) are delivered as
  signals by the cluster manager;
- **network faults** (``delay``, ``drop``, ``partition``/``heal``) are
  installed *inside* the target servers via the ``chaos-set`` RPC — no
  ``tc``, no root, works anywhere the cluster runs.

The CLI spec grammar (``repro cluster --chaos``) is a comma list of
``action=count`` terms, e.g. ``kill=1,pause=1,partition=1``; counts say
how many fault events of that kind to schedule, targets and timing come
from the seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.obs.log import get_logger

if TYPE_CHECKING:
    from repro.rpc.cluster import LocalCluster

__all__ = ["ChaosEvent", "ChaosSchedule", "ChaosRunner", "ACTIONS"]

logger = get_logger("rpc.chaos")

#: Fault kinds a schedule may contain, in the order waves play out.
ACTIONS = (
    "kill", "pause", "resume", "delay", "drop", "partition", "heal", "restart",
)

#: A schedule's timing, in seconds: waves start at 0 and are
#: ``WAVE_GAP_S`` apart; a paused peer resumes, a partition heals and a
#: killed peer restarts this long after its wave.
WAVE_GAP_S = 4.0
PAUSE_HOLD_S = 3.0
PARTITION_HOLD_S = 6.0
RESTART_HOLD_S = 3.0


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault: when, what, to whom."""

    at_s: float
    action: str
    #: Target peer addresses.  kill/pause/resume/delay/drop target one
    #: peer (``targets[0]``); partition splits ``targets`` off from the
    #: rest of the cluster; heal ignores targets.
    targets: tuple[str, ...] = ()
    #: Action parameter: added ms for ``delay``, probability for ``drop``.
    amount: float = 0.0

    def describe(self) -> str:
        body = f"t+{self.at_s:.1f}s {self.action}"
        if self.targets:
            body += " " + ",".join(self.targets)
        if self.action in ("delay", "drop"):
            body += f" ({self.amount:g})"
        return body


@dataclass
class ChaosSchedule:
    """A seeded, ordered fault plan over a named set of peers."""

    seed: int
    events: list[ChaosEvent] = field(default_factory=list)

    @staticmethod
    def parse_spec(spec: str) -> dict[str, int]:
        """Parse a ``--chaos`` spec (``kill=1,pause=1``) into counts."""
        counts: dict[str, int] = {}
        for term in spec.split(","):
            term = term.strip()
            if not term:
                continue
            action, _, count = term.partition("=")
            action = action.strip()
            if action not in (
                "kill", "pause", "delay", "drop", "partition", "restart"
            ):
                raise ReproError(
                    f"unknown chaos action {action!r} "
                    "(use kill/pause/delay/drop/partition/restart)"
                )
            try:
                number = int(count) if count.strip() else 1
            except ValueError as exc:
                raise ReproError(
                    f"chaos count for {action!r} must be an integer"
                ) from exc
            if number <= 0:
                raise ReproError(f"chaos count in {term!r} must be positive")
            counts[action] = counts.get(action, 0) + number
        if not counts:
            raise ReproError("empty chaos spec")
        return counts

    @classmethod
    def generate(
        cls,
        seed: int,
        peers: list[str],
        counts: dict[str, int],
        *,
        protect: tuple[str, ...] = (),
    ) -> "ChaosSchedule":
        """Lay the requested faults out as seeded, ordered waves.

        Each action kind becomes one wave, waves are :data:`WAVE_GAP_S`
        apart; paired actions (pause→resume, partition→heal) schedule
        their own recovery.  ``protect`` names peers (typically the
        bootstrap) that process faults must not target.  Every choice —
        victims, split sides, amounts — comes from ``random.Random(seed)``
        so the schedule is a pure function of its arguments.
        """
        rng = random.Random(seed)
        victims = [address for address in peers if address not in protect]
        if not victims:
            raise ReproError("chaos needs at least one unprotected peer")
        events: list[ChaosEvent] = []
        at = 0.0
        killed: set[str] = set()
        for action in ("delay", "drop", "pause", "kill", "restart", "partition"):
            for _ in range(counts.get(action, 0)):
                pool = [a for a in victims if a not in killed]
                if not pool:
                    break
                if action == "kill":
                    target = rng.choice(pool)
                    killed.add(target)
                    events.append(ChaosEvent(at, "kill", (target,)))
                elif action == "pause":
                    target = rng.choice(pool)
                    events.append(ChaosEvent(at, "pause", (target,)))
                    events.append(
                        ChaosEvent(at + PAUSE_HOLD_S, "resume", (target,))
                    )
                elif action == "delay":
                    target = rng.choice(pool)
                    amount = float(rng.randrange(50, 250))
                    events.append(
                        ChaosEvent(at, "delay", (target,), amount=amount)
                    )
                elif action == "drop":
                    target = rng.choice(pool)
                    amount = 0.1 + 0.2 * rng.random()
                    events.append(
                        ChaosEvent(at, "drop", (target,), amount=amount)
                    )
                elif action == "restart":
                    # A crash-restart pair: SIGKILL now, bring the same
                    # address back from its data dir after a hold.  The
                    # target is *not* marked killed — it returns.
                    target = rng.choice(pool)
                    events.append(ChaosEvent(at, "kill", (target,)))
                    events.append(
                        ChaosEvent(at + RESTART_HOLD_S, "restart", (target,))
                    )
                elif action == "partition":
                    # Split off a minority side (1..n//2 peers).
                    side_size = max(1, min(len(pool) // 2, 2))
                    side = tuple(sorted(rng.sample(pool, side_size)))
                    events.append(ChaosEvent(at, "partition", side))
                    events.append(ChaosEvent(at + PARTITION_HOLD_S, "heal"))
                at += WAVE_GAP_S
        events.sort(key=lambda event: (event.at_s, event.action))
        return cls(seed=seed, events=events)

    def describe(self) -> str:
        return "; ".join(event.describe() for event in self.events)


class ChaosRunner:
    """Applies a :class:`ChaosSchedule` to a live :class:`LocalCluster`."""

    def __init__(self, cluster: LocalCluster, schedule: ChaosSchedule) -> None:
        self.cluster = cluster
        self.schedule = schedule
        self.applied: list[ChaosEvent] = []

    def run(self) -> list[ChaosEvent]:
        """Play the whole schedule in real time, sleeping between events."""
        started = time.monotonic()
        for event in self.schedule.events:
            delay = event.at_s - (time.monotonic() - started)
            if delay > 0:
                time.sleep(delay)
            self.apply(event)
        return self.applied

    def apply(self, event: ChaosEvent) -> None:
        """Deliver one fault to the cluster (skips already-dead targets)."""
        cluster, action = self.cluster, event.action
        target = event.targets[0] if event.targets else None
        try:
            if action == "partition":
                side = [a for a in event.targets if cluster.alive(a)]
                rest = [
                    a
                    for a in cluster.endpoints
                    if a not in event.targets and cluster.alive(a)
                ]
                if side and rest:
                    cluster.partition(side, rest)
            elif action == "heal":
                cluster.heal()
            elif action == "restart":
                if not cluster.alive(target):
                    cluster.restart(target)
            elif action not in ("kill", "pause", "resume", "delay", "drop"):
                raise ReproError(f"unknown chaos action {action!r}")
            elif not cluster.alive(target):
                pass  # a fault for a peer that is gone already
            elif action == "delay":
                cluster.chaos_set(target, delay_ms=event.amount, seed=self.schedule.seed)
            elif action == "drop":
                cluster.chaos_set(target, drop=event.amount, seed=self.schedule.seed)
            else:
                getattr(cluster, action)(target)  # kill, pause or resume
        except ReproError as exc:
            # A fault that cannot land (target just died on its own, say)
            # must not abort the run — chaos is best-effort by nature.
            logger.warning("chaos event %s failed: %s", event.describe(), exc)
            return
        logger.info("chaos: %s", event.describe())
        self.applied.append(event)
