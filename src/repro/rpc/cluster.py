"""Spawn and manage a localhost cluster of ``repro serve`` processes.

:class:`LocalCluster` is the process-level harness behind
``repro cluster``, the CI live-cluster smoke job and
``examples/live_cluster.py``: it starts one OS process per peer
(``python -m repro serve``), waits for each peer's ready line before
starting the next (so joins — and the data hand-offs they trigger — are
strictly ordered), and can remove peers both ways the paper's fault model
distinguishes: a graceful ``leave`` (RPC; the peer hands its data off
first) and an abrupt :meth:`kill` (SIGKILL; recovery is entirely the
replica chain's and anti-entropy repair's problem).

Every wait is bounded, so a wedged peer fails the harness instead of
hanging it (the CI job adds its own outer ``timeout`` as a backstop).
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core.config import SystemConfig
from repro.errors import ReproError
from repro.obs.log import get_logger
from repro.rpc import wire
from repro.rpc.client import ClusterClient
from repro.rpc.server import READY_PREFIX

__all__ = ["LocalCluster", "ClusterError"]

logger = get_logger("rpc.cluster")


class ClusterError(ReproError):
    """A peer process failed to start, answer, or stop in time."""


def _src_path() -> str:
    """The import root of this package, for child PYTHONPATHs."""
    import repro

    return str(Path(repro.__file__).resolve().parent.parent)


class LocalCluster:
    """``peers`` live peer processes on 127.0.0.1, ports picked by the OS."""

    def __init__(
        self,
        peers: int,
        config: SystemConfig | None = None,
        *,
        host: str = "127.0.0.1",
        startup_timeout_s: float = 30.0,
        swim_interval_ms: float = 1_000.0,
        suspect_timeout_ms: float | None = None,
        repair_interval_ms: float = 1_000.0,
        spawn_attempts: int = 3,
        flight_dir: str | None = None,
        durable: bool = False,
        data_root: str | None = None,
        compact_every: int | None = None,
    ) -> None:
        if peers < 1:
            raise ClusterError("a cluster needs at least one peer")
        self.n_peers = peers
        # n_peers is meaningless for a live cluster's config (membership
        # is discovered, not declared), but keep it consistent anyway.
        self.config = (
            config if config is not None else SystemConfig(n_peers=peers)
        )
        self.host = host
        self.startup_timeout_s = startup_timeout_s
        self.swim_interval_ms = swim_interval_ms
        self.suspect_timeout_ms = suspect_timeout_ms
        self.repair_interval_ms = repair_interval_ms
        self.spawn_attempts = max(1, spawn_attempts)
        #: Directory every peer dumps its flight recorder into on an
        #: incident (breaker open, SWIM eviction); ``None`` disables.
        self.flight_dir = flight_dir
        #: With durability on, every peer gets ``<data_root>/<address>``
        #: as its ``--data-dir``.  A root this harness created itself
        #: (durable=True with no explicit data_root) is deleted again on
        #: :meth:`shutdown` — drills must not leak per-node state.
        self.compact_every = compact_every
        self._owns_data_root = False
        if data_root is None and durable:
            data_root = tempfile.mkdtemp(prefix="repro-cluster-")
            self._owns_data_root = True
        self.data_root = data_root
        self.processes: dict[str, subprocess.Popen] = {}
        self.endpoints: dict[str, tuple[str, int]] = {}
        #: Peers currently SIGSTOP'd (for teardown: a stopped process
        #: never handles SIGTERM, so shutdown SIGCONTs them first).
        self.paused: set[str] = set()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "LocalCluster":
        """Spawn all peers; the first is the bootstrap."""
        for index in range(self.n_peers):
            self.spawn(f"peer-{index}")
        return self

    def spawn(self, address: str) -> tuple[str, int]:
        """Start one peer process and wait for its ready line.

        A child that dies before its ready line — the classic cause being
        an ``EADDRINUSE`` race on the ephemeral port it was handed — is
        retried with a fresh OS-picked port up to ``spawn_attempts``
        times, so one unlucky bind does not fail the whole cluster start.
        """
        if address in self.processes:
            raise ClusterError(f"peer {address!r} already running")
        command = [
            sys.executable, "-m", "repro", "serve",
            "--address", address,
            "--host", self.host,
            "--port", "0",
            "--config-json", json.dumps(wire.config_to_wire(self.config)),
            "--swim-interval", str(self.swim_interval_ms),
            "--repair-interval", str(self.repair_interval_ms),
        ]
        if self.suspect_timeout_ms is not None:
            command += ["--suspect-timeout", str(self.suspect_timeout_ms)]
        if self.flight_dir is not None:
            command += ["--flight-dir", self.flight_dir]
        if self.data_root is not None:
            command += ["--data-dir", os.path.join(self.data_root, address)]
            if self.compact_every is not None:
                command += ["--compact-every", str(self.compact_every)]
        if self.endpoints:
            try:
                boot_host, boot_port = self.bootstrap_endpoint()
            except ClusterError:
                # Every known peer is dead — a cold full-cluster restart.
                # The first peer back rebuilds the ring from its disk
                # state and becomes the new bootstrap for the rest.
                pass
            else:
                command += ["--bootstrap", f"{boot_host}:{boot_port}"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            path
            for path in (_src_path(), env.get("PYTHONPATH", ""))
            if path
        )
        failure: ClusterError | None = None
        for attempt in range(self.spawn_attempts):
            process = subprocess.Popen(
                command,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env=env,
                text=True,
            )
            try:
                endpoint = self._await_ready(address, process)
            except ClusterError as exc:
                process.kill()
                process.wait()
                if process.stdout is not None:
                    process.stdout.close()
                failure = exc
                # Only an early exit is worth retrying (a bind race); a
                # peer that is running but silent stays broken.
                if "exited with" not in str(exc):
                    raise
                logger.warning(
                    "peer %s spawn attempt %d failed (%s); retrying",
                    address, attempt + 1, exc,
                )
                continue
            self.processes[address] = process
            self.endpoints[address] = endpoint
            logger.info("peer %s up at %s:%d", address, *endpoint)
            return endpoint
        assert failure is not None
        raise failure

    def _await_ready(
        self, address: str, process: subprocess.Popen
    ) -> tuple[str, int]:
        assert process.stdout is not None
        deadline = time.monotonic() + self.startup_timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ClusterError(f"peer {address!r} not ready in time")
            if process.poll() is not None:
                raise ClusterError(
                    f"peer {address!r} exited with {process.returncode} "
                    "before becoming ready"
                )
            readable, _, _ = select.select([process.stdout], [], [], remaining)
            if not readable:
                continue
            line = process.stdout.readline()
            if not line:
                raise ClusterError(f"peer {address!r} closed stdout early")
            if not line.startswith(READY_PREFIX):
                continue
            fields = dict(
                token.split("=", 1)
                for token in line.strip().split()
                if "=" in token
            )
            return (fields["host"], int(fields["port"]))

    def bootstrap_endpoint(self) -> tuple[str, int]:
        """The endpoint of the longest-lived peer still running."""
        for address, endpoint in self.endpoints.items():
            process = self.processes.get(address)
            if process is not None and process.poll() is None:
                return endpoint
        raise ClusterError("no live peer to bootstrap from")

    def client(self, **kwargs) -> ClusterClient:
        """A :class:`~repro.rpc.client.ClusterClient` on this cluster."""
        return ClusterClient(self.bootstrap_endpoint(), **kwargs)

    def call(
        self, address: str, kind: str, payload=None, *, timeout_ms: float = 10_000.0
    ):
        """One control RPC straight at a peer, on a connection of its own
        (no client, no mirrored membership: the harness's own view)."""
        host, port = self.endpoints[address]
        return asyncio.run(
            wire.call(host, port, kind, payload, timeout_ms=timeout_ms)
        )

    # -- faults ------------------------------------------------------------

    def kill(self, address: str) -> None:
        """Abrupt fail-stop: SIGKILL, no hand-off, no goodbye."""
        process = self.processes[address]
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)
        self.paused.discard(address)
        logger.info("peer %s killed", address)

    def restart(self, address: str) -> tuple[str, int]:
        """Bring a killed peer back under its old address.

        The process record is recycled and :meth:`spawn` runs again with
        the same ``--data-dir`` (when the cluster is durable), so the
        peer recovers its store from disk, resumes its persisted SWIM
        incarnation, and rejoins the ring — under a fresh OS-picked port,
        which the rejoin gossips to every mirror.
        """
        process = self.processes.get(address)
        if process is not None and process.poll() is None:
            raise ClusterError(f"peer {address!r} is still running")
        if process is not None:
            if process.stdout is not None:
                process.stdout.close()
            del self.processes[address]
        self.endpoints.pop(address, None)
        endpoint = self.spawn(address)
        logger.info("peer %s restarted at %s:%d", address, *endpoint)
        return endpoint

    def pause(self, address: str) -> None:
        """Freeze a peer with SIGSTOP — alive but unresponsive, the
        classic GC-pause/overload look that SWIM must *suspect* without
        evicting too eagerly."""
        process = self.processes[address]
        process.send_signal(signal.SIGSTOP)
        self.paused.add(address)
        logger.info("peer %s paused (SIGSTOP)", address)

    def resume(self, address: str) -> None:
        """Thaw a SIGSTOP'd peer; it refutes any suspicion and rejoins."""
        process = self.processes[address]
        process.send_signal(signal.SIGCONT)
        self.paused.discard(address)
        logger.info("peer %s resumed (SIGCONT)", address)

    def chaos_set(self, address: str, **settings) -> dict:
        """Install fault-injection settings on one peer (``chaos-set``).

        Recognised keys: ``delay_ms`` (added service delay), ``drop``
        (probability a request is dropped without a reply), ``blocked``
        (peer addresses whose requests are silently discarded) and
        ``seed`` (reseeds the peer's drop RNG for determinism).
        """
        return self.call(address, "chaos-set", settings)

    def partition(self, group_a: list[str], group_b: list[str]) -> None:
        """Install a two-sided network partition between peer groups.

        Each side blocks the other's addresses, so requests die in both
        directions — exactly the symmetric split SWIM must resolve by
        each side evicting the other (and healing on :meth:`heal`).
        """
        for address in group_a:
            if self.alive(address):
                self.chaos_set(address, blocked=list(group_b))
        for address in group_b:
            if self.alive(address):
                self.chaos_set(address, blocked=list(group_a))
        logger.info(
            "partition installed: %s | %s",
            ",".join(group_a), ",".join(group_b),
        )

    def heal(self) -> None:
        """Lift every chaos setting on every live peer."""
        for address in list(self.endpoints):
            if self.alive(address) and address not in self.paused:
                try:
                    self.chaos_set(
                        address, delay_ms=0.0, drop=0.0, blocked=[]
                    )
                except ReproError:
                    logger.warning("heal: peer %s unreachable", address)
        logger.info("chaos settings cleared")

    def leave(self, address: str) -> int:
        """Graceful departure via the ``leave`` RPC; waits for exit."""
        moved = self.call(address, "leave", timeout_ms=30_000.0)
        self.processes[address].wait(timeout=10)
        logger.info("peer %s left, handed off %d copie(s)", address, moved)
        return int(moved)

    def alive(self, address: str) -> bool:
        process = self.processes.get(address)
        return process is not None and process.poll() is None

    # -- teardown ----------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every remaining peer; escalate to SIGKILL if needed.

        A data root this harness created itself is removed afterwards —
        even when stopping a peer fails — so chaos and restart drills
        never leak per-node state into the temp directory.
        """
        try:
            # A SIGSTOP'd process queues SIGTERM until continued — thaw
            # everything first so termination can actually be delivered.
            for address in list(self.paused):
                process = self.processes.get(address)
                if process is not None and process.poll() is None:
                    process.send_signal(signal.SIGCONT)
            self.paused.clear()
            for address, process in self.processes.items():
                if process.poll() is None:
                    process.terminate()
            deadline = time.monotonic() + 10.0
            for process in self.processes.values():
                remaining = max(0.1, deadline - time.monotonic())
                try:
                    process.wait(timeout=remaining)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
            for process in self.processes.values():
                if process.stdout is not None:
                    process.stdout.close()
        finally:
            if self._owns_data_root and self.data_root is not None:
                shutil.rmtree(self.data_root, ignore_errors=True)

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
