"""Spawn and manage a localhost cluster of ``repro serve`` processes.

:class:`LocalCluster` is the process-level harness behind
``repro cluster``, the CI live-cluster smoke job and
``examples/live_cluster.py``: it starts one OS process per peer
(``repro serve``, forked from the cluster's pre-imported
:mod:`~repro.rpc.launcher`) — the bootstrap alone, then all the others at
once, returning when every peer's member view lists every peer (the
processes boot side by side; the joins, and the data hand-offs they
trigger, stay ordered: the bootstrap serves one at a time) — and can
remove peers both ways the paper's fault model distinguishes: a graceful
``leave`` (RPC; the peer hands its data off first) and an abrupt
:meth:`kill` (SIGKILL; recovery is entirely the replica chain's and
anti-entropy repair's problem).

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

from repro.core.config import SystemConfig
from repro.errors import ReproError
from repro.obs.log import get_logger
from repro.rpc import wire
from repro.rpc.client import ClusterClient
from repro.rpc.drills import views_complete, wait_for
from repro.rpc.launcher import ForkedPeer, Launcher, LaunchError
from repro.rpc.server import READY_PREFIX

__all__ = ["LocalCluster", "ClusterError"]

logger = get_logger("rpc.cluster")

_READY = READY_PREFIX.encode()


class ClusterError(ReproError):
    """A peer process failed to start, answer, or stop in time."""


def _reap(process: ForkedPeer) -> int:
    """Kill a child that never became a peer; returns its exit status."""
    process.kill()
    status = process.wait()
    if process.stdout is not None:
        process.stdout.close()
    return status


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
        self.processes: dict[str, ForkedPeer] = {}
        self.endpoints: dict[str, tuple[str, int]] = {}
        #: Peers currently SIGSTOP'd (for teardown: a stopped process
        #: never handles SIGTERM, so shutdown SIGCONTs them first).
        self.paused: set[str] = set()
        #: Forks every peer; started with the first, closed on shutdown.
        self._launcher: Launcher | None = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "LocalCluster":
        """Spawn all peers — the first alone, it is the bootstrap; the
        rest at once — and return when every view lists every peer.
        A start that fails leaves nothing behind."""
        try:
            self.launch([f"peer-{number}" for number in range(self.n_peers)])
        except BaseException:
            self.shutdown()
            raise
        return self

    def spawn(self, address: str) -> tuple[str, int]:
        """Start one peer process; see :meth:`launch`."""
        return self.launch([address])[address]

    def launch(self, addresses: list[str]) -> dict[str, tuple[str, int]]:
        """Start a peer process per address, all at once.

        Every peer is forked from the cluster's launcher, which imported
        the serving stack once, and every one is forked before any ready
        line is awaited, so their start-ups overlap; the ready lines are
        collected as they arrive.  The joins themselves stay ordered —
        the bootstrap peer serves one ``join`` at a time.  With no live
        peer to join through (a fresh cluster, a cold restart) the first
        address is brought up alone and seeds the ring for the rest.

        A child that dies before its ready line — the classic cause being
        an ``EADDRINUSE`` race on the ephemeral port it was handed — is
        retried with a fresh OS-picked port up to ``spawn_attempts``
        times, so one unlucky bind does not fail the whole launch; the
        other children are not disturbed.  A child that runs but stays
        silent is not retried.  Either failure stops every child of this
        call that is not yet ready.

        Returns the new endpoints once every live peer's view lists every
        live peer: what starting the peers one after another guaranteed
        by construction, checked instead of assumed (a ``member-update``
        that failed to deliver would otherwise surface as a short ring in
        some later query).
        """
        for address in addresses:
            if address in self.processes:
                raise ClusterError(f"peer {address!r} already running")
        # With nobody to join through, the first address seeds the ring.
        alone = 0 if any(map(self.alive, self.endpoints)) else 1
        self._start_processes(addresses[:alone])
        self._start_processes(addresses[alone:])
        try:
            wait_for(
                lambda: views_complete(self),
                "every peer's view to list every live peer",
                self.startup_timeout_s,
            )
        except ReproError as exc:
            raise ClusterError(str(exc)) from exc
        return {address: self.endpoints[address] for address in addresses}

    def _command(self, address: str) -> list[str]:
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
        try:
            boot_host, boot_port = self.bootstrap_endpoint()
        except ClusterError:
            # No live peer — a fresh cluster, or a cold full-cluster
            # restart.  The first peer (back) seeds the ring, from its
            # disk state if it has one, and is the bootstrap of the rest.
            pass
        else:
            command += ["--bootstrap", f"{boot_host}:{boot_port}"]
        return command

    def _start_processes(self, addresses: list[str]) -> None:
        """Start ``addresses`` and record each as its ready line arrives."""
        if self._launcher is None:
            self._launcher = Launcher()

        def spawn(address: str) -> ForkedPeer:
            try:
                return self._launcher.spawn(self._command(address))
            except LaunchError as exc:
                raise ClusterError(f"peer {address!r}: {exc}") from exc

        pending: dict[str, ForkedPeer] = {}
        attempts = dict.fromkeys(addresses, 1)
        # What each child printed so far: a read takes what the pipe
        # holds, so a child that stalls mid-line cannot block the wait.
        output = dict.fromkeys(addresses, b"")
        deadline = time.monotonic() + self.startup_timeout_s
        try:
            for address in addresses:
                pending[address] = spawn(address)
            while pending:
                streams = {
                    process.stdout: address
                    for address, process in pending.items()
                }
                readable, _, _ = select.select(
                    list(streams), [], [], max(0.0, deadline - time.monotonic())
                )
                if not readable:
                    raise ClusterError(
                        f"peer(s) {', '.join(sorted(pending))} not ready in time"
                    )
                for stream in readable:
                    address = streams[stream]
                    chunk = stream.read1()
                    if not chunk:
                        # End of file: it died before becoming ready.
                        status = _reap(pending.pop(address))
                        if attempts[address] >= self.spawn_attempts:
                            raise ClusterError(
                                f"peer {address!r} exited with {status} "
                                "before becoming ready"
                            )
                        logger.warning(
                            "peer %s exited with %s on spawn attempt %d; "
                            "retrying", address, status, attempts[address],
                        )
                        attempts[address] += 1
                        output[address] = b""
                        pending[address] = spawn(address)
                        continue
                    *lines, output[address] = (output[address] + chunk).split(b"\n")
                    ready = [line for line in lines if line.startswith(_READY)]
                    if ready:
                        fields = dict(
                            token.split("=", 1)
                            for token in ready[0].decode().split()
                            if "=" in token
                        )
                        endpoint = (fields["host"], int(fields["port"]))
                        self.processes[address] = pending.pop(address)
                        self.endpoints[address] = endpoint
                        logger.info("peer %s up at %s:%d", address, *endpoint)
        finally:
            for process in pending.values():
                _reap(process)

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
        """Bring one killed peer back; see :meth:`restart_all`."""
        return self.restart_all([address])[address]

    def restart_all(self, addresses: list[str]) -> dict[str, tuple[str, int]]:
        """Bring killed peers back under their old addresses, together.

        The process records are recycled and :meth:`launch` runs again
        with the same ``--data-dir`` each (when the cluster is durable),
        so every peer recovers its store from disk, resumes its persisted
        SWIM incarnation, and rejoins the ring — under a fresh OS-picked
        port, which the rejoin gossips to every mirror.
        """
        for address in addresses:
            process = self.processes.get(address)
            if process is not None and process.poll() is None:
                raise ClusterError(f"peer {address!r} is still running")
        for address in addresses:
            process = self.processes.pop(address, None)
            if process is not None and process.stdout is not None:
                process.stdout.close()
            self.endpoints.pop(address, None)
        endpoints = self.launch(addresses)
        for address, endpoint in endpoints.items():
            logger.info("peer %s restarted at %s:%d", address, *endpoint)
        return endpoints

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
            if self._launcher is not None:
                self._launcher.close()
                self._launcher = None
            if self._owns_data_root and self.data_root is not None:
                shutil.rmtree(self.data_root, ignore_errors=True)

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
