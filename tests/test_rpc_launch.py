"""``LocalCluster`` bring-up against a scripted ``Popen``: no peer process,
no socket, no clock.

``Stage`` stands in for the operating system: it hands the cluster fake
child processes whose stdout is a real pipe (``select`` needs a file
descriptor) pre-loaded with what the script says the child prints, logs
every ``Popen`` and every ``readline`` in order, and answers the barrier's
``hello`` calls from scripted member views.  The real-process run of the
same code is ``test_rpc_cluster``.
"""

from __future__ import annotations

import os

import pytest

from repro.rpc import cluster as cluster_module
from repro.rpc import drills
from repro.rpc.cluster import ClusterError, LocalCluster
from repro.rpc.server import READY_PREFIX


class FakeStdout:
    def __init__(self, stage: "Stage", address: str, fate: str, port: int) -> None:
        self.stage, self.address = stage, address
        read_end, self.write_end = os.pipe()
        self.reader = os.fdopen(read_end, "r")
        if fate == "ready":
            os.write(
                self.write_end,
                f"{READY_PREFIX} address={address} node_id=1 "
                f"host=127.0.0.1 port={port}\n".encode(),
            )
        if fate == "dies":
            self.hang_up()

    def hang_up(self) -> None:
        if self.write_end is not None:
            os.close(self.write_end)
            self.write_end = None

    def fileno(self) -> int:
        return self.reader.fileno()

    def readline(self) -> str:
        self.stage.log.append(("readline", self.address))
        return self.reader.readline()

    def close(self) -> None:
        self.hang_up()
        self.reader.close()


class FakeProcess:
    def __init__(self, stage: "Stage", address: str, fate: str, port: int) -> None:
        self.address = address
        self.stdout = FakeStdout(stage, address, fate, port)
        self.returncode = 98 if fate == "dies" else None

    def poll(self):
        return self.returncode

    def _exit(self, status: int) -> None:
        if self.returncode is None:
            self.returncode = status
        self.stdout.hang_up()

    def kill(self) -> None:
        self._exit(-9)

    def terminate(self) -> None:
        self._exit(-15)

    def send_signal(self, signum: int) -> None:
        self._exit(-signum)

    def wait(self, timeout=None) -> int:
        assert self.returncode is not None, f"{self.address} would block"
        return self.returncode


class Stage:
    """``fates``: address -> what each successive spawn of it does
    (``ready`` / ``dies`` / ``silent``; ``ready`` when the script runs
    out).  ``views(address)``: the member set its ``hello`` serves."""

    def __init__(self, monkeypatch, fates=None, views=None) -> None:
        self.fates = {a: list(f) for a, f in (fates or {}).items()}
        self.views = views
        self.log: list[tuple] = []
        self.spawned: list[FakeProcess] = []
        self.cluster: LocalCluster | None = None
        monkeypatch.setattr(cluster_module.subprocess, "Popen", self.popen)
        monkeypatch.setattr(drills, "POLL_S", 0.0)

    def popen(self, command, **_options) -> FakeProcess:
        address = command[command.index("--address") + 1]
        bootstrap = (
            command[command.index("--bootstrap") + 1]
            if "--bootstrap" in command else None
        )
        self.log.append(("popen", address, bootstrap))
        script = self.fates.get(address)
        fate = script.pop(0) if script else "ready"
        process = FakeProcess(self, address, fate, 7000 + len(self.spawned))
        self.spawned.append(process)
        return process

    def build(self, peers: int, **options) -> LocalCluster:
        cluster = self.cluster = LocalCluster(peers, **options)
        cluster.call = self.call
        return cluster

    def call(self, address, kind, payload=None, *, timeout_ms=0.0):
        assert kind == "hello"
        self.log.append(("hello", address))
        members = (
            self.views(address) if self.views is not None
            else drills.live_set(self.cluster)
        )
        return {"members": dict.fromkeys(members)}

    def popens(self, address: str) -> int:
        return sum(e[:2] == ("popen", address) for e in self.log)

    def running(self) -> list[str]:
        return [p.address for p in self.spawned if p.returncode is None]


def test_the_bootstrap_comes_up_alone_then_everyone_else_at_once(monkeypatch):
    stage = Stage(monkeypatch)
    cluster = stage.build(5).start()
    launch = [entry for entry in stage.log if entry[0] != "hello"]
    assert launch[:2] == [("popen", "peer-0", None), ("readline", "peer-0")]
    # Every other peer is started — through the bootstrap's endpoint —
    # before the first of their ready lines is read.
    assert launch[2:6] == [
        ("popen", f"peer-{i}", "127.0.0.1:7000") for i in range(1, 5)
    ]
    assert sorted(launch[6:]) == [("readline", f"peer-{i}") for i in range(1, 5)]
    assert list(cluster.endpoints) == [f"peer-{i}" for i in range(5)]
    assert cluster.endpoints["peer-3"] == ("127.0.0.1", 7003)
    cluster.shutdown()
    assert stage.running() == []


def test_start_does_not_return_while_one_view_is_short_a_member(monkeypatch):
    everyone = {f"peer-{i}" for i in range(4)}
    asked = {"peer-2": 0}

    def views(address):
        if address == "peer-2":
            asked["peer-2"] += 1
            if asked["peer-2"] <= 3:
                return everyone - {"peer-3"}
        return everyone

    stage = Stage(monkeypatch, views=views)
    cluster = stage.build(4).start()
    # Three looks found peer-2's view short; start() returned on the
    # first look that found every view complete, and asked nobody since.
    assert asked["peer-2"] == 4
    assert stage.log[-4:] == [("hello", f"peer-{i}") for i in range(4)]
    cluster.shutdown()


def test_a_view_that_never_completes_fails_the_start_and_leaves_nothing(monkeypatch):
    stage = Stage(monkeypatch, views=lambda address: {"peer-0", "peer-1"})
    cluster = stage.build(3, durable=True, startup_timeout_s=0.05)
    root = cluster.data_root
    assert os.path.isdir(root)
    with pytest.raises(ClusterError, match="every peer's view"):
        cluster.start()
    assert stage.running() == []
    assert not os.path.exists(root)


@pytest.mark.parametrize("fate", ["silent", "dies"])
def test_one_peer_failing_its_ready_line_tears_the_others_down(monkeypatch, fate):
    stage = Stage(monkeypatch, fates={"peer-3": [fate] * 3})
    cluster = stage.build(5, durable=True, startup_timeout_s=0.05)
    root = cluster.data_root
    match = "peer-3.* not ready in time" if fate == "silent" else "peer 'peer-3' exited with 98"
    with pytest.raises(ClusterError, match=match):
        cluster.start()
    # Ready or not, recorded or not: no child is left, nor the data root.
    assert len(stage.spawned) >= 5
    assert stage.running() == []
    assert not os.path.exists(root)
    # A silent child is not worth a second attempt; one that exits is,
    # up to spawn_attempts.
    assert stage.popens("peer-3") == (1 if fate == "silent" else 3)


def test_a_dead_on_arrival_peer_is_retried_alone(monkeypatch):
    stage = Stage(monkeypatch, fates={"peer-2": ["dies", "dies", "ready"]})
    cluster = stage.build(4).start()
    assert stage.popens("peer-2") == 3
    assert [stage.popens(f"peer-{i}") for i in (0, 1, 3)] == [1, 1, 1]
    # The endpoint is the one the third attempt announced.
    assert cluster.endpoints["peer-2"] == ("127.0.0.1", 7005)
    assert sorted(stage.running()) == [f"peer-{i}" for i in range(4)]
    cluster.shutdown()


def test_restart_all_goes_through_the_same_launch(monkeypatch):
    stage = Stage(monkeypatch)
    cluster = stage.build(4).start()
    for address in ("peer-1", "peer-3"):
        cluster.kill(address)
    with pytest.raises(ClusterError, match="still running"):
        cluster.restart_all(["peer-1", "peer-2"])
    del stage.log[:]
    endpoints = cluster.restart_all(["peer-1", "peer-3"])
    launch = [entry for entry in stage.log if entry[0] != "hello"]
    assert launch[:2] == [
        ("popen", "peer-1", "127.0.0.1:7000"), ("popen", "peer-3", "127.0.0.1:7000"),
    ]
    assert endpoints == {"peer-1": ("127.0.0.1", 7004), "peer-3": ("127.0.0.1", 7005)}
    assert all(cluster.alive(f"peer-{i}") for i in range(4))
    cluster.shutdown()


def test_a_cold_restart_reseeds_through_the_first_peer_back(monkeypatch):
    stage = Stage(monkeypatch)
    cluster = stage.build(3).start()
    addresses = list(cluster.endpoints)
    for address in addresses:
        cluster.kill(address)
    del stage.log[:]
    cluster.restart_all(addresses)
    launch = [entry for entry in stage.log if entry[0] != "hello"]
    assert launch[:2] == [("popen", "peer-0", None), ("readline", "peer-0")]
    assert launch[2:4] == [
        ("popen", "peer-1", "127.0.0.1:7003"), ("popen", "peer-2", "127.0.0.1:7003"),
    ]
    cluster.shutdown()
