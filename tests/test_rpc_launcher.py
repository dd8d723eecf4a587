"""The launcher on real processes: exit statuses, fork safety, and that
no peer outlives its launcher or the cluster's own process.

Every wait here is bounded; "gone" means no such process or a zombie
(an orphan's reaper is whatever the box runs as its init).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.rpc.cluster import ClusterError, LocalCluster
from repro.rpc.launcher import ForkedPeer

SRC = os.path.dirname(repro.__path__[0])


def _stat(pid: int) -> list[str] | None:
    """``state ppid ...`` of a running process, None once it is gone."""
    try:
        fields = open(f"/proc/{pid}/stat").read().rsplit(")", 1)[-1].split()
    except OSError:
        return None
    return None if fields[0] == "Z" else fields


def _wait_gone(pids: list[int], timeout_s: float) -> list[int]:
    """Poll until every pid is gone; returns the ones still running."""
    deadline = time.monotonic() + timeout_s
    while True:
        running = [pid for pid in pids if _stat(pid) is not None]
        if not running or time.monotonic() > deadline:
            return running
        time.sleep(0.05)


def _launcher_of(cluster: LocalCluster) -> int:
    (launcher,) = {int(_stat(p.pid)[1]) for p in cluster.processes.values()}
    return launcher


def _quiet(peers: int, **options) -> LocalCluster:
    return LocalCluster(
        peers, swim_interval_ms=0.0, repair_interval_ms=0.0, **options
    )


@pytest.fixture
def site(tmp_path, monkeypatch):
    """Install a ``sitecustomize`` that every launcher started from here
    on runs before it imports anything else."""

    def install(code: str) -> None:
        (tmp_path / "sitecustomize.py").write_text(code)
        monkeypatch.setenv(
            "PYTHONPATH",
            os.pathsep.join(filter(None, [str(tmp_path), os.environ.get("PYTHONPATH")])),
        )

    return install


def test_peers_are_forked_children_of_one_launcher():
    with _quiet(3) as cluster:
        launcher = _launcher_of(cluster)
        assert launcher != os.getpid()
        assert int(_stat(launcher)[1]) == os.getpid()
        # The Popen surface: a bounded wait on a live peer times out.
        with pytest.raises(subprocess.TimeoutExpired):
            cluster.processes["peer-1"].wait(timeout=0.05)
    assert _wait_gone([launcher], 5.0) == []


def test_a_peer_exiting_before_its_ready_line_reports_its_own_status(site):
    site("import repro.cli\nrepro.cli.main = lambda argv=None, out=None: 3\n")
    cluster = _quiet(2, spawn_attempts=2)
    with pytest.raises(ClusterError, match="peer 'peer-0' exited with 3 before"):
        cluster.start()
    assert cluster.processes == {}


class _SilentLauncher:
    """A launcher whose exit report has not arrived yet."""

    def __init__(self) -> None:
        self.exit_codes: dict[int, int] = {}

    def collect(self, timeout: float | None) -> None:
        return None


def test_signalling_a_peer_reaped_before_its_exit_report_does_not_raise():
    child = subprocess.Popen(["true"])
    child.wait()  # reaped: the pid names no process now
    peer = ForkedPeer(_SilentLauncher(), child.pid, None)
    assert peer.poll() is None
    # Signal 0 only checks the pid, so a reused pid cannot be hurt.
    peer.send_signal(0)


def test_the_launcher_refuses_to_fork_with_a_second_thread(site):
    site(
        "import threading\n"
        "threading.Thread(target=threading.Event().wait, daemon=True).start()\n"
    )
    cluster = _quiet(2)
    with pytest.raises(ClusterError, match="refuses to fork with 2 OS threads"):
        cluster.start()
    assert cluster.processes == {}


def test_sigkill_of_the_launcher_takes_every_peer_with_it():
    with _quiet(3) as cluster:
        pids = [process.pid for process in cluster.processes.values()]
        os.kill(_launcher_of(cluster), signal.SIGKILL)
        assert _wait_gone(pids, 5.0) == []
        # The cluster sees them exited, killed with their launcher.
        assert [cluster.alive(address) for address in cluster.endpoints] == [False] * 3
        assert {p.poll() for p in cluster.processes.values()} == {-signal.SIGKILL}


def test_when_the_host_dies_the_launcher_and_its_peers_follow():
    host = subprocess.Popen(
        [sys.executable, "-c", (
            "import sys\n"
            "from repro.rpc.cluster import LocalCluster\n"
            "cluster = LocalCluster(3, swim_interval_ms=0.0, repair_interval_ms=0.0)\n"
            "cluster.start()\n"
            "print(*[p.pid for p in cluster.processes.values()], flush=True)\n"
            "sys.stdin.read()\n"
        )],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    try:
        pids = [int(pid) for pid in host.stdout.readline().split()]
        assert len(pids) == 3
        (launcher,) = {int(_stat(pid)[1]) for pid in pids}
        host.kill()
        host.wait(timeout=10)
        assert _wait_gone([launcher, *pids], 5.0) == []
    finally:
        host.kill()
        host.wait()
        host.stdin.close()
        host.stdout.close()


def test_ctrl_c_stops_a_peer_and_leaves_the_launcher_serving():
    with _quiet(2) as cluster:
        launcher = _launcher_of(cluster)
        os.kill(launcher, signal.SIGINT)
        peer = cluster.processes["peer-1"]
        peer.send_signal(signal.SIGINT)
        # ``repro serve`` treats an interrupt as a clean stop.
        assert peer.wait(timeout=10) == 0
        assert _stat(launcher) is not None
        cluster.restart("peer-1")
        assert cluster.alive("peer-1")


def test_a_forked_child_mints_span_ids_of_its_own():
    # A single-threaded interpreter of its own: forking this one would
    # fork numpy's BLAS threads with it.
    script = (
        "import os\n"
        "from repro.obs.trace import new_span_id\n"
        "parent = new_span_id()\n"
        "read_end, write_end = os.pipe()\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    os.write(write_end, new_span_id().encode())\n"
        "    os._exit(0)\n"
        "os.close(write_end)\n"
        "child = os.read(read_end, 100).decode()\n"
        "os.waitpid(pid, 0)\n"
        "print(parent, child, pid)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, env={"PYTHONPATH": SRC}, timeout=60,
    )
    parent, child, pid = done.stdout.split()
    assert parent.split("-")[0] != child.split("-")[0]
    assert child.startswith(f"{int(pid):x}")
    assert parent.endswith("-1") and child.endswith("-1")
