"""One pre-imported process that forks every peer of a :class:`LocalCluster`.

A fresh ``python -m repro serve`` spends most of its start-up importing
(numpy, asyncio, the ``repro`` modules the server runs), and a cluster of
them on a couple of cores is CPU-bound on exactly that.  The launcher pays
the imports once per cluster: it imports the serving stack, then
``os.fork()``\\s each peer the cluster asks for, and the child runs the
unchanged ``repro serve`` path, ``cli.main(argv)``.

The cluster talks to it over one ``AF_UNIX`` ``SOCK_SEQPACKET`` socketpair
(the launcher's end is its stdin), one message per datagram:

- cluster -> launcher: a peer's argv as a JSON list, with the write end
  of the peer's stdout pipe attached (``socket.send_fds``); the ready
  line arrives on that pipe, exactly as from a ``Popen``;
- launcher -> cluster: ``{"pid": N}`` for a fork, ``{"error": text}`` for
  a refusal, and ``{"exit": N, "code": C}`` each time it reaps a peer
  (``C`` as ``Popen.returncode`` has it: negative for a signal).

Hygiene: the launcher forks only while it has exactly one OS thread (it
starts with a single-threaded OpenBLAS and checks the count before every
fork); a peer dies with its launcher (``PR_SET_PDEATHSIG``); when the
cluster hangs up, the launcher SIGKILLs the peers still running; and it
exits only after it has reaped every peer, so a leaked peer always keeps
a direct child of the cluster's process alive.  Linux only
(``pidfd_open``, ``/proc/self/task``, ``prctl``).
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.errors import ReproError

__all__ = ["Launcher", "ForkedPeer", "LaunchError", "preload"]

#: Largest control message; a peer's argv is a few kB.
MAX_MESSAGE = 1 << 16
#: How long the cluster waits for the launcher to answer or to exit.
REPLY_TIMEOUT_S = 10.0
_PR_SET_PDEATHSIG = 1


class LaunchError(ReproError):
    """The launcher refused a fork, or is gone."""


def preload() -> None:
    """Import what a peer runs, once, in the launcher."""
    import repro.cli  # noqa: F401
    import repro.rpc.server  # noqa: F401


# -- the cluster's side --------------------------------------------------------


class ForkedPeer:
    """A peer the launcher forked, behind the ``Popen`` surface the
    cluster and its callers use: ``pid``, ``stdout``, ``returncode``,
    ``poll``, ``wait``, ``send_signal``, ``terminate`` and ``kill``."""

    def __init__(self, launcher: "Launcher", pid: int, stdout) -> None:
        self.launcher = launcher
        self.pid = pid
        self.stdout = stdout

    @property
    def returncode(self) -> int | None:
        return self.launcher.exit_codes.get(self.pid)

    def poll(self) -> int | None:
        if self.returncode is None:
            self.launcher.collect(0.0)
        return self.returncode

    def wait(self, timeout: float | None = None) -> int:
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.poll() is None:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise subprocess.TimeoutExpired(f"peer pid {self.pid}", timeout)
            self.launcher.collect(remaining)
        return self.returncode

    def send_signal(self, signum: int) -> None:
        # Not reported reaped yet, so the pid is still this peer's.
        if self.poll() is None:
            os.kill(self.pid, signum)

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


class Launcher:
    """Starts the launcher process and forks peers through it."""

    def __init__(self) -> None:
        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (src, env.get("PYTHONPATH", "")) if path
        )
        # numpy's OpenBLAS starts a worker thread per core at import; a
        # single-threaded one leaves the launcher safe to fork.
        env["OPENBLAS_NUM_THREADS"] = "1"
        self.control, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.rpc.launcher"],
                stdin=theirs,
                stdout=subprocess.DEVNULL,
                env=env,
            )
        #: pid -> exit code of every peer known to have exited.
        self.exit_codes: dict[int, int] = {}
        self.hung_up = False
        self._forked: set[int] = set()

    def spawn(self, argv: list[str]) -> ForkedPeer:
        """Fork one peer running ``argv``, a ``python -m repro ...``
        command line; the child runs ``cli.main(argv[3:])``."""
        read_end, write_end = os.pipe()
        try:
            try:
                socket.send_fds(self.control, [json.dumps(argv).encode()], [write_end])
            except OSError as exc:
                raise LaunchError(f"the launcher is gone: {exc}") from exc
            finally:
                os.close(write_end)
            pid = self._forked_pid()
        except BaseException:
            os.close(read_end)
            raise
        self._forked.add(pid)
        return ForkedPeer(self, pid, os.fdopen(read_end, "rb"))

    def _forked_pid(self) -> int:
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        while not self.hung_up:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise LaunchError("the launcher did not answer a fork in time")
            reply = self.collect(remaining)
            if reply is not None:
                if "error" in reply:
                    raise LaunchError(reply["error"])
                return reply["pid"]
        raise LaunchError("the launcher hung up")

    def collect(self, timeout: float | None) -> dict | None:
        """Read the launcher's messages for up to ``timeout`` seconds,
        until one that is not an exit notice (returned); exit notices
        land in :attr:`exit_codes`."""
        while not self.hung_up and select.select([self.control], [], [], timeout)[0]:
            data = self.control.recv(MAX_MESSAGE)
            if not data:
                self._hang_up()
                break
            message = json.loads(data)
            if "exit" not in message:
                return message
            self.exit_codes[message["exit"]] = message["code"]
            timeout = 0.0
        return None

    def _hang_up(self) -> None:
        # A peer the launcher did not report was SIGKILLed as it died.
        self.hung_up = True
        for pid in self._forked - self.exit_codes.keys():
            self.exit_codes[pid] = -signal.SIGKILL

    def close(self) -> None:
        """Hang up: the launcher SIGKILLs any peer still running, reports
        and reaps every one, and exits."""
        if not self.hung_up:
            self.control.shutdown(socket.SHUT_WR)
            deadline = time.monotonic() + REPLY_TIMEOUT_S
            while not self.hung_up and time.monotonic() < deadline:
                self.collect(deadline - time.monotonic())
        self.control.close()
        try:
            self.process.wait(timeout=REPLY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._hang_up()


# -- the launcher's side -------------------------------------------------------


def _fork(argv: list[str], stdout_fd: int, control: socket.socket, pidfds) -> int:
    """Fork one peer; the child never returns from here."""
    threads = len(os.listdir("/proc/self/task"))
    if threads != 1:
        raise LaunchError(f"the launcher refuses to fork with {threads} OS threads")
    launcher = os.getpid()
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != launcher:
            os._exit(code)  # the launcher died before the prctl took
        devnull = os.open(os.devnull, os.O_RDWR)
        control.close()  # fd 0
        for pidfd in pidfds:
            os.close(pidfd)
        os.dup2(devnull, 0)
        os.dup2(stdout_fd, 1)
        os.dup2(devnull, 2)
        os.close(devnull)
        os.close(stdout_fd)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        from repro import cli

        try:
            code = cli.main(argv[3:])
        except SystemExit as exc:  # argparse
            code = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
    finally:
        os._exit(code)


def serve(control: socket.socket) -> None:
    """Fork peers on request and report their exits until the cluster
    hangs up; then SIGKILL whatever peer is left and reap every one."""
    peers: dict[int, int] = {}  # pidfd -> pid

    def reap(pidfd: int, kill: bool = False) -> None:
        pid = peers.pop(pidfd)
        if kill:
            os.kill(pid, signal.SIGKILL)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        os.close(pidfd)
        try:
            control.send(json.dumps({"exit": pid, "code": code}).encode())
        except OSError:
            pass  # the cluster is gone; the reaping is what matters

    try:
        while True:
            for ready in select.select([control, *peers], [], [])[0]:
                if ready is not control:
                    reap(ready)
                    continue
                data, fds, flags, _ = socket.recv_fds(control, MAX_MESSAGE, 1)
                if not data:
                    return
                try:
                    if flags & socket.MSG_TRUNC or len(fds) != 1:
                        raise LaunchError("malformed fork request")
                    pid = _fork(json.loads(data), fds[0], control, peers)
                except (LaunchError, OSError) as exc:  # OSError: fork failed
                    reply = {"error": str(exc)}
                else:
                    peers[os.pidfd_open(pid)] = pid
                    reply = {"pid": pid}
                finally:
                    for fd in fds:
                        os.close(fd)
                control.send(json.dumps(reply).encode())
    finally:
        for pidfd in list(peers):
            reap(pidfd, kill=True)


def main() -> None:
    # Ctrl-C reaches the whole process group: the peers stop on it as
    # they always did, the cluster's shutdown follows, and the launcher
    # keeps reaping until the cluster hangs up.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    preload()
    # What the launcher imported lives as long as the peers do: keep the
    # collector off those pages, so the children share them copy-on-write.
    gc.freeze()
    serve(socket.socket(fileno=0))


if __name__ == "__main__":
    main()
