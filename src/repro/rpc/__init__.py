"""One query engine, many transports.

The paper's query procedure — hash to ``l`` identifiers, route each to its
owner, ask the replica chain, store on miss — used to live twice: once
synchronously in :mod:`repro.core.system` and once on the discrete-event
kernel in :mod:`repro.sim.query`.  This package extracts it into a single
transport-agnostic :class:`~repro.rpc.engine.QueryEngine` and expresses the
ways of *running* it as :class:`~repro.net.transport.Transport`
implementations:

- :class:`~repro.net.transport.SimulatedNetwork` — the in-process
  message-counting network; requests settle immediately, so the engine
  degenerates to the sequential synchronous path;
- :class:`~repro.sim.network.AsyncNetwork` — the discrete-event network on
  a ``Simulator``; the ``l`` chains progress concurrently in virtual time;
- :class:`~repro.rpc.client.SocketTransport` — real asyncio TCP sockets
  speaking the length-prefixed JSON frames of :mod:`repro.rpc.wire` to
  :class:`~repro.rpc.server.PeerServer` processes.

The two in-process networks *are* their transports (one peer directory,
:class:`~repro.net.transport.PeerNetwork`, under both); only the socket
transport lives here.  The server, client, and cluster-management layers
(``repro.rpc.server``, ``repro.rpc.client``, ``repro.rpc.cluster``) are
imported directly by the CLI; importing this package pulls in only the
engine.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "QueryEngine": "repro.rpc.engine",
    "MatchReply": "repro.rpc.engine",
    "ChainOutcome": "repro.rpc.engine",
    "LocatePhase": "repro.rpc.engine",
    "StoreOutcome": "repro.rpc.engine",
    "TimedQueryResult": "repro.rpc.engine",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
