"""In-memory network simulation.

The paper's peers talk over TCP/IP; its experiments, however, measure
overlay-level quantities (hops, partition placements), not wire time.  This
subpackage substitutes a deterministic in-memory transport that delivers
messages synchronously while *accounting* for them: per-peer and global
message counters, byte estimates, and a pluggable latency model, so example
programs and extension experiments can report network cost.

For experiments that need *time* rather than counts — delivery delay,
loss, crashes, timeouts — the event-driven transport lives in
:mod:`repro.sim`, delivering over the same peer directory
(:class:`PeerNetwork`) and latency models.  Both are the query engine's
:class:`Transport`.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Message": "repro.net.message",
    "Transport": "repro.net.transport",
    "PeerNetwork": "repro.net.transport",
    "SimulatedNetwork": "repro.net.transport",
    "TrafficStats": "repro.net.transport",
    "LatencyModel": "repro.net.latency",
    "ConstantLatency": "repro.net.latency",
    "SeededLatency": "repro.net.latency",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
