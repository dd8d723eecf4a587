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

from repro.net.latency import (
    ConstantLatency,
    LatencyModel,
    SeededLatency,
    UniformLatency,
)
from repro.net.message import Message
from repro.net.transport import PeerNetwork, SimulatedNetwork, TrafficStats, Transport

__all__ = [
    "Message",
    "Transport",
    "PeerNetwork",
    "SimulatedNetwork",
    "TrafficStats",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "SeededLatency",
]
