"""Discrete-event simulation: virtual time, loss, crashes, timeouts.

The synchronous transport (:mod:`repro.net`) answers "how many messages";
this subpackage answers "how long, and what breaks".  It provides:

- :class:`~repro.sim.kernel.Simulator` — virtual clock + priority event
  queue + cancellable timers;
- :class:`~repro.sim.futures.SimFuture` — values that settle at a later
  virtual time, with :func:`~repro.sim.futures.gather` for fan-out;
- :class:`~repro.sim.network.AsyncNetwork` — delayed, droppable delivery
  over any :class:`~repro.net.latency.LatencyModel`, with per-peer crash
  injection and :class:`~repro.sim.policies.RetryPolicy` timeouts;
- :class:`~repro.sim.query.AsyncQueryEngine` — the paper's query procedure
  with the ``l`` lookups genuinely concurrent, timed per phase, failing
  over down the successor list when replicas are configured (the shared
  :class:`~repro.rpc.engine.QueryEngine` on the event-driven transport);
- :class:`~repro.sim.repair.ReplicaRepairer` — the periodic anti-entropy
  task that restores the replication factor after crashes;
- :mod:`repro.sim.policies` — the overload-protection layer: per-peer
  adaptive timeouts (:class:`~repro.sim.policies.AdaptiveTimeout`),
  jittered retry backoff (:class:`~repro.sim.policies.JitteredBackoff`),
  per-destination circuit breakers
  (:class:`~repro.sim.policies.CircuitBreaker`) and the hedged-lookup
  trigger (:class:`~repro.sim.policies.HedgePolicy`), and the request
  lifecycle both clocked transports run (:class:`~repro.sim.policies.Request`).

Exports resolve lazily (PEP 562): the low-level kernel modules
(``futures``, ``kernel``) are imported by :mod:`repro.rpc.engine`, which
:mod:`repro.core.system` in turn loads — an eager import of
:mod:`repro.sim.query` here would close that loop.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Simulator": "repro.sim.kernel",
    "Timer": "repro.sim.kernel",
    "SimFuture": "repro.sim.futures",
    "gather": "repro.sim.futures",
    "FaultInjector": "repro.sim.faults",
    "AsyncNetwork": "repro.sim.network",
    "RetryPolicy": "repro.sim.policies",
    "AdaptiveTimeout": "repro.sim.policies",
    "JitteredBackoff": "repro.sim.policies",
    "CircuitBreaker": "repro.sim.policies",
    "HedgePolicy": "repro.sim.policies",
    "AsyncQueryEngine": "repro.sim.query",
    "ReplicaRepairer": "repro.sim.repair",
    "RepairStats": "repro.sim.repair",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
