"""Figure 11 — load balance (partitions per node).

Regenerates both panels: (a) 50,000 placements over 100..5000 peers, and
(b) 35k..180k placements over 1000 peers, reporting mean and 1st/99th
percentiles.  A second benchmark runs the *placement ablation*: raw LSH
identifiers used directly as ring positions (what the paper's text
literally says) versus SHA-1 rehashed placement (standard DHT practice,
matching the balance the paper's figure reports).
"""

from __future__ import annotations

import pytest
from conftest import run_once

from repro.experiments.fig11_load import LoadBalanceExperiment


def _make(scale: str) -> LoadBalanceExperiment:
    return (
        LoadBalanceExperiment.paper()
        if scale == "paper"
        else LoadBalanceExperiment.quick()
    )


def test_fig11_load_balance(benchmark, scale, emit):
    outcome = run_once(benchmark, lambda: _make(scale).run())
    emit("fig11_load_balance", outcome.report())
    means = {n: stats.mean for n, stats in outcome.by_peers}
    ns = sorted(means)
    benchmark.extra_info["mean_at_smallest"] = means[ns[0]]
    # Panel (a): mean load is exactly placements / N.
    for a, b in zip(ns, ns[1:]):
        assert means[a] / means[b] == pytest.approx(b / a, rel=0.01)
    # Spread narrows as peers grow (relative to the mean).
    first = outcome.by_peers[0][1]
    last = outcome.by_peers[-1][1]
    assert last.p99 / max(last.mean, 1) <= first.p99 / first.mean * 3
    # Panel (b): mean grows linearly with stored partitions.
    totals = [t for t, _ in outcome.by_partitions]
    bmeans = [s.mean for _, s in outcome.by_partitions]
    assert bmeans[-1] / bmeans[0] == pytest.approx(totals[-1] / totals[0], rel=0.01)


def test_fig11_placement_ablation(benchmark, scale, emit):
    """Direct placement concentrates load; rehash spreads it."""
    outcome = run_once(benchmark, _make(scale).run_ablation)
    emit("fig11_placement_ablation", outcome.report())
    # The hot spot under direct placement dwarfs the rehash spread.
    for (_, d_stats), (_, r_stats) in zip(outcome.direct.by_peers, outcome.rehash.by_peers):
        assert d_stats.maximum >= r_stats.maximum
