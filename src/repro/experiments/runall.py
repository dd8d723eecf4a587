"""Run every figure experiment and print (and save) its report.

Usage::

    python -m repro.experiments.runall [quick|paper] [results_dir]

``quick`` (default when run under CI constraints) uses scaled-down
parameters; ``paper`` uses the paper's.  Reports are printed and written to
``results_dir`` (default ``results/``): every ``results/`` file except
``ext_live_churn``, which needs live peer processes.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Callable

from repro.experiments.ext_adaptive_padding import AdaptivePaddingExperiment
from repro.experiments.ext_churn_recall import ChurnRecallExperiment
from repro.experiments.ext_composite import CompositeAnswerExperiment
from repro.experiments.ext_event_latency import EventLatencyExperiment
from repro.experiments.ext_health_churn import HealthChurnExperiment
from repro.experiments.ext_ideal_family import IdealFamilyAblation
from repro.experiments.ext_local_index import LocalIndexExperiment
from repro.experiments.ext_overlay_compare import OverlayComparisonExperiment
from repro.experiments.ext_overload import OverloadExperiment
from repro.experiments.ext_stats_planning import StatsPlanningExperiment
from repro.experiments.fig5_timing import HashTimingExperiment
from repro.experiments.fig6_7_quality import MatchQualityExperiment
from repro.experiments.fig8_recall import RecallExperiment
from repro.experiments.fig9_containment import ContainmentMatchingExperiment
from repro.experiments.fig10_padding import PaddingExperiment
from repro.experiments.fig11_load import LoadBalanceExperiment
from repro.experiments.fig12_pathlen import PathLengthExperiment

__all__ = ["jobs", "run_all"]


def jobs(scale: str) -> list[tuple[str, Callable[[], str]]]:
    """Each results file's name and the job that renders its report."""
    if scale not in ("paper", "quick"):
        raise ValueError(f"scale must be paper|quick, got {scale!r}")

    def scaled(cls):
        return cls.paper() if scale == "paper" else cls.quick()

    return [
        ("fig5_hash_timing", lambda: scaled(HashTimingExperiment).run().report()),
        (
            "fig6a_minwise_quality",
            lambda: (
                MatchQualityExperiment.paper("min-wise")
                if scale == "paper"
                else MatchQualityExperiment.quick("min-wise")
            ).run().report("Figure 6a — min-wise"),
        ),
        (
            "fig6b_approx_quality",
            lambda: (
                MatchQualityExperiment.paper("approx-min-wise")
                if scale == "paper"
                else MatchQualityExperiment.quick("approx-min-wise")
            ).run().report("Figure 6b — approx min-wise"),
        ),
        (
            "fig7_linear_quality",
            lambda: (
                MatchQualityExperiment.paper("linear")
                if scale == "paper"
                else MatchQualityExperiment.quick("linear")
            ).run().report("Figure 7 — linear permutations"),
        ),
        ("fig8_recall", lambda: scaled(RecallExperiment).run().report()),
        ("fig9_containment", lambda: scaled(ContainmentMatchingExperiment).run().report()),
        ("fig10_padding", lambda: scaled(PaddingExperiment).run().report()),
        ("fig11_load_balance", lambda: scaled(LoadBalanceExperiment).run().report()),
        (
            "fig11_placement_ablation",
            lambda: scaled(LoadBalanceExperiment).run_ablation().report(),
        ),
        ("fig12_path_lengths", lambda: scaled(PathLengthExperiment).run().report()),
        ("ext_local_index", lambda: scaled(LocalIndexExperiment).run().report()),
        ("ext_adaptive_padding", lambda: scaled(AdaptivePaddingExperiment).run().report()),
        ("ext_ideal_family", lambda: scaled(IdealFamilyAblation).run().report()),
        ("ext_composite", lambda: scaled(CompositeAnswerExperiment).run().report()),
        ("ext_overlay_compare", lambda: scaled(OverlayComparisonExperiment).run().report()),
        ("ext_stats_planning", lambda: scaled(StatsPlanningExperiment).run().report()),
        ("ext_event_latency", lambda: scaled(EventLatencyExperiment).run().report()),
        ("ext_churn_recall", lambda: scaled(ChurnRecallExperiment).run().report()),
        ("ext_health_churn", lambda: scaled(HealthChurnExperiment).run().report()),
        ("ext_overload", lambda: scaled(OverloadExperiment).run().report()),
    ]


def run_all(scale: str = "paper", results_dir: "str | Path" = "results") -> None:
    """Execute every experiment at the given scale, saving text reports."""
    todo = jobs(scale)
    out = Path(results_dir)
    out.mkdir(exist_ok=True)
    for name, job in todo:
        start = time.perf_counter()
        report = job()
        elapsed = time.perf_counter() - start
        print(f"\n=== {name} ({elapsed:.1f}s) ===")
        print(report)
        (out / f"{name}.txt").write_text(report + "\n", encoding="utf-8")


def main(argv: list[str]) -> None:
    scale = argv[1] if len(argv) > 1 else "paper"
    results_dir = argv[2] if len(argv) > 2 else "results"
    run_all(scale=scale, results_dir=results_dir)


if __name__ == "__main__":
    main(sys.argv)
