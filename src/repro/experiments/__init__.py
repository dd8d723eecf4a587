"""Experiment harness: one module per figure of the paper's evaluation.

Each experiment class has two constructors — ``paper()`` with the paper's
parameters and ``quick()`` with scaled-down parameters for CI — a ``run()``
method returning a structured result, and a ``report()`` on the result that
prints the same rows/series the figure plots.

Figure index:

- Figure 5  — :mod:`repro.experiments.fig5_timing`
- Figures 6a/6b/7 — :mod:`repro.experiments.fig6_7_quality`
- Figure 8  — :mod:`repro.experiments.fig8_recall`
- Figure 9  — :mod:`repro.experiments.fig9_containment`
- Figure 10 — :mod:`repro.experiments.fig10_padding`
- Figure 11 — :mod:`repro.experiments.fig11_load`
- Figure 12 — :mod:`repro.experiments.fig12_pathlen`

Extensions (Sections 5.3 and 6 of the paper):

- local peer index — :mod:`repro.experiments.ext_local_index`
- adaptive padding — :mod:`repro.experiments.ext_adaptive_padding`
- ideal permutations ablation — :mod:`repro.experiments.ext_ideal_family`
- recall under churn (replication x crash rate) —
  :mod:`repro.experiments.ext_churn_recall`
- overload protection (offered load x grey-slow peers) —
  :mod:`repro.experiments.ext_overload`
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "HashTimingExperiment": "repro.experiments.fig5_timing",
    "MatchQualityExperiment": "repro.experiments.fig6_7_quality",
    "QualityOutcome": "repro.experiments.fig6_7_quality",
    "RecallExperiment": "repro.experiments.fig8_recall",
    "ContainmentMatchingExperiment": "repro.experiments.fig9_containment",
    "PaddingExperiment": "repro.experiments.fig10_padding",
    "LoadBalanceExperiment": "repro.experiments.fig11_load",
    "PathLengthExperiment": "repro.experiments.fig12_pathlen",
    "LocalIndexExperiment": "repro.experiments.ext_local_index",
    "AdaptivePaddingExperiment": "repro.experiments.ext_adaptive_padding",
    "IdealFamilyAblation": "repro.experiments.ext_ideal_family",
    "CompositeAnswerExperiment": "repro.experiments.ext_composite",
    "OverlayComparisonExperiment": "repro.experiments.ext_overlay_compare",
    "StatsPlanningExperiment": "repro.experiments.ext_stats_planning",
    "ChurnRecallExperiment": "repro.experiments.ext_churn_recall",
    "OverloadExperiment": "repro.experiments.ext_overload",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
