"""Experiment harness: campaign runner + per-figure/table regenerators.

Every table and figure of the paper's §V has a regenerator here; the mapping
is indexed in DESIGN.md §4 and exercised by ``benchmarks/``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.runner": (
        "CampaignResult", "ClusterCampaignResult", "run_campaign",
        "run_cluster_campaign", "run_nas", "run_nas_campaign",
    ),
    "repro.experiments.sweeps": (
        "SweepResult", "noise_intensity_sweep", "smt_factor_sweep",
        "spin_threshold_sweep",
    ),
})
