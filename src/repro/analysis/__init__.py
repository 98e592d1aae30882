"""Statistics, histograms, correlations, and table rendering for campaigns.

Conventions follow the paper: "variation is computed as the difference
between maximum and minimum performance values divided by the minimum value"
(§V footnote 8); counters are reported as min/avg/max over the campaign.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.stats": ("RunStatistics", "summarize", "variation_pct"),
    "repro.analysis.histogram": (
        "Histogram", "build_histogram", "render_ascii_histogram",
    ),
    "repro.analysis.correlation": (
        "pearson", "spearman", "binned_means", "CorrelationReport",
        "correlate",
    ),
    "repro.analysis.tables": ("TextTable", "render_table"),
    "repro.analysis.timeline": (
        "Interval", "Timeline", "build_timeline", "render_gantt",
    ),
    "repro.analysis.decomposition": (
        "NoiseDecomposition", "decompose_nas_noise", "decompose_noise",
    ),
})
