"""Cluster scale: noise resonance, extrapolated and co-simulated.

§II argues the single-node effects matter because they *resonate* at scale:
"When scaling to thousands of nodes, the probability that in each computing
phase at least one node is slowed by some long kernel activity approaches
1.0."  This package turns the single-node simulator's measured per-phase
delays into cluster-scale predictions:

* :mod:`repro.cluster.resonance` — bootstrap and analytic scaling of
  per-phase delay maxima across N nodes, including the Petrini-style
  spare-core experiment (leaving one CPU to the OS can *win* at scale);
* :mod:`repro.cluster.multinode` — a small cluster of node kernels on one
  clock, whose collectives wait for the globally slowest rank, with node
  failure detection and recovery.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.cluster.multinode": (
        "ClusterIncompleteError", "ClusterJob", "ClusterResult",
        "run_cluster_job",
    ),
    "repro.cluster.resonance": (
        "DelayProfile", "ResonancePoint", "analytic_resonance",
        "measure_phase_delays", "resonance_curve", "spare_core_comparison",
    ),
})
