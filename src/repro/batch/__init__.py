"""Two-level scheduling: the batch/cluster dispatcher layer.

The paper's node-level results (stock vs HPL vs rt kernels) only matter in
the context of the layer above them — the batch scheduler that decides
which jobs land on which nodes, when.  This package provides that layer:
a seeded workload generator (:mod:`repro.batch.workload`), pluggable
allocation policies (:mod:`repro.batch.policies`), runtime models that
price each job with the real node-level simulator
(:mod:`repro.batch.runtime`), an exact-arithmetic dispatcher
(:mod:`repro.batch.dispatcher`), and the campaign adapter that drops batch
cells into the cache/journal/supervisor/provenance fabric
(:mod:`repro.batch.campaign`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.batch.campaign": (
        "BatchCampaignResult", "build_batch_specs", "run_batch_campaign",
    ),
    "repro.batch.dispatcher": (
        "BSLD_TAU_US", "BatchDispatcher", "BatchResult", "JobOutcome",
        "simulate_batch", "validate_batch_fault_plan",
    ),
    "repro.batch.policies": (
        "BATCH_POLICIES", "BatchPolicy", "EasyPolicy", "FcfsPolicy",
        "PriorityPolicy", "SharePolicy", "make_policy",
    ),
    "repro.batch.runtime": (
        "RUNTIME_MODELS", "base_runtime_us", "clear_runtime_memo",
    ),
    "repro.batch.workload": ("BatchJob", "WorkloadConfig", "generate_trace"),
})
