"""Pluggable UC execution runtime.

The runtime separates *what* a protocol does (parties, functionalities,
the clock — :mod:`repro.uc`) from *how* an execution is driven:

* :class:`~repro.runtime.backend.ExecutionBackend` — a named bundle of
  scheduler drain policy and trace mode (``sequential``, ``batched``);
* :class:`~repro.runtime.driver.RoundDriver` — the one synchronous round
  loop behind :class:`~repro.uc.environment.Environment` and every stack
  builder;
* :class:`~repro.runtime.scheduler.BatchScheduler` — per-round message
  queues drained in batches instead of per-message callbacks;
* :class:`~repro.runtime.pool.SessionPool` — N independent sessions
  (seed sweeps, repeated executions, ``repro serve``) through one
  driver, inline or via ``concurrent.futures`` workers with chunked
  dispatch and per-worker crypto warm-up;
* :class:`~repro.runtime.sweep.ParallelSweep` — the multi-core sweep
  driver: plans worker/chunk shape for any ``(runner, task list)``
  workload and verifies digest equality against the inline reference;
* :class:`~repro.runtime.supervisor.Supervisor` — the fault-tolerant
  process fan-out underneath it: per-chunk deadlines, deterministic
  retry/backoff, pool respawn on dead workers, poison-task quarantine,
  the crash-safe :class:`~repro.runtime.supervisor.SweepJournal` and
  the :class:`~repro.runtime.supervisor.ChaosPlan` fault harness;
* :class:`~repro.runtime.config.SweepConfig` — the one frozen config
  object every entry point (``SessionPool``, ``ParallelSweep``,
  ``run_matrix``, the CLI) builds its execution knobs from.

The ``sequential`` backend is the default everywhere and reproduces the
pre-runtime engine byte-for-byte (same seed, same trace).
"""

from repro.runtime.backend import (
    BATCHED,
    SEQUENTIAL,
    ExecutionBackend,
    available_backends,
    get_backend,
)
from repro.runtime.driver import RoundDriver
from repro.runtime.config import (
    SweepConfig,
    add_sweep_options,
    resolve_legacy_config,
)
from repro.runtime.material import (
    MATERIAL_SOURCES,
    MaterialCursor,
    MaterialHandle,
    MaterialStore,
    OnlinePlan,
    Replenisher,
    SpendLedger,
    attached_material,
    ewma_burn_rate,
    extend_or_rebuild,
    online_pool_requirement,
    publish_material,
    replenish_amount,
    replenish_decision,
    resolve_material_source,
    warm_with_material,
    watermark_for,
)
from repro.runtime.pool import (
    PoolReport,
    SessionPool,
    TraceDigestUnavailable,
    TrialDisagreement,
    TrialResult,
    auto_chunksize,
    canonical_detail,
    compare_trace_digests,
    ensure_agreement,
    online_ranges_disjoint,
    record_online_spend,
    reports_match,
    resolve_workers,
    run_sbc_trial,
    run_voting_trial,
    sequential_loop,
    trace_digest,
)
from repro.runtime.scheduler import BatchScheduler
from repro.runtime.supervisor import (
    CHAOS_FOREVER,
    ChaosFault,
    ChaosInjected,
    ChaosPlan,
    DeadlinePolicy,
    RetryPolicy,
    Supervisor,
    SupervisorStats,
    SweepJournal,
)
from repro.runtime.sweep import ParallelSweep, SweepPlan, SweepVerification

__all__ = [
    "BATCHED",
    "BatchScheduler",
    "CHAOS_FOREVER",
    "ChaosFault",
    "ChaosInjected",
    "ChaosPlan",
    "DeadlinePolicy",
    "ExecutionBackend",
    "MATERIAL_SOURCES",
    "MaterialCursor",
    "MaterialHandle",
    "MaterialStore",
    "OnlinePlan",
    "ParallelSweep",
    "PoolReport",
    "Replenisher",
    "RetryPolicy",
    "RoundDriver",
    "SEQUENTIAL",
    "SessionPool",
    "SpendLedger",
    "Supervisor",
    "SupervisorStats",
    "SweepJournal",
    "SweepConfig",
    "SweepPlan",
    "SweepVerification",
    "TraceDigestUnavailable",
    "TrialDisagreement",
    "TrialResult",
    "add_sweep_options",
    "attached_material",
    "auto_chunksize",
    "available_backends",
    "canonical_detail",
    "compare_trace_digests",
    "ensure_agreement",
    "ewma_burn_rate",
    "extend_or_rebuild",
    "get_backend",
    "online_pool_requirement",
    "online_ranges_disjoint",
    "publish_material",
    "record_online_spend",
    "replenish_amount",
    "replenish_decision",
    "reports_match",
    "resolve_legacy_config",
    "resolve_material_source",
    "resolve_workers",
    "run_sbc_trial",
    "run_voting_trial",
    "sequential_loop",
    "trace_digest",
    "warm_with_material",
    "watermark_for",
]
