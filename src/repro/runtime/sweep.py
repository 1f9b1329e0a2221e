"""Multi-core sweep engine: shard one workload across process workers.

:class:`~repro.runtime.pool.SessionPool` knows how to fan a trial runner
out over inline/thread/process executors; :class:`ParallelSweep` is the
driver that turns that into a *planned* multi-core sweep for any
``(runner, task list)`` workload — repeated SBC trials, scenario-matrix
cells (each task is an index into a spec list), bench sweeps:

* it resolves an explicit or automatic chunk size (a few chunks per
  worker, so IPC is amortised without losing load balancing) and worker
  count, and exposes the resolved :class:`SweepPlan` for reports;
* every process worker runs the shared crypto warm-up initializer before
  its first task, so no trial pays fixed-base table construction;
* results keep deterministic task order whatever the executor, and
  :meth:`ParallelSweep.verify` re-runs the same tasks inline and checks
  seed-for-seed trace-digest equality — the determinism contract held by
  the single-core engine, now enforced across process boundaries.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional

from repro.runtime.config import SweepConfig, resolve_legacy_config
from repro.runtime.pool import (
    PoolReport,
    SessionPool,
    TrialResult,
    auto_chunksize,
    reports_match,
    resolve_workers,
    run_sbc_trial,
)

__all__ = ["ParallelSweep", "SweepPlan", "SweepVerification"]


@dataclass(frozen=True)
class SweepPlan:
    """The resolved execution shape of one sweep."""

    tasks: int
    executor: str
    workers: int
    chunksize: int
    max_tasks_per_child: Optional[int] = None
    warmup: bool = True
    #: Where worker warm-up caches come from (compute/disk/shared).
    material_source: str = "compute"
    #: Whether the chunk size re-plans mid-sweep from observed task times.
    adaptive: bool = False
    #: Whether trials spend the preprocessed randomness pools (online
    #: protocol mode; digests pinned separately from compute runs).
    online: bool = False
    #: Whether the online plan is offset by the persisted spend ledger
    #: (consume-forward mode: successive sweeps spend disjoint slices).
    consume_forward: bool = False
    #: Whether trials batch verification rounds through random-linear-
    #: combination multi-exps (digest-pinned via ``verify.batch`` events
    #: when the policy records them).
    batch_verify: bool = False

    @property
    def chunks(self) -> int:
        """Number of dispatch units the task list shards into.

        For an adaptive sweep this counts the *initial* sharding; the
        re-planner may split later waves differently (the executed shape
        lands in the report's adaptivity trace).
        """
        return -(-self.tasks // self.chunksize) if self.tasks else 0

    def summary(self, adaptivity: Optional[Any] = None) -> Dict[str, Any]:
        """Uniform record; pass a report's ``adaptivity`` trace to embed
        the executed re-chunking alongside the planned shape."""
        record = {
            "tasks": self.tasks,
            "executor": self.executor,
            "workers": self.workers,
            "chunksize": self.chunksize,
            "chunks": self.chunks,
            "max_tasks_per_child": self.max_tasks_per_child,
            "warmup": self.warmup,
            "material_source": self.material_source,
            "adaptive": self.adaptive,
            "online": self.online,
            "consume_forward": self.consume_forward,
            "batch_verify": self.batch_verify,
        }
        if adaptivity is not None:
            record["adaptivity"] = adaptivity
        return record


@dataclass
class SweepVerification:
    """A sweep report plus its inline reference and the digest verdict."""

    report: PoolReport
    reference: PoolReport
    matched: bool

    @property
    def speedup(self) -> float:
        """Inline wall time over sweep wall time (>1 means the sweep won)."""
        return self.reference.wall_time_s / max(self.report.wall_time_s, 1e-9)


class ParallelSweep:
    """Shard a ``(runner, task list)`` workload across worker processes.

    Args:
        runner: Module-level ``runner(task, **kwargs) -> TrialResult``;
            tasks are whatever the runner indexes by — seeds for protocol
            trials, list indices for scenario cells.
        config: A :class:`~repro.runtime.config.SweepConfig` with every
            execution knob (see that class for the reference).  The
            sweep's historical default executor is ``"process"`` — a
            config built here (from legacy keywords) inherits it; an
            explicit ``config=`` carries its own.
        runner_kwargs: Extra keyword arguments forwarded to the runner
            (e.g. ``specs=`` for the scenario-cell runner).  The
            execution knobs are also accepted as individual keywords for
            back compatibility; positional use is deprecated and warns.
    """

    def __init__(
        self,
        runner: Callable[..., TrialResult] = run_sbc_trial,
        *legacy: Any,
        config: Optional[SweepConfig] = None,
        **runner_kwargs: Any,
    ) -> None:
        # SweepConfig validates executor/chunksize/max_tasks_per_child/
        # material/online/batch_verify/consume_forward up front, so a bad
        # sweep fails at construction, not mid-fan-out.
        config, runner_kwargs = resolve_legacy_config(
            config,
            legacy,
            runner_kwargs,
            defaults={"executor": "process"},
            owner="ParallelSweep",
        )
        self._pool = SessionPool(runner=runner, config=config, **runner_kwargs)

    @property
    def executor(self) -> str:
        return self._pool.executor

    def plan(self, tasks: int) -> SweepPlan:
        """The execution shape :meth:`run` will use for ``tasks`` tasks."""
        executor = self._pool.executor
        if executor == "process":
            workers = resolve_workers(self._pool.workers)
            chunksize = self._pool.chunksize or auto_chunksize(tasks, workers)
            if self._pool.max_tasks_per_child is not None:
                chunksize = min(chunksize, self._pool.max_tasks_per_child)
        elif executor == "thread":
            # ThreadPoolExecutor's documented default when max_workers is
            # None; tasks interleave on these threads, chunking is moot.
            workers = self._pool.workers or min(32, (os.cpu_count() or 1) + 4)
            chunksize = 1
        else:
            workers = 1
            chunksize = 1
        return SweepPlan(
            tasks=tasks,
            executor=self._pool.executor,
            workers=workers,
            chunksize=chunksize,
            max_tasks_per_child=self._pool.max_tasks_per_child,
            warmup=self._pool.warmup,
            material_source=self._pool.material,
            adaptive=self._pool.adaptive and executor == "process",
            online=bool(self._pool.online),
            consume_forward=self._pool.consume_forward
            or bool(
                getattr(self._pool.online, "consume_forward", False)
            ),
            batch_verify=self._pool.batch_policy is not None,
        )

    def run(self, tasks: Iterable[Any]) -> PoolReport:
        """Execute every task; results come back in task order."""
        return self._pool.run(tasks)

    def _inline_reference(
        self,
        tasks: Optional[Iterable[Any]] = None,
        report: Optional[PoolReport] = None,
    ) -> SessionPool:
        """An inline pool with identical runner/backend/trace settings.

        Deliberately left on the default ``compute`` material: verify()
        then checks digest equality *across* material sources (attached
        tables in the sweep vs locally built ones in the reference),
        which is exactly the store's correctness contract.

        Online sweeps are the exception: the reference must *spend the
        same pool entries*, so it attaches the disk store (same blob the
        sweep published) and replays the sweep's exact
        :class:`~repro.runtime.material.OnlinePlan` — which is how
        pool-consuming process runs stay seed-for-seed verifiable.  When
        the executed ``report`` is available its resolved plan is reused
        verbatim; re-planning here would re-read the spend ledger, which
        a consume-forward sweep has already advanced, and the replay
        would land on different absolute slices than the recorded run.
        """
        batch_verify = self._pool.batch_policy or False
        if not self._pool.online:
            return SessionPool(
                runner=self._pool.runner,
                config=SweepConfig(
                    backend=self._pool.backend,
                    executor="inline",
                    batch_verify=batch_verify,
                    trace=self._pool.trace,
                ),
                **self._pool.runner_kwargs,
            )
        from repro.runtime.material import MATERIAL_DISK

        plan = getattr(report, "online_plan", None)
        if plan is None:
            plan = (
                self._pool.online
                if not isinstance(self._pool.online, bool)
                else self._pool._online_plan(list(tasks or ()))
            )
        return SessionPool(
            runner=self._pool.runner,
            config=SweepConfig(
                backend=self._pool.backend,
                executor="inline",
                material=MATERIAL_DISK,
                material_groups=self._pool.material_groups,
                online=plan,
                batch_verify=batch_verify,
                trace=self._pool.trace,
            ),
            **self._pool.runner_kwargs,
        )

    def verify(self, tasks: Iterable[Any]) -> SweepVerification:
        """Run the sweep *and* the inline reference; compare digests.

        Raises:
            ValueError: the task list is empty.
            TraceDigestUnavailable: the sweep ran trace-off (``light``),
                so there are no digests to compare.
        """
        tasks = list(tasks)
        report = self.run(tasks)
        reference = self._inline_reference(tasks, report=report).run(tasks)
        return SweepVerification(
            report=report,
            reference=reference,
            matched=reports_match(report, reference),
        )
