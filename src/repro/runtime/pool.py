"""Session pools: run N independent sessions through one driver.

Benchmarks and repeated-execution experiments (the [FKL08] workload) need
many independent executions — same protocol, different seeds or configs.
:class:`SessionPool` owns that loop: it maps a picklable *trial runner*
over a seed list, either inline (one driver, warm interpreter and crypto
tables) or via ``concurrent.futures`` workers, and collects uniform
:class:`TrialResult` records including a deterministic trace digest so
pooled and sequential runs can be byte-compared.
"""

from __future__ import annotations

import hashlib
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.runtime.backend import ExecutionBackend, get_backend
from repro.runtime.config import SweepConfig, resolve_legacy_config

# canonical_detail moved next to the Event type it renders; re-exported
# here (and from repro.runtime) for the existing import surface.
from repro.uc.trace import canonical_detail


def trace_digest(log) -> str:
    """Deterministic SHA-256 digest of an :class:`~repro.uc.trace.EventLog`.

    Hashes the ``(seq, time, kind, source, detail)`` tuples in execution
    order under :func:`canonical_detail`, so two sessions with identical
    traces digest equally even across processes with different hash seeds
    or dict insertion histories.

    Returns ``""`` for a trace-off (``light``) log — a constant hash there
    would make distinct executions compare equal, which is exactly the
    false positive a digest consumer must never see.
    """
    from repro.uc.trace import NullEventLog

    if isinstance(log, NullEventLog):
        return ""
    h = hashlib.sha256()
    for event in log:
        h.update(
            canonical_detail(
                (event.seq, event.time, event.kind, event.source, event.detail)
            ).encode()
        )
    return h.hexdigest()


class TraceDigestUnavailable(ValueError):
    """Both sides of a digest comparison ran trace-off (``light``) mode.

    An empty digest means "no trace was kept", so ``"" == ""`` says
    nothing about the two executions — a comparison that would silently
    pass for *any* pair of runs must error instead.
    """


def compare_trace_digests(left: str, right: str) -> bool:
    """Compare two :func:`trace_digest` values, refusing vacuous equality.

    Returns whether the digests match.  A one-sided empty digest simply
    compares unequal (one run kept a trace, the other did not).

    Raises:
        TraceDigestUnavailable: both digests are empty — both executions
            ran trace-off, so equality would be meaningless.
    """
    if not left and not right:
        raise TraceDigestUnavailable(
            "both digests are empty (trace-off executions); rerun under a "
            "full-trace backend or compare protocol outputs instead"
        )
    return left == right


def reports_match(left: "PoolReport", right: "PoolReport") -> bool:
    """Seed-for-seed digest comparison of two pool reports.

    Raises:
        ValueError: either report is empty (a zero-trial comparison would
            vacuously "match" any other empty run) or the reports cover
            different numbers of trials.
        TraceDigestUnavailable: any trial pair is empty on both sides.
    """
    if not left.results or not right.results:
        raise ValueError(
            "cannot compare empty pool reports (zero trials match vacuously)"
        )
    if len(left.results) != len(right.results):
        raise ValueError(
            f"reports cover {len(left.results)} vs {len(right.results)} trials"
        )
    return all(
        compare_trace_digests(a.digest, b.digest)
        for a, b in zip(left.results, right.results)
    )


@dataclass(frozen=True)
class TrialResult:
    """Picklable summary of one pooled session execution.

    Attributes:
        seed: The session seed this trial ran under.
        wall_time_s: Wall-clock seconds for build + run.
        rounds: Rounds the global clock advanced.
        messages: Total messages counted by the session metrics.
        digest: Trace digest (empty string when tracing is off).
        outputs: Compact, picklable summary of the protocol outputs.
        online: Pool-spend summary for online-mode trials (the cursor's
            fingerprint, reserved ranges and consumed/sampled counts);
            ``None`` for sample-per-call trials.
    """

    seed: int
    wall_time_s: float
    rounds: int
    messages: int
    digest: str
    outputs: Any = None
    online: Optional[Dict[str, Any]] = None


class TrialDisagreement(AssertionError):
    """Honest parties of one pooled trial delivered different outputs.

    Agreement is the protocol's core guarantee; a pooled sweep that only
    summarised one party's view could silently archive a disagreeing
    execution.  Trial runners call :func:`ensure_agreement` before
    summarising so such a trial aborts the sweep loudly instead.
    """


def ensure_agreement(delivered: Dict[str, Any], seed: Optional[int] = None) -> Any:
    """Assert every party's delivered view matches; return the common view.

    Args:
        delivered: pid -> delivered outputs (honest parties only).
        seed: Optional trial seed, included in the error message.

    Raises:
        ValueError: ``delivered`` is empty (no honest view to agree on).
        TrialDisagreement: at least two parties delivered different views.
    """
    if not delivered:
        raise ValueError("no delivered views: cannot check agreement")
    items = sorted(delivered.items())
    reference_pid, reference = items[0]
    disagreeing = {
        pid: view for pid, view in items[1:] if view != reference
    }
    if disagreeing:
        trial = f" (seed={seed})" if seed is not None else ""
        raise TrialDisagreement(
            f"honest parties disagree{trial}: {reference_pid}={reference!r} "
            f"vs {disagreeing!r}"
        )
    return reference


#: Trace-event kind under which a trial records its pool consumption.
ONLINE_EVENT_KIND = "online.spend"


def record_online_spend(session, cursor) -> Optional[Dict[str, Any]]:
    """Log one trial's pool consumption into its execution trace.

    The spend summary (pool fingerprint, reserved cursor ranges,
    consumed/sampled counts) becomes an ordinary trace event, so the
    trial's digest pins *which* pool entries the run spent — two
    pool-consuming runs only digest-equal when they spent the same
    entries of the same material, and a pool-consuming run can never
    digest-equal a sample-per-call run.  Returns the summary for the
    :class:`TrialResult`; ``cursor=None`` (an offline trial) records
    nothing and returns ``None``, so runners need no conditional.  A
    ``light``-trace session records nothing (its digest is empty
    anyway) but still returns the summary.
    """
    if cursor is None:
        return None
    summary = cursor.spend_summary()
    session.log.record(
        time=session.clock.time,
        kind=ONLINE_EVENT_KIND,
        source="runtime.material",
        detail=summary,
    )
    return summary


def run_sbc_trial(
    seed: int,
    n: int = 3,
    mode: str = "hybrid",
    phi: int = 4,
    delta: Optional[int] = None,
    senders: int = 1,
    backend: Union[str, ExecutionBackend] = "sequential",
    trace: Optional[str] = None,
    online: Optional[Any] = None,
    batch: Optional[Any] = None,
) -> TrialResult:
    """Run one full SBC session end to end and summarise it.

    Module-level (hence picklable) so :class:`SessionPool` can dispatch it
    to ``concurrent.futures`` process workers.  With ``online`` (an
    :class:`~repro.runtime.material.OnlinePlan`) the trial spends its
    reserved slice of the preprocessed randomness pools and records the
    consumed cursor ranges in the trace.  With ``batch`` (a
    :class:`~repro.crypto.batch.BatchPolicy`) verification-heavy rounds
    batch their checks through one random-linear-combination multi-exp.
    """
    from repro.core.stacks import build_sbc_stack, mode_delta
    from repro.crypto.batch import batching
    from repro.crypto.randomness import spending

    cursor = online.open(seed) if online is not None else None
    start = time.perf_counter()
    with spending(cursor), batching(batch):
        stack = build_sbc_stack(
            n=n, mode=mode, seed=seed, phi=phi,
            delta=mode_delta(mode) if delta is None else delta, backend=backend,
            trace=trace,
        )
        for index in range(senders):
            stack.parties[f"P{index % n}"].broadcast(f"m{seed}-{index}".encode())
        stack.run_until_delivery()
    online_record = record_online_spend(stack.session, cursor)
    elapsed = time.perf_counter() - start
    delivered = stack.delivered()
    honest_views = {
        pid: batch
        for pid, batch in delivered.items()
        if not stack.session.is_corrupted(pid)
    }
    agreed = ensure_agreement(honest_views, seed=seed)
    return TrialResult(
        seed=seed,
        wall_time_s=elapsed,
        rounds=stack.session.metrics.get("rounds.advanced"),
        messages=stack.session.metrics.get("messages.total"),
        digest=trace_digest(stack.session.log),
        outputs=repr(agreed),
        online=online_record,
    )


def run_voting_trial(
    seed: int,
    voters: int = 3,
    candidates: Tuple[str, ...] = ("yes", "no"),
    mode: str = "hybrid",
    delta: Optional[int] = None,
    backend: Union[str, ExecutionBackend] = "sequential",
    trace: Optional[str] = None,
    online: Optional[Any] = None,
    batch: Optional[Any] = None,
) -> TrialResult:
    """Run one self-tallying election end to end and summarise it.

    The election workload is the sweep engine's proof-of-spend: every
    ballot carries a disjunctive Σ-protocol validity proof, so each
    trial burns real nonces — sampled per call by default, spent from
    the trial's reserved pool slice under an
    :class:`~repro.runtime.material.OnlinePlan`.  Module-level (hence
    picklable) for process fan-out, like :func:`run_sbc_trial`.  With
    ``batch`` (a :class:`~repro.crypto.batch.BatchPolicy`) the tally
    round verifies certificates and ballot proofs through one
    random-linear-combination batch per voter.
    """
    from repro.core.stacks import build_voting_stack, mode_delta
    from repro.crypto.batch import batching
    from repro.crypto.randomness import spending

    candidates = tuple(candidates)
    cursor = online.open(seed) if online is not None else None
    start = time.perf_counter()
    with spending(cursor), batching(batch):
        stack = build_voting_stack(
            voters=voters, mode=mode, seed=seed, candidates=candidates,
            delta=mode_delta(mode) if delta is None else delta,
            backend=backend, trace=trace,
        )
        if mode == "ideal":
            stack.service.init()
        else:
            for authority in stack.authorities.values():
                authority.deal()
            stack.run_rounds(1)
        for index in range(voters):
            stack.parties[f"V{index}"].vote(candidates[index % len(candidates)])
        stack.run_until_result()
    online_record = record_online_spend(stack.session, cursor)
    elapsed = time.perf_counter() - start
    honest_tallies = {
        pid: tuple(sorted(tally.items()))
        for pid, tally in stack.results().items()
        if not stack.session.is_corrupted(pid)
    }
    agreed = ensure_agreement(honest_tallies, seed=seed)
    return TrialResult(
        seed=seed,
        wall_time_s=elapsed,
        rounds=stack.session.metrics.get("rounds.advanced"),
        messages=stack.session.metrics.get("messages.total"),
        digest=trace_digest(stack.session.log),
        outputs=repr(agreed),
        online=online_record,
    )


def online_ranges_disjoint(results: Sequence[Any]) -> Tuple[bool, int]:
    """Check that no two trial spend records overlap pool ranges.

    Returns ``(disjoint, spends_checked)`` over every result carrying an
    ``online`` spend summary that actually *spent* (sampled-only records
    reserve nothing).  This is the zero-double-spend evidence ``repro
    serve --online`` reports and exits 1 on.
    """
    pools = (("nonce_range", "nonces_spent"), ("feldman_range", "feldman_spent"))
    spans_by_pool: Dict[str, List[Tuple[int, int]]] = {pool: [] for pool, _ in pools}
    for result in results:
        record = getattr(result, "online", None)
        if not record:
            continue
        for pool, spent_key in pools:
            lo_hi = record.get(pool)
            spent = int(record.get(spent_key, 0))
            if lo_hi and spent:
                spans_by_pool[pool].append((int(lo_hi[0]), int(lo_hi[0]) + spent))
    checked = 0
    disjoint = True
    # The two pools are separate index spaces: a session's nonce slice
    # legitimately shares indices with its own feldman slice, so overlap
    # is only ever checked within one pool.
    for spans in spans_by_pool.values():
        spans.sort()
        checked += len(spans)
        for (_, prev_hi), (lo, _) in zip(spans, spans[1:]):
            if lo < prev_hi:
                disjoint = False
    return disjoint, checked


@dataclass
class PoolReport:
    """Aggregate view over one :meth:`SessionPool.run`."""

    backend: str
    executor: str
    wall_time_s: float
    results: List[TrialResult] = field(default_factory=list)
    #: Worker count / chunk size actually used (None for inline runs).
    workers: Optional[int] = None
    chunksize: Optional[int] = None
    #: Where worker crypto caches came from (compute/disk/shared).
    material_source: Optional[str] = None
    #: Per-wave re-chunking trace for adaptive sweeps (None otherwise).
    adaptivity: Optional[List[Dict[str, Any]]] = None
    #: Aggregate pool consumption for online-mode sweeps (None otherwise).
    online_spend: Optional[Dict[str, int]] = None
    #: The resolved :class:`~repro.runtime.material.OnlinePlan` the sweep
    #: executed (None for offline sweeps).  Verification replays must
    #: reuse this exact plan: re-planning a consume-forward sweep would
    #: read the already-advanced ledger and reserve *different* slices,
    #: so the replay would spend different absolute entries and the
    #: digest check could never pass.  Not part of :meth:`summary`.
    online_plan: Optional[Any] = None
    #: Degradation counters from the supervised process fan-out
    #: (retries/respawns/quarantined + events; see
    #: :class:`~repro.runtime.supervisor.SupervisorStats`).  Always set
    #: for process runs — zeros are the honest "nothing degraded" —
    #: and ``None`` for inline/thread executors.
    supervision: Optional[Dict[str, Any]] = None
    #: Trials restored from a :class:`~repro.runtime.supervisor.SweepJournal`
    #: instead of executed (``repro sweep --resume``).
    resumed: int = 0

    @property
    def sessions(self) -> int:
        return len(self.results)

    @property
    def total_rounds(self) -> int:
        return sum(result.rounds for result in self.results)

    @property
    def total_messages(self) -> int:
        return sum(result.messages for result in self.results)

    def summary(self) -> Dict[str, Any]:
        """Uniform record for benchmark JSON emission.

        Raises:
            ValueError: the report is empty — ``sessions=0`` rows have
                repeatedly masked sweeps that silently ran nothing.
        """
        if not self.results:
            raise ValueError("empty pool report: the sweep executed no trials")
        record = {
            "backend": self.backend,
            "executor": self.executor,
            "sessions": self.sessions,
            "wall_time_s": round(self.wall_time_s, 6),
            "rounds": self.total_rounds,
            "messages": self.total_messages,
        }
        if self.workers is not None:
            record["workers"] = self.workers
        if self.chunksize is not None:
            record["chunksize"] = self.chunksize
        if self.material_source is not None:
            record["material_source"] = self.material_source
        if self.adaptivity is not None:
            # The full per-wave trace lives on ``adaptivity`` (and in
            # SweepPlan.summary(adaptivity=...)); the flat record only
            # says how many times the sweep re-chunked.
            record["adaptive_waves"] = len(self.adaptivity)
        if self.online_spend is not None:
            record["online"] = True
            record.update(self.online_spend)
        if self.supervision is not None:
            # Degradation is part of the honest record: a reference-perf
            # row that silently retried its way to the finish line is
            # not comparable to a clean one.
            record["retries"] = int(self.supervision.get("retries", 0))
            record["respawns"] = int(self.supervision.get("respawns", 0))
            record["quarantined"] = int(self.supervision.get("quarantined", 0))
        if self.resumed:
            record["resumed"] = self.resumed
        return record


#: Target task chunks per worker for auto-chunked process fan-out; a few
#: chunks per worker amortise IPC while still balancing uneven trials.
CHUNKS_PER_WORKER = 4


def resolve_workers(workers: Optional[int]) -> int:
    """Effective worker count: the explicit value or every available core."""
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return workers
    return os.cpu_count() or 1


def auto_chunksize(tasks: int, workers: int) -> int:
    """Chunk size yielding ~:data:`CHUNKS_PER_WORKER` chunks per worker.

    One task per IPC round-trip (``chunksize=1``) dominates small-session
    sweeps with pickling overhead; one chunk per worker loses load
    balancing.  The middle ground ships ceil(tasks / (workers * 4)) tasks
    per dispatch.
    """
    if tasks <= 0:
        return 1
    return max(1, -(-tasks // (max(1, workers) * CHUNKS_PER_WORKER)))


def _warm_worker(
    backend: Union[str, ExecutionBackend, None] = None,
    material: Any = None,
    arith: Optional[str] = None,
) -> None:
    """Process-pool initializer: pre-build shared per-process caches.

    Runs once per worker process via the backend's
    :meth:`~repro.runtime.backend.ExecutionBackend.warm_up` hook, so every
    trial dispatched to the worker finds the fixed-base window tables and
    encoding caches already populated instead of paying table construction
    inside its first session.  With a published
    :class:`~repro.runtime.material.MaterialHandle` the tables are
    *attached* (shared memory or mmap) instead of recomputed, which takes
    cold-start warm-up off the sweep's critical path.  ``arith`` carries
    the parent's arithmetic-backend selection into the worker (values are
    identical across backends, so a worker that cannot honour it warns
    and falls back rather than failing the sweep).  Module-level (hence
    picklable) by construction.
    """
    get_backend(backend).warm_up(material, arith=arith)


# -- adaptive chunking -------------------------------------------------------

#: Wall-clock seconds one dispatched chunk should aim to cost.  Scenario
#: cells vary ~10x between the cheapest (`ubc`) and the dearest
#: (`sbc-composed`), so a fixed chunk size either starves workers on
#: heavy cells or drowns light ones in IPC; the re-planner sizes chunks
#: so each dispatch stays near this budget.
ADAPTIVE_TARGET_CHUNK_S = 0.2

#: EWMA smoothing factor for observed per-task wall time.
ADAPTIVE_EWMA_ALPHA = 0.5

#: Bound on how far one re-plan may move the chunk size (x or /).
ADAPTIVE_MAX_STEP = 4

#: Chunks per worker dispatched between re-plans; each wave is a small
#: barrier, so a couple of chunks per worker keeps stragglers short while
#: giving the EWMA enough samples to be worth re-planning on.
ADAPTIVE_CHUNKS_PER_WAVE = 2


def _observed_task_seconds(results: Sequence[Any], elapsed: float) -> float:
    """Mean per-task seconds for one wave, preferring in-task timings.

    :class:`TrialResult` carries the task's own build+run wall time,
    which excludes IPC and pickling; runners returning something else
    fall back to wave wall time over task count.
    """
    timings = [
        result.wall_time_s
        for result in results
        if getattr(result, "wall_time_s", None) is not None
    ]
    if timings:
        return sum(timings) / len(timings)
    return elapsed / max(len(results), 1)


def _replan_chunksize(
    current: int,
    ewma_task_s: float,
    max_tasks_per_child: Optional[int],
) -> int:
    """Next wave's chunk size, bounded so one re-plan can't overshoot.

    The move is clamped to a factor of :data:`ADAPTIVE_MAX_STEP` per
    wave, and under worker recycling the size may only shrink — the
    recycle bound was translated into chunk units from the size the pool
    started with, so growing a chunk later could push one worker past
    its per-worker trial budget.
    """
    if ewma_task_s <= 0:
        return current
    desired = max(1, round(ADAPTIVE_TARGET_CHUNK_S / ewma_task_s))
    bounded = max(
        max(1, current // ADAPTIVE_MAX_STEP),
        min(desired, current * ADAPTIVE_MAX_STEP),
    )
    if max_tasks_per_child is not None:
        bounded = min(bounded, current)
    return bounded


class SessionPool:
    """Run many independent sessions (different seeds) through one driver.

    Args:
        runner: ``runner(seed, **kwargs) -> TrialResult`` (or any picklable
            result).  Must be a module-level callable for process workers.
        config: A :class:`~repro.runtime.config.SweepConfig` holding
            every execution knob (backend, executor, workers, material,
            online, supervision, ...) — see that class for the full
            reference; validation lives in its ``__post_init__``.
        **runner_kwargs: Forwarded verbatim to ``runner`` on every
            trial.  For back compatibility the execution knobs are also
            accepted as individual keywords (``executor="process"``,
            ``online=True``, ...); they build a config internally.
            Passing them positionally is deprecated and warns.
    """

    def __init__(
        self,
        runner: Callable[..., TrialResult] = run_sbc_trial,
        *legacy: Any,
        config: Optional[SweepConfig] = None,
        **runner_kwargs: Any,
    ) -> None:
        config, runner_kwargs = resolve_legacy_config(
            config,
            legacy,
            runner_kwargs,
            defaults={"executor": "inline"},
            owner="SessionPool",
        )
        self.config = config
        self.runner = runner
        self.backend = get_backend(config.backend)
        self.executor = config.executor
        self.workers = config.workers
        self.chunksize = config.chunksize
        self.max_tasks_per_child = config.max_tasks_per_child
        self.warmup = config.warmup
        self.material = config.material
        self.material_groups = config.material_groups
        self.adaptive = config.adaptive
        self.online = config.online
        self.consume_forward = config.consume_forward
        self.batch_policy = config.batch_policy
        self.retry_policy = config.retry
        self.deadline_policy = config.deadline
        self.chaos_plan = config.chaos
        self.journal = config.journal
        self.resume = config.resume
        self.trace = config.trace
        self.runner_kwargs = dict(runner_kwargs)

    def _online_plan(self, seeds: Sequence[Any]) -> Optional[Any]:
        """Resolve this sweep's :class:`OnlinePlan` (or ``None``).

        ``online=True`` plans positionally over ``seeds`` against the
        first material group; an explicit plan passes through untouched
        (the caller owns slot assignment — and the reference replay of a
        ``verify()`` must reuse the sweep's exact plan).
        """
        if not self.online:
            return None
        from repro.runtime.material import OnlinePlan

        if isinstance(self.online, OnlinePlan):
            return self.online
        from repro.crypto.groups import TEST_GROUP

        group = (self.material_groups or (TEST_GROUP,))[0]
        return OnlinePlan.for_tasks(
            seeds, group=group, consume_forward=self.consume_forward
        )

    @staticmethod
    def _spend_totals(results: Sequence[Any]) -> Tuple[Dict[str, int], int, int]:
        """Traffic sums plus observed reach over a set of trial results."""
        totals = {
            "nonces_spent": 0,
            "feldman_spent": 0,
            "nonces_sampled": 0,
            "feldman_sampled": 0,
        }
        nonce_reach = 0
        feldman_reach = 0
        for result in results:
            record = getattr(result, "online", None)
            if record:
                for key in totals:
                    totals[key] += int(record.get(key, 0))
                nonce_range = record.get("nonce_range") or (0, 0)
                feldman_range = record.get("feldman_range") or (0, 0)
                spent = int(record.get("nonces_spent", 0))
                if spent:
                    nonce_reach = max(nonce_reach, int(nonce_range[0]) + spent)
                spent = int(record.get("feldman_spent", 0))
                if spent:
                    feldman_reach = max(
                        feldman_reach, int(feldman_range[0]) + spent
                    )
        return totals, nonce_reach, feldman_reach

    def _aggregate_online(
        self,
        plan: Any,
        results: Sequence[Any],
        ledgered: Optional[Sequence[Any]] = None,
    ) -> Dict[str, int]:
        """Sum per-trial spend records and ledger them against the store.

        Besides the traffic sums, the ledger gets the *observed reach*:
        the largest absolute pool index any trial actually consumed
        through (its reserved range's start plus what it spent).  High
        marks merge by ``max``, so for consume-forward sweeps this never
        exceeds the reservation made at plan time, and for classic
        sweeps it records how deep into the pool slot-0-based plans have
        actually reached — the number ``inspect`` subtracts to report
        true remaining capacity.

        ``ledgered`` restricts what is *recorded* (not what is summed
        for the report): a resumed sweep reports totals over every
        trial, but only its freshly-executed trials may ledger spend —
        the journaled ones were ledgered by the run that executed them,
        and re-adding their traffic would double-count it.
        """
        totals, _, _ = self._spend_totals(results)
        recorded, nonce_reach, feldman_reach = self._spend_totals(
            results if ledgered is None else ledgered
        )
        try:
            from repro.runtime.material import MaterialStore

            MaterialStore().record_spend(
                plan.fingerprint,
                nonces=recorded["nonces_spent"],
                feldman=recorded["feldman_spent"],
                nonce_high=nonce_reach,
                feldman_high=feldman_reach,
                material_seed=plan.material_seed,
            )
        except OSError as exc:
            # Advisory bookkeeping must never fail a finished sweep — but
            # a ledger that silently stops advancing breaks the next
            # consume-forward run's disjointness, so say it degraded.
            warnings.warn(
                f"could not record online spend in the material ledger ({exc}); "
                "the next consume-forward sweep may re-spend these pool slices",
                RuntimeWarning,
                stacklevel=2,
            )
        return totals

    def _call_kwargs(self) -> Dict[str, Any]:
        kwargs = dict(self.runner_kwargs)
        # Forward the backend *instance* (frozen dataclass, picklable), not
        # its name: with_trace() overrides and unregistered custom backends
        # must survive the trip into the runner.
        kwargs.setdefault("backend", self.backend)
        if self.trace is not None:
            kwargs.setdefault("trace", self.trace)
        return kwargs

    def _process_map(
        self,
        bound: Callable[..., TrialResult],
        seeds: Sequence[int],
        chunksize: int,
        workers: int,
        material_handle: Any = None,
        adaptivity: Optional[List[Dict[str, Any]]] = None,
        journal: Optional[Any] = None,
    ) -> Tuple[List[Optional[TrialResult]], Any]:
        """Supervised chunked process fan-out; input order preserved.

        Every chunk is dispatched via ``apply_async`` under a
        :class:`~repro.runtime.supervisor.Supervisor` with a bounded
        per-chunk wait, so a SIGKILL-ed, hung or crashing worker costs
        a retry (and possibly a pool respawn or a quarantined task),
        never the sweep.  Worker recycling stays on
        ``multiprocessing.Pool``'s ``maxtasksperchild`` — an exact
        per-worker bound, available on every supported Python, unlike
        ``ProcessPoolExecutor(max_tasks_per_child=...)`` (3.11+, and
        observed to deadlock on recycle in 3.11.7).  The pool counts
        one ``apply_async`` chunk as one task, so the bound is
        expressed in chunk units; run() already clamps the chunk size
        to ``max_tasks_per_child``, and adaptive re-plans only ever
        shrink chunks under recycling (see ``_replan_chunksize``), so
        the bound holds for every wave.

        Returns ``(results, stats)``; quarantined tasks appear as
        ``None`` at their position.
        """
        from repro.crypto.groups import get_arith_backend
        from repro.runtime.supervisor import Supervisor

        initargs = (self.backend, material_handle, get_arith_backend().name)
        chunks_per_child: Optional[int] = None
        if self.max_tasks_per_child is not None:
            chunks_per_child = max(1, self.max_tasks_per_child // chunksize)
        supervisor = Supervisor(
            workers=workers,
            initializer=_warm_worker if self.warmup else None,
            initargs=initargs if self.warmup else (),
            max_chunks_per_child=chunks_per_child,
            retry=self.retry_policy,
            deadline=self.deadline_policy,
            chaos=self.chaos_plan,
            on_chunk=journal.append_chunk if journal is not None else None,
        )
        try:
            results = self._drive_map(
                lambda tasks, size: supervisor.map(bound, tasks, size),
                seeds, chunksize, workers, adaptivity,
            )
        finally:
            supervisor.close()
        return results, supervisor.stats

    def _drive_map(
        self,
        mapper: Callable[[Sequence[int], int], List[TrialResult]],
        seeds: Sequence[int],
        chunksize: int,
        workers: int,
        adaptivity: Optional[List[Dict[str, Any]]],
    ) -> List[TrialResult]:
        """One map call, or adaptive waves of them over a live pool.

        Adaptive mode dispatches the task list in waves of a few chunks
        per worker against the *same* pool (workers stay warm), measures
        each wave's per-task wall time, and re-plans the next wave's
        chunk size toward :data:`ADAPTIVE_TARGET_CHUNK_S`.  Waves run in
        task order and ``map`` preserves order within a wave, so results
        are position-identical to the single-map path — digest
        comparisons never see the difference.
        """
        if adaptivity is None:
            return mapper(seeds, chunksize)
        results: List[TrialResult] = []
        ewma: Optional[float] = None
        index = 0
        wave = 0
        while index < len(seeds):
            width = max(1, chunksize * workers * ADAPTIVE_CHUNKS_PER_WAVE)
            wave_tasks = seeds[index : index + width]
            start = time.perf_counter()
            wave_results = mapper(wave_tasks, chunksize)
            elapsed = time.perf_counter() - start
            results.extend(wave_results)
            index += len(wave_tasks)
            observed = _observed_task_seconds(wave_results, elapsed)
            ewma = (
                observed
                if ewma is None
                else ADAPTIVE_EWMA_ALPHA * observed + (1 - ADAPTIVE_EWMA_ALPHA) * ewma
            )
            adaptivity.append(
                {
                    "wave": wave,
                    "tasks": len(wave_tasks),
                    "chunksize": chunksize,
                    "ewma_task_s": round(ewma, 6),
                }
            )
            wave += 1
            if index < len(seeds):
                chunksize = _replan_chunksize(
                    chunksize, ewma, self.max_tasks_per_child
                )
        return results

    def _journal_config(self, seeds: Sequence[Any]) -> Dict[str, Any]:
        """What must match between a journaled run and its resume.

        Anything digest-relevant is pinned (runner, backend, trace,
        task list, protocol-mode flags, the runner kwargs via a
        canonical digest); execution-shape knobs (workers, chunksize)
        are deliberately absent — resuming on a differently-sized box
        is the point of the journal.
        """
        return {
            "runner": f"{self.runner.__module__}.{self.runner.__qualname__}",
            "backend": self.backend.name,
            "trace": self.trace,
            "online": bool(self.online),
            "consume_forward": self.consume_forward,
            "batch_verify": self.batch_policy is not None,
            "kwargs_digest": hashlib.sha256(
                canonical_detail(self.runner_kwargs).encode()
            ).hexdigest(),
            "tasks": list(seeds),
        }

    def _journal_open(
        self, seeds: Sequence[Any]
    ) -> Tuple[Optional[Any], Dict[Any, TrialResult], Optional[Any], bool]:
        """Open/resume the sweep journal; resolve the online plan.

        Returns ``(journal, resumed_results, online_plan, planned)``.
        On resume the journaled plan is reconstructed and replayed
        verbatim — re-planning would re-read the ledger the original
        run already advanced (and re-reserve a consume-forward range),
        a double-spend.  ``planned`` is False exactly then, telling
        run() the plan was restored, not freshly reserved.
        """
        if self.journal is None:
            return None, {}, self._online_plan(seeds), True
        from repro.runtime.supervisor import (
            SweepJournal,
            plan_from_record,
            plan_to_record,
            trial_result_from_record,
        )

        journal = SweepJournal(self.journal)
        if not self.resume:
            online_plan = self._online_plan(seeds)
            journal.begin(
                self._journal_config(seeds),
                plan_to_record(online_plan) if online_plan is not None else None,
            )
            return journal, {}, online_plan, True
        header, records = journal.load()
        expected = self._journal_config(seeds)
        if header.get("config") != expected:
            raise ValueError(
                f"sweep journal {journal.path} was written by a different "
                "sweep configuration; resume refused (splicing its results "
                "into this run would mix workloads)"
            )
        plan_record = header.get("plan")
        online_plan = (
            plan_from_record(plan_record) if plan_record is not None else None
        )
        resumed: Dict[Any, TrialResult] = {}
        for record in records:
            for task, payload in zip(record["tasks"], record["results"]):
                resumed[task] = trial_result_from_record(payload)
        return journal, resumed, online_plan, False

    def run(self, seeds: Iterable[int]) -> PoolReport:
        """Execute one trial per seed; returns the aggregate report.

        Results always come back in seed order, whatever the executor,
        so seed-for-seed digest comparison against an inline run needs
        no re-sorting.  Under the supervised process executor a
        quarantined poison task is *omitted* from the results (its
        identity lands in ``report.supervision["quarantined_tasks"]``)
        — the honest partial report the sweep completes with instead
        of crashing.
        """
        from repro.runtime.material import publish_material

        seeds = list(seeds)
        kwargs = self._call_kwargs()
        journal, resumed, online_plan, _ = self._journal_open(seeds)
        if online_plan is not None:
            kwargs["online"] = online_plan
        if self.batch_policy is not None:
            kwargs["batch"] = self.batch_policy
        used_workers: Optional[int] = None
        used_chunksize: Optional[int] = None
        adaptivity: Optional[List[Dict[str, Any]]] = None
        supervision: Optional[Dict[str, Any]] = None
        fresh_results: Optional[List[TrialResult]] = None
        start = time.perf_counter()
        if self.executor == "inline":
            if self.material != "compute" and self.warmup:
                self.backend.warm_up(self.material)
            results = [self.runner(seed, **kwargs) for seed in seeds]
        else:
            import functools

            bound = functools.partial(self.runner, **kwargs)
            if self.executor == "thread":
                import concurrent.futures as futures

                if self.material != "compute" and self.warmup:
                    # Threads share this process's caches: attach once here.
                    self.backend.warm_up(self.material)
                used_workers = self.workers
                with futures.ThreadPoolExecutor(max_workers=self.workers) as pool:
                    # Thread trials run in-process: no worker can be
                    # OOM-killed or leak, so the unbounded map is the
                    # honest simple thing.  # repro: allow[RPR007]
                    results = list(pool.map(bound, seeds))
            else:
                used_workers = resolve_workers(self.workers)
                used_chunksize = self.chunksize or auto_chunksize(
                    len(seeds), used_workers
                )
                if self.max_tasks_per_child is not None:
                    # A chunk larger than the recycle bound could never be
                    # dispatched without exceeding it.
                    used_chunksize = min(used_chunksize, self.max_tasks_per_child)
                if self.adaptive:
                    adaptivity = []
                remaining = [seed for seed in seeds if seed not in resumed]
                mapped: List[Optional[TrialResult]] = []
                if remaining:
                    # No warm-up means no attach: publishing material that
                    # no worker will read would waste the offline build
                    # inside the timed region and misreport the source.
                    if self.warmup:
                        handle, release = publish_material(
                            self.material, groups=self.material_groups
                        )
                    else:
                        handle, release = None, lambda: None
                    try:
                        mapped, stats = self._process_map(
                            bound, remaining, used_chunksize, used_workers,
                            material_handle=handle, adaptivity=adaptivity,
                            journal=journal,
                        )
                    finally:
                        release()
                    supervision = stats.to_record()
                else:
                    from repro.runtime.supervisor import SupervisorStats

                    supervision = SupervisorStats().to_record()
                fresh_results = [result for result in mapped if result is not None]
                fresh_iter = iter(mapped)
                results = []
                for seed in seeds:
                    if seed in resumed:
                        results.append(resumed[seed])
                    else:
                        result = next(fresh_iter)
                        if result is not None:
                            results.append(result)
        elapsed = time.perf_counter() - start
        # Process reports always say where worker caches came from;
        # inline/thread runs only mention material when they attached any,
        # and a warmup-less sweep attached nothing whatever was asked.
        material_source: Optional[str] = self.material
        if not self.warmup:
            material_source = "compute" if self.executor == "process" else None
        elif self.executor != "process" and self.material == "compute":
            material_source = None
        online_spend = (
            self._aggregate_online(online_plan, results, ledgered=fresh_results)
            if online_plan is not None
            else None
        )
        return PoolReport(
            backend=self.backend.name,
            executor=self.executor,
            wall_time_s=elapsed,
            results=results,
            workers=used_workers,
            chunksize=used_chunksize,
            material_source=material_source,
            adaptivity=adaptivity,
            online_spend=online_spend,
            online_plan=online_plan,
            supervision=supervision,
            resumed=len(resumed),
        )


def sequential_loop(
    seeds: Sequence[int],
    runner: Callable[..., TrialResult] = run_sbc_trial,
    **runner_kwargs: Any,
) -> PoolReport:
    """The naive baseline: a plain loop on the reference backend.

    This is what benchmarks compare :class:`SessionPool` against — each
    session cold-started under the ``sequential`` backend with full
    tracing, exactly as the pre-runtime engine ran them.
    """
    runner_kwargs.setdefault("backend", "sequential")
    start = time.perf_counter()
    results = [runner(seed, **runner_kwargs) for seed in seeds]
    elapsed = time.perf_counter() - start
    return PoolReport(
        backend="sequential",
        executor="loop",
        wall_time_s=elapsed,
        results=list(results),
    )
