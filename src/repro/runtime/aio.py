"""Asyncio event-driven execution backend and session host.

The synchronous drivers *poll*: every round, :class:`SequentialRoundDriver`
walks the activation order and each functionality drains its scheduler
queues wholesale.  This module turns the same round structure into an
*event-driven* engine:

* every party owns an :class:`asyncio.Queue` mailbox; message deliveries
  are mirrored into it by the scheduler's enqueue listener, so a party's
  step coroutine *awaits* its wake-up instead of being polled;
* round timing runs on a :class:`VirtualClock` — ``FaultPlan``-style
  delays and per-step ordering become ``await`` points on a heap of
  virtual deadlines, never wall-clock sleeps, so digests stay
  deterministic and a thousand concurrent sessions cost no idle time;
* CPU-bound session work can be offloaded through
  ``loop.run_in_executor`` to warmed thread/process pools
  (:class:`AsyncSessionHost`), reusing the same ``_warm_worker``
  initializer the sweep engine ships.

The digest contract is the whole point: :class:`AsyncRoundDriver` fires
its virtual deadlines in strict step order, one step at a time, so the
observable event sequence — input actions in global order, then
activations in activation order, with the same corruption re-checks — is
byte-identical to :class:`SequentialRoundDriver` for any fixed seed.
The differential suite enforces this for every stack builder.

:class:`AsyncSessionHost` is the service-mode entry point (``repro
serve``): it hosts N sessions concurrently on one loop — as coroutines
(:func:`async_sbc_session` / :func:`async_voting_session`) or as
executor-offloaded sync trials — and leases each session a disjoint
online-pool slot through
:class:`~repro.runtime.material.HostSlotAllocator`, so concurrent
sessions can never double-spend preprocessed randomness.
"""

from __future__ import annotations

import asyncio
import functools
import heapq
import inspect
import itertools
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.runtime.backend import ExecutionBackend, get_backend, register_backend
from repro.runtime.config import SweepConfig
from repro.runtime.driver import Action, RoundDriver
from repro.runtime.pool import (
    TrialResult,
    ensure_agreement,
    record_online_spend,
    trace_digest,
)

__all__ = [
    "ASYNC",
    "AsyncExecutionBackend",
    "AsyncRoundDriver",
    "AsyncSessionHost",
    "HostReport",
    "VirtualClock",
    "async_sbc_session",
    "async_voting_session",
    "online_ranges_disjoint",
]


#: Wall-clock bound on any single awaited step/wake-up.  The conductor
#: fires deadlines promptly, so in a healthy run these never trip; they
#: exist so a wedged session (a step that never signals completion, a
#: mailbox that never fills) fails loudly instead of hanging the host.
STEP_TIMEOUT_S = 300.0


class VirtualClock:
    """A deterministic virtual clock: a heap of awaitable deadlines.

    ``sleep(delay)`` registers a future at ``now + delay`` and returns
    it; nothing resolves until the owner calls :meth:`fire_next`, which
    pops the earliest deadline, advances virtual time to it and resolves
    its future.  No wall-clock timers are involved, so a million virtual
    seconds cost nothing and the firing order is a pure function of the
    registered delays (ties break by registration order) — the property
    that keeps event digests deterministic.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, "asyncio.Future[float]"]] = []
        self._seq = itertools.count()
        #: Current virtual time (monotonic across rounds).
        self.time = 0.0

    def sleep(self, delay: float) -> "asyncio.Future[float]":
        """An awaitable resolving when virtual time reaches ``now + delay``."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[float]" = loop.create_future()
        heapq.heappush(self._heap, (self.time + delay, next(self._seq), future))
        return future

    def fire_next(self) -> bool:
        """Advance to the earliest pending deadline and resolve it.

        Cancelled waiters (e.g. steps torn down after a mid-round
        failure) are skipped.  Returns whether anything fired.
        """
        while self._heap:
            deadline, _, future = heapq.heappop(self._heap)
            if future.done():
                continue
            self.time = max(self.time, deadline)
            future.set_result(deadline)
            return True
        return False

    @property
    def pending(self) -> int:
        """Number of registered, unfired deadlines."""
        return len(self._heap)

    def discard_pending(self) -> None:
        """Cancel and drop every unfired deadline (teardown/rebind path)."""
        while self._heap:
            _, _, future = heapq.heappop(self._heap)
            if not future.done():
                try:
                    future.cancel()
                except RuntimeError:  # repro: allow[RPR005] loop closed
                    # The owning loop is already closed; the future can
                    # never be awaited again, dropping it is enough.
                    pass


class AsyncRoundDriver(RoundDriver):
    """Event-driven round driver, digest-equal to the sequential reference.

    One UC round becomes a list of *steps* — one per input action (in
    global order) and one per activation-order party.  Each step is a
    coroutine that sleeps on the :class:`VirtualClock` until its turn,
    then awaits its party's mailbox for the wake-up payload (draining
    any mirrored network tokens first), executes, and signals the
    conductor.  The conductor fires exactly one virtual deadline at a
    time and waits for the step to finish before firing the next, so
    steps execute in *strictly* the sequential reference order and the
    event trace is byte-identical for any fixed seed — concurrency
    lives between sessions (a host interleaves many drivers on one
    loop), never inside a round.

    The synchronous :meth:`run_round` facade drives a privately owned
    event loop, so the driver drops into every existing synchronous
    call site (stack builders, ``SessionPool``, the differential
    suite); inside a running loop it refuses and directs callers to
    :meth:`run_round_async`.
    """

    name = "async"

    def __init__(self, session, order: Optional[Sequence[str]] = None) -> None:
        super().__init__(session, order)
        self.clock = VirtualClock()
        #: Mirrored delivery wake-ups consumed by steps so far — evidence
        #: the event-driven path (not polling) observed the traffic.
        self.net_tokens = 0
        # Buffered wake-up counts per recipient pid.  Plain ints, not
        # queue items: the scheduler listener may fire outside any
        # running loop (inputs are queued between rounds), and plain
        # counts survive a loop rebind where bound queues cannot.
        self._net_buffer: Dict[Any, int] = {}
        self._mailboxes: Dict[Any, "asyncio.Queue[Tuple[str, Any]]"] = {}
        self._done: Optional["asyncio.Queue[Optional[BaseException]]"] = None
        self._bound_loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None  # owned, lazy
        self._listener = self._on_enqueue  # stable bound method for identity

    # -- scheduler mirroring ----------------------------------------------

    def _on_enqueue(self, channel: str, key: Any, item: Any) -> None:
        """Scheduler listener: mirror one delivery as a mailbox wake-up.

        Must stay deterministic and side-effect-free beyond counting —
        it runs inside the digest-pinned round loop.
        """
        self._net_buffer[key] = self._net_buffer.get(key, 0) + 1

    def _install_listener(self) -> None:
        # Re-install every round: FaultPlan.install swaps the session's
        # scheduler for a FaultyScheduler, which starts listener-less.
        scheduler = getattr(self.session, "scheduler", None)
        if scheduler is not None and scheduler.listener is not self._listener:
            scheduler.listener = self._listener

    def _flush_net_tokens(self) -> None:
        """Move buffered wake-up counts into the bound party mailboxes."""
        if not self._net_buffer:
            return
        parties = self.session.parties
        for pid, count in self._net_buffer.items():
            if pid in parties:
                box = self._mailbox(pid)
                for _ in range(count):
                    box.put_nowait(("net", None))
        self._net_buffer.clear()

    # -- loop / queue binding ---------------------------------------------

    def _mailbox(self, pid: Any) -> "asyncio.Queue[Tuple[str, Any]]":
        box = self._mailboxes.get(pid)
        if box is None:
            box = asyncio.Queue()
            self._mailboxes[pid] = box
        return box

    def _bind(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._bound_loop is loop:
            return
        # Rebinding (a host moved the session to a fresh loop) drops only
        # mirrored wake-up tokens still sitting in old mailboxes — they
        # are counters, not messages, so dropping them is semantics- and
        # digest-neutral.  Real traffic lives in the scheduler queues.
        self.clock.discard_pending()
        self._mailboxes = {}
        self._done = asyncio.Queue()
        self._bound_loop = loop

    def _own_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None or self._loop.is_closed():
            self._loop = asyncio.new_event_loop()
        return self._loop

    # -- the round loop ----------------------------------------------------

    def run_round(
        self,
        actions: Iterable[Action] = (),
        order: Optional[Sequence[str]] = None,
    ) -> int:
        """Synchronous facade over :meth:`run_round_async`.

        Drives a privately owned event loop so the async driver is a
        drop-in backend for every synchronous call site.

        Raises:
            RuntimeError: called from inside a running event loop —
                hosted sessions must ``await run_round_async`` instead.
        """
        try:
            asyncio.get_running_loop()
        except RuntimeError:  # repro: allow[RPR005] no loop == happy path
            pass
        else:
            raise RuntimeError(
                "AsyncRoundDriver.run_round() called inside a running event "
                "loop; await run_round_async()/run_until_async() instead "
                "(see async_sbc_session/async_voting_session)"
            )
        loop = self._own_loop()
        return loop.run_until_complete(self.run_round_async(actions, order=order))

    async def run_round_async(
        self,
        actions: Iterable[Action] = (),
        order: Optional[Sequence[str]] = None,
    ) -> int:
        """Run one full round as awaited steps; return the new clock time.

        Every step awaits a virtual deadline and its party's mailbox;
        the conductor fires deadlines one at a time and waits for each
        step's completion signal, so execution order — hence the event
        trace — is exactly the sequential reference's.
        """
        session = self.session
        loop = asyncio.get_running_loop()
        self._bind(loop)
        self._install_listener()
        steps: List[Tuple[str, Any, Any]] = [
            ("deliver", pid, action) for pid, action in actions
        ]
        steps.extend(
            ("activate", pid, None) for pid in self.activation_order(order)
        )
        self._flush_net_tokens()
        for kind, pid, action in steps:
            self._mailbox(pid).put_nowait((kind, action))
        tasks = [
            loop.create_task(self._step(position, pid))
            for position, (_kind, pid, _action) in enumerate(steps)
        ]
        done = self._done
        assert done is not None
        try:
            # Let every step task run its first segment and register its
            # virtual deadline before any deadline fires; a step that is
            # slow to register (spurious loop scheduling) is covered by
            # the fire-retry loop below.
            await asyncio.sleep(0)
            for _ in steps:
                while not self.clock.fire_next():
                    await asyncio.sleep(0)
                err = await asyncio.wait_for(done.get(), timeout=STEP_TIMEOUT_S)
                if err is not None:
                    raise err
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self.clock.discard_pending()
        return session.clock.time

    async def _step(self, position: int, pid: Any) -> None:
        """One awaited step: virtual-deadline turn, mailbox wake-up, work."""
        await asyncio.wait_for(self.clock.sleep(position), timeout=STEP_TIMEOUT_S)
        box = self._mailbox(pid)
        kind, action = await asyncio.wait_for(box.get(), timeout=STEP_TIMEOUT_S)
        while kind == "net":
            self.net_tokens += 1
            kind, action = await asyncio.wait_for(
                box.get(), timeout=STEP_TIMEOUT_S
            )
        err: Optional[BaseException] = None
        try:
            self._execute(kind, pid, action)
        except BaseException as exc:  # signal the conductor, then re-raise
            err = exc
        done = self._done
        assert done is not None
        done.put_nowait(err)
        if err is not None:
            raise err

    def _execute(self, kind: str, pid: Any, action: Any) -> None:
        # The exact SequentialRoundDriver.run_round body, one step at a
        # time — including the post-hook corruption re-check.  Any drift
        # here breaks digest equality with the reference engine.
        session = self.session
        party = session.party(pid)
        if party.corrupted:
            return
        if kind == "deliver":
            action(party)
            return
        session.adversary.on_party_activated(party)
        if party.corrupted:
            # on_party_activated may have corrupted it.
            return
        party.advance_clock()

    # -- async run helpers -------------------------------------------------

    async def run_rounds_async(
        self, count: int, order: Optional[Sequence[str]] = None
    ) -> int:
        """Async counterpart of :meth:`RoundDriver.run_rounds`."""
        for _ in range(count):
            await self.run_round_async((), order=order)
        return self.session.clock.time

    async def run_until_async(
        self,
        predicate: Callable[[Any], bool],
        max_rounds: int = 1000,
        order: Optional[Sequence[str]] = None,
    ) -> int:
        """Async counterpart of :meth:`RoundDriver.run_until`.

        Raises:
            RuntimeError: the predicate is still false after
                ``max_rounds`` rounds.
        """
        for _ in range(max_rounds):
            if predicate(self.session):
                return self.session.clock.time
            await self.run_round_async((), order=order)
        if predicate(self.session):
            return self.session.clock.time
        raise RuntimeError(f"predicate not satisfied within {max_rounds} rounds")

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Cancel pending waiters, detach the listener, close the owned loop."""
        self.clock.discard_pending()
        scheduler = getattr(self.session, "scheduler", None)
        if scheduler is not None and scheduler.listener is self._listener:
            scheduler.listener = None
        self._net_buffer.clear()
        self._mailboxes = {}
        self._done = None
        self._bound_loop = None
        if self._loop is not None and not self._loop.is_closed():
            self._loop.close()
        self._loop = None

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:  # repro: allow[RPR005] GC teardown must not raise
            pass


@dataclass(frozen=True)
class AsyncExecutionBackend(ExecutionBackend):
    """The ``async`` backend: event-driven rounds, full trace, fifo drains.

    Same scheduler policy and trace mode as ``sequential`` — the driver
    is the only moving part, and it is digest-equal by construction (the
    differential suite holds it to that).
    """

    name: str = "async"
    driver_cls: Type[RoundDriver] = AsyncRoundDriver
    scheduler_policy: str = "fifo"
    trace: str = "full"
    description: str = (
        "event-driven asyncio engine: awaited mailboxes, virtual-clock "
        "rounds, digest-equal to sequential; powers `repro serve`"
    )


#: Registered at import; :func:`repro.runtime.backend.available_backends`
#: imports this module lazily so registry reads always see it.
ASYNC = register_backend(AsyncExecutionBackend())


# ---------------------------------------------------------------------------
# Coroutine session runners (the host's inline workload)
# ---------------------------------------------------------------------------


def _honest_outputs_done(parties: Dict[str, Any]) -> Callable[[Any], bool]:
    """The stacks' shared completion predicate: every honest party output."""

    def done(session: Any) -> bool:
        return all(
            party.outputs
            for pid, party in parties.items()
            if not session.is_corrupted(pid)
        )

    return done


async def _drive_until(stack: Any, predicate: Callable[[Any], bool], max_rounds: int) -> int:
    """Drive a stack to ``predicate`` cooperatively when the driver allows.

    An :class:`AsyncRoundDriver` is awaited (other hosted sessions
    interleave at every step); any other driver runs its synchronous
    loop — correct, just not cooperative — so the host accepts every
    registered backend.
    """
    driver = stack.env.driver
    if isinstance(driver, AsyncRoundDriver):
        return await driver.run_until_async(predicate, max_rounds=max_rounds)
    return driver.run_until(predicate, max_rounds=max_rounds)


async def _drive_rounds(stack: Any, count: int) -> int:
    driver = stack.env.driver
    if isinstance(driver, AsyncRoundDriver):
        return await driver.run_rounds_async(count)
    return driver.run_rounds(count)


async def async_sbc_session(
    seed: int,
    n: int = 3,
    mode: str = "hybrid",
    phi: int = 4,
    delta: Optional[int] = None,
    senders: int = 1,
    backend: Any = "async",
    trace: Optional[str] = None,
    online: Optional[Any] = None,
    batch: Optional[Any] = None,
) -> TrialResult:
    """Coroutine mirror of :func:`~repro.runtime.pool.run_sbc_trial`.

    Identical protocol flow and summary — same seed, same digest — but
    rounds are awaited on the hosting loop, so N of these interleave in
    one thread under :class:`AsyncSessionHost`.  The ambient randomness
    and batching seams are context-local (:mod:`contextvars`), so each
    session's ``spending`` cursor stays isolated however the sessions
    interleave.
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
        # run_until_delivery(slack=2) inlined: target + 20 round budget.
        await _drive_until(
            stack,
            _honest_outputs_done(stack.parties),
            max_rounds=stack.delivery_round + 2 + 20,
        )
    online_record = record_online_spend(stack.session, cursor)
    elapsed = time.perf_counter() - start
    delivered = stack.delivered()
    honest_views = {
        pid: view
        for pid, view in delivered.items()
        if not stack.session.is_corrupted(pid)
    }
    agreed = ensure_agreement(honest_views, seed=seed)
    stack.env.driver.close()
    return TrialResult(
        seed=seed,
        wall_time_s=elapsed,
        rounds=stack.session.metrics.get("rounds.advanced"),
        messages=stack.session.metrics.get("messages.total"),
        digest=trace_digest(stack.session.log),
        outputs=repr(agreed),
        online=online_record,
    )


async def async_voting_session(
    seed: int,
    voters: int = 3,
    candidates: Tuple[str, ...] = ("yes", "no"),
    mode: str = "hybrid",
    delta: Optional[int] = None,
    backend: Any = "async",
    trace: Optional[str] = None,
    online: Optional[Any] = None,
    batch: Optional[Any] = None,
) -> TrialResult:
    """Coroutine mirror of :func:`~repro.runtime.pool.run_voting_trial`.

    The election workload is the host's proof-of-spend: every hosted
    session burns real nonces, so the 1000-session bench can check that
    leased pool slices never overlap (zero double-spend).
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
            await _drive_rounds(stack, 1)
        for index in range(voters):
            stack.parties[f"V{index}"].vote(candidates[index % len(candidates)])
        await _drive_until(
            stack,
            _honest_outputs_done(stack.parties),
            max_rounds=stack.phi + stack.delta + 30,
        )
    online_record = record_online_spend(stack.session, cursor)
    elapsed = time.perf_counter() - start
    honest_tallies = {
        pid: tuple(sorted(tally.items()))
        for pid, tally in stack.results().items()
        if not stack.session.is_corrupted(pid)
    }
    agreed = ensure_agreement(honest_tallies, seed=seed)
    stack.env.driver.close()
    return TrialResult(
        seed=seed,
        wall_time_s=elapsed,
        rounds=stack.session.metrics.get("rounds.advanced"),
        messages=stack.session.metrics.get("messages.total"),
        digest=trace_digest(stack.session.log),
        outputs=repr(agreed),
        online=online_record,
    )


# ---------------------------------------------------------------------------
# Service mode: host N concurrent sessions on one loop
# ---------------------------------------------------------------------------


def online_ranges_disjoint(results: Sequence[Any]) -> Tuple[bool, int]:
    """Check that no two trial spend records overlap pool ranges.

    Returns ``(disjoint, spends_checked)`` over every result carrying an
    ``online`` spend summary that actually *spent* (sampled-only records
    reserve nothing).  This is the zero-double-spend evidence the E22
    bench and the stress tests assert.
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
class HostReport:
    """Aggregate view over one :meth:`AsyncSessionHost.run`."""

    backend: str
    executor: str
    wall_time_s: float
    results: List[Any] = field(default_factory=list)
    #: Task indices in the order sessions *finished* — evidence of
    #: interleaving (``results`` itself stays in submission order).
    completion_order: List[int] = field(default_factory=list)
    #: Aggregate pool consumption for online hosts (None otherwise).
    online_spend: Optional[Dict[str, int]] = None

    @property
    def sessions(self) -> int:
        return len(self.results)

    @property
    def sessions_per_s(self) -> float:
        """The service-mode headline: completed sessions per wall second."""
        return self.sessions / max(self.wall_time_s, 1e-9)

    @property
    def interleaved(self) -> int:
        """Completions that finished out of submission order.

        Zero means the sessions ran back-to-back (no concurrency
        observed); coroutine hosts should report a large fraction.
        """
        return sum(
            1
            for position, index in enumerate(self.completion_order)
            if index != position
        )

    def summary(self) -> Dict[str, Any]:
        """Uniform record for benchmark JSON emission.

        Raises:
            ValueError: the report is empty — a ``sessions=0`` service
                row would mask a host that silently ran nothing.
        """
        if not self.results:
            raise ValueError("empty host report: the host ran no sessions")
        record: Dict[str, Any] = {
            "backend": self.backend,
            "executor": self.executor,
            "sessions": self.sessions,
            "wall_time_s": round(self.wall_time_s, 6),
            "sessions_per_s": round(self.sessions_per_s, 3),
            "interleaved": self.interleaved,
        }
        if self.online_spend is not None:
            record["online"] = True
            record.update(self.online_spend)
        return record


class AsyncSessionHost:
    """Host N concurrent sessions on one event loop (``repro serve``).

    Args:
        runner: Per-session workload, called as ``runner(seed,
            **kwargs)``.  A coroutine function (the default
            :func:`async_voting_session`) runs inline on the host loop
            and interleaves with every other session at each awaited
            round step; a plain function under ``executor="thread"`` /
            ``"process"`` is offloaded through ``run_in_executor`` to a
            warmed pool (it must be picklable for processes — the sweep
            trial runners qualify).
        config: A :class:`~repro.runtime.config.SweepConfig`; the host
            reads ``backend`` (defaults to ``async``), ``executor``,
            ``workers``, ``warmup``, ``material``, ``online``,
            ``consume_forward``, ``batch_verify`` and ``trace``.
        session_timeout_s: Wall-clock bound on one executor-offloaded
            session (inline coroutine sessions are bounded by their
            round budgets instead).
        admission_chunk: Hosted sessions are admitted in chunks of this
            many before yielding to the loop, so early sessions start
            making progress while late ones are still being created.
        runner_kwargs: Extra keywords forwarded to every session's
            runner (only names the runner's signature accepts are
            injected, so minimal stress runners need no ``**kwargs``).

    Online mode: with ``config.online`` the host plans pool slots over
    the distinct seeds (or takes an explicit
    :class:`~repro.runtime.material.OnlinePlan`) and leases each session
    its slot through a
    :class:`~repro.runtime.material.HostSlotAllocator` — concurrent
    sessions therefore spend *disjoint* pool slices by construction, and
    a session beyond the planned capacity degrades to counted sampling
    instead of ever reusing a slice.
    """

    def __init__(
        self,
        runner: Callable[..., Any] = async_voting_session,
        *,
        config: Optional[SweepConfig] = None,
        session_timeout_s: float = 600.0,
        admission_chunk: int = 64,
        **runner_kwargs: Any,
    ) -> None:
        if config is None:
            config = SweepConfig(backend="async", executor="inline")
        if config.executor != "inline" and inspect.iscoroutinefunction(runner):
            raise ValueError(
                f"coroutine runners only work with executor='inline'; use a "
                f"synchronous trial runner for executor={config.executor!r}"
            )
        if session_timeout_s <= 0:
            raise ValueError(
                f"session_timeout_s must be > 0, got {session_timeout_s}"
            )
        self.config = config
        self.runner = runner
        self.session_timeout_s = session_timeout_s
        self.admission_chunk = max(1, int(admission_chunk))
        self.runner_kwargs = dict(runner_kwargs)
        self._backend = get_backend(config.backend)
        parameters = inspect.signature(runner).parameters
        self._accepts_any = any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in parameters.values()
        )
        self._accepted = frozenset(parameters)
        #: Completion order of the most recent run (also on its report).
        self.completion_order: List[int] = []

    def _accepts(self, name: str) -> bool:
        return self._accepts_any or name in self._accepted

    def _session_kwargs(self, lease: Optional[Any]) -> Dict[str, Any]:
        kwargs = dict(self.runner_kwargs)
        if self._accepts("backend"):
            # Forward the backend *instance* so with_trace overrides and
            # unregistered backends survive executor offload.
            kwargs.setdefault("backend", self._backend)
        if self.config.trace is not None and self._accepts("trace"):
            kwargs.setdefault("trace", self.config.trace)
        if lease is not None and self._accepts("online"):
            kwargs.setdefault("online", lease)
        if self.config.batch_policy is not None and self._accepts("batch"):
            kwargs.setdefault("batch", self.config.batch_policy)
        return kwargs

    def _resolve_plan(self, seeds: Sequence[Any]) -> Optional[Any]:
        if not self.config.online:
            return None
        from repro.runtime.material import OnlinePlan

        if isinstance(self.config.online, OnlinePlan):
            return self.config.online
        from repro.crypto.groups import TEST_GROUP

        group = (self.config.material_groups or (TEST_GROUP,))[0]
        # Duplicate seeds share a slot (replay semantics, same as the
        # sweep engine); service deployments use distinct session seeds.
        distinct = list(dict.fromkeys(seeds))
        return OnlinePlan.for_tasks(
            distinct, group=group, consume_forward=self.config.consume_forward
        )

    def _make_executor(self) -> Optional[Any]:
        config = self.config
        if config.executor == "inline":
            if config.warmup:
                self._backend.warm_up(config.material)
            return None
        from repro.runtime.pool import _warm_worker, resolve_workers

        workers = resolve_workers(config.workers)
        if config.executor == "thread":
            from concurrent.futures import ThreadPoolExecutor

            if config.warmup:
                # Threads share the process caches: warm once, inline.
                self._backend.warm_up(config.material)
            return ThreadPoolExecutor(max_workers=workers)
        from concurrent.futures import ProcessPoolExecutor

        from repro.crypto.groups import get_arith_backend

        initargs = (self._backend, config.material, get_arith_backend().name)
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_warm_worker if config.warmup else None,
            initargs=initargs if config.warmup else (),
        )

    async def _session(
        self,
        index: int,
        seed: Any,
        allocator: Optional[Any],
        executor: Optional[Any],
    ) -> Any:
        lease = allocator.lease(seed) if allocator is not None else None
        kwargs = self._session_kwargs(lease)
        if executor is None:
            if inspect.iscoroutinefunction(self.runner):
                result = await self.runner(seed, **kwargs)
            else:
                # Synchronous runner inline: correct but blocks the loop
                # per session (no interleaving) — mainly for testing.
                result = self.runner(seed, **kwargs)
        else:
            loop = asyncio.get_running_loop()
            bound = functools.partial(self.runner, seed, **kwargs)
            result = await asyncio.wait_for(
                loop.run_in_executor(executor, bound),
                timeout=self.session_timeout_s,
            )
        self.completion_order.append(index)
        return result

    async def serve(
        self, seeds: Iterable[Any], duration_s: Optional[float] = None
    ) -> HostReport:
        """Host one session per seed concurrently; await them all.

        ``duration_s`` bounds *admission*: once the wall budget is
        spent, no further sessions start (already-admitted ones run to
        completion, each bounded by its own round budget or timeout).
        Results come back in submission order regardless of completion
        interleaving; the report's ``completion_order`` keeps the
        finish sequence as concurrency evidence.
        """
        loop = asyncio.get_running_loop()
        seeds = list(seeds)
        plan = self._resolve_plan(seeds)
        allocator = None
        if plan is not None:
            from repro.runtime.material import HostSlotAllocator

            allocator = HostSlotAllocator(plan)
        executor = self._make_executor()
        self.completion_order = []
        started = time.perf_counter()
        tasks: List["asyncio.Task[Any]"] = []
        try:
            for index, seed in enumerate(seeds):
                if (
                    duration_s is not None
                    and time.perf_counter() - started >= duration_s
                ):
                    break
                tasks.append(
                    loop.create_task(
                        self._session(index, seed, allocator, executor)
                    )
                )
                if len(tasks) % self.admission_chunk == 0:
                    # Yield so admitted sessions start interleaving
                    # while the rest are still being created.
                    await asyncio.sleep(0)
            results = list(await asyncio.gather(*tasks)) if tasks else []
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            if executor is not None:
                executor.shutdown(wait=True)
        online_spend = None
        if plan is not None and results:
            online_spend = _ledger_host_spend(plan, results)
        return HostReport(
            backend=self._backend.name,
            executor=self.config.executor,
            wall_time_s=time.perf_counter() - started,
            results=results,
            completion_order=list(self.completion_order),
            online_spend=online_spend,
        )

    def run(
        self, seeds: Iterable[Any], duration_s: Optional[float] = None
    ) -> HostReport:
        """Synchronous entry point: own a fresh loop, :meth:`serve`, close it.

        Raises:
            RuntimeError: called from inside a running event loop —
                ``await host.serve(...)`` instead.
        """
        try:
            asyncio.get_running_loop()
        except RuntimeError:  # repro: allow[RPR005] no loop == happy path
            pass
        else:
            raise RuntimeError(
                "AsyncSessionHost.run() called inside a running event loop; "
                "await host.serve(...) instead"
            )
        loop = asyncio.new_event_loop()
        try:
            return loop.run_until_complete(self.serve(seeds, duration_s))
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                loop.close()


def _ledger_host_spend(plan: Any, results: Sequence[Any]) -> Dict[str, int]:
    """Sum per-session spend records and ledger them (host counterpart of
    ``SessionPool._aggregate_online``; same advisory never-fail contract)."""
    import warnings

    from repro.runtime.pool import SessionPool

    totals, nonce_reach, feldman_reach = SessionPool._spend_totals(results)
    try:
        from repro.runtime.material import MaterialStore

        MaterialStore().record_spend(
            plan.fingerprint,
            nonces=totals["nonces_spent"],
            feldman=totals["feldman_spent"],
            nonce_high=nonce_reach,
            feldman_high=feldman_reach,
            material_seed=plan.material_seed,
        )
    except OSError as exc:
        warnings.warn(
            f"could not record host session spend in the material ledger "
            f"({exc}); the next consume-forward run may re-spend these "
            "pool slices",
            RuntimeWarning,
            stacklevel=2,
        )
    return totals
