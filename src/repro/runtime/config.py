"""One config object for every execution entry point.

Nine PRs of organic growth left ``SessionPool``, ``ParallelSweep``,
``run_matrix`` and four CLI subcommands each re-declaring the same ~20
execution knobs — and silently drifting (``run_matrix`` lacked
``retry``/``deadline``/``journal``/``resume``/``trace`` for two PRs
before anyone noticed).  :class:`SweepConfig` is the single source of
truth: a frozen dataclass holding every knob, with *all* validation in
:meth:`SweepConfig.__post_init__`, an argparse bridge
(:func:`add_sweep_options` / :meth:`SweepConfig.from_args`) shared by
``bench``/``sweep``/``scenarios``/``serve``, and back-compat shims in
the entry points that build a config from legacy keyword arguments
(warning on positional use).

The knobs themselves are documented once, on :class:`SweepConfig`'s
fields below; ``SessionPool``'s docstring points here.
"""

from __future__ import annotations

import argparse
import warnings
from dataclasses import dataclass, fields, replace
from typing import Any, Optional, Sequence, Tuple, Union

from repro.runtime.backend import TRACE_MODES, ExecutionBackend

__all__ = [
    "EXECUTORS",
    "SweepConfig",
    "add_sweep_options",
    "resolve_legacy_config",
]

#: The executors every entry point understands, in one place (the CLI
#: ``choices`` and the validation error both read from it).
EXECUTORS: Tuple[str, ...] = ("inline", "thread", "process")


@dataclass(frozen=True)
class SweepConfig:
    """Every execution knob, validated once.

    Args:
        backend: Execution backend applied inside each session (name or
            :class:`~repro.runtime.backend.ExecutionBackend` instance);
            forwarded to runners as ``backend=``.
        executor: ``"inline"`` (one warm driver, no worker overhead),
            ``"thread"`` or ``"process"`` for ``concurrent.futures``
            fan-out.
        workers: Worker count for the concurrent executors (default:
            all cores for processes, the executor default for threads).
        chunksize: Tasks shipped per process dispatch (default: auto
            via :func:`~repro.runtime.pool.auto_chunksize`).
        max_tasks_per_child: Recycle each process worker after this
            many tasks; ``None`` reuses workers for the whole sweep.
        warmup: Run the shared-crypto warm-up initializer in each
            process worker (False measures cold workers).
        material: Worker warm-up source — ``"compute"`` (default:
            rebuild locally), ``"disk"`` or ``"shared"`` (attach the
            preprocessing store).  All three produce value-identical
            caches, so trace digests never depend on the source.
        material_groups: Parameter sets published to process workers
            (default: the test group).
        adaptive: Re-plan the process chunk size mid-sweep from
            observed per-task wall time.
        online: Spend the preprocessed randomness pools inside trials.
            ``True`` partitions the pools across tasks by position; an
            explicit :class:`~repro.runtime.material.OnlinePlan` pins
            custom slot assignments.  Requires a pool-bearing
            ``material`` source, ``warmup``, and a non-thread executor.
        consume_forward: Offset the online plan by the persisted spend
            ledger so successive sweeps spend disjoint pool slices.
            Requires ``online``.
        batch_verify: Batch verification-heavy rounds through one
            random-linear-combination multi-exp per round.  ``True``
            uses the stock :class:`~repro.crypto.batch.BatchPolicy`;
            an explicit policy pins seed/threshold/trace behaviour.
            Not supported on the thread executor.
        retry: :class:`~repro.runtime.supervisor.RetryPolicy` for the
            supervised process fan-out.  Process executor only.
        deadline: :class:`~repro.runtime.supervisor.DeadlinePolicy`
            bounding each chunk's wait.  Process executor only.
        chaos: Fault-injection schedule — a
            :class:`~repro.runtime.supervisor.ChaosPlan` or a spec
            string (``"kill@3,exc@5:*"``).  Process executor only.
        journal: Path for a crash-safe
            :class:`~repro.runtime.supervisor.SweepJournal`.  Process
            executor only.
        resume: Resume from ``journal`` instead of starting fresh.
            Requires ``journal``.
        trace: Optional trace-mode override forwarded to runners
            (``"light"`` turns the EventLog off for throughput runs).
    """

    backend: Union[str, ExecutionBackend] = "sequential"
    executor: str = "inline"
    workers: Optional[int] = None
    chunksize: Optional[int] = None
    max_tasks_per_child: Optional[int] = None
    warmup: bool = True
    material: Optional[str] = None
    material_groups: Optional[Sequence[Any]] = None
    adaptive: bool = False
    online: Any = False
    consume_forward: bool = False
    batch_verify: Any = False
    retry: Optional[Any] = None
    deadline: Optional[Any] = None
    chaos: Optional[Any] = None
    journal: Optional[Any] = None
    resume: bool = False
    trace: Optional[str] = None

    def __post_init__(self) -> None:
        from repro.runtime.backend import get_backend
        from repro.runtime.material import MATERIAL_COMPUTE, resolve_material_source

        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be inline/thread/process, got {self.executor!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.chunksize is not None and self.chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {self.chunksize}")
        if self.max_tasks_per_child is not None and self.max_tasks_per_child < 1:
            raise ValueError(
                f"max_tasks_per_child must be >= 1, got {self.max_tasks_per_child}"
            )
        get_backend(self.backend)  # unknown names raise here, not mid-sweep
        object.__setattr__(self, "warmup", bool(self.warmup))
        object.__setattr__(self, "material", resolve_material_source(self.material))
        if self.material_groups is not None:
            object.__setattr__(self, "material_groups", tuple(self.material_groups))
        object.__setattr__(self, "adaptive", bool(self.adaptive))
        object.__setattr__(self, "consume_forward", bool(self.consume_forward))
        if self.consume_forward and not self.online:
            raise ValueError(
                "consume_forward offsets the online plan by the spend "
                "ledger; it needs online=True (or an explicit plan)"
            )
        if self.batch_verify and self.executor == "thread":
            raise ValueError(
                "batch_verify is not supported on the thread executor "
                "(interleaved trials would race on the ambient policy)"
            )
        if isinstance(self.chaos, str):
            # Lazy import: supervisor imports the runtime at top level,
            # so the reverse edge must stay inside functions.
            from repro.runtime.supervisor import ChaosPlan

            object.__setattr__(self, "chaos", ChaosPlan.parse(self.chaos))
        object.__setattr__(self, "resume", bool(self.resume))
        supervised = (
            self.retry is not None
            or self.deadline is not None
            or self.chaos is not None
            or self.journal is not None
            or self.resume
        )
        if supervised and self.executor != "process":
            raise ValueError(
                "retry/deadline/chaos/journal/resume configure the "
                "supervised process fan-out; they need executor='process' "
                "(chaos faults would kill the coordinator inline, and a "
                "journal of an unsupervised run could not be trusted)"
            )
        if self.resume and self.journal is None:
            raise ValueError(
                "resume restores completed chunks from the sweep journal; "
                "pass journal=<path> (the file the interrupted run wrote)"
            )
        if self.trace is not None and self.trace not in TRACE_MODES:
            raise ValueError(
                f"trace must be one of {TRACE_MODES} (or None), got {self.trace!r}"
            )
        if self.online:
            if self.material == MATERIAL_COMPUTE:
                raise ValueError(
                    "online mode spends the preprocessing store: pick "
                    "material='disk' or 'shared' (compute has no pools)"
                )
            if self.executor == "thread":
                raise ValueError(
                    "online mode is not supported on the thread executor "
                    "(interleaved trials would share one ambient cursor)"
                )
            if not self.warmup:
                raise ValueError(
                    "online mode needs warmup=True (the warm-up attach is "
                    "what installs the pools)"
                )

    @property
    def batch_policy(self) -> Optional[Any]:
        """The resolved :class:`~repro.crypto.batch.BatchPolicy` (or None)."""
        if self.batch_verify is True:
            from repro.crypto.batch import BatchPolicy

            return BatchPolicy()
        return self.batch_verify or None

    def replace(self, **changes: Any) -> "SweepConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    @classmethod
    def knob_names(cls) -> Tuple[str, ...]:
        """Every knob's field name — the contract the entry points share."""
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_args(cls, args: argparse.Namespace, **overrides: Any) -> "SweepConfig":
        """Build a config from an :func:`add_sweep_options` namespace.

        Knobs a command chose not to expose fall back to the dataclass
        defaults (``getattr`` with default), so one builder serves
        ``bench``, ``sweep``, ``scenarios run`` and ``serve``.
        ``overrides`` win over the namespace — commands pass
        ``backend=args.backend`` (or a forced value) explicitly, since
        ``--backend`` semantics differ per command.
        """
        retry = deadline = None
        retry_attempts = getattr(args, "retry_attempts", None)
        if retry_attempts is not None:
            from repro.runtime.supervisor import RetryPolicy

            retry = RetryPolicy(max_attempts=retry_attempts)
        deadline_cap_s = getattr(args, "deadline_cap_s", None)
        if deadline_cap_s is not None:
            from repro.runtime.supervisor import DeadlinePolicy

            deadline = DeadlinePolicy(
                floor_s=min(deadline_cap_s, 60.0), cap_s=deadline_cap_s
            )
        chaos = getattr(args, "chaos", None)
        if chaos is not None:
            from repro.runtime.supervisor import ChaosPlan

            chaos = ChaosPlan.parse(chaos, hang_s=getattr(args, "chaos_hang_s", 30.0))
        kwargs = dict(
            executor=getattr(args, "executor", cls.executor),
            workers=getattr(args, "workers", None),
            chunksize=getattr(args, "chunksize", None),
            max_tasks_per_child=getattr(args, "max_tasks_per_child", None),
            warmup=not getattr(args, "no_warmup", False),
            material=getattr(args, "material", None),
            adaptive=getattr(args, "adaptive", False),
            online=getattr(args, "online", False),
            consume_forward=getattr(args, "consume_forward", False),
            batch_verify=getattr(args, "batch_verify", False),
            retry=retry,
            deadline=deadline,
            chaos=chaos,
            journal=getattr(args, "journal", None),
            resume=getattr(args, "resume", False),
            trace=getattr(args, "trace", None),
        )
        kwargs.update(overrides)
        return cls(**kwargs)


#: The pre-``SweepConfig`` positional parameter order of
#: ``SessionPool.__init__``/``ParallelSweep.__init__`` — the shim maps
#: stray positional arguments onto it so old call sites keep working
#: (with a :class:`DeprecationWarning`).
LEGACY_KNOB_ORDER: Tuple[str, ...] = (
    "backend",
    "executor",
    "workers",
    "chunksize",
    "max_tasks_per_child",
    "warmup",
    "material",
    "material_groups",
    "adaptive",
    "online",
    "consume_forward",
    "batch_verify",
    "retry",
    "deadline",
    "chaos",
    "journal",
    "resume",
    "trace",
)


def resolve_legacy_config(
    config: Optional[SweepConfig],
    legacy: Tuple[Any, ...],
    kwargs: "dict",
    *,
    defaults: Optional["dict"] = None,
    owner: str = "SessionPool",
) -> Tuple[SweepConfig, "dict"]:
    """Back-compat bridge from the legacy keyword API to ``config=``.

    ``legacy`` holds stray positional arguments (mapped onto
    :data:`LEGACY_KNOB_ORDER`, with a :class:`DeprecationWarning` —
    the old signature took every knob positionally, which is exactly
    the drift-prone surface this redesign retires).  Knob names are
    popped out of ``kwargs``; the remainder is returned untouched as
    runner kwargs.  ``defaults`` carries the owner's historical
    defaults (``ParallelSweep`` fans out to processes, ``SessionPool``
    stays inline).  Passing ``config=`` together with individual knobs
    is ambiguous and refused.
    """
    if len(legacy) > len(LEGACY_KNOB_ORDER):
        raise TypeError(
            f"{owner}() takes at most {len(LEGACY_KNOB_ORDER)} positional "
            f"execution knobs ({len(legacy)} given)"
        )
    if legacy:
        warnings.warn(
            f"passing {owner} execution knobs positionally is deprecated; "
            "pass config=SweepConfig(...) (or name the keywords)",
            DeprecationWarning,
            stacklevel=3,
        )
    positional = dict(zip(LEGACY_KNOB_ORDER, legacy))
    knob_kwargs = {
        name: kwargs.pop(name) for name in LEGACY_KNOB_ORDER if name in kwargs
    }
    overlap = sorted(set(positional) & set(knob_kwargs))
    if overlap:
        raise TypeError(f"{owner}() got multiple values for {', '.join(overlap)}")
    knobs = dict(defaults or {})
    knobs.update(positional)
    knobs.update(knob_kwargs)
    if config is not None:
        if positional or knob_kwargs:
            raise TypeError(
                f"{owner}: pass either config=SweepConfig(...) or individual "
                "execution knobs, not both"
            )
        return config, kwargs
    return SweepConfig(**knobs), kwargs


def add_sweep_options(
    parser: argparse.ArgumentParser,
    executor_default: str = "inline",
    trace_default: Optional[str] = "light",
) -> None:
    """Install the shared execution flags on ``parser``.

    One definition for ``bench``/``sweep``/``scenarios run``/``serve``:
    the flag set *is* :class:`SweepConfig`'s knob set, so subcommands
    cannot drift apart again.  ``executor_default``/``trace_default``
    carry the per-command defaults (bench and the matrix stay inline,
    the sweep fans out to processes).
    """
    parser.add_argument(
        "--executor", choices=EXECUTORS, default=executor_default,
        help="how sessions map to workers "
             f"(default: {executor_default})",
    )
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count (default: all cores for processes)")
    parser.add_argument(
        "--chunksize", type=int, default=None,
        help="tasks per process dispatch (default: auto, ~4 chunks/worker)",
    )
    parser.add_argument(
        "--max-tasks-per-child", type=int, default=None,
        help="recycle process workers after this many tasks",
    )
    parser.add_argument(
        "--no-warmup", action="store_true",
        help="skip the per-worker crypto warm-up initializer",
    )
    parser.add_argument(
        "--material", choices=("compute", "disk", "shared"), default="compute",
        help="worker crypto warm-up source: rebuild locally, attach the "
             "preprocessing store from disk, or attach shared memory "
             "(see 'repro material build')",
    )
    parser.add_argument(
        "--adaptive", action="store_true",
        help="re-plan the process chunk size mid-sweep from observed "
             "per-task wall time",
    )
    parser.add_argument(
        "--online", action="store_true",
        help="spend the preprocessed randomness pools inside trials "
             "(offline/online protocol mode; requires --material "
             "disk or shared — see 'repro material build --for-sweep')",
    )
    parser.add_argument(
        "--consume-forward", action="store_true",
        help="offset the online plan by the persisted spend ledger "
             "so successive runs spend disjoint pool slices (the "
             "plan's range is reserved in the ledger up front); "
             "without it, re-running --online re-spends from index 0 "
             "and warns when the ledger shows prior spends",
    )
    parser.add_argument(
        "--batch-verify", action="store_true",
        help="batch verification rounds inside trials through one "
             "random-linear-combination multi-exp per round "
             "(outputs identical to per-item verification; batched "
             "runs are digest-pinned via verify.batch trace events)",
    )
    parser.add_argument(
        "--trace", choices=TRACE_MODES, default=trace_default,
        help="trace mode inside sessions (light = no EventLog, faster)",
    )
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="record each completed chunk to a crash-safe JSONL journal "
             "so a killed sweep can pick up where it left off",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="restore completed chunks from --journal instead of "
             "re-running them (the journaled online plan is replayed "
             "verbatim, so no material is double-spent)",
    )
    parser.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="inject worker faults for resilience testing: "
             "comma-separated kind@task[:repeat] with kind in "
             "kill/exc/hang and ':*' for every dispatch "
             "(e.g. 'kill@3,exc@7:2'); recovery keeps the sweep "
             "digest-equal, so combine with --verify",
    )
    parser.add_argument(
        "--chaos-hang-s", type=float, default=30.0,
        help="how long an injected 'hang' fault sleeps (default: 30)",
    )
    parser.add_argument(
        "--retry-attempts", type=int, default=None,
        help="max attempts per chunk before bisecting to the poison "
             "task (default: 3)",
    )
    parser.add_argument(
        "--deadline-cap-s", type=float, default=None,
        help="hard upper bound on the per-chunk deadline in seconds: a "
             "chunk silent that long gets its pool respawned and is "
             "retried (default: none — the EWMA-derived deadline rules; "
             "set a few seconds to exercise hang recovery)",
    )
