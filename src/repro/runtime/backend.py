"""Execution backends.

An :class:`ExecutionBackend` bundles the two runtime policies one knob
apart from protocol logic; every backend runs rounds on the one
:class:`~repro.runtime.driver.RoundDriver`:

* how the session's :class:`~repro.runtime.scheduler.BatchScheduler`
  drains per-round message queues (``fifo`` vs ``grouped``);
* how much of the event trace is kept (``full`` vs ``light``).

Two backends ship:

========== ========= ======= ==========================================
name       drain     trace   contract
========== ========= ======= ==========================================
sequential fifo      full    byte-identical traces to the pre-runtime
                             engine for any fixed seed (the default)
batched    grouped   light   maximum throughput; per-recipient batch
                             delivery, tracing off; protocol outputs
                             equal, trace interleaving differs
========== ========= ======= ==========================================

Stack builders and the CLI accept either a backend name or an
:class:`ExecutionBackend` instance everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Union

#: Trace modes: ``full`` keeps the whole EventLog, ``light`` disables it.
TRACE_MODES = ("full", "light")


@dataclass(frozen=True)
class ExecutionBackend:
    """One named execution strategy for UC sessions.

    Attributes:
        name: Registry key (also what ``--backend`` accepts on the CLI).
        scheduler_policy: Drain policy for per-round message queues.
        trace: Default trace mode for sessions created under this backend.
        description: One-line summary for ``--help`` and reports.
    """

    name: str
    scheduler_policy: str = "fifo"
    trace: str = "full"
    description: str = ""

    def with_trace(self, trace: str) -> "ExecutionBackend":
        """A copy of this backend with a different trace mode."""
        if trace not in TRACE_MODES:
            raise ValueError(f"trace must be one of {list(TRACE_MODES)}, got {trace!r}")
        return replace(self, trace=trace)

    def warm_up(self, material=None, arith=None) -> "ExecutionBackend":
        """Pre-build the process-wide caches sessions under this backend use.

        Called once per worker by the pool initializer (and usable inline
        before timing-sensitive runs): warms the shared crypto
        acceleration caches so no session pays lazy construction mid-run.
        Custom backends with extra per-process state can extend this.

        Args:
            material: Where the caches come from — ``None``/``"compute"``
                rebuilds them locally, ``"disk"`` attaches the
                preprocessing store's serialized tables, and a
                :class:`~repro.runtime.material.MaterialHandle` attaches
                what the parent published (shared memory, mmap fallback).
                Every failure degrades to compute with a warning; the
                installed tables are value-identical either way.  A
                successful attach also registers the material's
                randomness pools with this process
                (:func:`~repro.runtime.material.attached_material`), so
                online-mode cursors can spend them without re-reading
                the blob per trial.
            arith: Optional arithmetic-backend name to select first
                (``"gmpy2"``/``"python"``/``"auto"``) — the pool
                initializer forwards the parent's selection so worker
                processes run the same tier.  Arithmetic backends are
                value-identical, so an unavailable name degrades to
                auto-detection with a warning rather than failing the
                worker.
        """
        from repro.runtime.material import warm_with_material

        if arith is not None:
            import warnings

            from repro.crypto.groups import set_arith_backend

            try:
                set_arith_backend(arith)
            except ValueError as exc:
                warnings.warn(
                    f"worker cannot select arith backend {arith!r} ({exc}); "
                    "falling back to auto-detection",
                    RuntimeWarning,
                    stacklevel=2,
                )
                set_arith_backend("auto")
        warm_with_material(material)
        return self


SEQUENTIAL = ExecutionBackend(
    name="sequential",
    scheduler_policy="fifo",
    trace="full",
    description="reference engine: per-message callbacks, full trace (default)",
)

BATCHED = ExecutionBackend(
    name="batched",
    scheduler_policy="grouped",
    trace="light",
    description="throughput engine: grouped batch delivery, tracing off",
)

_REGISTRY: Dict[str, ExecutionBackend] = {
    backend.name: backend for backend in (SEQUENTIAL, BATCHED)
}


def available_backends() -> Dict[str, ExecutionBackend]:
    """Name -> backend for every registered backend."""
    return dict(_REGISTRY)


def get_backend(backend: Union[str, ExecutionBackend, None]) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through).

    Raises:
        ValueError: unknown backend name.
    """
    if backend is None:
        return SEQUENTIAL
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        return _REGISTRY[backend]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown backend {backend!r} (known: {known})") from None
