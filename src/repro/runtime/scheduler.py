"""Batched per-round message queues.

The synchronous network model delivers every message queued in round ``r``
at the start of round ``r+1``.  Pre-runtime, each functionality kept its
own ad-hoc list and invoked a callback per message.  :class:`BatchScheduler`
centralises that queueing: producers enqueue ``(key, item)`` pairs under a
named channel during the round, and the round-advance hook drains the whole
channel as one batch.

Two drain policies are supported:

* ``"fifo"`` — the batch preserves global enqueue order.  This reproduces
  the pre-runtime delivery order exactly, so event traces are byte-identical
  to the reference engine (the default backend's contract).
* ``"grouped"`` — the batch is regrouped by key (e.g. recipient pid),
  preserving per-key FIFO order but delivering each recipient's messages
  contiguously.  Cache-friendlier and one recipient lookup per group, at
  the cost of a different (still deterministic) interleaving across
  recipients in the trace.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Tuple

#: Valid drain policies.
POLICIES = ("fifo", "grouped")


class BatchScheduler:
    """Named per-round queues with batch draining.

    Args:
        policy: ``"fifo"`` (trace-preserving global order) or ``"grouped"``
            (per-key grouping, per-key FIFO preserved).
    """

    def __init__(self, policy: str = "fifo") -> None:
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {list(POLICIES)}, got {policy!r}")
        self.policy = policy
        self._queues: Dict[str, List[Tuple[Hashable, Any]]] = {}

    def enqueue(self, channel: str, key: Hashable, item: Any) -> None:
        """Queue ``item`` under ``channel``; ``key`` is the grouping key
        (typically the recipient pid) used by the ``grouped`` policy."""
        self._queues.setdefault(channel, []).append((key, item))

    def pending(self, channel: str) -> int:
        """Number of items currently queued under ``channel``."""
        return len(self._queues.get(channel, ()))

    def drain(self, channel: str) -> List[Tuple[Hashable, Any]]:
        """Remove and return the whole batch queued under ``channel``.

        The returned list is ordered according to :attr:`policy`; the
        channel's queue is empty afterwards (items enqueued while the
        batch is being processed land in the *next* drain).
        """
        queue = self._queues.pop(channel, None)
        if not queue:
            return []
        if self.policy == "fifo":
            return queue
        grouped: Dict[Hashable, List[Tuple[Hashable, Any]]] = {}
        for key, item in queue:
            grouped.setdefault(key, []).append((key, item))
        batch: List[Tuple[Hashable, Any]] = []
        for items in grouped.values():
            batch.extend(items)
        return batch
