"""The environment Z: drives inputs and the round structure.

In UC, the environment schedules the execution.  :class:`Environment`
provides the common driving pattern used throughout the paper's figures:

1. deliver this round's inputs to parties (``Broadcast``, ``Enc``,
   ``Vote``, ... — modelled as callables applied to the party machine);
2. issue ``Advance_Clock`` to every honest party, in an activation order
   the environment (hence the adversary) may choose.

The adversary's hooks fire synchronously during both phases, so adaptive
mid-round corruption is exercised simply by running an adversary whose
``on_leak`` corrupts.

The round loop itself lives in :mod:`repro.runtime.driver`; the
environment delegates to one :class:`~repro.runtime.driver.RoundDriver`
per session.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from repro.runtime.driver import Action, RoundDriver
from repro.uc.session import Session

__all__ = ["Action", "Environment"]


class Environment:
    """Round driver facade for a session.

    Args:
        session: The session to drive.
        order: Default activation order for ``Advance_Clock`` (party ids);
            defaults to registration order.
    """

    def __init__(self, session: Session, order: Optional[Sequence[str]] = None) -> None:
        self.session = session
        self.driver = RoundDriver(session, order=order)

    @property
    def order(self) -> Optional[Sequence[str]]:
        """Default activation order (proxied to the driver)."""
        return self.driver.order

    @order.setter
    def order(self, value: Optional[Sequence[str]]) -> None:
        self.driver.order = list(value) if value is not None else None

    def run_round(
        self,
        actions: Iterable[Action] = (),
        order: Optional[Sequence[str]] = None,
    ) -> int:
        """Run one full round and return the new clock time.

        Args:
            actions: Input deliveries performed at the start of the round.
                Actions addressed to corrupted parties are skipped (their
                inputs are the adversary's business).
            order: Activation order for this round's ``Advance_Clock``.
        """
        return self.driver.run_round(actions, order=order)

    def run_rounds(self, count: int, order: Optional[Sequence[str]] = None) -> int:
        """Run ``count`` empty rounds (clock ticks only)."""
        return self.driver.run_rounds(count, order=order)

    def run_until(
        self,
        predicate: Callable[[Session], bool],
        max_rounds: int = 1000,
        order: Optional[Sequence[str]] = None,
    ) -> int:
        """Run empty rounds until ``predicate(session)`` holds.

        Raises:
            RuntimeError: if the predicate is still false after
                ``max_rounds`` rounds (a liveness failure in the system
                under test).
        """
        return self.driver.run_until(predicate, max_rounds=max_rounds, order=order)
