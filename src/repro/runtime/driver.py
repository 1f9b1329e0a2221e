"""The round driver: the execution loop behind :class:`~repro.uc.environment.Environment`.

A :class:`RoundDriver` owns the mechanics of one UC round — input delivery,
activation order, ``Advance_Clock`` issuing — for a single session.  The
environment (and through it every stack builder and benchmark) delegates
here.  Synchrony comes from the global clock, so a round is a fixed
sequence of activations with nothing to await.

The loop is the pre-runtime ``Environment.run_round`` with two
trace-neutral elisions: the default-order activation list is resolved
once per topology epoch (registration and corruption bump the session's
``topology_epoch``), and the per-party adversary hook is skipped when the
installed adversary keeps the base no-op.  Neither elision records or
suppresses an event, so traces are byte-identical to the original engine
for any fixed seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uc.entity import Party
    from repro.uc.session import Session

#: An input action: apply the callable to the named party's machine.
Action = Tuple[str, Callable[[Any], Any]]


#: The base no-op ``Adversary.on_party_activated``, resolved lazily on
#: first use (``repro.uc`` imports the runtime, so the reverse import
#: must not run at module load).
_BASE_ACTIVATION_HOOK = None


def _base_activation_hook():
    global _BASE_ACTIVATION_HOOK
    if _BASE_ACTIVATION_HOOK is None:
        from repro.uc.adversary import Adversary

        _BASE_ACTIVATION_HOOK = Adversary.on_party_activated
    return _BASE_ACTIVATION_HOOK


class RoundDriver:
    """Drives one session round by round.

    Args:
        session: The session to drive.
        order: Default activation order for ``Advance_Clock`` (party ids);
            defaults to registration order.
    """

    def __init__(self, session: "Session", order: Optional[Sequence[str]] = None) -> None:
        self.session = session
        self._order = list(order) if order is not None else None
        self._cached_epoch = -1
        self._cached_parties: List["Party"] = []

    @property
    def order(self) -> Optional[List[str]]:
        """Default activation order (party ids); None = registration order."""
        return self._order

    @order.setter
    def order(self, value: Optional[Sequence[str]]) -> None:
        self._order = list(value) if value is not None else None
        self._cached_epoch = -1  # reassigning env.order must rebuild the cache

    def _parties(self, order: Optional[Sequence[str]]) -> Iterable["Party"]:
        """The parties to activate this round, in activation order.

        An explicit ``order`` is looked up party by party as the round
        reaches it, exactly as the reference loop did; the default order
        is cached until the session's topology changes.
        """
        session = self.session
        if order is not None:
            return (session.party(pid) for pid in order)
        if session.topology_epoch != self._cached_epoch:
            if self._order is not None:
                self._cached_parties = [session.party(pid) for pid in self._order]
            else:
                self._cached_parties = list(session.parties.values())
            self._cached_epoch = session.topology_epoch
        return self._cached_parties

    # -- the round loop ----------------------------------------------------

    def run_round(
        self,
        actions: Iterable[Action] = (),
        order: Optional[Sequence[str]] = None,
    ) -> int:
        """Run one full round and return the new clock time."""
        session = self.session
        for pid, action in actions:
            party = session.party(pid)
            if party.corrupted:
                continue
            action(party)
        # Bound-method aware: catches both subclass overrides and
        # instance-assigned hooks (adv.on_party_activated = fn).
        hook = session.adversary.on_party_activated
        hooked = getattr(hook, "__func__", hook) is not _base_activation_hook()
        for party in self._parties(order):
            if party.corrupted:
                continue
            if hooked:
                hook(party)
                if party.corrupted:
                    # on_party_activated may have corrupted it.
                    continue
            party.advance_clock()
        return session.clock.time

    def run_rounds(self, count: int, order: Optional[Sequence[str]] = None) -> int:
        """Run ``count`` empty rounds (clock ticks only)."""
        for _ in range(count):
            self.run_round((), order=order)
        return self.session.clock.time

    def run_until(
        self,
        predicate: Callable[["Session"], bool],
        max_rounds: int = 1000,
        order: Optional[Sequence[str]] = None,
    ) -> int:
        """Run empty rounds until ``predicate(session)`` holds.

        Raises:
            RuntimeError: if the predicate is still false after
                ``max_rounds`` rounds (a liveness failure in the system
                under test).
        """
        for _ in range(max_rounds):
            if predicate(self.session):
                return self.session.clock.time
            self.run_round((), order=order)
        if predicate(self.session):
            return self.session.clock.time
        raise RuntimeError(f"predicate not satisfied within {max_rounds} rounds")
