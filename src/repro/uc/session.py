"""The session object: registry, randomness, corruption state, accounting.

A :class:`Session` corresponds to one UC execution (one ``sid``): it owns
the global clock, the set of parties and functionalities, the adversary,
the deterministic randomness source, the metrics and the event trace.

The session is also where the execution *runtime* plugs in: the
:class:`~repro.runtime.backend.ExecutionBackend` chosen at construction
fixes the trace mode and the drain policy of the per-round message
scheduler.  The default (``sequential``) backend reproduces the
pre-runtime engine byte-for-byte.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Set, Union

from repro.runtime.backend import ExecutionBackend, get_backend
from repro.runtime.scheduler import BatchScheduler
from repro.uc.clock import GlobalClock
from repro.uc.errors import CorruptionError, UnknownEntity
from repro.uc.metrics import Metrics
from repro.uc.trace import EventLog, NullEventLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uc.adversary import Adversary
    from repro.uc.entity import Functionality, Party


class Session:
    """One UC protocol session.

    Args:
        sid: Session identifier.
        seed: Seed for the session RNG — all protocol randomness must come
            from :attr:`rng` (or RNGs derived from it) so executions are
            reproducible.
        adversary: The adversary for this execution; defaults to a
            :class:`~repro.uc.adversary.PassiveAdversary`.
        backend: Execution backend (name or instance) fixing the trace
            mode and message-drain policy; default ``"sequential"``.
        trace: Optional trace-mode override (``"full"`` / ``"light"``);
            ``None`` uses the backend's default.
    """

    def __init__(
        self,
        sid: str = "sid0",
        seed: int = 0,
        adversary: Optional["Adversary"] = None,
        backend: Union[str, ExecutionBackend, None] = None,
        trace: Optional[str] = None,
    ) -> None:
        self.sid = sid
        self.rng = random.Random(seed)
        self.backend = get_backend(backend)
        trace_mode = trace if trace is not None else self.backend.trace
        self.log = NullEventLog() if trace_mode == "light" else EventLog()
        self.scheduler = BatchScheduler(policy=self.backend.scheduler_policy)
        self.metrics = Metrics()
        self.parties: Dict[str, "Party"] = {}
        self.functionalities: Dict[str, "Functionality"] = {}
        self.corrupted: Set[str] = set()
        #: Bumped whenever the party topology changes (registration or
        #: corruption); the round driver and caches key their snapshots on it.
        self.topology_epoch = 0
        self._honest_cache: Optional[Dict[str, "Party"]] = None
        self._honest_pids: Optional[FrozenSet[str]] = None
        self.clock = GlobalClock(self)
        if adversary is None:
            from repro.uc.adversary import PassiveAdversary

            adversary = PassiveAdversary()
        self.adversary = adversary
        adversary.attach(self)

    # -- registry -------------------------------------------------------------

    def register_party(self, party: "Party") -> None:
        """Register ``party``; identifiers must be unique within the session."""
        if party.pid in self.parties:
            raise ValueError(f"duplicate party id {party.pid!r}")
        self.parties[party.pid] = party
        self._invalidate_topology()
        self.adversary.on_party_registered(party)

    def register_functionality(self, functionality: "Functionality") -> None:
        """Register ``functionality``; identifiers must be unique."""
        if functionality.fid in self.functionalities:
            raise ValueError(f"duplicate functionality id {functionality.fid!r}")
        self.functionalities[functionality.fid] = functionality

    def party(self, pid: str) -> "Party":
        """Look up a party by id."""
        try:
            return self.parties[pid]
        except KeyError:
            raise UnknownEntity(f"no party {pid!r}") from None

    def functionality(self, fid: str) -> "Functionality":
        """Look up a functionality by id."""
        try:
            return self.functionalities[fid]
        except KeyError:
            raise UnknownEntity(f"no functionality {fid!r}") from None

    # -- corruption --------------------------------------------------------------

    def is_corrupted(self, pid: str) -> bool:
        """Whether party ``pid`` is currently corrupted."""
        return pid in self.corrupted

    def _invalidate_topology(self) -> None:
        self.topology_epoch += 1
        self._honest_cache = None
        self._honest_pids = None

    @property
    def honest_parties(self) -> Dict[str, "Party"]:
        """View of currently honest parties (registration order preserved).

        The mapping is cached between topology changes — treat it as
        read-only; it is rebuilt after every ``register_party`` /
        ``corrupt``.
        """
        if self._honest_cache is None:
            self._honest_cache = {
                pid: party
                for pid, party in self.parties.items()
                if pid not in self.corrupted
            }
        return self._honest_cache

    @property
    def honest_pids(self) -> FrozenSet[str]:
        """Frozen set of currently honest party ids (cached like
        :attr:`honest_parties`; the clock's advancement condition)."""
        if self._honest_pids is None:
            self._honest_pids = frozenset(
                pid for pid in self.parties if pid not in self.corrupted
            )
        return self._honest_pids

    def corrupt(self, pid: str) -> "Party":
        """Corrupt party ``pid`` (adaptive, possibly mid-round).

        Returns the party machine (its internal state is thereby exposed to
        the adversary).  The clock stops waiting for the party.

        Raises:
            UnknownEntity: unknown ``pid``.
            CorruptionError: already corrupted.
        """
        party = self.party(pid)
        if pid in self.corrupted:
            raise CorruptionError(f"{pid} is already corrupted")
        self.corrupted.add(pid)
        self._invalidate_topology()
        self.log.record(self.clock.time, "corrupt", pid)
        self.metrics.inc("corruptions")
        self.clock.note_corruption(pid)
        self.adversary.on_corrupted(party)
        return party

    # -- randomness helpers ---------------------------------------------------------

    def random_bytes(self, n: int) -> bytes:
        """``n`` session-deterministic random bytes.

        The ``n == 0`` guard matters twice over: ``getrandbits(0)`` raises,
        and the fast path must not consume RNG state (a zero-byte request
        must leave the deterministic stream untouched).  Audited companions:
        :func:`repro.crypto.hashing.expand` and
        :func:`repro.crypto.hashing.xor_bytes` are likewise zero-length
        safe without touching any stateful source.
        """
        return self.rng.getrandbits(8 * n).to_bytes(n, "big") if n else b""

    def fresh_tag(self) -> bytes:
        """A unique random tag from {0,1}^λ (λ = 128 bits here)."""
        return self.random_bytes(16)
