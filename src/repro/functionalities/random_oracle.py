"""The random oracle functionality ``FRO`` (paper Figure 3).

A lazily-sampled random function from byte strings to λ-bit digests.  The
oracle is *programmable*: simulators (and the equivocation tests that play
the simulator's part) may install chosen input/output pairs, which is the
standard technique the paper uses for equivocation ([Nie02]); programming
an already-queried point fails — exactly the simulation-abort condition in
the proofs of Lemma 2 and Theorem 2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set

from repro.crypto.hashing import DIGEST_SIZE
from repro.uc.entity import Functionality

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uc.session import Session


class ProgrammingConflict(Exception):
    """Attempted to program a point that was already queried/programmed."""


class RandomOracle(Functionality):
    """``FRO``: consistent uniformly-random responses, with programming.

    Args:
        session: Owning session.
        fid: Functionality id (distinct oracles have distinct ids and are
            independent, e.g. the paper's ``FRO`` vs ``F*RO``).
        digest_size: Response length in bytes (default λ = 256 bits).
    """

    def __init__(
        self, session: "Session", fid: str = "FRO", digest_size: int = DIGEST_SIZE
    ) -> None:
        super().__init__(session, fid)
        self.digest_size = digest_size
        self._table: Dict[bytes, bytes] = {}
        #: Which entity ids queried which points (used by tests asserting
        #: "the adversary had not queried ρ before programming").
        self.queried_by: Dict[bytes, Set[str]] = {}

    def query(self, x: bytes, querier: str = "?") -> bytes:
        """Return ``H(x)``, sampling it fresh on first use."""
        if not isinstance(x, bytes):
            raise TypeError("oracle inputs are byte strings")
        if x not in self._table:
            self._table[x] = self.session.random_bytes(self.digest_size)
        self.queried_by.setdefault(x, set()).add(querier)
        self.session.metrics.count_ro_query(self.fid, querier)
        return self._table[x]

    def query_many(self, xs: Iterable[bytes], querier: str = "?") -> List[bytes]:
        """``[H(x) for x in xs]``, billed to ``Metrics`` once for the batch.

        Same table, ``queried_by`` and RNG draws as calling :meth:`query`
        on each point in order, including when a non-``bytes`` point
        raises ``TypeError`` part-way (the points before it stay queried
        and billed).
        """
        table = self._table
        queried_by = self.queried_by
        draw = self.session.random_bytes
        size = self.digest_size
        out: List[bytes] = []
        try:
            for x in xs:
                if not isinstance(x, bytes):
                    raise TypeError("oracle inputs are byte strings")
                digest = table.get(x)
                if digest is None:
                    digest = table[x] = draw(size)
                who = queried_by.get(x)
                if who is None:
                    queried_by[x] = {querier}
                else:
                    who.add(querier)
                out.append(digest)
        finally:
            if out:
                self.session.metrics.count_ro_query(self.fid, querier, len(out))
        return out

    def hash_fn(self, querier: str = "?"):
        """A ``bytes -> bytes`` closure querying this oracle as ``querier``."""
        return lambda x: self.query(x, querier=querier)

    # -- simulator-facing interface -------------------------------------

    def was_queried(self, x: bytes, by: Optional[str] = None) -> bool:
        """Whether ``x`` has been queried (optionally: by a given entity)."""
        if x not in self.queried_by:
            return False
        if by is None:
            return True
        return by in self.queried_by[x]

    def program(self, x: bytes, digest: bytes) -> None:
        """Install ``H(x) = digest`` (simulator equivocation).

        Raises:
            ProgrammingConflict: if ``x`` was already queried or programmed
                with a different value — the simulation-abort event of the
                paper's proofs.
        """
        if len(digest) != self.digest_size:
            raise ValueError("programmed digest has wrong size")
        if x in self._table and self._table[x] != digest:
            raise ProgrammingConflict("point already defined with another value")
        if self.was_queried(x):
            raise ProgrammingConflict("point already queried; cannot equivocate")
        self._table[x] = digest
        self.record("program", x[:8])
