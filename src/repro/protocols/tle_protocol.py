"""ΠTLE — time-lock encryption over fair broadcast (Figure 12, Theorem 1).

An ``Enc(M, τ)`` request is served by time-locking a fresh ``ρ`` with
difficulty ``τdec = τ − (Cl + ∆ + 1)`` and broadcasting
``c = (c₁, c₂, c₃) = (AST.Enc(ρ, τdec), M ⊕ FRO(ρ), FRO(ρ‖M))``
together with ``τ`` via ``F∆,α_FBC``.  Fair broadcast guarantees everyone
receives ``c`` in the same round and begins solving together; the third
component authenticates the plaintext against the puzzle, so a witness
that opens ``c₁`` to the wrong ``ρ`` is rejected.

Theorem 1: this realizes ``F^{leak,delay}_TLE`` with
``leak(Cl) = Cl + α`` and ``delay = ∆ + 1``, adaptively, for any
``∆ ≥ α ≥ 0``.

Like ΠUBC/ΠFBC, the per-party machines are folded into one
:class:`TLEProtocolAdapter` exposing the ideal
:class:`~repro.functionalities.tle.TimeLockEncryption` interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.crypto.hashing import DIGEST_SIZE, xor_bytes
from repro.functionalities.random_oracle import RandomOracle
from repro.functionalities.tle import BOTTOM, INVALID_TIME, MORE_TIME
from repro.functionalities.wrapper import QueryWrapper
from repro.protocols.common import pad_message, unpad_message
from repro.tle.astrolabous import PuzzleSolver, TLECiphertext, ast_decrypt, ast_encrypt
from repro.uc.entity import Functionality, Party

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uc.session import Session

#: Wire form of a ΠTLE ciphertext: (c1 = puzzle of ρ, c2 = M ⊕ η, c3 = check).
WireCiphertext = Tuple[TLECiphertext, bytes, bytes]


@dataclass
class _EncRecord:
    message: Any
    ciphertext: Optional[WireCiphertext]
    tau: int
    recorded_at: int
    broadcast: bool = False


@dataclass
class _Puzzle:
    ciphertext: WireCiphertext
    tau: int
    solver: PuzzleSolver


@dataclass
class _TLEState:
    records: List[_EncRecord] = field(default_factory=list)  # L^P_rec
    puzzles: Dict[bytes, _Puzzle] = field(default_factory=dict)  # L^P_puzzle
    inbox: List[Tuple[WireCiphertext, int]] = field(default_factory=list)
    last_tick: int = -1


def _puzzle_key(ciphertext: WireCiphertext) -> bytes:
    c1, c2, c3 = ciphertext
    return b"".join(c1.chain) + c1.body + c2 + c3


class TLEProtocolAdapter(Functionality):
    """ΠTLE: drop-in replacement for the ideal ``FTLE``.

    Args:
        session: Owning session.
        fbc: The fair broadcast below (ideal ``FairBroadcast`` or the
            ΠFBC adapter); must expose ``delta``/``alpha`` attributes.
        wrapper: ``Wq(F*RO)``.
        oracle: Equivocation oracle ``FRO`` (digest size = ``msg_len``).
        msg_len: Fixed plaintext wire size.
    """

    def __init__(
        self,
        session: "Session",
        fbc: Functionality,
        wrapper: QueryWrapper,
        oracle: RandomOracle,
        msg_len: int,
        fid: str = "PiTLE",
    ) -> None:
        if oracle.digest_size != msg_len:
            raise ValueError("oracle digest size must equal msg_len")
        super().__init__(session, fid)
        self.fbc = fbc
        self.wrapper = wrapper
        self.oracle = oracle
        self.msg_len = msg_len
        self.delta = fbc.delta
        self.alpha = fbc.alpha
        #: The functionality parameters this protocol realizes (Theorem 1).
        self.delay = self.delta + 1
        self.leak_fn = lambda cl: cl + self.alpha
        self._state: Dict[str, _TLEState] = {}

    # -- wiring -------------------------------------------------------------

    def attach(self, party: Party) -> None:
        """Wire ``party`` into this TLE instance (routes + clock chain)."""
        party.route[self.fbc.fid] = lambda message, source: self._on_fbc(
            party, message
        )
        if hasattr(self.fbc, "attach"):
            self.fbc.attach(party)
        if self not in party.clock_recipients:
            party.clock_recipients.append(self)

    def _st(self, pid: str) -> _TLEState:
        return self._state.setdefault(pid, _TLEState())

    # -- Enc input -------------------------------------------------------------

    def enc(self, party: Party, message: Any, tau: int) -> str:
        """``Enc`` request: record; ciphertext is built at round's end."""
        if party.corrupted:
            raise ValueError("honest interface used by corrupted party")
        if tau < 0:
            return BOTTOM
        self._st(party.pid).records.append(
            _EncRecord(
                message=message, ciphertext=None, tau=tau, recorded_at=self.time
            )
        )
        return "Encrypting"

    # -- Retrieve input -----------------------------------------------------------

    def retrieve(self, party: Party) -> List[Tuple[Any, WireCiphertext, int]]:
        """Matured (message, ciphertext, τ) triples (age ≥ ∆ + 1)."""
        now = self.time
        return [
            (record.message, record.ciphertext, record.tau)
            for record in self._st(party.pid).records
            if record.broadcast
            and record.ciphertext is not None
            and now - record.recorded_at >= self.delta + 1
        ]

    # -- Dec input -------------------------------------------------------------------

    def dec(self, party: Party, ciphertext: Any, tau: int) -> Any:
        """``Dec`` request, Figure 12's decision tree."""
        if tau < 0 or ciphertext is None:
            return BOTTOM
        now = self.time
        if now < tau:
            return MORE_TIME
        state = self._st(party.pid)
        puzzle = state.puzzles.get(_puzzle_key(ciphertext))
        if puzzle is None:
            return BOTTOM
        if tau < puzzle.tau <= now:
            return INVALID_TIME
        if not puzzle.solver.solved:
            return MORE_TIME
        c1, c2, c3 = puzzle.ciphertext
        try:
            rho = ast_decrypt(c1, puzzle.solver.witness)
        except Exception:
            return BOTTOM
        eta = self.oracle.query(rho, querier=party.pid)
        padded = xor_bytes(c2, eta)
        check = self.oracle.query(rho + padded, querier=party.pid)
        if check != c3:
            return BOTTOM
        try:
            return unpad_message(padded)
        except ValueError:
            return BOTTOM

    # -- FBC delivery ------------------------------------------------------------------

    def _on_fbc(self, party: Party, message: Any) -> None:
        if not (isinstance(message, tuple) and message[0] == "Broadcast"):
            return
        payload = message[1]
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return
        ciphertext, tau = payload
        if not (
            isinstance(ciphertext, tuple)
            and len(ciphertext) == 3
            and isinstance(ciphertext[0], TLECiphertext)
        ):
            return
        self._st(party.pid).inbox.append((ciphertext, tau))

    # -- round work (Figure 12, Advance_Clock) ---------------------------------------------

    def on_party_tick(self, party: Party) -> None:
        now = self.time
        state = self._st(party.pid)
        if state.last_tick == now:
            return
        state.last_tick = now
        q = self.wrapper.q

        # Step 1: Advance_Clock down to FFBC first — its delayed
        # deliveries for this round land in our inbox.
        self.fbc.on_party_tick(party)

        # Step 2: register received ciphertexts as puzzles.
        inbox, state.inbox = state.inbox, []
        for ciphertext, tau in inbox:
            key = _puzzle_key(ciphertext)
            if key in state.puzzles:
                continue
            state.puzzles[key] = _Puzzle(
                ciphertext=ciphertext, tau=tau, solver=PuzzleSolver(ciphertext[0])
            )

        # Step 3: ENCRYPT&SOLVE.
        fresh = [record for record in state.records if record.ciphertext is None]
        randomness: Dict[int, List[bytes]] = {}
        difficulties: Dict[int, int] = {}
        for index, record in enumerate(fresh):
            tau_dec = max(0, record.tau - (now + self.delta + 1))
            difficulties[index] = tau_dec
            randomness[index] = [
                self.session.random_bytes(DIGEST_SIZE) for _ in range(q * tau_dec)
            ]

        enc_responses: Dict[bytes, bytes] = {}
        for j in range(q):
            points: List[bytes] = []
            if j == 0:
                for values in randomness.values():
                    points.extend(values)
            active = [
                puzzle.solver
                for puzzle in state.puzzles.values()
                if not puzzle.solver.solved
            ]
            first = len(points)
            points.extend([solver.next_query() for solver in active])
            if not points:
                continue
            responses = self.wrapper.evaluate(party.pid, points)
            if j == 0:
                for point, response in zip(points, responses):
                    enc_responses.setdefault(point, response)
            for solver, response in zip(active, responses[first:]):
                solver.absorb(response)

        for index, record in enumerate(fresh):
            rho = self.session.random_bytes(DIGEST_SIZE)
            c1 = ast_encrypt(
                rho,
                difficulty=difficulties[index],
                rate=q,
                hash_fn=lambda x: enc_responses[x],
                rng=self.session.rng,
                randomness=randomness[index],
            )
            eta = self.oracle.query(rho, querier=party.pid)
            padded = pad_message(record.message, self.msg_len)
            c2 = xor_bytes(padded, eta)
            c3 = self.oracle.query(rho + padded, querier=party.pid)
            record.ciphertext = (c1, c2, c3)

        # Step 4: broadcast freshly-built ciphertexts via FFBC.
        for record in state.records:
            if record.ciphertext is not None and not record.broadcast:
                record.broadcast = True
                payload = (record.ciphertext, record.tau)
                if party.corrupted:
                    self.fbc.adv_broadcast(party.pid, payload)
                else:
                    self.fbc.broadcast(party, payload)
