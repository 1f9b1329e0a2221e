"""ΠSTVS — self-tallying voting over SBC (Figure 18, Theorem 4).

[SP15]'s boardroom voting with the bulletin board replaced by our SBC
channel, which removes the trusted "control voter": *fairness* (no partial
tally before the end of casting) now comes from simultaneity instead of a
trusted party casting last.

Roles:

* **Authorities** ``A_j`` deal each voter ``V_i`` a share ``x_{i,j}`` of a
  secret exponent, with ``Σ_i x_{i,j} = 0`` per authority, encrypted to
  the voter's ``FPKG`` key, publishing commitments ``W_{i,j} = w^{x_{i,j}}``
  over RBC.
* **Scrutineers** (any party) check ``Π_i W_{i,j} = 1`` and compute each
  voter's verification key ``w_i = Π_j W_{i,j} = w^{x_i}``.
* **Voters** cast ``b_i = r^{x_i} · g^{v_i}`` (seed ``r`` from the RO)
  over SBC, with a disjunctive ZK proof of vote validity and correct
  exponent, plus an ``Fcert`` signature.
* **Self-tally**: since ``Σ_i x_i = 0``, the product of all ballots is
  ``g^{Σ v_i}``; encoding candidate ``j`` as ``(n+1)^j`` makes the digits
  of the discrete log the per-candidate counts.

The self-tally needs *every* registered voter's ballot (``Σ x_i = 0``
only over the full set) — the known property of [KY02]-style schemes; a
run with missing ballots reports an explicit failure rather than a wrong
tally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.crypto.batch import BATCH_EVENT_KIND, BatchItem, BatchPolicy, current_policy
from repro.crypto.groups import SchnorrGroup
from repro.crypto.hashing import expand, hash_to_int, xor_bytes
from repro.crypto.zkp import BallotProof, ballot_batch_item, ballot_prove, ballot_verify
from repro.functionalities.certification import Certification
from repro.functionalities.keygen import AuthorityKeyGen, VoterKeyGen
from repro.functionalities.random_oracle import RandomOracle
from repro.functionalities.rbc import RelaxedBroadcast
from repro.uc.encoding import encode, register_dataclass
from repro.uc.entity import Functionality, Party

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uc.session import Session

register_dataclass(BallotProof)


# ---------------------------------------------------------------------------
# Hashed-ElGamal share encryption (scalar shares to voter public keys)
# ---------------------------------------------------------------------------


def encrypt_share(
    group: SchnorrGroup, public: int, share: int, rng
) -> Tuple[int, bytes]:
    """Encrypt scalar ``share`` to ``public``: ``(g^k, share ⊕ H(pk^k))``."""
    k = group.random_scalar(rng)
    pad = expand(group.element_to_bytes(group.exp(public, k)), 32, domain=b"share")
    body = xor_bytes(share.to_bytes(32, "big"), pad)
    return group.power_of_g(k), body


def decrypt_share(group: SchnorrGroup, secret: int, ciphertext: Tuple[int, bytes]) -> int:
    """Inverse of :func:`encrypt_share` for the key owner."""
    ephemeral, body = ciphertext
    pad = expand(group.element_to_bytes(group.exp(ephemeral, secret)), 32, domain=b"share")
    return int.from_bytes(xor_bytes(body, pad), "big") % group.q


# ---------------------------------------------------------------------------
# Election definition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Election:
    """Static election parameters shared by all participants.

    Attributes:
        voters: Registered voter pids (all must cast for a self-tally).
        candidates: Candidate labels; candidate ``j`` is encoded as the
            exponent ``(len(voters)+1)^j``.
    """

    voters: Tuple[str, ...]
    candidates: Tuple[str, ...]

    def exponent_of(self, candidate: str) -> int:
        index = self.candidates.index(candidate)
        return (len(self.voters) + 1) ** index

    @property
    def choices(self) -> List[int]:
        """Allowed ballot exponents, in candidate order."""
        return [self.exponent_of(c) for c in self.candidates]

    def decode_tally(self, total: int) -> Dict[str, int]:
        """Digits of ``total`` in base ``len(voters)+1`` = per-candidate counts."""
        base = len(self.voters) + 1
        counts = {}
        for candidate in self.candidates:
            total, digit = divmod(total, base)
            counts[candidate] = digit
        return counts

    @property
    def tally_bound(self) -> int:
        """Upper bound on ``Σ v_i`` for the brute-force discrete log."""
        return (len(self.voters) + 1) ** len(self.candidates)


# ---------------------------------------------------------------------------
# Authority
# ---------------------------------------------------------------------------


class AuthorityParty(Party):
    """An election authority ``A_j``: deals exponent shares summing to zero."""

    def __init__(
        self,
        session: "Session",
        pid: str,
        election: Election,
        pkg: VoterKeyGen,
        skg: AuthorityKeyGen,
        rbc: RelaxedBroadcast,
    ) -> None:
        super().__init__(session, pid)
        self.election = election
        self.pkg = pkg
        self.skg = skg
        self.rbc = rbc
        self.dealt = False
        self.clock_recipients.append(rbc)

    def deal(self) -> None:
        """``Init``-phase input: deal shares ``x_{i,j}`` with ``Σ_i x_{i,j} = 0``."""
        if self.dealt:
            return
        self.dealt = True
        group, w = self.skg.parameters()
        # ``w`` carries every share commitment here and every voter's
        # key check in ``_finish_setup``.
        group.fixed_base(w)
        voters = self.election.voters
        shares = [group.random_scalar(self.session.rng) for _ in voters[:-1]]
        shares.append((-sum(shares)) % group.q)
        encrypted: Dict[str, Tuple[int, bytes]] = {}
        commitments: Dict[str, int] = {}
        for voter, share in zip(voters, shares):
            public = self.pkg.public_key(voter)
            if public is None:
                _, public = self.pkg.keygen(voter)
            encrypted[voter] = encrypt_share(group, public, share, self.session.rng)
            commitments[voter] = group.exp(w, share)
        payload = (
            "Shares",
            tuple(sorted(encrypted.items())),
            tuple(sorted(commitments.items())),
        )
        self.rbc.broadcast(self, payload)


# ---------------------------------------------------------------------------
# Voter (doubles as scrutineer)
# ---------------------------------------------------------------------------


class VoterParty(Party):
    """A voter ``V_i``: assembles its secret exponent, casts, self-tallies."""

    def __init__(
        self,
        session: "Session",
        pid: str,
        election: Election,
        sbc: Functionality,
        pkg: VoterKeyGen,
        skg: AuthorityKeyGen,
        authority_rbcs: Dict[str, RelaxedBroadcast],
        certs: Dict[str, Certification],
        oracle: RandomOracle,
    ) -> None:
        super().__init__(session, pid)
        self.election = election
        self.sbc = sbc
        self.pkg = pkg
        self.skg = skg
        self.certs = certs
        self.oracle = oracle
        self.group, self.w = skg.parameters()
        self.key_secret, self.key_public = pkg.keygen(pid)

        #: authority pid -> (encrypted shares, commitments)
        self.dealings: Dict[str, Tuple[dict, dict]] = {}
        self.secret_exponent: Optional[int] = None
        self.verification_keys: Dict[str, int] = {}
        self.result: Optional[Dict[str, int]] = None
        self.tally_failure: Optional[str] = None
        self._pending_vote: Optional[str] = None
        self._cast = False

        if hasattr(sbc, "attach"):
            sbc.attach(self)
        self.route[sbc.fid] = self._on_sbc
        for rbc in authority_rbcs.values():
            self.route[rbc.fid] = self._on_authority
        if sbc not in self.clock_recipients:
            self.clock_recipients.append(sbc)
        self._expected_authorities = set(authority_rbcs)

    # -- setup phase ---------------------------------------------------------

    def _on_authority(self, message: Any, source: Functionality) -> None:
        kind, payload, sender = message
        if kind != "Broadcast":
            return
        if not (isinstance(payload, tuple) and payload and payload[0] == "Shares"):
            return
        _, encrypted_items, commitment_items = payload
        self.dealings[sender] = (dict(encrypted_items), dict(commitment_items))
        if set(self.dealings) == self._expected_authorities:
            self._finish_setup()

    def _finish_setup(self) -> None:
        group, w = self.group, self.w
        # Scrutineer check: each authority's commitments multiply to 1.
        for authority, (_, commitments) in self.dealings.items():
            product = 1
            for voter in self.election.voters:
                product = group.mul(product, commitments.get(voter, 1))
            if product != 1:
                self.record("scrutineer_reject", authority)
                return
        # Verification keys w_i = Π_j W_{i,j}.
        for voter in self.election.voters:
            key = 1
            for _, commitments in self.dealings.values():
                key = group.mul(key, commitments.get(voter, 1))
            self.verification_keys[voter] = key
        # Own secret exponent x_i = Σ_j x_{i,j} (verified against w_i).
        total = 0
        for encrypted, _ in self.dealings.values():
            total = (total + decrypt_share(group, self.key_secret, encrypted[self.pid])) % group.q
        if group.exp(w, total) != self.verification_keys[self.pid]:
            self.record("share_mismatch", self.pid)
            return
        self.secret_exponent = total
        self.record("setup_done", self.pid)
        if self._pending_vote is not None:
            vote, self._pending_vote = self._pending_vote, None
            self.vote(vote)

    # -- casting ----------------------------------------------------------------

    def _seed(self) -> int:
        """The public random seed ``r`` (a group element from the RO).

        Its log is a hash every party computes, so it is registered with
        the group: every power of ``r`` (``r^{x_i}`` in the ballot, and
        the proof's and verifiers' powers) becomes a ``g``-power.
        """
        digest = self.oracle.query(b"election-seed:" + self.session.sid.encode(), self.pid)
        exponent = hash_to_int(digest, modulus=self.group.q, domain=b"seed")
        return self.group.public_power_of_g(exponent)

    def vote(self, candidate: str) -> None:
        """``Vote`` input: build, prove, sign and cast the ballot via SBC."""
        if candidate not in self.election.candidates:
            raise ValueError(f"unknown candidate {candidate!r}")
        if self._cast:
            return
        if self.secret_exponent is None:
            self._pending_vote = candidate  # cast as soon as setup completes
            return
        self._cast = True
        group = self.group
        seed = self._seed()
        exponent = self.election.exponent_of(candidate)
        ballot = group.mul(
            group.exp(seed, self.secret_exponent), group.power_of_g(exponent)
        )
        proof = ballot_prove(
            group,
            seed,
            self.verification_keys[self.pid],
            ballot,
            self.secret_exponent,
            exponent,
            self.election.choices,
            self.session.rng,
            key_base=self.w,
        )
        signature = self.certs[self.pid].sign(
            self.pid, encode((ballot, proof, self.pid))
        )
        payload = ("Ballot", self.pid, ballot, proof, signature)
        if self.corrupted:
            self.sbc.adv_broadcast(self.pid, payload)
        else:
            self.sbc.broadcast(self, payload)

    # -- self-tally ------------------------------------------------------------------

    def _on_sbc(self, message: Any, source: Functionality) -> None:
        kind, batch = message
        if kind != "Broadcast" or self.result is not None:
            return
        if not self.verification_keys:
            self.tally_failure = "setup incomplete"
            self.output(("Result", None, self.tally_failure))
            return
        seed = self._seed()
        policy = current_policy()
        if policy is not None:
            ballots = self._tally_ballots_batched(batch, seed, policy)
        else:
            ballots = self._tally_ballots(batch, seed)
        group = self.group
        missing = [v for v in self.election.voters if v not in ballots]
        if missing:
            # Σ x_i = 0 holds only over the full voter set; a partial
            # product is indistinguishable from random.
            self.tally_failure = f"missing ballots: {missing}"
            self.output(("Result", None, self.tally_failure))
            return
        product = 1
        for ballot in ballots.values():
            product = group.mul(product, ballot)
        try:
            total = group.discrete_log_small(product, bound=self.election.tally_bound)
        except ValueError:
            self.tally_failure = "tally outside bound (inconsistent ballots)"
            self.output(("Result", None, self.tally_failure))
            return
        self.result = self.election.decode_tally(total)
        self.output(("Result", self.result, None))

    def _tally_ballots(self, batch: Sequence[Any], seed: int) -> Dict[str, int]:
        """Per-item ballot screening: the sequential reference path."""
        group = self.group
        ballots: Dict[str, int] = {}
        for item in batch:
            if not (isinstance(item, tuple) and len(item) == 5 and item[0] == "Ballot"):
                continue
            _, voter, ballot, proof, signature = item
            if voter in ballots or voter not in self.election.voters:
                continue
            if not self.certs[voter].verify(encode((ballot, proof, voter)), signature):
                continue
            if not isinstance(proof, BallotProof):
                continue
            if not ballot_verify(
                group,
                seed,
                self.verification_keys[voter],
                ballot,
                proof,
                self.election.choices,
                key_base=self.w,
            ):
                continue
            ballots[voter] = ballot
        return ballots

    def _tally_ballots_batched(
        self, batch: Sequence[Any], seed: int, policy: BatchPolicy
    ) -> Dict[str, int]:
        """Ballot screening via one random-linear-combination batch.

        Each entry contributes two items — the certificate check and the
        disjunctive ballot proof — to a single
        :func:`~repro.crypto.batch.verify_batch` call; certificates whose
        backend cannot express an equation (the ideal ``Fcert`` registry)
        join as exact-check fallbacks.  Accepting the first *verified*
        occurrence per voter reproduces the per-item loop's
        dedup-by-acceptance outcome exactly, duplicates and forgeries
        included.  When ``policy.record_trace`` is set the round records
        one :data:`~repro.crypto.batch.BATCH_EVENT_KIND` event, pinning
        batched runs in the trace digest like online-spend runs.
        """
        group = self.group
        entries: List[Tuple[str, int]] = []
        items: List[BatchItem] = []
        for item in batch:
            if not (isinstance(item, tuple) and len(item) == 5 and item[0] == "Ballot"):
                continue
            _, voter, ballot, proof, signature = item
            if voter not in self.election.voters:
                continue
            cert = self.certs[voter]
            message = encode((ballot, proof, voter))
            if hasattr(cert, "batch_verify_item"):
                cert_item = cert.batch_verify_item(message, signature)
            else:
                cert_item = BatchItem(
                    bases=(), equations=(), check=partial(cert.verify, message, signature)
                )
            if isinstance(proof, BallotProof):
                proof_item = ballot_batch_item(
                    group,
                    seed,
                    self.verification_keys[voter],
                    ballot,
                    proof,
                    self.election.choices,
                    key_base=self.w,
                )
            else:
                proof_item = BatchItem(bases=(), equations=(), check=lambda: False)
            entries.append((voter, ballot))
            items.append(cert_item)
            items.append(proof_item)
        report = policy.run(group, items)
        if policy.record_trace:
            self.record(BATCH_EVENT_KIND, report.trace_detail())
        ballots: Dict[str, int] = {}
        for index, (voter, ballot) in enumerate(entries):
            if voter in ballots:
                continue
            if report.verdicts[2 * index] and report.verdicts[2 * index + 1]:
                ballots[voter] = ballot
        return ballots
