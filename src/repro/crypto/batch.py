"""Random-linear-combination batch verification.

Protocol rounds verify many proofs of the same handful of shapes —
Schnorr signatures on certified messages, PoK/Chaum–Pedersen statements,
disjunctive ballot proofs.  Each one costs a few full-width
exponentiations; N of them cost N times that.  The classic fix (the
``batch_opening``/``batch_reconstruction`` idiom in HoneyBadgerMPC-style
stacks) is a *random linear combination*: scale every verification
equation by an independent short random coefficient, multiply them all
together, and check the single combined equation with one simultaneous
multi-exponentiation.  If every equation holds, the combination holds;
if any fails, the combination fails except with probability
:math:`2^{-63}` per trial (an adversary would have to guess the
coefficients drawn *after* the proofs were fixed).

The pieces:

* :class:`Equation` / :class:`BatchItem` — one candidate's verification
  work, pre-chewed: group-element bases to membership-screen, equations
  of the form :math:`\\prod lhs_i = \\prod rhs_j`, and an exact per-item
  ``check()`` fallback;
* :func:`verify_batch` — the engine: screens memberships (cached across
  items — public keys repeat), draws one 64-bit coefficient *per
  equation* from a seeded RNG, evaluates the combined equation through
  :meth:`~repro.crypto.groups.SchnorrGroup.multi_exp` (Straus shares
  the squaring ladder across every base in the batch), and on failure
  bisects divide-and-conquer style down to the exact culprit set;
* :class:`BatchPolicy` + :func:`batching` — the ambient opt-in seam
  (mirrors :mod:`repro.crypto.randomness`): protocol code asks
  :func:`current_policy` and batches only when one is installed, so the
  default path stays per-item and byte-identical to the sequential
  reference.

Soundness requires every base to live in the order-q subgroup (a rogue
element of order 2 can cancel between equations), so items whose bases
fail the membership screen — and items with no equations at all — are
resolved through their exact ``check()``.  Leaves of the bisection also
resolve via ``check()``, which makes the final verdict vector *exactly*
the per-item verdicts (up to the negligible false-accept probability of
a passing combined equation), preserving output parity with unbatched
runs.

Coefficients come from ``random.Random(seed)`` and each item draws one
coefficient per equation: a *single* per-item coefficient would be
unsound, since errors in two equations of the same item could cancel.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.crypto.groups import SchnorrGroup

#: Trace event kind recorded for each batched verification round (the
#: analogue of ``online.spend``: batched runs are digest-pinned).
BATCH_EVENT_KIND = "verify.batch"

#: Default RLC coefficient seed; any fixed value is sound (coefficients
#: only need to be unpredictable to the *prover*, who committed to the
#: proofs before the batch was formed) and a fixed default keeps runs
#: reproducible.
DEFAULT_BATCH_SEED = 0x5BC

#: Width of the random coefficients (bits); error-detection probability
#: is 1 - 2^{-COEFFICIENT_BITS+1} per combined evaluation.
COEFFICIENT_BITS = 64


@dataclass(frozen=True)
class Equation:
    """One verification equation ``prod(lhs) == prod(rhs)``.

    Both sides are ``(base, exponent)`` pair tuples, evaluated modulo the
    group; keeping the two-sided form (instead of folding into
    ``prod(b^e) == 1``) preserves short exponents — negating an exponent
    mod q would widen a 64-bit coefficient to full q-width.
    """

    lhs: Tuple[Tuple[int, int], ...]
    rhs: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True, eq=False)
class BatchItem:
    """One candidate for batch verification.

    Attributes:
        bases: Every group element the equations exponentiate (screened
            for subgroup membership before the item may join a batch).
        equations: The item's verification equations; empty means "not
            batchable" and routes straight to ``check``.
        check: Exact per-item verifier (zero-arg), the ground truth for
            fallbacks and bisection leaves.
    """

    bases: Tuple[int, ...]
    equations: Tuple[Equation, ...]
    check: Callable[[], bool]


@dataclass(frozen=True)
class BatchReport:
    """Outcome of one :func:`verify_batch` call.

    Attributes:
        verdicts: Per-item validity, same order as the input items.
        culprits: Indices of invalid items (empty when all verified).
        batched: How many items entered the combined equation.
        fallback: How many items resolved via their exact ``check()``
            (non-member bases, no equations, or too few to batch).
        evaluations: Combined multi-exp evaluations performed (1 for a
            clean batch; grows logarithmically during bisection).
        seed: The RLC coefficient seed used (reproducibility anchor).
    """

    verdicts: Tuple[bool, ...]
    culprits: Tuple[int, ...]
    batched: int
    fallback: int
    evaluations: int
    seed: int

    @property
    def all_valid(self) -> bool:
        """True when every item verified."""
        return not self.culprits

    def trace_detail(self) -> Dict[str, Any]:
        """Canonical detail payload for the ``verify.batch`` trace event."""
        return {
            "items": len(self.verdicts),
            "batched": self.batched,
            "fallback": self.fallback,
            "evaluations": self.evaluations,
            "culprits": list(self.culprits),
            "seed": self.seed,
        }


def verify_batch(
    group: SchnorrGroup,
    items: Sequence[BatchItem],
    *,
    seed: int = DEFAULT_BATCH_SEED,
    min_items: int = 2,
) -> BatchReport:
    """Verify ``items`` together via one random-linear-combination check.

    Items whose bases all pass the (cached) membership screen and that
    carry at least one equation join the combined check; everything else
    — and every bisection leaf — resolves through its exact ``check()``,
    so the verdict vector matches per-item verification.  Fewer than
    ``min_items`` batchable items skip the combination entirely (one
    combined multi-exp costs more than one direct verify).

    Coefficients are drawn once per (item, equation) from
    ``random.Random(seed)`` in item order, so a given seed reproduces
    the exact evaluation sequence, bisection included.
    """
    item_list = list(items)
    n = len(item_list)
    verdicts: List[bool] = [False] * n
    membership: Dict[int, bool] = {}

    def member(element: int) -> bool:
        verdict = membership.get(element)
        if verdict is None:
            verdict = group.is_member(element)
            membership[element] = verdict
        return verdict

    batchable: List[int] = []
    fallback = 0
    for index, item in enumerate(item_list):
        if item.equations and all(member(base) for base in item.bases):
            batchable.append(index)
        else:
            verdicts[index] = bool(item.check())
            fallback += 1

    if len(batchable) < max(min_items, 2):
        for index in batchable:
            verdicts[index] = bool(item_list[index].check())
        fallback += len(batchable)
        batched = 0
        batchable = []
    else:
        batched = len(batchable)

    # RLC coefficients are *public* verifier randomness derived from a
    # Fiat–Shamir-style digest seed — deliberately reproducible, never
    # secret, never spent from the preprocessed pools; the seam does not
    # apply.
    rng = random.Random(seed)  # repro: allow[RPR002]
    coefficients: Dict[int, Tuple[int, ...]] = {
        index: tuple(
            rng.getrandbits(COEFFICIENT_BITS) | 1  # repro: allow[RPR002]
            for _ in item_list[index].equations
        )
        for index in batchable
    }

    evaluations = 0

    def combined_holds(indices: Sequence[int]) -> bool:
        nonlocal evaluations
        evaluations += 1
        lhs_pairs: List[Tuple[int, int]] = []
        rhs_pairs: List[Tuple[int, int]] = []
        for index in indices:
            for equation, z in zip(item_list[index].equations, coefficients[index]):
                for base, exponent in equation.lhs:
                    lhs_pairs.append((base, exponent * z))
                for base, exponent in equation.rhs:
                    rhs_pairs.append((base, exponent * z))
        return group.multi_exp(lhs_pairs) == group.multi_exp(rhs_pairs)

    def resolve(indices: Sequence[int]) -> None:
        if len(indices) == 1:
            index = indices[0]
            verdicts[index] = bool(item_list[index].check())
            return
        if combined_holds(indices):
            for index in indices:
                verdicts[index] = True
            return
        mid = len(indices) // 2
        resolve(indices[:mid])
        resolve(indices[mid:])

    if batchable:
        resolve(batchable)

    culprits = tuple(index for index, ok in enumerate(verdicts) if not ok)
    return BatchReport(
        verdicts=tuple(verdicts),
        culprits=culprits,
        batched=batched,
        fallback=fallback,
        evaluations=evaluations,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Ambient batching policy (the opt-in seam protocol code consults)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchPolicy:
    """How a protocol round should batch its verifications.

    Attributes:
        seed: RLC coefficient seed passed to :func:`verify_batch`.
        min_items: Below this many batchable items, verify per-item.
        record_trace: Record a :data:`BATCH_EVENT_KIND` event per batched
            round.  On: batched runs are digest-pinned (like online-spend
            runs) and comparable across workers/backends, but differ from
            unbatched digests.  Off: batched runs stay byte-identical to
            per-item verification end to end.
    """

    seed: int = DEFAULT_BATCH_SEED
    min_items: int = 2
    record_trace: bool = True

    def run(self, group: SchnorrGroup, items: Sequence[BatchItem]) -> BatchReport:
        """Batch-verify ``items`` under this policy's parameters."""
        return verify_batch(group, items, seed=self.seed, min_items=self.min_items)


#: ContextVar, not a module global: concurrently running sessions each
#: scope their own policy (see
#: :data:`repro.crypto.randomness._SOURCE` for the full rationale).
_POLICY: ContextVar[Optional[BatchPolicy]] = ContextVar(
    "repro_batch_policy", default=None
)


def current_policy() -> Optional[BatchPolicy]:
    """The installed batching policy, or None (per-item verification)."""
    return _POLICY.get()


def install_policy(policy: Optional[BatchPolicy]) -> Optional[BatchPolicy]:
    """Install ``policy`` in the current context; returns the previous one."""
    previous = _POLICY.get()
    _POLICY.set(policy)
    return previous


@contextmanager
def batching(policy: Optional[BatchPolicy]) -> Iterator[Optional[BatchPolicy]]:
    """Scope ``policy`` as the ambient batching policy.

    ``None`` is a no-op pass-through (mirrors
    :func:`repro.crypto.randomness.spending`), so call sites can wrap
    unconditionally::

        with batching(policy):
            run_trial(...)
    """
    if policy is None:
        yield None
        return
    previous = install_policy(policy)
    try:
        yield policy
    finally:
        install_policy(previous)
