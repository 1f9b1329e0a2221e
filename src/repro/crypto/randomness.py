"""The randomness seam: where protocol nonces and sharing polynomials come from.

Schnorr signing, Σ-protocol proving and Feldman sharing each burn one
piece of fresh randomness per operation — a nonce scalar ``k`` (usually
together with its commitment ``g^k``) or a random degree-``t``
polynomial with its coefficient commitments.  The *offline/online*
protocol mode (HoneyBadgerMPC-style) precomputes exactly these values
into pools; this module is the seam that lets the online phase spend
them without the crypto layer knowing where they came from:

* :class:`RandomnessSource` — the interface: ``schnorr_nonce`` /
  ``nonce_scalar`` / ``feldman_polynomial``;
* :class:`SampleSource` — the default, installed at import time: sample
  per call from the caller's ``rng``, computing commitments on the spot.
  Its draws replicate the historical inline sampling *exactly* (same
  ``rng`` calls, in the same order), so default executions stay
  byte-identical to the pre-seam code — trace digests included;
* :func:`current_source` / :func:`spending` — read and scope the
  installed source.  The pool-backed implementation
  (:class:`~repro.runtime.material.MaterialCursor`) lives in the runtime
  layer; this module deliberately knows nothing about it.

A pool-backed source does **not** touch ``rng``, so spending pools
changes the downstream randomness stream — which is why pool-consuming
runs are digest-pinned separately from sample-per-call runs (the
runtime records the pool fingerprint and consumed cursor ranges in the
trace; see ``ARCHITECTURE.md``).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional, Tuple

__all__ = [
    "RandomnessSource",
    "SampleSource",
    "current_source",
    "install_source",
    "spending",
]


class RandomnessSource:
    """Where one protocol operation's fresh randomness comes from.

    Implementations must treat every draw as *consumed*: a nonce handed
    out twice is a broken signature scheme, not a cache hit.
    """

    #: Short label recorded in reports ("sample" / "pool").
    name = "source"

    def schnorr_nonce(self, group, rng) -> Tuple[int, int]:
        """One fresh ``(k, g^k)`` pair for a signature or ``g``-based proof."""
        raise NotImplementedError

    def nonce_scalar(self, group, rng) -> int:
        """One fresh nonce scalar for a proof over a non-``g`` base.

        The commitment under an arbitrary base cannot be precomputed, so
        only the scalar is handed out; the caller exponentiates.
        """
        raise NotImplementedError

    def feldman_polynomial(self, group, secret, threshold, rng):
        """Coefficients and commitments of one sharing polynomial.

        Returns ``(coefficients, commitments)`` with
        ``coefficients[0] == secret % group.q`` and
        ``commitments[k] == g^{coefficients[k]}``.
        """
        raise NotImplementedError


class SampleSource(RandomnessSource):
    """Sample-per-call (the historical behavior, and the default).

    Each method consumes the caller's ``rng`` exactly as the inlined
    code it replaced did, so executions under this source are
    byte-identical to pre-seam runs.
    """

    name = "sample"

    def schnorr_nonce(self, group, rng) -> Tuple[int, int]:
        k = group.random_scalar(rng)
        return k, group.power_of_g(k)

    def nonce_scalar(self, group, rng) -> int:
        return group.random_scalar(rng)

    def feldman_polynomial(self, group, secret, threshold, rng):
        coefficients = [secret % group.q] + [
            rng.randrange(group.q) for _ in range(threshold)
        ]
        commitments = tuple(group.power_of_g(a) for a in coefficients)
        return coefficients, commitments


#: The ambient source consulted by signing/proving/sharing.  A
#: :class:`~contextvars.ContextVar` rather than a module global so each
#: thread (and each asyncio task, for embedding callers) scopes its own
#: source: a ``with spending(cursor)`` inside one session must never
#: leak its pool cursor into a concurrently running session — that
#: would be a double-spend.  Single-threaded callers see the same
#: semantics as the old global.
_SOURCE: ContextVar[RandomnessSource] = ContextVar(
    "repro_randomness_source", default=SampleSource()
)


def current_source() -> RandomnessSource:
    """The ambient :class:`RandomnessSource` (default: sample-per-call)."""
    return _SOURCE.get()


def install_source(source: RandomnessSource) -> RandomnessSource:
    """Replace the ambient source; returns the previous one.

    The replacement is scoped to the current :mod:`contextvars` context
    — the current thread, or the current asyncio task when called from
    a coroutine — so concurrent sessions cannot observe each other's
    pool cursors.
    """
    previous = _SOURCE.get()
    _SOURCE.set(source)
    return previous


@contextmanager
def spending(source: Optional[RandomnessSource]) -> Iterator[Optional[RandomnessSource]]:
    """Scope ``source`` as the ambient randomness source.

    The online phase wraps one trial's build+run in this, so every
    signature/proof/sharing inside spends the trial's reserved pool
    slice; the previous source is restored even if the trial raises.
    ``None`` is a no-op (the trial runs on whatever is ambient), so
    runners handle online and offline trials with one ``with`` block.
    """
    if source is None:
        yield None
        return
    previous = install_source(source)
    try:
        yield source
    finally:
        install_source(previous)
