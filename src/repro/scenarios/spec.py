"""Declarative scenario specifications and the expectation table.

A :class:`ScenarioSpec` is one *cell*: which stack to build, which
adversary strategy (from :mod:`repro.attacks`) to install, which
:class:`~repro.scenarios.faults.FaultPlan` to apply and which execution
backend to run under.  A :class:`ScenarioMatrix` expands the cross
product and attaches to every cell the paper-derived **expectation**:
for each trace property, whether it must hold or must be violated in
that world.  The conformance suite then asserts equality — each paper
property holds exactly where the paper says it does, and each attack
succeeds exactly where the paper says it can.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

from repro.scenarios.faults import DEFAULT_FAULTS, FaultPlan

#: Marker prefix of every scenario input payload; attack predicates and
#: secrecy scans key on it.
PAYLOAD_PREFIX = b"scn:"

#: The value replacement attacks try to substitute.
REPLACEMENT = PAYLOAD_PREFIX + b"evil"

#: Stack names the runner knows how to build.  ``family`` (the part
#: before the first dash) selects the adversary wiring and expectations.
STACKS = ("ubc", "fbc", "sbc-hybrid", "sbc-composed", "durs", "ds-ubc")

#: Adversary strategy names resolvable by ``scenarios.adversaries``.
STRATEGIES = ("passive", "copy", "replace", "replace-early", "bias")


def payload_for(pid: str) -> bytes:
    """The canonical input payload broadcast by ``pid`` in scenarios."""
    return PAYLOAD_PREFIX + pid.encode()


@dataclass(frozen=True)
class ScenarioSpec:
    """One executable scenario cell.

    Attributes:
        name: Human-readable scenario name (matrix cells derive it).
        stack: Stack to build (one of :data:`STACKS`).
        adversary: Strategy name (one of :data:`STRATEGIES`).
        faults: Fault plan applied while driving the world.
        backend: Execution backend name for the session.
        seed: Session seed.
        n: Party count.
        senders: How many parties provide broadcast inputs (P0, P1, ...).
        params: Stack parameter overrides as ``(key, value)`` pairs
            (kept as a tuple so specs stay hashable and picklable).
        expect: ``(property name, must hold)`` pairs the conformance
            suite asserts.
    """

    name: str
    stack: str
    adversary: str = "passive"
    faults: FaultPlan = field(default_factory=FaultPlan)
    backend: str = "sequential"
    seed: int = 0
    n: int = 4
    senders: int = 2
    params: Tuple[Tuple[str, Any], ...] = ()
    expect: Tuple[Tuple[str, bool], ...] = ()

    @property
    def family(self) -> str:
        """Stack family: ``sbc-hybrid`` -> ``sbc``, ``ds-ubc`` -> ``ds``."""
        return self.stack.split("-", 1)[0]

    @property
    def mode(self) -> str:
        """Stack mode suffix (``hybrid``/``composed``), if any."""
        parts = self.stack.split("-", 1)
        return parts[1] if len(parts) == 2 else ""

    @property
    def cell_id(self) -> str:
        """Stable identifier: ``stack/adversary/fault/backend#seed``."""
        return (
            f"{self.stack}/{self.adversary}/{self.faults.name}/"
            f"{self.backend}#{self.seed}"
        )

    def param(self, key: str, default: Any = None) -> Any:
        for name, value in self.params:
            if name == key:
                return value
        return default

    def expectations(self) -> Dict[str, bool]:
        return dict(self.expect)

    def replace(self, **overrides: Any) -> "ScenarioSpec":
        """A copy of this spec with fields overridden."""
        return dataclasses.replace(self, **overrides)


# ---------------------------------------------------------------------------
# The expectation table: (stack family, adversary) -> property -> must hold.
#
# This is the paper, spelled as data:
# * UBC (Figure 8) is *unfair*: plaintexts leak at request time
#   (plaintext_secrecy fails), the copy attack lands, and an adaptive
#   corruption replaces the pending message (replacement observed).
# * FBC (Figure 10) hides the value until ``∆ − α``; once the adversary
#   reads it (Output_Request) the value is locked, so the read-then-replace
#   strategy always fails.
# * SBC (Figure 13 / Theorem 2) adds simultaneity: the copy attack never
#   sees a plaintext, ciphertext replays are dropped, and replacing a
#   sender's UBC traffic cannot smuggle a correlated value into the batch.
# * DURS (Figure 15): one uniform string, agreement and simultaneous
#   release among requesters.
# ---------------------------------------------------------------------------

_LIVE = (("delivery", True), ("agreement", True), ("simultaneous_delivery", True))

EXPECTATIONS: Mapping[Tuple[str, str], Tuple[Tuple[str, bool], ...]] = {
    ("ubc", "passive"): _LIVE
    + (("validity", True), ("no_duplicates", True), ("plaintext_secrecy", False)),
    ("ubc", "copy"): _LIVE
    + (("validity", True), ("plaintext_secrecy", False), ("copy_landed", True)),
    ("ubc", "replace"): _LIVE
    + (
        ("validity", True),
        ("plaintext_secrecy", False),
        ("replacement_delivered", True),
    ),
    ("fbc", "passive"): _LIVE
    + (
        ("validity", True),
        ("no_duplicates", True),
        ("plaintext_secrecy", True),
        ("fbc_lock_before_open", True),
    ),
    ("fbc", "copy"): _LIVE
    + (
        ("validity", True),
        ("plaintext_secrecy", True),
        ("copy_landed", False),
        ("fbc_lock_before_open", True),
    ),
    ("fbc", "replace"): _LIVE
    + (
        ("validity", True),
        ("plaintext_secrecy", True),
        ("replacement_blocked", True),
        ("replacement_delivered", False),
        ("fbc_lock_before_open", True),
    ),
    ("sbc", "passive"): _LIVE
    + (("validity", True), ("no_duplicates", True), ("plaintext_secrecy", True)),
    ("sbc", "copy"): _LIVE
    + (
        ("validity", True),
        ("no_duplicates", True),
        ("plaintext_secrecy", True),
        ("copy_landed", False),
    ),
    ("sbc", "replace"): _LIVE
    + (
        ("validity", True),
        ("plaintext_secrecy", True),
        ("replacement_delivered", False),
    ),
    ("durs", "passive"): _LIVE,
    ("durs", "copy"): _LIVE + (("copy_landed", False),),
    ("durs", "replace"): _LIVE + (("replacement_delivered", False),),
    ("ds", "passive"): _LIVE + (("validity", True), ("no_duplicates", True)),
}


def expected_for(stack: str, adversary: str) -> Tuple[Tuple[str, bool], ...]:
    """Expectation tuple for a (stack, adversary) pair.

    Raises:
        KeyError: no expectation is defined — the matrix refuses to run
            cells whose outcome the paper does not pin down.
    """
    family = stack.split("-", 1)[0]
    try:
        return EXPECTATIONS[(family, adversary)]
    except KeyError:
        raise KeyError(
            f"no expectation defined for stack family {family!r} under "
            f"adversary {adversary!r}"
        ) from None


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioMatrix:
    """A declarative sweep: stacks × adversaries × faults × backends."""

    name: str
    stacks: Tuple[str, ...]
    adversaries: Tuple[str, ...]
    faults: Tuple[FaultPlan, ...]
    backends: Tuple[str, ...] = ("sequential",)
    seed: int = 0

    @property
    def cells(self) -> int:
        return (
            len(self.stacks)
            * len(self.adversaries)
            * len(self.faults)
            * len(self.backends)
        )

    def expand(self) -> List[ScenarioSpec]:
        """The cell list, in deterministic axis order."""
        specs: List[ScenarioSpec] = []
        for stack in self.stacks:
            for adversary in self.adversaries:
                expect = expected_for(stack, adversary)
                for plan in self.faults:
                    for backend in self.backends:
                        specs.append(
                            ScenarioSpec(
                                name=f"{self.name}:{stack}/{adversary}",
                                stack=stack,
                                adversary=adversary,
                                faults=plan,
                                backend=backend,
                                seed=self.seed,
                                expect=expect,
                            )
                        )
        return specs


def default_matrix(seed: int = 0) -> ScenarioMatrix:
    """The conformance matrix run by CLI, benchmark E16 and the test suite.

    5 stacks × 3 adversaries × 3 fault patterns on the full-trace
    ``sequential`` backend = 45 cells; the ``batched`` (trace-off)
    backend is exercised by the cross-backend differential tests
    instead, since trace properties cannot be evaluated without an
    event log.
    """
    return ScenarioMatrix(
        name="default",
        stacks=("ubc", "fbc", "sbc-hybrid", "sbc-composed", "durs"),
        adversaries=("passive", "copy", "replace"),
        faults=DEFAULT_FAULTS,
        backends=("sequential",),
        seed=seed,
    )
