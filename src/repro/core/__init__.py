"""Public facade: one-call builders for every configuration in the paper.

The same environment script can drive three worlds:

* ``ideal``   — dummy parties over the ideal functionality (the left-hand
  side of each "Π realizes F" statement);
* ``hybrid``  — the protocol over ideal lower functionalities (the
  setting in which each lemma/theorem is stated);
* ``composed`` — the protocol over *realized* lower layers, i.e. the
  fully-composed world of Corollary 1
  (ΠSBC over ΠUBC and ΠTLE-over-ΠFBC-over-ΠUBC, resource-metered).

Example:
    >>> from repro.core import build_sbc_stack
    >>> stack = build_sbc_stack(n=4, mode="hybrid", seed=7)
    >>> stack.parties["P0"].broadcast(b"hello")
    >>> stack.run_until_delivery()
    >>> stack.outputs()["P3"]
    [b'hello']
"""

from repro.core.repeated import RepeatedSBC, RepeatedSBCParty
from repro.core.stacks import (
    SBC_DEFAULTS,
    DURSStack,
    SBCStack,
    TLEStack,
    VotingStack,
    build_durs_stack,
    build_fbc_fixture,
    build_sbc_stack,
    build_tle_stack,
    build_voting_stack,
    mode_delta,
)

__all__ = [
    "DURSStack",
    "RepeatedSBC",
    "RepeatedSBCParty",
    "SBCStack",
    "SBC_DEFAULTS",
    "TLEStack",
    "VotingStack",
    "build_durs_stack",
    "build_fbc_fixture",
    "build_sbc_stack",
    "build_tle_stack",
    "build_voting_stack",
    "mode_delta",
]
