"""The adversarial scenario conformance matrix, cell by cell.

Every cell of :func:`repro.scenarios.default_matrix` (stacks ×
adversaries × fault patterns × backends) plus the targeted extra
scenarios runs as its own parametrized test asserting that each paper
property holds exactly where the paper says it must — and that each
attack succeeds exactly where the paper says it can.  The full sweep is
``slow``-marked so CI can run it on a dedicated job; a quick sub-matrix
stays in the default selection.
"""

import pytest

from repro.runtime import compare_trace_digests
from repro.scenarios import (
    default_matrix,
    evaluate_scenario,
    extra_scenarios,
    run_matrix,
)

MATRIX = default_matrix()
CELLS = MATRIX.expand()
EXTRAS = extra_scenarios()

#: The quick subset run in the default (non-slow) selection: one fault
#: pattern, the reference backend, every stack × adversary pair.
SMOKE = [
    spec
    for spec in CELLS
    if spec.faults.name == "none" and spec.backend == "sequential"
]


def _assert_cell(spec):
    result = evaluate_scenario(spec)
    mismatched = [
        f"{p.name}: holds={p.holds} expected={p.expected} ({p.detail})"
        for p in result.mismatches
    ]
    assert result.ok, f"{spec.cell_id}: {mismatched}"


def test_matrix_meets_acceptance_floor():
    """The declared sweep is at least the promised 24-cell matrix."""
    assert len(MATRIX.stacks) >= 3
    assert len(MATRIX.adversaries) >= 2
    assert len(MATRIX.faults) >= 2
    assert MATRIX.backends == ("sequential",)
    assert MATRIX.cells >= 24
    assert len(CELLS) == MATRIX.cells
    assert len({spec.cell_id for spec in CELLS + EXTRAS}) == len(CELLS) + len(EXTRAS)


@pytest.mark.parametrize("spec", SMOKE, ids=[s.cell_id for s in SMOKE])
def test_smoke_cell(spec):
    _assert_cell(spec)


@pytest.mark.slow
@pytest.mark.parametrize("spec", CELLS, ids=[s.cell_id for s in CELLS])
def test_matrix_cell(spec):
    _assert_cell(spec)


@pytest.mark.parametrize("spec", EXTRAS, ids=[s.name for s in EXTRAS])
def test_extra_scenario(spec):
    _assert_cell(spec)


def test_matrix_seed_sensitivity():
    """Distinct seeds change the trace, not the verdicts."""
    sample = [
        spec.replace(seed=3)
        for spec in SMOKE
        if spec.stack == "sbc-hybrid"
    ]
    baseline = {spec.cell_id: evaluate_scenario(spec) for spec in sample}
    for spec in sample:
        reseeded = evaluate_scenario(spec)
        assert reseeded.ok
        original = evaluate_scenario(spec.replace(seed=0))
        assert original.ok
        assert not compare_trace_digests(reseeded.digest, original.digest)
        assert baseline[spec.cell_id].digest == reseeded.digest  # deterministic


def test_thread_executor_matches_inline():
    specs = [spec for spec in SMOKE if spec.stack in ("ubc", "fbc")]
    inline = run_matrix(specs, executor="inline")
    threaded = run_matrix(specs, executor="thread", workers=2)
    assert [c.digest for c in inline.cells] == [c.digest for c in threaded.cells]
    assert threaded.ok
