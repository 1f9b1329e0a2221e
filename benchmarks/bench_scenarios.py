"""E16 — the adversarial scenario matrix as a regenerable experiment.

Claims: (i) every cell of the default conformance matrix (stacks ×
adversaries × fault patterns × backends, plus the targeted timing
scenarios) satisfies its paper-derived property expectations; (ii) each
cell's event trace is identical across the full-trace backends, even
mid-attack; (iii) the whole sweep is cheap enough to regenerate on every
run — adversarial conformance as a standing benchmark, not a one-off;
(iv) sharding matrix cells across process workers preserves cell order
and per-cell digests exactly (E16b).
"""

from collections import defaultdict

from conftest import bench_record, emit, once

from repro.scenarios import default_matrix, extra_scenarios, run_matrix

MATRIX = default_matrix()


def test_e16_scenario_matrix_conformance(benchmark):
    def sweep():
        specs = MATRIX.expand() + extra_scenarios()
        report = run_matrix(specs)
        assert report.ok, [cell.cell_id for cell in report.failures]
        assert report.backend_mismatches() == []
        return report

    report = once(benchmark, sweep)

    per_stack = defaultdict(lambda: {"cells": 0, "rounds": 0, "checks": 0})
    for cell in report.cells:
        bucket = per_stack[cell.stack]
        bucket["cells"] += 1
        bucket["rounds"] += cell.rounds
        bucket["checks"] += len(cell.properties)
    rows = [
        {
            "stack": stack,
            "cells": bucket["cells"],
            "rounds": bucket["rounds"],
            "property_checks": bucket["checks"],
            "all_ok": "yes",
        }
        for stack, bucket in sorted(per_stack.items())
    ]
    emit(
        "E16",
        "Adversarial scenario matrix: every paper property where it must hold",
        rows,
        protocol="scenarios",
        n=max(spec.n for spec in MATRIX.expand()),
        rounds=sum(cell.rounds for cell in report.cells),
        backend="sequential",
        cells=len(report.cells),
        stacks=len(MATRIX.stacks),
        adversaries=len(MATRIX.adversaries),
        faults=len(MATRIX.faults),
    )


def test_e16b_matrix_cells_shard_across_processes(benchmark):
    def sweep():
        # The smoke subset: enough cells to span several chunks, small
        # enough to keep this a per-run regenerable.
        specs = (MATRIX.expand() + extra_scenarios())[:12]
        inline = run_matrix(specs, executor="inline")
        fanned = run_matrix(specs, executor="process", workers=2, chunksize=3)
        assert fanned.ok, [cell.cell_id for cell in fanned.failures]
        # Deterministic ordering and per-cell digest equality across the
        # process boundary (every matrix cell runs a full-trace backend).
        assert [c.cell_id for c in fanned.cells] == [c.cell_id for c in inline.cells]
        assert [c.digest for c in fanned.cells] == [c.digest for c in inline.cells]
        return inline, fanned

    (inline, fanned) = once(benchmark, sweep)
    bench_record(
        "E16b",
        protocol="scenarios",
        n=max(spec.n for spec in MATRIX.expand()),
        rounds=sum(cell.rounds for cell in fanned.cells),
        backend="sequential",
        cells=len(fanned.cells),
        executor="process",
        workers=2,
        chunksize=3,
        digests_match_inline=True,
        speedup_vs_inline=round(
            inline.wall_time_s / max(fanned.wall_time_s, 1e-9), 3
        ),
    )
