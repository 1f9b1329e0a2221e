"""Tests for the CI bench-regression guard (`benchmarks/compare_trajectory.py`).

The guard diffs two reference-perf artifact directories of ``bench.v1``
records and fails only on a wall-time regression past the threshold —
never on a missing baseline (the trajectory has to start somewhere) and
never across hosts with different core counts (those numbers are not
comparable).
"""

import importlib.util
import json
import pathlib

import pytest

_SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "compare_trajectory.py"
)
_spec = importlib.util.spec_from_file_location("compare_trajectory", _SCRIPT)
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)


def _write_record(root, experiment, wall_time_s, cpus=4, schema="bench.v1"):
    root.mkdir(parents=True, exist_ok=True)
    (root / f"BENCH_{experiment}.json").write_text(
        json.dumps(
            {
                "schema": schema,
                "experiment": experiment,
                "wall_time_s": wall_time_s,
                "cpus": cpus,
                "backend": "sequential",
            }
        )
    )


def test_ok_within_threshold(tmp_path):
    _write_record(tmp_path / "base", "E17", 1.0)
    _write_record(tmp_path / "cur", "E17", 1.2)
    lines, regressions = trajectory.compare(
        tmp_path / "base", tmp_path / "cur", experiments=("E17",)
    )
    assert regressions == []
    assert any("1.20x" in line and "ok" in line for line in lines)


def test_regression_past_threshold_fails(tmp_path):
    _write_record(tmp_path / "base", "E19", 1.0)
    _write_record(tmp_path / "cur", "E19", 1.5)
    lines, regressions = trajectory.compare(
        tmp_path / "base", tmp_path / "cur", experiments=("E19",)
    )
    assert len(regressions) == 1
    assert "E19" in regressions[0]
    assert trajectory.main(
        [
            "--baseline", str(tmp_path / "base"),
            "--current", str(tmp_path / "cur"),
            "--experiments", "E19",
        ]
    ) == 1


def test_missing_baseline_is_not_a_failure(tmp_path):
    _write_record(tmp_path / "cur", "E14", 1.0)
    assert trajectory.main(
        [
            "--baseline", str(tmp_path / "nope"),
            "--current", str(tmp_path / "cur"),
        ]
    ) == 0
    (tmp_path / "base").mkdir()
    lines, regressions = trajectory.compare(
        tmp_path / "base", tmp_path / "cur", experiments=("E14",)
    )
    assert regressions == []
    assert any("no baseline" in line for line in lines)


def test_cpu_count_mismatch_skips_comparison(tmp_path):
    _write_record(tmp_path / "base", "E17", 1.0, cpus=1)
    _write_record(tmp_path / "cur", "E17", 10.0, cpus=4)
    lines, regressions = trajectory.compare(
        tmp_path / "base", tmp_path / "cur", experiments=("E17",)
    )
    assert regressions == []
    assert any("cpu counts differ" in line for line in lines)


def test_threshold_is_configurable(tmp_path):
    _write_record(tmp_path / "base", "E18", 1.0)
    _write_record(tmp_path / "cur", "E18", 1.2)
    _, tight = trajectory.compare(
        tmp_path / "base", tmp_path / "cur", threshold=0.1, experiments=("E18",)
    )
    assert len(tight) == 1
    _, loose = trajectory.compare(
        tmp_path / "base", tmp_path / "cur", threshold=0.5, experiments=("E18",)
    )
    assert loose == []


def test_unreadable_or_wrong_schema_records_are_skipped(tmp_path):
    base = tmp_path / "base"
    cur = tmp_path / "cur"
    _write_record(base, "E14", 1.0)
    _write_record(cur, "E14", 9.0, schema="bench.v0")
    lines, regressions = trajectory.compare(base, cur, experiments=("E14",))
    assert regressions == []
    assert any("no current record" in line for line in lines)
    (cur / "BENCH_E14.json").write_text("{not json")
    lines, regressions = trajectory.compare(base, cur, experiments=("E14",))
    assert regressions == []


@pytest.mark.parametrize("wall", [0, None])
def test_unusable_wall_times_are_skipped(tmp_path, wall):
    _write_record(tmp_path / "base", "E17", wall)
    _write_record(tmp_path / "cur", "E17", 1.0)
    lines, regressions = trajectory.compare(
        tmp_path / "base", tmp_path / "cur", experiments=("E17",)
    )
    assert regressions == []
    assert any("unusable wall times" in line for line in lines)
