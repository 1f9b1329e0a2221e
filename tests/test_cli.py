"""CLI smoke tests: every subcommand runs and prints sane output."""

import pytest

from repro.cli import build_parser, main


def test_sbc_command(capsys):
    assert main(["sbc", "--n", "3", "--mode", "hybrid", "--messages", "a", "b"]) == 0
    out = capsys.readouterr().out
    assert "delivered: b'a'" in out and "delivered: b'b'" in out


def test_sbc_command_composed(capsys):
    assert main(["sbc", "--mode", "composed", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "release=8" in out


def test_beacon_command(capsys):
    assert main(["beacon", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "uniform random string" in out
    hex_part = out.strip().rsplit(" ", 1)[-1]
    assert len(hex_part) == 64  # 32 bytes


def test_election_command(capsys):
    assert main(["election", "--voters", "3"]) == 0
    out = capsys.readouterr().out
    assert "self-tally" in out and "'yes': 2" in out


def test_election_ideal_mode(capsys):
    assert main(["election", "--voters", "2", "--mode", "ideal"]) == 0
    assert "self-tally" in capsys.readouterr().out


def test_auction_command(capsys):
    assert main(["auction", "--bids", "10", "99", "55"]) == 0
    out = capsys.readouterr().out
    assert "winner: P1 at 99" in out


def test_lineage_command(capsys):
    assert main(["lineage", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert "this-paper" in out and "CGMA85" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_deterministic_given_seed(capsys):
    main(["beacon", "--seed", "9"])
    first = capsys.readouterr().out
    main(["beacon", "--seed", "9"])
    second = capsys.readouterr().out
    assert first == second


def test_sweep_command_inline(capsys):
    assert main([
        "sweep", "--sessions", "3", "--n", "3", "--executor", "inline",
    ]) == 0
    out = capsys.readouterr().out
    assert "sweep plan" in out and "per-session" in out


def test_sweep_command_process_verify(capsys):
    assert main([
        "sweep", "--sessions", "4", "--n", "3", "--executor", "process",
        "--workers", "2", "--chunksize", "2", "--verify",
    ]) == 0
    out = capsys.readouterr().out
    assert "trace digests match inline reference, seed for seed: yes" in out
    assert "forcing --trace full" in out  # light default upgraded for --verify


def test_bench_command_process_executor(capsys):
    assert main([
        "bench", "--sessions", "4", "--n", "3", "--executor", "process",
        "--workers", "2", "--chunksize", "2", "--trace", "full", "--compare",
    ]) == 0
    out = capsys.readouterr().out
    assert "trace digests match sequential reference: yes" in out


@pytest.mark.parametrize("workload", ["sbc", "voting"])
def test_serve_composed_mode(workload, capsys):
    # The serve runners take ∆ from the mode (Corollary 1 needs ∆ > 2).
    assert main([
        "serve", "--sessions", "2", "--n", "3", "--mode", "composed",
        "--workload", workload,
    ]) == 0
    assert "sessions/sec" in capsys.readouterr().out


def test_invalid_delta_exits_2_with_message(capsys):
    assert main(["bench", "--sessions", "2", "--mode", "composed", "--delta", "2"]) == 2
    assert "Theorem 2 requires delta" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--sessions", "2", "--workers", "0", "--executor", "process"],
        ["bench", "--sessions", "2", "--workers", "0", "--executor", "thread"],
        ["serve", "--sessions", "2", "--workers", "0"],
        ["scenarios", "run", "--cell", "ubc/passive/none", "--workers", "0"],
    ],
    ids=["sweep", "bench", "serve", "scenarios"],
)
def test_workers_below_one_exits_2_with_message(argv, capsys):
    assert main(argv) == 2
    assert "workers must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sbc", "--n", "0"],
        ["election", "--voters", "0"],
        ["sweep", "--sessions", "2", "--workload", "voting", "--n", "0"],
    ],
    ids=["sbc", "election", "sweep"],
)
def test_empty_world_exits_2_with_message(argv, capsys):
    assert main(argv) == 2
    assert "must be >= 1 (a stack needs a party), got 0" in capsys.readouterr().err


def test_serve_online_waves_spend_disjoint_slices(tmp_path, monkeypatch, capsys):
    """65 sessions under --duration run as two waves over one plan; a
    second wave that re-planned from slot 0 would overlap the first."""
    import json

    from repro.crypto.groups import TEST_GROUP
    from repro.runtime import MaterialStore, material, online_pool_requirement

    monkeypatch.setenv("REPRO_MATERIAL_DIR", str(tmp_path))
    # Keep this store's pools out of the process-wide attach registry.
    monkeypatch.setattr(material, "_ATTACHED", {})
    MaterialStore(tmp_path).build([TEST_GROUP], **online_pool_requirement(65))
    assert main([
        "serve", "--sessions", "65", "--n", "2", "--material", "disk",
        "--online", "--duration", "600", "--json",
    ]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["sessions"] == 65
    assert record["spends_checked"] == 65
    assert record["spends_disjoint"] is True


def test_serve_zero_duration_admits_nothing(capsys):
    assert main(["serve", "--sessions", "2", "--duration", "0"]) == 2
    assert "admitted no sessions" in capsys.readouterr().err


@pytest.mark.parametrize("workload", ["sbc", "voting"])
def test_serve_process_executor(workload, capsys):
    assert main([
        "serve", "--sessions", "4", "--n", "3", "--workload", workload,
        "--executor", "process", "--workers", "2",
    ]) == 0
    assert "sessions/sec" in capsys.readouterr().out
