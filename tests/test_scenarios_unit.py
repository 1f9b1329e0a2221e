"""Unit coverage for the scenario subsystem: specs, faults, properties, CLI."""

import json

import pytest

from repro.cli import main
from repro.runtime import (
    BatchScheduler,
    SessionPool,
    TraceDigestUnavailable,
    compare_trace_digests,
    reports_match,
)
from repro.scenarios import (
    FaultPlan,
    FaultyScheduler,
    TraceUnavailable,
    default_matrix,
    evaluate_scenario,
    run_scenario,
)
from repro.scenarios.adversaries import make_adversary
from repro.scenarios.properties import evaluate
from repro.scenarios.spec import ScenarioSpec, expected_for, payload_for


# ---------------------------------------------------------------------------
# Specs and matrices
# ---------------------------------------------------------------------------


def test_matrix_expansion_is_deterministic():
    first = default_matrix().expand()
    second = default_matrix().expand()
    assert first == second
    assert len({spec.cell_id for spec in first}) == len(first)


def test_expectations_cover_every_matrix_pair():
    matrix = default_matrix()
    for stack in matrix.stacks:
        for adversary in matrix.adversaries:
            assert expected_for(stack, adversary)


def test_unknown_expectation_pair_is_refused():
    with pytest.raises(KeyError):
        expected_for("sbc-hybrid", "bias")


def test_spec_accessors():
    spec = ScenarioSpec(name="x", stack="sbc-composed", params=(("phi", 7),))
    assert spec.family == "sbc"
    assert spec.mode == "composed"
    assert spec.param("phi") == 7
    assert spec.param("missing", 9) == 9
    assert spec.replace(seed=5).seed == 5
    assert "sbc-composed/passive/none/sequential#0" == spec.cell_id


def test_unknown_stack_and_strategy_errors():
    with pytest.raises(KeyError):
        run_scenario(ScenarioSpec(name="x", stack="warp"))
    with pytest.raises(KeyError):
        make_adversary(ScenarioSpec(name="x", stack="ubc", adversary="warp"))


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------


def test_activation_orders_are_permutations():
    pids = [f"P{i}" for i in range(5)]
    for activation in ("reversed", "rotate", "shuffle"):
        plan = FaultPlan(name=activation, activation=activation)
        for round_index in (0, 1, 7):
            order = plan.order_for_round(round_index, pids)
            assert sorted(order) == sorted(pids)
            assert order == plan.order_for_round(round_index, pids)  # deterministic
    assert FaultPlan().order_for_round(0, pids) is None
    assert FaultPlan(activation="rotate").order_for_round(2, pids) == (
        pids[2:] + pids[:2]
    )
    with pytest.raises(ValueError):
        FaultPlan(activation="bogus")
    with pytest.raises(ValueError):
        FaultPlan(stagger=-1)


def test_stagger_schedules_inputs():
    plan = FaultPlan(stagger=2)
    assert [plan.input_round(i) for i in range(3)] == [0, 2, 4]


def _net_item(sender, recipient="R", payload="m"):
    return (recipient, (sender, payload))


def test_faulty_scheduler_drop_and_delay_and_reorder():
    plan = FaultPlan(
        name="chaos", net_drop_from=("P2",), net_delay_from=("P0",),
        net_reorder=True, net_reorder_seed=3,
    )
    scheduler = FaultyScheduler(policy="fifo", plan=plan)
    for sender in ("P0", "P1", "P2", "P3", "P1"):
        key, item = _net_item(sender)
        scheduler.enqueue("net", key, item)
    batch = scheduler.drain("net")
    senders = [item[0] for _key, item in batch]
    assert "P2" not in senders  # dropped
    assert len(scheduler.dropped) == 1
    assert senders[-1] == "P0"  # delayed to the batch tail
    assert sorted(senders) == ["P0", "P1", "P1", "P3"]  # nothing else lost
    # Deterministic: an identical scheduler produces the identical batch.
    again = FaultyScheduler(policy="fifo", plan=plan)
    for sender in ("P0", "P1", "P2", "P3", "P1"):
        key, item = _net_item(sender)
        again.enqueue("net", key, item)
    assert again.drain("net") == batch


def test_faulty_scheduler_passes_foreign_item_shapes():
    plan = FaultPlan(net_drop_from=("P0",))
    scheduler = FaultyScheduler(plan=plan)
    scheduler.enqueue("raw", "k", 42)  # not (sender, payload)-shaped
    assert scheduler.drain("raw") == [("k", 42)]


def test_fault_install_swaps_scheduler_only_when_needed():
    from repro.uc.session import Session

    plain = Session(seed=1)
    FaultPlan().install(plain)
    assert type(plain.scheduler) is BatchScheduler

    faulty = Session(seed=1)
    FaultPlan(net_reorder=True).install(faulty)
    assert isinstance(faulty.scheduler, FaultyScheduler)
    assert faulty.scheduler.policy == faulty.backend.scheduler_policy


# ---------------------------------------------------------------------------
# Properties: the trace-off guard
# ---------------------------------------------------------------------------


def test_trace_properties_refuse_light_mode():
    spec = ScenarioSpec(
        name="light", stack="ubc",
        expect=(("plaintext_secrecy", False),),
        backend="batched",
    )
    outcome = run_scenario(spec)
    assert outcome.digest == ""
    with pytest.raises(TraceUnavailable):
        evaluate(outcome, {"plaintext_secrecy": False})
    with pytest.raises(TraceUnavailable):
        evaluate(outcome, {"simultaneous_delivery": True})
    # Output-based properties still work without a trace.
    results = evaluate(outcome, {"delivery": True, "agreement": True})
    assert all(result.ok for result in results)


def test_unknown_property_name_is_refused():
    outcome = run_scenario(ScenarioSpec(name="u", stack="ubc", expect=()))
    with pytest.raises(KeyError):
        evaluate(outcome, {"warp_resistance": True})


# ---------------------------------------------------------------------------
# The trace_digest comparison guard (vacuous "" == "" must error)
# ---------------------------------------------------------------------------


def test_compare_trace_digests_guards_vacuous_equality():
    assert compare_trace_digests("a", "a")
    assert not compare_trace_digests("a", "b")
    assert not compare_trace_digests("a", "")  # one-sided: plain inequality
    with pytest.raises(TraceDigestUnavailable):
        compare_trace_digests("", "")


def test_reports_match_errors_on_trace_off_pools():
    params = dict(n=3, mode="hybrid", phi=4, delta=2)
    light = SessionPool(backend="batched", **params).run([0, 1])
    with pytest.raises(TraceDigestUnavailable):
        reports_match(light, light)
    full = SessionPool(backend="sequential", **params).run([0, 1])
    assert reports_match(full, full)
    with pytest.raises(ValueError):
        reports_match(full, SessionPool(backend="sequential", **params).run([0]))


# ---------------------------------------------------------------------------
# Scenario payloads and cell results
# ---------------------------------------------------------------------------


def test_payloads_are_distinct_markers():
    assert payload_for("P0") != payload_for("P1")
    assert payload_for("P0").startswith(b"scn:")


def test_cell_result_summary_shape():
    spec = default_matrix().expand()[0]
    cell = evaluate_scenario(spec)
    record = cell.summary()
    assert record["cell"] == spec.cell_id
    assert record["ok"] is True
    assert set(record["properties"]) == set(spec.expectations())
    json.dumps(record)  # JSON-serializable end to end


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_scenarios_list(capsys):
    assert main(["scenarios", "list", "--cell", "ubc/"]) == 0
    out = capsys.readouterr().out
    assert "ubc/passive/none/sequential#0" in out


def test_cli_scenarios_run_json(capsys):
    assert main([
        "scenarios", "run", "--backend", "sequential", "--cell", "fbc/",
        "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["failed"] == 0
    assert payload["backend_mismatches"] == []
    assert all(cell["ok"] for cell in payload["cells"])


def test_cli_scenarios_no_match(capsys):
    assert main(["scenarios", "run", "--cell", "no-such-cell"]) == 2
