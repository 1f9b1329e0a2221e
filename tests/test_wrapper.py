"""Wq resource wrapper: batch semantics, budgets, the corrupted pool.

The key modeling property (Figure 5): one Evaluate *batch* of arbitrarily
many points costs one of the q per-round queries — q bounds sequential
depth, not parallel width.
"""

import pytest

from repro.functionalities.random_oracle import RandomOracle
from repro.functionalities.wrapper import QueryWrapper
from repro.uc.entity import Party
from repro.uc.errors import ResourceExhausted
from repro.uc.session import Session


@pytest.fixture
def wrapper(session):
    oracle = RandomOracle(session, fid="F*RO")
    return QueryWrapper(session, oracle, q=3)


def test_batch_counts_once(session, wrapper):
    Party(session, "P0")
    responses = wrapper.evaluate("P0", [b"a", b"b", b"c", b"d"])
    assert len(responses) == 4
    assert wrapper.used("P0") == 1
    assert wrapper.remaining("P0") == 2


def test_budget_exhaustion(session, wrapper):
    Party(session, "P0")
    for _ in range(3):
        wrapper.evaluate("P0", [b"x"])
    with pytest.raises(ResourceExhausted):
        wrapper.evaluate("P0", [b"y"])


def test_budgets_are_per_party(session, wrapper):
    Party(session, "P0")
    Party(session, "P1")
    for _ in range(3):
        wrapper.evaluate("P0", [b"x"])
    wrapper.evaluate("P1", [b"y"])  # P1's budget untouched by P0
    assert wrapper.remaining("P1") == 2


def test_budget_resets_each_round(session, env, wrapper):
    Party(session, "P0")
    for _ in range(3):
        wrapper.evaluate("P0", [b"x"])
    env.run_rounds(1)
    assert wrapper.remaining("P0") == 3
    wrapper.evaluate("P0", [b"x"])
    assert wrapper.used("P0") == 1


def test_corrupted_coalition_shares_one_budget(session, wrapper):
    Party(session, "P0")
    Party(session, "P1")
    Party(session, "P2")
    session.corrupt("P0")
    session.corrupt("P1")
    wrapper.evaluate("P0", [b"a"])
    wrapper.evaluate("P1", [b"b"])
    wrapper.evaluate("P0", [b"c"])
    # Three batches spent by the coalition as a whole:
    with pytest.raises(ResourceExhausted):
        wrapper.evaluate("P1", [b"d"])
    # Honest party unaffected:
    wrapper.evaluate("P2", [b"e"])


def test_corruption_mid_round_merges_budget(session, wrapper):
    Party(session, "P0")
    Party(session, "P1")
    session.corrupt("P0")
    wrapper.evaluate("P0", [b"a"])
    wrapper.evaluate("P0", [b"b"])
    wrapper.evaluate("P0", [b"c"])
    session.corrupt("P1")  # P1 joins the coalition: pool is exhausted
    with pytest.raises(ResourceExhausted):
        wrapper.evaluate("P1", [b"d"])


def test_responses_match_oracle(session):
    oracle = RandomOracle(session, fid="F*RO")
    wrapper = QueryWrapper(session, oracle, q=2)
    Party(session, "P0")
    (response,) = wrapper.evaluate("P0", [b"point"])
    assert response == oracle.query(b"point")


def test_invalid_q_rejected(session):
    oracle = RandomOracle(session, fid="F*RO")
    with pytest.raises(ValueError):
        QueryWrapper(session, oracle, q=0)


def test_hash_fn_closure_metered(session, wrapper):
    Party(session, "P0")
    h = wrapper.hash_fn("P0")
    h(b"1")
    h(b"2")
    h(b"3")
    with pytest.raises(ResourceExhausted):
        h(b"4")


# -- batched metering ≡ the per-point query loop ------------------------------


def _twin_wrappers(q=3):
    """Two identically seeded sessions, each with an F*RO behind a Wq."""
    twins = []
    for _ in range(2):
        session = Session(seed=77)
        Party(session, "P0")
        oracle = RandomOracle(session, fid="F*RO")
        twins.append((session, oracle, QueryWrapper(session, oracle, q=q)))
    return twins


def _per_point_evaluate(session, oracle, pid, points):
    """Wq.evaluate as a loop of single queries: the reference metering."""
    session.metrics.inc("ro.batches")
    session.metrics.inc("ro.points", len(points))
    return [oracle.query(x, querier=pid) for x in points]


def _state(session, oracle):
    return (
        dict(oracle._table),
        {x: set(who) for x, who in oracle.queried_by.items()},
        session.metrics.snapshot(),
        session.rng.getstate(),
    )


def test_batched_metering_matches_per_point_loop():
    (s1, o1, w1), (s2, o2, _) = _twin_wrappers()
    o1.query(b"seen", querier="P9")  # a point known before the batch
    o2.query(b"seen", querier="P9")
    batches = [[b"a", b"b", b"a", b"seen"], [b"b", b"c", b"c"], []]
    for points in batches:
        assert w1.evaluate("P0", points) == _per_point_evaluate(s2, o2, "P0", points)
        assert _state(s1, o1) == _state(s2, o2)
    assert s1.metrics.get("ro.total") == 8
    assert s1.metrics.get("ro.by.P0") == 7


def test_batched_metering_non_bytes_point_matches_per_point_loop():
    (s1, o1, w1), (s2, o2, _) = _twin_wrappers()
    points = [b"a", b"b", "not-bytes", b"c"]
    with pytest.raises(TypeError):
        w1.evaluate("P0", points)
    with pytest.raises(TypeError):
        _per_point_evaluate(s2, o2, "P0", points)
    assert _state(s1, o1) == _state(s2, o2)
    assert b"a" in o1._table and b"c" not in o1._table
    assert s1.metrics.get("ro.total") == 2


def test_batch_of_any_width_costs_one_unit_until_q_plus_one():
    (session, _, wrapper), _ = _twin_wrappers(q=3)
    for batch in range(3):
        wrapper.evaluate("P0", [bytes([batch, i]) for i in range(50)])
        assert wrapper.used("P0") == batch + 1
    with pytest.raises(ResourceExhausted, match="batch 4 > q=3"):
        wrapper.evaluate("P0", [b"one more"])
    assert session.metrics.get("ro.batches") == 3
    assert session.metrics.get("ro.points") == 150
