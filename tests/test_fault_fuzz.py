"""Hypothesis-fuzzed fault plans against the expectation table.

The scenario matrix sweeps three hand-picked fault patterns; this suite
generates them.  Every knob the synchronous model leaves to the
adversary — activation-order permutations, staggered sender inputs,
batch reordering, maximal in-bound delays, and crash-style drops within
the corruption budget — is drawn at random and the paper's expectation
table must still hold *exactly*: each property holds (or fails) where
the paper says it does, whatever the schedule.  A second front fuzzes
the material pipeline: pools sized to exhaust at an arbitrary mid-sweep
point must degrade to counted sampling and stay ``--verify``-clean.

Two profiles: the default selection runs bounded and derandomized
(identical examples every run, CI-friendly); ``-m slow`` unlocks a
deeper randomized pass.
"""

import os
import tempfile
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto.groups import TEST_GROUP
from repro.runtime import BATCHED, ParallelSweep, run_voting_trial
from repro.runtime.material import MaterialStore
from repro.scenarios import evaluate_scenario
from repro.scenarios.faults import ACTIVATIONS, FaultPlan
from repro.scenarios.spec import ScenarioSpec, expected_for

#: Bounded, derandomized tier-1 profile: identical examples on every run.
QUICK = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: The deeper profile behind ``-m slow``: more examples, still seeded.
DEEP = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Stacks whose worlds run entirely above the scheduler: every activation
#: and input-timing knob applies; scheduler faults pass through harmless.
STACKS = ("ubc", "fbc", "sbc-hybrid", "sbc-composed", "durs")
ADVERSARIES = ("passive", "copy", "replace")

#: Input staggering must stay within each stack's broadcast period —
#: the composed SBC stack closes its period one round earlier than the
#: rest, so inputs landing later are *invalid* schedules, not faults.
MAX_STAGGER = {"sbc-composed": 1}
DEFAULT_MAX_STAGGER = 2

#: Dolev–Strong scenario shape (n=4, t=1): senders P0/P1 must stay up,
#: and at most ``t`` parties may have their traffic suppressed.
DS_DROPPABLE = ("P2", "P3")


def fault_plans(max_stagger: int, droppable=(), delayable=()):
    """Random :class:`FaultPlan`s inside the model's safe envelope."""
    return st.builds(
        FaultPlan,
        name=st.just("fuzz"),
        activation=st.sampled_from(ACTIVATIONS),
        activation_seed=st.integers(min_value=0, max_value=2**16),
        stagger=st.integers(min_value=0, max_value=max_stagger),
        net_reorder=st.booleans(),
        net_reorder_seed=st.integers(min_value=0, max_value=2**16),
        net_delay_from=st.sets(
            st.sampled_from(delayable), max_size=len(delayable)
        ).map(tuple)
        if delayable
        else st.just(()),
        net_drop_from=st.sets(st.sampled_from(droppable), max_size=1).map(tuple)
        if droppable
        else st.just(()),
    )


def scenario_cases(max_examples_profile):
    """(stack, adversary, plan) triples with stack-appropriate knobs."""
    return st.sampled_from(
        [(s, a) for s in STACKS for a in ADVERSARIES]
    ).flatmap(
        lambda pair: st.tuples(
            st.just(pair[0]),
            st.just(pair[1]),
            fault_plans(MAX_STAGGER.get(pair[0], DEFAULT_MAX_STAGGER)),
        )
    )


def _assert_expectations(stack, adversary, plan, backend="sequential", seed=0):
    spec = ScenarioSpec(
        name="fuzz",
        stack=stack,
        adversary=adversary,
        faults=plan,
        backend=backend,
        seed=seed,
        expect=expected_for(stack, adversary),
    )
    result = evaluate_scenario(spec)
    mismatched = [
        f"{p.name}: holds={p.holds} expected={p.expected} ({p.detail})"
        for p in result.mismatches
    ]
    assert result.ok, f"{spec.cell_id} under {plan}: {mismatched}"
    return result


# ---------------------------------------------------------------------------
# Stacks above the scheduler: activation + input-timing fuzz
# ---------------------------------------------------------------------------


@QUICK
@given(case=scenario_cases(QUICK), seed=st.integers(min_value=0, max_value=7))
def test_fuzzed_schedules_never_move_the_expectation_table(case, seed):
    stack, adversary, plan = case
    _assert_expectations(stack, adversary, plan, seed=seed)


@QUICK
@given(case=scenario_cases(QUICK))
def test_fuzzed_schedules_are_deterministic_and_backend_invariant(case):
    """A fault plan is part of the world definition: replaying it must
    reproduce the digest exactly, and the expectation table must hold
    under the grouped drain too (traced here so properties can be read)."""
    stack, adversary, plan = case
    first = _assert_expectations(stack, adversary, plan)
    again = _assert_expectations(stack, adversary, plan)
    assert first.digest == again.digest
    _assert_expectations(stack, adversary, plan, backend=BATCHED.with_trace("full"))


# ---------------------------------------------------------------------------
# Dolev–Strong: scheduler faults (drop/delay/reorder) within the budget
# ---------------------------------------------------------------------------


@QUICK
@given(
    plan=fault_plans(
        max_stagger=DEFAULT_MAX_STAGGER,
        droppable=DS_DROPPABLE,
        delayable=("P0", "P1", "P2", "P3"),
    )
)
def test_fuzzed_scheduler_faults_within_budget_hold_ds_expectations(plan):
    """Dropping at most ``t`` non-senders, delaying anyone to the end of
    their round and reshuffling every batch: Dolev–Strong's properties
    survive any such plan by Theorem (t+1 rounds suffice)."""
    _assert_expectations("ds-ubc", "passive", plan)


# ---------------------------------------------------------------------------
# Material pipeline: pool exhaustion at a fuzzed mid-sweep point
# ---------------------------------------------------------------------------


@QUICK
@given(
    nonces=st.integers(min_value=0, max_value=20),
    feldman=st.integers(min_value=0, max_value=10),
    tasks=st.integers(min_value=1, max_value=3),
)
def test_fuzzed_pool_exhaustion_degrades_to_sampling_and_verifies(
    nonces, feldman, tasks
):
    """Whatever point mid-sweep the pools run dry, trials fall back to
    counted sampling (never crash) and the sweep stays seed-for-seed
    verifiable; the demand ledger always balances."""
    with tempfile.TemporaryDirectory() as root:
        previous = os.environ.get("REPRO_MATERIAL_DIR")
        os.environ["REPRO_MATERIAL_DIR"] = root
        try:
            store = MaterialStore(root)
            store.build([TEST_GROUP], nonces=nonces, feldman=feldman)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                verdict = ParallelSweep(
                    runner=run_voting_trial,
                    voters=3,
                    executor="inline",
                    material="disk",
                    online=True,
                    consume_forward=True,
                ).verify(range(tasks))
            assert verdict.matched
            spend = verdict.report.online_spend
            assert spend["nonces_spent"] <= nonces
            assert spend["feldman_spent"] <= feldman
            # Demand is conserved: every draw either spent or sampled.
            demand = spend["nonces_spent"] + spend["nonces_sampled"]
            assert demand > 0  # ballots always need nonces
            # The ledger's high mark never exceeds the built pool.
            ledger = store.ledger(verdict.report.online_plan.fingerprint)
            assert ledger.ok
            assert ledger.nonce_high <= nonces
            assert ledger.feldman_high <= feldman
        finally:
            if previous is None:
                os.environ.pop("REPRO_MATERIAL_DIR", None)
            else:
                os.environ["REPRO_MATERIAL_DIR"] = previous


# ---------------------------------------------------------------------------
# Deep profile (slow marker): the same properties, many more schedules
# ---------------------------------------------------------------------------


@pytest.mark.slow
@DEEP
@given(case=scenario_cases(DEEP), seed=st.integers(min_value=0, max_value=31))
def test_deep_fuzzed_schedules_hold_expectations(case, seed):
    stack, adversary, plan = case
    _assert_expectations(stack, adversary, plan, seed=seed)


@pytest.mark.slow
@DEEP
@given(
    plan=fault_plans(
        max_stagger=DEFAULT_MAX_STAGGER,
        droppable=DS_DROPPABLE,
        delayable=("P0", "P1", "P2", "P3"),
    ),
    seed=st.integers(min_value=0, max_value=31),
)
def test_deep_fuzzed_scheduler_faults_hold_ds_expectations(plan, seed):
    _assert_expectations("ds-ubc", "passive", plan, seed=seed)
