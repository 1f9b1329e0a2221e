"""SweepConfig: one validated knob set for every execution entry point.

The api_redesign contract: every execution knob lives on one frozen
dataclass, validation fires at construction (with the legacy error
messages), the back-compat shim warns on positional use and refuses
ambiguous mixes, and — the drift regression that motivated the redesign
— ``SessionPool``, ``ParallelSweep`` and ``run_matrix`` accept the
identical knob set.
"""

import argparse
import inspect
import warnings

import pytest

from repro.runtime import (
    ParallelSweep,
    SessionPool,
    SweepConfig,
    run_sbc_trial,
)
from repro.runtime.config import (
    EXECUTORS,
    LEGACY_KNOB_ORDER,
    add_sweep_options,
)
from repro.runtime.supervisor import ChaosPlan, RetryPolicy


# ---------------------------------------------------------------------------
# validation: every bad combination fails at construction


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"executor": "fork"}, "executor must be inline/thread/process"),
        ({"chunksize": 0}, "chunksize must be >= 1"),
        ({"max_tasks_per_child": 0}, "max_tasks_per_child must be >= 1"),
        ({"consume_forward": True}, "needs online=True"),
        (
            {"batch_verify": True, "executor": "thread"},
            "not supported on the thread executor",
        ),
        ({"retry": RetryPolicy(max_attempts=2)}, "executor='process'"),
        ({"journal": "sweep.jsonl"}, "executor='process'"),
        ({"resume": True, "executor": "process"}, "journal"),
        ({"trace": "loud"}, "trace must be one of"),
        ({"online": True, "executor": "process"}, "disk.*shared|pools"),
        (
            {"online": True, "material": "disk", "executor": "thread"},
            "thread executor",
        ),
        (
            {
                "online": True,
                "material": "disk",
                "executor": "process",
                "warmup": False,
            },
            "warmup=True",
        ),
    ],
)
def test_validation_fails_fast(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SweepConfig(**kwargs)


def test_unknown_backend_rejected_at_construction():
    with pytest.raises(Exception, match="warp"):
        SweepConfig(backend="warp")


def test_chaos_spec_string_is_parsed():
    config = SweepConfig(executor="process", chaos="kill@3,exc@5")
    assert isinstance(config.chaos, ChaosPlan)


def test_batch_policy_resolution():
    from repro.crypto.batch import BatchPolicy

    assert SweepConfig().batch_policy is None
    assert isinstance(SweepConfig(batch_verify=True).batch_policy, BatchPolicy)
    pinned = BatchPolicy(record_trace=False)
    assert SweepConfig(batch_verify=pinned).batch_policy is pinned


def test_replace_revalidates():
    config = SweepConfig()
    with pytest.raises(ValueError, match="executor"):
        config.replace(executor="bogus")
    assert config.replace(trace="full").trace == "full"


# ---------------------------------------------------------------------------
# the argparse bridge


def _parse(argv, executor_default="inline", trace_default="light"):
    parser = argparse.ArgumentParser()
    add_sweep_options(parser, executor_default, trace_default)
    return parser.parse_args(argv)


def test_from_args_defaults():
    config = SweepConfig.from_args(_parse([]), backend="sequential")
    assert config.backend == "sequential"
    assert config.executor == "inline"
    assert config.trace == "light"
    assert config.retry is None and config.deadline is None
    assert config.chaos is None


def test_from_args_builds_supervision_policies():
    namespace = _parse(
        [
            "--executor", "process",
            "--retry-attempts", "5",
            "--deadline-cap-s", "7.5",
            "--chaos", "kill@3",
        ]
    )
    config = SweepConfig.from_args(namespace, backend="batched")
    assert config.retry.max_attempts == 5
    assert config.deadline.cap_s == 7.5
    assert config.deadline.floor_s == 7.5  # min(cap, 60): never above the cap
    assert isinstance(config.chaos, ChaosPlan)


def test_from_args_overrides_win():
    config = SweepConfig.from_args(
        _parse(["--trace", "full"]), backend="batched", trace=None
    )
    assert config.trace is None


def test_executor_choices_come_from_one_place():
    parser = argparse.ArgumentParser()
    add_sweep_options(parser)
    action = next(a for a in parser._actions if a.dest == "executor")
    assert tuple(action.choices) == EXECUTORS


# ---------------------------------------------------------------------------
# the back-compat shim


def test_positional_knobs_warn_but_work():
    with pytest.warns(DeprecationWarning, match="positionally"):
        pool = SessionPool(run_sbc_trial, "sequential", "inline")
    assert pool.config.backend == "sequential"
    assert pool.executor == "inline"


def test_keyword_knobs_stay_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        pool = SessionPool(run_sbc_trial, backend="sequential", executor="inline")
    assert pool.executor == "inline"


def test_config_plus_knobs_is_ambiguous():
    with pytest.raises(TypeError, match="not both"):
        SessionPool(run_sbc_trial, config=SweepConfig(), executor="thread")


def test_positional_overflow_refused():
    stray = ["sequential"] + [None] * len(LEGACY_KNOB_ORDER)
    with pytest.raises(TypeError, match="positional"):
        SessionPool(run_sbc_trial, *stray)


def test_positional_and_keyword_overlap_refused():
    with pytest.warns(DeprecationWarning):
        with pytest.raises(TypeError, match="multiple values for backend"):
            SessionPool(run_sbc_trial, "sequential", backend="batched")


# ---------------------------------------------------------------------------
# the drift regression: three entry points, one knob set


KNOB_VALUES = dict(
    backend="sequential",
    executor="process",
    workers=2,
    chunksize=1,
    max_tasks_per_child=1,
    warmup=True,
    material=None,
    material_groups=None,
    adaptive=False,
    online=False,
    consume_forward=False,
    batch_verify=False,
    retry=None,
    deadline=None,
    chaos=None,
    journal=None,
    resume=False,
    trace="light",
)


def test_knob_values_cover_the_whole_contract():
    assert set(KNOB_VALUES) == set(SweepConfig.knob_names())
    assert set(LEGACY_KNOB_ORDER) == set(SweepConfig.knob_names())


@pytest.mark.parametrize("owner", [SessionPool, ParallelSweep])
def test_pool_and_sweep_accept_every_knob_by_keyword(owner):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        instance = owner(run_sbc_trial, **KNOB_VALUES)
    pool = instance if owner is SessionPool else instance._pool
    config = pool.config
    assert config.executor == "process"
    assert config.workers == 2
    assert config.trace == "light"
    # Every name was consumed as a knob — nothing leaked to the runner.
    assert pool.runner_kwargs == {}


def test_run_matrix_signature_regained_the_supervision_knobs():
    """run_matrix silently lacked retry/deadline/journal/resume/trace for
    two PRs; the unified config closed the gap and this pins it shut."""
    from repro.scenarios.runner import run_matrix

    params = set(inspect.signature(run_matrix).parameters)
    assert "config" in params
    missing = set(SweepConfig.knob_names()) - params
    # Two knobs are interpreted, not forwarded: the backend is a matrix
    # axis (forced to sequential), and material_groups only travels via
    # config= — everything else is first-class.
    assert missing == {"backend", "material_groups"}
