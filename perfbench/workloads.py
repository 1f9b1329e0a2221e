"""The workloads and how one run measures them.

Every session goes through public entry points only: the ``build_*_stack`` functions of
``repro.core`` with ``run_until_delivery``/``run_until_result`` on the
default backend, and ``SessionPool(..., config=SweepConfig(...))`` for the
sweep.  Loops are closed: a session starts once the previous one finished.
Each session's inputs come from its seed, and the session seeds come from
the workload seed, so the same ``--seed`` replays the same sessions.

A session's timed region runs from stack construction through the last
honest output.  The output checks and the paper-unit accounting run after
it, untraced.  So does the audit of the first sessions of a run (trace
digest and wire size, which together cost about as much as the session
itself); its digests feed the exact-repeat and traced-versus-untraced
checks.  Rounds are simulated on the session clock with no injected
network delay, so session time is processor time only.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import repro.core as core
import repro.runtime as rt
import repro.runtime.pool as pool_mod
from repro.crypto.groups import TEST_GROUP, warm_groups
from repro.runtime.material import MATERIAL_DIR_ENV, MaterialStore, online_pool_requirement
# Bound here, before a traced run patches the program's own references, so
# the benchmark's checks stay untraced.
from repro.runtime.pool import trace_digest
from repro.uc.encoding import encode

from perfbench.tracing import Tracer, layer_metrics, layer_shares

#: Corollary 1 parameters for both SBC workloads.
PHI, DELTA = 5, 3
CANDIDATES = ("yes", "no")
#: Sessions re-run after the timed loop; their digests and paper units
#: must repeat exactly.
REPEAT = 3
#: Sessions audited at the start of a timed run (digest and wire size).
AUDIT = 10

#: Per-run sweep-only metrics; in-process workloads report them as 0.
SWEEP_LAYER_METRICS = (
    "runtime.pool.start_ms", "runtime.pool.busy_frac", "runtime.pool.wait_ms",
    "runtime.pool.retries", "runtime.pool.respawns", "runtime.pool.quarantined",
    "runtime.material.build_ms", "runtime.material.publish_ms", "runtime.online.hit_ratio",
)


@dataclass
class Outcome:
    """One session: timings, trace digest, paper units and check verdict."""

    seed: int
    latency_s: float
    units: Optional[Dict[str, int]] = None
    error: Optional[str] = None
    #: The finished stack, until :func:`audit` or the loop lets it go.
    stack: Any = None
    digest: str = ""


def attempt(session: Callable[..., Outcome], seed: int, *args: Any) -> Outcome:
    """Run one session; a session that raises is a failed one."""
    start = time.perf_counter()
    try:
        return session(seed, *args)
    except Exception as exc:
        return Outcome(seed, time.perf_counter() - start, error=f"raised {exc!r}")


def paper_units(session: Any) -> Dict[str, int]:
    """Rounds, messages and RO queries of a finished session (wire bits: :func:`audit`)."""
    metrics = session.metrics
    return {
        "rounds": metrics.get("rounds.advanced"),
        "messages": metrics.get("messages.total"),
        "ro_queries": metrics.get("ro.total"),
    }


def audit(outcome: Outcome) -> None:
    """Add the trace digest and the wire bits to a finished session's outcome.

    ``Metrics`` counts messages but not their size, so wire bits are the
    canonical encoding length of every delivered message in the trace.
    """
    if outcome.stack is None:
        return
    log = outcome.stack.session.log
    outcome.digest = trace_digest(log)
    wire = sum(len(encode(event.detail[1])) for event in log if event.kind == "deliver")
    outcome.units["wire_bits"] = 8 * wire
    outcome.stack = None


def _timed(seed: int, body: Callable[[], Any], tracer: Optional[Tracer]) -> Tuple[Any, float]:
    """Run ``body`` (build, inputs, run), timed: (stack, latency)."""
    if tracer is not None:
        tracer.begin_session(seed)
    start = time.perf_counter()
    stack = tracer.span("bench.session", body) if tracer else body()
    return stack, time.perf_counter() - start


# -- SBC -------------------------------------------------------------------------


def sbc_session(seed: int, n: int, mode: str, tracer: Optional[Tracer] = None) -> Outcome:
    """Every party broadcasts 32 seeded random bytes; all must deliver them."""
    rng = random.Random(seed)
    sent = {f"P{i}": rng.randbytes(32) for i in range(n)}

    def body() -> Any:
        stack = core.build_sbc_stack(n=n, mode=mode, seed=seed, phi=PHI, delta=DELTA)
        for pid, message in sent.items():
            stack.parties[pid].broadcast(message)
        stack.run_until_delivery()
        return stack

    stack, latency = _timed(seed, body, tracer)
    session = stack.session
    expected = sorted(sent.values())
    error = None
    delivered = stack.delivered()
    for pid in stack.parties:
        if session.is_corrupted(pid):
            continue
        batch = delivered.get(pid)
        rounds = [event.time for event in session.log.filter(kind="output", source=pid)]
        if batch is None or sorted(batch) != expected:
            error = f"{pid} delivered {batch!r}, expected the {n} sent messages"
        elif rounds[:1] != [PHI + DELTA]:
            error = f"{pid} delivered at round {rounds[:1]}, expected {PHI + DELTA}"
        if error:
            break
    return Outcome(seed, latency, paper_units(session), error, stack)


# -- voting ----------------------------------------------------------------------


def vote_session(seed: int, ballots: Sequence[str], tracer: Optional[Tracer] = None) -> Outcome:
    """A yes/no election over FSBC; every honest tally must count ``ballots``."""

    def body() -> Any:
        stack = core.build_voting_stack(
            voters=len(ballots), authorities=2, candidates=CANDIDATES, mode="hybrid", seed=seed
        )
        for authority in stack.authorities.values():
            authority.deal()
        stack.run_rounds(1)
        for index, candidate in enumerate(ballots):
            stack.parties[f"V{index}"].vote(candidate)
        stack.run_until_result()
        return stack

    stack, latency = _timed(seed, body, tracer)
    expected = {candidate: list(ballots).count(candidate) for candidate in CANDIDATES}
    error = None
    for pid, tally in stack.results().items():
        if not stack.session.is_corrupted(pid) and tally != expected:
            error = f"{pid} tallied {tally!r}, expected {expected!r}"
            break
    return Outcome(seed, latency, paper_units(stack.session), error, stack)


def seeded_ballots(seed: int, voters: int) -> List[str]:
    rng = random.Random(f"ballots:{seed}")
    return [rng.choice(CANDIDATES) for _ in range(voters)]


def sweep_ballots(voters: int) -> List[str]:
    """The ballots ``run_voting_trial`` casts: candidates in turn."""
    return [CANDIDATES[index % len(CANDIDATES)] for index in range(voters)]


# -- statistics ------------------------------------------------------------------


def latency_summary(values_ms: Sequence[float]) -> Dict[str, float]:
    """Fastest, median and tail of per-session times, all zero if there are none.

    The tail is the highest percentile with ten samples beyond it (the
    slowest session while there are fewer than eleven).
    """
    ordered = sorted(values_ms)
    count = len(ordered)
    if not count:
        return {"min_ms": 0.0, "p50_ms": 0.0, "tail_ms": 0.0, "tail_percentile": 0.0, "samples": 0}
    index = count - 11 if count >= 11 else count - 1
    return {
        "min_ms": ordered[0],
        "p50_ms": statistics.median(ordered),
        "tail_ms": ordered[index],
        "tail_percentile": round(100.0 * (index + 1) / count, 2),
        "samples": count,
    }


def mean_units(units: Sequence[Dict[str, int]]) -> Dict[str, float]:
    """Per-key mean over the sessions that have the key (only audited ones have wire bits)."""
    keys = {key for unit in units for key in unit}
    return {key: statistics.fmean(unit[key] for unit in units if key in unit) for key in keys}


def unit_metrics(units: Dict[str, float]) -> Dict[str, float]:
    return {
        "rounds_per_session": units.get("rounds", 0.0),
        "messages_per_session": units.get("messages", 0.0),
        "wire_kib_per_session": units.get("wire_bits", 0.0) / 8 / 1024,
        "ro_queries_per_session": units.get("ro_queries", 0.0),
    }


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Result:
    """What one run reports: the final line's fields plus a detail record."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    detail: Dict[str, Any]
    self_check: List[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.self_check


# -- in-process workloads ----------------------------------------------------------


class InProcessWorkload:
    """Sessions run one after another in this process on the default backend."""

    def __init__(self, name: str, session: Callable[[int, Optional[Tracer]], Outcome]) -> None:
        self.name = name
        self.session = session

    def _seeds(self, seed: int, stream: str) -> Iterator[int]:
        rng = random.Random(f"{self.name}:{stream}:{seed}")
        while True:
            yield rng.getrandbits(31)

    def setup(self, seed: int, seconds: float) -> None:
        """Group warm-up and one untimed session."""
        warm_groups()
        self.session(next(self._seeds(seed, "warm")), None)

    def teardown(self) -> None:
        pass

    def _loop(
        self, seeds: Iterator[int], seconds: float, audited: int, tracer: Optional[Tracer] = None
    ) -> List[Outcome]:
        """Sessions until ``seconds`` have passed; the first ``audited`` are audited."""
        outcomes: List[Outcome] = []
        deadline = time.perf_counter() + seconds
        for seed in seeds:
            if time.perf_counter() >= deadline:
                break
            outcome = attempt(self.session, seed, tracer)
            if len(outcomes) < audited:
                audit(outcome)
            outcome.stack = None
            outcomes.append(outcome)
        return outcomes

    def measure(self, seed: int, seconds: float) -> Result:
        outcomes = self._loop(self._seeds(seed, "timed"), seconds, AUDIT)
        verified = [outcome for outcome in outcomes if outcome.error is None]
        timed = sum(outcome.latency_s for outcome in outcomes)
        latency = latency_summary([outcome.latency_s * 1e3 for outcome in verified])
        self_check = self._repeat_check([o for o in outcomes[:AUDIT] if o.error is None][:REPEAT])
        metrics = {
            "session_min_ms": latency["min_ms"],
            "peak_rss_mb": peak_rss_mb(),
            **unit_metrics(mean_units([outcome.units for outcome in verified])),
        }
        detail = {
            "sessions": len(outcomes),
            "timed_s": round(timed, 4),
            "sessions_per_s": len(verified) / timed,
            "latency": latency,
            "errors": [f"seed {o.seed}: {o.error}" for o in outcomes if o.error][:5],
        }
        return Result(len(outcomes), len(outcomes) - len(verified), metrics, detail, self_check)

    def _repeat_check(self, originals: Sequence[Outcome]) -> List[str]:
        problems = []
        for original in originals:
            again = attempt(self.session, original.seed, None)
            audit(again)
            if again.error or (again.digest, again.units) != (original.digest, original.units):
                problems.append(
                    f"seed {original.seed} did not repeat: digest/units "
                    f"{original.digest[:12]}/{original.units} then {again.digest[:12]}/{again.units}"
                )
        return problems

    def trace(self, seed: int, seconds: float, results_dir: str) -> Result:
        """Untraced then traced over the same seeds; per-layer split per session."""
        untraced = self._loop(self._seeds(seed, "timed"), seconds / 2, sys.maxsize)
        tracer = Tracer()
        tracer.install()
        traced = self._loop(iter([o.seed for o in untraced]), seconds / 2, sys.maxsize, tracer)
        self_check = [
            f"seed {t.seed}: traced digest {t.digest[:12]} != untraced {u.digest[:12]}"
            for t, u in zip(traced, untraced)
            if t.digest != u.digest
        ]
        failed = sum(1 for o in untraced + traced if o.error)
        rate = len(untraced) / sum(o.latency_s for o in untraced)
        traced_rate = len(traced) / sum(o.latency_s for o in traced)
        metrics = layer_metrics(tracer.calls, tracer.self_ns, len(traced))
        metrics.update({name: 0.0 for name in SWEEP_LAYER_METRICS})
        metrics["trace.overhead"] = rate / traced_rate
        span_file = os.path.join(results_dir, f"spans-{self.name}-{seed}.jsonl")
        detail = {
            "sessions": {"untraced": len(untraced), "traced": len(traced)},
            "sessions_per_s": {"untraced": rate, "traced": traced_rate},
            "layer_shares": layer_shares(tracer.self_ns),
            "missing_span_targets": tracer.missing,
            "spans_written": tracer.write_spans(span_file),
            "span_file": os.path.relpath(span_file),
        }
        return Result(len(untraced) + len(traced), failed, metrics, detail, self_check)


# -- the process sweep ----------------------------------------------------------------


#: CPUs this process may run on, as ``nproc`` counts them.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
#: Sweep trials per worker per second on the reference host (2 cores); a
#: run sweeps ``rate * workers * seconds`` trials so it lasts about ``seconds``.
SWEEP_RATE_PER_WORKER = 20
SWEEP_VOTERS = 4


class SweepWorkload:
    """Voting trials through ``SessionPool`` on the process executor.

    Material is ``shared`` and ``online``: trials spend preprocessed nonce
    pools that each run builds for ``TEST_GROUP`` only, sized with
    ``online_pool_requirement``, in its own temporary store.
    """

    name = "sweep_vote_process"

    def __init__(self, results_dir: str) -> None:
        self.results_dir = results_dir
        self.workers = NPROC
        self.store_dir: Optional[str] = None

    def _sweep(self, seeds: Sequence[int]) -> Tuple[Any, float]:
        config = rt.SweepConfig(
            executor="process", workers=self.workers, material="shared", online=True
        )
        # Looked up per call so the traced run dispatches the wrapped runner.
        sweep = rt.SessionPool(pool_mod.run_voting_trial, config=config, voters=SWEEP_VOTERS)
        start = time.perf_counter()
        with warnings.catch_warnings():
            # Every sweep of a run plans its slots from pool index 0, so
            # repeated seeds spend the same entries and digest-equal; the
            # ledger warns about exactly that re-spend.
            warnings.filterwarnings("ignore", message=".*re-spends from index 0.*")
            report = sweep.run(seeds)
        return report, time.perf_counter() - start

    def setup(self, seed: int, seconds: float) -> None:
        """Fresh store, pool build, and a warm-up sweep (pool start included)."""
        self.tasks = max(4 * self.workers, round(SWEEP_RATE_PER_WORKER * self.workers * seconds))
        rng = random.Random(f"{self.name}:{seed}")
        self.seeds = rng.sample(range(1 << 31), self.tasks)
        os.makedirs(self.results_dir, exist_ok=True)
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.results_dir)
        os.environ[MATERIAL_DIR_ENV] = self.store_dir
        start = time.perf_counter()
        required = online_pool_requirement(self.tasks)
        MaterialStore(self.store_dir).build(
            groups=(TEST_GROUP,), nonces=required["nonces"], feldman=required["feldman"]
        )
        self.build_ms = (time.perf_counter() - start) * 1e3
        self.warm, _ = self._sweep(self.seeds[: 2 * self.workers])

    def teardown(self) -> None:
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            os.environ.pop(MATERIAL_DIR_ENV, None)
            self.store_dir = None
        # The pools' semaphores started multiprocessing's resource tracker;
        # stop it and reap it here rather than leave it to outlive the run.
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()

    def _verify(self, seeds: Sequence[int], report: Any) -> Tuple[Dict[int, Any], List[str]]:
        """Seed -> trial for the trials that tallied right, and an error for every other seed."""
        tally = {candidate: sweep_ballots(SWEEP_VOTERS).count(candidate) for candidate in CANDIDATES}
        expected = repr(tuple(sorted(tally.items())))
        by_seed = {result.seed: result for result in report.results if result is not None}
        verified, errors = {}, []
        for seed in seeds:
            result = by_seed.get(seed)
            if result is None:
                errors.append(f"seed {seed}: no result (quarantined)")
            elif result.outputs != expected:
                errors.append(f"seed {seed}: outputs {result.outputs}, expected {expected}")
            else:
                verified[seed] = result
        return verified, errors

    def measure(self, seed: int, seconds: float) -> Result:
        report, wall = self._sweep(self.seeds)
        verified, errors = self._verify(self.seeds, report)
        trials = list(verified.values())
        latency = latency_summary([trial.wall_time_s * 1e3 for trial in trials])
        self_check = self._repeat_check(verified)
        # TrialResult carries rounds and messages only; wire size and RO
        # queries come from inline replays of the first verified seeds.
        replays = [attempt(vote_session, s, sweep_ballots(SWEEP_VOTERS)) for s in list(verified)[:REPEAT]]
        for replay in replays:
            audit(replay)
        for replay in replays:
            trial = verified[replay.seed]
            if replay.error or (trial.rounds, trial.messages) != (
                replay.units["rounds"], replay.units["messages"]
            ):
                self_check.append(f"seed {replay.seed}: inline replay differs from the trial")
        units = mean_units([replay.units for replay in replays if replay.units])
        if trials:
            units["rounds"] = statistics.fmean(trial.rounds for trial in trials)
            units["messages"] = statistics.fmean(trial.messages for trial in trials)
        parent_mb, worker_mb = peak_rss_mb(), peak_rss_mb(children=True)
        metrics = {
            "session_min_ms": latency["min_ms"],
            "peak_rss_mb": parent_mb + worker_mb,
            **unit_metrics(units),
        }
        detail = {
            "sessions": len(self.seeds),
            "wall_s": round(wall, 4),
            "workers": self.workers,
            "sessions_per_s": len(trials) / wall,
            "latency": latency,
            "peak_rss_mb": {"parent": parent_mb, "largest_worker": worker_mb},
            "pool": self._pool_metrics(report, wall),
            "errors": errors[:5],
        }
        return Result(len(self.seeds), len(errors), metrics, detail, self_check)

    def _repeat_check(self, verified: Dict[int, Any]) -> List[str]:
        """The warm-up sweep ran the first seeds on the same pool slots."""
        problems = []
        for warm in self.warm.results:
            if warm is None:
                continue
            again = verified.get(warm.seed)
            if again is None or (warm.rounds, warm.messages, warm.digest, warm.outputs) != (
                again.rounds, again.messages, again.digest, again.outputs
            ):
                problems.append(f"seed {warm.seed}: warm-up and timed trials differ")
        return problems

    def _pool_metrics(self, report: Any, wall: float) -> Dict[str, float]:
        busy = sum(result.wall_time_s for result in report.results if result is not None)
        supervision = report.supervision or {}
        spend = report.online_spend or {}
        spent = spend.get("nonces_spent", 0)
        sampled = spend.get("nonces_sampled", 0)
        return {
            "runtime.pool.busy_frac": busy / (self.workers * wall),
            "runtime.pool.wait_ms": (self.workers * wall - busy) * 1e3,
            "runtime.pool.retries": float(supervision.get("retries", 0)),
            "runtime.pool.respawns": float(supervision.get("respawns", 0)),
            "runtime.pool.quarantined": float(supervision.get("quarantined", 0)),
            "runtime.online.hit_ratio": spent / (spent + sampled) if spent + sampled else 0.0,
        }

    def trace(self, seed: int, seconds: float, results_dir: str) -> Result:
        """Untraced then traced sweep over the same half of the trials."""
        seeds = self.seeds[: max(2 * self.workers, len(self.seeds) // 2)]
        untraced, wall = self._sweep(seeds)
        spool = tempfile.mkdtemp(prefix="spool-", dir=self.store_dir)
        tracer = Tracer()
        tracer.install(spool=spool)
        traced, traced_wall = self._sweep(seeds)
        calls, self_ns = tracer.collect_workers()
        plain, plain_errors = self._verify(seeds, untraced)
        wrapped, wrapped_errors = self._verify(seeds, traced)
        self_check = [
            f"seed {seed}: traced digest differs from untraced"
            for seed, trial in wrapped.items()
            if seed in plain and plain[seed].digest != trial.digest
        ]
        failed = len(plain_errors) + len(wrapped_errors)
        metrics = layer_metrics(calls, self_ns, len(seeds))
        metrics.update(self._pool_metrics(untraced, wall))
        metrics.update({
            "runtime.pool.start_ms": tracer.self_ns["runtime.pool.start"] / 1e6,
            "runtime.material.build_ms": self.build_ms,
            "runtime.material.publish_ms": tracer.self_ns["runtime.material.publish"] / 1e6,
            "trace.overhead": traced_wall / wall,
        })
        span_file = os.path.join(results_dir, f"spans-{self.name}-{seed}.jsonl")
        detail = {
            "sessions": {"untraced": len(seeds), "traced": len(seeds)},
            "sessions_per_s": {"untraced": len(seeds) / wall, "traced": len(seeds) / traced_wall},
            "layer_shares": layer_shares(self_ns),
            "missing_span_targets": tracer.missing,
            "spans_written": tracer.write_spans(span_file),
            "span_file": os.path.relpath(span_file),
        }
        return Result(2 * len(seeds), failed, metrics, detail, self_check)


def workloads(results_dir: str) -> Dict[str, Any]:
    """Workload name -> workload (``perfbench/run.py`` says which BENCHMARK.json runs)."""
    return {
        "sbc_hybrid_n16": InProcessWorkload(
            "sbc_hybrid_n16",
            lambda seed, tracer: sbc_session(seed, 16, "hybrid", tracer),
        ),
        "sbc_composed_n8": InProcessWorkload(
            "sbc_composed_n8",
            lambda seed, tracer: sbc_session(seed, 8, "composed", tracer),
        ),
        "vote_hybrid_v8": InProcessWorkload(
            "vote_hybrid_v8",
            lambda seed, tracer: vote_session(seed, seeded_ballots(seed, 8), tracer),
        ),
        "sweep_vote_process": SweepWorkload(results_dir),
    }
