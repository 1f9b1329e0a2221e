"""Span tracer for the traced benchmark run.

The program has no timers of its own, so the traced run wraps the public
callables at each layer seam from the outside:

* methods are replaced on their class (and, where named, on every
  subclass that defines its own copy, e.g. each driver's ``run_round``);
* module functions are replaced in *every* loaded ``repro`` module that
  holds a reference to them, because ``from x import f`` binds ``f`` at
  import time and patching the defining module alone would miss callers.

A span records name, start, end, parent span and the session seed as its
id.  Self time is the span's duration minus the time covered by its child
spans; it is accumulated per span name for every span, while the raw span
records are kept in memory for the first ``keep_sessions`` sessions of each
process only and written out when the run ends (a composed session makes
thousands of spans).  Sweep workers hand their aggregates and kept spans
to the parent through a spool directory.  A call that re-enters a span of
the same name (``encode`` recurses) is folded into the outer span.

Tracing must not change what a session does: the wrappers only read the
clock, and the benchmark compares traced against untraced trace digests.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, target).  A target is ``module:function``, ``module:Class.method``
#: or ``module:Class.method+`` (also every subclass that overrides ``method``).
#: ``module:function@callers`` leaves the defining module's own reference
#: alone, so a recursive function is wrapped at its outer calls only and
#: its inner calls pay no wrapper cost.
SPAN_TARGETS: Tuple[Tuple[str, str], ...] = (
    # crypto: group arithmetic, hashing, proofs
    ("crypto.exp", "repro.crypto.groups:SchnorrGroup.exp"),
    ("crypto.exp", "repro.crypto.groups:SchnorrGroup.power_of_g"),
    ("crypto.multi_exp", "repro.crypto.groups:SchnorrGroup.multi_exp"),
    ("crypto.hash", "repro.crypto.hashing:hash_bytes"),
    ("crypto.hash", "repro.crypto.hashing:hash_to_int"),
    ("crypto.hash", "repro.crypto.hashing:expand"),
    ("crypto.zkp.prove", "repro.crypto.zkp:pok_prove"),
    ("crypto.zkp.prove", "repro.crypto.zkp:cp_prove"),
    ("crypto.zkp.prove", "repro.crypto.zkp:ballot_prove"),
    ("crypto.zkp.verify", "repro.crypto.zkp:pok_verify"),
    ("crypto.zkp.verify", "repro.crypto.zkp:cp_verify"),
    ("crypto.zkp.verify", "repro.crypto.zkp:ballot_verify"),
    # uc: event trace and canonical encoding
    ("uc.trace.record", "repro.uc.trace:EventLog.record"),
    ("uc.encode", "repro.uc.encoding:encode@callers"),
    ("uc.encode", "repro.uc.encoding:sort_key"),
    ("uc.encode", "repro.uc.encoding:decode"),
    # uc: entity plumbing (delivery, leaks, outputs, the Advance_Clock template)
    ("uc.dispatch", "repro.uc.entity:Functionality.deliver"),
    ("uc.dispatch", "repro.uc.entity:Functionality.leak"),
    ("uc.dispatch", "repro.uc.entity:Party.output"),
    ("uc.dispatch", "repro.uc.entity:Party.advance_clock"),
    # functionalities: random oracle, the Wq resource wrapper and the ideal
    # functionalities the hybrid stacks run over
    ("functionalities.ro", "repro.functionalities.random_oracle:RandomOracle.query"),
    ("functionalities.wrapper", "repro.functionalities.wrapper:QueryWrapper.evaluate"),
    ("functionalities.ideal", "repro.functionalities.ubc:UnfairBroadcast.broadcast"),
    ("functionalities.ideal", "repro.functionalities.ubc:UnfairBroadcast.on_party_tick"),
    ("functionalities.ideal", "repro.functionalities.tle:TimeLockEncryption.enc"),
    ("functionalities.ideal", "repro.functionalities.tle:TimeLockEncryption.retrieve"),
    ("functionalities.ideal", "repro.functionalities.tle:TimeLockEncryption.dec"),
    ("functionalities.ideal", "repro.functionalities.sbc:SimultaneousBroadcast.broadcast"),
    ("functionalities.ideal", "repro.functionalities.sbc:SimultaneousBroadcast.on_party_tick"),
    # tle: the Astrolabous time-lock puzzle
    ("tle.encrypt", "repro.tle.astrolabous:ast_encrypt"),
    ("tle.solve", "repro.tle.astrolabous:PuzzleSolver.absorb"),
    ("tle.decrypt", "repro.tle.astrolabous:ast_decrypt"),
    # protocols: public entry points of adapters and parties
    ("protocols.sbc", "repro.protocols.sbc_protocol:SBCProtocolAdapter.broadcast"),
    ("protocols.sbc", "repro.protocols.sbc_protocol:SBCProtocolAdapter.on_party_tick"),
    ("protocols.sbc", "repro.protocols.sbc_protocol:SBCParty.broadcast"),
    ("protocols.sbc", "repro.protocols.sbc_protocol:SBCParty.on_deliver"),
    ("protocols.tle", "repro.protocols.tle_protocol:TLEProtocolAdapter.enc"),
    ("protocols.tle", "repro.protocols.tle_protocol:TLEProtocolAdapter.retrieve"),
    ("protocols.tle", "repro.protocols.tle_protocol:TLEProtocolAdapter.dec"),
    ("protocols.tle", "repro.protocols.tle_protocol:TLEProtocolAdapter.on_party_tick"),
    ("protocols.fbc", "repro.protocols.fbc_protocol:FBCProtocolAdapter.broadcast"),
    ("protocols.fbc", "repro.protocols.fbc_protocol:FBCProtocolAdapter.on_party_tick"),
    ("protocols.voting", "repro.protocols.voting_protocol:VoterParty.vote"),
    ("protocols.voting", "repro.protocols.voting_protocol:VoterParty.on_deliver"),
    ("protocols.voting", "repro.protocols.voting_protocol:AuthorityParty.deal"),
    # core: stack construction
    ("core.build", "repro.core.stacks:build_sbc_stack"),
    ("core.build", "repro.core.stacks:build_voting_stack"),
    # runtime: round driver, scheduler, digest, pool
    ("runtime.round", "repro.runtime.driver:RoundDriver.run_round+"),
    ("runtime.drain", "repro.runtime.scheduler:BatchScheduler.drain+"),
    ("runtime.digest", "repro.runtime.pool:trace_digest"),
    ("runtime.trial", "repro.runtime.pool:run_voting_trial"),
    ("runtime.material.publish", "repro.runtime.material:publish_material"),
    ("runtime.pool.start", "multiprocessing:Pool"),
)


class Tracer:
    """In-memory span collector with per-name call counts and self time."""

    def __init__(self, keep_sessions: int = 2) -> None:
        #: Raw spans are kept for this many sessions per process.
        self.keep_sessions = keep_sessions
        self.missing: List[str] = []
        self.spool: Optional[str] = None
        self._reset()

    def _reset(self) -> None:
        #: name -> [calls, self_ns]; the lists are shared with the wrappers.
        self._stats: Dict[str, List[int]] = getattr(self, "_stats", {})
        for stats in self._stats.values():
            stats[0] = stats[1] = 0
        #: Open spans: [name, child_ns, span_id].
        self.stack: List[list] = []
        #: Raw spans: (name, start_ns, end_ns, parent_id, session).
        self.spans: List[Optional[Tuple[str, int, int, int, Any]]] = []
        #: Kept spans that sweep workers handed over (see :meth:`collect_workers`).
        self.worker_spans: List[Dict[str, Any]] = []
        self.session: Any = None
        self.recording = False
        self._kept: List[Any] = []

    @property
    def calls(self) -> Counter:
        return Counter({name: stats[0] for name, stats in self._stats.items()})

    @property
    def self_ns(self) -> Counter:
        return Counter({name: stats[1] for name, stats in self._stats.items()})

    # -- recording -----------------------------------------------------------

    def begin_session(self, session: Any) -> None:
        """Tag the spans that follow with ``session`` (the session seed)."""
        self.session = session
        if len(self._kept) < self.keep_sessions and session not in self._kept:
            self._kept.append(session)
        self.recording = session in self._kept

    def wrap(self, name: str, fn: Callable, trial: bool = False) -> Callable:
        """``fn`` inside a span called ``name``.

        A ``trial`` span is a sweep trial: its first argument is the session
        seed, and a worker writes its spool file once the span closes.
        """
        tracer = self
        clock = time.perf_counter_ns
        stats = self._stats.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if trial and not stack:
                tracer.begin_session(args[0] if args else kwargs.get("seed"))
            frame = [name, 0, -1]
            if tracer.recording:
                frame[2] = len(tracer.spans)
                tracer.spans.append(None)  # placeholder, filled on exit
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[1]
                parent_id = -1
                if stack:
                    stack[-1][1] += duration
                    parent_id = stack[-1][2]
                if frame[2] >= 0:
                    tracer.spans[frame[2]] = (name, start, end, parent_id, tracer.session)
                if trial and not stack:
                    tracer._dump()

        return traced

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span (for the benchmark's own session root)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- worker processes ------------------------------------------------------

    def _dump(self) -> None:
        """Rewrite this worker's aggregates, and its kept spans if this trial added some."""
        if self.spool is None:
            return
        self._write_json("aggregates", {"calls": self.calls, "self_ns": self.self_ns})
        if self.recording:
            self._write_json("spans", self._records())

    def _write_json(self, kind: str, record: Any) -> None:
        path = os.path.join(self.spool, f"worker-{os.getpid()}.{kind}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(record, handle)
        os.replace(path + ".tmp", path)

    def collect_workers(self) -> Tuple[Counter, Counter]:
        """Sum the aggregates that forked workers wrote to the spool.

        Their kept spans join :attr:`worker_spans`, to be written with the
        parent's own.
        """
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        if self.spool is None:
            return calls, self_ns
        for entry in sorted(os.listdir(self.spool)):
            with open(os.path.join(self.spool, entry)) as handle:
                if entry.endswith(".aggregates.json"):
                    record = json.load(handle)
                    calls.update(record["calls"])
                    self_ns.update(record["self_ns"])
                elif entry.endswith(".spans.json"):
                    self.worker_spans.extend(json.load(handle))
        return calls, self_ns

    # -- installation ----------------------------------------------------------

    def install(self, spool: Optional[str] = None) -> None:
        """Patch every target in :data:`SPAN_TARGETS`.

        With ``spool`` set, forked children start with empty aggregates and
        rewrite ``spool/worker-<pid>.aggregates.json`` (and, while they keep
        spans, ``spool/worker-<pid>.spans.json``) whenever a trial span in
        them closes (pool workers are terminated, never exit cleanly, so
        they cannot write at exit).
        """
        self.spool = spool
        if spool is not None:
            os.register_at_fork(after_in_child=self._reset)
        for name, target in SPAN_TARGETS:
            if not self._patch(name, target, trial=name == "runtime.trial"):
                self.missing.append(target)

    def _patch(self, name: str, target: str, trial: bool) -> bool:
        module_name, _, attr = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        if "." in attr:
            class_name, _, method = attr.partition(".")
            subclasses = method.endswith("+")
            method = method.rstrip("+")
            cls = getattr(module, class_name, None)
            if cls is None or not callable(getattr(cls, method, None)):
                return False
            classes = [cls] + (_subclasses(cls) if subclasses else [])
            for owner in classes:
                if owner is cls or method in vars(owner):
                    setattr(owner, method, self.wrap(name, getattr(owner, method), trial))
            return True
        attr, _, scope = attr.partition("@")
        original = getattr(module, attr, None)
        if original is None:
            return False
        traced = self.wrap(name, original, trial)
        holders = [] if scope == "callers" else [module]
        holders += [
            mod for key, mod in list(sys.modules.items())
            if key.startswith("repro") and mod is not module
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, traced)
        return True

    # -- output ------------------------------------------------------------------

    def _records(self) -> List[Dict[str, Any]]:
        """This process's kept spans; ``id`` and ``parent`` are unique per ``pid``."""
        pid = os.getpid()
        fields = ("name", "start_ns", "end_ns", "parent", "session")
        return [
            {"pid": pid, "id": span_id, **dict(zip(fields, span))}
            for span_id, span in enumerate(self.spans)
            if span is not None
        ]

    def write_spans(self, path: str) -> int:
        """Write the kept raw spans, workers' too, as JSON lines; returns how many."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        records = self._records() + self.worker_spans
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        return len(records)


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


def layer_metrics(calls: Counter, self_ns: Counter, sessions: int) -> Dict[str, float]:
    """Per-session counts and self times (ms) under the benchmark's metric names."""
    per = max(sessions, 1)

    def ms(*names: str) -> float:
        return sum(self_ns.get(name, 0) for name in names) / 1e6 / per

    def count(*names: str) -> float:
        return sum(calls.get(name, 0) for name in names) / per

    return {
        "crypto.exp.calls": count("crypto.exp"),
        "crypto.exp.ms": ms("crypto.exp"),
        "crypto.multi_exp.calls": count("crypto.multi_exp"),
        "crypto.multi_exp.ms": ms("crypto.multi_exp"),
        "crypto.hash.calls": count("crypto.hash"),
        "crypto.hash.ms": ms("crypto.hash"),
        "crypto.zkp.prove.ms": ms("crypto.zkp.prove"),
        "crypto.zkp.verify.ms": ms("crypto.zkp.verify"),
        "uc.trace.record.calls": count("uc.trace.record"),
        "uc.trace.ms": ms("uc.trace.record"),
        "uc.encode.calls": count("uc.encode"),
        "uc.encode.ms": ms("uc.encode"),
        "uc.dispatch.ms": ms("uc.dispatch"),
        "functionalities.ro.queries": count("functionalities.ro"),
        "functionalities.ro.ms": ms("functionalities.ro"),
        "functionalities.wrapper.ms": ms("functionalities.wrapper"),
        "functionalities.ideal.ms": ms("functionalities.ideal"),
        "tle.encrypt.calls": count("tle.encrypt"),
        "tle.encrypt.ms": ms("tle.encrypt"),
        "tle.solve.steps": count("tle.solve"),
        "tle.solve.ms": ms("tle.solve"),
        "tle.decrypt.ms": ms("tle.decrypt"),
        "protocols.sbc.ms": ms("protocols.sbc"),
        "protocols.tle.ms": ms("protocols.tle"),
        "protocols.fbc.ms": ms("protocols.fbc"),
        "protocols.voting.ms": ms("protocols.voting"),
        "core.build.ms": ms("core.build"),
        "runtime.round.calls": count("runtime.round"),
        "runtime.round.ms": ms("runtime.round"),
        "runtime.drain.calls": count("runtime.drain"),
        "runtime.drain.ms": ms("runtime.drain"),
        "runtime.digest.ms": ms("runtime.digest"),
        "unattributed.ms": ms("bench.session", "runtime.trial"),
    }


def layer_shares(self_ns: Counter) -> Dict[str, float]:
    """Self-time share of each layer (first name component) over all spans."""
    totals: Counter = Counter()
    for name, value in self_ns.items():
        layer = "unattributed" if name in ("bench.session", "runtime.trial") else name.split(".")[0]
        totals[layer] += value
    whole = sum(totals.values()) or 1
    return {layer: round(value / whole, 4) for layer, value in totals.most_common()}
