"""The shipped rules: RPR001–RPR007, each grounded in a past bug.

Every rule documents the invariant it encodes and the incident that
motivated it; ARCHITECTURE.md cross-references them.  Rules are
registered on import via :func:`~repro.analysis.lint.engine.register_rule`
and scoped with fnmatch patterns over relative posix paths (see the
engine docstring for how roots are resolved).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.lint.engine import LintContext, Rule, path_matches, register_rule

__all__ = [
    "ArithNormalizationRule",
    "DigestNondeterminismRule",
    "LockDisciplineRule",
    "PickleSafetyRule",
    "RandomnessSeamRule",
    "WorkerDegradationRule",
    "WorkerSupervisionRule",
]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(call: ast.Call) -> Optional[str]:
    return dotted_name(call.func)


def is_self_attr(node: ast.AST, attrs: Set[str]) -> Optional[str]:
    """The attribute name when ``node`` is ``self.<attr in attrs>``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in attrs
    ):
        return node.attr
    return None


@register_rule
class DigestNondeterminismRule(Rule):
    """RPR001 — event details and digest paths must be deterministic.

    Motivated by the PR 3 repr-order-sensitive tally digest and the PR 5
    ``canonical_detail`` retrofit: a recorded detail is hashed via
    ``trace_digest``, so pre-rendering it with ``repr``/``str`` (dict and
    set order leaks ``PYTHONHASHSEED``) or embedding wall-clock/entropy
    values makes byte-identical executions digest differently across
    processes.  Record the structure itself; ``canonical_detail`` renders
    it stably at hash time.
    """

    id = "RPR001"
    name = "digest-nondeterminism"
    invariant = (
        "event details and digest-bearing code must not pre-render "
        "structures with repr/str or draw time/entropy/id values"
    )
    paths = None  # every file: .record() call sites live across the tree

    NONDET = {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "os.urandom",
        "uuid.uuid4",
        "id",
        "hash",
    }

    def check(self, ctx: LintContext) -> Iterator:
        for node in ast.walk(ctx.tree):
            # (a) repr(x).encode() anywhere: rendering an arbitrary object
            # to bytes; dict/set reprs are not cross-process-stable.
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "encode"
                and isinstance(node.func.value, ast.Call)
                and isinstance(node.func.value.func, ast.Name)
                and node.func.value.func.id == "repr"
            ):
                yield ctx.finding(
                    self,
                    node,
                    "repr(...).encode() renders an object to bytes; use "
                    "canonical_detail(...) for a cross-process-stable rendering",
                )
            # (b) nondeterminism and pre-rendering inside .record(detail=...)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "record":
                    detail = self._detail_arg(node)
                    if detail is not None:
                        yield from self._scan_detail(ctx, detail)
            # (c) digest-bearing functions must not consult clocks/entropy
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._is_digest_fn(node):
                    yield from self._scan_digest_fn(ctx, node)

    @staticmethod
    def _detail_arg(call: ast.Call) -> Optional[ast.AST]:
        for keyword in call.keywords:
            if keyword.arg == "detail":
                return keyword.value
        # EventLog.record(time, kind, source, detail): 4th positional.
        if len(call.args) >= 4:
            return call.args[3]
        return None

    def _scan_detail(self, ctx: LintContext, detail: ast.AST) -> Iterator:
        for sub in ast.walk(detail):
            if not isinstance(sub, ast.Call):
                continue
            name = call_name(sub)
            if name in self.NONDET:
                yield ctx.finding(
                    self,
                    sub,
                    f"non-deterministic {name}(...) in a recorded event detail; "
                    "details are hashed by trace_digest and must be replayable",
                )
            elif (
                isinstance(sub.func, ast.Name)
                and sub.func.id in ("repr", "str", "format")
                and sub.args
                and not isinstance(sub.args[0], ast.Constant)
            ):
                yield ctx.finding(
                    self,
                    sub,
                    f"pre-rendered event detail ({sub.func.id}(...)); record the "
                    "structure itself — canonical_detail renders it stably at "
                    "digest time",
                )

    @staticmethod
    def _is_digest_fn(fn: ast.AST) -> bool:
        if "digest" in fn.name:
            return True
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Call):
                name = call_name(sub)
                if name is not None and name.startswith("hashlib."):
                    return True
        return False

    def _scan_digest_fn(self, ctx: LintContext, fn: ast.AST) -> Iterator:
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Call) and call_name(sub) in self.NONDET:
                yield ctx.finding(
                    self,
                    sub,
                    f"non-deterministic {call_name(sub)}(...) inside digest-bearing "
                    f"function {fn.name}(); digests must be replayable",
                )


@register_rule
class RandomnessSeamRule(Rule):
    """RPR002 — crypto code draws randomness through the seam.

    The online protocol mode (PR 5/7) swaps preprocessed pool entries in
    for fresh randomness by installing a ``RandomnessSource``; any crypto
    code that calls ``rng.randrange``/``random.*`` directly bypasses the
    seam and silently falls out of pool-spend accounting.  The seam's own
    machinery is exempt by path: ``crypto/randomness.py`` (the seam and
    ``SampleSource``) and ``crypto/preprocessing.py`` (the offline phase
    is where pooled randomness legitimately originates).
    """

    id = "RPR002"
    name = "randomness-seam"
    invariant = (
        "crypto modules draw randomness via current_source(), not "
        "rng.*/random.* directly"
    )
    paths = ("crypto/*.py",)

    EXEMPT_FILES = ("crypto/randomness.py", "crypto/preprocessing.py")
    RNG_METHODS = {
        "random",
        "randrange",
        "randint",
        "getrandbits",
        "randbytes",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "uniform",
    }

    def check(self, ctx: LintContext) -> Iterator:
        if any(ctx.relpath.endswith(exempt) for exempt in self.EXEMPT_FILES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            direct_rng = (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "rng"
                and node.func.attr in self.RNG_METHODS
            )
            module_random = name.startswith(("random.", "secrets."))
            bare_random = name in ("Random", "SystemRandom")
            if direct_rng or module_random or bare_random:
                yield ctx.finding(
                    self,
                    node,
                    f"direct randomness draw {name}(...) in crypto code; route "
                    "through the RandomnessSource seam (current_source()) so "
                    "online mode can substitute preprocessed pool entries",
                )


@register_rule
class ArithNormalizationRule(Rule):
    """RPR003 — native arithmetic stays behind int() at crypto boundaries.

    PR 6's native tier computes on gmpy2 ``mpz`` inside tight loops (via
    ``ArithBackend.to_native``); an ``mpz`` escaping a public return
    changes pickles, JSON blobs and reprs between arithmetic tiers.  Any
    function that localizes natives must normalize what it returns with
    ``int(...)``.
    """

    id = "RPR003"
    name = "arith-normalization"
    invariant = (
        "crypto functions that compute on ArithBackend natives return "
        "int(...)-normalized values"
    )
    paths = ("crypto/*.py",)

    def check(self, ctx: LintContext) -> Iterator:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name == "to_native":
                continue  # the conversion seam itself returns natives
            if not self._uses_natives(node):
                continue
            tainted = self._tainted_names(node)
            for ret in ast.walk(node):
                if not isinstance(ret, ast.Return) or ret.value is None:
                    continue
                for culprit in self._unnormalized(ret.value, tainted):
                    yield ctx.finding(
                        self,
                        ret,
                        f"{node.name}() computes on ArithBackend natives but "
                        f"returns {culprit} without int(...) normalization — "
                        "a gmpy2 mpz would leak into pickles/blobs/digests",
                    )

    @staticmethod
    def _uses_natives(fn: ast.AST) -> bool:
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                if sub.func.attr == "to_native":
                    return True
        return False

    @staticmethod
    def _tainted_names(fn: ast.AST) -> Set[str]:
        """Names assigned from arithmetic/to_native results, propagated."""
        tainted: Set[str] = set()
        for sub in ast.walk(fn):
            value = None
            targets: List[ast.AST] = []
            if isinstance(sub, ast.Assign):
                value, targets = sub.value, sub.targets
            elif isinstance(sub, ast.AugAssign):
                value, targets = sub.value, [sub.target]
            if value is None:
                continue
            from_binop = isinstance(value, ast.BinOp)
            from_native = (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "to_native"
            )
            from_tainted = isinstance(value, ast.Name) and value.id in tainted
            if isinstance(sub, ast.AugAssign):
                from_binop = True  # x %= p is arithmetic regardless of value
            if from_binop or from_native or from_tainted:
                for target in targets:
                    if isinstance(target, ast.Name):
                        tainted.add(target.id)
        return tainted

    def _unnormalized(self, value: ast.AST, tainted: Set[str]) -> Iterator[str]:
        if isinstance(value, ast.Tuple):
            for element in value.elts:
                yield from self._unnormalized(element, tainted)
            return
        if isinstance(value, ast.BinOp):
            yield "an arithmetic expression"
        elif isinstance(value, ast.Name) and value.id in tainted:
            yield f"native-tainted name {value.id!r}"


@register_rule
class LockDisciplineRule(Rule):
    """RPR004 — registered guarded attributes mutate only under their lock.

    ``SchnorrGroup`` shares one instance across pool threads; its lazy
    fixed-base/encoding caches are guarded by ``_accel_lock`` (PR 6), and
    the ``Replenisher``'s arming state by ``_lock`` (PR 7).  A mutation
    outside the lock is a data race that presents as a once-a-month torn
    cache.  Constructors and unpickling hooks are exempt (no concurrent
    aliases exist yet).
    """

    id = "RPR004"
    name = "lock-discipline"
    invariant = (
        "registered guarded attributes (SchnorrGroup caches, Replenisher "
        "arming state) mutate only inside their lock's with-block"
    )
    paths = None

    #: class name -> (guarded attributes, lock attribute)
    GUARDED: Dict[str, Tuple[Set[str], str]] = {
        "SchnorrGroup": (
            {"_fb_state", "_encoding_cache", "_fb_calls", "_base_tables", "_base_evicted", "_base_logs"},
            "_accel_lock",
        ),
        "Replenisher": ({"armed", "burn_nonces", "burn_feldman", "_seen_sums"}, "_lock"),
    }
    EXEMPT_METHODS = {"__init__", "__post_init__", "__setstate__", "__new__"}
    MUTATORS = {"append", "add", "clear", "update", "pop", "popitem", "setdefault", "extend", "remove"}

    def check(self, ctx: LintContext) -> Iterator:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and node.name in self.GUARDED:
                attrs, lock = self.GUARDED[node.name]
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if item.name in self.EXEMPT_METHODS:
                            continue
                        yield from self._scan(ctx, item, attrs, lock, under=False)

    def _scan(self, ctx, node, attrs: Set[str], lock: str, under: bool) -> Iterator:
        for child in ast.iter_child_nodes(node):
            child_under = under
            if isinstance(child, ast.With):
                if any(self._is_lock(item.context_expr, lock) for item in child.items):
                    child_under = True
            if not child_under:
                yield from self._flag(ctx, child, attrs, lock)
            yield from self._scan(ctx, child, attrs, lock, child_under)

    @staticmethod
    def _is_lock(expr: ast.AST, lock: str) -> bool:
        if isinstance(expr, ast.Name) and expr.id == lock:
            return True
        return is_self_attr(expr, {lock}) is not None

    def _flag(self, ctx, node, attrs: Set[str], lock: str) -> Iterator:
        hit: Optional[str] = None
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    target = target.value
                hit = hit or is_self_attr(target, attrs)
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            call = node.value
            if call_name(call) == "object.__setattr__" and len(call.args) >= 2:
                key = call.args[1]
                if (
                    isinstance(call.args[0], ast.Name)
                    and call.args[0].id == "self"
                    and isinstance(key, ast.Constant)
                    and key.value in attrs
                ):
                    hit = key.value
            elif isinstance(call.func, ast.Attribute) and call.func.attr in self.MUTATORS:
                hit = is_self_attr(call.func.value, attrs)
        if hit:
            yield ctx.finding(
                self,
                node,
                f"guarded attribute {hit!r} mutated outside `with self.{lock}:`; "
                "concurrent pool threads share this object",
            )


@register_rule
class WorkerDegradationRule(Rule):
    """RPR005 — degradation paths warn; nothing swallows blindly.

    The runtime's contract (PR 4/5/7): every worker/attach/replenish
    failure degrades to a safe fallback *and says so* with a
    ``RuntimeWarning`` — a silent ``except: pass`` turns a mis-deployed
    material store into an unexplained 10x slowdown.  Bare ``except:``
    is flagged everywhere in ``src/`` (it catches ``KeyboardInterrupt``
    and masks worker shutdown).
    """

    id = "RPR005"
    name = "worker-degradation"
    invariant = (
        "runtime/ except-handlers never silently swallow (warn or re-raise); "
        "no bare except anywhere"
    )
    paths = None

    RUNTIME = ("runtime/*.py",)

    def check(self, ctx: LintContext) -> Iterator:
        in_runtime = any(path_matches(ctx.relpath, pat) for pat in self.RUNTIME)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.finding(
                    self,
                    node,
                    "bare `except:` catches KeyboardInterrupt/SystemExit and masks "
                    "worker shutdown; name the exceptions",
                )
                continue
            if in_runtime and self._swallows(node):
                caught = dotted_name(node.type) or "exception"
                yield ctx.finding(
                    self,
                    node,
                    f"handler swallows {caught} silently; degradation paths must "
                    "warnings.warn(..., RuntimeWarning) (or re-raise/narrow)",
                )

    @staticmethod
    def _swallows(handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring / ellipsis
            return False
        return True


@register_rule
class PickleSafetyRule(Rule):
    """RPR006 — multiprocessing submissions receive picklable callables.

    Process executors pickle the callable; a lambda or locally-defined
    function raises ``PicklingError`` only once a process pool is
    actually selected — i.e. in CI's process-smoke job, not in the inline
    default a dev box runs.  Submission sites in the runtime must pass
    module-level functions or ``functools.partial`` over them.
    """

    id = "RPR006"
    name = "pickle-safety"
    invariant = (
        "multiprocessing submission sites (map/submit/apply_async/"
        "initializer=) receive module-level callables, never lambdas or "
        "local defs"
    )
    paths = ("runtime/*.py",)

    SUBMIT_METHODS = {"map", "imap", "imap_unordered", "map_async", "starmap", "apply_async", "submit"}
    CALLABLE_KWARGS = {"initializer", "target"}

    def check(self, ctx: LintContext) -> Iterator:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local_defs = {
                sub.name
                for sub in ast.walk(node)
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub is not node
            }
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                yield from self._check_call(ctx, call, local_defs)

    def _check_call(self, ctx, call: ast.Call, local_defs: Set[str]) -> Iterator:
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in self.SUBMIT_METHODS
            and call.args
        ):
            yield from self._flag_callable(ctx, call.args[0], f".{call.func.attr}(...)", local_defs)
        name = call_name(call)
        if name in ("functools.partial", "partial") and call.args:
            yield from self._flag_callable(ctx, call.args[0], "functools.partial(...)", local_defs)
        for keyword in call.keywords:
            if keyword.arg == "initializer" or (
                # target= only crosses a pickle boundary for Process;
                # threading.Thread targets run in-process and may close
                # over anything.
                keyword.arg == "target"
                and name is not None
                and name.split(".")[-1] == "Process"
            ):
                yield from self._flag_callable(
                    ctx, keyword.value, f"{keyword.arg}= of {name or 'a call'}", local_defs
                )

    def _flag_callable(self, ctx, arg: ast.AST, where: str, local_defs: Set[str]) -> Iterator:
        if isinstance(arg, ast.Lambda):
            yield ctx.finding(
                self,
                arg,
                f"lambda passed to {where}; lambdas do not pickle — use a "
                "module-level function or functools.partial over one",
            )
        elif isinstance(arg, ast.Name) and arg.id in local_defs:
            yield ctx.finding(
                self,
                arg,
                f"locally-defined function {arg.id!r} passed to {where}; local "
                "defs do not pickle — hoist it to module level",
            )


@register_rule
class WorkerSupervisionRule(Rule):
    """RPR007 — no unbounded blocking waits on worker machinery.

    Motivated by this PR's tentpole: the old ``pool.map`` fan-out had no
    per-task timeout, so one SIGKILL-ed or hung worker stalled the whole
    sweep forever and discarded every finished result.  In ``runtime/``,
    waiting on pools, executors, workers or async results must be
    bounded (``.get(timeout=...)``, ``.join(timeout)``) or go through
    the :class:`~repro.runtime.supervisor.Supervisor`; the few sites
    where an unbounded wait is provably safe (thread executors,
    post-``terminate()`` reaping) carry ``# repro: allow[RPR007]``.

    The same invariant covers coroutines, should ``runtime/`` ever
    await anything: every ``asyncio.wait_for``/``asyncio.wait`` must
    carry a concrete (non-``None``) timeout, and an awaited zero-arg
    queue ``.get()`` counts as bounded only when it is the wrapped first
    argument of such a bounded ``wait_for``.
    """

    id = "RPR007"
    name = "worker-supervision"
    invariant = (
        "runtime/ never blocks unboundedly on worker machinery: pool/"
        "executor .map goes through the Supervisor, .get()/.join() carry "
        "a timeout, asyncio waits carry a concrete timeout"
    )
    paths = ("runtime/*.py",)

    #: Blocking fan-out methods on a pool/executor receiver — these hold
    #: the caller until *every* task returns, with no timeout parameter
    #: at all, so a single lost worker is unrecoverable.
    BLOCKING_MAPS = {"map", "imap", "imap_unordered", "starmap", "map_async"}
    #: Receiver name fragments that identify worker machinery (matched
    #: case-insensitively against the dotted receiver name) — scoping to
    #: these keeps dict-like ``.map``-free objects out of scope.
    WORKER_RECEIVERS = ("pool", "executor", "worker", "process", "thread", "result")
    #: asyncio wait primitives whose ``timeout`` defaults to ``None`` —
    #: in runtime/ they must be called with an explicit bound.
    ASYNC_WAITS = ("wait_for", "wait")

    def check(self, ctx: LintContext) -> Iterator:
        bounded_gets = self._bounded_wait_for_args(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            wait_name = self._async_wait_name(node)
            if wait_name is not None:
                if not self._async_wait_bounded(node, wait_name):
                    yield ctx.finding(
                        self,
                        node,
                        f"asyncio.{wait_name}() without a concrete timeout "
                        "suspends forever on a coroutine that may never "
                        "resolve; pass timeout=",
                    )
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            method = node.func.attr
            has_timeout = any(kw.arg == "timeout" for kw in node.keywords)
            if method in self.BLOCKING_MAPS and self._worker_receiver(node.func.value):
                yield ctx.finding(
                    self,
                    node,
                    f".{method}() blocks until every task returns — one dead "
                    "worker stalls the sweep forever; dispatch chunks through "
                    "the Supervisor (apply_async + bounded get) instead",
                )
            elif (
                method == "get"
                and not node.args
                and not node.keywords
                and node not in bounded_gets
            ):
                # dict/env .get always takes a key argument, so a zero-arg
                # .get() is an AsyncResult/queue wait — and unbounded,
                # unless a bounded asyncio.wait_for wraps it.
                yield ctx.finding(
                    self,
                    node,
                    ".get() without a timeout waits forever on a result a dead "
                    "worker will never deliver; pass timeout= (or wrap it in "
                    "a bounded asyncio.wait_for)",
                )
            elif (
                method == "join"
                and not node.args
                and not has_timeout
                and self._worker_receiver(node.func.value)
            ):
                # str.join takes its iterable argument, so a zero-arg
                # .join() on worker machinery is a blocking reap.
                yield ctx.finding(
                    self,
                    node,
                    ".join() without a timeout can hang on a wedged worker; "
                    "pass a timeout (and check is_alive() after) or "
                    "terminate() first",
                )

    def _worker_receiver(self, node: ast.AST) -> bool:
        name = dotted_name(node)
        if name is None:
            return False
        lowered = name.lower()
        return any(fragment in lowered for fragment in self.WORKER_RECEIVERS)

    def _async_wait_name(self, node: ast.Call) -> Optional[str]:
        """``wait_for``/``wait`` if this call is an asyncio wait primitive.

        Matches the qualified form (``asyncio.wait_for``) and the bare
        import (``from asyncio import wait_for``); a bare ``wait`` name
        also counts — in runtime/ an unbounded ``wait()`` is suspect no
        matter which module it came from.
        """
        name = dotted_name(node.func)
        if name is None:
            return None
        head, _, tail = name.rpartition(".")
        if tail not in self.ASYNC_WAITS:
            return None
        if head and head.split(".")[-1] != "asyncio":
            return None
        return tail

    @staticmethod
    def _is_none(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and node.value is None

    def _async_wait_bounded(self, node: ast.Call, wait_name: str) -> bool:
        for keyword in node.keywords:
            if keyword.arg == "timeout":
                return not self._is_none(keyword.value)
        if wait_name == "wait_for" and len(node.args) >= 2:
            # wait_for(aw, timeout) — the bound may be positional.
            return not self._is_none(node.args[1])
        return False

    def _bounded_wait_for_args(self, tree: ast.AST) -> Set[ast.AST]:
        """First arguments of every *bounded* ``asyncio.wait_for`` call.

        A zero-arg queue ``.get()`` appearing there is the event-driven
        idiom for a supervised wait and must not trip the
        unbounded-``.get()`` arm.
        """
        wrapped: Set[ast.AST] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if self._async_wait_name(node) != "wait_for":
                continue
            if node.args and self._async_wait_bounded(node, "wait_for"):
                wrapped.add(node.args[0])
        return wrapped
