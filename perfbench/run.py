"""Benchmark of the UC simultaneous-broadcast reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sbc_composed_n8 --seed 1 --seconds 50 --trace 0

Workloads (``BENCHMARK.json`` lists the two the benchmark runs, and why):

* ``sbc_composed_n8``  the Corollary 1 stack ΠSBC → ΠTLE → ΠFBC → FUBC, n=8,
  Φ=5, Δ=3;
* ``sweep_vote_process`` ``SessionPool`` process sweep of 4-voter trials
  spending shared online material.

Two more run the same way and isolate one layer each, but stay out of the
benchmark: with four workloads the run-time budget allows runs too short
to be steady on a noisy host.

* ``sbc_hybrid_n16``   ΠSBC over ideal FUBC/FTLE/FRO, n=16 (mostly ``uc``);
* ``vote_hybrid_v8``   ΠSTVS over FSBC, 8 voters, 2 authorities, yes/no
  (mostly modexp).

``--trace 0`` measures the end-to-end metrics with no tracing.  The time
metric is the fastest verified session of the run: on a shared 2-vCPU
host whose speed switches by about 1.6x for seconds to a minute at a
time, the throughput, median and tail of a run spread by up to 0.4 of
their value between runs, while the fastest session stays within a few
percent as long as the run sees the host at full speed once (hence runs
of 50 s: slow stretches rarely last longer).  Those three are still
printed, in the detail record.  Set-up time is the
median over six fresh processes that each import, warm up and run one
untimed session (the sweep: build its material and run a warm-up sweep).
``--trace 1`` runs the same sessions untraced and then traced, and reports
the per-layer split per session (see ``perfbench/tracing.py``).

Stdout ends with a detail record (host fingerprint, seed, throughput,
latency percentiles, self-checks) and then one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only if
every output check and the exact-repeat self-check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "perfbench", "results")
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60


def declared_metrics(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def probe_setup(workload: str, seed: int, seconds: float) -> float:
    """Seconds from starting a fresh process to its first timed session."""
    command = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--setup-probe",
    ]
    start = time.perf_counter()
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PROBE_TIMEOUT_S, child.kill)
    watchdog.start()
    try:
        ready = child.stdout.readline().strip() == "ready"
        elapsed = time.perf_counter() - start
        child.stdout.read()
        child.wait()
    finally:
        watchdog.cancel()
        if child.poll() is None:
            child.kill()
            child.wait()
    if not ready or child.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {child.returncode})")
    return elapsed


def host(seed: int) -> dict:
    from perfbench.workloads import NPROC
    from repro.crypto.groups import get_arith_backend

    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "arith": get_arith_backend().name,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import workloads

    table = workloads(RESULTS)
    if args.workload not in table:
        print(f"unknown workload {args.workload!r}; known: {', '.join(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]
    try:
        workload.setup(args.seed, args.seconds)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            result = workload.trace(args.seed, args.seconds, RESULTS)
        else:
            # Half the probes run before the timed loop and half after it, so
            # that they sample the host over the whole run.
            probes = [probe_setup(args.workload, args.seed, args.seconds) for _ in range(SETUP_PROBES // 2)]
            result = workload.measure(args.seed, args.seconds)
            probes += [probe_setup(args.workload, args.seed, args.seconds) for _ in range(SETUP_PROBES // 2)]
            result.metrics["setup_s"] = statistics.median(probes)
            result.detail["setup_probes_s"] = [round(p, 4) for p in probes]
    finally:
        workload.teardown()

    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    undeclared = sorted(set(result.metrics) ^ set(units))
    if undeclared:
        print(f"metrics measured and declared differ: {', '.join(undeclared)}", file=sys.stderr)
        return 2
    result.detail.update({
        "workload": args.workload,
        "host": host(args.seed),
        "failed_frac": result.failed / max(result.attempted, 1),
        "self_check": result.self_check or "ok",
    })
    print(json.dumps(result.detail, default=str))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
