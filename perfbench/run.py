#!/usr/bin/env python3
"""The repo's benchmark: one workload, timed end to end, every response checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload vector-sweep --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``vector-sweep`` and ``replay`` are
closed loops of one caller on a warm in-process ``Session`` (run in a
child process, ``program.py``); ``serve-mixed`` is an open loop of
Poisson arrivals at three offered rates against a
``python -m repro serve --workers 1`` subprocess.  The metrics are
defined at :data:`END_TO_END`.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
separate traced pass and prints the per-layer metrics.  Either way
the last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A response counts as failed when it raises, times out, has an
unexpected status, or fails ``checks.py`` (pinned digest, schema,
value ranges, the ``k + 2`` bound, pooled == inline).  The program is
built from ``src/`` of the checkout; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import harness

#: (name, unit) of every end-to-end metric, in output order.  Times
#: are at the reference host speed (:func:`harness.calibrate`); a
#: failed request's latency counts as infinite.
#:
#: ``setup_s``         spawn of the program process (closed loops) or
#:                     server (serve-mixed) to the end of its warm-up;
#:                     median of :data:`SETUP_REPEATS` set-ups.
#: ``peak_rss_mb``     peak summed RSS of the program's processes.
#: ``trials_per_s``    trials of correct responses per second of the
#:                     program's busy time: the caller's request time
#:                     (closed loops), the server's CPU time (serve).
#: ``request_p50_ms``  median request latency (serve: from due time).
#: ``request_tail_ms`` latency at the workload's :data:`TAIL_Q`.
#: ``sustained_rps``   correct requests per second of the same busy
#:                     time: the rate one busy core sustains.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("trials_per_s", "trials/s"),
    ("request_p50_ms", "ms"),
    ("request_tail_ms", "ms"),
    ("sustained_rps", "req/s"),
)
#: Set-up samples per run (the reported ``setup_s`` is their median).
SETUP_REPEATS = 3
#: Fixed tail percentile per workload, chosen at the seed commit: the
#: highest ladder rung with >= 10 samples beyond it at a closed loop's
#: request count; serve-mixed's p99 (~24 samples beyond) swung 0.2
#: IQR/median between seeds, its p95 0.06, so it reports p95.  A run
#: with too few samples falls back to :func:`harness.tail_rank`.
TAIL_Q = {"vector-sweep": 0.9, "replay": 0.9, "serve-mixed": 0.95}
#: Slack per child process beyond its measuring time.
_CHILD_SLACK_S = 120.0


def _log(message: str) -> None:
    print(message, flush=True)


def _tail(latencies, workload: str) -> tuple[float, float]:
    q = TAIL_Q[workload]
    if len(latencies) * (1.0 - q) < 10:
        q = harness.tail_rank(len(latencies))
    return q, harness.percentile(latencies, q)


# ----------------------------------------------------------------------
# Closed loops: vector-sweep, replay
# ----------------------------------------------------------------------
def _spawn_program(args, mode: str, extra=()):
    cmd = [sys.executable, os.path.join(harness.HERE, "program.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, *extra]
    scale = harness.scale_now()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=harness.child_env(), cwd=harness.ROOT)
    line = proc.stdout.readline()
    setup = (time.perf_counter() - start) * scale
    if line.strip() != "READY":
        _reap(proc)
        raise RuntimeError(f"program failed during set-up: {line!r}")
    return proc, setup


def _reap(proc, timeout: float = _CHILD_SLACK_S) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        raise RuntimeError("program timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"program exited {proc.returncode}")
    return out


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def _check_closed(workload: str, result: dict, pins: dict) -> list:
    """Per-request problems (``None`` when correct), in request order."""
    import checks
    import workloads

    catalogue = workloads.closed_catalogue(workload)
    pinned = pins[workload]
    verdicts = {}
    problems = []
    for index, digest in zip(result["ids"], result["digests"]):
        entry = catalogue[index]
        key = (index, digest)
        if key not in verdicts:
            verdicts[key] = checks.check_closed(
                entry, result["bodies"][digest], pinned.get(entry["id"]))
        problems.append(verdicts[key])
    for position, inline_digest in result.get("inline_checks", []):
        if inline_digest != result["digests"][position]:
            problems[position] = "pooled response != inline recompute"
    return problems


def run_closed(args, pins: dict) -> dict:
    import workloads

    setups = []
    for _ in range(SETUP_REPEATS - 1):
        proc, setup = _spawn_program(args, "setup")
        _reap(proc)
        setups.append(setup)
    proc, setup = _spawn_program(args, "run")
    setups.append(setup)
    sampler = harness.RssSampler(proc.pid)
    try:
        out = _reap(proc, args.seconds + _CHILD_SLACK_S)
    finally:
        peak = sampler.stop()
    result = _last_json(out)
    problems = _check_closed(args.workload, result, pins)
    catalogue = workloads.closed_catalogue(args.workload)
    raw = result["latencies_s"]
    at_reference = harness.scaled(raw, result["calibration_s"])
    latencies = [math.inf if problem else latency
                 for latency, problem in zip(at_reference, problems)]
    q, tail = _tail(latencies, args.workload)
    wall = result["wall_s"]
    busy = sum(at_reference)
    trials = sum(
        catalogue[index]["args"]["trials"]
        for index, problem in zip(result["ids"], problems) if problem is None
    )
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
        "trials_per_s": trials / busy,
        "request_p50_ms": harness.percentile(latencies, 0.5) * 1e3,
        "request_tail_ms": tail * 1e3,
        "sustained_rps": (len(latencies) - sum(map(bool, problems))) / busy,
    }
    _log(f"# {args.workload}: {len(latencies)} requests in {wall:.2f} s, "
         f"tail = p{q * 100:g} of {len(latencies)} samples; host speed "
         f"{busy / sum(raw):.3f} x reference; raw "
         f"p50={harness.percentile(raw, 0.5) * 1e3:.1f} ms "
         f"tail={harness.percentile(raw, q) * 1e3:.1f} ms")
    for kind in sorted({catalogue[i]["kind"] for i in result["ids"]}):
        mine = [lat for i, lat in zip(result["ids"], latencies)
                if catalogue[i]["kind"] == kind]
        _log(f"#   {kind}: n={len(mine)} "
             f"p50={harness.percentile(mine, 0.5) * 1e3:.1f} ms")
    _log(f"#   setup samples (s): {', '.join(f'{s:.3f}' for s in setups)}")
    return _result(problems, metrics, END_TO_END)


def trace_closed(args, pins: dict) -> dict:
    import perlayer

    trace_out = os.path.join(harness.WORK, f"trace-{args.workload}.ndjson")
    proc, _setup = _spawn_program(args, "trace",
                                  ("--trace-out", trace_out))
    out = _reap(proc, 4 * args.seconds + _CHILD_SLACK_S)
    trace = _last_json(out)
    untraced = trace["untraced"]
    problems = _check_closed(args.workload, untraced, pins)
    for name in ("pooled", "inline"):
        if name in trace and trace[name]["digests"] != untraced["digests"]:
            problems.append(f"{name} traced responses differ from untraced")
    metrics, inner = perlayer.closed_layers(trace)
    _print_layers(args.workload, metrics, inner, per=trace["requests"])
    return _result(problems, metrics, perlayer.PER_LAYER)


# ----------------------------------------------------------------------
# Open loop: serve-mixed
# ----------------------------------------------------------------------
def _boot_server(traced=False, trace_out=None):
    """A warmed server; ``(proc, port, seconds from spawn to warm)``."""
    import serve_load
    import workloads

    scale = harness.scale_now(cpu=harness.SERVER_CPU)
    start = time.perf_counter()
    proc, port = serve_load.start_server(harness.child_env(), traced=traced,
                                         trace_out=trace_out,
                                         cwd=harness.ROOT,
                                         cpu=harness.SERVER_CPU)
    try:
        serve_load.warm_up(port, workloads.serve_catalogue())
    except BaseException:
        serve_load.stop_server(proc)
        raise
    return proc, port, (time.perf_counter() - start) * scale


def _pin_generator() -> None:
    """Keep this process (the generator) off the server's CPU."""
    if harness.SERVER_CPU is not None:
        os.sched_setaffinity(0, os.sched_getaffinity(0)
                             - {harness.SERVER_CPU})


def _serve_phases(proc, port, seed, seconds, pins):
    """Run the open-loop phases; ``(phases, peak RSS in MB)``.

    A :class:`harness.Prober` on the server's CPU gives the host speed
    throughout.  Each request's latency is scaled by the probes within
    a second of its due time, and so is each 20 ms step of the server's
    CPU time: a phase's ``cpu_s`` is its server CPU seconds at
    reference speed.
    """
    import serve_load
    import workloads

    catalogue = workloads.serve_catalogue()
    schedule = workloads.serve_schedule(seed, seconds / len(
        workloads.SERVE_RATES))
    prober = harness.Prober(harness.child_env(), harness.SERVER_CPU)
    sampler = harness.RssSampler(proc.pid)
    try:
        time.sleep(1.0)  # probes on both sides of every request
        phases = []
        for phase in schedule:
            start = time.time()
            done = serve_load.run_phase(port, phase, catalogue,
                                        pins["serve-mixed"])
            phases.append({**done, "span": (start, time.time())})
        time.sleep(1.0)
    finally:
        peak = sampler.stop()
        prober.stop()

    steps = list(zip(sampler.cpu, sampler.cpu[1:]))
    for phase in phases:
        start, end = phase["span"]
        mine = [(t1, c1 - c0) for (_t0, c0), (t1, c1) in steps
                if start < t1 <= end + sampler.interval]
        phase["cpu_raw_s"] = sum(used for _t, used in mine)
        phase["cpu_s"] = sum(used * prober.scale_at(t)
                             for t, used in mine if used)
        phase["scale"] = prober.scale_at((start + end) / 2,
                                         (end - start) / 2)
        for r in phase["records"]:
            r["raw_latency_s"] = r["latency_s"]
            r["latency_s"] *= prober.scale_at(r["due_epoch"])
    return phases, peak


def _phase_summary(phase) -> dict:
    import workloads

    records = phase["records"]
    latencies = [math.inf if r["problem"] else r["latency_s"]
                 for r in records]
    q = harness.tail_rank(len(latencies))
    tail = harness.percentile(latencies, q) * 1e3
    backlog = sum(1 for r in records if r["sent_s"] > phase["seconds"])
    return {
        "name": phase["name"], "rate": phase["rate"], "n": len(records),
        "p50_ms": harness.percentile(latencies, 0.5) * 1e3,
        "tail_q": q, "tail_ms": tail, "backlog": backlog,
        "busy": phase["cpu_raw_s"] / phase["seconds"],
        "meets": tail <= workloads.SERVE_LIMIT_MS
        and backlog <= workloads.SERVE_BACKLOG_SHARE * len(records),
        "lag_ms": statistics.fmean(r["lag_s"] for r in records) * 1e3,
        "scale": phase["scale"],
    }


def run_serve(args, pins: dict) -> dict:
    import serve_load
    import workloads

    _pin_generator()
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        proc, _port, setup = _boot_server()
        serve_load.stop_server(proc)
        setups.append(setup)
    proc, port, setup = _boot_server()
    setups.append(setup)
    try:
        phases, peak = _serve_phases(proc, port, args.seed, args.seconds,
                                     pins)
    finally:
        serve_load.stop_server(proc)
    records = [r for phase in phases for r in phase["records"]]
    problems = [r["problem"] for r in records]
    summaries = [_phase_summary(phase) for phase in phases]
    latencies = [math.inf if r["problem"] else r["latency_s"]
                 for r in records]
    q, tail = _tail(latencies, args.workload)
    cpu = sum(phase["cpu_s"] for phase in phases)
    cpu_raw = sum(phase["cpu_raw_s"] for phase in phases)
    ok = sum(1 for problem in problems if problem is None)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
        "trials_per_s": sum(r["trials"] for r in records) / cpu,
        "request_p50_ms": harness.percentile(latencies, 0.5) * 1e3,
        "request_tail_ms": tail * 1e3,
        "sustained_rps": ok / cpu,
    }
    raw = [r["raw_latency_s"] for r in records]
    _log(f"# serve-mixed: {len(records)} requests, tail = p{q * 100:g}; "
         f"server CPU {cpu_raw:.3f} s raw, {cpu:.3f} s at reference speed "
         f"(pinned to CPU {harness.SERVER_CPU}); "
         f"raw p50={harness.percentile(raw, 0.5) * 1e3:.2f} ms "
         f"tail={harness.percentile(raw, q) * 1e3:.2f} ms")
    for s in summaries:
        _log(f"#   {s['name']:>4} {s['rate']:6.1f} rps offered: "
             f"n={s['n']} p50={s['p50_ms']:.2f} ms "
             f"tail(p{s['tail_q'] * 100:g})={s['tail_ms']:.2f} ms "
             f"backlog={s['backlog']} lag={s['lag_ms']:.2f} ms "
             f"server busy {s['busy']:.0%} "
             f"host speed {s['scale']:.3f} x reference; "
             f"{'meets' if s['meets'] else 'MISSES'} the "
             f"{workloads.SERVE_LIMIT_MS:g} ms limit")
    _log(f"#   setup samples (s): {', '.join(f'{s:.3f}' for s in setups)}")
    return _result(problems, metrics, END_TO_END)


def trace_serve(args, pins: dict) -> dict:
    import perlayer
    import serve_load

    # untraced pass: latency baseline and the generator's own figures
    _pin_generator()
    proc, port, _setup = _boot_server()
    try:
        plain, _peak = _serve_phases(proc, port, args.seed, args.seconds,
                                     pins)
    finally:
        serve_load.stop_server(proc)
    trace_out = os.path.join(harness.WORK, "trace-serve-mixed.ndjson")
    proc, port, _setup = _boot_server(traced=True, trace_out=trace_out)
    try:
        proc.send_signal(signal.SIGUSR1)  # drop the warm-up intervals
        time.sleep(0.2)
        before = serve_load.server_counters(port)
        traced, _peak = _serve_phases(proc, port, args.seed, args.seconds,
                                      pins)
        after = serve_load.server_counters(port)
    finally:
        out = serve_load.stop_server(proc)
    server = _last_json(out)
    plain_records = [r for phase in plain for r in phase["records"]]
    traced_records = [r for phase in traced for r in phase["records"]]
    problems = [r["problem"] for r in plain_records + traced_records]
    summaries = [_phase_summary(phase) for phase in plain]

    def mean_latency(records):
        return statistics.fmean(r["latency_s"] for r in records)

    metrics, stats = perlayer.serve_layers(
        server, before, after, requests=len(traced_records),
        client_s=sum(r["done_s"] - r["sent_s"] for r in traced_records),
        traced_latency_s=mean_latency(traced_records),
        untraced_latency_s=mean_latency(plain_records),
        lag_ms=statistics.fmean(r["lag_s"] for r in plain_records) * 1e3,
        backlog=max(s["backlog"] for s in summaries),
    )
    _print_layers(args.workload, metrics, stats, per=len(traced_records))
    return _result(problems, metrics, perlayer.PER_LAYER)


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _print_layers(workload: str, metrics: dict, stats: dict, per: int):
    """The per-layer self-time table, per request kind where there are kinds."""
    import perlayer

    kinds = [None] + sorted({k for (k, _n, _p) in stats if k is not None})
    for kind in kinds:
        split = perlayer.layer_split(stats, kind)
        total = sum(split.values()) or 1.0
        _log(f"# {workload} layer split, "
             + (f"{kind} requests" if kind else "all requests")
             + ": self-time share")
        for layer, seconds in sorted(split.items(), key=lambda kv: -kv[1]):
            share = seconds / total
            if share < 0.001:
                continue
            quoted = perlayer.CPROFILE_SHARES.get((kind, layer))
            note = f"   (cProfile quote {quoted:.0%})" if quoted else ""
            _log(f"#   {layer:<36} {share:7.1%}{note}")
    _log(f"# tracing overhead: {metrics['tracing.overhead_s'] * 1e3:.2f} "
         f"ms/request ({metrics['tracing.overhead_ratio']:.1%}); "
         f"{per} requests traced")


def _result(problems, metrics: dict, names) -> dict:
    failed = sum(1 for problem in problems if problem)
    for problem in sorted({p for p in problems if p})[:5]:
        print(f"FAILED: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("vector-sweep", "replay", "serve-mixed"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not harness.program_present():
        print(f"no program to measure: {harness.SRC}/repro is missing",
              file=sys.stderr)
        return 2
    import checks

    pins = checks.load_pins()
    runner = {
        ("vector-sweep", 0): run_closed, ("replay", 0): run_closed,
        ("serve-mixed", 0): run_serve,
        ("vector-sweep", 1): trace_closed, ("replay", 1): trace_closed,
        ("serve-mixed", 1): trace_serve,
    }[(args.workload, args.trace)]
    try:
        result = runner(args, pins)
    finally:
        shutil.rmtree(os.path.join(harness.WORK, "tmp"), ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
