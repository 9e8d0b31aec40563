"""The closed-loop caller: one process driving a warm ``Session``.

Run by ``run.py`` as its own process (so the harness's interpreter
never shares a lock or a heap with the program)::

    python perfbench/program.py --workload vector-sweep --seed 0 \
        --seconds 20 --mode run

Modes:

``setup``  import, build the session, warm it up, print ``READY``, exit.
``run``    setup, then time requests for ``--seconds`` (closed loop,
           one caller); a replay run also recomputes sampled responses
           on an inline ``Session(workers=1)``.
``trace``  setup, an untraced pass of ``--seconds``, then the same
           requests again with the layer wrappers installed (and, for a
           pooled session, once more on an inline session so the
           wrappers see the inner layers).  Both passes probe the host
           speed before every request, so their times compare.
``pin``    print the digest of every catalogue response (pooled and
           inline) -- the source of ``pins.json``.

The last stdout line is one JSON object with the results.  Each request
is timed from the ``Session`` verb call to the JSON text ``.to_json()``
returns.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time

import harness
import workloads


def _call(session, entry) -> str:
    verb = getattr(session, entry["verb"])
    return verb(entry["spec"], **entry["args"]).to_json()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _setup(workload: str, workers: int):
    from repro.core.session import Session

    session = Session(workers=workers)
    for entry in workloads.closed_catalogue(workload):
        _call(session, entry)
    return session


def _timed_pass(session, catalogue, sequence, *, seconds=None, store=None,
                calibration=None):
    """Run ``sequence`` (or as much as fits in ``seconds``); per-request rows.

    With a ``calibration`` list, the host-speed probe runs in this
    process before every request and once after the last (outside any
    request's timing) and its seconds are appended: the probe must
    share the caller's CPU to track it.
    """
    rows = []
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds
    for index in sequence:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        entry = catalogue[index]
        if calibration is not None:
            calibration.append(harness.calibrate())
        t0 = time.time_ns()
        text = _call(session, entry)
        t1 = time.time_ns()
        if store is not None:
            store.add("request", t0, t1, entry["kind"])
        rows.append((index, (t1 - t0) / 1e9, text))
    if calibration is not None:
        calibration.append(harness.calibrate())
    return rows, time.perf_counter() - start


def _summary(rows, wall_s: float) -> dict:
    bodies = {}
    digests = []
    for _index, _latency, text in rows:
        digest = _digest(text)
        bodies.setdefault(digest, text)
        digests.append(digest)
    return {
        "ids": [row[0] for row in rows],
        "latencies_s": [row[1] for row in rows],
        "digests": digests,
        "bodies": bodies,
        "wall_s": wall_s,
    }


def _traced(session, catalogue, sequence, store) -> dict:
    """One traced pass over ``sequence``; the store starts empty."""
    import layers

    store.clear()
    before_reg = layers.registry_totals()
    before_cache = session.cache_stats()
    calibration = []
    rows, _wall = _timed_pass(session, catalogue, sequence, store=store,
                              calibration=calibration)
    after_cache = session.cache_stats()
    after_reg = layers.registry_totals()
    return {
        "stats": layers.serializable(layers.aggregate(store.events)),
        "registry": {k: after_reg[k] - before_reg[k] for k in after_reg},
        "cache": {k: after_cache[k] - before_cache.get(k, 0)
                  for k in after_cache},
        "requests": len(rows),
        "latencies_s": [row[1] for row in rows],
        "calibration_s": calibration,
        "digests": [_digest(row[2]) for row in rows],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.CLOSED_WORKERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", default="run",
                        choices=("setup", "run", "trace", "pin"))
    parser.add_argument("--trace-out", default=None,
                        help="NDJSON file for the traced run's intervals")
    args = parser.parse_args(argv)

    workers = workloads.CLOSED_WORKERS[args.workload]
    catalogue = workloads.closed_catalogue(args.workload)
    if args.mode == "pin":
        from repro.core.session import Session

        with Session(workers=workers) as pooled, Session(workers=1) as inline:
            out = {}
            for entry in catalogue:
                out[entry["id"]] = [_digest(_call(pooled, entry)),
                                    _digest(_call(inline, entry))]
        print(json.dumps(out, sort_keys=True))
        return 0

    session = _setup(args.workload, workers)
    print("READY", flush=True)
    if args.mode == "setup":
        session.close()
        return 0
    sequence = workloads.closed_sequence(args.workload, args.seed, 20_000)
    calibration = []
    rows, wall = _timed_pass(session, catalogue, sequence,
                             seconds=args.seconds, calibration=calibration)
    result = _summary(rows, wall)
    result["calibration_s"] = calibration
    if args.mode == "run":
        if workers > 1:
            # a pooled response must equal an inline recompute
            from repro.core.session import Session

            rng = random.Random(f"inline:{args.workload}:{args.seed}")
            picks = sorted(rng.sample(range(len(rows)), min(2, len(rows))))
            with Session(workers=1) as inline:
                result["inline_checks"] = [
                    [pos, _digest(_call(inline, catalogue[rows[pos][0]]))]
                    for pos in picks
                ]
        session.close()
        print(json.dumps(result, sort_keys=True))
        return 0

    # trace: replay the untraced pass's requests with the wrappers on
    import layers
    from repro.obs.trace import disable_tracing

    done = [row[0] for row in rows]
    traced = {"untraced": result, "requests": len(done)}
    store = layers.EventStore()
    layers.install(store)
    traced["pooled"] = _traced(session, catalogue, done, store)
    session.close()
    if args.trace_out:
        store.dump(args.trace_out)
    if workers > 1:
        from repro.core.session import Session

        with Session(workers=1) as inline:
            for entry in catalogue:  # warm-up
                _call(inline, entry)
            traced["inline"] = _traced(inline, catalogue, done, store)
        if args.trace_out:
            store.dump(args.trace_out.replace(".ndjson", ".inline.ndjson"))
    disable_tracing()
    print(json.dumps(traced, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
