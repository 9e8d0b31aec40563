"""Workload definitions: request catalogues and seeded request sequences.

Every request the benchmark sends is drawn from a small fixed
*catalogue* per workload, so the SHA-256 of every response body can be
pinned once (``pins.json``) and checked on every seed.  The workload
seed chooses the order of catalogue entries and, for ``serve-mixed``,
the Poisson arrival times; the program only ever sees the generated
requests.

Three workloads:

* ``vector-sweep`` -- closed loop, one caller, ``Session(workers=1)``,
  alternating vectorized ``connectivity`` and ``paths`` sweeps;
* ``replay`` -- closed loop, one caller, ``Session(workers=2)``,
  alternating a ``temporal_sweep`` and a batched ``full`` sweep;
* ``serve-mixed`` -- open loop of Poisson arrivals at three offered
  rates against a ``python -m repro serve --workers 1`` subprocess.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("vector-sweep", "replay", "serve-mixed")

#: Catalogue entries per closed-loop request kind (each a distinct
#: sweep ``seed``); warm-up runs the whole catalogue once.
CLOSED_CATALOGUE_SEEDS = 8

#: Closed-loop request kinds: (kind, verb, spec, verb keyword arguments).
VECTOR_KINDS = (
    (
        "connectivity",
        "resilience_sweep",
        "sk(6,3,2)",
        {"model": "link", "faults": 2, "trials": 1000,
         "metrics": "connectivity", "backend": "vectorized"},
    ),
    (
        "paths",
        "resilience_sweep",
        "sii(4,4,60)",
        {"model": "coupler", "faults": 2, "trials": 70,
         "metrics": "paths", "backend": "vectorized"},
    ),
)
REPLAY_KINDS = (
    (
        "temporal",
        "temporal_sweep",
        "sk(2,2,2)",
        {"faults": 3, "mtbf": 80.0, "mttr": 20.0, "horizon": 1000,
         "trials": 4, "metrics": "connectivity"},
    ),
    (
        "full",
        "resilience_sweep",
        "sk(2,2,2)",
        {"model": "coupler", "faults": 1, "trials": 24,
         "metrics": "full", "backend": "batched"},
    ),
)
#: ``Session(workers=...)`` of each closed-loop workload.
CLOSED_WORKERS = {"vector-sweep": 1, "replay": 2}

# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
#: 49 POPS specs against the server's 32 cache slots: a working set
#: larger than ``SpecCache``, so sweeps miss, spill and reload.
SERVE_SPECS = tuple(
    f"pops({t},{g})" for t in range(4, 11) for g in range(4, 11)
)
#: Offered rates (requests/s) of the three open-loop phases.
SERVE_RATES = (("low", 25.0), ("mid", 50.0), ("high", 100.0))
#: Tail latency limit (ms) of the serve tier.  Each run reports per
#: phase whether the tail meets it without a growing queue: a backlog
#: (requests not yet sent when the phase ends) of at most
#: ``SERVE_BACKLOG_SHARE`` of its requests.  The rates sit below the
#: knee, where runs were bimodal, so every phase should meet it.
SERVE_LIMIT_MS = 50.0
SERVE_BACKLOG_SHARE = 0.01
#: Sweep ``seed`` values per spec in the catalogue.
SERVE_SWEEP_SEEDS = 4
SERVE_TEMPORAL_SEEDS = 2
SERVE_SWEEP_ARGS = {"model": "coupler", "faults": 1, "trials": 50,
                    "metrics": "connectivity", "backend": "vectorized"}
SERVE_TEMPORAL_ARGS = {"faults": 1, "mtbf": 60.0, "mttr": 20.0,
                       "horizon": 100, "trials": 1, "metrics": "connectivity"}
#: Per block of 100 arrivals: describe, sweep, duplicate sweep pair,
#: temporal, malformed (a duplicate pair is one arrival, two requests).
SERVE_BLOCK = (("describe", 60), ("sweep", 25), ("dup", 8),
               ("temporal", 5), ("malformed", 2))
#: Malformed bodies and the endpoint each is posted to; the expected
#: status is 400 and the expected error bytes are pinned.
SERVE_MALFORMED = (
    ("/v1/sweep", '{"spec": "pops(8,8)",'),
    ("/v1/describe", '{"spec": "pops(8,8)", "color": "red"}'),
    ("/v1/describe", '{"spec": "pops(0,x)"}'),
    ("/v1/sweep", '{"spec": "pops(8,8)", "trials": 0}'),
    ("/v1/sweep", '{"spec": "pops(8,8)", "model": "meteor"}'),
    ("/v1/sweep", '{"spec": "pops(8,8)", "metrics": "full", '
                  '"backend": "vectorized"}'),
    ("/v1/temporal", '{"spec": "pops(8,8)", "mtbf": -1}'),
)


def closed_kinds(workload: str):
    return VECTOR_KINDS if workload == "vector-sweep" else REPLAY_KINDS


def closed_catalogue(workload: str) -> list[dict]:
    """Every distinct request of a closed-loop workload, in a fixed order."""
    entries = []
    for kind, verb, spec, args in closed_kinds(workload):
        for s in range(CLOSED_CATALOGUE_SEEDS):
            entries.append({
                "id": f"{kind}/{s}",
                "kind": kind,
                "verb": verb,
                "spec": spec,
                "args": {**args, "seed": s},
            })
    return entries


def closed_sequence(workload: str, seed: int, count: int) -> list[int]:
    """Catalogue indices of the first ``count`` requests for ``seed``.

    Kinds alternate; within each kind the seed picks catalogue entries
    uniformly, so the same seed always yields the same sequence.
    """
    rng = random.Random(f"{workload}:{seed}")
    kinds = len(closed_kinds(workload))
    return [
        (i % kinds) * CLOSED_CATALOGUE_SEEDS
        + rng.randrange(CLOSED_CATALOGUE_SEEDS)
        for i in range(count)
    ]


def _post(path: str, payload: dict) -> tuple[str, str]:
    return path, json.dumps(payload, sort_keys=True)


def serve_catalogue() -> list[dict]:
    """Every distinct serve request: ``{id, kind, path, body}``."""
    entries = []
    for spec in SERVE_SPECS:
        path, body = _post("/v1/describe", {"spec": spec})
        entries.append({"id": f"describe/{spec}", "kind": "describe",
                        "path": path, "body": body})
    for spec in SERVE_SPECS:
        for s in range(SERVE_SWEEP_SEEDS):
            path, body = _post(
                "/v1/sweep", {"spec": spec, **SERVE_SWEEP_ARGS, "seed": s}
            )
            entries.append({"id": f"sweep/{spec}/{s}", "kind": "sweep",
                            "path": path, "body": body})
    for spec in SERVE_SPECS:
        for s in range(SERVE_TEMPORAL_SEEDS):
            path, body = _post(
                "/v1/temporal",
                {"spec": spec, **SERVE_TEMPORAL_ARGS, "seed": s},
            )
            entries.append({"id": f"temporal/{spec}/{s}",
                            "kind": "temporal", "path": path, "body": body})
    for i, (path, body) in enumerate(SERVE_MALFORMED):
        entries.append({"id": f"malformed/{i}", "kind": "malformed",
                        "path": path, "body": body})
    return entries


def serve_schedule(seed: int, phase_seconds: float) -> list[dict]:
    """The open-loop plan: one phase per offered rate.

    Each phase holds ``round(rate * phase_seconds)`` arrivals at times
    drawn as sorted uniforms over the phase -- a Poisson process
    conditioned on its count, so every seed offers exactly the stated
    rate.  Each arrival is a list of catalogue indices sent together
    (two for a duplicate sweep, one otherwise).  Request mix follows
    :data:`SERVE_BLOCK` exactly per 100 arrivals, shuffled; each kind
    deals its catalogue entries from a shuffled deck, so spec
    popularity is flat and every seed sends nearly the same multiset
    of requests in a different order.
    """
    catalogue = serve_catalogue()
    by_kind: dict[str, list[int]] = {}
    for index, entry in enumerate(catalogue):
        by_kind.setdefault(entry["kind"], []).append(index)
    rng = random.Random(f"serve-mixed:{seed}")
    block: list[str] = []
    decks: dict[str, list[int]] = {}
    phases = []
    for name, rate in SERVE_RATES:
        count = max(1, round(rate * phase_seconds))
        times = sorted(rng.uniform(0.0, phase_seconds) for _ in range(count))
        arrivals = []
        for due in times:
            if not block:
                block = [k for k, n in SERVE_BLOCK for _ in range(n)]
                rng.shuffle(block)
            kind = block.pop()
            deck = decks.setdefault(kind, [])
            if not deck:
                deck += by_kind["sweep" if kind == "dup" else kind]
                rng.shuffle(deck)
            index = deck.pop()
            arrivals.append({
                "due": due,
                "kind": kind,
                "requests": [index, index] if kind == "dup" else [index],
            })
        phases.append({"name": name, "rate": rate,
                       "seconds": phase_seconds, "arrivals": arrivals})
    return phases
