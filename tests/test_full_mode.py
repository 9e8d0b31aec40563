"""Full mode's byte-identity pins: sweeps, temporal full replay, simulate.

``tests/golden/full_mode.json`` was captured from the per-message
engine (every message re-scanned each slot, routing through
``DegradedNetwork._routing()`` per call) before the live-message
engine and the per-view next-coupler tables replaced it.  Each case
here recomputes the same payload on the current code and must match
it exactly:

* ``sweep|...`` -- batched ``metrics="full"`` sweep summaries over
  every built-in family and fault model, at one and two workers, plus
  the SHA-256 of the raw per-trial rows (floats at full precision,
  not the summary's six decimals);
* ``temporal|...`` -- ``temporal_sweep(metrics="full")`` summaries,
  where the degraded view swaps under the simulator at event
  boundaries;
* ``simulate|...`` -- intact, coupler-faulted and processor-faulted
  (dropping) simulator runs under all four arbitration policies: the report, the per-message outcome and
  trace, the slot log and the coupler busy counts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

import pytest

import repro
from repro.core import build
from repro.core.registry import family_for_network
from repro.core.session import Session
from repro.core.workloads import resolve_workload
from repro.resilience.degrade import DegradedNetwork
from repro.resilience.faults import make_fault_model
from repro.resilience.sweep import _SweepPlan, _TrialContext
from repro.simulation.network_sim import run_traffic
from repro.simulation.protocol import (
    FurthestFirst,
    OldestFirst,
    RandomChoice,
    RoundRobin,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "full_mode.json"

SPECS = ("pops(2,3)", "sk(2,2,2)", "sii(2,2,6)", "sops(6)")
MODELS = ("coupler", "processor", "link")
PROCESSES = ("coupler-renewal", "processor-renewal", "cascade")
POLICIES = {
    "oldest": OldestFirst,
    "round-robin": RoundRobin,
    "random": lambda: RandomChoice(seed=4),
    "furthest": FurthestFirst,
}
SWEEP_ARGS = {"faults": 2, "trials": 6, "seed": 5, "messages": 24}


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _sweep_case(spec: str, model: str, workers: int, session) -> dict:
    summary = session.resilience_sweep(
        spec, model=model, metrics="full", workers=workers, **SWEEP_ARGS
    )
    net = build(spec)
    plan = _SweepPlan(
        canonical=summary.spec,
        model=make_fault_model(model, faults=SWEEP_ARGS["faults"]),
        seed=SWEEP_ARGS["seed"],
        workload="uniform",
        messages=SWEEP_ARGS["messages"],
        bound=net.diameter + 2,
        max_slots=100_000,
        baseline_mean_latency=None,
        metrics="full",
    )
    rows = _TrialContext(plan, net=net).run_range(0, SWEEP_ARGS["trials"])
    return {"summary": json.loads(summary.to_json()), "rows": _digest(rows)}


def _temporal_case(spec: str, process: str) -> dict:
    summary = repro.temporal_sweep(
        spec, process=process, faults=3, mtbf=30, mttr=10, horizon=200,
        trials=4, seed=7, metrics="full", messages=30, curve_points=4,
        workers=1,
    )
    return json.loads(summary.to_json())


def _simulate_case(spec: str, policy: str, state: str) -> dict:
    net = build(spec)
    traffic = resolve_workload("uniform", net, messages=40, seed=3)
    if state == "intact":
        sim = family_for_network(net).simulator(net, POLICIES[policy]())
    else:
        scenario = make_fault_model(state, faults=2).scenario(spec, net, 9)
        sim = DegradedNetwork(net, scenario).simulator(POLICIES[policy]())
    report = run_traffic(sim, traffic)
    return {
        "report": dataclasses.asdict(report),
        "messages": _digest(
            [
                [m.ident, m.current, m.hops, m.deliver_slot, m.drop_slot,
                 m.trace]
                for m in sim.messages
            ]
        ),
        "slot_log": _digest([dataclasses.astuple(s) for s in sim.slot_log]),
        "coupler_busy": sim.coupler_busy,
    }


def _sweep_keys():
    return [
        f"sweep|{spec}|{model}|w{workers}"
        for spec in SPECS
        for model in MODELS
        for workers in (1, 2)
    ]


def _temporal_keys():
    return [f"temporal|{spec}|{process}" for spec in SPECS for process in PROCESSES]


def _simulate_keys():
    return [
        f"simulate|{spec}|{policy}|{state}"
        for spec in SPECS
        for policy in POLICIES
        for state in ("intact", "coupler", "processor")
    ]


def capture(key: str, session) -> object:
    """The payload of golden case ``key`` on the current code."""
    kind, spec, *rest = key.split("|")
    if kind == "sweep":
        model, workers = rest
        return _sweep_case(spec, model, int(workers[1:]), session)
    if kind == "temporal":
        return _temporal_case(spec, *rest)
    return _simulate_case(spec, *rest)


GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def session():
    with Session() as s:
        yield s


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(
        _sweep_keys() + _temporal_keys() + _simulate_keys()
    )


@pytest.mark.parametrize("key", _sweep_keys() + _temporal_keys() + _simulate_keys())
def test_matches_golden(key, session):
    assert capture(key, session) == GOLDEN[key]
