"""Correctness gate: every response is checked before it counts.

Two layers of checks, both applied to every response:

* the SHA-256 of the response bytes must equal the digest pinned in
  ``pins.json`` (recorded by ``pin.py``) for that catalogue entry --
  every request of every seed comes from the catalogue, so every
  response has a pin;
* the decoded response must match its schema and value ranges, and a
  sweep that injects ``d - 1`` coupler faults on a stack-Kautz spec
  and scores paths must report ``within_bound_fraction == 1.0`` (the
  paper's ``k + 2`` claim).

A failed check returns a one-line reason; ``None`` means the response
is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")

_SWEEP_KEYS = {"spec", "model", "faults", "trials", "seed", "workload",
               "messages", "bound", "quantiles", "within_bound_fraction",
               "partitioned_fraction"}
_TEMPORAL_KEYS = {"spec", "process", "faults", "mtbf", "mttr", "law",
                  "horizon", "trials", "seed", "workload", "messages",
                  "bound", "quantiles", "availability_curve",
                  "disconnected_fraction", "skipped_underfaulted"}
_DESCRIBE_KEYS = {"spec", "family", "params", "processors", "groups",
                  "couplers", "coupler_degree", "processor_degree",
                  "diameter"}
_QUANTILE_KEYS = {"mean", "p05", "p50", "p95", "min", "max"}
#: Quantile-summarized metrics that are fractions in [0, 1].
_UNIT_METRICS = {"connectivity", "alive_connectivity", "reachable_groups",
                 "within_bound", "delivery_ratio", "availability",
                 "survivability", "within_bound_time"}
_SK = re.compile(r"^sk\((\d+),(\d+),(\d+)\)$")


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _unit(value) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


def _quantiles(quantiles) -> str | None:
    if not isinstance(quantiles, dict) or not quantiles:
        return "quantiles missing"
    for metric, q in quantiles.items():
        if not isinstance(q, dict) or set(q) != _QUANTILE_KEYS:
            return f"quantile keys of {metric}"
        if not all(isinstance(v, (int, float)) and math.isfinite(v)
                   for v in q.values()):
            return f"non-finite quantile in {metric}"
        if not (q["min"] <= q["p05"] <= q["p50"] <= q["p95"] <= q["max"]
                and q["min"] <= q["mean"] <= q["max"]):
            return f"unordered quantiles in {metric}"
        if metric in _UNIT_METRICS and not (_unit(q["min"])
                                            and _unit(q["max"])):
            return f"{metric} outside [0, 1]"
    return None


def check_sweep(body: dict, spec: str, args: dict) -> str | None:
    """Schema, ranges and the ``k + 2`` bound of one sweep summary."""
    if set(body) != _SWEEP_KEYS:
        return f"sweep keys {sorted(body)}"
    for field in ("model", "faults", "trials", "seed"):
        if body[field] != args[field]:
            return f"sweep {field} {body[field]!r} != {args[field]!r}"
    if body["spec"] != spec:
        return f"sweep spec {body['spec']!r}"
    problem = _quantiles(body["quantiles"])
    if problem:
        return problem
    if not _unit(body["partitioned_fraction"]):
        return "partitioned_fraction outside [0, 1]"
    within = body["within_bound_fraction"]
    if args["metrics"] == "connectivity":
        if within is not None:
            return "connectivity sweep reports within_bound_fraction"
        return None
    if not _unit(within):
        return "within_bound_fraction outside [0, 1]"
    sk = _SK.match(spec)
    if (sk and args["model"] == "coupler"
            and args["faults"] == int(sk.group(2)) - 1 and within != 1.0):
        return f"k + 2 bound broken under d - 1 faults: {within}"
    return None


def check_temporal(body: dict, spec: str, args: dict) -> str | None:
    if set(body) != _TEMPORAL_KEYS:
        return f"temporal keys {sorted(body)}"
    for field in ("faults", "trials", "seed", "horizon", "mtbf", "mttr"):
        if body[field] != args[field]:
            return f"temporal {field} {body[field]!r} != {args[field]!r}"
    if body["spec"] != spec:
        return f"temporal spec {body['spec']!r}"
    if body["skipped_underfaulted"] is not False:
        return "temporal sweep skipped"
    problem = _quantiles(body["quantiles"])
    if problem:
        return problem
    curve = body["availability_curve"]
    if not (isinstance(curve, list) and len(curve) == 16
            and all(_unit(v) for v in curve)):
        return "availability_curve malformed"
    if not _unit(body["disconnected_fraction"]):
        return "disconnected_fraction outside [0, 1]"
    return None


def check_describe(body: dict, spec: str) -> str | None:
    if set(body) != _DESCRIBE_KEYS:
        return f"describe keys {sorted(body)}"
    t, g = (int(x) for x in spec[len("pops("):-1].split(","))
    if body["spec"] != spec or body["family"] != "pops":
        return f"describe spec {body['spec']!r}"
    if body["processors"] != t * g or body["groups"] != g:
        return "describe shape"
    return None


def check_closed(entry: dict, text: str, pinned: str | None) -> str | None:
    """A closed-loop response (``Session`` verb ``.to_json()`` text)."""
    if pinned is None:
        return f"{entry['id']}: no pinned digest"
    if digest(text.encode()) != pinned:
        return f"{entry['id']}: digest differs from pin"
    try:
        body = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"{entry['id']}: not JSON ({exc})"
    if entry["verb"] == "temporal_sweep":
        problem = check_temporal(body, entry["spec"], entry["args"])
    else:
        problem = check_sweep(body, entry["spec"], entry["args"])
    return f"{entry['id']}: {problem}" if problem else None


def check_serve(entry: dict, status: int, data: bytes,
                pinned) -> str | None:
    """One HTTP response: pinned ``[status, digest]`` plus schema."""
    expected_status = 400 if entry["kind"] == "malformed" else 200
    if status != expected_status:
        return f"{entry['id']}: status {status}"
    if pinned is None:
        return f"{entry['id']}: no pinned digest"
    if [status, digest(data)] != pinned:
        return f"{entry['id']}: bytes differ from pin"
    try:
        body = json.loads(data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return f"{entry['id']}: not JSON ({exc})"
    request = json.loads(entry["body"]) if entry["kind"] != "malformed" \
        else None
    if entry["kind"] == "malformed":
        error = body.get("error") if isinstance(body, dict) else None
        if not (isinstance(error, dict) and error.get("code")
                and error.get("message")):
            return f"{entry['id']}: unstructured error"
        return None
    spec = request["spec"]
    if entry["kind"] == "describe":
        problem = check_describe(body, spec)
    elif entry["kind"] == "sweep":
        problem = check_sweep(body, spec, request)
    else:
        problem = check_temporal(body, spec, request)
    return f"{entry['id']}: {problem}" if problem else None
