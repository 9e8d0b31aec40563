"""The benchmark's own tests (run: ``python3 -m pytest perfbench/tests -q``).

Smoke runs at a tiny size, metric names against ``BENCHMARK.json``,
seeded determinism and flat spec dealing of the request sequences, the
negative control (a flipped response byte must count as failed) and
the refusal to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import serve_load  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_exactly_the_declared_metrics(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1.5",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _benchmark_json()["end_to_end" if trace == "0"
                                 else "per_layer"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_declared_names_match_the_code():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    import perlayer

    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        perlayer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)


def test_same_seed_same_requests():
    for workload in workloads.CLOSED_WORKERS:
        a = workloads.closed_sequence(workload, 7, 500)
        assert a == workloads.closed_sequence(workload, 7, 500)
        assert a != workloads.closed_sequence(workload, 8, 500)
    assert workloads.serve_schedule(7, 2.0) == workloads.serve_schedule(
        7, 2.0)
    assert workloads.serve_schedule(7, 2.0) != workloads.serve_schedule(
        8, 2.0)


def test_serve_requests_are_dealt_flat():
    catalogue = workloads.serve_catalogue()
    sent: dict[str, list[int]] = {}
    for phase in workloads.serve_schedule(7, 10.0):
        for arrival in phase["arrivals"]:
            if arrival["kind"] == "describe":
                sent.setdefault("describe", []).extend(arrival["requests"])
    counts = {}
    for index in sent["describe"]:
        counts[catalogue[index]["id"]] = counts.get(
            catalogue[index]["id"], 0) + 1
    assert len(counts) == len(workloads.SERVE_SPECS)
    assert max(counts.values()) - min(counts.values()) <= 1


def test_every_catalogue_entry_is_pinned():
    pins = checks.load_pins()
    for workload in workloads.CLOSED_WORKERS:
        ids = {e["id"] for e in workloads.closed_catalogue(workload)}
        assert ids == set(pins[workload])
    assert {e["id"] for e in workloads.serve_catalogue()} == set(
        pins["serve-mixed"])


def _flip(text: str) -> str:
    """Change one byte: the first digit of the payload."""
    i = next(i for i, c in enumerate(text) if c.isdigit())
    return text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]


def test_negative_control_closed_loop_flipped_byte_fails():
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "program.py"), "--workload",
         "vector-sweep", "--seconds", "0.3", "--mode", "run"],
        env=harness.child_env(), capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    pins = checks.load_pins()
    assert not any(run._check_closed("vector-sweep", result, pins))
    digest = result["digests"][0]
    result["bodies"][digest] = _flip(result["bodies"][digest])
    problems = run._check_closed("vector-sweep", result, pins)
    assert problems[0] is not None
    verdict = run._result(problems, {n: 1.0 for n, _u in run.END_TO_END},
                          run.END_TO_END)
    assert verdict["correct"] is False and verdict["failed"] >= 1


def test_negative_control_serve_flipped_byte_fails():
    catalogue = workloads.serve_catalogue()
    pins = checks.load_pins()["serve-mixed"]
    picks = [next(e for e in catalogue if e["kind"] == kind)
             for kind in ("sweep", "malformed")]
    proc, port = serve_load.start_server(harness.child_env())
    try:
        for entry in picks:
            status, data = serve_load.request(port, "POST", entry["path"],
                                              entry["body"])
            assert checks.check_serve(entry, status, data,
                                      pins[entry["id"]]) is None
            flipped = _flip(data.decode()).encode()
            assert checks.check_serve(entry, status, flipped,
                                      pins[entry["id"]]) is not None
            assert checks.check_serve(entry, 500, data,
                                      pins[entry["id"]]) is not None
    finally:
        serve_load.stop_server(proc)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "replay", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
