"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 perfbench/ledger.py --runs 10 [--first-seed 1] \
        [--workloads replay ...] [--trace 0] [--out .perfbench/a.json] \
        [--against .perfbench/b.json]

For every workload and metric: the median and quartiles (as
``statistics.quantiles(values, n=4)`` gives them) of the per-run
values, and the inter-quartile range as a share of the median -- the
spread ``BENCHMARK.json``'s bounds are judged against.  Seeds run
``first-seed`` .. ``first-seed + runs - 1``, one run each, in sequence.
With ``--against``, each median is also compared with the same
metric's median in an earlier ledger, as a share of the earlier one,
and set beside the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import harness

with open(os.path.join(harness.ROOT, "BENCHMARK.json"),
          encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(harness.HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    summary = {
        "correct": all(r["correct"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "metrics": {},
    }
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary["metrics"][name] = {
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)
            if statistics.median(values) else None,
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", default=None,
                        help="an earlier ledger to compare medians with")
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as handle:
            earlier = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    ledger = {}
    for workload in args.workloads:
        results = [run_once(workload, seed, args.trace) for seed in seeds]
        ledger[workload] = summarize(results)
        ledger[workload]["seeds"] = list(seeds)
        for name, m in ledger[workload]["metrics"].items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.3f}"
            line = (f"{workload:13} {name:40} median={m['median']:.6g} "
                    f"spread={spread}")
            if earlier and workload in earlier:
                before = earlier[workload]["metrics"][name]["median"]
                m["change"] = (m["median"] - before) / before
                line += f" change={m['change']:+.3f}"
                if name in bounds:
                    line += f" bound={bounds[name]}"
            print(line, flush=True)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)),
                    exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(ledger, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
