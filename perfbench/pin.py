"""Record ``pins.json``: the SHA-256 of every catalogue response.

Run on a commit whose outputs are the reference (outputs must never
move, so re-running it on a later commit must reproduce the file)::

    python3 perfbench/pin.py            # rewrite pins.json
    python3 perfbench/pin.py --check    # exit 1 if the pins would change

Closed-loop responses are computed on the workload's own session and
again on an inline ``Session(workers=1)``; the two must agree.  Serve
responses are fetched from a real server twice (the second pass after
the cache has churned) and must agree too.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import checks
import harness
import serve_load
import workloads


def closed_pins(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, f"{harness.HERE}/program.py", "--workload",
         workload, "--mode", "pin"],
        env=harness.child_env(), capture_output=True, text=True, check=True,
    ).stdout
    pairs = json.loads(out.strip().splitlines()[-1])
    for key, (pooled, inline) in pairs.items():
        if pooled != inline:
            raise SystemExit(f"{workload} {key}: pooled != inline response")
    return {key: pooled for key, (pooled, _inline) in sorted(pairs.items())}


def serve_pins() -> dict:
    catalogue = workloads.serve_catalogue()
    proc, port = serve_load.start_server(harness.child_env())
    try:
        passes = [
            {
                entry["id"]: [status, checks.digest(data)]
                for entry in catalogue
                for status, data in [serve_load.request(
                    port, "POST", entry["path"], entry["body"])]
            }
            for _ in range(2)
        ]
    finally:
        serve_load.stop_server(proc)
    if passes[0] != passes[1]:
        raise SystemExit("serve responses changed between passes")
    return dict(sorted(passes[0].items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    pins = {w: closed_pins(w) for w in workloads.CLOSED_WORKERS}
    pins["serve-mixed"] = serve_pins()
    if args.check:
        same = pins == checks.load_pins()
        print("pins match" if same else "pins differ")
        return 0 if same else 1
    with open(checks.PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {sum(len(v) for v in pins.values())} pins")
    return 0


if __name__ == "__main__":
    sys.exit(main())
