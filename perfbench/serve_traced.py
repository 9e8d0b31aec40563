"""Launcher of the traced server: the program's CLI with layer wrappers.

Installs :mod:`layers` (wrappers + the program's span tracer) and then
runs ``python -m repro serve ...`` in-process through the CLI entry
point, so the traced server takes exactly the untraced code path::

    python perfbench/serve_traced.py [--trace-out PATH] serve --port 0 ...

``SIGUSR1`` empties the recorded intervals (sent after warm-up).  On
SIGTERM the server drains as usual; the launcher then prints the
aggregated per-layer statistics as the last stdout line and, with
``--trace-out``, writes the raw intervals as NDJSON.
"""

from __future__ import annotations

import json
import signal
import sys

import layers


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    store = layers.EventStore()
    layers.install(store, serve=True)
    signal.signal(signal.SIGUSR1, lambda *_: store.clear())

    from repro.__main__ import main as cli_main

    code = cli_main(argv)
    print(json.dumps({
        "stats": layers.serializable(layers.aggregate(store.events)),
    }), flush=True)
    if trace_out:
        store.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
