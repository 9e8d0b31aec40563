"""The ``serve-mixed`` side: server subprocesses and the open-loop generator.

The server always runs in its own process (``python -m repro serve``,
or ``serve_traced.py`` for the traced run), so the generator's
interpreter lock never enters the measured latency.  The generator
sends over at most :data:`CONNECTIONS` simultaneous connections and
times each request from its *due* time, so a stall that delays later
sends shows up in their latency; how late each send left is reported
separately as lag.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import checks
import workloads

#: Simultaneous connections (= threads) of the generator: ``nproc`` here.
CONNECTIONS = 2
#: Client timeout per request; a timeout counts as a failed request.
TIMEOUT_S = 10.0
_READY = re.compile(r"serving on http://[\d.]+:(\d+)")
_HERE = os.path.dirname(os.path.abspath(__file__))
#: Trials a correct response of each request kind completed.
_TRIALS = {"sweep": workloads.SERVE_SWEEP_ARGS["trials"],
           "temporal": workloads.SERVE_TEMPORAL_ARGS["trials"]}


def start_server(env: dict, *, traced: bool = False, trace_out=None,
                 cwd=None, cpu: int | None = None):
    """Boot a server (``--workers 1``, default admission); ``(proc, port)``.

    With ``cpu``, the server and every thread it starts run on that CPU
    only.
    """
    serve_args = ["serve", "--port", "0", "--workers", "1"]
    if traced:
        cmd = [sys.executable, os.path.join(_HERE, "serve_traced.py")]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        cmd += serve_args
    else:
        cmd = [sys.executable, "-m", "repro", *serve_args]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=cwd, preexec_fn=pin)
    line = proc.stdout.readline()
    match = _READY.search(line)
    if not match:
        stop_server(proc)
        raise RuntimeError(f"server did not start: {line!r}")
    return proc, int(match.group(1))


def stop_server(proc, timeout: float = 30.0) -> str:
    """SIGTERM (graceful drain), then kill; the rest of its stdout."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return out or ""


def request(port: int, method: str, path: str, body: str | None = None):
    """``(status, body bytes)`` of one request on a fresh connection.

    A minimal HTTP/1.1 client over a raw socket (the server closes
    every connection after one response), so the generator spends as
    little of the shared CPU as possible per request.
    """
    payload = (body or "").encode()
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n")
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=TIMEOUT_S) as sock:
        sock.sendall(head.encode("latin-1") + payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    header, sep, data = raw.partition(b"\r\n\r\n")
    lines = header.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if not sep or len(parts) < 2 or not parts[1].isdigit():
        raise ProtocolError(f"malformed response head {lines[0]!r}")
    length = next((int(line.split(":", 1)[1]) for line in lines[1:]
                   if line.lower().startswith("content-length:")), None)
    if length is not None and length != len(data):
        raise ProtocolError(f"short body: {len(data)} of {length} bytes")
    return int(parts[1]), data


class ProtocolError(OSError):
    """A response that is not well-formed HTTP."""


def warm_up(port: int, catalogue) -> None:
    """Every spec's describe and seed-0 sweep, then one of each other kind.

    49 sweeps against 32 cache slots leave the spill store populated,
    as it is in steady state.
    """
    first = {}
    for entry in catalogue:
        kind = entry["kind"]
        if kind == "describe" or (kind == "sweep"
                                  and entry["id"].endswith("/0")):
            request(port, "POST", entry["path"], entry["body"])
        else:
            first.setdefault(kind, entry)
    for entry in first.values():
        request(port, "POST", entry["path"], entry["body"])


def run_phase(port: int, phase: dict, catalogue, pins) -> dict:
    """Send one phase's arrivals on schedule; per-request records.

    Responses are checked after the phase, so the generator's checking
    never delays a send or a receive.
    """
    items = [
        (arrival["due"], index, arrival["kind"])
        for arrival in phase["arrivals"]
        for index in arrival["requests"]
    ]
    records: list = [None] * len(items)
    cursor = iter(range(len(items)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.02
    wall0 = time.time() + (start - time.perf_counter())

    def worker() -> None:
        while True:
            with lock:
                position = next(cursor, None)
            if position is None:
                return
            due_offset, index, kind = items[position]
            due = start + due_offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            entry = catalogue[index]
            try:
                response = request(port, "POST", entry["path"],
                                   entry["body"])
                problem = None
            except OSError as exc:
                response = None
                problem = f"{entry['id']}: {type(exc).__name__}: {exc}"
            done = time.perf_counter()
            records[position] = {
                "due_epoch": wall0 + due_offset,
                "kind": kind,
                "catalogue": index,
                "latency_s": done - due,
                "lag_s": sent - due,
                "sent_s": sent - start,
                "done_s": done - start,
                "problem": problem,
                "response": response,
            }

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for record in records:
        entry = catalogue[record["catalogue"]]
        response = record.pop("response")
        if response is not None:
            record["problem"] = checks.check_serve(entry, *response,
                                                   pins.get(entry["id"]))
        record["trials"] = (_TRIALS.get(entry["kind"], 0)
                            if record["problem"] is None else 0)
    return {"name": phase["name"], "rate": phase["rate"],
            "seconds": phase["seconds"], "records": records}


def server_counters(port: int) -> dict:
    """``/stats`` tiers plus the ``/metrics`` series the layers need."""
    _status, data = request(port, "GET", "/stats")
    stats = json.loads(data)
    _status, text = request(port, "GET", "/metrics")
    series: dict[str, float] = {}
    for line in text.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        series[name] = float(value)
    return {"stats": stats, "series": series}
