#!/usr/bin/env python3
"""CI smoke test for ``repro serve --workers N``: the sharded tier.

Starts the real router as a subprocess (the way an operator would, via
``python -m repro serve --workers 2``) and asserts the tier's end-to-end
contract:

1. ``POST /v1/evaluate`` through the router returns exactly
   ``tests/golden/serve_evaluate.json`` — the same bytes the
   single-process service and the CLI produce — with routing provenance
   headers (``X-Repro-Worker``, ``X-Repro-Coalesced``).
2. ``GET /healthz`` shows two live workers; ``GET /metrics`` aggregates
   them.
3. SIGKILL one worker: the next request for the same spec reroutes along
   the hash ring and answers byte-identically; the supervisor respawns
   the dead slot.
4. A request sent with an explicit ``X-Repro-Trace-Id`` gets the id
   echoed back, and ``GET /metrics?format=prometheus`` on the router
   *and* on a worker passes the text-exposition parse check.
5. SIGTERM drains the router and its workers cleanly (exit 0 within
   10 s though a silent client holds a connection open, clean drain
   message), every process writes its runtime trace file, and the
   merged timeline (``repro obs merge``) contains spans from at least
   two processes sharing the request's trace id. The merged trace is
   left at ``$SHARD_SMOKE_TRACE`` (default ``shard-trace.json``) as a
   CI artifact — open it at ui.perfetto.dev.
6. A second tier's workers go down with their router: SIGKILL the
   router (no drain, no SIGTERM to the workers) and every worker PID
   that ``/healthz`` listed must be gone within 10 s.

Run:  PYTHONPATH=src python scripts/shard_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def start_router(*args: str) -> tuple[subprocess.Popen, int]:
    """Launch a 2-worker tier on an ephemeral port, in its own process
    group; parse the bound port."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", "2", "--jobs", "1", *args,
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    assert process.stderr is not None
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        line = process.stderr.readline()
        if not line:
            break
        match = re.search(r"router listening on http://[\w.]+:(\d+)", line)
        if match:
            return process, int(match.group(1))
    process.kill()
    fail("router never printed its listen line")
    raise AssertionError  # unreachable


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    from repro.obs.prometheus import parse_exposition
    from repro.obs.tracer import merge_traces, write_merged
    from repro.serve import ServeClient

    request_payload = (GOLDEN / "serve_request.json").read_bytes()
    golden_response = (GOLDEN / "serve_evaluate.json").read_bytes()
    trace_id = "shard-smoke-1"
    merged_out = Path(os.environ.get("SHARD_SMOKE_TRACE", "shard-trace.json"))

    with tempfile.TemporaryDirectory(
        prefix="repro-shard-smoke-"
    ) as cache_dir, tempfile.TemporaryDirectory(
        prefix="repro-shard-trace-"
    ) as trace_dir:
        process, port = start_router(
            "--cache-dir", cache_dir, "--trace-dir", trace_dir
        )
        try:
            client = ServeClient(port=port)
            client.wait_until_ready()

            # 1. Golden byte-identity through the sharded tier.
            status, headers, body = client._request(
                "POST", "/v1/evaluate", request_payload
            )
            if status != 200:
                fail(f"evaluate answered {status}: {body[:200]!r}")
            if body != golden_response:
                fail(
                    "routed bytes differ from tests/golden/serve_evaluate.json "
                    f"({len(body)} vs {len(golden_response)} bytes)"
                )
            owner = headers.get("x-repro-worker", "")
            if not re.fullmatch(r"w[01]", owner):
                fail(f"missing/odd X-Repro-Worker header: {owner!r}")
            if headers.get("x-repro-coalesced") != "leader":
                fail(f"missing X-Repro-Coalesced header: {headers}")
            print(
                f"evaluate: 200 via {owner}, {len(body)} bytes, "
                "golden-identical"
            )

            # 2. Tier introspection.
            health = client.healthz()
            if health["status"] != "ok" or len(health["workers"]) != 2:
                fail(f"unexpected router health: {health}")
            payload = client.metrics()
            if sorted(payload.get("workers", {})) != ["w0", "w1"]:
                fail(f"metrics missing worker payloads: {payload.keys()}")
            print(
                "healthz: ok (2 workers), metrics aggregate "
                f"{payload['tier_disk_cache']['entries']} cached entries"
            )

            # 3. Kill the owner worker: reroute, byte-identical, respawn.
            victim = next(
                worker for worker in health["workers"]
                if worker["name"] == owner
            )
            os.kill(victim["pid"], signal.SIGKILL)
            status, headers, rerouted = client._request(
                "POST", "/v1/evaluate", request_payload
            )
            if status != 200 or rerouted != golden_response:
                fail(
                    f"post-kill request not byte-identical: {status}, "
                    f"{len(rerouted)} bytes"
                )
            print(
                f"killed {owner} (pid {victim['pid']}): rerouted via "
                f"{headers.get('x-repro-worker')}, bytes identical"
            )
            deadline = time.monotonic() + 60
            while True:
                workers = client.healthz()["workers"]
                if all(worker["alive"] for worker in workers):
                    break
                if time.monotonic() > deadline:
                    fail(f"worker never respawned: {workers}")
                time.sleep(0.1)
            restarts = sum(worker["restarts"] for worker in workers)
            if restarts < 1:
                fail(f"no restart recorded: {workers}")
            print(f"supervisor respawned {owner} (restarts={restarts:g})")

            # 4. Trace-id echo + Prometheus exposition on router & worker.
            status, headers, body = client.evaluate_response(
                json.loads(request_payload), trace_id=trace_id
            )
            if status != 200 or headers.get("x-repro-trace-id") != trace_id:
                fail(
                    f"trace id not echoed: {status}, "
                    f"{headers.get('x-repro-trace-id')!r}"
                )
            families = parse_exposition(client.metrics_text())
            if not any(name.startswith("repro_serve_") for name in families):
                fail(f"router exposition missing serve metrics: {families}")
            worker_port = client.healthz()["workers"][0]["port"]
            worker_families = parse_exposition(
                ServeClient(port=worker_port).metrics_text()
            )
            if not worker_families:
                fail("worker exposition parsed to zero families")
            print(
                f"trace id echoed; prometheus parse ok (router "
                f"{len(families)} families, worker "
                f"{len(worker_families)} families)"
            )

            # 5. SIGTERM drains the tier cleanly, an idle client and all.
            idle = socket.create_connection(("127.0.0.1", port), timeout=10)
            time.sleep(0.05)  # let the router accept it
            process.send_signal(signal.SIGTERM)
            try:
                returncode = process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                fail("still running 10 s after SIGTERM with an idle client")
            stderr = process.stderr.read()
            idle.close()
        finally:
            if process.poll() is None:
                process.kill()

        if returncode != 0:
            fail(f"router exited {returncode}; stderr tail: {stderr[-800:]}")
        if "drained cleanly" not in stderr:
            fail(f"no clean-drain message; stderr tail: {stderr[-800:]}")
        print(
            "sigterm: router and workers drained, exit 0 within 10 s with "
            "an idle client connected"
        )

        # Every process left a runtime trace; the merged timeline must
        # show the traced request crossing the router/worker boundary.
        trace_files = sorted(Path(trace_dir).glob("*.trace.json"))
        if len(trace_files) < 3:
            fail(f"expected 3 trace files (router + 2 workers): {trace_files}")
        merged = merge_traces(trace_files)
        tagged = [
            event for event in merged["traceEvents"]
            if event.get("args", {}).get("trace_id") == trace_id
        ]
        tagged_pids = {event["pid"] for event in tagged}
        if len(tagged_pids) < 2:
            fail(
                f"trace id {trace_id!r} did not cross processes: "
                f"{len(tagged)} span(s) from pids {sorted(tagged_pids)}"
            )
        out, count = write_merged(trace_files, merged_out)
        print(
            f"runtime trace: {len(tagged)} spans for {trace_id!r} across "
            f"{len(tagged_pids)} processes; merged {count} events -> {out}"
        )

    # 6. SIGKILL a router: its workers must not outlive it.
    process, port = start_router("--no-cache")
    try:
        pids = [
            worker["pid"] for worker in ServeClient(port=port).healthz()["workers"]
        ]
        process.kill()
        process.wait(timeout=10)
        deadline = time.monotonic() + 10
        while left := [pid for pid in pids if running(pid)]:
            if time.monotonic() > deadline:
                fail(f"workers {left} still running 10 s after their router's SIGKILL")
            time.sleep(0.05)
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait(timeout=10)
    print(f"sigkill: router killed, its workers {pids} exited within 10 s")

    print("shard smoke: OK")
    return 0


def running(pid: int) -> bool:
    """Whether ``pid`` is a live process (an unreaped zombie is not)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rpartition(")")[2].split()[0] != "Z"


if __name__ == "__main__":
    raise SystemExit(main())
