#!/usr/bin/env python3
"""CI smoke test for ``repro serve``: golden bytes + graceful SIGTERM.

Starts the real server as a subprocess (the way an operator would),
then asserts the full serving contract end to end:

1. ``POST /v1/evaluate`` with the golden request spec returns exactly
   ``tests/golden/serve_evaluate.json`` — the same bytes the CLI prints.
2. ``GET /healthz`` and ``GET /metrics`` answer with sane payloads.
3. SIGTERM while a request is in flight drains it (the request gets its
   200 and full body) and the process exits 0 reporting a clean drain
   within 10 s, though a silent client holds a connection open.

Run:  PYTHONPATH=src python scripts/serve_smoke.py
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
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def start_server(cache_dir: str) -> tuple[subprocess.Popen, int]:
    """Launch ``repro serve`` on an ephemeral port; parse the bound port."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--jobs", "2", "--cache-dir", cache_dir,
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert process.stderr is not None
    line = process.stderr.readline()
    match = re.search(r"http://[\w.]+:(\d+)", line)
    if not match:
        process.kill()
        fail(f"could not parse the listen line: {line!r}")
    return process, int(match.group(1))


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    from repro.serve import ServeClient

    request_payload = (GOLDEN / "serve_request.json").read_bytes()
    golden_response = (GOLDEN / "serve_evaluate.json").read_bytes()

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as cache_dir:
        process, port = start_server(cache_dir)
        drained = {}
        try:
            client = ServeClient(port=port)
            client.wait_until_ready()

            # 1. Golden byte-identity.
            status, headers, body = client._request(
                "POST", "/v1/evaluate", request_payload
            )
            if status != 200:
                fail(f"evaluate answered {status}: {body[:200]!r}")
            if body != golden_response:
                fail(
                    "served bytes differ from tests/golden/serve_evaluate.json "
                    f"({len(body)} vs {len(golden_response)} bytes)"
                )
            print(f"evaluate: 200, {len(body)} bytes, golden-identical")

            # 2. Introspection endpoints.
            health = client.healthz()
            if health["status"] != "ok":
                fail(f"unexpected health: {health}")
            metrics = client.metrics()["metrics"]
            if metrics["serve.requests_admitted"]["value"] < 1:
                fail(f"metrics did not count the request: {metrics}")
            print(
                f"healthz: {health['status']}, metrics: "
                f"{metrics['serve.requests_admitted']['value']:g} admitted"
            )

            # 3. SIGTERM with a request in flight drains cleanly. The spec
            # is a fresh variant (different seed → cache miss), so the
            # signal really does land mid-evaluation.
            fresh = json.loads(request_payload)
            fresh["seed"] = fresh.get("seed", 42) + 1
            fresh_payload = json.dumps(fresh).encode()

            def inflight() -> None:
                status, _, body = client._request(
                    "POST", "/v1/evaluate", fresh_payload
                )
                drained["status"] = status
                drained["bytes"] = len(body)
                drained["answered"] = body.startswith(b"{") and body.endswith(
                    b"}\n"
                )

            # A connected client that never sends must not hold the drain.
            idle = socket.create_connection(("127.0.0.1", port), timeout=10)
            worker = threading.Thread(target=inflight)
            worker.start()
            time.sleep(0.05)  # let the request reach the server
            process.send_signal(signal.SIGTERM)
            try:
                returncode = process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                fail("still running 10 s after SIGTERM with an idle client")
            worker.join(timeout=60)
            stderr = process.stderr.read()
            idle.close()
        finally:
            if process.poll() is None:
                process.kill()

    if drained.get("status") != 200 or not drained.get("answered"):
        fail(f"in-flight request not drained cleanly: {drained}")
    if returncode != 0:
        fail(f"server exited {returncode}; stderr tail: {stderr[-500:]}")
    if "drained cleanly" not in stderr:
        fail(f"no clean-drain message; stderr tail: {stderr[-500:]}")
    print(
        f"sigterm: in-flight request answered 200 "
        f"({drained['bytes']} bytes, complete body), exit 0 within 10 s "
        f"with an idle client connected"
    )
    print("serve smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
