#!/usr/bin/env python3
"""Record the expected result digest of every spec the in-process
workloads can draw, into ``digests.json``, and the median time of each
``sweep_cold`` cost class, into ``rationale.json``.

    python3 perfbench/record_digests.py

Rerun only when a change is meant to alter results; the benchmark fails
any run whose results differ from the record. The specs run in a fixed
shuffled order, so a drift in host speed spreads over every class.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402


def main() -> int:
    common.require_source()
    from perfbench import inprocess, specs

    pool = specs.sweep_pool()
    sweep = set(pool)
    pool.update(specs.sim_pool())
    order = sorted(pool)
    random.Random(0).shuffle(order)
    rows = inprocess.evaluate(pool, order)
    failed = [row for row in rows if "error" in row]
    if failed:
        print(f"error: {len(failed)} specs failed, e.g. {failed[0]}", file=sys.stderr)
        return 1
    inprocess.DIGESTS.write_text(
        json.dumps({row["label"]: row["digest"] for row in rows}, indent=1, sort_keys=True)
        + "\n"
    )
    times: dict[str, list[float]] = {}
    for row in rows:
        if row["label"] in sweep:
            times.setdefault(specs.cost_class(row["label"]), []).append(row["seconds"] * 1000.0)
    rationale_path = inprocess.DIGESTS.parent / "rationale.json"
    rationale = json.loads(rationale_path.read_text())
    rationale["workloads"]["sweep_cold"]["cost_classes_ms"] = {
        name: round(statistics.median(values), 2) for name, values in sorted(times.items())
    }
    rationale_path.write_text(json.dumps(rationale, indent=1) + "\n")
    print(f"recorded {len(rows)} digests in {inprocess.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
