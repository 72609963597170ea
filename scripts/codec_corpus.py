#!/usr/bin/env python3
"""Record and check the result-codec corpus: every perfbench spec's bytes.

Evaluates every spec in perfbench's three pools (``sweep_cold``,
``serve_warm`` and ``sim_churn``: 998 specs) and records, per spec, its
``spec_key``, its ``RunResult.to_json()`` bytes and a digest of the
sorted ``indent=2`` render that the CLI and the service print. Record
with one version of the code, check with another:

    PYTHONPATH=<old>/src python scripts/codec_corpus.py record corpus.jsonl
    PYTHONPATH=src python scripts/codec_corpus.py check corpus.jsonl

``check`` re-evaluates each spec and compares all three, and also
decodes the recorded ``to_json()`` bytes and re-encodes them, which
must give the same bytes. It prints one line per mismatch and exits 1
if there is any. The corpus is large (tens of MB); keep it out of the
repository.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import specs  # noqa: E402
from repro.api import FabricSession, RunResult, spec_key  # noqa: E402


def pools() -> dict:
    """Every perfbench spec, labelled by pool."""
    return {
        f"{name}/{label}": spec
        for name, pool in (
            ("sweep", specs.sweep_pool()),
            ("serve", specs.serve_pool()),
            ("sim", specs.sim_pool()),
        )
        for label, spec in pool.items()
    }


def entry(spec, session: FabricSession) -> dict:
    result = session.run(spec)
    render = json.dumps(result.to_dict(), indent=2, sort_keys=True)
    return {
        "key": spec_key(spec),
        "json": result.to_json(),
        "render": hashlib.sha256(render.encode("utf-8")).hexdigest(),
    }


def record(path: Path) -> int:
    session = FabricSession()
    with path.open("w", encoding="utf-8") as out:
        for label, spec in pools().items():
            out.write(json.dumps({"label": label, **entry(spec, session)}) + "\n")
    return 0


def check(path: Path) -> int:
    session = FabricSession()
    pool = pools()
    checked = mismatches = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        old = json.loads(line)
        label = old.pop("label")
        new = entry(pool[label], session)
        for field in ("key", "json", "render"):
            if new[field] != old[field]:
                mismatches += 1
                print(f"{label}: {field} differs")
        if RunResult.from_json(old["json"]).to_json() != old["json"]:
            mismatches += 1
            print(f"{label}: recorded bytes do not re-encode to themselves")
        checked += 1
    print(f"{checked} specs checked, {mismatches} mismatches")
    return 1 if mismatches or checked != len(pool) else 0


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in ("record", "check"):
        raise SystemExit(__doc__)
    command = record if sys.argv[1] == "record" else check
    raise SystemExit(command(Path(sys.argv[2])))
