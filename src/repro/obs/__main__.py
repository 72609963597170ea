"""``python -m repro.obs``: the deterministic demo event log on stdout.

CI pipes this through ``cmp`` against ``tests/golden/obs_log.jsonl``.
Running the package (rather than ``repro.obs.log``, which the package
imports) executes no module a second time.
"""

import sys

from .log import EVENT_FIELDS, EventLog, demo_events


def main() -> int:
    ticks = iter(i / 10 for i in range(len(EVENT_FIELDS) + 1))
    log = EventLog(
        sys.stdout, level="debug", source="demo", clock=lambda: next(ticks)
    )
    demo_events(log)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
