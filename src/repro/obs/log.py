"""Structured JSONL event logging for the serving tier and simulators.

One :class:`EventLog` writes one JSON object per line — leveled,
schema-checked, sorted-key — replacing the ad-hoc ``print(...,
file=sys.stderr)`` calls that used to narrate the serving tier. A JSON
line is still a line: the readiness probes that grep a worker's stderr
for ``http://host:port`` keep working because the ``serve.listening``
event carries the URL (and a human ``message``) in its payload.

Design rules, in the same spirit as :mod:`repro.obs.tracer`:

* **Zero overhead when off.** :data:`NULL_LOG` reports ``enabled =
  False`` for every level and drops every record; hot-path call sites
  guard with ``if log.enabled_for(DEBUG):`` so an unlogged request
  constructs nothing. Per-request events (admitted, coalesced, ...) are
  DEBUG; lifecycle events (listening, worker death, drain) are INFO and
  WARNING, so a default ``info`` log stays quiet under load.
* **Schema'd events.** Every event name is declared in
  :data:`EVENT_FIELDS` with its required payload fields; emitting an
  undeclared event or omitting a required field raises immediately —
  the log's vocabulary cannot drift silently.
* **Deterministic in test mode.** Keys are always sorted and the clock
  is injectable, so a scripted sequence of events serializes to the
  exact same bytes every run — which is what lets
  ``tests/golden/obs_log.jsonl`` exist (regenerate it with
  ``python -m repro.obs``).
"""

from __future__ import annotations

import io
import json
import sys
import threading
import time
from typing import Any, Callable, TextIO

__all__ = [
    "DEBUG",
    "INFO",
    "WARNING",
    "ERROR",
    "LEVELS",
    "EVENT_FIELDS",
    "EventLog",
    "NULL_LOG",
    "demo_events",
]

#: Numeric severities, stdlib-logging compatible.
DEBUG, INFO, WARNING, ERROR = 10, 20, 30, 40

#: Level name -> numeric severity (accepted by :class:`EventLog`).
LEVELS = {"debug": DEBUG, "info": INFO, "warning": WARNING, "error": ERROR}

_LEVEL_NAMES = {DEBUG: "debug", INFO: "info", WARNING: "warning", ERROR: "error"}

#: The event vocabulary: every emittable event name mapped to the
#: payload fields it must carry. Extra fields are always allowed;
#: missing required fields (or an undeclared event name) raise
#: ``ValueError`` at the emission site.
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    # -- service lifecycle (worker and router) --
    "serve.listening": ("url",),
    "serve.draining": (),
    "serve.drained": ("requests_completed",),
    # -- per-request flow --
    "request.admitted": ("priority",),
    "request.shed": ("priority", "reason"),
    "request.coalesced": ("role",),
    "request.failover": ("slot",),
    "request.timeout": ("deadline_s",),
    "request.failed": ("status", "code"),
    # -- worker supervision (router side) --
    "worker.spawn": ("slot", "port", "pid"),
    "worker.death": ("slot", "restarts"),
    "worker.respawn": ("slot",),
    "worker.respawn_failed": ("error",),
    # -- result cache --
    "cache.evict": ("evicted", "entries", "bytes"),
    # -- year-scale fleet simulation heartbeats --
    "fleet.progress": ("fabric", "t_days", "failures", "repairs", "available"),
    # -- multi-tenant churn simulation heartbeats --
    "tenancy.progress": (
        "fabric", "t_days", "arrivals", "running", "queued", "rejected",
    ),
}


class EventLog:
    """Leveled JSONL event writer with a schema-checked vocabulary.

    Attributes:
        level: minimum numeric severity written.
        source: optional origin tag stamped on every record
            (``"router"``, ``"w0"``, ...).
    """

    def __init__(
        self,
        stream: TextIO | None = None,
        *,
        level: str | int = "info",
        source: str | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if isinstance(level, str):
            try:
                level = LEVELS[level]
            except KeyError:
                raise ValueError(
                    f"unknown log level {level!r}; choose from {list(LEVELS)}"
                ) from None
        self.level = int(level)
        self.source = source
        self._stream = stream if stream is not None else sys.stderr
        self._clock = clock if clock is not None else time.time
        self._lock = threading.Lock()

    # -- guards ------------------------------------------------------------------

    def enabled_for(self, level: int) -> bool:
        """Whether a record at ``level`` would be written (the hot-path
        guard — call sites skip field construction when false)."""
        return level >= self.level

    # -- emission ----------------------------------------------------------------

    def emit(self, level: int, event: str, **fields: Any) -> None:
        """Write one schema-checked record at ``level``; a record the
        stream cannot take (``OSError``) is dropped, not raised.

        Raises:
            ValueError: for an event name outside :data:`EVENT_FIELDS`
                or a record missing one of its required fields.
        """
        required = EVENT_FIELDS.get(event)
        if required is None:
            raise ValueError(
                f"undeclared event {event!r}; declare it in "
                f"repro.obs.log.EVENT_FIELDS"
            )
        missing = [name for name in required if name not in fields]
        if missing:
            raise ValueError(f"event {event!r} missing fields {missing}")
        if not self.enabled_for(level):
            return
        record: dict[str, Any] = {
            "ts": round(self._clock(), 6),
            "level": _LEVEL_NAMES.get(level, str(level)),
            "event": event,
        }
        if self.source is not None:
            record["source"] = self.source
        record.update(fields)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with self._lock:
            try:
                self._stream.write(line + "\n")
                self._stream.flush()
            except OSError:
                pass  # the reader is gone (a dead router held a worker's stderr)

    def debug(self, event: str, **fields: Any) -> None:
        self.emit(DEBUG, event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.emit(INFO, event, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        self.emit(WARNING, event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.emit(ERROR, event, **fields)

    def child(self, source: str) -> "EventLog":
        """A log sharing this one's stream/level/clock with a new source."""
        clone = EventLog(
            self._stream, level=self.level, source=source, clock=self._clock
        )
        clone._lock = self._lock
        return clone


class _NullLog(EventLog):
    """The off state: every level disabled, every record dropped.

    Schema validation still runs in :meth:`emit` (an undeclared event is
    a bug regardless of log level), but guarded call sites never reach
    it.
    """

    def __init__(self) -> None:
        super().__init__(io.StringIO(), level=ERROR + 10)

    def enabled_for(self, level: int) -> bool:
        return False

    def emit(self, level: int, event: str, **fields: Any) -> None:
        if EVENT_FIELDS.get(event) is None:
            raise ValueError(
                f"undeclared event {event!r}; declare it in "
                f"repro.obs.log.EVENT_FIELDS"
            )


#: Shared disabled log — the ``log or NULL_LOG`` default for optional
#: ``log`` parameters, mirroring :data:`repro.obs.tracer.NULL_TRACER`.
NULL_LOG = _NullLog()


def demo_events(log: EventLog) -> None:
    """Emit one representative record per event family.

    Drives the golden test: with an injected clock this sequence
    serializes byte-identically every run
    (``tests/golden/obs_log.jsonl``).
    """
    log.info(
        "serve.listening",
        url="http://127.0.0.1:8421",
        message="repro serve listening on http://127.0.0.1:8421",
    )
    log.debug("request.admitted", priority="interactive", queue_depth=1)
    log.debug("request.coalesced", role="follower", key="ab12cd34")
    log.warning("request.shed", priority="batch", reason="queue_full")
    log.warning("request.failover", slot=1, key="ab12cd34")
    log.warning("request.timeout", deadline_s=60.0)
    log.error("request.failed", status=502, code="no_worker")
    log.info("worker.spawn", slot=0, port=40001, pid=4242)
    log.warning("worker.death", slot=0, restarts=1)
    log.info("worker.respawn", slot=0)
    log.error("worker.respawn_failed", error="spawn timed out")
    log.info("cache.evict", evicted=3, entries=61, bytes=524288)
    log.info(
        "fleet.progress",
        fabric="photonic",
        t_days=36.5,
        failures=12,
        repairs=11,
        available=4094,
    )
    log.info(
        "tenancy.progress",
        fabric="photonic",
        t_days=3.5,
        arrivals=5286,
        running=18,
        queued=2,
        rejected=24,
    )
    log.info("serve.draining")
    log.info(
        "serve.drained",
        requests_completed=7,
        message="drained cleanly (7 requests completed)",
    )

