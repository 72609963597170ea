"""Tests for the structured JSONL event log (``repro.obs.log``)."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.log import (
    DEBUG,
    ERROR,
    EVENT_FIELDS,
    INFO,
    LEVELS,
    NULL_LOG,
    WARNING,
    EventLog,
    demo_events,
)

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden" / "obs_log.jsonl"


def make_log(level="debug", source="test"):
    stream = io.StringIO()
    ticks = iter(range(10_000))
    log = EventLog(
        stream, level=level, source=source,
        clock=lambda: next(ticks) / 10,
    )
    return log, stream


def records(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestEventLog:
    def test_record_shape_and_sorted_keys(self):
        log, stream = make_log()
        log.info("request.admitted", priority="interactive")
        (line,) = stream.getvalue().splitlines()
        assert line == (
            '{"event":"request.admitted","level":"info",'
            '"priority":"interactive","source":"test","ts":0.0}'
        )

    def test_undeclared_event_raises(self):
        log, _ = make_log()
        with pytest.raises(ValueError, match="undeclared event"):
            log.info("request.teleported")

    def test_missing_required_field_raises(self):
        log, _ = make_log()
        with pytest.raises(ValueError, match="missing fields"):
            log.info("worker.spawn", slot=0)  # port and pid missing

    def test_extra_fields_allowed(self):
        log, stream = make_log()
        log.info("request.admitted", priority="batch", queue_depth=9)
        (record,) = records(stream)
        assert record["queue_depth"] == 9

    def test_level_threshold_filters(self):
        log, stream = make_log(level="warning")
        log.debug("request.admitted", priority="interactive")
        log.info("serve.draining")
        log.warning("request.shed", priority="batch", reason="queue_full")
        log.error("request.failed", status=500, code="internal")
        assert [r["level"] for r in records(stream)] == ["warning", "error"]

    def test_schema_still_enforced_below_threshold(self):
        log, stream = make_log(level="error")
        with pytest.raises(ValueError, match="undeclared event"):
            log.debug("nope.nope")
        assert stream.getvalue() == ""

    def test_enabled_for_matches_emission(self):
        log, _ = make_log(level="info")
        assert not log.enabled_for(DEBUG)
        assert log.enabled_for(INFO)
        assert log.enabled_for(WARNING)
        assert log.enabled_for(ERROR)

    def test_level_accepts_name_or_number(self):
        assert EventLog(io.StringIO(), level="warning").level == WARNING
        assert EventLog(io.StringIO(), level=WARNING).level == WARNING
        with pytest.raises(ValueError, match="unknown log level"):
            EventLog(io.StringIO(), level="loud")

    def test_child_shares_stream_with_new_source(self):
        log, stream = make_log(source="router")
        child = log.child("w0")
        log.info("serve.draining")
        child.info("serve.draining")
        first, second = records(stream)
        assert first["source"] == "router"
        assert second["source"] == "w0"


class TestNullLog:
    def test_disabled_for_everything(self):
        assert not NULL_LOG.enabled_for(ERROR)
        NULL_LOG.error("request.failed", status=500, code="internal")

    def test_still_validates_schema(self):
        with pytest.raises(ValueError, match="undeclared event"):
            NULL_LOG.info("made.up")


class TestSchemaAndGolden:
    def test_demo_covers_every_event(self):
        log, stream = make_log()
        demo_events(log)
        seen = [record["event"] for record in records(stream)]
        assert sorted(seen) == sorted(EVENT_FIELDS)

    def test_every_level_name_is_known(self):
        log, stream = make_log()
        demo_events(log)
        assert {r["level"] for r in records(stream)} <= set(LEVELS)

    def test_golden_bytes(self):
        """``python -m repro.obs`` must reproduce the checked-in golden
        byte-for-byte — the CI ``cmp`` check — without runpy's warning
        about re-executing an imported module (an error here)."""
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.obs"],
            capture_output=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == b""
        assert result.stdout == GOLDEN.read_bytes()
