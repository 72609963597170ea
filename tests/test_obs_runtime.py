"""Tests for wall-clock request tracing (a ``repro.obs.tracer.Tracer``
with a clock).

The tracer's clock is injectable, so everything here is deterministic:
a scripted clock drives spans to exact microsecond timestamps and the
exported Chrome JSON is asserted byte-for-byte stable across runs.
"""

import json

import pytest

from repro.cli import main
from repro.obs.tracer import (
    NULL_TRACER,
    TraceEvent,
    Tracer,
    merge_traces,
    new_trace_id,
    valid_trace_id,
    write_merged,
)


class FakeClock:
    """A scripted clock: each call advances by ``step`` seconds."""

    def __init__(self, start=100.0, step=0.25):
        self.now = start
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def make_tracer(name="router", pid=4242, **clock_kwargs):
    return Tracer(name, clock=FakeClock(**clock_kwargs), pid=pid)


class TestTraceIds:
    def test_minted_ids_are_valid_and_distinct(self):
        first, second = new_trace_id(), new_trace_id()
        assert valid_trace_id(first)
        assert valid_trace_id(second)
        assert first != second
        assert len(first) == 32

    @pytest.mark.parametrize(
        "value", ["abc", "Trace-1", "a.b_c-d", "x" * 64]
    )
    def test_accepts_header_safe_ids(self, value):
        assert valid_trace_id(value)

    @pytest.mark.parametrize(
        "value",
        [None, "", "x" * 65, "has space", "semi;colon", "new\nline",
         "quote\"", "ünïcode"],
    )
    def test_rejects_hostile_ids(self, value):
        assert not valid_trace_id(value)


class TestWallClockTracer:
    def test_seeds_process_name_metadata(self):
        tracer = make_tracer(name="w3", pid=77)
        (meta,) = tracer.events
        assert meta.ph == "M"
        assert meta.name == "process_name"
        assert meta.pid == 77
        assert dict(meta.args) == {"name": "w3"}

    def test_complete_records_wall_clock_span(self):
        tracer = make_tracer()
        tracer.complete(
            "router.proxy", "router", 100.0, 100.5,
            trace_id="t-1", args={"worker": "w0"},
        )
        (span,) = tracer.spans()
        assert span.ts_us == pytest.approx(100.0 * 1e6)
        assert span.dur_us == pytest.approx(0.5 * 1e6)
        assert span.pid == 4242
        assert dict(span.args) == {"worker": "w0", "trace_id": "t-1"}

    def test_complete_clamps_negative_duration(self):
        tracer = make_tracer()
        tracer.complete("x", "c", 5.0, 4.0)
        (span,) = tracer.spans()
        assert span.dur_us == 0.0

    def test_span_contextmanager_uses_clock_and_extra_args(self):
        tracer = make_tracer(start=10.0, step=1.0)
        with tracer.span("serve.request", "serve", trace_id="t-2") as extra:
            extra["cache"] = "hit"
        (span,) = tracer.spans("serve")
        assert span.ts_us == pytest.approx(10.0 * 1e6)
        assert span.dur_us == pytest.approx(1.0 * 1e6)
        assert dict(span.args) == {"cache": "hit", "trace_id": "t-2"}

    def test_span_records_even_when_body_raises(self):
        tracer = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing", "serve"):
                raise RuntimeError("boom")
        assert len(tracer.spans()) == 1

    def test_instant_stamps_current_clock(self):
        tracer = make_tracer(start=7.0, step=0.0)
        tracer.instant("router.singleflight", "router", trace_id="t-3",
                       args={"role": "follower"})
        instant = [e for e in tracer.events if e.ph == "i"][0]
        assert instant.ts_us == pytest.approx(7.0 * 1e6)
        assert dict(instant.args) == {"role": "follower", "trace_id": "t-3"}

    def test_export_bytes_deterministic(self):
        def build():
            tracer = make_tracer()
            tracer.thread_name(0, "event-loop")
            tracer.complete("b", "c", 100.0, 101.0, trace_id="t")
            tracer.complete("a", "c", 100.0, 101.0, trace_id="t")
            return tracer.to_json()

        first, second = build(), build()
        assert first == second
        names = [
            e["name"] for e in json.loads(first)["traceEvents"]
            if e["ph"] == "X"
        ]
        # Same-timestamp spans sort by name: the merge total order.
        assert names == ["a", "b"]

    def test_write_round_trips(self, tmp_path):
        tracer = make_tracer()
        tracer.complete("x", "c", 1.0, 2.0)
        path = tracer.write(tmp_path / "sub" / "t.trace.json")
        data = json.loads(path.read_text())
        assert data["displayTimeUnit"] == "ms"
        assert len(data["traceEvents"]) == 2  # metadata + span


class TestNullWallClockTracer:
    def test_disabled_and_dropping(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.complete("x", "c", 0.0, 1.0)
        NULL_TRACER.instant("x", "c")
        NULL_TRACER.thread_name(0, "x")
        with NULL_TRACER.span("x", "c") as extra:
            extra["ignored"] = True
        assert NULL_TRACER.events == ()


class TestMergeTraces:
    def _write(self, tmp_path, name, pid, spans):
        tracer = Tracer(name, clock=FakeClock(), pid=pid)
        for span_name, start, end, trace_id in spans:
            tracer.complete(span_name, "serve", start, end,
                            trace_id=trace_id)
        return tracer.write(tmp_path / f"{name}-{pid}.trace.json")

    def test_merges_processes_into_one_timeline(self, tmp_path):
        router = self._write(
            tmp_path, "router", 1, [("router.request", 0.0, 3.0, "t-9")]
        )
        worker = self._write(
            tmp_path, "w0", 2, [("serve.evaluate", 1.0, 2.0, "t-9")]
        )
        merged = merge_traces([router, worker])
        events = merged["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["pid"] for e in spans} == {1, 2}
        assert {e["args"]["trace_id"] for e in spans} == {"t-9"}
        # Metadata rows first, then spans in timestamp order.
        assert [e["ph"] for e in events] == ["M", "M", "X", "X"]

    def test_merge_is_input_order_independent(self, tmp_path):
        a = self._write(tmp_path, "router", 1, [("r", 0.0, 1.0, None)])
        b = self._write(tmp_path, "w0", 2, [("w", 0.5, 0.9, None)])
        assert merge_traces([a, b]) == merge_traces([b, a])

    def test_rejects_non_trace_json(self, tmp_path):
        bogus = tmp_path / "not-a-trace.json"
        bogus.write_text('{"hello": "world"}')
        with pytest.raises(ValueError, match="traceEvents"):
            merge_traces([bogus])

    def test_rejects_empty_inputs(self, tmp_path):
        empty = tmp_path / "empty.trace.json"
        empty.write_text('{"traceEvents": []}')
        with pytest.raises(ValueError, match="no events"):
            merge_traces([empty])

    def test_write_merged_reports_count(self, tmp_path):
        router = self._write(tmp_path, "router", 1, [("r", 0.0, 1.0, None)])
        out, count = write_merged([router], tmp_path / "out" / "m.json")
        assert out.exists()
        assert count == 2
        assert json.loads(out.read_text())["displayTimeUnit"] == "ms"


class TestUntrustedTraceInput:
    """``TraceEvent.from_dict`` checks every field of bytes it did not
    write: files given to ``repro obs merge`` and disk-cache entries."""

    GOOD = {"name": "x", "cat": "c", "ph": "X", "ts": 1.0, "dur": 2.0,
            "pid": 1, "tid": 0, "args": {"k": 1}}

    @pytest.mark.parametrize(
        "change",
        [
            {"name": 5}, {"cat": None}, {"ph": "B"}, {"ph": 1},
            {"ts": "soon"}, {"ts": float("nan")}, {"ts": True},
            {"dur": -1.0}, {"dur": float("inf")}, {"dur": "1"},
            {"pid": 1.5}, {"tid": "0"}, {"args": [1]},
        ],
    )
    def test_bad_field_is_value_error(self, change):
        with pytest.raises(ValueError, match="trace event"):
            TraceEvent.from_dict({**self.GOOD, **change})

    @pytest.mark.parametrize("missing", ["name", "cat", "ph", "ts"])
    def test_missing_field_is_value_error(self, missing):
        data = {k: v for k, v in self.GOOD.items() if k != missing}
        with pytest.raises(ValueError, match=missing):
            TraceEvent.from_dict(data)

    def test_optional_fields_default(self):
        event = TraceEvent.from_dict({"name": "x", "cat": "c", "ph": "i", "ts": 3})
        assert (event.dur_us, event.pid, event.tid, event.args) == (None, 0, 0, ())

    @pytest.mark.parametrize(
        "payload",
        [
            '{"traceEvents": 5}',
            '{"traceEvents": ["span"]}',
            '{"traceEvents": [{"name": "x", "cat": "c", "ph": "X", "ts": 0,'
            ' "dur": 1, "args": [1]}]}',
            '{"traceEvents": [{"name": "a", "cat": "c", "ph": "X", "ts": 0,'
            ' "dur": 1}, {"name": "b", "cat": "c", "ph": "X", "ts": "late",'
            ' "dur": 1}]}',
            "[" * 200_000 + "]" * 200_000,
        ],
        ids=["events-not-a-list", "event-a-string", "args-a-list", "ts-a-string",
             "nested-too-deep"],
    )
    def test_merge_cli_answers_error_exit_2(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.trace.json"
        bad.write_text(payload)
        good = tmp_path / "good.trace.json"
        make_tracer().write(good)
        out = tmp_path / "m.json"
        assert main(["obs", "merge", str(good), str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "error:" in err and "bad.trace.json" in err
        assert "Traceback" not in err
