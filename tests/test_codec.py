"""Tests for ``repro.api.codec`` — the one JSON rule every record follows."""

import ast
import json
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.api import (
    DiskResultCache,
    FleetPolicyReport,
    FleetSeriesPoint,
    MetricLine,
    MetricsReport,
    RunResult,
    ScenarioSpec,
    SweepPlan,
    TraceReport,
    run,
    spec_key,
    table1_slices,
)
from repro.api.codec import OPTIONAL, Record, decode, encode
from repro.analysis.trace_summary import CategorySummary
from repro.obs.tracer import TraceEvent


@dataclass(frozen=True)
class Inner(Record):
    count: int
    share: float = 0.5


@dataclass(frozen=True)
class Outer(Record):
    name: str
    note: str | None = field(default=None, metadata=OPTIONAL)
    inner: Inner = field(default_factory=lambda: Inner(1))
    points: tuple[tuple[int, ...], ...] = ()
    pair: tuple[str, bool] = ("a", True)
    by_name: dict[str, tuple[int, ...]] | None = None

    _derived = {
        "ratio": lambda outer: (
            outer.inner.share / outer.inner.count
            if outer.inner.count else float("inf")
        ),
        "first": lambda outer: outer.points[:1],
    }


def _fleet_policy_fields():
    names = FleetPolicyReport.__dataclass_fields__
    data = {name: 0 for name in names}
    data.update(fabric="photonic", mean_availability=1.0, series=[])
    return data


class TestEncoding:
    def test_fields_in_declaration_order_then_optional_then_derived(self):
        outer = Outer("x", note="n", points=((1, 2),), by_name={"k": (3,)})
        assert list(outer.to_dict()) == [
            "name", "inner", "points", "pair", "by_name", "note",
            "ratio", "first",
        ]

    def test_optional_field_omitted_at_its_default(self):
        data = Outer("x").to_dict()
        assert "note" not in data
        assert list(data)[:4] == ["name", "inner", "points", "pair"]

    def test_tuples_become_lists_and_records_dicts(self):
        data = Outer("x", points=((1, 2), (3,)), by_name={"k": (4,)}).to_dict()
        assert data["inner"] == {"count": 1, "share": 0.5}
        assert data["points"] == [[1, 2], [3]]
        assert data["pair"] == ["a", True]
        assert data["by_name"] == {"k": [4]}
        assert data["first"] == [[1, 2]]

    def test_derived_inf_is_written_as_null(self):
        assert Outer("x", inner=Inner(0)).to_dict()["ratio"] is None

    def test_int_in_float_field_survives_decode_encode(self):
        point = FleetSeriesPoint.from_dict(
            {"start_s": 0, "end_s": 86400, "mean_available_chips": 4096}
        )
        assert type(point.start_s) is int
        assert json.dumps(point.to_dict()) == (
            '{"start_s": 0, "end_s": 86400, "mean_available_chips": 4096}'
        )

    def test_non_record_dataclass_uses_its_own_form(self):
        event = TraceEvent("span", "phase", "X", 1.0, dur_us=2.0)
        data = TraceReport(events=(event,)).to_dict()
        assert list(data) == ["time_unit", "events"]
        assert data["events"] == [event.to_dict()]
        assert "ts" in data["events"][0]
        assert TraceReport.from_dict(data).events == (event,)

    def test_every_record_round_trips(self):
        outer = Outer("x", note="n", points=((1, 2),), by_name={"k": (3,)})
        assert Outer.from_json(outer.to_json()) == outer
        plan = SweepPlan()
        assert SweepPlan.from_dict(plan.to_dict()) == plan
        summary = CategorySummary("phase", 1, 2, 3.0, 0.0, 5.0)
        assert CategorySummary.from_dict(summary.to_dict()) == summary


class TestDecoding:
    def test_derived_key_is_ignored(self):
        data = Outer("x").to_dict()
        assert "ratio" in data
        assert Outer.from_dict(data) == Outer("x")

    def test_unknown_key_names_the_class(self):
        with pytest.raises(TypeError, match=r"^Outer\.bogus: unknown key"):
            Outer.from_dict({"name": "x", "bogus": 1})
        with pytest.raises(TypeError, match=r"^Inner\.total: unknown key"):
            Outer.from_dict({"name": "x", "inner": {"count": 1, "total": 2}})

    def test_missing_required_field(self):
        with pytest.raises(TypeError, match=r"^Outer\.name: missing"):
            Outer.from_dict({})
        with pytest.raises(TypeError, match=r"^Inner\.count: missing"):
            Outer.from_dict({"name": "x", "inner": {}})

    def test_absent_keys_take_their_defaults(self):
        assert Outer.from_dict({"name": "x"}) == Outer("x")

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"name": 1}, "Outer.name: expected string, got integer"),
            ({"name": None}, "Outer.name: expected string, got null"),
            ({"name": "x", "inner": []},
             "Outer.inner: expected object, got array"),
            ({"name": "x", "inner": {"count": True}},
             "Inner.count: expected integer, got boolean"),
            ({"name": "x", "inner": {"count": 1.0}},
             "Inner.count: expected integer, got number"),
            ({"name": "x", "inner": {"count": "1"}},
             "Inner.count: expected integer, got string"),
            ({"name": "x", "inner": {"count": 1, "share": False}},
             "Inner.share: expected number, got boolean"),
            ({"name": "x", "points": [1]},
             "Outer.points: expected array, got integer"),
            ({"name": "x", "points": [["1"]]},
             "Outer.points: expected integer, got string"),
            ({"name": "x", "pair": ["a"]},
             "Outer.pair: expected array of 2, got 1 items"),
            ({"name": "x", "pair": ["a", 1]},
             "Outer.pair: expected boolean, got integer"),
            ({"name": "x", "by_name": []},
             "Outer.by_name: expected object, got array"),
            ({"name": "x", "by_name": {"k": [None]}},
             "Outer.by_name: expected integer, got null"),
        ],
    )
    def test_wrong_kind_names_class_and_field(self, data, message):
        with pytest.raises(TypeError) as excinfo:
            Outer.from_dict(data)
        assert str(excinfo.value) == message

    def test_top_level_must_be_an_object(self):
        with pytest.raises(TypeError, match="^Outer: expected object"):
            Outer.from_dict([])

    def test_post_init_still_runs(self):
        report = MetricsReport.from_dict({"entries": [
            encode(MetricLine("b", "counter", 1)),
            {"name": "a", "kind": "gauge", "value": 2.5},
        ]})
        assert report.names() == ("a", "b")
        assert decode(MetricsReport, encode(report)) == report
        with pytest.raises(ValueError, match="mean_availability"):
            FleetPolicyReport.from_dict(
                {**_fleet_policy_fields(), "mean_availability": 1.5}
            )

    def test_type_hints_resolved_once_per_class(self, monkeypatch):
        @dataclass(frozen=True)
        class Fresh(Record):
            values: tuple[int, ...] = ()

        calls = []
        real = typing.get_type_hints
        monkeypatch.setattr(
            typing, "get_type_hints",
            lambda *a, **k: calls.append(a) or real(*a, **k),
        )
        for n in range(5):
            assert Fresh.from_dict({"values": [n]}).to_dict() == {"values": [n]}
        assert len(calls) == 1


class TestBoundaries:
    def test_codec_imports_only_the_standard_library(self):
        import repro.api.codec as codec

        tree = ast.parse(Path(codec.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0, "relative import"
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "__future__"

    def test_spec_rejects_coercions_it_used_to_make(self):
        for data in (
            {"rack_shape": ["4", "4", "4"]},
            {"rack_shape": [4.0, 4, 4]},
            {"buffer_bytes": True},
            {"failures": {"failed_chips": [[0, 0, "0"]]}},
        ):
            with pytest.raises(TypeError, match=r"^\w+\.\w+: expected"):
                ScenarioSpec.from_dict(data)

    def test_post_init_coercions_stay(self):
        spec = ScenarioSpec(rack_shape=[4, 4, 4])
        assert spec.rack_shape == (4, 4, 4)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert spec_key(ScenarioSpec.from_json(spec.to_json())) == spec_key(spec)

    def test_wrong_kind_cache_entry_reads_as_a_miss(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        result = run(ScenarioSpec(slices=table1_slices()))
        key = spec_key(result.spec)
        cache.put(key, result)
        assert cache.get(key) == result
        path = next(tmp_path.rglob(f"{key}.json"))
        data = json.loads(path.read_text(encoding="utf-8"))
        data["costs"]["buffer_bytes"] = str(data["costs"]["buffer_bytes"])
        path.write_text(json.dumps(data), encoding="utf-8")
        assert cache.get(key) is None
        assert not path.exists()

    def test_run_result_rejects_unknown_section(self):
        data = run(ScenarioSpec(slices=table1_slices())).to_dict()
        data["extra"] = None
        with pytest.raises(TypeError, match=r"^RunResult\.extra: unknown key"):
            RunResult.from_dict(data)
