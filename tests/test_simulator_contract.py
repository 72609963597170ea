"""The contract the fleet and tenancy simulators keep through their
shared scaffold: progress heartbeats are not events and change no
result, and a finished run frees itself by reference counting."""

import gc
import io
import json
import weakref

import pytest

from repro.cli import main
from repro.fleet import FABRICS, FleetConfig, FleetSimulator, make_policy
from repro.obs.log import EventLog
from repro.tenancy import (
    TenancyConfig,
    TenancySimulator,
    make_placement_policy,
)
from repro.tenancy.policies import SteerOnArrivalPolicy

DAY_S = 86400.0

FLEET = FleetConfig(
    racks=2,
    chips_per_rack=8,
    chips_per_server=2,
    horizon_s=30 * DAY_S,
    mtbf_s=10 * DAY_S,
    seed=3,
)

TENANCY = TenancyConfig(
    racks=2,
    horizon_s=6 * 3600.0,
    arrivals_per_day=2400.0,
    seed=3,
    series_points=6,
)

#: (fabric, steering) pairs a tenancy run can take.
TENANCY_FABRICS = [
    ("electrical", False),
    ("photonic", False),
    ("photonic", True),
]


def _fleet(fabric, policy="batched", log=None):
    return FleetSimulator(FLEET, fabric, make_policy(policy), log=log)


def _tenancy(fabric, steering, policy="defrag", log=None):
    placement = make_placement_policy(policy)
    if steering:
        placement = SteerOnArrivalPolicy(placement)
    return TenancySimulator(TENANCY, fabric, placement, log=log)


def _progress(sink, event):
    records = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert all(r["event"] == event for r in records)
    return records


class TestProgress:
    """A logged run reports at each tenth of the horizon and otherwise
    equals a silent run, ``events_processed`` included."""

    @pytest.mark.parametrize("fabric", FABRICS)
    def test_fleet(self, fabric):
        sink = io.StringIO()
        logged = _fleet(fabric, log=EventLog(sink, level="info")).run()
        assert logged == _fleet(fabric).run()
        records = _progress(sink, "fleet.progress")
        assert [r["t_days"] for r in records] == [
            round(k * 3.0, 3) for k in range(1, 11)
        ]
        assert {r["fabric"] for r in records} == {fabric}

    @pytest.mark.parametrize("fabric, steering", TENANCY_FABRICS)
    def test_tenancy(self, fabric, steering):
        sink = io.StringIO()
        logged = _tenancy(
            fabric, steering, log=EventLog(sink, level="info")
        ).run()
        assert logged == _tenancy(fabric, steering).run()
        records = _progress(sink, "tenancy.progress")
        assert [r["t_days"] for r in records] == [
            round(k * 0.025, 3) for k in range(1, 11)
        ]
        assert records[-1]["arrivals"] == logged.arrivals
        assert records[-1]["rejected"] == logged.rejected

    def test_a_log_above_info_gets_nothing(self):
        sink = io.StringIO()
        _fleet("photonic", log=EventLog(sink, level="warning")).run()
        assert sink.getvalue() == ""


@pytest.fixture
def no_cyclic_gc():
    """Leave only reference counting to free objects during the test."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _freed_after_run(build) -> bool:
    simulator = build()
    simulator.run()
    ref = weakref.ref(simulator)
    del simulator
    return ref() is None


@pytest.mark.usefixtures("no_cyclic_gc")
class TestFreedWhenDone:
    @pytest.mark.parametrize("fabric", FABRICS)
    @pytest.mark.parametrize("policy", ["immediate", "lazy", "batched"])
    def test_fleet(self, fabric, policy):
        assert _freed_after_run(lambda: _fleet(fabric, policy))

    @pytest.mark.parametrize("fabric, steering", TENANCY_FABRICS)
    @pytest.mark.parametrize("policy", ["first-fit", "best-fit", "defrag"])
    def test_tenancy(self, fabric, steering, policy):
        assert _freed_after_run(lambda: _tenancy(fabric, steering, policy))


class TestProgressCli:
    """``--progress`` writes heartbeats to stderr and leaves the JSON
    result byte-identical."""

    @pytest.mark.parametrize(
        "command, days",
        [("fleet", "30"), ("tenancy", "1")],
    )
    def test_heartbeats_leave_json_identical(
        self, capsys, tmp_path, command, days
    ):
        logged, quiet = tmp_path / "logged.json", tmp_path / "quiet.json"
        argv = [command, "--days", days, "--json"]
        assert main([*argv, str(logged), "--progress"]) == 0
        records = [
            json.loads(line)
            for line in capsys.readouterr().err.splitlines()
        ]
        assert [r["event"] for r in records] == [f"{command}.progress"] * 20
        assert [r["fabric"] for r in records] == (
            ["electrical"] * 10 + ["photonic"] * 10
        )
        assert main([*argv, str(quiet)]) == 0
        assert capsys.readouterr().err == ""
        assert logged.read_bytes() == quiet.read_bytes()
