"""Observability overhead: tracer-off must cost (near) nothing.

The tracing layer's contract is zero overhead when off — every sim call
site guards on ``tracer.enabled`` against the shared ``NULL_TRACER``
singleton, so an uninstrumented run executes no event construction at
all. Two benches hold the layer to it: the first measures the same
simulated workload with tracing off and on and asserts the results are
*exactly equal* (observation never perturbs the simulation), the second
that an uninstrumented result still serializes byte-identically to a
result produced with no observability code in the process at all.

The wall-clock side (a ``Tracer`` with a clock, plus ``repro.obs.log``)
makes the same promise for the serving tier: with no ``--trace-dir`` the
shared ``NULL_TRACER``/``NULL_LOG`` singletons report disabled,
guarded call sites construct nothing, and an evaluation produces bytes
identical to a session with no runtime wiring at all.
"""

import time

from _helpers import emit
from repro.api import FabricSession, FailurePlan, ScenarioSpec, figure6_slices
from repro.obs.log import DEBUG, NULL_LOG
from repro.obs.tracer import NULL_TRACER, Tracer


def _sim_spec(outputs=("telemetry",)):
    return ScenarioSpec(
        fabric="photonic",
        slices=figure6_slices(),
        mode="sim",
        outputs=outputs,
        failures=FailurePlan(failed_chips=((1, 2, 0),)),
    )


def test_tracer_off_results_identical(benchmark):
    plain = FabricSession().run(_sim_spec())

    def run_uninstrumented():
        return FabricSession().run(_sim_spec())

    timed = benchmark.pedantic(run_uninstrumented, rounds=3, iterations=1)
    assert timed == plain
    # The tracer-off path never recorded anything anywhere.
    assert NULL_TRACER.events == ()
    assert timed.to_json() == plain.to_json()
    emit(
        "Observability — tracer-off run",
        "uninstrumented sim results exactly equal and byte-identical "
        "as JSON; NULL_TRACER recorded 0 events",
    )


def test_traced_run_observation_only(benchmark):
    plain = FabricSession().run(_sim_spec())

    def run_traced():
        return FabricSession().run(
            _sim_spec(outputs=("telemetry", "trace", "metrics"))
        )

    traced = benchmark.pedantic(run_traced, rounds=3, iterations=1)
    assert traced.telemetry == plain.telemetry
    assert len(traced.trace.events) > 100
    emit(
        "Observability — traced run",
        f"{len(traced.trace.events)} events captured; telemetry exactly "
        "equal to the uninstrumented run",
    )


def _cost_spec(seed=0):
    from repro.api import SliceSpec

    return ScenarioSpec(
        slices=(SliceSpec("S", (2, 2, 1), (0, 0, 0)),),
        outputs=("costs",),
        seed=seed,
    )


def test_runtime_tracer_off_bytes_identical(benchmark):
    """A session with the default (off) runtime tracer produces the same
    bytes as one traced with wall-clock spans — and records nothing."""
    traced_runtime = Tracer("bench", clock=time.time)
    traced = FabricSession(runtime=traced_runtime).run(_cost_spec())

    def run_untraced():
        return FabricSession().run(_cost_spec())

    untraced = benchmark.pedantic(run_untraced, rounds=5, iterations=1)
    assert untraced.to_json() == traced.to_json()
    assert NULL_TRACER.events == ()
    assert len(traced_runtime.spans("session")) >= 1
    emit(
        "Observability — runtime tracer off",
        "untraced evaluation byte-identical to a traced one; "
        "NULL_TRACER recorded 0 events, traced session left "
        f"{len(traced_runtime.spans('session'))} span(s)",
    )


def test_null_log_and_tracer_guards_cost_nothing():
    """The hot-path guards (``log.enabled_for`` / ``runtime.enabled``)
    on the off singletons must stay nanosecond-scale — they run once or
    twice per request through the serving tier.

    Timed with ``time.perf_counter`` rather than the ``benchmark``
    fixture, whose stats are absent under ``--benchmark-disable``."""
    ITERATIONS = 100_000
    ROUNDS = 3

    def guarded_loop():
        hits = 0
        for _ in range(ITERATIONS):
            if NULL_LOG.enabled_for(DEBUG):  # pragma: no cover
                hits += 1
            if NULL_TRACER.enabled:  # pragma: no cover
                hits += 1
        return hits

    started = time.perf_counter()
    hits = sum(guarded_loop() for _ in range(ROUNDS))
    mean_s = (time.perf_counter() - started) / ROUNDS
    assert hits == 0
    per_guard_ns = mean_s / (2 * ITERATIONS) * 1e9
    # Generous ceiling: a Python attribute read + compare, not real work.
    assert per_guard_ns < 2_000
    emit(
        "Observability — off-state guards",
        f"{per_guard_ns:.0f} ns per guard check "
        f"({2 * ITERATIONS} checks); nothing emitted",
    )
