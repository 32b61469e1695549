"""Micro-benchmarks of the discrete-event simulation kernel.

These time the substrate itself (event throughput, process switching,
store operations) so regressions in the kernel are visible independently
of the scheduling experiments.

Besides the pytest-benchmark cases, the module is directly runnable as
the repo's kernel-throughput gate:

    python benchmarks/bench_kernel.py                  # measure + report
    python benchmarks/bench_kernel.py --check          # fail on >20% regression
    python benchmarks/bench_kernel.py --update-baseline

The headline numbers are **events/sec** (kernel events processed per
wall second across a mixed timeout / process-switch / store-contention
workload) and **decisions/sec** (scheduler passes driven per wall second
through a full Adaptive-RL experiment).  A committed reference snapshot
lives in ``benchmarks/baselines/kernel_baseline.json``; CI compares the
current build against it.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

from repro.obs import NULL_TELEMETRY, capture
from repro.sim import Environment, Store


def bench_kernel_timeout_throughput(benchmark):
    """Schedule and drain 20k bare timeouts."""

    def run():
        env = Environment()
        for i in range(20_000):
            env.timeout(i % 97)
        env.run()
        return env.now

    result = benchmark(run)
    assert result == 96


def bench_kernel_timeout_throughput_null_recorder(benchmark):
    """The 20k-timeout drain with the null telemetry passed explicitly.

    Must track ``bench_kernel_timeout_throughput`` to within noise — the
    null path is one attribute check per event; compare the two
    trajectories to see the disabled-telemetry overhead.
    """

    def run():
        env = Environment(telemetry=NULL_TELEMETRY)
        for i in range(20_000):
            env.timeout(i % 97)
        env.run()
        return env.now

    result = benchmark(run)
    assert result == 96


def bench_kernel_timeout_throughput_instrumented(benchmark):
    """The 20k-timeout drain with live metrics collection.

    The gap between this and the null-recorder case is the cost of the
    per-event counter/gauge updates when observability is armed.
    """

    def run():
        tel = capture(trace=False, metrics=True)
        env = Environment(telemetry=tel)
        for i in range(20_000):
            env.timeout(i % 97)
        env.run()
        assert tel.metrics.get("sim.events_processed").value == 20_000
        return env.now

    result = benchmark(run)
    assert result == 96


def bench_kernel_process_switching(benchmark):
    """Two processes ping-pong through a rendezvous store 5k times."""

    def run():
        env = Environment()
        a_to_b = Store(env, capacity=1)
        b_to_a = Store(env, capacity=1)
        count = 5000

        def ping(env):
            for i in range(count):
                yield a_to_b.put(i)
                yield b_to_a.get()

        def pong(env):
            for _ in range(count):
                item = yield a_to_b.get()
                yield b_to_a.put(item)

        env.process(ping(env))
        env.process(pong(env))
        env.run()
        return count

    assert benchmark(run) == 5000


def bench_kernel_many_processes(benchmark):
    """1k concurrent clock processes, 20 ticks each."""

    def run():
        env = Environment()
        done = []

        def clock(env, period):
            for _ in range(20):
                yield env.timeout(period)
            done.append(period)

        for i in range(1000):
            env.process(clock(env, 1.0 + (i % 7) * 0.1))
        env.run()
        return len(done)

    assert benchmark(run) == 1000


def bench_kernel_store_contention(benchmark):
    """100 producers and 100 consumers over one bounded store."""

    def run():
        env = Environment()
        store = Store(env, capacity=8)
        got = []

        def producer(env, k):
            for i in range(20):
                yield env.timeout(0.01 * (k % 5))
                yield store.put((k, i))

        def consumer(env):
            while True:
                got.append((yield store.get()))

        for k in range(100):
            env.process(producer(env, k))
        for _ in range(100):
            env.process(consumer(env))
        env.run(until=1000.0)
        return len(got)

    assert benchmark(run) == 2000


# ---------------------------------------------------------------------------
# Runnable throughput gate (events/sec, decisions/sec vs committed baseline)
# ---------------------------------------------------------------------------

BASELINE_PATH = Path(__file__).parent / "baselines" / "kernel_baseline.json"
#: Frozen snapshot from before the struct-of-arrays kernel work; kept so
#: the SoA speedup (events/sec vs the scalar hot loop) stays measurable
#: after ``--update-baseline`` raises the regression floor.
PRE_SOA_BASELINE_PATH = (
    Path(__file__).parent / "baselines" / "kernel_baseline_pre_soa.json"
)
OUT_PATH = Path(__file__).parent / "out" / "kernel_throughput.json"

#: Shape of the decisions/sec experiment (mirrors the golden-seed config).
DECISION_CONFIG = dict(
    scheduler="adaptive-rl", seed=11, num_tasks=300, arrival_period=600.0
)


def _scenario_timeouts(env: Environment) -> None:
    """Bulk timeout create + drain at large-scale pending-event counts.

    100k in-flight timeouts over ~10k distinct fire times — the shape of
    a cluster simulation with thousands of tasks in service at once.
    """
    for i in range(100_000):
        env.timeout(i % 9_973)
    env.run()


#: Simulated-time extent of each scenario's real work, used as the
#: sampler horizon under ``--with-sampler``.  A horizon past the last
#: event would keep the self-rescheduling tick alive in an otherwise
#: empty queue, timing phantom samples no real run would take.
_SCENARIO_HORIZONS = {
    "timeouts": 9_973.0,        # ~199 live ticks at the default cadence
    "pingpong": 1.0,            # zero-delay: all work at t=0
    "many_processes": 33.0,     # 20 ticks x max period 1.6
}

def _scenario_pingpong(env: Environment) -> None:
    """Two processes rendezvous through capacity-1 stores (zero-delay)."""
    a_to_b = Store(env, capacity=1)
    b_to_a = Store(env, capacity=1)
    count = 4000

    def ping(env):
        for i in range(count):
            yield a_to_b.put(i)
            yield b_to_a.get()

    def pong(env):
        for _ in range(count):
            item = yield a_to_b.get()
            yield b_to_a.put(item)

    env.process(ping(env))
    env.process(pong(env))
    env.run()


def _scenario_many_processes(env: Environment) -> None:
    """5k concurrent clock processes, 20 ticks each (wide event front)."""
    def clock(env, period):
        for _ in range(20):
            yield env.timeout(period)

    for i in range(5000):
        env.process(clock(env, 1.0 + (i % 7) * 0.1))
    env.run()


#: ``(name, scenario, events)`` — *events* is the exact kernel event
#: count when it is analytic (spares a metered dry run over large
#: scenarios), or ``None`` to count via a metered dry run.
KERNEL_SCENARIOS = (
    ("timeouts", _scenario_timeouts, 100_000),
    ("pingpong", _scenario_pingpong, None),
    ("many_processes", _scenario_many_processes, None),
)


def _count_events(scenario, events: int | None = None) -> int:
    """Exact kernel events processed by *scenario*.

    Uses the declared analytic count when available; otherwise a
    metered dry run.
    """
    if events is not None:
        return events
    tel = capture(trace=False, metrics=True)
    env = Environment(telemetry=tel)
    scenario(env)
    return int(tel.metrics.get("sim.events_processed").value)


def _sampling_env(until: float) -> Environment:
    """An Environment with the flight recorder armed and sampling live.

    The sampler's only probe reads the kernel's event count — the same
    read the run-level events/sec series performs — so ``--with-sampler``
    times the recorder's structural overhead (the self-rescheduling tick
    plus per-event counting), not probe-specific work.  *until* is the
    scenario's real simulated-time extent: scenarios shorter than one
    cadence schedule no tick and measure the recorder's per-event floor
    (the live event counter); ``timeouts`` spans ~199 cadences and
    exercises the tick machinery itself.
    """
    from repro.obs import DEFAULT_SAMPLE_EVERY, PeriodicSampler, Telemetry
    from repro.obs.timeseries import SeriesBank

    tel = Telemetry(series=SeriesBank())
    env = Environment(telemetry=tel)

    def probe(bank, now, env=env):
        bank.record("sim.events", now, float(env.events_processed or 0))

    PeriodicSampler(
        tel.series,
        every=DEFAULT_SAMPLE_EVERY,
        until=until,
        probes=(probe,),
    ).attach(env)
    return env


def measure_events_per_sec(
    repeats: int = 5, with_sampler: bool = False
) -> dict:
    """Best-of-*repeats* events/sec per scenario plus the pooled headline."""
    per_scenario: dict[str, dict] = {}
    total_events = 0
    total_seconds = 0.0
    for name, scenario, declared in KERNEL_SCENARIOS:
        events = _count_events(scenario, declared)
        best = float("inf")
        for _ in range(repeats):
            env = (
                _sampling_env(until=_SCENARIO_HORIZONS[name])
                if with_sampler
                else Environment(telemetry=NULL_TELEMETRY)
            )
            # Collector passes landing inside one mode's timing window
            # and not the other's swamp the few-percent deltas this gate
            # watches, so the timed region runs with the GC paused.
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                scenario(env)
                best = min(best, time.perf_counter() - t0)
            finally:
                gc.enable()
            # The sampled run drains extra tick events; credit the
            # events it actually processed, not the dry-run count.
            if with_sampler:
                events = int(env.events_processed or events)
        per_scenario[name] = {
            "events": events,
            "seconds": round(best, 6),
            "events_per_sec": round(events / best, 1),
        }
        total_events += events
        total_seconds += best
    return {
        "scenarios": per_scenario,
        "events_per_sec": round(total_events / total_seconds, 1),
    }


def measure_decisions_per_sec(
    repeats: int = 3, with_sampler: bool = False
) -> dict:
    """Scheduler passes per wall second through a full experiment."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment

    config = ExperimentConfig(**DECISION_CONFIG)
    best = float("inf")
    cycles = groups = 0
    for _ in range(repeats):
        telemetry = (
            capture(trace=False, metrics=False, series=True)
            if with_sampler
            else None
        )
        t0 = time.perf_counter()
        result = run_experiment(config, telemetry=telemetry)
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
            cycles = result.scheduler.learning_cycles
            groups = sum(
                a.groups_dispatched
                for a in getattr(result.scheduler, "agents", {}).values()
            ) or result.metrics.num_tasks
    return {
        "config": dict(DECISION_CONFIG),
        "cycles": cycles,
        "groups_dispatched": groups,
        "seconds": round(best, 6),
        "decisions_per_sec": round(cycles / best, 1),
    }


def run_throughput(with_sampler: bool = False) -> dict:
    """Measure both headline numbers and write them to ``benchmarks/out``."""
    payload = {
        "kernel": measure_events_per_sec(with_sampler=with_sampler),
        "decision_loop": measure_decisions_per_sec(with_sampler=with_sampler),
        "with_sampler": with_sampler,
    }
    payload["events_per_sec"] = payload["kernel"]["events_per_sec"]
    payload["decisions_per_sec"] = payload["decision_loop"]["decisions_per_sec"]
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(payload, indent=1))
    return payload


def _pooled_events_per_sec(snapshot: dict, names) -> float:
    """Pooled kernel events/sec of *snapshot* over the scenarios *names*."""
    scenarios = snapshot["kernel"]["scenarios"]
    events = sum(scenarios[name]["events"] for name in names)
    seconds = sum(scenarios[name]["seconds"] for name in names)
    return events / seconds


def check_against_baseline(payload: dict, min_ratio: float = 0.8) -> list[str]:
    """Compare *payload* to the committed baseline.

    Returns a list of human-readable failures (empty = pass).  A headline
    below ``min_ratio × baseline`` is a regression.  The events/sec
    reference is the baseline pooled over the scenarios *payload*
    measured, from its per-scenario events and seconds, so the two sides
    always cover the same scenario set.
    """
    if not BASELINE_PATH.exists():
        return [f"no committed baseline at {BASELINE_PATH}"]
    baseline = json.loads(BASELINE_PATH.read_text())
    names = list(payload["kernel"]["scenarios"])
    refs = {
        "events_per_sec": _pooled_events_per_sec(baseline, names),
        "decisions_per_sec": baseline["decisions_per_sec"],
    }
    failures = []
    for key, ref in refs.items():
        cur = payload[key]
        ratio = cur / ref if ref else float("inf")
        line = f"{key}: {cur:,.0f} vs baseline {ref:,.0f} ({ratio:.2f}x)"
        print(line)
        if ratio < min_ratio:
            failures.append(f"regression: {line} < {min_ratio:.2f}x floor")
    if PRE_SOA_BASELINE_PATH.exists():
        pre = _pooled_events_per_sec(
            json.loads(PRE_SOA_BASELINE_PATH.read_text()), names
        )
        speedup = payload["events_per_sec"] / pre
        print(
            f"events_per_sec speedup vs pre-SoA snapshot "
            f"({pre:,.0f}, same scenarios): {speedup:.2f}x"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed baseline; exit 1 on regression",
    )
    parser.add_argument(
        "--min-ratio", type=float, default=0.8,
        help="regression floor as a fraction of baseline (default 0.8)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the committed baseline from this run",
    )
    parser.add_argument(
        "--with-sampler", action="store_true",
        help="measure with the flight recorder's periodic sampler "
        "attached (its overhead must stay inside the --min-ratio floor)",
    )
    args = parser.parse_args(argv)
    if args.with_sampler and args.update_baseline:
        parser.error("--update-baseline must measure the uninstrumented build")

    payload = run_throughput(with_sampler=args.with_sampler)
    print(json.dumps(payload, indent=1))
    if args.update_baseline:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(json.dumps(payload, indent=1))
        print(f"baseline updated: {BASELINE_PATH}")
    if args.check:
        failures = check_against_baseline(payload, args.min_ratio)
        for failure in failures:
            print(failure, file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
