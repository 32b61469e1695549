"""Property-based tests for the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Telemetry, capture
from repro.obs.timeseries import SeriesBank
from repro.sim import NORMAL, URGENT, Environment, SimulationError, Store


@st.composite
def delay_lists(draw):
    return draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )


class TestEventOrdering:
    @given(delays=delay_lists())
    @settings(max_examples=60, deadline=None)
    def test_timeouts_processed_in_nondecreasing_time_order(self, delays):
        env = Environment()
        fired = []
        for d in delays:
            ev = env.timeout(d)
            ev.callbacks.append(lambda e: fired.append(env.now))
        env.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(delays=delay_lists())
    @settings(max_examples=60, deadline=None)
    def test_clock_never_goes_backwards(self, delays):
        env = Environment()
        observed = []

        def watcher(env):
            last = env.now
            while True:
                yield env.timeout(0.0)
                assert env.now >= last
                last = env.now
                observed.append(env.now)
                if len(observed) > len(delays) + 5:
                    return

        for d in delays:
            env.timeout(d)
        env.process(watcher(env))
        env.run()

    @given(delays=delay_lists())
    @settings(max_examples=60, deadline=None)
    def test_equal_time_events_fifo(self, delays):
        env = Environment()
        order = []
        for i, d in enumerate(delays):
            ev = env.timeout(round(d, 3), value=i)
            ev.callbacks.append(lambda e: order.append(e.value))
        env.run()
        # Within an equal-time group, insertion order is preserved.
        by_time: dict[float, list[int]] = {}
        for i, d in enumerate(delays):
            by_time.setdefault(round(d, 3), []).append(i)
        pos = {v: i for i, v in enumerate(order)}
        for group in by_time.values():
            positions = [pos[i] for i in group]
            assert positions == sorted(positions)


class TestStoreProperties:
    @given(
        items=st.lists(st.integers(), min_size=1, max_size=50),
        capacity=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_store_preserves_order_and_loses_nothing(self, items, capacity):
        env = Environment()
        store = Store(env, capacity=capacity)
        got = []

        def producer(env):
            for item in items:
                yield store.put(item)

        def consumer(env):
            for _ in items:
                got.append((yield store.get()))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == items
        assert len(store.items) == 0

    @given(
        items=st.lists(st.integers(), min_size=1, max_size=30),
        n_consumers=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_multiple_consumers_conserve_items(self, items, n_consumers):
        env = Environment()
        store = Store(env)
        got = []

        def producer(env):
            for item in items:
                yield env.timeout(0.1)
                yield store.put(item)

        def consumer(env):
            while True:
                got.append((yield store.get()))

        env.process(producer(env))
        for _ in range(n_consumers):
            env.process(consumer(env))
        env.run(until=len(items) * 0.1 + 1.0)
        assert sorted(got) == sorted(items)


# -- the inlined run loop and the step() path are one kernel ---------------
#
# Environment.run() drains the queue with an inlined copy of step() unless
# an audit hook or a queue-depth gauge is armed, in which case it loops on
# step().  A random program is replayed under the null telemetry (inlined,
# no counter), sampling-only telemetry (inlined, live counter) and
# metering telemetry (step() path); every observable must agree.

_delays = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),  # many equal fire times
    st.floats(min_value=0.0, max_value=5.0),
)
_patience = st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.5]))
_priorities = st.sampled_from([URGENT - 3, URGENT, NORMAL, NORMAL + 4])

_ops = st.one_of(
    st.tuples(st.just("timeout"), _delays),
    st.tuples(st.just("succeed")),
    st.tuples(st.just("schedule"), _priorities, _delays),
    st.tuples(st.just("schedule_at"), _priorities, _delays),
    st.tuples(
        st.just("producer"),
        st.integers(0, 1),
        st.integers(1, 4),
        _delays,
        _patience,
    ),
    st.tuples(
        st.just("consumer"),
        st.integers(0, 1),
        st.integers(1, 4),
        _delays,
        _patience,
    ),
    st.tuples(st.just("run_for"), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
    st.tuples(st.just("run_event"), st.integers(0, 50)),
    st.tuples(st.just("run_all")),
)

_KERNELS = {
    "null": lambda: Environment(),
    "sampling": lambda: Environment(telemetry=Telemetry(series=SeriesBank())),
    "metering": lambda: Environment(
        telemetry=capture(trace=False, metrics=True)
    ),
}


def _replay(make_env, capacities, program):
    """Run *program* on a fresh environment; return everything observable."""
    env = make_env()
    stores = [Store(env, capacity=c) for c in capacities]
    log = []
    targets = []  # events a later run(until=event) may name

    def logged(ev, tag):
        ev.callbacks.append(lambda e: log.append((tag, env.now)))
        return ev

    def producer(env, store, tag, n, delay, patience):
        for i in range(n):
            yield env.timeout(delay)
            req = store.put((tag, i))
            if patience is None:
                yield req
            else:
                yield req | env.timeout(patience)
                if not req.triggered:
                    req.cancel()
            log.append((tag, "put", i, req.triggered, env.now))
        return tag

    def consumer(env, store, tag, n, delay, patience):
        for _ in range(n):
            yield env.timeout(delay)
            req = store.get()
            if patience is None:
                yield req
            else:
                yield req | env.timeout(patience)
                if not req.triggered:
                    req.cancel()
            got = req.value if req.triggered else None
            log.append((tag, "get", got, env.now))
        return tag

    for k, op in enumerate(program):
        kind = op[0]
        if kind == "timeout":
            targets.append(logged(env.timeout(op[1], value=k), k))
        elif kind == "succeed":
            targets.append(logged(env.event(), k).succeed(k))
        elif kind == "schedule":
            env.schedule(logged(env.event(), k), priority=op[1], delay=op[2])
        elif kind == "schedule_at":
            env.schedule_at(logged(env.event(), k), env.now + op[2], op[1])
        elif kind in ("producer", "consumer"):
            body = producer if kind == "producer" else consumer
            store = stores[op[1]]
            targets.append(env.process(body(env, store, k, *op[2:])))
        else:
            try:
                if kind == "run_for":
                    ret = env.run(until=env.now + op[1])
                elif kind == "run_event":
                    if not targets:
                        continue
                    ret = env.run(until=targets[op[1] % len(targets)])
                else:
                    ret = env.run()
            except SimulationError as exc:
                ret = type(exc).__name__
            log.append(("slice", k, ret, env.now))
    try:
        env.run()
    except SimulationError as exc:
        log.append(("drain", type(exc).__name__))
    log.append(("end", env.now, [list(s.items) for s in stores]))
    return log, env.events_processed


class TestRunLoopEquivalence:
    @given(
        capacities=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        program=st.lists(_ops, min_size=1, max_size=25),
    )
    @settings(max_examples=150, deadline=None)
    def test_inlined_loop_matches_step_path(self, capacities, program):
        runs = {
            name: _replay(make, capacities, program)
            for name, make in _KERNELS.items()
        }
        log, count = runs["null"]
        assert count is None
        assert runs["sampling"][0] == log
        assert runs["metering"][0] == log
        # Both armed counters saw every processed event.
        assert runs["sampling"][1] is not None
        assert runs["sampling"][1] == runs["metering"][1]
