"""Unit tests for the Environment run loop."""

import pytest

from repro.sim import URGENT, EmptySchedule, Environment, Event, SimulationError


class TestClock:
    def test_starts_at_initial_time(self):
        assert Environment().now == 0.0
        assert Environment(initial_time=10).now == 10.0

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_peek_returns_next_event_time(self, env):
        env.timeout(7)
        env.timeout(3)
        assert env.peek() == 3

    def test_queue_size(self, env):
        env.timeout(1)
        env.timeout(2)
        assert env.queue_size == 2


class TestRun:
    def test_run_until_time(self, env):
        env.timeout(10)
        env.run(until=5)
        assert env.now == 5

    def test_run_until_time_in_past_raises(self, env):
        env.timeout(1)
        env.run(until=5)
        with pytest.raises(ValueError):
            env.run(until=3)

    def test_run_until_current_time_is_noop(self, env):
        """``until == now`` (e.g. ``now + 0.0``) must be accepted.

        Regression test: the boundary used to be rejected along with
        genuinely past times, breaking drivers that compute a resume
        point landing exactly on the current timestamp.
        """
        env.run(until=0.0)
        assert env.now == 0.0
        fired = []
        t = env.timeout(5)
        t.callbacks.append(lambda e: fired.append("timeout"))
        env.run(until=5)
        env.run(until=env.now + 0.0)
        assert env.now == 5
        # Same-time pending events stay pending: the stop sentinel is
        # more urgent than anything else at the boundary.
        assert fired == []
        env.run()
        assert fired == ["timeout"]

    def test_run_until_event_returns_value(self, env):
        t = env.timeout(2, value="v")
        assert env.run(until=t) == "v"

    def test_run_until_already_processed_event(self, env):
        t = env.timeout(1, value="v")
        env.run(until=t)
        # Running again against the same processed event is a no-op.
        assert env.run(until=t) == "v"

    def test_run_drains_queue_when_until_none(self, env):
        env.timeout(3)
        env.timeout(9)
        env.run()
        assert env.now == 9
        assert env.queue_size == 0

    def test_run_until_never_triggered_event_raises(self, env):
        pending = Event(env)
        env.timeout(1)
        with pytest.raises(SimulationError):
            env.run(until=pending)

    def test_step_on_empty_schedule_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()

    def test_negative_schedule_delay_rejected(self, env):
        e = Event(env)
        with pytest.raises(ValueError):
            env.schedule(e, delay=-1)

    def test_stop_time_precedes_same_time_events(self, env):
        fired = []
        t = env.timeout(5)
        t.callbacks.append(lambda e: fired.append("timeout"))
        env.run(until=5)
        # The stop event at t=5 is more urgent than the timeout at t=5.
        assert fired == []
        env.run()
        assert fired == ["timeout"]

    def test_same_time_events_fifo(self, env):
        order = []
        for i in range(5):
            ev = env.timeout(1, value=i)
            ev.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_urgent_precedes_normal_at_same_future_time(self, env):
        """URGENT beats NORMAL on the timestamp tie even when the
        urgent event was scheduled later (larger sequence number)."""
        order = []
        normal = env.timeout(5)
        normal.callbacks.append(lambda e: order.append("normal"))
        urgent = Event(env)
        urgent.callbacks.append(lambda e: order.append("urgent"))
        env.schedule(urgent, priority=URGENT, delay=5)
        env.run()
        assert order == ["urgent", "normal"]

    def test_urgent_precedes_normal_zero_delay(self, env):
        order = []
        normal = Event(env)
        normal.callbacks.append(lambda e: order.append("normal"))
        normal.succeed()  # zero-delay NORMAL
        urgent = Event(env)
        urgent.callbacks.append(lambda e: order.append("urgent"))
        env.schedule(urgent, priority=URGENT)
        env.run()
        assert order == ["urgent", "normal"]

    def test_stop_sentinel_precedes_urgent_at_same_time(self, env):
        """run(until=t) stops before processing anything at t — the
        sentinel's ``URGENT - 1`` priority wins every same-time tie."""
        order = []
        urgent = Event(env)
        urgent.callbacks.append(lambda e: order.append("urgent"))
        env.schedule(urgent, priority=URGENT, delay=5)
        env.run(until=5)
        assert env.now == 5
        assert order == []
        env.run()
        assert order == ["urgent"]


class TestFactories:
    def test_event_factory(self, env):
        assert isinstance(env.event(), Event)

    def test_any_of_all_of_factories(self, env):
        t1, t2 = env.timeout(1), env.timeout(2)
        env.run(until=env.any_of([t1, t2]))
        assert env.now == 1
        t3, t4 = env.timeout(1), env.timeout(2)
        env.run(until=env.all_of([t3, t4]))
        assert env.now == 3


NAN = float("nan")
INF = float("inf")


class TestNonFiniteTimes:
    """NaN compares false with everything, so a ``delay < 0`` guard
    would let it into the calendar and the clock would leave the
    ``(time, priority, insertion-order)`` total order."""

    def test_nan_timeout_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(NAN)
        assert env.queue_size == 0

    def test_nan_schedule_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.schedule(Event(env), delay=NAN)
        with pytest.raises(ValueError):
            env.schedule(Event(env), priority=URGENT, delay=NAN)
        assert env.queue_size == 0

    def test_nan_schedule_at_rejected(self, env):
        with pytest.raises(ValueError):
            env.schedule_at(Event(env), NAN)
        assert env.queue_size == 0

    def test_nan_run_until_rejected(self, env):
        env.timeout(1)
        with pytest.raises(ValueError):
            env.run(until=NAN)
        assert env.queue_size == 1
        env.run()
        assert env.now == 1

    def test_nan_timeout_fails_its_process(self, env):
        resumed = []

        def waiter(env, delay):
            yield env.timeout(delay)
            resumed.append(env.now)

        for delay in (5, NAN, 1, 3, 2):
            env.process(waiter(env, delay))
        with pytest.raises(ValueError):
            env.run()
        env.run()
        assert resumed == [1.0, 2.0, 3.0, 5.0]

    def test_inf_stays_allowed(self, env):
        fired = []
        env.timeout(INF).callbacks.append(lambda e: fired.append(env.now))
        env.schedule_at(Event(env), INF)
        env.timeout(2)
        env.run(until=INF)
        assert env.now == INF
        assert fired == []
        env.run()
        assert fired == [INF]
