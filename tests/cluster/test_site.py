"""Unit tests for resource sites."""

import numpy as np
import pytest

from repro.cluster import ComputeNode, Processor, ResourceSite, SleepPolicy, TaskGroup
from repro.core.agent import SiteAgent
from repro.core.value_models import TabularValueModel
from repro.energy import constant_power_profile
from repro.energy.meter import ProcState
from repro.rl import EpsilonGreedy
from repro.workload import Task


def make_site(env, n_nodes=2, n_procs=2, sleep_policy=None):
    nodes = []
    for i in range(n_nodes):
        procs = [
            Processor(f"n{i}.p{j}", 1000.0, constant_power_profile())
            for j in range(n_procs)
        ]
        nodes.append(
            ComputeNode(
                env,
                f"n{i}",
                "s0",
                procs,
                sleep_policy=sleep_policy or SleepPolicy(allow_sleep=False),
            )
        )
    return ResourceSite("s0", nodes)


def make_task(tid):
    return Task(tid=tid, size_mi=1000.0, arrival_time=0.0, act=1.0, deadline=100.0)


class TestSite:
    def test_requires_nodes(self):
        with pytest.raises(ValueError):
            ResourceSite("s0", [])

    def test_duplicate_node_ids_rejected(self, env):
        procs = lambda i: [Processor(f"x{i}", 1000.0, constant_power_profile())]
        n1 = ComputeNode(env, "same", "s0", procs(0))
        n2 = ComputeNode(env, "same", "s0", procs(1))
        with pytest.raises(ValueError):
            ResourceSite("s0", [n1, n2])

    def test_aggregates(self, env):
        site = make_site(env, n_nodes=2, n_procs=3)
        assert len(site) == 2
        assert site.num_processors == 6
        assert site.total_speed_mips == pytest.approx(6000.0)
        assert site.max_group_size == 3
        assert site.total_free_slots == 2 * 4  # default queue slots

    def test_node_lookup(self, env):
        site = make_site(env)
        assert site.node("n0").node_id == "n0"
        with pytest.raises(KeyError):
            site.node("missing")

    def test_states_one_per_node(self, env):
        site = make_site(env)
        states = site.states()
        assert [s.node_id for s in states] == ["n0", "n1"]

    def test_callback_fanout(self, env):
        site = make_site(env)
        done = []
        site.on_task_complete(lambda t, n: done.append((t.tid, n.node_id)))
        t0, t1 = make_task(0), make_task(1)
        site.node("n0").submit(TaskGroup([t0], created_at=0.0))
        site.node("n1").submit(TaskGroup([t1], created_at=0.0))
        env.run()
        assert sorted(done) == [(0, "n0"), (1, "n1")]

    def test_load_and_pending(self, env):
        site = make_site(env)
        g = TaskGroup([make_task(0)], created_at=0.0)
        site.node("n0").submit(g)
        assert site.pending_tasks == 1
        assert site.total_load == pytest.approx(g.pw)
        env.run()
        assert site.pending_tasks == 0


def rescan_pending(site):
    """Ground truth: incomplete tasks across the site's admitted groups."""
    return sum(g.remaining for n in site.nodes for g in n._active_groups)


def sized_task(tid, size):
    return Task(tid=tid, size_mi=size, arrival_time=0.0, act=1.0, deadline=1e6)


class TestPendingCache:
    """``ResourceSite.pending_tasks`` is cached behind a flag the nodes
    raise; every read must still equal a full rescan."""

    def check_every_event(self, env, site, until):
        while env.peek() <= until:
            env.step()
            assert site.pending_tasks == rescan_pending(site)

    def test_exact_through_submit_completion_fail_and_repair(self, env):
        site = make_site(env, n_nodes=2, n_procs=2)
        # Read the count mid-completion, the way least-loaded routing
        # does when a completion callback resubmits or kicks the
        # scheduler, so that a missed invalidation leaves it stale.
        seen = []
        site.on_task_complete(lambda t, n: seen.append(site.pending_tasks))
        groups_done = []

        def group_done(group, node):
            # A group completes inside its last task's completion, after
            # the task callbacks above already re-cached the count.
            assert site.pending_tasks == rescan_pending(site)
            groups_done.append(group)

        site.on_group_complete(group_done)
        n0, n1 = site.node("n0"), site.node("n1")
        tid = iter(range(1000))

        def submit(node, *sizes):
            group = TaskGroup(
                [sized_task(next(tid), s) for s in sizes], created_at=env.now
            )
            assert node.try_submit(group)
            assert site.pending_tasks == rescan_pending(site)

        assert site.pending_tasks == 0
        submit(n0, 1000.0, 3000.0, 5000.0)
        submit(n0, 2000.0)
        submit(n1, 2000.0, 2000.0)
        submit(n1, 9000.0)
        assert site.pending_tasks == 7
        self.check_every_event(env, site, until=3.5)
        assert seen and groups_done  # tasks and whole groups finished
        assert n1.pending_tasks == 1  # the 9000-MI task is running

        n1.fail()
        assert n1.pending_tasks == 0
        assert site.pending_tasks == rescan_pending(site) == n0.pending_tasks
        self.check_every_event(env, site, until=4.0)
        n1.repair()
        submit(n1, 1500.0)
        self.check_every_event(env, site, until=1e9)
        assert site.pending_tasks == 0
        assert len(seen) == n0.tasks_completed + n1.tasks_completed

    def test_node_cannot_join_two_sites(self, env):
        site = make_site(env)
        with pytest.raises(ValueError, match="already belongs"):
            ResourceSite("s1", [site.node("n0")])


#: Power-gates a processor after 5 idle time units; waking takes 1.
GATING = SleepPolicy(allow_sleep=True, idle_timeout=5.0, wake_latency=1.0)


def group_of(env, *sizes, first_tid=0):
    return TaskGroup(
        [sized_task(first_tid + i, s) for i, s in enumerate(sizes)],
        created_at=env.now,
    )


def step_until(env, site, holds):
    """Step one event at a time until ``holds()``; return the site
    version just before and just after the step that made it hold."""
    assert not holds()
    while True:
        before = site.version
        env.step()
        if holds():
            return before, site.version


def states_of(node):
    return [p.state for p in node.processors]


def submit_row(env, site):
    before = site.version
    site.node("n0").submit(group_of(env, 1000.0))
    return before, site.version


def feeder_pop_row(env, site):
    node = site.node("n0")
    # Submitted before the feeder's first step, so the group waits in
    # the queue until the feeder's get pops it.
    node.submit(group_of(env, 4000.0))
    assert len(node.queue.items) == 1
    return step_until(env, site, lambda: not node.queue.items)


def task_start_row(env, site):
    node = site.node("n0")
    node.submit(group_of(env, 1000.0))
    return step_until(
        env, site, lambda: ProcState.BUSY in states_of(node)
    )


def task_finish_row(env, site):
    node = site.node("n0")
    node.submit(group_of(env, 1000.0))
    return step_until(env, site, lambda: node.tasks_completed == 1)


def power_gate_row(env, site):
    node = site.node("n0")
    return step_until(
        env, site, lambda: ProcState.SLEEP in states_of(node)
    )


def wake_up_row(env, site):
    node = site.node("n0")
    env.run(until=10.0)
    assert set(states_of(node)) == {ProcState.SLEEP}
    node.submit(group_of(env, 1000.0))
    return step_until(
        env, site, lambda: set(states_of(node)) != {ProcState.SLEEP}
    )


def policy_wake_row(env, site):
    node = site.node("n0")
    env.run(until=10.0)
    node.set_sleep_policy(SleepPolicy(allow_sleep=False))
    return step_until(
        env, site, lambda: set(states_of(node)) != {ProcState.SLEEP}
    )


def dvfs_row(env, site):
    before = site.version
    site.node("n0").processors[0].set_frequency_scale(0.5)
    return before, site.version


def fail_row(env, site):
    site.node("n0").submit(group_of(env, 4000.0))
    env.run(until=1.0)
    before = site.version
    site.node("n0").fail()
    return before, site.version


def repair_row(env, site):
    node = site.node("n0")
    env.run(until=1.0)
    node.fail()
    env.run(until=2.0)
    before = site.version
    node.repair()
    return before, site.version


class TestSiteVersion:
    """Every change to a node's observable ``Sc(t)`` (load, free
    slots, processor power) or to its availability bumps
    ``site.version``, which keys the agent's cached observation and the
    site's open-node list."""

    @pytest.mark.parametrize(
        "mutation,sleep_policy",
        [
            pytest.param(submit_row, None, id="submit"),
            pytest.param(feeder_pop_row, None, id="feeder-pop"),
            pytest.param(task_start_row, None, id="task-start"),
            pytest.param(task_finish_row, None, id="task-finish"),
            pytest.param(power_gate_row, GATING, id="power-gate"),
            pytest.param(wake_up_row, GATING, id="wake-up"),
            pytest.param(policy_wake_row, GATING, id="policy-wake"),
            pytest.param(dvfs_row, None, id="dvfs"),
            pytest.param(fail_row, None, id="fail"),
            pytest.param(repair_row, None, id="repair"),
        ],
    )
    def test_mutation_bumps_version(self, env, mutation, sleep_policy):
        site = make_site(env, sleep_policy=sleep_policy)
        before, after = mutation(env, site)
        assert after > before

    def test_unchanged_version_means_unchanged_state(self, env):
        """Step a run with sleep, DVFS, a crash and a repair; whenever
        the version holds still, so does every node's raw state."""
        site = make_site(env, sleep_policy=GATING)
        n0, n1 = site.node("n0"), site.node("n1")

        def raw(node):
            return (
                sum(g.pw for g in node._active_groups),
                node.queue_slots - len(node.queue.items),
                tuple(p.current_power_w for p in node.processors),
                node.available,
            )

        def check_until(until):
            while env.peek() <= until:
                before, snapshot = site.version, [raw(n) for n in site]
                env.step()
                if site.version == before:
                    assert [raw(n) for n in site] == snapshot

        tid = 0
        for node in (n0, n0, n1, n0, n1, n0):
            node.submit(group_of(env, 1500.0, 800.0, first_tid=tid))
            tid += 2
        n1.processors[1].set_frequency_scale(0.6)
        check_until(2.0)
        n1.fail()
        check_until(4.0)
        n1.repair()
        n1.submit(group_of(env, 2500.0, first_tid=tid))
        check_until(1e9)
        assert n0.tasks_completed == 8 and n1.tasks_completed > 0
        assert n1.failures == 1 and not n1.pending_tasks

    def test_unchanged_site_reuses_observation_and_open_list(self, env):
        site = make_site(env)
        agent = SiteAgent(
            site,
            value_model=TabularValueModel(),
            exploration=EpsilonGreedy(
                np.random.default_rng(0), epsilon=0.0, min_epsilon=0.0
            ),
            memory=None,
        )
        for tid, node in enumerate(site.nodes):
            for k in range(node.queue_slots + 1):
                node.submit(group_of(env, 5000.0, first_tid=10 * tid + k))
        assert site.open_nodes() == []
        agent.backlog.add(sized_task(99, 1000.0))
        first = agent.observe()
        open_list = site.open_nodes()
        # Passes over a full, unchanged site dispatch nothing and
        # rebuild nothing.
        assert agent.run_pass(env.now, backlog_patience=1e9) == 0
        assert agent.run_pass(env.now, backlog_patience=1e9) == 0
        assert agent.observe() is first
        assert site.open_nodes() is open_list
        site.node("n1").processors[0].set_frequency_scale(0.5)
        assert agent.observe() is not first
        assert agent.observe() == first  # no processor was busy yet
