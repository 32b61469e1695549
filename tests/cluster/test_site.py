"""Unit tests for resource sites."""

import pytest

from repro.cluster import ComputeNode, Processor, ResourceSite, SleepPolicy, TaskGroup
from repro.energy import constant_power_profile
from repro.workload import Task


def make_site(env, n_nodes=2, n_procs=2):
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
                sleep_policy=SleepPolicy(allow_sleep=False),
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
