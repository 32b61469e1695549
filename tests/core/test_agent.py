"""Unit tests for the per-site scheduling agent (§IV)."""

import numpy as np
import pytest

from repro.cluster import ComputeNode, Processor, ResourceSite, SleepPolicy
from repro.core import (
    Backlog,
    GroupingAction,
    GroupingMode,
    SharedLearningMemory,
)
from repro.core.agent import SiteAgent
from repro.core.value_models import TabularValueModel
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.config import default_platform
from repro.rl import EpsilonGreedy
from repro.workload import Task


def make_site(env, n_nodes=2, n_procs=2, speed=1000.0):
    nodes = []
    for i in range(n_nodes):
        procs = [
            Processor(f"n{i}.p{j}", speed, __import__(
                "repro.energy", fromlist=["constant_power_profile"]
            ).constant_power_profile())
            for j in range(n_procs)
        ]
        nodes.append(
            ComputeNode(
                env, f"n{i}", "s0", procs,
                sleep_policy=SleepPolicy(allow_sleep=False),
            )
        )
    return ResourceSite("s0", nodes)


def make_agent(env, memory=None, grouping=True, epsilon=0.0, site=None):
    site = site or make_site(env)
    agent = SiteAgent(
        site,
        value_model=TabularValueModel(),
        exploration=EpsilonGreedy(
            np.random.default_rng(0), epsilon=epsilon, min_epsilon=0.0
        ),
        memory=memory,
        grouping_enabled=grouping,
    )
    return agent


def task(tid, slack=5.0, arrival=0.0, size=2000.0, act=2.0):
    return Task(
        tid=tid,
        size_mi=size,
        arrival_time=arrival,
        act=act,
        deadline=arrival + act * (1 + slack),
    )


class TestActionSpaceSetup:
    def test_grouping_enabled_full_space(self, env):
        agent = make_agent(env, grouping=True)
        assert len(agent.actions) == 2 * 2  # 2 modes × opnum ≤ 2 procs

    def test_grouping_disabled_singleton_only(self, env):
        agent = make_agent(env, grouping=False)
        assert agent.actions == (GroupingAction(GroupingMode.MIXED, 1),)


class TestObservation:
    def test_observe_returns_state_and_obs(self, env):
        agent = make_agent(env)
        state, obs = agent.observe()
        assert len(state) == 3
        assert 0 <= obs.power_fraction <= 1


class TestScheduling:
    def test_pass_dispatches_backlog(self, env):
        agent = make_agent(env)
        for i in range(3):
            agent.backlog.add(task(i))
        dispatched = agent.run_pass(now=0.0, backlog_patience=10.0)
        assert dispatched >= 1
        env.run()
        assert all(n.tasks_completed >= 0 for n in agent.site.nodes)
        assert sum(n.tasks_completed for n in agent.site.nodes) == 3

    def test_empty_backlog_is_noop(self, env):
        agent = make_agent(env)
        assert agent.run_pass(0.0, 10.0) == 0

    def test_no_dispatch_when_queues_full(self, env):
        agent = make_agent(env)
        # Fill all queue slots with long tasks.
        from repro.cluster import TaskGroup

        for node in agent.site.nodes:
            while node.try_submit(
                TaskGroup([task(100 + node.num_processors, size=1e7)], 0.0)
            ):
                pass
        agent.backlog.add(task(0))
        assert agent.run_pass(0.0, 10.0) == 0
        assert len(agent.backlog) == 1

    def test_error_recorded_on_group(self, env):
        agent = make_agent(env)
        agent.backlog.add(task(0))
        agent.run_pass(0.0, 10.0)
        groups = [g for n in agent.site.nodes for g in n._active_groups]
        assert groups and all(g.error is not None for g in groups)


class TestFeedback:
    def test_group_completion_produces_feedback(self, env):
        mem = SharedLearningMemory()
        agent = make_agent(env, memory=mem)
        agent.backlog.add(task(0))
        agent.run_pass(0.0, 10.0)

        records = []
        for node in agent.site.nodes:
            node.on_group_complete(
                lambda g, n: records.append(agent.group_completed(g, env.now))
            )
        env.run()
        assert len(records) == 1
        assert records[0] is not None
        assert records[0].group_size == 1
        assert len(mem) == 1

    def test_unknown_group_returns_none(self, env):
        from repro.cluster import TaskGroup

        agent = make_agent(env)
        foreign = TaskGroup([task(0)], created_at=0.0)
        foreign.error = 0.5
        foreign.task_done = lambda: None  # not executed
        assert agent.group_completed(foreign, 0.0) is None

    def test_regression_triggers_memory_consult(self, env):
        """After a reward regression the agent adopts the memory's best
        action (§IV.C)."""
        mem = SharedLearningMemory()
        agent = make_agent(env, memory=mem, epsilon=0.0)
        remembered = agent.actions[-1]
        from repro.core.shared_memory import Experience

        state, _ = agent.observe()
        mem.record(
            Experience(
                agent_id="other",
                cycle=1,
                state=state,
                action=remembered,
                l_val=1e6,
                reward=5,
                error=0.0,
                time=0.0,
            )
        )
        agent._last_hit_fraction = 1.0
        agent._regressed = True
        chosen = agent.select_action(state, agent.observe()[1])
        assert chosen == remembered
        assert agent._regressed is False

    def test_unseen_state_bootstraps_from_memory(self, env):
        mem = SharedLearningMemory()
        agent = make_agent(env, memory=mem, epsilon=0.0)
        remembered = agent.actions[1]
        from repro.core.shared_memory import Experience

        state, obs = agent.observe()
        mem.record(
            Experience(
                agent_id="other",
                cycle=1,
                state=state,
                action=remembered,
                l_val=10.0,
                reward=2,
                error=0.1,
                time=0.0,
            )
        )
        assert agent.select_action(state, obs) == remembered


class TestPassLaziness:
    def test_oldest_arrival_read_only_by_passes_that_can_place(
        self, monkeypatch
    ):
        """``oldest_arrival`` is read at most once per pass, and never by a
        pass that finds every node full (the common overload pass)."""
        reads = [0]
        original = Backlog.oldest_arrival

        def counted(backlog):
            reads[0] += 1
            return original.fget(backlog)

        monkeypatch.setattr(Backlog, "oldest_arrival", property(counted))

        run_pass = SiteAgent.run_pass
        passes = {"blocked": 0, "open": 0, "read": 0}

        def checked(agent, now, backlog_patience):
            reads[0] = 0
            backlog = len(agent.backlog)
            can_place = any(n.available for n in agent.site.nodes)
            result = run_pass(agent, now, backlog_patience)
            assert reads[0] <= 1
            if backlog and not can_place:
                assert reads[0] == 0
                passes["blocked"] += 1
            elif backlog:
                passes["open"] += 1
            passes["read"] += reads[0]
            return result

        monkeypatch.setattr(SiteAgent, "run_pass", checked)
        config = ExperimentConfig(
            scheduler="adaptive-rl",
            seed=5,
            num_tasks=200,
            arrival_period=100.0,
            platform=default_platform(
                num_sites=2, nodes_per_site=(3, 3), procs_per_node=(4, 4)
            ),
        )
        run_experiment(config)
        # The run must exercise both kinds of pass to mean anything.
        assert passes["blocked"] > 0
        assert passes["open"] > 0
        assert passes["read"] > 0
