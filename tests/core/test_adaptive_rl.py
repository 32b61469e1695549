"""Integration-level tests for the AdaptiveRLScheduler."""

import pytest

from repro.core import AdaptiveRLConfig, AdaptiveRLScheduler, SharedLearningMemory
from repro.core.agent import SiteAgent
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.config import default_platform
from repro.sim import RandomStreams


def run_scheduler(env, system, tasks, config=None, streams=None):
    sched = AdaptiveRLScheduler(config)
    sched.attach(env, system, streams or RandomStreams(seed=5))
    done = sched.expect(len(tasks))

    def arrivals():
        for t in tasks:
            if env.now < t.arrival_time:
                yield env.timeout(t.arrival_time - env.now)
            sched.submit(t)

    env.process(arrivals())
    env.run(until=done)
    return sched


class TestConfig:
    def test_defaults_valid(self):
        cfg = AdaptiveRLConfig()
        assert cfg.value_model == "tabular"
        assert cfg.grouping_enabled and cfg.shared_memory_enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(value_model="magic"),
            dict(memory_cycles=0),
            dict(backlog_patience=-1),
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveRLConfig(**kwargs)


class TestScheduler:
    def test_completes_all_tasks(self, env, small_system, small_workload):
        sched = run_scheduler(env, small_system, small_workload)
        assert len(sched.completed) == len(small_workload)
        assert all(t.completed for t in small_workload)

    def test_one_agent_per_site(self, env, small_system, small_workload):
        sched = run_scheduler(env, small_system, small_workload)
        assert set(sched.agents) == {s.site_id for s in small_system.sites}

    def test_shared_memory_populated(self, env, small_system, small_workload):
        sched = run_scheduler(env, small_system, small_workload)
        assert sched.memory is not None
        assert len(sched.memory) > 0

    def test_memory_disabled(self, env, small_system, small_workload):
        cfg = AdaptiveRLConfig(shared_memory_enabled=False)
        sched = run_scheduler(env, small_system, small_workload, cfg)
        assert sched.memory is None
        assert len(sched.completed) == len(small_workload)

    def test_grouping_disabled_gives_singletons(
        self, env, small_system, small_workload
    ):
        cfg = AdaptiveRLConfig(grouping_enabled=False)
        sched = run_scheduler(env, small_system, small_workload, cfg)
        assert sched.groups_dispatched == len(small_workload)

    def test_neural_value_model_runs(self, env, small_system, small_workload):
        cfg = AdaptiveRLConfig(value_model="neural")
        sched = run_scheduler(env, small_system, small_workload, cfg)
        assert len(sched.completed) == len(small_workload)

    def test_routing_variants_run(self, env, small_system, small_workload):
        cfg = AdaptiveRLConfig(routing="round-robin")
        sched = run_scheduler(env, small_system, small_workload, cfg)
        assert len(sched.completed) == len(small_workload)

    def test_cycle_log_grows(self, env, small_system, small_workload):
        sched = run_scheduler(env, small_system, small_workload)
        assert sched.learning_cycles > 0
        assert len(sched.cycle_log) == sched.learning_cycles

    def test_tasks_keep_site_assignment(self, env, small_system, small_workload):
        run_scheduler(env, small_system, small_workload)
        site_ids = {s.site_id for s in small_system.sites}
        assert all(t.site_id in site_ids for t in small_workload)

    def test_double_attach_rejected(self, env, small_system):
        sched = AdaptiveRLScheduler()
        sched.attach(env, small_system, RandomStreams(seed=1))
        with pytest.raises(RuntimeError):
            sched.attach(env, small_system, RandomStreams(seed=1))


class TestPassAccounting:
    """Passes skip agents with an empty backlog, but every agent still
    counts every learning cycle (``Experience.cycle`` is exported)."""

    CONFIG = ExperimentConfig(
        scheduler="adaptive-rl",
        seed=3,
        num_tasks=20,
        arrival_period=200.0,
        platform=default_platform(num_sites=30),
    )

    def test_agents_count_every_cycle(self, monkeypatch):
        stamps = []
        original_record = SharedLearningMemory.record
        holder = {}

        def record(memory, experience):
            sched = holder["sched"]
            stamps.append((experience.cycle, sched.learning_cycles))
            return original_record(memory, experience)

        original_setup = AdaptiveRLScheduler._setup

        def setup(sched):
            holder["sched"] = sched
            original_setup(sched)

        monkeypatch.setattr(SharedLearningMemory, "record", record)
        monkeypatch.setattr(AdaptiveRLScheduler, "_setup", setup)
        sched = run_experiment(self.CONFIG).scheduler
        idle = [a for a in sched.agents.values() if a.groups_dispatched == 0]
        assert idle, "some site must never receive a task"
        assert all(
            a.cycles == sched.learning_cycles for a in sched.agents.values()
        )
        assert stamps and all(cycle == now for cycle, now in stamps)

    def test_run_pass_only_for_backlogged_agents_in_site_order(
        self, monkeypatch
    ):
        passes = []
        run_pass = SiteAgent.run_pass
        scheduling_pass = AdaptiveRLScheduler._scheduling_pass

        def checked_run_pass(agent, now, backlog_patience):
            assert len(agent.backlog) > 0
            passes[-1].append(agent.site.site_id)
            return run_pass(agent, now, backlog_patience)

        def checked_pass(sched):
            passes.append([])
            scheduling_pass(sched)

        monkeypatch.setattr(SiteAgent, "run_pass", checked_run_pass)
        monkeypatch.setattr(
            AdaptiveRLScheduler, "_scheduling_pass", checked_pass
        )
        result = run_experiment(self.CONFIG)
        assert len(passes) == result.scheduler.learning_cycles
        order = [s.site_id for s in result.system.sites]
        visited = [site for sites in passes for site in sites]
        assert 0 < len(visited) < len(passes) * len(order)
        for sites in passes:
            ranks = [order.index(site) for site in sites]
            assert ranks == sorted(set(ranks))
