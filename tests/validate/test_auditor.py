"""Tests for the strict-mode invariant auditor (``repro.validate``).

Two families: *clean* runs — full experiments under audit must produce
zero violations while actually exercising every check — and *corruption*
runs — deliberately broken state must be caught and reported with a
structured, attributable violation.
"""

import heapq

import pytest

from repro.cluster import PlatformSpec, build_system
from repro.core.shared_memory import SharedLearningMemory
from repro.energy.meter import ProcState
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.schedulers import make_scheduler
from repro.rl.dense import DenseQTable
from repro.rl.replay import ReplayRing
from repro.sim import Environment, RandomStreams
from repro.validate import (
    INV_CLOCK,
    INV_ENERGY,
    INV_MEMORY,
    INV_ORDER,
    INV_PRIORITY,
    INV_QPARITY,
    INV_QUEUE,
    InvariantAuditor,
    InvariantViolationError,
    set_strict,
    strict_mode_enabled,
)
from repro.workload import Task
from repro.workload.priorities import Priority

SMALL_PLATFORM = PlatformSpec(
    num_sites=2, nodes_per_site=(2, 3), procs_per_node=(4, 4)
)


def small_config(**overrides):
    params = dict(
        num_tasks=120, seed=11, arrival_period=300.0, platform=SMALL_PLATFORM
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def make_audited_cluster(on_violation="collect"):
    env = Environment()
    streams = RandomStreams(seed=7)
    system = build_system(env, SMALL_PLATFORM, streams)
    auditor = InvariantAuditor(env, system, on_violation=on_violation)
    return env, system, auditor


def make_audited_scheduler():
    env = Environment()
    streams = RandomStreams(seed=7)
    system = build_system(env, SMALL_PLATFORM, streams)
    scheduler = make_scheduler("adaptive-rl")
    scheduler.attach(env, system, streams)
    auditor = InvariantAuditor(env, system, scheduler, on_violation="collect")
    return env, system, scheduler, auditor


class TestCleanRuns:
    """Full experiments under audit: every invariant holds."""

    @pytest.mark.parametrize("backend", ["dense", "dict"])
    def test_adaptive_rl_clean(self, backend):
        result = run_experiment(
            small_config(scheduler_kwargs={"q_backend": backend}),
            strict=True,
        )
        assert result.audit is not None
        assert result.audit.ok, result.audit.summary()
        assert result.audit.finalized
        # The run actually exercised the checks, per invariant family.
        for inv in (INV_ENERGY, INV_QUEUE, INV_PRIORITY, INV_MEMORY):
            assert result.audit.checks.get(inv, 0) > 0
        assert result.audit.events_audited > 0
        assert result.audit.sweeps > 0

    def test_dense_backend_exercises_qparity(self):
        result = run_experiment(
            small_config(scheduler_kwargs={"q_backend": "dense"}),
            strict=True,
        )
        assert result.audit.checks.get(INV_QPARITY, 0) > 0

    def test_failures_and_dvfs_clean(self):
        """The hardest configuration: crash-stop failures force task
        resubmission and DVFS varies busy power per task."""
        result = run_experiment(
            small_config(
                seed=47,
                failure_mtbf=400.0,
                failure_mttr=40.0,
                scheduler_kwargs={"dvfs_enabled": True},
            ),
            strict=True,
        )
        assert result.audit.ok, result.audit.summary()

    def test_fcfs_clean(self):
        result = run_experiment(
            small_config(scheduler="fcfs"), strict=True
        )
        assert result.audit.ok, result.audit.summary()

    def test_audit_is_behavior_neutral(self):
        """Audited and unaudited runs yield bit-identical metrics."""
        plain = run_experiment(small_config(), strict=False)
        audited = run_experiment(small_config(), strict=True)
        assert plain.audit is None
        assert plain.metrics.avert == audited.metrics.avert
        assert plain.metrics.ecs == audited.metrics.ecs
        assert plain.metrics.makespan == audited.metrics.makespan


class TestStrictModeToggle:
    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_STRICT", raising=False)
        set_strict(None)
        assert not strict_mode_enabled()

    @pytest.mark.parametrize("raw,expected", [
        ("1", True),
        ("true", True),
        ("yes", True),
        ("0", False),
        ("false", False),
        ("no", False),
        ("", False),
    ])
    def test_env_var_parsing(self, monkeypatch, raw, expected):
        set_strict(None)
        monkeypatch.setenv("REPRO_STRICT", raw)
        assert strict_mode_enabled() is expected

    def test_set_strict_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT", "1")
        set_strict(False)
        try:
            assert not strict_mode_enabled()
        finally:
            set_strict(None)

    def test_run_experiment_honors_set_strict(self):
        set_strict(True)
        try:
            result = run_experiment(small_config())
        finally:
            set_strict(None)
        assert result.audit is not None and result.audit.ok


class TestAttachment:
    def test_second_auditor_rejected(self):
        env = Environment()
        InvariantAuditor(env)
        with pytest.raises(RuntimeError, match="already has an audit hook"):
            InvariantAuditor(env)

    def test_detach_releases_hook(self):
        env = Environment()
        auditor = InvariantAuditor(env)
        auditor.detach()
        assert env._audit_hook is None
        InvariantAuditor(env)  # reattachable

    def test_invalid_modes_rejected(self):
        with pytest.raises(ValueError):
            InvariantAuditor(Environment(), on_violation="log")
        with pytest.raises(ValueError):
            InvariantAuditor(Environment(), sweep_interval=0)


class TestCorruptionDetection:
    """Deliberately broken state must surface as structured violations."""

    def test_corrupted_meter_energy(self):
        env, system, auditor = make_audited_cluster()
        proc = system.processors[0]
        proc.meter._busy_energy += 1.0
        auditor.sweep()
        bad = [v for v in auditor.report.violations if v.invariant == INV_ENERGY]
        assert bad
        v = bad[0]
        assert v.subject  # pinned to a processor
        assert v.details["field"] == "busy_energy"
        assert v.details["observed"] != v.details["expected"]
        assert "busy_energy" in str(v)
        assert "VIOLATION" in auditor.report.summary()

    def test_corrupted_meter_raises_in_strict_mode(self):
        env, system, auditor = make_audited_cluster(on_violation="raise")
        system.processors[0].meter._idle_energy -= 0.5
        with pytest.raises(InvariantViolationError) as exc:
            auditor.sweep()
        assert exc.value.violation.invariant == INV_ENERGY
        assert not exc.value.report.ok

    def test_overfull_queue(self):
        env, system, auditor = make_audited_cluster()
        node = system.nodes[0]
        node.queue.items.extend(
            object() for _ in range(node.queue_slots + 1)
        )
        auditor.sweep()
        bad = [v for v in auditor.report.violations if v.invariant == INV_QUEUE]
        assert bad
        assert bad[0].details["occupancy"] > bad[0].details["qc"]
        assert bad[0].subject == node.node_id

    def test_corrupted_capacity_cache(self):
        env, system, auditor = make_audited_cluster()
        node = system.nodes[0]
        node._processing_capacity *= 2.0
        auditor.sweep()
        assert any(
            v.invariant == INV_QUEUE and "PCc" in v.message
            for v in auditor.report.violations
        )

    def test_stale_site_pending_cache(self):
        env, system, auditor = make_audited_cluster()
        site = system.sites[0]
        assert site.pending_tasks == 0  # the read leaves the cache clean
        site._pending_cache += 3
        auditor.sweep()
        bad = [
            v for v in auditor.report.violations if v.subject == site.site_id
        ]
        assert bad and bad[0].invariant == INV_QUEUE
        assert (bad[0].details["cached"], bad[0].details["fresh"]) == (3, 0)

    def test_dirty_site_pending_cache_is_not_checked(self):
        env, system, auditor = make_audited_cluster()
        site = system.sites[0]
        site._pending_cache = 99  # dirty: the next read recomputes it
        auditor.sweep()
        assert auditor.report.ok
        assert site.pending_tasks == 0

    def test_observation_changed_without_version_bump(self):
        env, system, scheduler, auditor = make_audited_scheduler()
        agent = next(iter(scheduler.agents.values()))
        cached = agent.observe()
        node = agent.site.nodes[0]
        # Gate a processor and invalidate the node's own power cache,
        # but skip the site version bump: the agent's observation is
        # stamped current yet no longer matches the nodes.
        node.processors[0].meter.set_state(ProcState.SLEEP, env.now)
        node._power_dirty = True
        assert agent.observe() is cached
        auditor.sweep()
        bad = [
            v for v in auditor.report.violations if v.subject == agent.agent_id
        ]
        assert bad and bad[0].invariant == INV_QUEUE
        assert "observation" in bad[0].message

    def test_bumped_observation_is_rebuilt_not_flagged(self):
        env, system, scheduler, auditor = make_audited_scheduler()
        agent = next(iter(scheduler.agents.values()))
        cached = agent.observe()
        node = agent.site.nodes[0]
        node.processors[0].meter.set_state(ProcState.SLEEP, env.now)
        node._mark_power_dirty()
        auditor.sweep()
        assert auditor.report.ok, auditor.report.summary()
        assert agent.observe() != cached
        auditor.sweep()
        assert auditor.report.ok, auditor.report.summary()

    def test_open_nodes_changed_without_version_bump(self):
        env, system, scheduler, auditor = make_audited_scheduler()
        site = system.sites[0]
        node = site.nodes[0]
        assert node in site.open_nodes()
        node.failed = True  # bypasses fail(), so no version bump
        auditor.sweep()
        bad = [
            v
            for v in auditor.report.violations
            if v.subject == site.site_id and "open-node" in v.message
        ]
        assert bad and bad[0].invariant == INV_QUEUE

    def test_clock_regression_detected(self):
        env = Environment()
        auditor = InvariantAuditor(env, on_violation="collect")
        env._now = 5.0
        auditor._on_event((4.0, 1, 0, None))
        assert any(
            v.invariant == INV_CLOCK for v in auditor.report.violations
        )

    def test_dispatch_order_violation_detected(self):
        env = Environment()
        auditor = InvariantAuditor(env, on_violation="collect")
        # A smaller entry still pending in the fallback heap while a
        # larger one dispatches is exactly the bug class this guards.
        heapq.heappush(env._queue, (1.0, 1, 0, None))
        auditor._on_event((2.0, 1, 1, None))
        bad = [v for v in auditor.report.violations if v.invariant == INV_ORDER]
        assert bad
        assert bad[0].details["source"] == "fallback-heap"

    def test_fifo_order_violation_detected(self):
        env = Environment()
        auditor = InvariantAuditor(env, on_violation="collect")
        auditor._on_event((3.0, 1, 9, None))
        auditor._on_event((3.0, 1, 4, None))  # same (t, prio), seq went back
        assert any(
            v.invariant == INV_ORDER and "FIFO" in v.message
            for v in auditor.report.violations
        )

    def test_clean_dispatch_accepted(self):
        env = Environment()
        auditor = InvariantAuditor(env, on_violation="raise")
        auditor._on_event((1.0, 1, 0, None))
        auditor._on_event((1.0, 1, 1, None))
        auditor._on_event((2.0, 0, 2, None))
        assert auditor.report.events_audited == 3

    def test_priority_misclassification_detected(self):
        env = Environment()
        auditor = InvariantAuditor(env, on_violation="collect")
        # slack fraction 1.0 → LOW per Eq. 1, but the task claims HIGH.
        task = Task(
            tid=1,
            size_mi=1000.0,
            arrival_time=0.0,
            act=1.0,
            deadline=2.0,
            priority=Priority.HIGH,
        )
        auditor._on_submit(task)
        bad = [
            v for v in auditor.report.violations if v.invariant == INV_PRIORITY
        ]
        assert bad
        assert "Eq. 1" in bad[0].message

    def test_memory_cap_breach_detected(self):
        env = Environment()
        auditor = InvariantAuditor(env, on_violation="collect")
        memory = SharedLearningMemory(cycles_per_agent=2, indexed=False)
        ring = ReplayRing(10)  # roomier than the cap, to fake a breach
        for i in range(3):
            ring.append(object())
        memory._rings["agent0"] = ring
        auditor._memory = memory
        auditor.sweep()
        bad = [v for v in auditor.report.violations if v.invariant == INV_MEMORY]
        assert bad
        assert bad[0].details == {"held": 3, "cap": 2}

    def test_dense_qtable_divergence_detected(self):
        env = Environment()
        auditor = InvariantAuditor(env, on_violation="collect")
        table = DenseQTable(actions=("a", "b"))
        auditor._wrap_qtable("agent0", table)
        table.update("s0", "a", 1.0)
        table.update("s0", "b", 2.0)
        table._values[0, 0] += 0.25  # silent corruption
        auditor._sweep_qtables()
        bad = [v for v in auditor.report.violations if v.invariant == INV_QPARITY]
        assert bad
        assert bad[0].subject == "agent0"
        assert bad[0].details["differing"] == 1

    def test_dense_argmax_corruption_detected(self):
        env = Environment()
        auditor = InvariantAuditor(env, on_violation="collect")
        table = DenseQTable(actions=("a", "b"))
        auditor._wrap_qtable("agent0", table)
        table.update("s0", "a", 1.0)
        table.update("s0", "b", 2.0)
        row = table._state_index["s0"]
        table._best_col[row] = 0  # truth is column 1
        auditor._sweep_qtables()
        assert any(
            v.invariant == INV_QPARITY and "argmax" in v.message
            for v in auditor.report.violations
        )

    def test_collect_mode_keeps_running(self):
        env, system, auditor = make_audited_cluster()
        system.processors[0].meter._busy_energy += 1.0
        system.nodes[0].queue.items.extend(
            object() for _ in range(system.nodes[0].queue_slots + 1)
        )
        auditor.sweep()
        auditor.sweep()  # second sweep re-detects without raising
        kinds = {v.invariant for v in auditor.report.violations}
        assert {INV_ENERGY, INV_QUEUE} <= kinds
        assert not auditor.report.ok


class TestReportSurface:
    def test_summary_counts_checks(self):
        result = run_experiment(small_config(), strict=True)
        text = result.audit.summary()
        assert "0 violation(s)" in text
        assert "energy-closure" in text
        assert "(not finalized)" not in text

    def test_violation_str_format(self):
        env, system, auditor = make_audited_cluster()
        system.processors[0].meter._sleep_time += 3.0
        auditor.sweep()
        v = auditor.report.violations[0]
        assert str(v).startswith(f"[{INV_ENERGY}] t=0 ")
