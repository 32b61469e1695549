"""Adaptive-RL — the paper's scheduling algorithm (§IV).

One learning agent per resource site, a shared-learning memory linking
them, adaptive task grouping as the action space, and the dual
reward/error feedback of Eqs. 7–9.  Every design knob that DESIGN.md
calls out (grouping, shared memory, value model, routing) is a
constructor argument so the ablation benches can toggle it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..cluster.node import ComputeNode
from ..cluster.taskgroup import TaskGroup
from ..rl.exploration import EpsilonGreedy
from ..workload.task import Task
from .agent import SiteAgent
from .base import Scheduler
from .dispatch import make_routing
from .shared_memory import AGENT_MEMORY_CYCLES, SharedLearningMemory
from .value_models import NeuralValueModel, TabularValueModel

__all__ = ["AdaptiveRLConfig", "AdaptiveRLScheduler"]


@dataclass(frozen=True)
class AdaptiveRLConfig:
    """Tunable parameters of the Adaptive-RL scheduler."""

    #: "tabular" (default) or "neural" (DESIGN.md A6).
    value_model: str = "tabular"
    #: Q-store for the tabular model: "dense" (array fast path, default)
    #: or "dict" (reference).  Bit-identical results either way.
    q_backend: str = "dense"
    #: Disable to ablate the TG technique (singleton groups only).
    grouping_enabled: bool = True
    #: Disable to ablate the shared-learning memory.
    shared_memory_enabled: bool = True
    memory_cycles: int = AGENT_MEMORY_CYCLES
    #: Task-to-site routing policy (DESIGN.md A4).
    routing: str = "least-loaded"
    #: ε-greedy exploration parameters (ε decays per feedback event).
    epsilon: float = 0.5
    min_epsilon: float = 0.02
    epsilon_decay: float = 0.995
    #: Tabular learning rate / discount.
    alpha: float = 0.2
    gamma: float = 0.6
    #: Maximum time a backlog may age before undersized groups flush.
    backlog_patience: float = 15.0
    #: Optional DVFS governor layer (extension; see repro.core.dvfs).
    dvfs_enabled: bool = False
    dvfs_safety_factor: float = 1.5

    def __post_init__(self) -> None:
        if self.value_model not in ("tabular", "neural"):
            raise ValueError(f"unknown value model {self.value_model!r}")
        if self.q_backend not in ("dense", "dict"):
            raise ValueError(f"unknown q backend {self.q_backend!r}")
        if self.memory_cycles <= 0:
            raise ValueError("memory_cycles must be positive")
        if self.backlog_patience < 0:
            raise ValueError("backlog_patience must be non-negative")
        if self.dvfs_safety_factor < 1.0:
            raise ValueError("dvfs_safety_factor must be at least 1")


class AdaptiveRLScheduler(Scheduler):
    """The paper's Adaptive-RL energy-management scheduler."""

    name = "Adaptive-RL"

    def __init__(self, config: Optional[AdaptiveRLConfig] = None) -> None:
        super().__init__()
        self.config = config or AdaptiveRLConfig()
        self.memory: Optional[SharedLearningMemory] = None
        self.agents: Dict[str, SiteAgent] = {}
        self._agent_by_node: Dict[str, SiteAgent] = {}
        self._routing = None
        self._patience_timer_at: Optional[float] = None
        self.governor = None
        if self.config.dvfs_enabled:
            from .dvfs import DVFSGovernor

            self.governor = DVFSGovernor(self.config.dvfs_safety_factor)

    # -- setup ------------------------------------------------------------
    def _setup(self) -> None:
        assert self.env is not None and self.system is not None
        assert self.streams is not None
        cfg = self.config
        if self.governor is not None:
            self.governor.telemetry = self.telemetry
        if cfg.shared_memory_enabled:
            self.memory = SharedLearningMemory(cfg.memory_cycles)
        self._routing = make_routing(
            cfg.routing, self.streams["core.routing"]
        )
        from .actions import GroupingAction, GroupingMode, action_space

        for site in self.system.sites:
            exploration = EpsilonGreedy(
                self.streams[f"core.explore.{site.site_id}"],
                epsilon=cfg.epsilon,
                min_epsilon=cfg.min_epsilon,
                decay=cfg.epsilon_decay,
            )
            actions = (
                action_space(site.max_group_size)
                if cfg.grouping_enabled
                else (GroupingAction(GroupingMode.MIXED, 1),)
            )
            if cfg.value_model == "tabular":
                model = TabularValueModel(
                    alpha=cfg.alpha,
                    gamma=cfg.gamma,
                    actions=actions,
                    backend=cfg.q_backend,
                )
            else:
                model = NeuralValueModel(
                    actions,
                    rng=self.streams[f"core.neural.{site.site_id}"],
                    gamma=cfg.gamma,
                )
            agent = SiteAgent(
                site,
                value_model=model,
                exploration=exploration,
                memory=self.memory,
                grouping_enabled=cfg.grouping_enabled,
                telemetry=self.telemetry,
                cycle_clock=lambda: self.learning_cycles,
            )
            self.agents[site.site_id] = agent
            for node in site.nodes:
                self._agent_by_node[node.node_id] = agent

    # -- submissions ---------------------------------------------------------
    def submit(self, task: Task) -> None:
        assert self.system is not None and self._routing is not None
        site = self._routing.select(self.system.sites, task)
        task.site_id = site.site_id
        self.agents[site.site_id].backlog.add(task)
        self.kick()

    # -- scheduling ------------------------------------------------------------
    def _scheduling_pass(self) -> None:
        assert self.env is not None
        now = self.env.now
        backlog_remaining = 0
        # Most agents of a wide platform hold no backlog on most passes;
        # they are skipped outright (their cycle count is the scheduler's).
        for agent in self.agents.values():
            if len(agent.backlog):
                agent.run_pass(now, self.config.backlog_patience)
                backlog_remaining += len(agent.backlog)
        if self.governor is not None:
            assert self.system is not None
            self.governor.apply(self.system.nodes, now)
        if backlog_remaining > 0:
            self._arm_patience_timer()

    def _arm_patience_timer(self) -> None:
        """Ensure a future kick exists so aged backlogs eventually flush."""
        assert self.env is not None
        at = self.env.now + self.config.backlog_patience
        if self._patience_timer_at is not None and self._patience_timer_at > self.env.now:
            return  # a timer is already pending
        self._patience_timer_at = at
        self.env.process(self._patience_kick(self.config.backlog_patience))

    def _patience_kick(self, delay: float):
        yield self.env.timeout(delay)
        self._patience_timer_at = None
        self.kick()

    # -- feedback -----------------------------------------------------------
    def _on_group_complete(self, group: TaskGroup, node: ComputeNode) -> None:
        agent = self._agent_by_node.get(node.node_id)
        if agent is not None:
            agent.group_completed(group, self.env.now)

    # -- introspection ---------------------------------------------------------
    @property
    def total_backlog(self) -> int:
        return sum(len(a.backlog) for a in self.agents.values())

    @property
    def groups_dispatched(self) -> int:
        return sum(a.groups_dispatched for a in self.agents.values())
