"""The per-site scheduling agent (paper §IV.B–§IV.D).

Each resource site hosts one agent.  Per learning cycle the agent

1. observes the aggregated node state ``Sc(t)`` of its site,
2. selects a grouping action — ε-greedy over its value model, seeded
   from the shared-learning memory for unseen states, and overridden by
   the memory's maximum-``l_val`` action after a reward regression
   (§IV.C),
3. merges backlog tasks into groups (§IV.D.1) and assigns each group to
   the free-slot node minimizing the fitting error of Eq. 9,
4. on group completion, computes the feedback signals (Eqs. 7–9),
   records the experience in the shared memory, and updates its value
   model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..cluster.node import ComputeNode
from ..cluster.site import ResourceSite
from ..cluster.taskgroup import TaskGroup
from ..obs import CAT_GROUP, CAT_MEMORY, CAT_RL, NULL_TELEMETRY, Telemetry
from ..rl.exploration import EpsilonGreedy
from ..workload.task import Task
from .actions import GroupingAction, GroupingMode, action_space
from .feedback import FeedbackRecord, grouping_error
from .grouping import Backlog, merge_next_group
from .shared_memory import Experience, SharedLearningMemory
from .state import DiscreteState, SiteObservation, discretize, observe_site
from .value_models import ValueModel

__all__ = ["SiteAgent", "PendingAction"]

#: Placement-score weights (see :meth:`SiteAgent._best_node`), calibrated
#: so the reproduction exhibits the paper's reported relationships:
#: lowest AveRT at every load with energy at-or-below Online RL's
#: (Figures 7–8).  The time term uses the group's deadline window, the
#: energy term the marginal Eq. 6 contribution, the error term Eq. 9,
#: and the wake term penalizes un-gating sleeping processors.
W_TIME = 0.6
W_ENERGY = 0.8
W_ERROR = 0.15
W_WAKE = 0.5


@dataclass
class PendingAction:
    """Bookkeeping linking an in-flight group to the decision behind it."""

    state: DiscreteState
    obs: SiteObservation
    action: GroupingAction


class SiteAgent:
    """Learning scheduler agent for one resource site."""

    def __init__(
        self,
        site: ResourceSite,
        value_model: ValueModel,
        exploration: EpsilonGreedy,
        memory: Optional[SharedLearningMemory],
        grouping_enabled: bool = True,
        telemetry: Optional[Telemetry] = None,
        cycle_clock: Optional[Callable[[], int]] = None,
    ) -> None:
        """Create the agent for *site*.

        ``exploration`` drives trial-and-error over the *whole* schedule
        (§IV.B: the action the agent learns is the schedule): with
        probability ε the grouping action is random, and independently
        each group's placement may be a random open node instead of the
        score minimizer.  ε decays once per feedback event (completed
        group), so learning progress spans the run regardless of load.

        ``cycle_clock`` returns the learning cycles elapsed; the owning
        scheduler counts them once per pass, including the passes that
        skip this agent because its backlog is empty.  Without one the
        agent stays at cycle 0.
        """
        self.site = site
        self.agent_id = f"agent.{site.site_id}"
        self.value_model = value_model
        self.exploration = exploration
        self.memory = memory
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.backlog = Backlog()
        if grouping_enabled:
            self.actions = action_space(site.max_group_size)
        else:
            # TG ablation: the only action is singleton grouping.
            self.actions = (GroupingAction(GroupingMode.MIXED, 1),)
        self._max_power_w = sum(
            p.profile.p_max_w for n in site.nodes for p in n.processors
        )
        self._total_queue_slots = sum(n.queue_slots for n in site.nodes)
        #: ``observe()`` result and the site version it was built at.
        self._obs_version = -1
        self._observation: tuple[DiscreteState, SiteObservation]
        self._pending: Dict[int, PendingAction] = {}
        self._last_hit_fraction: Optional[float] = None
        self._regressed = False
        #: How the most recent action was chosen: "policy",
        #: "memory-seed" (unseen-state bootstrap), or "memory-override"
        #: (reward-regression rule) — recorded for telemetry.
        self._action_source = "policy"
        self._cycle_clock = cycle_clock or (lambda: 0)
        self.groups_dispatched = 0
        self.feedbacks: int = 0
        #: Cumulative feedback signals, folded in only while telemetry is
        #: active — the flight recorder's convergence probe reads them as
        #: windowed means (repro.obs.convergence).
        self.reward_sum: float = 0.0
        self.l_val_sum: float = 0.0

    @property
    def cycles(self) -> int:
        """Learning cycles elapsed (stamped on shared-memory experiences)."""
        return self._cycle_clock()

    # -- observation -------------------------------------------------------
    def observe(self) -> tuple[DiscreteState, SiteObservation]:
        """The site's ``Sc(t)``, rebuilt only when a node changed.

        Every node mutation bumps ``site.version``, so a pass over an
        unchanged site returns the previous (frozen) pair; a rebuild
        runs the same expressions over the same node order.
        """
        site = self.site
        if self._obs_version != site.version:
            obs = observe_site(
                site.states(), self._max_power_w, self._total_queue_slots
            )
            self._observation = (discretize(obs), obs)
            self._obs_version = site.version
        return self._observation

    # -- action selection -----------------------------------------------------
    def select_action(
        self, state: DiscreteState, obs: SiteObservation
    ) -> GroupingAction:
        """Pick the grouping action for this cycle (§IV.C policy)."""
        if self._regressed and self.memory is not None:
            # Reward regressed: adopt the shared memory's best action.
            self._regressed = False
            remembered = self.memory.best_action(state)
            if remembered is not None and remembered in self.actions:
                self._action_source = "memory-override"
                return remembered
        if (
            self.memory is not None
            and not self.value_model.knows(state, self.actions)
        ):
            # Unseen state: bootstrap from other agents' experiences
            # instead of acting blindly ("the agent improves its action
            # not only by learning from its feedback signal, but also
            # from other agents' experiences", §IV.B).
            remembered = self.memory.best_action(state)
            if remembered is not None and remembered in self.actions:
                self._action_source = "memory-seed"
                return remembered
        # ε-greedy, unrolled so the greedy branch can use the value
        # model's O(1) best_action instead of materializing all values.
        # RNG-stream identical to ``exploration.select``: one uniform
        # draw, plus one integer draw only when exploring.
        self._action_source = "policy"
        if self.exploration.explore():
            return self.actions[
                self.exploration.random_index(len(self.actions))
            ]
        return self.value_model.best_action(state, obs, self.actions)

    # -- scheduling pass ---------------------------------------------------
    def run_pass(self, now: float, backlog_patience: float) -> int:
        """Group and assign backlog tasks; returns groups dispatched."""
        if len(self.backlog) == 0:
            return 0

        state, obs = self.observe()
        action = self.select_action(state, obs)
        tel = self.telemetry
        if tel.active:
            self._record_action(action, now)
        dispatched = 0
        # Decided on the first iteration that finds an open node, before
        # any dispatch; most overload passes find none and never need it.
        allow_undersized = None

        profiling = tel.profiling
        while len(self.backlog) > 0:
            open_nodes = self.site.open_nodes()
            if not open_nodes:
                break
            if allow_undersized is None:
                aged = (now - self.backlog.oldest_arrival) >= backlog_patience
                # With spare nodes standing fully idle there is no reason
                # to hold tasks back for merging — capacity is abundant,
                # dispatch now.
                allow_undersized = aged or any(
                    n.pending_tasks == 0 for n in open_nodes
                )
            if profiling:
                t0 = tel.profiler.start()
                group = merge_next_group(
                    self.backlog, action, now, allow_undersized
                )
                tel.profiler.stop("agent.grouping", t0)
            else:
                group = merge_next_group(
                    self.backlog, action, now, allow_undersized
                )
            if group is None:
                break
            if profiling:
                t0 = tel.profiler.start()
                node = self._best_node(
                    group, open_nodes, now, explore=self.exploration.explore()
                )
                tel.profiler.stop("agent.placement", t0)
            else:
                node = self._best_node(
                    group, open_nodes, now, explore=self.exploration.explore()
                )
            group.error = grouping_error(group.pw, node.processing_capacity)
            self._pending[group.gid] = PendingAction(state, obs, action)
            submitted = node.try_submit(group)
            assert submitted, "open_nodes filter guarantees a free slot"
            dispatched += 1
            self.groups_dispatched += 1
            if tel.active:
                if tel.tracing:
                    tel.emit(
                        CAT_GROUP,
                        "merge",
                        now,
                        gid=group.gid,
                        agent=self.agent_id,
                        size=len(group),
                        mode=action.mode,
                        opnum=action.opnum,
                    )
                    tel.emit(
                        CAT_GROUP,
                        "dispatch",
                        now,
                        gid=group.gid,
                        agent=self.agent_id,
                        node=node.node_id,
                        size=len(group),
                        size_mi=group.size_mi,
                        error=group.error,
                    )
                if tel.metering:
                    metrics = tel.metrics
                    metrics.counter("sched.groups_dispatched").inc()
                    metrics.histogram("sched.group_size").observe(len(group))
        return dispatched

    def _record_action(self, action: GroupingAction, now: float) -> None:
        """Telemetry for one ε-greedy / memory action selection."""
        tel = self.telemetry
        source = self._action_source
        epsilon = self.exploration.epsilon
        if tel.tracing:
            tel.emit(
                CAT_RL,
                "action",
                now,
                agent=self.agent_id,
                mode=action.mode,
                opnum=action.opnum,
                epsilon=epsilon,
                source=source,
            )
            if source != "policy":
                tel.emit(
                    CAT_MEMORY,
                    "override" if source == "memory-override" else "seed",
                    now,
                    agent=self.agent_id,
                    mode=action.mode,
                    opnum=action.opnum,
                )
        if tel.metering:
            metrics = tel.metrics
            metrics.counter(f"rl.actions.{action.mode}").inc()
            metrics.counter(f"rl.actions.source.{source}").inc()
            metrics.gauge("rl.epsilon").set(epsilon)

    def _best_node(
        self,
        group: TaskGroup,
        open_nodes: list[ComputeNode],
        now: float,
        explore: bool = False,
    ) -> ComputeNode:
        """Node on which the group's processing capacity is "considerably
        favored" (§IV).

        The score blends (a) the estimated fraction of the group's
        deadline window consumed by queueing plus execution on the node,
        (b) the group's marginal contribution to the paper's energy
        metric ``ECS`` (Eq. 6 normalizes node energy by processor count,
        so fast many-processor nodes are energy-favored — "the grouping
        technique … incorporates current workload and energy consumption
        for the best action", abstract), (c) the Eq. 9 fitting error
        mapped into [0, 1), and (d) a consolidation term penalizing the
        wake-up of power-gated nodes so spare nodes stay asleep.
        """
        if explore:
            return open_nodes[self.exploration.random_index(len(open_nodes))]
        window = max(
            sum(t.deadline - now for t in group.tasks) / len(group), 1e-6
        )

        def score(node: ComputeNode) -> tuple[float, str]:
            est_wait = node.pending_size_mi / node.total_speed_mips
            est_exec = group.size_mi / node.total_speed_mips
            err = grouping_error(group.pw, node.processing_capacity)
            m = node.num_processors
            mean_speed = node.total_speed_mips / m
            # Marginal ECS of running this group here, relative to a
            # reference node (750 MIPS processors, 5 of them).
            energy_factor = (750.0 / mean_speed) * (5.0 / m)
            sleeping_frac = node.sleeping_processors / m
            value = (
                W_TIME * (est_wait + est_exec) / window
                + W_ENERGY * energy_factor
                + W_ERROR * err / (1.0 + err)
                + W_WAKE * sleeping_frac
            )
            return (value, node.node_id)

        return min(open_nodes, key=score)

    # -- feedback ---------------------------------------------------------
    def group_completed(self, group: TaskGroup, now: float) -> Optional[FeedbackRecord]:
        """Process Eqs. 7–9 feedback for a completed group."""
        pending = self._pending.pop(group.gid, None)
        if pending is None:
            return None
        assert group.error is not None
        record = FeedbackRecord(
            deadline_hits=group.reward(),
            group_size=len(group),
            error=group.error,
        )
        self.feedbacks += 1
        # ε decays per feedback event so that learning progress is paced
        # by experience, not by pass frequency.
        self.exploration.step()

        next_state, next_obs = self.observe()
        self.value_model.update(
            pending.state,
            pending.obs,
            pending.action,
            record.q_reward,
            next_state,
            next_obs,
            self.actions,
        )
        if self.memory is not None:
            self.memory.record(
                Experience(
                    agent_id=self.agent_id,
                    cycle=self.cycles,
                    state=pending.state,
                    action=pending.action,
                    l_val=record.l_val,
                    reward=record.reward,
                    error=record.error,
                    time=now,
                )
            )
        # Reward-regression rule (§IV.C): if the deadline-hit rate fell
        # below the previous group's, consult the shared memory next
        # cycle.
        previous_hit_fraction = self._last_hit_fraction
        regressed = (
            previous_hit_fraction is not None
            and record.hit_fraction < previous_hit_fraction
        )
        if regressed:
            self._regressed = True
        self._last_hit_fraction = record.hit_fraction

        tel = self.telemetry
        if tel.active:
            self.reward_sum += record.reward
            self.l_val_sum += record.l_val
            if tel.tracing:
                tel.emit(
                    CAT_GROUP,
                    "complete",
                    now,
                    gid=group.gid,
                    agent=self.agent_id,
                    size=len(group),
                )
                tel.emit(
                    CAT_RL,
                    "reward",
                    now,
                    agent=self.agent_id,
                    gid=group.gid,
                    reward=record.reward,
                    l_val=record.l_val,
                    error=record.error,
                    hit_fraction=record.hit_fraction,
                    epsilon=self.exploration.epsilon,
                )
                if regressed:
                    tel.emit(
                        CAT_RL,
                        "regression",
                        now,
                        agent=self.agent_id,
                        hit_fraction=record.hit_fraction,
                        previous=previous_hit_fraction,
                    )
            if tel.metering:
                metrics = tel.metrics
                metrics.counter("rl.feedbacks").inc()
                metrics.histogram("rl.l_val").observe(record.l_val)
                if regressed:
                    metrics.counter("rl.regressions").inc()
        return record

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SiteAgent {self.agent_id} backlog={len(self.backlog)} "
            f"cycles={self.cycles}>"
        )
