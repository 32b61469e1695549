"""Compute node: bounded group queue, split-capable executor, sleep states.

Execution model (paper §III.B, §IV.D.2):

- The node queue holds :class:`~repro.cluster.taskgroup.TaskGroup` objects;
  each group occupies one slot (queue length ``qc`` bounds admission).
- A *feeder* process pops the head group and releases its tasks in EDF
  order to the node's processors through a capacity-1 ready buffer.
- **Split enabled** (paper's split process): as soon as the head group's
  tasks have been drawn, the next group's tasks become available — idle
  processors "steal" tasks from the next waiting group instead of burning
  idle power.
- **Split disabled** (gang mode, used for ablation): the next group is
  held back until every task of the current group has *completed*.
- Processors idle longer than ``idle_timeout`` power-gate into a sleep
  state (``p_sleep``) and pay ``wake_latency`` when work arrives
  (substitution A7 in DESIGN.md; disable with ``allow_sleep=False`` for
  the literal Eq. 5 platform).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..energy.accounting import NodeEnergy, node_energy
from ..energy.meter import ProcState
from ..sim.core import Environment
from ..sim.events import Event
from ..sim.exceptions import Interrupt
from ..sim.process import Process
from ..sim.resources import Store
from ..workload.task import Task
from .processor import Processor
from .taskgroup import TaskGroup

if TYPE_CHECKING:
    from .site import ResourceSite

__all__ = ["ComputeNode", "NodeState", "SleepPolicy"]

#: Default number of group slots in a node queue.  The paper only states
#: the queue "varying in size (length) exists to limit the number of tasks
#: to be scheduled" (§III.B); 4 slots keeps nodes responsive while forcing
#: schedulers to respect back-pressure.
DEFAULT_QUEUE_SLOTS = 4


@dataclass(frozen=True)
class SleepPolicy:
    """Processor power-gating parameters (substitution A7)."""

    allow_sleep: bool = True
    idle_timeout: float = 25.0
    wake_latency: float = 2.0

    def __post_init__(self) -> None:
        if self.idle_timeout < 0:
            raise ValueError("idle_timeout must be non-negative")
        if self.wake_latency < 0:
            raise ValueError("wake_latency must be non-negative")

    def to_dict(self) -> dict:
        """JSON-safe representation (inverse of :meth:`from_dict`)."""
        return {
            "allow_sleep": self.allow_sleep,
            "idle_timeout": self.idle_timeout,
            "wake_latency": self.wake_latency,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SleepPolicy":
        """Rebuild a policy from :meth:`to_dict` output."""
        return cls(
            allow_sleep=bool(data["allow_sleep"]),
            idle_timeout=float(data["idle_timeout"]),
            wake_latency=float(data["wake_latency"]),
        )


@dataclass(frozen=True)
class NodeState:
    """The observable node state ``Sc(t) = (Load, q⁻, {PP1..m})`` (§IV.B)."""

    node_id: str
    #: Total processing weight queued on the node (Load).
    load: float
    #: Available queue slots (q⁻).
    free_slots: int
    #: Instantaneous per-processor power draw ({PP1..m}).
    processor_power_w: tuple[float, ...]
    #: Node processing capacity ``PCc`` (Eq. 2) — static per node.
    processing_capacity: float

    @property
    def total_power_w(self) -> float:
        return sum(self.processor_power_w)


class ComputeNode:
    """A multi-processor compute node with a bounded task-group queue."""

    def __init__(
        self,
        env: Environment,
        node_id: str,
        site_id: str,
        processors: Sequence[Processor],
        queue_slots: int = DEFAULT_QUEUE_SLOTS,
        split_enabled: bool = True,
        sleep_policy: Optional[SleepPolicy] = None,
    ) -> None:
        if not processors:
            raise ValueError(f"node {node_id}: needs at least one processor")
        if queue_slots <= 0:
            raise ValueError(f"node {node_id}: queue_slots must be positive")
        self.env = env
        self.node_id = node_id
        self.site_id = site_id
        self.processors = list(processors)
        self.queue_slots = queue_slots
        self.split_enabled = split_enabled
        self.sleep_policy = sleep_policy or SleepPolicy()

        #: Bounded queue of task groups (one slot per group).
        self.queue: Store = Store(env, capacity=queue_slots)
        #: Rendezvous buffer between the feeder and processor workers.
        self._ready: Store = Store(env, capacity=1)
        #: Triggered (and replaced) whenever the sleep policy changes so
        #: idle workers re-evaluate their power state.
        self._policy_event: Event = Event(env)
        #: Groups admitted but not fully completed, newest last.
        self._active_groups: list[TaskGroup] = []
        self.groups_completed = 0
        self.tasks_completed = 0

        self._task_callbacks: list[Callable[[Task, "ComputeNode"], None]] = []
        self._group_callbacks: list[Callable[[TaskGroup, "ComputeNode"], None]] = []
        self._slot_callbacks: list[Callable[["ComputeNode"], None]] = []
        self._orphan_callbacks: list[
            Callable[[list[Task], "ComputeNode"], None]
        ] = []

        #: True while the node is crashed (failure injection).
        self.failed = False
        self.failures = 0
        self._repair_event: Event = Event(env)

        # Static aggregates, frozen at construction.  Node membership is
        # fixed for the lifetime of the simulation (failures crash and
        # repair a node but never alter its processor set), so Eq. 2's
        # ``PCc`` really is "static per node" as the NodeState docstring
        # promises — freeze it here instead of recomputing per decision.
        self._total_speed_mips = sum(p.speed_mips for p in self.processors)
        self._processing_capacity = self._total_speed_mips / queue_slots

        # Dirty-flag caches for the per-decision aggregates.  The cached
        # values are recomputed with the exact same expressions as the
        # original full scans, so cached and uncached runs are
        # bit-identical; the flags are raised at every mutation point
        # (admission, completion, failure, power transitions).
        self._work_dirty = True
        #: Site whose cached pending count and state version cover this
        #: node; set by :class:`~repro.cluster.site.ResourceSite`.
        self._site: Optional[ResourceSite] = None
        self._load_cache = 0.0
        self._pending_tasks_cache = 0
        self._pending_size_cache = 0.0
        self._power_dirty = True
        self._power_cache: tuple[float, ...] = ()
        self._sleeping_cache = 0
        self._state_cache: Optional[NodeState] = None
        for proc in self.processors:
            proc.on_power_change = self._mark_power_dirty

        self._feeder_proc: Process = env.process(self._feeder())
        self._worker_procs: list[Process] = [
            env.process(self._worker(proc)) for proc in self.processors
        ]

    # -- static properties -------------------------------------------------
    @property
    def num_processors(self) -> int:
        return len(self.processors)

    @property
    def total_speed_mips(self) -> float:
        """Σ_j spj — fixed at construction (processor set is static)."""
        return self._total_speed_mips

    @property
    def processing_capacity(self) -> float:
        """``PCc = (1/qc) Σ_j spj`` (Eq. 2) — static per node.

        Both terms are construction-time constants: the processor set
        never changes and ``qc`` is immutable, so this matches the
        "static per node" contract documented on :class:`NodeState`.
        """
        return self._processing_capacity

    @property
    def max_group_size(self) -> int:
        """Paper §IV.D.1: ``opnum`` "must not exceed the maximum number of
        processors in a node"."""
        return self.num_processors

    # -- observable state ---------------------------------------------------
    @property
    def queued_groups(self) -> int:
        """Groups waiting in the queue (excludes the dispatching head)."""
        return len(self.queue.items)

    @property
    def free_slots(self) -> int:
        """``q⁻`` — available queue spaces."""
        return self.queue_slots - len(self.queue.items)

    @property
    def available(self) -> bool:
        """True when the node is online and has a free queue slot."""
        return not self.failed and self.free_slots > 0

    def _refresh_work_caches(self) -> None:
        """Recompute the admitted-work aggregates from scratch.

        Full rescans with the original expressions — not incremental
        float updates — so cached results are bit-identical to the
        uncached ones regardless of admission/completion order.
        """
        self._load_cache = sum(g.pw for g in self._active_groups)
        self._pending_tasks_cache = sum(
            g.remaining for g in self._active_groups
        )
        self._pending_size_cache = sum(
            t.size_mi
            for g in self._active_groups
            for t in g.tasks
            if not t.completed
        )
        self._work_dirty = False

    def _refresh_power_caches(self) -> None:
        """Recompute the per-processor power snapshot and sleep count."""
        self._power_cache = tuple(
            p.current_power_w for p in self.processors
        )
        self._sleeping_cache = sum(
            1 for p in self.processors if p.state is ProcState.SLEEP
        )
        self._power_dirty = False

    def _mark_work_dirty(self) -> None:
        """Invalidate the admitted-work caches, here and in the site's
        pending count (admission, task or group completion, failure),
        and bump the site's state version."""
        self._work_dirty = True
        site = self._site
        if site is not None:
            site._pending_dirty = True
            site.version += 1

    def _mark_power_dirty(self) -> None:
        """Invalidate power-derived caches (meter or DVFS transition)
        and bump the site's state version."""
        self._power_dirty = True
        self._bump_site_version()

    def _bump_site_version(self) -> None:
        """Tell the site's cached readers that this node changed."""
        site = self._site
        if site is not None:
            site.version += 1

    @property
    def load(self) -> float:
        """Total processing weight of not-yet-completed admitted groups."""
        if self._work_dirty:
            self._refresh_work_caches()
        return self._load_cache

    @property
    def pending_tasks(self) -> int:
        """Tasks admitted to this node and not yet completed."""
        if self._work_dirty:
            self._refresh_work_caches()
        return self._pending_tasks_cache

    @property
    def pending_task_list(self) -> list[Task]:
        """Tasks admitted to this node and not yet completed."""
        return [
            t for g in self._active_groups for t in g.tasks if not t.completed
        ]

    @property
    def pending_size_mi(self) -> float:
        """Total MI of tasks admitted to this node and not yet completed."""
        if self._work_dirty:
            self._refresh_work_caches()
        return self._pending_size_cache

    @property
    def sleeping_processors(self) -> int:
        """Processors currently power-gated (cached; see §IV placement)."""
        if self._power_dirty:
            self._refresh_power_caches()
        return self._sleeping_cache

    def state(self) -> NodeState:
        """Snapshot ``Sc(t)`` for the site agent (§IV.B).

        The snapshot is cached: with many scheduling passes per
        completion, most observations see an unchanged node, so the
        previous (frozen, hence safely shared) ``NodeState`` is
        returned instead of rebuilding one per decision.
        """
        load = self.load
        free_slots = self.queue_slots - len(self.queue.items)
        if self._power_dirty:
            self._refresh_power_caches()
        cached = self._state_cache
        if (
            cached is not None
            and cached.load == load
            and cached.free_slots == free_slots
            and cached.processor_power_w is self._power_cache
        ):
            return cached
        state = NodeState(
            node_id=self.node_id,
            load=load,
            free_slots=free_slots,
            processor_power_w=self._power_cache,
            processing_capacity=self._processing_capacity,
        )
        self._state_cache = state
        return state

    # -- callbacks ------------------------------------------------------------
    def on_task_complete(self, cb: Callable[[Task, "ComputeNode"], None]) -> None:
        self._task_callbacks.append(cb)

    def on_group_complete(self, cb: Callable[[TaskGroup, "ComputeNode"], None]) -> None:
        self._group_callbacks.append(cb)

    def on_slot_freed(self, cb: Callable[["ComputeNode"], None]) -> None:
        self._slot_callbacks.append(cb)

    # -- admission --------------------------------------------------------------
    def submit(self, group: TaskGroup) -> Event:
        """Enqueue *group*; returns the (possibly blocking) put event.

        Schedulers should check :attr:`free_slots` first — a put against a
        full queue blocks until a slot frees, which stalls the submitting
        process.
        """
        group.node_id = self.node_id
        group.assigned_at = self.env.now
        group.completion = Event(self.env)
        group.on_complete(self._group_done)
        self._active_groups.append(group)
        self._mark_work_dirty()
        return self.queue.put(group)

    def try_submit(self, group: TaskGroup) -> bool:
        """Non-blocking :meth:`submit`; False when full or failed."""
        if self.failed or self.free_slots <= 0:
            return False
        self.submit(group)
        return True

    # -- executor processes -------------------------------------------------
    def _feeder(self):
        """Pop head groups and release their tasks to the workers.

        Interrupted on node failure: pending store requests are
        withdrawn and the loop parks until repair.
        """
        while True:
            get_req = None
            put_req = None
            try:
                get_req = self.queue.get()
                # A queued group may have been popped: a slot is free.
                self._bump_site_version()
                group: TaskGroup = yield get_req
                group.dispatched_at = self.env.now
                self._notify_slot_freed()
                for task in group.edf_order():
                    # Capacity-1 buffer: each put blocks until workers
                    # have drawn the previous task, preserving global
                    # EDF-FIFO availability order across groups.
                    put_req = self._ready.put((task, group))
                    yield put_req
                    put_req = None
                if not self.split_enabled and group.completion is not None:
                    # Gang mode: hold the next group until it finishes.
                    if not group.completed and not group.cancelled:
                        yield group.completion
            except Interrupt:
                if get_req is not None and not get_req.triggered:
                    get_req.cancel()
                if put_req is not None and not put_req.triggered:
                    put_req.cancel()
                yield self._repair_event

    def set_sleep_policy(self, policy: SleepPolicy) -> None:
        """Swap the node's power-gating policy at runtime.

        Schedulers that manage power explicitly (Online RL's powercap,
        Q+ learning's go_sleep action) reconfigure nodes through this;
        idle workers re-evaluate their power state immediately.
        """
        self.sleep_policy = policy
        old, self._policy_event = self._policy_event, Event(self.env)
        if not old.triggered:
            old.succeed()

    def _worker(self, proc: Processor):
        """One processor's execution loop with optional power gating.

        Interrupted on node failure: any in-flight task has already been
        orphaned and reset by :meth:`fail`; the processor powers off and
        parks until repair.
        """
        env = self.env
        get_ev = self._ready.get()
        while True:
            try:
                policy = self.sleep_policy
                policy_changed = self._policy_event

                if proc.state is ProcState.SLEEP:
                    # Power-gated: work arrival wakes us; so does a
                    # policy switch to always-awake (e.g. Online RL's
                    # powercap re-admitting this node).
                    yield get_ev | policy_changed
                    if not get_ev.triggered:
                        if not self.sleep_policy.allow_sleep:
                            proc.meter.set_state(ProcState.IDLE, env.now)
                            self._mark_power_dirty()
                            yield env.timeout(policy.wake_latency)
                        continue
                    item = get_ev.value
                    proc.meter.set_state(ProcState.IDLE, env.now)
                    self._mark_power_dirty()
                    yield env.timeout(policy.wake_latency)
                elif policy.allow_sleep:
                    timeout = env.timeout(policy.idle_timeout)
                    yield get_ev | timeout | policy_changed
                    if not get_ev.triggered:
                        if not timeout.triggered:
                            continue  # policy changed: re-evaluate
                        # Idle too long: cancel our place in line,
                        # power-gate, and re-queue at the back so awake
                        # processors are preferred for incoming work.
                        get_ev.cancel()
                        proc.meter.set_state(ProcState.SLEEP, env.now)
                        self._mark_power_dirty()
                        get_ev = self._ready.get()
                        continue
                    item = get_ev.value
                else:
                    yield get_ev | policy_changed
                    if not get_ev.triggered:
                        continue  # policy changed: re-evaluate
                    item = get_ev.value

                task, group = item
                # Busy power and execution time are frozen at start at
                # the processor's current DVFS scale.
                proc.meter.set_state(
                    ProcState.BUSY, env.now, power_w=proc.busy_power_w
                )
                self._mark_power_dirty()
                task.mark_started(env.now, proc.pid, self.site_id)
                yield env.timeout(proc.execution_time(task.size_mi))
                task.mark_finished(env.now)
                proc.meter.set_state(ProcState.IDLE, env.now)
                self._mark_power_dirty()
                self._mark_work_dirty()
                proc.tasks_completed += 1
                self.tasks_completed += 1
                for cb in self._task_callbacks:
                    cb(task, self)
                group.task_done()
                # task_done lowers the group's remaining count, which a
                # callback above may already have cached.
                self._mark_work_dirty()
                get_ev = self._ready.get()
            except Interrupt:
                # Node failure.  Any in-flight task was already orphaned
                # and reset by fail(); do not touch it here.
                if not get_ev.triggered:
                    get_ev.cancel()
                proc.meter.set_state(ProcState.SLEEP, env.now)
                self._mark_power_dirty()
                yield self._repair_event
                proc.meter.set_state(ProcState.IDLE, env.now)
                self._mark_power_dirty()
                get_ev = self._ready.get()

    # -- failure injection ---------------------------------------------------
    def on_tasks_orphaned(
        self, cb: Callable[[list[Task], "ComputeNode"], None]
    ) -> None:
        """Register a callback receiving tasks abandoned by a failure."""
        self._orphan_callbacks.append(cb)

    def fail(self) -> None:
        """Crash the node (crash-stop with task resubmission).

        Every incomplete task admitted to the node — queued, ready, or
        mid-execution — is abandoned, reset, and handed to the orphan
        callbacks (schedulers resubmit them elsewhere); active groups
        are cancelled; processors power off; the executor parks until
        :meth:`repair`.
        """
        if self.failed:
            return
        self.failed = True
        self.failures += 1

        # Sweep every incomplete task out of the node's bookkeeping.
        orphans: list[Task] = []
        for group in self._active_groups:
            group.cancel()
            for task in group.tasks:
                if not task.completed:
                    if task.start_time is not None:
                        task.reset_execution()
                    orphans.append(task)
        self._active_groups.clear()
        self._mark_work_dirty()
        self.queue.items.clear()
        self._ready.items.clear()

        # Interrupt the executor; handlers park processes until repair.
        active = self.env.active_process
        for process in [self._feeder_proc, *self._worker_procs]:
            if process.is_alive and process is not active:
                process.interrupt(cause="node-failure")

        for cb in self._orphan_callbacks:
            cb(list(orphans), self)

    def repair(self) -> None:
        """Bring a failed node back online (empty queue, idle procs)."""
        if not self.failed:
            return
        self.failed = False
        self._bump_site_version()
        old, self._repair_event = self._repair_event, Event(self.env)
        if not old.triggered:
            old.succeed()
        self._notify_slot_freed()

    # -- completion plumbing ---------------------------------------------------
    def _group_done(self, group: TaskGroup) -> None:
        self.groups_completed += 1
        if group in self._active_groups:
            self._active_groups.remove(group)
        self._mark_work_dirty()
        for cb in self._group_callbacks:
            cb(group, self)

    def _notify_slot_freed(self) -> None:
        for cb in self._slot_callbacks:
            cb(self)

    # -- energy -------------------------------------------------------------
    def energy(self, now: Optional[float] = None) -> NodeEnergy:
        """Aggregate node energy ``Ec`` (Eq. 6) as of *now* (default: now)."""
        at = self.env.now if now is None else now
        return node_energy(
            self.node_id, [p.meter.snapshot(at) for p in self.processors]
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ComputeNode {self.node_id} m={self.num_processors} "
            f"PCc={self.processing_capacity:.0f} q={self.queued_groups}/"
            f"{self.queue_slots}>"
        )
