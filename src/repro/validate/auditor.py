"""The strict-mode invariant auditor.

:class:`InvariantAuditor` attaches to a built-but-not-yet-run experiment
(environment + system + scheduler) and independently re-derives the
physics the paper defines, flagging any disagreement with the
simulator's own bookkeeping:

==================  ====================================================
invariant           meaning
==================  ====================================================
clock-monotonic     the simulated clock never moves backwards
dispatch-order      every dispatched event is the minimum of the pending
                    set under the total ``(time, priority, seq)`` order
queue-bound         node queue occupancy never exceeds ``qc`` and the
                    frozen Eq. 2 ``PCc``/dirty-flag caches, site
                    open-node lists and agent ``Sc(t)`` observations
                    match fresh recomputation
task-conservation   ``arrived == completed + in-flight`` at all times
                    (rejected/failed tasks are resubmitted, so they stay
                    in flight until they complete), completions are
                    unique, and resubmission counts agree
energy-closure      every meter's accumulators equal an independently
                    integrated shadow (including DVFS power overrides),
                    per-state time sums close against the clock, and —
                    when a state only ever drew one power level — the
                    literal Eq. 5 ``PPj = p·Σt`` holds within 1e-9
priority-class      Eq. 1: each submitted task's priority equals
                    ``classify_slack(task.slack_fraction)``
memory-cap          no agent ever holds more than the 15-cycle
                    `SharedLearningMemory` budget, and the indexed
                    best-experience answers match the reference scan
qtable-parity       the dense Q backend stays bit-identical to a
                    shadow dict ``QTable`` fed the same updates, and its
                    maintained per-row argmax matches a fresh rescan
==================  ====================================================

Checks are layered for cost: the O(1) clock/dispatch checks run per
event through :attr:`Environment._audit_hook`; structural sweeps run per
learning cycle (rate-limited by ``sweep_interval`` events) and once at
:meth:`finalize`; the expensive Q-table snapshot comparison runs every
``qparity_every``-th sweep.  All hooks are instance-attribute wrappers
installed at attach time — nothing is paid when the auditor is absent.

The auditor is deliberately white-box: it reads private kernel/meter
state, because its job is to cross-check exactly the caches and
incremental structures the fast paths maintain.  It never *mutates*
simulation state and consumes no RNG, so an audited run produces
bit-identical metrics to an unaudited one (the golden-seed digests hold
with auditing on).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..cluster.node import NodeState
from ..core.agent import SiteAgent
from ..core.state import discretize, observe_site
from ..energy.meter import ProcessorEnergyMeter, ProcState
from ..obs import CAT_AUDIT, NULL_TELEMETRY
from ..rl.dense import DenseQTable
from ..rl.qlearning import QTable
from ..sim.core import Environment
from ..workload.priorities import classify_slack
from .report import AuditReport, InvariantViolationError, Violation

__all__ = [
    "InvariantAuditor",
    "INV_CLOCK",
    "INV_ORDER",
    "INV_QUEUE",
    "INV_CONSERVATION",
    "INV_ENERGY",
    "INV_PRIORITY",
    "INV_MEMORY",
    "INV_QPARITY",
]

INV_CLOCK = "clock-monotonic"
INV_ORDER = "dispatch-order"
INV_QUEUE = "queue-bound"
INV_CONSERVATION = "task-conservation"
INV_ENERGY = "energy-closure"
INV_PRIORITY = "priority-class"
INV_MEMORY = "memory-cap"
INV_QPARITY = "qtable-parity"


def _close(a: float, b: float, tol: float) -> bool:
    """|a − b| within *tol*, relative to the larger magnitude (≥ 1)."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class _MeterShadow:
    """Independent power×time integrator mirroring one energy meter.

    Replays every ``set_state``/``finalize`` with the same IEEE-754
    operations the meter itself performs, so the two must stay
    bit-equal; any drift means a corrupted accumulator.  Also tracks the
    set of distinct power levels charged per state, which decides
    whether the literal single-rate Eq. 5 check applies (DVFS runs tasks
    at varying busy power, where only the shadow comparison is exact).
    """

    __slots__ = (
        "meter",
        "since",
        "state",
        "power",
        "busy_t",
        "idle_t",
        "sleep_t",
        "busy_e",
        "idle_e",
        "sleep_e",
        "powers",
        "settled",
    )

    def __init__(self, meter: ProcessorEnergyMeter) -> None:
        self.meter = meter
        self.since = meter._since
        self.state = meter._state
        self.power = meter._current_power()
        self.busy_t = meter._busy_time
        self.idle_t = meter._idle_time
        self.sleep_t = meter._sleep_time
        self.busy_e = meter._busy_energy
        self.idle_e = meter._idle_energy
        self.sleep_e = meter._sleep_energy
        #: Distinct power levels ever charged, per state.
        self.powers: dict[ProcState, set[float]] = {
            ProcState.BUSY: set(),
            ProcState.IDLE: set(),
            ProcState.SLEEP: set(),
        }
        self.settled = False

    def charge(self, now: float) -> None:
        span = now - self.since
        if span > 0:
            energy = span * self.power
            self.powers[self.state].add(self.power)
            if self.state is ProcState.BUSY:
                self.busy_t += span
                self.busy_e += energy
            elif self.state is ProcState.IDLE:
                self.idle_t += span
                self.idle_e += energy
            else:
                self.sleep_t += span
                self.sleep_e += energy
        self.since = now

    def transition(
        self, state: ProcState, now: float, power_w: Optional[float]
    ) -> None:
        self.charge(now)
        self.state = state
        self.power = (
            power_w
            if power_w is not None
            else self.meter.profile.power_at(state.value)
        )


class InvariantAuditor:
    """Attach invariant checks to an experiment before it runs.

    Parameters
    ----------
    env:
        The simulation environment.  The per-event clock/dispatch hook
        is installed immediately; it must happen before ``env.run()``.
    system, scheduler:
        Optional — attach what exists.  Unit tests auditing a bare
        cluster pass only *system*; :func:`repro.experiments.runner.run_experiment`
        passes both.
    on_violation:
        ``"raise"`` (default) raises :class:`InvariantViolationError` at
        the moment of detection; ``"collect"`` records violations in the
        report and keeps running.
    sweep_interval:
        Minimum events between learning-cycle structural sweeps (rate
        limit; a manual :meth:`sweep` always runs).
    qparity_every:
        Run the full dense-vs-dict Q snapshot comparison on every Nth
        sweep (it is the one check that is not O(topology)).
    tolerance:
        Closure tolerance for the energy checks (per the Eq. 5
        contract: 1e-9, relative to the larger magnitude).
    """

    def __init__(
        self,
        env: Environment,
        system: Optional[Any] = None,
        scheduler: Optional[Any] = None,
        *,
        on_violation: str = "raise",
        sweep_interval: int = 200,
        qparity_every: int = 16,
        tolerance: float = 1e-9,
    ) -> None:
        if on_violation not in ("raise", "collect"):
            raise ValueError(f"unknown on_violation mode {on_violation!r}")
        if sweep_interval <= 0:
            raise ValueError("sweep_interval must be positive")
        if qparity_every <= 0:
            raise ValueError("qparity_every must be positive")
        self.env = env
        self.system = None
        self.scheduler = None
        self.on_violation = on_violation
        self.sweep_interval = sweep_interval
        self.qparity_every = qparity_every
        self.tolerance = tolerance
        self.telemetry = env.telemetry if env.telemetry is not None else NULL_TELEMETRY
        self.report = AuditReport()

        self._last_key: Optional[tuple[float, int, int]] = None
        self._events_at_last_sweep = 0
        self._shadows: list[_MeterShadow] = []
        self._nodes: list[Any] = []
        self._sites: list[Any] = []
        #: tid -> Task for every task ever submitted to the scheduler.
        self._tasks: dict[Any, Any] = {}
        #: tid -> completion count (anything > 1 is a violation).
        self._completions: dict[Any, int] = {}
        self._completions_total = 0
        self._resubmissions_seen = 0
        #: Tasks handed back by node-failure orphan callbacks.  Every
        #: orphan must come back through ``submit`` (the resubmission
        #: leg of task conservation — the invariant that makes failure
        #: injection safe under service-mode slicing).
        self._orphans_seen = 0
        self._memory = None
        #: Learning agents whose cached site observation is swept.
        self._agents: list[SiteAgent] = []
        #: (label, dense table, shadow dict table) triples.
        self._qmirrors: list[tuple[str, DenseQTable, QTable]] = []

        if env._audit_hook is not None:
            raise RuntimeError("environment already has an audit hook")
        env._audit_hook = self._on_event
        if system is not None:
            self.attach_system(system)
        if scheduler is not None:
            self.attach_scheduler(scheduler)

    # -- violation plumbing -------------------------------------------------
    def _violate(
        self, invariant: str, subject: str, message: str, **details: Any
    ) -> None:
        violation = Violation(
            invariant=invariant,
            time=self.env.now,
            subject=subject,
            message=message,
            details=details,
        )
        self.report.add(violation)
        tel = self.telemetry
        if tel.active:
            if tel.tracing:
                tel.emit(
                    CAT_AUDIT,
                    invariant,
                    self.env.now,
                    subject=subject,
                    message=message,
                )
            if tel.metering:
                tel.metrics.counter("audit.violations").inc()
        if self.on_violation == "raise":
            raise InvariantViolationError(violation, self.report)

    # -- per-event hook (clock + dispatch order) ----------------------------
    def _on_event(self, entry: tuple) -> None:
        rep = self.report
        rep.events_audited += 1
        env = self.env
        t = entry[0]
        if t < env._now:
            self._violate(
                INV_CLOCK,
                "env",
                f"clock moved backwards: event at t={t!r} dispatched "
                f"while now={env._now!r}",
                event_time=t,
                now=env._now,
            )
        key = entry[:3]
        # The popped entry must be the minimum of everything still
        # pending — each source's head is its own minimum (heap
        # property / sorted-by-construction), so five comparisons
        # re-verify the exact (time, priority, seq) dispatch order.
        smaller = None
        q = env._queue
        if q and q[0][:3] < key:
            smaller = ("fallback-heap", q[0])
        a = env._active
        if smaller is None and a and a[0][:3] < key:
            smaller = ("active-ring", a[0])
        u = env._urgent
        if smaller is None and u and u[0][:3] < key:
            smaller = ("urgent-ring", u[0])
        n = env._normal
        if smaller is None and n and n[0][:3] < key:
            smaller = ("normal-ring", n[0])
        ts = env._times
        if smaller is None and ts:
            at = ts[0]
            if at < t or (at == t and env._buckets[at][0][:3] < key):
                smaller = ("calendar", env._buckets[at][0])
        if smaller is not None:
            where, head = smaller
            self._violate(
                INV_ORDER,
                "env",
                f"dispatched {key} while {where} still holds the "
                f"smaller entry {head[:3]}",
                dispatched=key,
                pending=head[:3],
                source=where,
            )
        # Within one (time, priority) class, dispatch must follow
        # insertion order: later-scheduled events always carry larger
        # seq ids, so at a fixed (t, p) the popped seq strictly grows.
        last = self._last_key
        if (
            last is not None
            and t == last[0]
            and entry[1] == last[1]
            and entry[2] <= last[2]
        ):
            self._violate(
                INV_ORDER,
                "env",
                f"FIFO order broken at (t={t!r}, prio={entry[1]}): "
                f"seq {entry[2]} dispatched after seq {last[2]}",
                dispatched=key,
                previous=last,
            )
        self._last_key = key

    # -- attachment ---------------------------------------------------------
    def attach_system(self, system: Any) -> None:
        """Shadow every energy meter and register the node set."""
        if self.system is not None:
            raise RuntimeError("a system is already attached")
        self.system = system
        self._nodes = list(system.nodes)
        self._sites = list(system.sites)
        for proc in system.processors:
            self._wrap_meter(proc.meter)

    def _wrap_meter(self, meter: ProcessorEnergyMeter) -> None:
        shadow = _MeterShadow(meter)
        self._shadows.append(shadow)
        orig_set = meter.set_state

        def set_state(state, now, power_w=None, _orig=orig_set, _sh=shadow):
            _orig(state, now, power_w=power_w)
            _sh.transition(state, now, power_w)

        orig_fin = meter.finalize

        def finalize(now, _orig=orig_fin, _sh=shadow):
            result = _orig(now)
            _sh.charge(now)
            _sh.settled = True
            return result

        meter.set_state = set_state  # type: ignore[method-assign]
        meter.finalize = finalize  # type: ignore[method-assign]

    def attach_scheduler(self, scheduler: Any) -> None:
        """Track submissions/completions and hook the learning cycle."""
        if self.scheduler is not None:
            raise RuntimeError("a scheduler is already attached")
        if scheduler.env is None:
            raise RuntimeError("attach the scheduler to the system first")
        self.scheduler = scheduler

        orig_submit = scheduler.submit

        def submit(task, _orig=orig_submit):
            self._on_submit(task)
            return _orig(task)

        scheduler.submit = submit  # type: ignore[method-assign]

        for node in scheduler.system.nodes:
            node.on_task_complete(self._on_task_complete)
            node.on_tasks_orphaned(self._on_tasks_orphaned)

        orig_cycle = scheduler._sample_cycle

        def _sample_cycle(_orig=orig_cycle):
            _orig()
            if (
                self.report.events_audited - self._events_at_last_sweep
                >= self.sweep_interval
            ):
                self.sweep()

        scheduler._sample_cycle = _sample_cycle  # type: ignore[method-assign]

        memory = getattr(scheduler, "memory", None)
        if memory is not None:
            self._wrap_memory(memory)
        for agent_id, agent in getattr(scheduler, "agents", {}).items():
            if isinstance(agent, SiteAgent):
                self._agents.append(agent)
            model = getattr(agent, "value_model", None)
            table = getattr(model, "table", None)
            if isinstance(table, DenseQTable):
                self._wrap_qtable(agent_id, table)

    def _wrap_memory(self, memory: Any) -> None:
        self._memory = memory
        orig_record = memory.record

        def record(experience, _orig=orig_record):
            _orig(experience)
            ring = memory._rings[experience.agent_id]
            self.report.count(INV_MEMORY)
            if len(ring) > memory.cycles_per_agent:
                self._violate(
                    INV_MEMORY,
                    experience.agent_id,
                    f"agent holds {len(ring)} experiences, cap is "
                    f"{memory.cycles_per_agent}",
                    held=len(ring),
                    cap=memory.cycles_per_agent,
                )

        memory.record = record  # type: ignore[method-assign]

    def _wrap_qtable(self, agent_id: str, table: DenseQTable) -> None:
        shadow = QTable(
            alpha=table.alpha, gamma=table.gamma, initial_q=table.initial_q
        )
        self._qmirrors.append((agent_id, table, shadow))
        orig_update = table.update

        def update(
            state,
            action,
            reward,
            next_state=None,
            next_actions=(),
            alpha=None,
            _orig=orig_update,
            _sh=shadow,
        ):
            _sh.update(
                state,
                action,
                reward,
                next_state=next_state,
                next_actions=next_actions,
                alpha=alpha,
            )
            return _orig(
                state,
                action,
                reward,
                next_state=next_state,
                next_actions=next_actions,
                alpha=alpha,
            )

        orig_bulk = table.bulk_load

        def bulk_load(entries, _orig=orig_bulk, _sh=shadow):
            entries = list(
                entries.items() if hasattr(entries, "items") else entries
            )
            _sh.bulk_load(entries)
            _orig(entries)

        table.update = update  # type: ignore[method-assign]
        table.bulk_load = bulk_load  # type: ignore[method-assign]

    # -- submission/completion tracking -------------------------------------
    def _on_submit(self, task: Any) -> None:
        rep = self.report
        rep.count(INV_PRIORITY)
        try:
            expected = classify_slack(task.slack_fraction)
        except ValueError as exc:
            self._violate(
                INV_PRIORITY,
                f"task:{task.tid}",
                f"slack fraction unclassifiable: {exc}",
            )
        else:
            if expected is not task.priority:
                self._violate(
                    INV_PRIORITY,
                    f"task:{task.tid}",
                    f"priority {task.priority} does not match Eq. 1 "
                    f"classification {expected} "
                    f"(slack fraction {task.slack_fraction!r})",
                    assigned=str(task.priority),
                    classified=str(expected),
                )
        known = self._tasks.get(task.tid)
        if known is None:
            self._tasks[task.tid] = task
        elif task.completed:
            self._violate(
                INV_CONSERVATION,
                f"task:{task.tid}",
                "completed task resubmitted",
            )
        else:
            self._resubmissions_seen += 1

    def _on_task_complete(self, task: Any, node: Any) -> None:
        count = self._completions.get(task.tid, 0) + 1
        self._completions[task.tid] = count
        self._completions_total += 1
        if count > 1:
            self._violate(
                INV_CONSERVATION,
                f"task:{task.tid}",
                f"task completed {count} times",
                completions=count,
            )
        if task.tid not in self._tasks:
            self._violate(
                INV_CONSERVATION,
                f"task:{task.tid}",
                "completed a task that was never submitted",
            )

    def _on_tasks_orphaned(self, tasks: Any, node: Any) -> None:
        """A node crash handed back its incomplete tasks.

        Runs *after* the scheduler's own orphan callback (registered at
        attach), so by now every orphan must already have been pushed
        back through the wrapped ``submit`` — the per-sweep
        orphans == resubmissions check closes the loop.
        """
        for task in tasks:
            if task.tid not in self._tasks:
                self._violate(
                    INV_CONSERVATION,
                    f"task:{task.tid}",
                    f"node {node.node_id} orphaned a task that was "
                    "never submitted",
                )
            elif task.completed:
                self._violate(
                    INV_CONSERVATION,
                    f"task:{task.tid}",
                    f"node {node.node_id} orphaned a completed task",
                )
        self._orphans_seen += len(tasks)

    # -- structural sweeps ---------------------------------------------------
    def sweep(self, *, final: bool = False) -> None:
        """Run the structural checks against the current state."""
        self.report.sweeps += 1
        self._events_at_last_sweep = self.report.events_audited
        self._sweep_nodes()
        self._sweep_sites()
        self._sweep_observations()
        self._sweep_energy()
        if self.scheduler is not None:
            self._sweep_conservation()
        if self._memory is not None:
            self._sweep_memory()
        if self._qmirrors and (
            final or self.report.sweeps % self.qparity_every == 0
        ):
            self._sweep_qtables()

    def _sweep_nodes(self) -> None:
        rep = self.report
        for node in self._nodes:
            rep.count(INV_QUEUE)
            occupancy = len(node.queue.items)
            if occupancy > node.queue_slots:
                self._violate(
                    INV_QUEUE,
                    node.node_id,
                    f"queue holds {occupancy} groups, qc bound is "
                    f"{node.queue_slots} (Eq. 2)",
                    occupancy=occupancy,
                    qc=node.queue_slots,
                )
            for group in node.queue.items:
                if group not in node._active_groups:
                    self._violate(
                        INV_QUEUE,
                        node.node_id,
                        "queued group is not in the node's active set",
                    )
                    break
            # Frozen Eq. 2 aggregates vs fresh recomputation (same
            # expressions as the constructor, so equality is exact).
            total = sum(p.speed_mips for p in node.processors)
            if (
                node._total_speed_mips != total
                or node._processing_capacity != total / node.queue_slots
            ):
                self._violate(
                    INV_QUEUE,
                    node.node_id,
                    f"frozen PCc {node._processing_capacity!r} != "
                    f"Eq. 2 recomputation {total / node.queue_slots!r}",
                    frozen=node._processing_capacity,
                    recomputed=total / node.queue_slots,
                )
            # Dirty-flag cache coherence (PR 3's invalidation points):
            # a clean cache must equal the full rescan bit-for-bit.
            if not node._work_dirty:
                load = sum(g.pw for g in node._active_groups)
                pending = sum(g.remaining for g in node._active_groups)
                if (
                    node._load_cache != load
                    or node._pending_tasks_cache != pending
                ):
                    self._violate(
                        INV_QUEUE,
                        node.node_id,
                        f"clean work cache (load={node._load_cache!r}, "
                        f"pending={node._pending_tasks_cache}) != rescan "
                        f"(load={load!r}, pending={pending})",
                        cached_load=node._load_cache,
                        fresh_load=load,
                    )
            if not node._power_dirty:
                power = tuple(p.current_power_w for p in node.processors)
                if node._power_cache != power:
                    self._violate(
                        INV_QUEUE,
                        node.node_id,
                        "clean power cache does not match the processors' "
                        "current draw",
                    )

    def _sweep_sites(self) -> None:
        # Site pending-count cache coherence: nodes raise the site flag
        # wherever they invalidate their own work cache, so a clean site
        # count must equal the per-node rescan exactly.  The open-node
        # list is cached on the site version, which every node mutation
        # bumps, so a current list must equal the availability scan.
        for site in self._sites:
            if site._open_version == site.version:
                self.report.count(INV_QUEUE)
                fresh_open = [n for n in site.nodes if n.available]
                if site._open_cache != fresh_open:
                    self._violate(
                        INV_QUEUE,
                        site.site_id,
                        f"open-node list cached at version {site.version} "
                        f"holds {[n.node_id for n in site._open_cache]}, "
                        f"availability scan says "
                        f"{[n.node_id for n in fresh_open]}",
                    )
            if site._pending_dirty:
                continue
            self.report.count(INV_QUEUE)
            pending = sum(
                g.remaining for n in site.nodes for g in n._active_groups
            )
            if site._pending_cache != pending:
                self._violate(
                    INV_QUEUE,
                    site.site_id,
                    f"clean site pending count {site._pending_cache} != "
                    f"node rescan {pending}",
                    cached=site._pending_cache,
                    fresh=pending,
                )

    def _sweep_observations(self) -> None:
        # An agent observation stamped with the current site version
        # must equal one rebuilt from the nodes' raw state with the
        # uncached expressions (no node cache is read or refreshed).
        for agent in self._agents:
            site = agent.site
            if agent._obs_version != site.version:
                continue
            self.report.count(INV_QUEUE)
            states = [
                NodeState(
                    node_id=n.node_id,
                    load=sum(g.pw for g in n._active_groups),
                    free_slots=n.queue_slots - len(n.queue.items),
                    processor_power_w=tuple(
                        p.current_power_w for p in n.processors
                    ),
                    processing_capacity=n._processing_capacity,
                )
                for n in site.nodes
            ]
            obs = observe_site(
                states, agent._max_power_w, agent._total_queue_slots
            )
            fresh = (discretize(obs), obs)
            if agent._observation != fresh:
                self._violate(
                    INV_QUEUE,
                    agent.agent_id,
                    f"observation cached at site version {site.version} "
                    f"is {agent._observation!r}, fresh rebuild is "
                    f"{fresh!r}",
                )

    def _sweep_energy(self) -> None:
        rep = self.report
        tol = self.tolerance
        for shadow in self._shadows:
            rep.count(INV_ENERGY)
            meter = shadow.meter
            pid = meter.owner or "proc"
            pairs = (
                ("busy_time", meter._busy_time, shadow.busy_t),
                ("idle_time", meter._idle_time, shadow.idle_t),
                ("sleep_time", meter._sleep_time, shadow.sleep_t),
                ("busy_energy", meter._busy_energy, shadow.busy_e),
                ("idle_energy", meter._idle_energy, shadow.idle_e),
                ("sleep_energy", meter._sleep_energy, shadow.sleep_e),
            )
            for name, observed, expected in pairs:
                if not _close(observed, expected, tol):
                    self._violate(
                        INV_ENERGY,
                        pid,
                        f"meter {name} {observed!r} drifted from the "
                        f"shadow integrator's {expected!r}",
                        field=name,
                        observed=observed,
                        expected=expected,
                    )
            if meter._since != shadow.since:
                self._violate(
                    INV_ENERGY,
                    pid,
                    f"meter last transition {meter._since!r} != shadow "
                    f"{shadow.since!r}",
                )
            # Time closure: per-state times must account for every
            # second between metering start and the last transition.
            elapsed = meter._since - meter.start_time
            total_t = meter._busy_time + meter._idle_time + meter._sleep_time
            if not _close(total_t, elapsed, tol):
                self._violate(
                    INV_ENERGY,
                    pid,
                    f"state times sum to {total_t!r} but {elapsed!r} "
                    "elapsed since metering started",
                    observed=total_t,
                    expected=elapsed,
                )
            # Literal Eq. 5 (PPj = pmax·Σ busy + pmin·idle): valid per
            # state whenever only one power level was ever charged —
            # DVFS varies busy power, in which case the shadow
            # comparison above is the (stronger, exact) check.
            for state_powers, time_sum, energy_sum, name in (
                (shadow.powers[ProcState.BUSY], meter._busy_time,
                 meter._busy_energy, "busy"),
                (shadow.powers[ProcState.IDLE], meter._idle_time,
                 meter._idle_energy, "idle"),
                (shadow.powers[ProcState.SLEEP], meter._sleep_time,
                 meter._sleep_energy, "sleep"),
            ):
                if len(state_powers) == 1:
                    (rate,) = state_powers
                    if not _close(energy_sum, rate * time_sum, tol):
                        self._violate(
                            INV_ENERGY,
                            pid,
                            f"Eq. 5 closure failed for {name}: energy "
                            f"{energy_sum!r} != {rate!r} W × "
                            f"{time_sum!r} s",
                            state=name,
                            observed=energy_sum,
                            expected=rate * time_sum,
                        )

    def _sweep_conservation(self) -> None:
        rep = self.report
        rep.count(INV_CONSERVATION)
        sch = self.scheduler
        arrived = len(self._tasks)
        completed = len(sch.completed)
        if completed != self._completions_total:
            self._violate(
                INV_CONSERVATION,
                sch.name,
                f"scheduler recorded {completed} completions but nodes "
                f"reported {self._completions_total}",
                scheduler=completed,
                nodes=self._completions_total,
            )
        node_total = sum(n.tasks_completed for n in self._nodes)
        if self._nodes and node_total != self._completions_total:
            self._violate(
                INV_CONSERVATION,
                sch.name,
                f"node completion counters sum to {node_total}, "
                f"callbacks saw {self._completions_total}",
            )
        in_flight = sum(
            1 for t in self._tasks.values() if not t.completed
        )
        if arrived != completed + in_flight:
            self._violate(
                INV_CONSERVATION,
                sch.name,
                f"conservation broken: arrived {arrived} != completed "
                f"{completed} + in-flight {in_flight}",
                arrived=arrived,
                completed=completed,
                in_flight=in_flight,
            )
        if self._resubmissions_seen != sch.tasks_resubmitted:
            self._violate(
                INV_CONSERVATION,
                sch.name,
                f"scheduler counted {sch.tasks_resubmitted} "
                f"resubmissions, auditor saw {self._resubmissions_seen}",
            )
        if self._orphans_seen != self._resubmissions_seen:
            self._violate(
                INV_CONSERVATION,
                sch.name,
                f"node crashes orphaned {self._orphans_seen} task(s) "
                f"but only {self._resubmissions_seen} came back through "
                f"submit — a crash lost or duplicated work",
                orphaned=self._orphans_seen,
                resubmitted=self._resubmissions_seen,
            )

    def _sweep_memory(self) -> None:
        rep = self.report
        memory = self._memory
        rep.count(INV_MEMORY)
        for agent_id, ring in memory._rings.items():
            if len(ring) > memory.cycles_per_agent:
                self._violate(
                    INV_MEMORY,
                    agent_id,
                    f"agent holds {len(ring)} experiences, cap is "
                    f"{memory.cycles_per_agent}",
                    held=len(ring),
                    cap=memory.cycles_per_agent,
                )
        # Indexed best-experience answers vs the reference scan.
        if memory.indexed:
            indexed = memory.best_experience()
            scanned = memory.scan_best_experience()
            if indexed is not scanned:
                self._violate(
                    INV_MEMORY,
                    "shared-memory",
                    "indexed global best experience differs from the "
                    "reference scan",
                )
            elif scanned is not None:
                state = scanned.state
                if memory.best_experience(state) is not (
                    memory.scan_best_experience(state)
                ):
                    self._violate(
                        INV_MEMORY,
                        "shared-memory",
                        "indexed per-state best experience differs from "
                        "the reference scan",
                    )

    def _sweep_qtables(self) -> None:
        rep = self.report
        for agent_id, table, shadow in self._qmirrors:
            rep.count(INV_QPARITY)
            dense = table.snapshot()
            mirror = shadow.snapshot()
            if dense != mirror:
                diff_keys = [
                    k
                    for k in set(dense) | set(mirror)
                    if dense.get(k) != mirror.get(k)
                ]
                key = diff_keys[0]
                self._violate(
                    INV_QPARITY,
                    agent_id,
                    f"dense backend diverged from the dict shadow at "
                    f"{key!r}: {dense.get(key)!r} != {mirror.get(key)!r} "
                    f"({len(diff_keys)} differing entries)",
                    differing=len(diff_keys),
                )
            bad_rows = table.audit_argmax()
            if bad_rows:
                state, c_col, c_val, t_col, t_val = bad_rows[0]
                self._violate(
                    INV_QPARITY,
                    agent_id,
                    f"maintained argmax for state {state!r} is "
                    f"(col {c_col}, {c_val!r}) but rescan says "
                    f"(col {t_col}, {t_val!r})",
                    bad_rows=len(bad_rows),
                )

    # -- end of run ----------------------------------------------------------
    def finalize(self) -> AuditReport:
        """Final sweep plus end-of-run conservation; returns the report."""
        self.sweep(final=True)
        sch = self.scheduler
        if (
            sch is not None
            and sch.all_done is not None
            and sch.all_done.triggered
        ):
            missing = [
                tid for tid, t in self._tasks.items() if not t.completed
            ]
            if missing:
                self._violate(
                    INV_CONSERVATION,
                    sch.name,
                    f"run declared done but {len(missing)} submitted "
                    f"task(s) never completed (e.g. tid {missing[0]})",
                    missing=len(missing),
                )
        self.report.finalized = True
        return self.report

    def detach(self) -> None:
        """Remove the environment hook (wrapped methods stay in place)."""
        # == not `is`: accessing a bound method builds a fresh object.
        if self.env._audit_hook == self._on_event:
            self.env._audit_hook = None
