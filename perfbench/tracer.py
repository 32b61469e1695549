"""Per-layer span tracer installed from outside the program.

The tracer wraps public functions of the ``repro`` package at each layer
boundary (class methods, properties and module-level functions) with a
timing shim.  Spans nest through one stack, so every layer gets both a
call count and a *self time*: its span time minus the time of the
wrapped spans it called.  The shims only read; a traced simulation must
produce bit-identical outcomes to an untraced one.

Nothing here imports ``repro`` at import time, so the benchmark can
report a missing source tree cleanly.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Tuple

BATCH = frozenset({"paper-mix", "overload", "wide-80"})
ALL = BATCH | {"service-journal"}
SERVICE = frozenset({"service-journal"})
PAPER = frozenset({"paper-mix"})


@dataclass(frozen=True)
class Boundary:
    """One wrapped public symbol and the workloads that must reach it."""

    name: str
    module: str
    attr: str
    #: Workloads on which the boundary must record at least one call.
    required: FrozenSet[str]
    #: When True, every other workload must record zero calls.
    exclusive: bool = False
    #: A generator function: each ``next`` on its result is one span.
    generator: bool = False


BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("sim.run", "repro.sim.core", "Environment.run", ALL),
    Boundary("core.backlog.add", "repro.core.grouping", "Backlog.add", ALL),
    Boundary("core.backlog.take", "repro.core.grouping", "Backlog.take", ALL),
    Boundary("core.backlog.oldest_arrival", "repro.core.grouping",
             "Backlog.oldest_arrival", ALL),
    Boundary("core.run_pass", "repro.core.agent", "SiteAgent.run_pass", ALL),
    Boundary("core.merge_next_group", "repro.core.grouping",
             "merge_next_group", ALL),
    Boundary("core.group_completed", "repro.core.agent",
             "SiteAgent.group_completed", ALL),
    Boundary("core.routing.select", "repro.core.dispatch",
             "LeastLoadedRouting.select", ALL),
    Boundary("core.memory.record", "repro.core.shared_memory",
             "SharedLearningMemory.record", ALL),
    Boundary("core.memory.best_action", "repro.core.shared_memory",
             "SharedLearningMemory.best_action", ALL),
    Boundary("rl.dense_q.update", "repro.rl.dense", "DenseQTable.update", ALL),
    Boundary("rl.dense_q.best_action", "repro.rl.dense",
             "DenseQTable.best_action", ALL),
    Boundary("cluster.build_system", "repro.cluster.system", "build_system",
             ALL),
    Boundary("cluster.node.state", "repro.cluster.node", "ComputeNode.state",
             ALL),
    Boundary("cluster.node.try_submit", "repro.cluster.node",
             "ComputeNode.try_submit", ALL),
    Boundary("cluster.site.pending_tasks", "repro.cluster.site",
             "ResourceSite.pending_tasks", ALL),
    Boundary("cluster.site.states", "repro.cluster.site",
             "ResourceSite.states", ALL),
    Boundary("energy.sample_cycle", "repro.energy.meter",
             "MeterBank.sample_cycle", ALL),
    Boundary("energy.set_state", "repro.energy.meter",
             "ProcessorEnergyMeter.set_state", ALL),
    Boundary("baselines.shortest_queue_node", "repro.baselines.common",
             "shortest_queue_node", PAPER, exclusive=True),
    Boundary("workload.generate", "repro.workload.generator",
             "WorkloadGenerator.generate", BATCH, exclusive=True),
    Boundary("workload.iter_tasks", "repro.workload.generator",
             "WorkloadGenerator.iter_tasks", SERVICE, exclusive=True,
             generator=True),
    Boundary("metrics.collect_metrics", "repro.metrics.collector",
             "collect_metrics", ALL),
    Boundary("service.submit", "repro.service.ingress", "IngressQueue.submit",
             SERVICE, exclusive=True),
    Boundary("service.write_admit", "repro.service.journal",
             "AdmissionJournal.write_admit", SERVICE, exclusive=True),
    Boundary("service.advance", "repro.service.engine", "SliceEngine.advance",
             SERVICE, exclusive=True),
    Boundary("service.drain", "repro.service.engine", "SliceEngine.drain",
             SERVICE, exclusive=True),
)


def _repro_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


class TracerError(RuntimeError):
    """A self-check of the tracer failed (the message names the symbol)."""


class Tracer:
    """Installs span shims on :data:`BOUNDARIES` and accumulates stats.

    ``stats[name]`` is ``[calls, self_seconds]``.  Single-threaded by
    design: the workloads run one simulation at a time in one thread.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        self.depth_max = 0
        self.dispatched = 0
        self.tasks = 0
        #: Inclusive wall time of each *admitting* ``IngressQueue.submit``.
        self.ack_seconds: List[float] = []
        self._stack: List[float] = []
        self._undo: List[Callable[[], None]] = []
        #: Wrapped module-level functions: name -> (original, shim).
        self._functions: Dict[str, Tuple[Callable, Callable]] = {}

    def reset(self) -> None:
        for entry in self.stats.values():
            entry[0] = 0
            entry[1] = 0.0
        self.depth_max = 0
        self.dispatched = 0
        self.tasks = 0
        self.ack_seconds.clear()

    # -- shims -----------------------------------------------------------
    def _shim(self, name: str, fn: Callable, after=None) -> Callable:
        entry = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def shim(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                child = stack.pop()
                entry[0] += 1
                entry[1] += span - child
                if stack:
                    stack[-1] += span
            if after is not None:
                after(args, result, span)
            return result

        shim.__wrapped__ = fn
        return shim

    def _iter_shim(self, name: str, fn: Callable) -> Callable:
        """Shim for a generator function: every ``next`` is one span."""
        entry = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def timed(iterator):
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    span = clock() - t0
                    child = stack.pop()
                    entry[0] += 1
                    entry[1] += span - child
                    if stack:
                        stack[-1] += span
                tracer.tasks += 1
                yield item

        def shim(*args, **kwargs):
            return timed(fn(*args, **kwargs))

        shim.__wrapped__ = fn
        return shim

    def _after_hooks(self) -> Dict[str, Callable]:
        def backlog_add(args, result, span):
            depth = len(args[0])
            if depth > self.depth_max:
                self.depth_max = depth

        def run_pass(args, result, span):
            self.dispatched += result

        def generate(args, result, span):
            self.tasks += len(result)

        def submit(args, result, span):
            if result:
                self.ack_seconds.append(span)

        return {
            "core.backlog.add": backlog_add,
            "core.run_pass": run_pass,
            "workload.generate": generate,
            "service.submit": submit,
        }

    # -- install / uninstall ---------------------------------------------
    def install(self) -> None:
        """Wrap every boundary; raises :class:`TracerError` on a missing
        symbol (after undoing any wrapping already done)."""
        hooks = self._after_hooks()
        try:
            # Import every boundary module before wrapping anything, so no
            # module binds an already-installed shim at its import time.
            modules = [self._import(b) for b in BOUNDARIES]
            for boundary, module in zip(BOUNDARIES, modules):
                self._install_one(boundary, module, hooks.get(boundary.name))
        except TracerError:
            self.uninstall()
            raise

    @staticmethod
    def _import(boundary: Boundary):
        try:
            return importlib.import_module(boundary.module)
        except ImportError as exc:
            raise TracerError(
                f"cannot import {boundary.module}: {exc}"
            ) from exc

    def _wrap(self, boundary: Boundary, fn: Callable, after) -> Callable:
        if boundary.generator:
            return self._iter_shim(boundary.name, fn)
        return self._shim(boundary.name, fn, after)

    def _install_one(self, boundary: Boundary, module, after) -> None:
        label = f"{boundary.module}.{boundary.attr}"
        owner_name, _, attr = boundary.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                raise TracerError(f"public symbol {label} is missing")
            if isinstance(original, property):
                if original.fget is None:
                    raise TracerError(f"property {label} has no getter")
                replacement = property(
                    self._wrap(boundary, original.fget, after),
                    original.fset,
                    original.fdel,
                    original.__doc__,
                )
            elif callable(original):
                replacement = self._wrap(boundary, original, after)
            else:
                raise TracerError(f"public symbol {label} is not callable")
            setattr(owner, attr, replacement)
            self._undo.append(lambda: setattr(owner, attr, original))
            return
        original = getattr(module, attr, None)
        if not callable(original):
            raise TracerError(f"public symbol {label} is missing")
        replacement = self._wrap(boundary, original, after)
        # Module-level functions are re-bound by ``from x import f`` in
        # their callers: replace every reference held by a repro module.
        for mod in _repro_modules():
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, replacement)
        self._functions[attr] = (original, replacement)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        # A module imported while tracing may have bound a shim too.
        for attr, (original, replacement) in self._functions.items():
            for mod in _repro_modules():
                if getattr(mod, attr, None) is replacement:
                    setattr(mod, attr, original)
        self._functions.clear()

    # -- self-checks -----------------------------------------------------
    def check_coverage(self, workload: str) -> None:
        """Fail when a boundary the workload must reach recorded no call,
        or an exclusive boundary recorded calls on another workload."""
        for boundary in BOUNDARIES:
            calls = self.stats.get(boundary.name, [0, 0.0])[0]
            if workload in boundary.required and calls == 0:
                raise TracerError(
                    f"{boundary.module}.{boundary.attr} recorded zero calls "
                    f"on {workload}, which must exercise it"
                )
            if (
                boundary.exclusive
                and workload not in boundary.required
                and calls
            ):
                raise TracerError(
                    f"{boundary.module}.{boundary.attr} recorded {calls} "
                    f"calls on {workload}; only "
                    f"{', '.join(sorted(boundary.required))} may reach it"
                )

    def counts(self) -> Dict[str, int]:
        """Exact counts that must repeat across traced runs."""
        out = {name: int(entry[0]) for name, entry in self.stats.items()}
        out["groups_dispatched"] = self.dispatched
        out["workload.tasks"] = self.tasks
        out["core.backlog.depth_max"] = self.depth_max
        return out
