"""Resource sites — loosely connected groups of compute nodes (§III.B).

Each site hosts one scheduling agent (attached by the scheduler layer);
the site object itself only aggregates its nodes' observable state.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from ..workload.task import Task
from .node import ComputeNode, NodeState
from .taskgroup import TaskGroup

__all__ = ["ResourceSite"]


class ResourceSite:
    """A set of compute nodes managed by a single agent."""

    def __init__(self, site_id: str, nodes: Sequence[ComputeNode]) -> None:
        if not nodes:
            raise ValueError(f"site {site_id}: needs at least one node")
        self.site_id = site_id
        self.nodes = list(nodes)
        self._by_id = {n.node_id: n for n in self.nodes}
        if len(self._by_id) != len(self.nodes):
            raise ValueError(f"site {site_id}: duplicate node ids")
        for n in self.nodes:
            if n._site is not None:
                raise ValueError(
                    f"site {site_id}: node {n.node_id} already belongs to "
                    f"site {n._site.site_id}"
                )
        # Topology is fixed after construction, so the structural
        # aggregates observed every scheduling pass are frozen here.
        self._num_processors = sum(n.num_processors for n in self.nodes)
        self._total_speed_mips = sum(n.total_speed_mips for n in self.nodes)
        self._max_group_size = max(n.max_group_size for n in self.nodes)
        # Σ node.pending_tasks, read by least-loaded routing for every
        # arrival.  Nodes raise the flag wherever they invalidate their
        # own work caches; the count is an integer, so the cache is exact.
        self._pending_dirty = True
        self._pending_cache = 0
        #: Bumped by a node at every change to its observable state
        #: (admission, queue pop, task start and finish, power
        #: transition, DVFS, failure, repair).  Readers cache what they
        #: derive from the nodes and rebuild it when the version moved.
        self.version = 0
        self._open_version = -1
        self._open_cache: list[ComputeNode] = []
        for n in self.nodes:
            n._site = self

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: str) -> ComputeNode:
        return self._by_id[node_id]

    # -- aggregate views --------------------------------------------------
    @property
    def num_processors(self) -> int:
        return self._num_processors

    @property
    def total_speed_mips(self) -> float:
        return self._total_speed_mips

    @property
    def total_free_slots(self) -> int:
        return sum(n.free_slots for n in self.nodes)

    @property
    def total_load(self) -> float:
        return sum(n.load for n in self.nodes)

    @property
    def pending_tasks(self) -> int:
        if self._pending_dirty:
            self._pending_cache = sum(n.pending_tasks for n in self.nodes)
            self._pending_dirty = False
        return self._pending_cache

    @property
    def max_group_size(self) -> int:
        """Largest ``opnum`` any node in the site can accept."""
        return self._max_group_size

    def states(self) -> list[NodeState]:
        """Per-node ``Sc(t)`` snapshots for the agent."""
        return [n.state() for n in self.nodes]

    def open_nodes(self) -> list[ComputeNode]:
        """Online nodes with a free queue slot, in node order.

        Cached on :attr:`version`; the returned list is shared, so
        callers must not mutate it.
        """
        if self._open_version != self.version:
            self._open_cache = [n for n in self.nodes if n.available]
            self._open_version = self.version
        return self._open_cache

    # -- callbacks fan-out ---------------------------------------------------
    def on_task_complete(self, cb: Callable[[Task, ComputeNode], None]) -> None:
        for n in self.nodes:
            n.on_task_complete(cb)

    def on_group_complete(self, cb: Callable[[TaskGroup, ComputeNode], None]) -> None:
        for n in self.nodes:
            n.on_group_complete(cb)

    def on_slot_freed(self, cb: Callable[[ComputeNode], None]) -> None:
        for n in self.nodes:
            n.on_slot_freed(cb)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ResourceSite {self.site_id} nodes={len(self.nodes)}>"
