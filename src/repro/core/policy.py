"""Replacement-policy interface shared by every policy in this package.

A policy tracks opaque *entries* (anything hashable-by-identity that carries
an :class:`~repro.core.intrusive.IntrusiveNode`) and answers one question:
*which entry should be evicted next?*  The key-value store
(:mod:`repro.kvstore.store`) drives the policy with four events:

``insert(entry, cost)``
    A new entry was cached with the given recomputation cost.
``touch(entry)``
    A cached entry was reused (GET hit) — for GreedyDual-family policies this
    restores the entry's priority to ``L + cost``.
``remove(entry)``
    The entry left the cache for a reason other than eviction (DELETE,
    expiry, slab reassignment).
``select_victim()``
    Choose, unlink, and return the entry the policy wants evicted.

Costs are non-negative integers (the paper maps recomputation times onto a
limited integer range; see Section 2.2).  Cost-oblivious policies ignore the
argument.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Iterator, Optional

from repro.core.intrusive import IntrusiveNode


class PolicyEntry(IntrusiveNode):
    """Base class for objects trackable by a replacement policy.

    Policies annotate entries with their own bookkeeping via the generously
    slotted attributes below; embedding them here (rather than in per-policy
    wrapper objects) mirrors how memcached keeps replacement metadata inside
    the item header and keeps the hot paths allocation-free.
    """

    __slots__ = (
        "cost",
        "size",
        "key",
        "policy_h",
        "policy_seq",
        "policy_slot",
        "policy_ref",
    )

    def __init__(self, cost: int = 0, size: int = 1, key=None) -> None:
        super().__init__()
        self.cost = cost
        #: Footprint in bytes; used by size-aware policies (GDS/GDSF/CAMP).
        self.size = size
        #: Stable identity; used by ghost-list policies (ARC, 2Q, LRU-K).
        self.key = key
        #: GreedyDual priority (H value) under GD-PQ / GD-Wheel / naive GD.
        self.policy_h = 0
        #: Monotonic sequence number; used for LRU tie-breaks in GD-PQ.
        self.policy_seq = 0
        #: Wheel coordinates (level, slot) under GD-Wheel, or CLOCK ref bit.
        self.policy_slot = None
        #: Scratch reference (heap entry, queue object, ...) for policies.
        self.policy_ref = None


class EvictionError(RuntimeError):
    """Raised when a victim is requested but the policy tracks no entries."""


class CostOutOfRangeError(ValueError):
    """Cost outside ``0 … max_cost`` of the policy that would hold it."""


class ReplacementPolicy(ABC):
    """Abstract replacement policy.

    Concrete policies must keep ``len(policy)`` equal to the number of
    currently tracked entries and must never return an entry from
    :meth:`select_victim` that is still linked into internal structures.
    """

    #: Human-readable identifier used in experiment reports.
    name: str = "abstract"

    #: Whether the policy makes use of the ``cost`` argument.
    cost_aware: bool = False

    #: Largest cost :meth:`insert` accepts; the store rejects a SET above
    #: it before touching any state.  Unbounded unless the policy's data
    #: structure limits it (GD-Wheel: ``NQ**NW − 1``).
    max_cost = math.inf

    @abstractmethod
    def insert(self, entry: PolicyEntry, cost: int = 0) -> None:
        """Start tracking a newly cached entry."""

    @abstractmethod
    def touch(self, entry: PolicyEntry) -> None:
        """Record a reuse (GET hit) of a tracked entry."""

    @abstractmethod
    def remove(self, entry: PolicyEntry) -> None:
        """Stop tracking an entry (delete/expiry), without counting an eviction."""

    @abstractmethod
    def select_victim(self) -> PolicyEntry:
        """Unlink and return the next eviction victim.

        Raises :class:`EvictionError` when empty.
        """

    @abstractmethod
    def __len__(self) -> int:
        """Number of tracked entries."""

    def __bool__(self) -> bool:
        return len(self) > 0

    # -- Optional observability -------------------------------------------------

    def bind_observability(self, registry, trace, class_id=None) -> None:
        """Attach a metrics registry / event trace to this policy instance.

        Called once by the store when the policy is created for a slab
        class.  The default is a no-op; policies with interesting internal
        dynamics (GD-Wheel cascades, GD-PQ deflations) override it to
        register counters and emit trace events.  ``registry`` is a
        :class:`repro.obs.registry.MetricsRegistry`, ``trace`` an
        :class:`repro.obs.trace.EventTrace` or ``None``.
        """

    # -- Optional introspection -------------------------------------------------

    def entries(self) -> Iterator[PolicyEntry]:
        """Iterate over tracked entries in an unspecified order.

        Intended for tests and debugging; O(n).  Policies that can do better
        than the default (which raises) should override.
        """
        raise NotImplementedError(f"{self.name} does not support iteration")

    def peek_victim(self) -> Optional[PolicyEntry]:
        """Return (without removing) the entry that would be evicted next.

        Optional; used by diagnostics.  Policies with destructive victim
        search may leave this unimplemented.
        """
        raise NotImplementedError(f"{self.name} does not support peeking")

    @staticmethod
    def check_cost(cost: int) -> int:
        """Validate a cost value: non-negative integer."""
        if not isinstance(cost, int) or isinstance(cost, bool):
            raise TypeError(f"cost must be an int, got {type(cost).__name__}")
        if cost < 0:
            raise ValueError(f"cost must be non-negative, got {cost}")
        return cost
