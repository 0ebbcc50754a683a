"""GD-Wheel — GreedyDual in amortized O(1) via Hierarchical Cost Wheels.

This is the paper's contribution (Section 3.2).  The structure is ``NW``
*cost wheels*, each an array of ``NQ`` queues, arranged like the digits of a
hierarchical timing wheel (Varghese & Lauck).  A wheel at level ``i``
(0-based here) spans ``NQ**i`` priority units per slot.

We track the global inflation value ``L`` of Cao & Irani's formulation
*explicitly* as an absolute integer (``self._inflation``); the clock-hand
positions of the paper are simply its base-``NQ`` digits.  An entry's
priority is ``H = L + cost``; it is stored at

* level  = the number of base-``NQ`` digits of ``H − L`` minus one, and
* slot   = the level-th base-``NQ`` digit of the *absolute* ``H``.

Using absolute digits (rather than ``(cost + hand) mod NQ`` as in the
paper's Algorithm 2) handles digit carries exactly, which is what makes
GD-Wheel's eviction sequence identical to GD-PQ's — the property the paper
asserts ("the replacement decisions made by GD-PQ were exactly the same as
GD-Wheel") and which ``tests/core/test_equivalence.py`` verifies.

Costs must lie in ``0 … NQ**NW − 1``.  The memcached default from Section
4.3 (two wheels of 256 queues) gives 65 535 expressible costs, far beyond
the ~1:20 spread observed in RUBiS/TPC-W.

Complexity: insert and touch are O(NW) = O(1).  An eviction advances the
level-0 hand to the next non-empty queue; hand movement across the whole
structure is bounded by O(NQ·NW) per eviction thanks to the empty-level
skip, and each entry is migrated at most ``NW − 1`` times between touches,
so the amortized per-operation cost is constant for fixed geometry — the
paper's Section 3.2.2 argument.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.core.intrusive import IntrusiveList
from repro.core.policy import (
    CostOutOfRangeError,
    EvictionError,
    PolicyEntry,
    ReplacementPolicy,
)
from repro.obs.trace import CascadeEvent


class GDWheelPolicy(ReplacementPolicy):
    """GreedyDual via Hierarchical Cost Wheels (amortized O(1))."""

    name = "gd-wheel"
    cost_aware = True

    def __init__(
        self,
        num_queues: int = 256,
        num_wheels: int = 2,
    ) -> None:
        """
        Args:
            num_queues: queues per wheel (``NQ``; paper default 256).
            num_wheels: wheels in the hierarchy (``NW``; paper default 2).
        """
        if num_queues < 2:
            raise ValueError("num_queues must be >= 2")
        if num_wheels < 1:
            raise ValueError("num_wheels must be >= 1")
        self.num_queues = num_queues
        self.num_wheels = num_wheels
        self._pow = [num_queues**i for i in range(num_wheels + 1)]
        #: maximum representable cost
        self.max_cost = self._pow[num_wheels] - 1
        # Precomputed digit table: the wheel level for every expressible
        # cost (the level of H depends only on H - L, which at insert/touch
        # time is exactly the effective cost).  Gated on table size so
        # exotic wide geometries don't allocate gigabytes.
        if self.max_cost < (1 << 20):
            table = []
            level = 0
            for delta in range(self.max_cost + 1):
                while level + 1 < num_wheels and delta >= self._pow[level + 1]:
                    level += 1
                table.append(level)
            self._cost_level: Optional[List[int]] = table
        else:
            self._cost_level = None
        self._wheels: List[List[IntrusiveList]] = [
            [IntrusiveList() for _ in range(num_queues)] for _ in range(num_wheels)
        ]
        self._level_counts = [0] * num_wheels
        self._count = 0
        self._inflation = 0  # absolute position of the level-0 hand == L
        #: observability counters
        self.total_migrations = 0
        # registry/trace hooks (bound by the store via bind_observability)
        self._trace = None
        self._class_id = None
        self._cascades_counter = None
        self._migrations_counter = None
        self._inflation_gauge = None

    def bind_observability(self, registry, trace, class_id=None) -> None:
        """Register cascade/migration counters and an inflation gauge."""
        if registry is None or not registry.enabled:
            self._trace = trace
            self._class_id = class_id
            return
        labels = {} if class_id is None else {"class_id": class_id}
        self._trace = trace
        self._class_id = class_id
        self._cascades_counter = registry.counter(
            "gdwheel_cascades_total",
            help="hand cascades (higher-level slots migrated down)",
            **labels,
        )
        self._migrations_counter = registry.counter(
            "gdwheel_migrations_total",
            help="entries migrated down a wheel level",
            **labels,
        )
        self._inflation_gauge = registry.gauge(
            "gdwheel_inflation",
            help="current global inflation value L",
            **labels,
        )

    # -- geometry helpers -------------------------------------------------------

    @property
    def inflation(self) -> int:
        """Current global inflation value L (absolute level-0 hand position)."""
        return self._inflation

    def hand(self, level: int) -> int:
        """The paper's clock-hand position for ``level`` (0-based)."""
        return (self._inflation // self._pow[level]) % self.num_queues

    def _effective_cost(self, cost: int) -> int:
        self.check_cost(cost)
        if cost > self.max_cost:
            raise CostOutOfRangeError(
                f"cost {cost} exceeds wheel capacity {self.max_cost} "
                f"(NQ={self.num_queues}, NW={self.num_wheels})"
            )
        return cost

    def _level_for(self, delta: int) -> int:
        """Wheel level for a priority ``delta`` above the inflation value."""
        table = self._cost_level
        if table is not None:
            return table[delta]
        level = 0
        while level + 1 < self.num_wheels and delta >= self._pow[level + 1]:
            level += 1
        return level

    def _unlink(self, entry: PolicyEntry) -> None:
        owner = entry.owner
        if owner is None or not isinstance(entry.policy_slot, int):
            raise ValueError("entry is not tracked by this policy")
        owner.remove(entry)
        self._level_counts[entry.policy_slot] -= 1
        entry.policy_slot = None

    # -- policy interface -------------------------------------------------------

    def insert(self, entry: PolicyEntry, cost: int = 0) -> None:
        cost = self._effective_cost(cost)
        entry.cost = cost
        h = entry.policy_h = self._inflation + cost
        entry.policy_seq = 0  # migrations since last insert/touch
        level = self._level_for(cost)
        self._wheels[level][(h // self._pow[level]) % self.num_queues].push_head(
            entry
        )
        self._level_counts[level] += 1
        entry.policy_slot = level
        self._count += 1

    def touch(self, entry: PolicyEntry) -> None:
        # The GET-hit hot path: unlink + re-place inlined.  ``entry.cost``
        # was validated (and, if configured, clamped) by insert(), so it is
        # a non-negative int <= max_cost and needs no re-validation here.
        owner = entry._list
        level = entry.policy_slot
        if owner is None or not isinstance(level, int):
            raise ValueError("entry is not tracked by this policy")
        owner.remove(entry)
        counts = self._level_counts
        counts[level] -= 1
        cost = entry.cost
        h = entry.policy_h = self._inflation + cost
        entry.policy_seq = 0
        level = self._level_for(cost)
        self._wheels[level][(h // self._pow[level]) % self.num_queues].push_head(
            entry
        )
        counts[level] += 1
        entry.policy_slot = level

    def remove(self, entry: PolicyEntry) -> None:
        self._unlink(entry)
        self._count -= 1

    def select_victim(self) -> PolicyEntry:
        if self._count == 0:
            raise EvictionError("GD-Wheel tracks no entries")
        nq = self.num_queues
        wheel0 = self._wheels[0]
        counts = self._level_counts
        # The hand position lives in a local while scanning; it is synced
        # back to self._inflation before anything that reads it (_cascade)
        # and before returning.
        inflation = self._inflation
        while True:
            if counts[0]:
                queue = wheel0[inflation % nq]
                if queue:
                    self._inflation = inflation
                    victim: PolicyEntry = queue.pop_tail()  # type: ignore[assignment]
                    counts[0] -= 1
                    victim.policy_slot = None
                    self._count -= 1
                    if self._inflation_gauge is not None:
                        self._inflation_gauge.set(inflation)
                    return victim
                inflation += 1
                if inflation % nq == 0:
                    self._inflation = inflation
                    self._cascade()
            else:
                # Level 0 is empty: jump the hand straight to the next
                # boundary of the lowest populated level and cascade there.
                lowest = min(
                    i for i in range(self.num_wheels) if counts[i]
                )
                step = self._pow[lowest]
                inflation = (inflation // step + 1) * step
                self._inflation = inflation
                self._cascade()

    def _cascade(self) -> None:
        """Migrate wrapped higher-level slots down after the hand advanced.

        Called whenever ``L`` lands on a multiple of ``NQ``.  The highest
        level whose digit changed is migrated first so entries trickle all
        the way down in one pass (the paper's Figure 4, generalized).
        """
        inflation = self._inflation
        highest = 0
        while (
            highest + 1 < self.num_wheels
            and inflation % self._pow[highest + 1] == 0
        ):
            highest += 1
        for level in range(highest, 0, -1):
            slot = (inflation // self._pow[level]) % self.num_queues
            queue = self._wheels[level][slot]
            if not queue:
                continue
            below = self._pow[level - 1]
            moved = 0
            # Queues are MRU-at-head / evict-at-tail.  Entries arriving by
            # migration were last touched strictly earlier than any entry the
            # destination queue already holds with the same H (an entry sits
            # at a higher level precisely because L was smaller when it was
            # touched), so migrants must be *appended at the tail*, oldest
            # last, to keep the least-recently-used tie-break exact.  The
            # paper's Algorithm 2 inserts migrants at the head, which breaks
            # LRU ordering among equal-H entries in rare interleavings; the
            # tail insertion is what makes GD-Wheel's eviction sequence
            # identical to GD-PQ's (Section 6.4.1's claim), and the
            # equivalence property test depends on it.
            for node in list(queue):
                entry: PolicyEntry = node  # type: ignore[assignment]
                queue.remove(entry)
                dest = (entry.policy_h // below) % self.num_queues
                self._wheels[level - 1][dest].push_tail(entry)
                entry.policy_slot = level - 1
                entry.policy_seq += 1
                moved += 1
            self._level_counts[level] -= moved
            self._level_counts[level - 1] += moved
            self.total_migrations += moved
            if self._cascades_counter is not None:
                self._cascades_counter.inc()
                self._migrations_counter.inc(moved)
            if self._trace is not None:
                self._trace.record(
                    CascadeEvent(
                        class_id=self._class_id if self._class_id is not None else -1,
                        level=level,
                        slot=slot,
                        moved=moved,
                        inflation=inflation,
                    )
                )

    # -- introspection ------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def entries(self) -> Iterator[PolicyEntry]:
        for wheel in self._wheels:
            for queue in wheel:
                for node in queue:
                    yield node  # type: ignore[misc]

    def peek_victim(self) -> Optional[PolicyEntry]:
        """The entry with minimal (H, recency); non-destructive, O(structure)."""
        best: Optional[PolicyEntry] = None
        for entry in self.entries():
            if best is None or entry.policy_h < best.policy_h:
                best = entry
        if best is None:
            return None
        # Among minimal-H entries the victim is the tail of their queue.
        owner = best.owner
        assert owner is not None
        tail: PolicyEntry = owner.tail  # type: ignore[assignment]
        while tail is not None and tail.policy_h != best.policy_h:
            tail = tail._prev  # type: ignore[assignment]
        return tail

    def level_counts(self) -> List[int]:
        """Entries per wheel level (observability; copies)."""
        return list(self._level_counts)

    def check_invariants(self) -> None:
        """Assert internal consistency; used by property tests."""
        total = 0
        for level, wheel in enumerate(self._wheels):
            level_total = 0
            for slot, queue in enumerate(wheel):
                for node in queue:
                    entry: PolicyEntry = node  # type: ignore[assignment]
                    level_total += 1
                    if entry.policy_h < self._inflation:
                        raise AssertionError(
                            f"entry H={entry.policy_h} below inflation "
                            f"{self._inflation}"
                        )
                    expect_slot = (
                        entry.policy_h // self._pow[level]
                    ) % self.num_queues
                    if slot != expect_slot:
                        raise AssertionError(
                            f"entry H={entry.policy_h} in level {level} slot "
                            f"{slot}, expected slot {expect_slot}"
                        )
                    if entry.policy_slot != level:
                        raise AssertionError("policy_slot out of sync")
                    if entry.policy_seq > self.num_wheels - 1:
                        raise AssertionError(
                            f"entry migrated {entry.policy_seq} times "
                            f"(> NW-1 = {self.num_wheels - 1})"
                        )
            if level_total != self._level_counts[level]:
                raise AssertionError(
                    f"level {level} count {self._level_counts[level]} != "
                    f"actual {level_total}"
                )
            total += level_total
        if total != self._count:
            raise AssertionError(f"count {self._count} != actual {total}")
