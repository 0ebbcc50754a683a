"""Replacement policies: the paper's GD-Wheel plus every comparator.

The cost-aware GreedyDual family:

* :class:`~repro.core.gdwheel.GDWheelPolicy` — the paper's contribution,
  amortized O(1) via Hierarchical Cost Wheels.
* :class:`~repro.core.gdpq.GDPQPolicy` — Cao & Irani's O(log n)
  priority-queue implementation (the paper's GD-PQ comparator).
* :class:`~repro.core.greedydual.NaiveGreedyDual` — Young's original O(n)
  formulation, kept as the equivalence-test oracle.
* :class:`~repro.core.gds.GDSPolicy` / :class:`~repro.core.gds.GDSFPolicy` —
  the size-aware variants from related work.
* :class:`~repro.core.camp.CAMPPolicy` — the approximate multi-queue
  GreedyDual-Size of Ghandeharizadeh et al.

The cost-oblivious baselines: LRU (memcached default), CLOCK (MemC3),
random (Redis), 2Q, ARC, and LRU-K; plus offline clairvoyant bounds in
:mod:`repro.core.offline`.
"""

from repro.core.arc import ARCPolicy
from repro.core.camp import CAMPPolicy, round_ratio
from repro.core.clock import ClockPolicy
from repro.core.gdpq import GDPQPolicy
from repro.core.gds import GDSFPolicy, GDSPolicy
from repro.core.gdwheel import GDWheelPolicy
from repro.core.greedydual import NaiveGreedyDual
from repro.core.intrusive import IntrusiveList, IntrusiveNode
from repro.core.lru import LRUPolicy
from repro.core.lruk import LRUKPolicy
from repro.core.offline import (
    OfflineResult,
    simulate_belady,
    simulate_cost_aware_offline,
)
from repro.core.policy import (
    CostOutOfRangeError,
    EvictionError,
    PolicyEntry,
    ReplacementPolicy,
)
from repro.core.random_policy import RandomPolicy
from repro.core.twoq import TwoQPolicy

#: Registry of constructable-without-arguments policies, keyed by name.
POLICY_REGISTRY = {
    "lru": LRUPolicy,
    "clock": ClockPolicy,
    "random": RandomPolicy,
    "gd-wheel": GDWheelPolicy,
    "gd-pq": GDPQPolicy,
    "gd-naive": NaiveGreedyDual,
    "gds": GDSPolicy,
    "gdsf": GDSFPolicy,
    "camp": CAMPPolicy,
    "lru-k": LRUKPolicy,
}


def make_policy(name: str, **kwargs) -> ReplacementPolicy:
    """Construct a policy by registry name (see :data:`POLICY_REGISTRY`)."""
    try:
        factory = POLICY_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; known: {sorted(POLICY_REGISTRY)}"
        ) from None
    return factory(**kwargs)


__all__ = [
    "ARCPolicy",
    "CAMPPolicy",
    "ClockPolicy",
    "CostOutOfRangeError",
    "EvictionError",
    "GDPQPolicy",
    "GDSFPolicy",
    "GDSPolicy",
    "GDWheelPolicy",
    "IntrusiveList",
    "IntrusiveNode",
    "LRUKPolicy",
    "LRUPolicy",
    "NaiveGreedyDual",
    "OfflineResult",
    "POLICY_REGISTRY",
    "PolicyEntry",
    "RandomPolicy",
    "ReplacementPolicy",
    "TwoQPolicy",
    "make_policy",
    "round_ratio",
    "simulate_belady",
    "simulate_cost_aware_offline",
]
