"""Golden counts: a small seeded Table 2 run, pinned to exact integers.

The simulation is deterministic given its config, so a change to the
store, the policies or the driver's request loop that is meant to be a
pure speed-up must leave every count below unchanged.  A deliberate
behaviour change updates the literals (and says why in its commit).

Workload 1 of Table 2 (baseline cost groups, 256 B values), key universe
calibrated to ~95 % LRU hits, 20k measured requests in 2 MiB.
"""

import pytest

from repro.sim import SimConfig, run_simulation
from repro.workloads import SINGLE_SIZE_WORKLOADS

#: policy -> (calibrated keys, hits, misses, total miss cost, evictions)
GOLDEN = {
    "lru": (7510, 18499, 1501, 90028, 1501),
    "gd-wheel": (7510, 18466, 1534, 25548, 1534),
    "gd-pq": (7510, 18466, 1534, 25548, 1534),
}


@pytest.mark.parametrize("policy", sorted(GOLDEN))
def test_counts_match_golden(policy):
    result = run_simulation(
        SimConfig(
            spec=SINGLE_SIZE_WORKLOADS["1"],
            policy=policy,
            memory_limit=2 * 1024 * 1024,
            slab_size=64 * 1024,
            num_requests=20_000,
            seed=7,
        )
    )
    stats = result.store_stats
    assert stats["get_hits"] + stats["get_misses"] == result.num_requests
    assert len(result.miss_costs) == stats["get_misses"]
    assert (
        result.num_keys,
        stats["get_hits"],
        stats["get_misses"],
        result.total_recomputation_cost,
        stats["evictions"],
    ) == GOLDEN[policy]
