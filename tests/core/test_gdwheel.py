"""GD-Wheel: geometry, placement, cascading, inflation, and the amortized
constant-time argument's observable consequences."""

import pytest

from repro.core import CostOutOfRangeError, GDWheelPolicy, PolicyEntry


def fill(policy, items):
    entries = {}
    for key, cost in items:
        entry = PolicyEntry(key=key)
        policy.insert(entry, cost)
        entries[key] = entry
    return entries


class TestGeometry:
    def test_paper_default_capacity(self):
        policy = GDWheelPolicy()  # 2 wheels of 256 queues (Section 4.3)
        assert policy.num_queues == 256
        assert policy.num_wheels == 2
        assert policy.max_cost == 256**2 - 1  # 65535 distinct costs

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            GDWheelPolicy(num_queues=1)
        with pytest.raises(ValueError):
            GDWheelPolicy(num_wheels=0)

    def test_single_wheel_supports_nq_minus_one(self):
        policy = GDWheelPolicy(num_queues=16, num_wheels=1)
        assert policy.max_cost == 15
        policy.insert(PolicyEntry(key="x"), 15)
        with pytest.raises(CostOutOfRangeError):
            policy.insert(PolicyEntry(key="y"), 16)


class TestPlacement:
    def test_small_cost_lands_in_level_zero(self):
        policy = GDWheelPolicy(num_queues=8, num_wheels=2)
        entry = PolicyEntry(key="a")
        policy.insert(entry, 3)
        assert entry.policy_slot == 0  # level
        assert entry.policy_h == 3

    def test_large_cost_lands_in_higher_wheel(self):
        policy = GDWheelPolicy(num_queues=8, num_wheels=2)
        entry = PolicyEntry(key="a")
        policy.insert(entry, 20)  # >= 8, so level 1
        assert entry.policy_slot == 1

    def test_level_counts_track_population(self):
        policy = GDWheelPolicy(num_queues=8, num_wheels=3)
        fill(policy, [("a", 3), ("b", 20), ("c", 100), ("d", 5)])
        assert policy.level_counts() == [2, 1, 1]

    def test_hand_positions_are_digits_of_inflation(self):
        policy = GDWheelPolicy(num_queues=8, num_wheels=3)
        fill(policy, [(i, 100 + i) for i in range(4)])
        while len(policy):
            policy.select_victim()
        inflation = policy.inflation
        for level in range(3):
            assert policy.hand(level) == (inflation // 8**level) % 8


class TestEvictionOrder:
    def test_lowest_cost_evicted_first(self):
        policy = GDWheelPolicy(num_queues=8, num_wheels=2)
        fill(policy, [("dear", 60), ("cheap", 2), ("mid", 9)])
        assert policy.select_victim().key == "cheap"
        assert policy.select_victim().key == "mid"
        assert policy.select_victim().key == "dear"

    def test_inflation_advances_to_victim_priority(self):
        policy = GDWheelPolicy(num_queues=8, num_wheels=2)
        fill(policy, [("a", 5), ("b", 40)])
        policy.select_victim()
        assert policy.inflation == 5
        policy.select_victim()
        assert policy.inflation == 40

    def test_recency_restores_priority_relative_to_hand(self):
        policy = GDWheelPolicy(num_queues=8, num_wheels=2)
        entries = fill(policy, [("a", 10), ("b", 2), ("c", 4)])
        policy.select_victim()  # b at H=2, inflation=2
        policy.touch(entries["c"])  # H = 2 + 4 = 6 < a's 10
        assert policy.select_victim().key == "c"
        assert policy.select_victim().key == "a"

    def test_tie_break_least_recently_used(self):
        policy = GDWheelPolicy(num_queues=8, num_wheels=2)
        entries = fill(policy, [("old", 5), ("new", 5)])
        policy.touch(entries["old"])
        assert policy.select_victim().key == "new"

    def test_zero_cost_entry_is_immediately_evictable(self):
        policy = GDWheelPolicy(num_queues=8, num_wheels=2)
        fill(policy, [("z", 0), ("a", 1)])
        assert policy.select_victim().key == "z"


class TestCascade:
    def test_migration_pulls_higher_wheel_down(self):
        policy = GDWheelPolicy(num_queues=4, num_wheels=2)
        entries = fill(policy, [("hi", 6), ("lo", 1)])
        assert entries["hi"].policy_slot == 1
        policy.select_victim()  # evicts lo; hand scans onward
        # evicting hi requires its migration to level 0 first
        assert policy.select_victim().key == "hi"
        assert policy.total_migrations >= 1

    def test_migration_count_bounded_by_wheels(self):
        """Each entry migrates at most NW-1 times between touches — the
        heart of the amortized O(1) argument (Section 3.2.2)."""
        policy = GDWheelPolicy(num_queues=4, num_wheels=3)
        entries = fill(policy, [(f"k{i}", 60) for i in range(5)])
        fill(policy, [(f"cheap{i}", 1) for i in range(5)])
        for _ in range(9):
            policy.select_victim()
            policy.check_invariants()  # asserts policy_seq <= NW-1 throughout
        for entry in entries.values():
            assert entry.policy_seq <= 2

    def test_carry_across_wheel_boundary(self):
        """Insert near the top of a wheel round so H carries into the next
        round; the digit-based placement must still evict in H order."""
        policy = GDWheelPolicy(num_queues=4, num_wheels=2)
        fill(policy, [("a", 1)])
        policy.select_victim()  # inflation = 1
        # delta 15 from L=1 -> H=16, which wraps the level-1 digit
        entries = fill(policy, [("wrap", 15), ("near", 3)])
        assert policy.select_victim().key == "near"  # H=4
        assert policy.select_victim().key == "wrap"  # H=16
        assert policy.inflation == 16

    def test_empty_level_fast_path_skips_ahead(self):
        policy = GDWheelPolicy(num_queues=16, num_wheels=2)
        fill(policy, [("far", 250)])
        assert policy.select_victim().key == "far"
        assert policy.inflation == 250


class TestInvariants:
    def test_invariants_hold_under_random_churn(self, harness_factory):
        policy = GDWheelPolicy(num_queues=8, num_wheels=2)
        harness = harness_factory(policy, capacity=20)
        harness.run_random(steps=2_000, num_keys=60, max_cost=63,
                           delete_prob=0.05, seed=11)
        policy.check_invariants()
        assert len(policy) == len(harness.entries)

    def test_entries_iteration_sees_every_entry(self):
        policy = GDWheelPolicy(num_queues=8, num_wheels=3)
        fill(policy, [(i, i * 7 % 500) for i in range(50)])
        assert {e.key for e in policy.entries()} == set(range(50))

    def test_peek_victim_matches_select(self):
        policy = GDWheelPolicy(num_queues=8, num_wheels=2)
        fill(policy, [("a", 9), ("b", 2), ("c", 4)])
        assert policy.peek_victim().key == "b"
        assert policy.select_victim().key == "b"
