"""Closed-loop load generator: report shape and sanity over a live server."""

import asyncio

import pytest

from repro.aio import AsyncTCPStoreServer, run_closed_loop, run_closed_loop_sync
from repro.aio.loadgen import LoadReport
from repro.core import GDWheelPolicy
from repro.kvstore import KVStore
from repro.workloads import SINGLE_SIZE_WORKLOADS
from tests.serving import ServerThread


def fresh_store():
    return KVStore(
        memory_limit=8 * 1024 * 1024, slab_size=64 * 1024,
        policy_factory=GDWheelPolicy,
    )


class TestLoadGenerator:
    def test_small_run_produces_sane_report(self):
        async def main():
            workload = SINGLE_SIZE_WORKLOADS["1"].materialize(300, seed=3)
            async with AsyncTCPStoreServer(fresh_store()) as server:
                host, port = server.address
                report = await run_closed_loop(
                    host, port, workload,
                    total_ops=600, concurrency=4, batch_size=8, seed=3,
                )
                return report

        report = asyncio.run(main())
        assert report.operations >= 600
        assert report.batches > 0
        assert report.duration_seconds > 0
        assert report.throughput > 0
        assert report.errors == 0
        # whole universe warmed + cache-aside refill => overwhelmingly hits
        assert report.hit_rate > 0.9
        assert len(report.latency) == report.batches
        assert report.percentile_us(50) <= report.percentile_us(99)
        assert report.latency.mean > 0

    def test_report_format_mentions_percentiles(self):
        async def main():
            workload = SINGLE_SIZE_WORKLOADS["4"].materialize(100, seed=1)
            async with AsyncTCPStoreServer(fresh_store()) as server:
                host, port = server.address
                return await run_closed_loop(
                    host, port, workload,
                    total_ops=200, concurrency=2, batch_size=4, seed=1,
                )

        report = asyncio.run(main())
        text = report.format("smoke")
        assert "smoke" in text
        assert "throughput" in text
        assert "p99" in text
        assert "ops/s" in text

    def test_write_only_run_counts_sets(self):
        async def main():
            workload = SINGLE_SIZE_WORKLOADS["4"].materialize(50, seed=2)
            async with AsyncTCPStoreServer(fresh_store()) as server:
                host, port = server.address
                return await run_closed_loop(
                    host, port, workload,
                    total_ops=100, concurrency=2, batch_size=4,
                    read_fraction=0.0, warmup_keys=0, seed=2,
                )

        report = asyncio.run(main())
        assert report.get_hits == 0 and report.get_misses == 0
        assert report.sets >= 100

    def test_sync_wrapper(self):
        # run the blocking wrapper end-to-end against a real server
        with ServerThread(fresh_store()) as server:
            workload = SINGLE_SIZE_WORKLOADS["4"].materialize(50, seed=5)
            host, port = server.address
            report = run_closed_loop_sync(
                host, port, workload,
                total_ops=100, concurrency=2, batch_size=4, seed=5,
            )
        assert isinstance(report, LoadReport)
        assert report.operations >= 100

    def test_validation(self):
        workload = SINGLE_SIZE_WORKLOADS["4"].materialize(10)
        with pytest.raises(ValueError):
            run_closed_loop_sync("127.0.0.1", 1, workload, total_ops=0)
        with pytest.raises(ValueError):
            run_closed_loop_sync("127.0.0.1", 1, workload, concurrency=0)
        with pytest.raises(ValueError):
            run_closed_loop_sync("127.0.0.1", 1, workload, batch_size=0)
