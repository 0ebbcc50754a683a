"""The closed-loop network driver: one server child, one generator, 2 connections.

A cache's callers are application threads that each wait for the reply, so
the load is a closed loop: this single-threaded process holds
``CONNECTIONS`` connections to the server child, one frame in flight on each.
A GET miss is followed by a SET of that key at its workload cost (cache-aside,
as in the paper).  Latencies are loopback-TCP latencies of this sandbox.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.aio import AsyncStoreClient
from repro.protocol import ProtocolError

from bench import ROOT, SRC
from bench.spec import SLAB_SIZE, NetSpec, Stream

CONNECTIONS = 2


PRELOAD_BATCH = 64
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: what one frame can raise without the run being at fault: the transport
#: (after the client's own retries), a timeout, an unparseable or refusing reply
FRAME_ERRORS = (OSError, asyncio.TimeoutError, ProtocolError)


def peak_rss_mib(pid="self") -> float:
    """Peak resident set size (``VmHWM``) of process ``pid``, in MiB."""
    with open(f"/proc/{pid}/status", "rb") as handle:
        for line in handle:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class ServerProcess:
    """The server child: spawn, CPU placement, address, CPU and memory from
    ``/proc``, stop."""

    def __init__(self, spec: NetSpec) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT), str(SRC)] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        command = [
            sys.executable, "-m", "bench.server_main",
            "--memory-limit", str(spec.memory_limit),
            "--slab-size", str(SLAB_SIZE),
        ]
        if spec.cost_aware_rebalancer:
            command.append("--cost-aware-rebalancer")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        # A CPU for the child and the rest for this process, for the child's
        # lifetime.  Left to the scheduler, the two ends of a loopback
        # ping-pong are at times woken onto one core and at times onto two,
        # and ops/s differs by a third between the two placements.
        self._own_cpus = os.sched_getaffinity(0)
        cpus = sorted(self._own_cpus)
        if len(cpus) >= 2:
            os.sched_setaffinity(self.process.pid, {cpus[-1]})
            os.sched_setaffinity(0, set(cpus[:-1]))
        line = self.process.stdout.readline().split()
        if len(line) != 2 or line[0] != b"PORT":
            self.stop()
            raise RuntimeError(f"server child did not start: {line!r}")
        self.port = int(line[1])

    def cpu_seconds(self) -> float:
        """User + system CPU the child has used so far."""
        with open(f"/proc/{self.process.pid}/stat", "rb") as handle:
            # fields after the parenthesised command name; utime, stime are 14, 15
            fields = handle.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mib(self) -> float:
        return peak_rss_mib(self.process.pid)

    def stop(self) -> None:
        """Close the child's stdin (its stop signal) and wait for it to end."""
        if self.process.stdin is not None:
            self.process.stdin.close()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        os.sched_setaffinity(0, self._own_cpus)


@dataclass
class PhaseLog:
    """What the generator saw in one phase; times are ``perf_counter`` seconds."""

    started: float = 0.0
    ended: float = 0.0
    cpu_seconds: float = 0.0
    rtt: List[float] = field(default_factory=list)  # one per network call
    next_batch_s: float = 0.0
    frames: int = 0
    ops_done: int = 0
    gets: int = 0
    hits: int = 0
    sets: int = 0
    refills: int = 0
    miss_cost: int = 0
    attempted: int = 0
    failed: int = 0
    wrong_values: int = 0


class Driver:
    """Issues stream frames over ``CONNECTIONS`` connections, checking every hit."""

    def __init__(self, stream: Stream, client: AsyncStoreClient, recorder=None) -> None:
        self.stream = stream
        self.client = client
        self.recorder = recorder  # bench.trace.SpanRecorder for the traced run
        self.position = 0  # next stream frame to issue

    async def run(
        self,
        max_frames: Optional[int] = None,
        seconds: Optional[float] = None,
        log: Optional[PhaseLog] = None,
    ) -> PhaseLog:
        """One phase: until ``max_frames`` are issued or ``seconds`` have passed.

        Pass ``log`` to watch the phase's progress from another task.
        """
        log = log if log is not None else PhaseLog()
        stop_at = self.position + max_frames if max_frames is not None else None
        cpu0 = time.process_time()
        log.started = time.perf_counter()
        deadline = log.started + seconds if seconds is not None else None
        workers = [
            asyncio.ensure_future(self._worker(log, stop_at, deadline))
            for _ in range(CONNECTIONS)
        ]
        await asyncio.gather(*workers)
        log.ended = time.perf_counter()
        log.cpu_seconds = time.process_time() - cpu0
        return log

    async def _worker(self, log: PhaseLog, stop_at, deadline) -> None:
        stream, client, recorder = self.stream, self.client, self.recorder
        keys, values, costs = stream.keys, stream.values, stream.costs
        single = stream.spec.batch == 1
        perf = time.perf_counter
        while True:
            index = self.position
            if stop_at is not None and index >= stop_at:
                return
            t0 = perf()
            if deadline is not None and t0 >= deadline:
                return
            self.position = index + 1
            is_set, ids = stream.frame(index)
            frame_keys = [keys[i] for i in ids]
            t1 = perf()
            log.next_batch_s += t1 - t0
            log.attempted += len(ids)
            rtts = []
            try:
                if is_set:
                    if single:
                        i = ids[0]
                        stored = await client.set(frame_keys[0], values[i], cost=costs[i])
                        if not stored:
                            log.failed += 1
                    else:
                        stored = await client.set_many(
                            [(keys[i], values[i], costs[i]) for i in ids]
                        )
                        log.failed += len(ids) - stored
                    rtts.append((t1, perf()))
                    log.sets += len(ids)
                else:
                    if single:
                        value = await client.get(frame_keys[0])
                        found = {} if value is None else {frame_keys[0]: value}
                    else:
                        found = await client.get_many(frame_keys)
                    t2 = perf()
                    rtts.append((t1, t2))
                    log.gets += len(ids)
                    missed = []
                    for i, key in zip(ids, frame_keys):
                        value = found.get(key)
                        if value is None:
                            missed.append(i)
                        elif value == values[i]:
                            log.hits += 1
                        else:
                            log.wrong_values += 1
                            log.failed += 1
                    if missed:
                        # duplicates of one key in a frame are one refill
                        missed = list(dict.fromkeys(missed))
                        log.miss_cost += sum(costs[i] for i in missed)
                        t3 = perf()
                        if single:
                            i = missed[0]
                            await client.set(keys[i], values[i], cost=costs[i])
                        else:
                            await client.set_many(
                                [(keys[i], values[i], costs[i]) for i in missed]
                            )
                        rtts.append((t3, perf()))
                        log.refills += len(missed)
            except FRAME_ERRORS:
                log.failed += len(ids)
                continue
            t_end = perf()
            log.frames += 1
            log.ops_done += len(ids)
            for start, end in rtts:
                log.rtt.append(end - start)
            if recorder is not None:
                recorder.request(index, t0, t1, rtts, t_end)


async def preload(stream: Stream, client: AsyncStoreClient) -> None:
    """SET every key of the universe once, in the workload's seeded order."""
    keys, values, costs = stream.keys, stream.values, stream.costs
    order = stream.preload_order
    for at in range(0, len(order), PRELOAD_BATCH):
        batch = [(keys[i], values[i], costs[i]) for i in order[at:at + PRELOAD_BATCH]]
        stored = await client.set_many(batch)
        if stored != len(batch):
            raise RuntimeError(f"preload stored {stored} of {len(batch)} keys")


def new_client(server: ServerProcess) -> AsyncStoreClient:
    return AsyncStoreClient("127.0.0.1", server.port, pool_size=CONNECTIONS)


async def server_counters(client: AsyncStoreClient) -> Dict[str, float]:
    """The server's ``stats metrics`` series as numbers."""
    return {name: float(text) for name, text in (await client.stats("metrics")).items()}
