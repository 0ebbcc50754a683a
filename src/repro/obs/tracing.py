"""Distributed request tracing: context propagation, spans, sampling.

One sampled request produces one *trace* — a tree of timed *spans*, each
recorded by whichever process did the work (client, router, shard server,
store, tier).  The pieces:

:class:`TraceContext`
    The 17 bytes that ride the wire: a 64-bit trace id, the sender's
    64-bit span id (the receiver's parent), and a sampled flag.
    :func:`encode_token` renders it as a ``tctx:<hex>.<hex>.<flag>``
    *pseudo-key* appended to a ``get`` line, so it rides the existing
    text protocol without breaking old peers.  The token is a valid
    memcached key, so an old server treats it as one more requested key
    and answers a harmless miss; a trace-aware parser strips it off and
    hands the context to the dispatcher.  Storage commands reject
    unknown tokens in old parsers, so propagation deliberately rides
    GETs only — SETs are still traced client-side.

:class:`Span` / :class:`SpanBuffer`
    A span is ``(trace, span, parent, name, process, start_us,
    duration_us, attrs)``; start is epoch microseconds (cross-process
    comparable on one host), duration comes from ``perf_counter`` (no
    clock-step jitter).  Spans land in a bounded per-process ring that
    serializes to JSONL for the offline collector
    (:mod:`repro.obs.tracecollect`).

:class:`Tracer`
    Owns the buffer, the 1-in-N head-sampling decision (default 1/100),
    the slow-query log, and the span lifecycle.  The *active* span lives
    in a :data:`contextvars.ContextVar`, so concurrent asyncio requests
    each see their own trace and a shard server's synchronous dispatch
    sees the span opened around it — :func:`child_span` lets deep layers
    (the store's tier fallthrough) attach spans without any plumbing.

Overhead contract: with no tracer attached nothing here runs at all —
every integration point guards on ``tracer is not None``.  With a tracer
attached, an unsampled request costs one counter bump and two
``perf_counter`` reads (kept so slow or shed requests can still be
force-sampled into the buffer retroactively); the CI guard
(``benchmarks/test_trace_overhead.py``) holds enabled-at-1/100 within 3%
of tracing-off end to end.
"""

from __future__ import annotations

import json
import random
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

__all__ = [
    "TOKEN_PREFIX",
    "Span",
    "SpanBuffer",
    "TraceContext",
    "Tracer",
    "activate",
    "child_span",
    "current_span",
    "deactivate",
    "decode_token",
    "encode_token",
    "finish_span",
    "suppress",
]


class TraceContext(NamedTuple):
    """What crosses a process boundary: ids plus the sampling decision."""

    trace_id: int
    span_id: int
    sampled: bool = True


# -- wire codecs -------------------------------------------------------------------

#: text-protocol pseudo-key prefix; the full token is a valid memcached key
TOKEN_PREFIX = b"tctx:"

_TOKEN_FLAG_SAMPLED = b"1"


def encode_token(context: TraceContext) -> bytes:
    """``tctx:<trace_hex16>.<span_hex16>.<flag>`` — 40 bytes, key-safe."""
    return b"tctx:%016x.%016x.%s" % (
        context.trace_id,
        context.span_id,
        _TOKEN_FLAG_SAMPLED if context.sampled else b"0",
    )


def decode_token(token: bytes) -> Optional[TraceContext]:
    """Parse a text trace token; ``None`` for anything malformed.

    Malformed tokens are *not* errors: a key that merely starts with the
    prefix must degrade to "no context", never break the request.
    """
    if not token.startswith(TOKEN_PREFIX):
        return None
    parts = token[len(TOKEN_PREFIX):].split(b".")
    if len(parts) != 3 or len(parts[0]) != 16 or len(parts[1]) != 16:
        return None
    try:
        trace_id = int(parts[0], 16)
        span_id = int(parts[1], 16)
    except ValueError:
        return None
    if parts[2] not in (b"0", b"1"):
        return None
    return TraceContext(trace_id, span_id, parts[2] == b"1")


# -- spans -------------------------------------------------------------------------


class Span:
    """One timed unit of work inside a trace.

    ``start_us`` is epoch microseconds (``time.time_ns() // 1000``) so
    spans from different processes on one host line up on a shared axis;
    ``duration_us`` is measured with ``perf_counter`` so it never absorbs
    a wall-clock step.
    """

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "process",
        "start_us", "duration_us", "attrs", "tracer", "_t0",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        process: str,
        start_us: int,
        duration_us: float = 0.0,
        attrs: Optional[dict] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.process = process
        self.start_us = start_us
        self.duration_us = duration_us
        self.attrs = attrs if attrs is not None else {}
        self.tracer: Optional["Tracer"] = None
        self._t0 = 0.0

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us

    def context(self) -> TraceContext:
        """The context a downstream hop should inherit from this span."""
        return TraceContext(self.trace_id, self.span_id, True)

    def to_dict(self) -> dict:
        data = {
            "trace": f"{self.trace_id:016x}",
            "span": f"{self.span_id:016x}",
            "parent": f"{self.parent_id:016x}" if self.parent_id else None,
            "name": self.name,
            "proc": self.process,
            "start_us": self.start_us,
            "dur_us": round(self.duration_us, 1),
        }
        if self.attrs:
            data["attrs"] = self.attrs
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        parent = data.get("parent")
        return cls(
            trace_id=int(data["trace"], 16),
            span_id=int(data["span"], 16),
            parent_id=int(parent, 16) if parent else None,
            name=data["name"],
            process=data.get("proc", "?"),
            start_us=int(data["start_us"]),
            duration_us=float(data["dur_us"]),
            attrs=data.get("attrs") or {},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r} trace={self.trace_id:016x} "
            f"dur={self.duration_us:.0f}us proc={self.process})"
        )


class SpanBuffer:
    """Bounded per-process span ring; oldest spans drop first.

    ``recorded`` counts every span ever offered, so ``recorded -
    len(buffer)`` is the drop count — exported traces may be partial
    under sustained sampling and the collector can say so.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._spans: deque = deque(maxlen=capacity)
        self.recorded = 0

    def record(self, span: Span) -> None:
        self.recorded += 1
        self._spans.append(span)

    def __len__(self) -> int:
        return len(self._spans)

    @property
    def dropped(self) -> int:
        return self.recorded - len(self._spans)

    def spans(self) -> List[Span]:
        return list(self._spans)

    def clear(self) -> None:
        self._spans.clear()

    def export_jsonl(self, path: str, append: bool = True) -> int:
        """Write every buffered span as one JSON object per line."""
        spans = self.spans()
        mode = "a" if append else "w"
        with open(path, mode, encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.to_dict()) + "\n")
        return len(spans)


# -- the active span ---------------------------------------------------------------

#: The span currently doing work in this task/thread.  Three states:
#: ``None`` (nothing upstream traces), a live :class:`Span` (sampled —
#: children attach here), or :data:`NOT_SAMPLED` (an upstream sampler
#: already said no; downstream layers must not re-sample).
CURRENT: ContextVar = ContextVar("gdwheel_active_span", default=None)

#: sentinel marking "sampling decided upstream: no" (see :data:`CURRENT`)
NOT_SAMPLED = object()


def current_span() -> Optional[Span]:
    """The live sampled span in this context, if any."""
    live = CURRENT.get()
    return live if isinstance(live, Span) else None


def activate(span: Span):
    """Make ``span`` the active parent; returns a reset token."""
    return CURRENT.set(span)


def suppress():
    """Mark this context not-sampled (downstream samplers stand down)."""
    return CURRENT.set(NOT_SAMPLED)


def deactivate(token) -> None:
    CURRENT.reset(token)


def child_span(name: str, **attrs) -> Optional[Span]:
    """Start a child of the active span, or ``None`` when untraced.

    This is the zero-plumbing hook for deep layers (store tier paths):
    one ContextVar read decides, and untraced requests pay nothing else.
    """
    live = CURRENT.get()
    if not isinstance(live, Span):
        return None
    tracer = live.tracer
    if tracer is None:
        return None
    return tracer.start_span(name, parent=live, **attrs)


def finish_span(span: Optional[Span], **attrs) -> None:
    """End a span from :func:`child_span`; a no-op on ``None``."""
    if span is None:
        return
    tracer = span.tracer
    if tracer is not None:
        tracer.end(span, **attrs)


# -- the tracer --------------------------------------------------------------------


class Tracer:
    """Per-process span factory: sampling, lifecycle, slow-query log.

    Args:
        process: name stamped on every span (``"client"``, ``"shard-0"``).
        capacity: span-ring size.
        sample_interval: head-sample 1 request in N (1 = every request).
        slow_threshold_us: requests at or above this are force-sampled
            even when the head decision said no, and logged as slow-query
            exemplars (key fingerprints only — never keys).
        slow_log_size: bounded slow-query exemplar count.
        rng: id source (inject for deterministic tests).
        clock / perf_counter: time sources (injectable for tests).
    """

    def __init__(
        self,
        process: str,
        capacity: int = 4096,
        sample_interval: int = 100,
        slow_threshold_us: float = 50_000.0,
        slow_log_size: int = 128,
        rng: Optional[random.Random] = None,
        clock: Callable[[], int] = time.time_ns,
        perf_counter: Callable[[], float] = time.perf_counter,
    ) -> None:
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1")
        self.process = process
        self.buffer = SpanBuffer(capacity)
        self.sample_interval = sample_interval
        self.slow_threshold_us = slow_threshold_us
        self.slow_log = deque(maxlen=slow_log_size)
        self.forced_samples = 0
        self._rng = rng if rng is not None else random.Random()
        self._clock = clock
        self._perf_counter = perf_counter
        self._ticker = 0

    # -- sampling --------------------------------------------------------------

    def sample(self) -> bool:
        """The head decision: trace this request?  (1st, N+1th, ...)."""
        self._ticker += 1
        return (self._ticker - 1) % self.sample_interval == 0

    def new_id(self) -> int:
        """A fresh non-zero 64-bit id."""
        value = 0
        while not value:
            value = self._rng.getrandbits(64)
        return value

    # -- span lifecycle --------------------------------------------------------

    def start_span(
        self,
        name: str,
        parent: Optional[Span] = None,
        trace_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        **attrs,
    ) -> Span:
        """Begin a span now; finish it with :meth:`end`.

        ``parent`` (a live span) wins over explicit ``trace_id`` /
        ``parent_id`` (used when the parent lives in another process and
        arrived as a :class:`TraceContext`).  With neither, the span
        roots a new trace.
        """
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        elif trace_id is None:
            trace_id = self.new_id()
        span = Span(
            trace_id=trace_id,
            span_id=self.new_id(),
            parent_id=parent_id,
            name=name,
            process=self.process,
            start_us=self._clock() // 1000,
            attrs=attrs if attrs else None,
        )
        span.tracer = self
        span._t0 = self._perf_counter()
        return span

    def end(self, span: Span, **attrs) -> None:
        span.duration_us = (self._perf_counter() - span._t0) * 1e6
        if attrs:
            span.attrs.update(attrs)
        self.buffer.record(span)

    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[Span] = None,
        trace_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        **attrs,
    ):
        """``with tracer.span("server.dispatch", ...) as s:`` — started,
        activated as the context's parent, deactivated and ended on exit."""
        live = self.start_span(
            name, parent=parent, trace_id=trace_id, parent_id=parent_id, **attrs
        )
        token = activate(live)
        try:
            yield live
        finally:
            deactivate(token)
            self.end(live)

    def record_complete(
        self,
        name: str,
        start_us: int,
        duration_us: float,
        trace_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        **attrs,
    ) -> Span:
        """Record an already-finished span (retroactive force-sampling)."""
        span = Span(
            trace_id=trace_id if trace_id is not None else self.new_id(),
            span_id=self.new_id(),
            parent_id=parent_id,
            name=name,
            process=self.process,
            start_us=start_us,
            duration_us=duration_us,
            attrs=attrs if attrs else None,
        )
        span.tracer = self
        self.buffer.record(span)
        return span

    # -- slow-query exemplars --------------------------------------------------

    def note_slow(
        self,
        op: str,
        duration_us: float,
        key_fp: Optional[int] = None,
        trace_id: Optional[int] = None,
        reason: str = "slow",
    ) -> None:
        """Log one slow/shed exemplar (fingerprints, never raw keys)."""
        self.forced_samples += 1
        self.slow_log.append(
            {
                "op": op,
                "dur_us": round(duration_us, 1),
                "key_fp": key_fp,
                "trace": f"{trace_id:016x}" if trace_id else None,
                "reason": reason,
            }
        )

    def slow_queries(self) -> List[dict]:
        return list(self.slow_log)

    # -- store instrumentation -------------------------------------------------

    def instrument_store(self, store) -> None:
        """Shadow store operations with span-aware wrappers.

        Covers the per-key ops (``get``/``set``/``delete``) and the
        vectored batch ops (``get_many``/``set_many``) so an MGET frame's
        store work lands as one child span under the frame's
        ``server.dispatch`` — sharing the batch's trace id — instead of N
        per-key spans.  The wrapper charges untraced operations exactly
        one ContextVar read (the same instance-attribute shadowing trick
        the metrics registry uses); with no tracer attached to the server
        the store is never wrapped at all.
        """
        for op in ("get", "set", "delete", "get_many", "set_many"):
            fn = getattr(store, op, None)
            if fn is not None:
                setattr(store, op, self._traced_op(fn, f"store.{op}"))

    def _traced_op(self, fn, name: str):
        get_active = CURRENT.get

        def traced(key, *args, **kwargs):
            live = get_active()
            # a live store.* parent means we're inside a vectored op
            # (get_many fans out to self.get): the batch span already
            # covers the work, so per-key children stay unrecorded
            if not isinstance(live, Span) or live.name.startswith("store."):
                return fn(key, *args, **kwargs)
            span = self.start_span(name, parent=live)
            token = CURRENT.set(span)
            try:
                return fn(key, *args, **kwargs)
            finally:
                CURRENT.reset(token)
                self.end(span)

        return traced

    # -- export ----------------------------------------------------------------

    def export(self, path: str, append: bool = True) -> int:
        """Flush the span ring to a JSONL file; returns spans written."""
        return self.buffer.export_jsonl(path, append=append)


def attach_context(commands: Iterable, context: TraceContext) -> List:
    """Attach ``context`` to a batch for the text protocol.

    GET commands grow the pseudo-key token (old servers answer it as a
    miss); an MGET frame fills its first-class ``trace_token`` slot —
    exactly one context for the whole batch, never one per key.  Every
    other command is forwarded untouched, because old parsers reject
    unknown tokens on storage lines — those hops stay client-side-only
    in the trace.
    """
    from dataclasses import replace

    from repro.protocol.commands import GetCommand, MultiGetCommand

    token = encode_token(context)
    out = []
    for command in commands:
        if isinstance(command, GetCommand):
            out.append(replace(command, keys=command.keys + (token,)))
        elif isinstance(command, MultiGetCommand):
            out.append(replace(command, trace_token=token))
        else:
            out.append(command)
    return out
