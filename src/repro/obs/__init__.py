"""repro.obs — the observability spine (registry, trace, exposition).

One :class:`MetricsRegistry` carries every counter, gauge, and latency
histogram for a store and the servers in front of it; one
:class:`EventTrace` carries the structured eviction/cascade/slab-move
events.  Exposition is pull (``stats metrics`` / ``stats trace`` over the
memcached protocol, Prometheus text via :mod:`repro.obs.promtext`) or push
(:class:`SnapshotReporter` rate reports).

Pass ``registry=NullRegistry()`` to a :class:`~repro.kvstore.store.KVStore`
or server to turn the whole subsystem into no-ops; the overhead-guard
benchmark (``benchmarks/test_obs_overhead.py``) holds the instrumented
path to within 10% of that baseline.

Since the tracing PR the spine also follows *individual requests* across
processes: :mod:`repro.obs.tracing` samples per-request distributed
traces whose context rides the wire protocol,
:mod:`repro.obs.tracecollect` merges the exported span files back into
trace trees, and :mod:`repro.obs.top` renders the live cluster health
table.
"""

from repro.obs.aggregate import as_number, merge_trace_stats, sum_numeric_stats
from repro.obs.histogram import BoundedHistogram, LatencyHistogram
from repro.obs.promtext import parse_sample_lines, render_registry
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    NullRegistry,
    format_series,
)
from repro.obs.reporter import SnapshotReporter, diff_snapshots, format_snapshot
from repro.obs.trace import (
    BreakerTransitionEvent,
    CascadeEvent,
    ConnectionRejectedEvent,
    EventTrace,
    EvictionEvent,
    IdleDisconnectEvent,
    OverloadShedEvent,
    SlabMoveEvent,
    SpillEvent,
    TierGCEvent,
    TraceEvent,
    key_fingerprint,
)
from repro.obs.tracing import (
    Span,
    SpanBuffer,
    TraceContext,
    Tracer,
    child_span,
    current_span,
    decode_token,
    encode_token,
    finish_span,
)

__all__ = [
    "BoundedHistogram",
    "BreakerTransitionEvent",
    "CascadeEvent",
    "ConnectionRejectedEvent",
    "Counter",
    "EventTrace",
    "EvictionEvent",
    "Gauge",
    "IdleDisconnectEvent",
    "OverloadShedEvent",
    "Histogram",
    "LatencyHistogram",
    "MetricFamily",
    "MetricsRegistry",
    "NullRegistry",
    "SlabMoveEvent",
    "SnapshotReporter",
    "Span",
    "SpanBuffer",
    "SpillEvent",
    "TierGCEvent",
    "TraceContext",
    "TraceEvent",
    "Tracer",
    "as_number",
    "child_span",
    "current_span",
    "decode_token",
    "diff_snapshots",
    "encode_token",
    "finish_span",
    "format_series",
    "format_snapshot",
    "key_fingerprint",
    "merge_trace_stats",
    "parse_sample_lines",
    "render_registry",
    "sum_numeric_stats",
]
