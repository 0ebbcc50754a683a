"""Unit tests for the tracing core: codecs, sampling, spans, buffers.

The fake clocks make every duration deterministic: ``clock`` ticks in
milliseconds of epoch-nanoseconds, ``perf_counter`` in milliseconds of
seconds, so a span that spans one tick lasts exactly 1000 us.
"""

import random

import pytest

from repro.obs.tracing import (
    TOKEN_PREFIX,
    CURRENT,
    NOT_SAMPLED,
    Span,
    SpanBuffer,
    TraceContext,
    Tracer,
    activate,
    child_span,
    current_span,
    deactivate,
    decode_token,
    encode_token,
    finish_span,
    suppress,
)


class FakeTime:
    """Deterministic clock + perf_counter pair advancing together."""

    def __init__(self) -> None:
        self.ticks = 0

    def advance(self, ticks: int = 1) -> None:
        self.ticks += ticks

    def clock_ns(self) -> int:
        return self.ticks * 1_000_000_000  # 1 tick = 1 s = 1e6 us

    def perf(self) -> float:
        return float(self.ticks)


def make_tracer(**kwargs):
    time = FakeTime()
    defaults = dict(
        process="test",
        rng=random.Random(7),
        clock=time.clock_ns,
        perf_counter=time.perf,
    )
    defaults.update(kwargs)
    return Tracer(**defaults), time


# -- wire codecs -------------------------------------------------------------------


def test_token_round_trip():
    context = TraceContext(trace_id=0xDEADBEEF, span_id=0x1234, sampled=True)
    token = encode_token(context)
    assert token.startswith(TOKEN_PREFIX)
    assert b" " not in token and b"\r" not in token and b"\n" not in token
    assert decode_token(token) == context


def test_token_round_trip_unsampled():
    context = TraceContext(trace_id=5, span_id=6, sampled=False)
    assert decode_token(encode_token(context)) == context


@pytest.mark.parametrize(
    "bad",
    [
        b"not-a-token",
        b"tctx:",
        b"tctx:zz.yy.1",
        b"tctx:0000000000000001.0000000000000002",
        b"tctx:0000000000000001.0000000000000002.2",
        b"tctx:001.002.1",
    ],
)
def test_malformed_tokens_decode_to_none(bad):
    assert decode_token(bad) is None


# -- sampling ----------------------------------------------------------------------


def test_sampling_cadence_one_in_n():
    tracer, _ = make_tracer(sample_interval=4)
    decisions = [tracer.sample() for _ in range(12)]
    assert decisions == [True, False, False, False] * 3


def test_sample_interval_one_samples_everything():
    tracer, _ = make_tracer(sample_interval=1)
    assert all(tracer.sample() for _ in range(10))


def test_sample_interval_validated():
    with pytest.raises(ValueError):
        Tracer(process="x", sample_interval=0)


def test_new_ids_are_nonzero_and_distinct():
    tracer, _ = make_tracer()
    ids = {tracer.new_id() for _ in range(100)}
    assert len(ids) == 100
    assert 0 not in ids


# -- span lifecycle ----------------------------------------------------------------


def test_root_span_and_child_link():
    tracer, time = make_tracer()
    root = tracer.start_span("client.request", op="get")
    time.advance()
    child = tracer.start_span("router.route", parent=root, shard="s0")
    time.advance()
    tracer.end(child)
    tracer.end(root, hit=True)
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert root.parent_id is None
    assert child.start_us == root.start_us + 1_000_000
    assert child.duration_us == pytest.approx(1e6)
    assert root.duration_us == pytest.approx(2e6)
    assert root.attrs == {"op": "get", "hit": True}


def test_remote_parent_via_trace_context():
    tracer, _ = make_tracer()
    context = TraceContext(trace_id=0xAB, span_id=0xCD)
    span = tracer.start_span(
        "server.dispatch", trace_id=context.trace_id,
        parent_id=context.span_id,
    )
    tracer.end(span)
    assert span.trace_id == 0xAB
    assert span.parent_id == 0xCD


def test_span_context_manager_activates_and_records():
    tracer, _ = make_tracer()
    assert current_span() is None
    with tracer.span("server.dispatch", cmd="get") as live:
        assert current_span() is live
    assert current_span() is None
    assert tracer.buffer.spans() == [live]


def test_span_serialization_round_trip():
    tracer, time = make_tracer()
    span = tracer.start_span("store.get", key_fp=123)
    time.advance()
    tracer.end(span)
    restored = Span.from_dict(span.to_dict())
    assert restored.trace_id == span.trace_id
    assert restored.span_id == span.span_id
    assert restored.parent_id is None
    assert restored.name == "store.get"
    assert restored.process == "test"
    assert restored.start_us == span.start_us
    assert restored.duration_us == pytest.approx(span.duration_us, abs=0.1)
    assert restored.attrs == {"key_fp": 123}


# -- the active-span context var ---------------------------------------------------


def test_child_span_attaches_to_active_span():
    tracer, _ = make_tracer()
    with tracer.span("server.dispatch") as dispatch:
        child = child_span("tier.read")
        assert child is not None
        assert child.parent_id == dispatch.span_id
        finish_span(child, hit=False)
    assert child in tracer.buffer.spans()
    assert child.attrs == {"hit": False}


def test_child_span_is_none_when_untraced():
    assert current_span() is None
    assert child_span("tier.read") is None
    finish_span(None)  # must be a no-op


def test_suppress_blocks_child_spans():
    tracer, _ = make_tracer()
    token = suppress()
    try:
        assert CURRENT.get() is NOT_SAMPLED
        assert current_span() is None
        assert child_span("tier.read") is None
    finally:
        deactivate(token)


def test_activate_deactivate_restores_previous():
    tracer, _ = make_tracer()
    outer = tracer.start_span("outer")
    outer_token = activate(outer)
    inner = tracer.start_span("inner", parent=outer)
    inner_token = activate(inner)
    assert current_span() is inner
    deactivate(inner_token)
    assert current_span() is outer
    deactivate(outer_token)
    assert current_span() is None


# -- the span ring -----------------------------------------------------------------


def test_span_buffer_ring_drops_oldest():
    buffer = SpanBuffer(capacity=3)
    spans = [
        Span(trace_id=1, span_id=i + 1, parent_id=None, name=f"s{i}",
             process="p", start_us=i)
        for i in range(5)
    ]
    for span in spans:
        buffer.record(span)
    assert len(buffer) == 3
    assert buffer.recorded == 5
    assert buffer.dropped == 2
    assert [s.name for s in buffer.spans()] == ["s2", "s3", "s4"]


def test_span_buffer_capacity_validated():
    with pytest.raises(ValueError):
        SpanBuffer(capacity=0)


def test_export_jsonl_and_reload(tmp_path):
    tracer, time = make_tracer()
    with tracer.span("a"):
        time.advance()
    path = tmp_path / "spans.jsonl"
    assert tracer.export(str(path)) == 1
    # append mode: a second export duplicates (the worker writes once,
    # at shutdown; append keeps a respawned worker from clobbering)
    assert tracer.export(str(path)) == 1
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2


# -- forced sampling / slow log ----------------------------------------------------


def test_record_complete_retroactive_span():
    tracer, _ = make_tracer()
    span = tracer.record_complete(
        "client.request", start_us=1000, duration_us=75_000.0,
        forced="slow", op="get",
    )
    assert span.duration_us == 75_000.0
    assert span.attrs["forced"] == "slow"
    assert tracer.buffer.spans() == [span]


def test_note_slow_bounded_exemplars():
    tracer, _ = make_tracer(slow_log_size=2)
    for i in range(4):
        tracer.note_slow("get", 60_000.0 + i, key_fp=i, reason="slow")
    log = tracer.slow_queries()
    assert len(log) == 2
    assert [entry["key_fp"] for entry in log] == [2, 3]
    assert tracer.forced_samples == 4
    assert all(entry["reason"] == "slow" for entry in log)


# -- store instrumentation ---------------------------------------------------------


class _StubStore:
    def __init__(self):
        self.calls = []

    def get(self, key):
        self.calls.append(("get", key))
        return None

    def set(self, key, value, cost=0):
        self.calls.append(("set", key))
        return True

    def delete(self, key):
        self.calls.append(("delete", key))
        return False


def test_instrument_store_records_spans_only_under_a_trace():
    tracer, _ = make_tracer()
    store = _StubStore()
    tracer.instrument_store(store)
    # untraced: passes straight through, records nothing
    store.get(b"k")
    assert tracer.buffer.spans() == []
    with tracer.span("server.dispatch"):
        store.get(b"k")
        store.set(b"k", b"v", cost=3)
        store.delete(b"k")
    names = [s.name for s in tracer.buffer.spans()]
    assert names == ["store.get", "store.set", "store.delete",
                     "server.dispatch"]
    dispatch = tracer.buffer.spans()[-1]
    for span in tracer.buffer.spans()[:-1]:
        assert span.parent_id == dispatch.span_id
    assert store.calls == [
        ("get", b"k"), ("get", b"k"), ("set", b"k"), ("delete", b"k")
    ]
