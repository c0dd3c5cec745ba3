"""Span API semantics: causality, clocks, rings, and null no-ops."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PredictionService, PSSConfig
from repro.obs import (
    NULL_TRACER,
    Span,
    Tracer,
    span_children,
    validate_spans,
)

FEATURES = [3, 5]
CONFIG_KW = dict(num_features=2)


class TestSpanTree:
    def test_nested_spans_record_parent_child(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
            with tracer.span("sibling") as sibling:
                pass
        spans = tracer.spans()
        assert [s.name for s in spans] == [
            "grandchild", "child", "sibling", "root"]
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert sibling.parent_id == root.span_id
        assert root.parent_id == 0
        roots = validate_spans(spans)
        assert [r.span_id for r in roots] == [root.span_id]
        children = span_children(spans)
        assert {s.name for s in children[root.span_id]} == \
            {"child", "sibling"}

    def test_events_attach_to_enclosing_span(self):
        tracer = Tracer()
        tracer.record("predict")  # outside any span
        with tracer.span("root") as root:
            tracer.record("cache_miss")
            with tracer.span("child") as child:
                tracer.record("cache_hit")
        outside, in_root, in_child = tracer.events()
        assert outside.span_id == 0
        assert in_root.span_id == root.span_id
        assert in_child.span_id == child.span_id
        # span-free events serialize without the field at all, so a
        # span-free trace is byte-identical to pre-span releases
        assert "span_id" not in outside.as_dict()
        assert in_root.as_dict()["span_id"] == root.span_id

    def test_exception_marks_span_status_and_still_closes(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                with tracer.span("child"):
                    raise RuntimeError("boom")
        child, root = tracer.spans()
        assert child.status == "error:RuntimeError"
        assert root.status == "error:RuntimeError"
        assert tracer.open_spans() == []
        assert tracer.current_span_id() == 0

    def test_annotate_adds_detail_fields(self):
        tracer = Tracer()
        with tracer.span("route", detail={"rows": 4}) as span:
            span.annotate(shards=2)
        done, = tracer.spans()
        assert done.detail == {"rows": 4, "shards": 2}

    def test_span_ring_is_bounded(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        spans = tracer.spans()
        assert len(spans) == 4
        assert [s.name for s in spans] == ["s6", "s7", "s8", "s9"]
        assert tracer.span_dropped == 6

    def test_clear_resets_span_state(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.spans() == []
        assert tracer.span_dropped == 0
        with tracer.span("b") as b:
            assert b.span_id == 1  # ids restart after clear


class TestSpansAreContextManaged:
    def test_raw_begin_end_are_not_public(self):
        for name in ("begin_span", "end_span"):
            assert not hasattr(Tracer, name)
            assert not hasattr(Tracer(), name)

    def test_unentered_handle_records_nothing(self):
        tracer = Tracer()
        tracer.span("never-entered", detail={"rows": 1})
        assert tracer.open_spans() == []
        assert tracer.spans() == []
        assert tracer.current_span_id() == 0


class TestClocks:
    def test_explicit_clock_drives_timestamps(self):
        tracer = Tracer()
        now = [100.0]
        with tracer.span("op", clock=lambda: now[0]):
            now[0] = 160.0
        span, = tracer.spans()
        assert span.start_ns == 100.0
        assert span.end_ns == 160.0
        assert span.dur_ns == 60.0

    def test_nested_span_inherits_enclosing_clock(self):
        tracer = Tracer()
        now = [10.0]
        with tracer.span("outer", clock=lambda: now[0]):
            now[0] = 30.0
            # no own clock: the kernel span rides the transport's
            # simulated timeline instead of the tracer's sequence
            with tracer.span("inner"):
                now[0] = 45.0
        inner, outer = tracer.spans()
        assert inner.start_ns == 30.0
        assert inner.end_ns == 45.0
        assert outer.dur_ns == 45.0 - 10.0

    def test_clock_stack_pops_on_exit(self):
        tracer = Tracer()
        with tracer.span("timed", clock=lambda: 5.0):
            pass
        with tracer.span("counted"):
            pass
        timed, counted = tracer.spans()
        assert timed.start_ns == 5.0
        # after the clocked span exits, the sequence clock is back
        assert counted.start_ns != 5.0 or counted.end_ns != 5.0


class TestNullTracer:
    def test_null_span_is_free_and_inert(self):
        handle = NULL_TRACER.span("anything", domain="d")
        with handle as span:
            span.annotate(rows=3)  # must not raise or allocate state
            assert span.span_id == 0
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.open_spans() == []
        assert NULL_TRACER.current_span_id() == 0
        assert NULL_TRACER.span_dropped == 0


class TestValidation:
    def test_validate_rejects_orphans(self):
        orphan = Span(span_id=2, parent_id=99, name="x",
                      status="ok")
        with pytest.raises(ValueError, match="orphan"):
            validate_spans([orphan])

    def test_validate_rejects_duplicates_and_open(self):
        a = Span(span_id=1, parent_id=0, name="a", status="ok")
        dup = Span(span_id=1, parent_id=0, name="b", status="ok")
        with pytest.raises(ValueError):
            validate_spans([a, dup])
        still_open = Span(span_id=3, parent_id=0, name="c")
        with pytest.raises(ValueError):
            validate_spans([still_open])

    def test_round_trip_through_dicts(self):
        tracer = Tracer()
        with tracer.span("root", domain="d", transport="vdso",
                         shard="1", detail={"rows": 2}):
            pass
        span, = tracer.spans()
        assert Span.from_dict(span.as_dict()) == span


class TestTracedUntracedIdentity:
    """Tracing must never perturb results: same scores, same weights."""

    @given(seed=st.integers(0, 7),
           ops=st.lists(st.integers(0, 2), min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_vdso_stack_identical_with_and_without_tracing(
            self, seed, ops):
        def run(tracer):
            service = PredictionService(tracer=tracer)
            client = service.connect(
                "d", config=PSSConfig(seed=seed, **CONFIG_KW))
            out = []
            for op in ops:
                if op == 0:
                    out.append(client.predict(FEATURES))
                elif op == 1:
                    client.update(FEATURES, True)
                else:
                    out.append(client.predict([1, 2]))
            out.append(service.domain("d").generation)
            return out

        assert run(NULL_TRACER) == run(Tracer())
