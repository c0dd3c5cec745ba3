"""The span seam: every ``@spanned`` request-path method.

``repro.obs.trace.spanned`` replaced hand-written traced/untraced
method twins.  These tests pin what the twins guaranteed, method by
method: the same signature (keyword calls included), exactly one
extra Python frame when tracing is off, per-module and per-class
attribution of the generated code, and the same span name, track,
detail and ``error:<Type>`` status when tracing is on.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import pkgutil
import sys
from dataclasses import dataclass
from typing import Any, Callable

import pytest

import repro
from repro.core.config import PSSConfig
from repro.core.errors import (
    DomainError,
    PolicyError,
    ShardDownError,
    TransportClosedError,
)
from repro.core.kernel.admission import AdmissionController
from repro.core.kernel.service import ShardedService
from repro.core.policy import ClientIdentity, DomainPolicy
from repro.core.serving.pipeline import ServingPipeline
from repro.obs import Tracer
from repro.obs.trace import NULL_TRACER, spanned

CONFIG = PSSConfig(num_features=2, weight_bits=6)
IDENTITY = ClientIdentity(uid=7, program="seam")
F = (3, 5)
G = (4, 9)


# -- discovery ---------------------------------------------------------------

def _spanned_methods() -> dict[str, Callable[..., Any]]:
    """Every ``@spanned`` method in the package, by qualname."""
    found: dict[str, Callable[..., Any]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != info.name:
                continue
            for value in vars(cls).values():
                code = getattr(value, "__code__", None)
                if code is not None \
                        and code.co_filename.startswith("<spanned "):
                    found[value.__qualname__] = value
    return found


SPANNED = _spanned_methods()


# -- one traced or untraced call per decorated method ------------------------

@dataclass
class Case:
    """One call of a decorated method on a freshly built system."""

    obj: Any
    args: tuple
    #: the span the call opens: (name, transport track, detail)
    span: tuple[str, str, Any]


def _service(tracer, **kwargs) -> ShardedService:
    return ShardedService(tracer=tracer, num_shards=2,
                          admission=AdmissionController(), **kwargs)


def _client(tracer, transport="vdso", resilient=False):
    service = _service(tracer)
    return service.connect("d", identity=IDENTITY, transport=transport,
                           config=CONFIG,
                           fallback=0 if resilient else None)


def _client_case(op, resilient):
    def build(tracer):
        client = _client(tracer, resilient=resilient)
        if op == "flush":
            client.update(F, True)
        args = {"predict": (F,), "predict_batch": ([F, G],),
                "update": (F, True), "reset": (F,), "flush": ()}[op]
        detail = {"rows": 2} if op == "predict_batch" else None
        return Case(client, args, (f"client.{op}", "client", detail))
    return build


def _transport_case(kind, op):
    def build(tracer):
        transport = _client(tracer, transport=kind)._transport
        if op == "flush":
            transport.update(F, True)
        args = {"predict": (F,), "predict_batch": ([F, G],),
                "update": (F, True), "reset": (F, False), "flush": ()}[op]
        detail = {"predict_batch": {"rows": 2},
                  "flush": {"records": 1}}.get(op)
        return Case(transport, args, (f"{kind}.{op}", kind, detail))
    return build


def _domain_case(tracer):
    service = _service(tracer)
    service.create_domain("d", config=CONFIG)
    return Case(service.domain("d"), ([F, G],),
                ("plan.execute", "kernel", {"rows": 2}))


def _handle_case(op):
    def build(tracer):
        handle = _service(tracer).handle("d", identity=IDENTITY,
                                         config=CONFIG)
        args = {"predict": (F,), "predict_batch": ([F, G],),
                "update": (F, True)}[op]
        detail = {"rows": 2} if op == "predict_batch" else None
        return Case(handle, args, (f"kernel.{op}", "kernel", detail))
    return build


def _kernel_batch_case(tracer):
    service = _service(tracer)
    for name in ("d", "e"):
        service.create_domain(name, config=CONFIG)
    return Case(service, ([("d", F), ("e", G)],),
                ("kernel.predict_batch", "kernel", {"rows": 2}))


def _crashed(tracer, sync=True):
    service = _service(tracer, num_replicas=1)
    service.create_domain("d", config=CONFIG)
    if sync:
        service.sync_replicas()
    shard_id = service.shard_of("d")
    service.crash_shard(shard_id)
    return service, service.shard(shard_id)


def _failover_case(tracer):
    service, shard = _crashed(tracer)
    return Case(shard, (service.domain("d"), F),
                ("kernel.failover", "replica", None))


def _migrate_case(tracer):
    service = _service(tracer)
    for index in range(8):
        service.create_domain(f"d{index}", config=CONFIG)
    migrator = service.begin_reshard(3)
    move = migrator._moves[0]
    return Case(migrator, (),
                ("migrate.step", "migrator",
                 {"slot": move.slot, "source": move.source,
                  "dest": move.dest}))


def _dispatch_case(tracer):
    service = _service(tracer)
    service.create_domain("d", config=CONFIG)
    pipeline = ServingPipeline(service, tracer=tracer)
    pipeline.submit("d", F)
    dispatcher = pipeline.dispatchers[service.shard_of("d")]
    batch, _trigger = dispatcher.batcher.drain(dispatcher.queue)
    return Case(dispatcher, (batch,),
                ("serve.dispatch", "serving", {"rows": 1}))


CASES: dict[str, Callable[[Any], Case]] = {
    **{f"PSSClient.{op}": _client_case(op, resilient=False)
       for op in ("predict", "predict_batch", "update", "reset", "flush")},
    **{f"ResilientClient.{op}": _client_case(op, resilient=True)
       for op in ("predict", "predict_batch", "update", "reset", "flush")},
    "Transport.reset": _transport_case("vdso", "reset"),
    **{f"SyscallTransport.{op}": _transport_case("syscall", op)
       for op in ("predict", "predict_batch", "update")},
    **{f"VdsoTransport.{op}": _transport_case("vdso", op)
       for op in ("predict", "predict_batch", "update", "flush")},
    "Domain.predict_batch": _domain_case,
    **{f"DomainHandle.{op}": _handle_case(op)
       for op in ("predict", "predict_batch", "update")},
    "ShardedService.predict_batch": _kernel_batch_case,
    "Shard.failover_predict": _failover_case,
    "SlotMigrator.step": _migrate_case,
    "Dispatcher._execute": _dispatch_case,
}


def _python_calls(fn: Callable[..., Any], *args: Any) -> int:
    """Python-level calls made by ``fn(*args)``, ``fn`` included."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # A collection inside the call would count finalizers (suspended
    # generators of earlier tests' sim processes) as calls.
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


class TestCoverage:
    def test_every_request_path_twin_was_converted(self):
        assert set(SPANNED) == set(CASES)
        assert len(SPANNED) == 26


@pytest.mark.parametrize("qualname", sorted(CASES))
class TestEveryMethod:
    def test_signature_is_the_methods_own(self, qualname):
        fn = SPANNED[qualname]
        assert inspect.signature(fn, follow_wrapped=False) \
            == inspect.signature(fn.__wrapped__)
        assert fn.__defaults__ == fn.__wrapped__.__defaults__

    def test_untraced_call_adds_exactly_one_frame(self, qualname):
        fn = SPANNED[qualname]
        # One warm-up call first: process-wide caches (the default
        # plan compiler) fill once, outside the two counted calls.
        warm = CASES[qualname](None)
        fn(warm.obj, *warm.args)
        wrapped = CASES[qualname](None)
        bare = CASES[qualname](None)
        assert _python_calls(fn, wrapped.obj, *wrapped.args) \
            == _python_calls(fn.__wrapped__, bare.obj, *bare.args) + 1

    def test_wrapper_is_attributed_to_its_module_and_class(self, qualname):
        fn = SPANNED[qualname]
        code = fn.__code__
        assert fn.__globals__["__name__"] == fn.__wrapped__.__module__
        assert fn.__module__ == fn.__wrapped__.__module__
        assert fn.__qualname__ == qualname
        assert qualname in code.co_consts
        if hasattr(code, "co_qualname"):
            assert code.co_qualname == qualname

    def test_traced_call_opens_the_same_span(self, qualname):
        tracer = Tracer()
        case = CASES[qualname](tracer)
        tracer.clear()
        SPANNED[qualname](case.obj, *case.args)
        root = min(tracer.spans(), key=lambda span: span.span_id)
        assert (root.name, root.transport, root.detail) == case.span
        assert root.status == "ok"
        assert tracer.open_spans() == []


class TestGeneratedCode:
    def test_code_objects_are_pairwise_unequal(self):
        codes = [fn.__code__ for fn in SPANNED.values()]
        for index, code in enumerate(codes):
            for other in codes[index + 1:]:
                assert code != other

    def test_exact_signature_kinds_and_defaults(self):
        marker = object()

        class Probe:
            _tracer = NULL_TRACER

            @spanned("probe")
            def call(self, a, /, b=marker, *rest, key=None, **extra):
                return a, b, rest, key, extra

        probe = Probe()
        assert probe.call(1) == (1, marker, (), None, {})
        assert probe.call(1, 2, 3, key=4, other=5) \
            == (1, 2, (3,), 4, {"other": 5})
        assert Probe.call.__defaults__[0] is marker
        assert str(inspect.signature(Probe.call, follow_wrapped=False)) \
            == str(inspect.signature(Probe.call.__wrapped__))
        with pytest.raises(TypeError):
            probe.call(a=1)

    def test_untraced_call_never_computes_detail(self):
        def detail(self, n):
            raise AssertionError("detail computed while untraced")

        class Probe:
            _tracer = NULL_TRACER

            @spanned("probe", detail=detail)
            def call(self, n):
                return n

        assert Probe().call(5) == 5

    def test_reserved_parameter_names_are_refused(self):
        with pytest.raises(TypeError, match="_body"):
            @spanned("bad")
            def method(self, _body):
                return _body

    def test_custom_tracer_attribute_and_detail(self):
        class Probe:
            def __init__(self, tracer):
                self.tracer = tracer

            def _span(self, op, detail):
                return self.tracer.span(f"probe.{op}", detail=detail)

            @spanned("run", detail=lambda self, n: {"n": n} if n else None,
                     tracer="tracer")
            def run(self, n):
                return n * 2

        tracer = Tracer()
        probe = Probe(tracer)
        assert probe.run(3) == 6
        assert probe.run(0) == 0  # None detail: no span
        assert [(s.name, s.detail) for s in tracer.spans()] \
            == [("probe.run", {"n": 3})]


class TestKeywordCalls:
    @pytest.mark.parametrize("resilient", [False, True])
    def test_client_keyword_arguments(self, resilient):
        tracer = Tracer()
        client = _client(tracer, resilient=resilient)
        client.update(F, direction=True)
        client.reset(F, reset_all=True)
        client.reset(features=F)
        client.predict_batch(feature_rows=[F])
        names = [span.name for span in tracer.spans()
                 if span.name.startswith("client.")]
        assert names == ["client.update", "client.reset", "client.reset",
                         "client.predict_batch"]

    @pytest.mark.parametrize("traced", [False, True])
    def test_kernel_batch_identity_keyword(self, traced):
        service = _service(Tracer() if traced else None)
        service.create_domain("d", config=CONFIG)
        assert service.predict_batch([("d", F)], identity=IDENTITY) \
            == [service.predict("d", F)]
        assert service.admission.usage_for(IDENTITY).predictions == 1


class TestTracedErrors:
    """A raising body closes its span with ``error:<Type>``, as the
    hand-written ``with`` blocks did."""

    def test_closed_client(self):
        tracer = Tracer()
        client = _client(tracer)
        client.close()
        tracer.clear()
        with pytest.raises(TransportClosedError):
            client.predict(F)
        assert [(s.name, s.status) for s in tracer.spans()] == [
            ("vdso.predict", "error:TransportClosedError"),
            ("client.predict", "error:TransportClosedError")]

    def test_policy_denied_handle(self):
        tracer = Tracer()
        service = _service(tracer)
        policy = DomainPolicy(allowed_uids=frozenset({99}))
        service.create_domain("d", config=CONFIG, policy=policy)
        handle = service.handle("d", identity=IDENTITY)
        with pytest.raises(PolicyError):
            handle.update(F, True)
        assert [(s.name, s.status) for s in tracer.spans()] \
            == [("kernel.update", "error:PolicyError")]

    def test_unknown_domain_in_kernel_batch(self):
        tracer = Tracer()
        with pytest.raises(DomainError):
            _service(tracer).predict_batch([("missing", F)])
        assert [(s.name, s.status) for s in tracer.spans()] \
            == [("kernel.predict_batch", "error:DomainError")]

    def test_failover_without_followers(self):
        tracer = Tracer()
        service, shard = _crashed(tracer, sync=False)
        tracer.clear()
        with pytest.raises(ShardDownError):
            shard.failover_predict(service.domain("d"), F)
        assert [(s.name, s.status) for s in tracer.spans()] \
            == [("kernel.failover", "error:ShardDownError")]


class TestSkippedSpans:
    """Calls with nothing to do open no span."""

    def test_empty_handle_batch(self):
        tracer = Tracer()
        handle = _service(tracer).handle("d", config=CONFIG)
        tracer.clear()
        assert handle.predict_batch([]) == []
        assert tracer.spans() == []

    def test_empty_kernel_batch(self):
        tracer = Tracer()
        assert _service(tracer).predict_batch([]) == []
        assert tracer.spans() == []

    def test_flush_with_nothing_pending(self):
        tracer = Tracer()
        transport = _client(tracer)._transport
        transport.flush()
        assert tracer.spans() == []

    def test_finished_migration_step(self):
        tracer = Tracer()
        service = _service(tracer)
        migrator = service.begin_reshard(2)  # nothing to move
        assert migrator.done
        assert migrator.step() is True
        assert tracer.spans() == []

    def test_empty_client_batch_still_spans_the_call(self):
        # As before the seam: the client and transport spans record a
        # zero-row call; the kernel below sees nothing.
        tracer = Tracer()
        client = _client(tracer)
        assert client.predict_batch([]) == []
        assert [(s.name, s.detail) for s in tracer.spans()] == [
            ("vdso.predict_batch", {"rows": 0}),
            ("client.predict_batch", {"rows": 0})]
