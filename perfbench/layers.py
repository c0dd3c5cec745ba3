"""The layer map: which module (and class) of ``repro`` each layer is.

Both the traced run and the counting run attribute work through this
one table, so a span and a Python call land in the same layer.  A layer
is named after the module that implements it; the two modules that host
more than one layer are split by class name.
"""

from __future__ import annotations

import importlib

#: every layer the benchmark reports, in request-path order
LAYERS = ("client", "transport", "handle", "admission", "domain", "kernel",
          "model", "weights", "plans", "serving", "sim", "obs")

#: bucket for code outside every layer (the harness, stdlib, numpy,
#: config/error classes, dataclass-generated methods)
OTHER = "other"

#: (module prefix, layer), first match wins; longer prefixes first
_MODULE_LAYERS = (
    ("repro.core.client", "client"),
    ("repro.core.features", "client"),
    ("repro.core.transport", "transport"),
    ("repro.core.faults", "transport"),
    ("repro.core.service", "handle"),
    ("repro.core.policy", "handle"),
    ("repro.core.kernel.admission", "admission"),
    ("repro.core.kernel", "kernel"),
    ("repro.core.perceptron", "model"),
    ("repro.core.models", "model"),
    ("repro.core.weights", "weights"),
    ("repro.core.hashing", "weights"),
    ("repro.core.plans", "plans"),
    ("repro.core.serving", "serving"),
    ("repro.sim", "sim"),
    ("repro.obs", "obs"),
)

#: modules that host two layers: module -> (class prefix, layer, else)
_SPLIT_MODULES = {
    "repro.core.kernel.domain": ("DomainHandle", "handle", "domain"),
    "repro.core.stats": ("LatencyAccount", "transport", "domain"),
}

#: source name of the code ``repro.core.plans`` generates with exec()
_PLAN_SOURCE_PREFIX = "<plan "


def layer_of(module: str | None, qualname: str, filename: str = "") -> str:
    """The layer whose code this is, or :data:`OTHER`."""
    if module is None:
        return "plans" if filename.startswith(_PLAN_SOURCE_PREFIX) else OTHER
    split = _SPLIT_MODULES.get(module)
    if split is not None:
        prefix, layer, fallback = split
        return layer if qualname.startswith(prefix + ".") else fallback
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return OTHER


#: the public entry points the traced run wraps, per layer
ENTRY_POINTS = (
    ("client", "repro.core.client", "PSSClient",
     ("predict", "predict_batch", "update", "flush")),
    ("transport", "repro.core.transport", "VdsoTransport",
     ("predict", "predict_batch", "update", "flush")),
    ("handle", "repro.core.kernel.domain", "DomainHandle",
     ("predict", "predict_batch", "update", "record_cached_prediction")),
    ("admission", "repro.core.kernel.admission", "AdmissionController",
     ("charge_predict", "charge_update", "admit_request")),
    ("domain", "repro.core.kernel.domain", "Domain",
     ("predict", "predict_batch", "update", "record_cached_prediction")),
    ("kernel", "repro.core.kernel.service", "ShardedService",
     ("predict_batch", "update")),
    ("model", "repro.core.perceptron", "HashedPerceptron",
     ("predict", "predict_batch", "update")),
    ("weights", "repro.core.weights", "WeightMatrix",
     ("dot", "dot_batch", "dot_and_indices", "adjust_at")),
    ("plans", "repro.core.plans", "SpecializedPlan",
     ("score_select_rows",)),
    ("serving", "repro.core.serving.pipeline", "ServingPipeline",
     ("submit", "request_done")),
    ("serving", "repro.core.serving.queue", "RequestQueue",
     ("push", "drain")),
    ("serving", "repro.core.serving.batcher", "MicroBatcher", ("drain",)),
    ("serving", "repro.core.serving.future", "CompletionFuture",
     ("complete",)),
    ("sim", "repro.sim.engine", "Engine", ("run", "step")),
    ("obs", "repro.obs.trace", "Tracer", ("record", "span")),
    ("obs", "repro.obs.trace", "SpanHandle", ("__enter__", "__exit__")),
    ("obs", "repro.obs.metrics", "Histogram", ("observe",)),
    ("obs", "repro.obs.metrics", "Counter", ("inc",)),
)


def entry_points() -> list[tuple[str, type, str]]:
    """``(layer, class, method name)`` for every wrapped entry point."""
    out = []
    for layer, module, cls_name, methods in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        for method in methods:
            out.append((layer, cls, method))
    return out
