"""Trace-registry rules: every emitted kind is registered, none dead.

``repro.obs.trace.EVENT_KINDS`` is the schema that exporters, the
Chrome-trace validator, and the observability tests treat as exhaustive.
An event emitted under an unregistered kind silently bypasses that
schema; a registered kind nothing emits is dead weight that makes the
schema lie.  Both directions are audited statically: TRC001 checks
every literal ``kind`` at an emission site against the registry, TRC002
checks every registered kind has at least one literal emission site.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext, Project
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule, dotted_name

#: the assignment that defines the schema
REGISTRY_NAME = "EVENT_KINDS"

#: method names that emit one trace event with the kind as the first
#: argument: ``Tracer.record`` plus the project's thin wrappers over it
EMIT_HELPERS = frozenset({"_trace", "_trace_client", "_trace_transition"})


def _is_emission(call: ast.Call) -> bool:
    """Whether ``call`` emits a trace event whose first argument (or
    ``kind=``) is the event kind."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr in EMIT_HELPERS:
        return True
    if func.attr != "record":
        return False
    # ``record`` is common (stats, latency accounts); only receivers
    # that are tracers count: any path component mentioning "tracer".
    receiver = dotted_name(func.value)
    return any("tracer" in part.lower()
               for part in receiver.split("."))


def _literal_kind(call: ast.Call) -> tuple[str, int] | None:
    """The literal kind string an emission passes, or None if dynamic."""
    candidate: ast.expr | None = None
    for keyword in call.keywords:
        if keyword.arg == "kind":
            candidate = keyword.value
            break
    if candidate is None and call.args:
        candidate = call.args[0]
    if isinstance(candidate, ast.Constant) \
            and isinstance(candidate.value, str):
        return candidate.value, candidate.lineno
    return None


def find_registry(project: Project) -> tuple[dict[str, int],
                                             FileContext | None, int]:
    """The registered kinds (kind -> definition line), the file that
    defines them, and the assignment's line.

    The registry is a module-level assignment, so only each module's
    top-level statements are scanned.
    """
    for context in project.contexts:
        for node in context.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            if not any(isinstance(target, ast.Name)
                       and target.id == REGISTRY_NAME
                       for target in node.targets):
                continue
            kinds: dict[str, int] = {}
            for child in ast.walk(node.value):
                if isinstance(child, ast.Constant) \
                        and isinstance(child.value, str):
                    kinds.setdefault(child.value, child.lineno)
            return kinds, context, node.lineno
    return {}, None, 0


class RegisteredTraceKindsRule(Rule):
    """TRC001: every literal ``kind`` at an emission site is registered.

    Dynamic kinds (variables forwarded by the emission helpers
    themselves) cannot be checked statically and are skipped - the
    helpers' call sites pass literals, which is where this rule bites.
    """

    rule_id = "TRC001"
    description = ("every kind= passed to trace emission appears in "
                   "obs.trace.EVENT_KINDS")
    hint = ("register the kind in obs.trace.EVENT_KINDS (the schema "
            "the exporters and the Chrome-trace validator treat as "
            "exhaustive) or reuse a registered one")

    def __init__(self) -> None:
        #: (kind, context, line) per literal emission, for TRC001
        #: validation and TRC002's reverse audit
        self.emissions: list[tuple[str, FileContext, int]] = []

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if isinstance(node, ast.Call) and _is_emission(node):
                literal = _literal_kind(node)
                if literal is not None:
                    kind, line = literal
                    self.emissions.append((kind, ctx, line))
        return iter(())

    def finish(self, project: Project) -> Iterator[Finding]:
        kinds, registry_ctx, _line = find_registry(project)
        if registry_ctx is None:
            # Nothing to audit against (e.g. a fixture tree without a
            # trace module): the forward check cannot run.
            return
        for kind, ctx, line in self.emissions:
            if kind not in kinds:
                yield ctx.finding(
                    self.rule_id, line,
                    f"trace kind {kind!r} is not registered in "
                    f"{registry_ctx.relpath}:{REGISTRY_NAME}; exporters "
                    f"and schema validation will not know it",
                )


class NoDeadTraceKindsRule(Rule):
    """TRC002: the reverse audit - no registered kind is dead.

    A kind in ``EVENT_KINDS`` with no literal emission site anywhere in
    the package means the schema over-promises: tests and exporters
    special-case an event the system can never produce.
    """

    rule_id = "TRC002"
    description = ("every kind registered in obs.trace.EVENT_KINDS has "
                   "at least one emission site")
    hint = ("emit the kind somewhere (Tracer.record or a _trace "
            "wrapper) or drop it from obs.trace.EVENT_KINDS so the "
            "schema stops over-promising")

    def __init__(self) -> None:
        self._forward = RegisteredTraceKindsRule()

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        return self._forward.check_file(ctx)

    def finish(self, project: Project) -> Iterator[Finding]:
        kinds, registry_ctx, assign_line = find_registry(project)
        if registry_ctx is None:
            return
        emitted = {kind for kind, _ctx, _line in
                   self._forward.emissions}
        for kind in sorted(kinds):
            if kind not in emitted:
                yield registry_ctx.finding(
                    self.rule_id, kinds.get(kind, assign_line),
                    f"registered trace kind {kind!r} has no emission "
                    f"site: remove it or emit it",
                )
