"""Serving-pipeline rule: sim processes never enter the kernel directly.

The event-driven pipeline's contract (docs/SERVING.md) is that requests
reach the kernel only through a per-shard dispatcher that has already
charged the batch's crossing cost as simulated time.  A kernel call
from any *other* sim process is a blocking call smuggled back into the
event loop: it executes synchronously inside one engine step, stalls
every queued request behind that process, and charges nothing to the
simulated clock - exactly the pathology the refactor removed.

QUE001 pins this statically.  Sim processes are generator functions
(``yield``-bodied - the only way code runs inside the engine), and in
their bodies a call of ``predict_batch`` on any receiver, or ``update``
on a kernel-shaped receiver (``service``/``kernel``/``shard``/``svc``
in the dotted chain - plain ``dict.update``/``set.update`` calls stay
out of scope), is flagged.  ``core/serving/dispatch.py`` is the single
sanctioned site.

The ``finish`` pass makes the rule interprocedural: a kernel entry
reached *through a helper* from a non-dispatcher process - the
generator calls a plain function that calls ``predict_batch`` - is the
same smuggled blocking call wearing one stack frame of disguise, and
the callgraph layer (``repro.analysis.callgraph``) catches it.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.engine import FileContext
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule, dotted_name

if TYPE_CHECKING:
    from repro.analysis.engine import Project


class BlockingKernelCallRule(Rule):
    """QUE001: kernel ``predict_batch``/``update`` calls inside a sim
    process body - or reachable from one through helpers - are
    reserved for the serving dispatcher."""

    rule_id = "QUE001"
    description = ("sim processes submit, they never enter the kernel: "
                   "predict_batch/update inside (or reachable from) a "
                   "generator body is reserved for "
                   "core/serving/dispatch.py")
    hint = ("submit the work through ServingPipeline.submit() and wait "
            "on the returned CompletionFuture; only the Dispatcher in "
            "core/serving/dispatch.py enters the kernel")

    #: the single sanctioned kernel-entry site
    ALLOWED_MODULES = ("core/serving/dispatch.py",)

    #: receiver-name fragments that mark an ``update`` call as kernel
    #: entry (``self.service.update``, ``kernel.update``, ...) rather
    #: than a builtin-container update
    KERNEL_RECEIVER_HINTS = ("service", "kernel", "shard", "svc")

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if any(ctx.relpath.endswith(allowed)
               for allowed in self.ALLOWED_MODULES):
            return
        for function in ctx.nodes:
            if not isinstance(function, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                continue
            own_nodes = list(self._own_nodes(function))
            if not any(isinstance(node, (ast.Yield, ast.YieldFrom))
                       for node in own_nodes):
                continue  # not a generator: not a sim-process body
            for node in own_nodes:
                if not isinstance(node, ast.Call) \
                        or not isinstance(node.func, ast.Attribute):
                    continue
                attr = node.func.attr
                receiver = dotted_name(node.func.value)
                if attr == "predict_batch":
                    yield ctx.finding(
                        self.rule_id, node.lineno,
                        f"sim process {function.name!r} calls "
                        f"{receiver or '<expr>'}.predict_batch() "
                        f"directly: a blocking kernel call inside an "
                        f"event-loop process stalls every queued "
                        f"request behind it; submit to the serving "
                        f"pipeline (only the dispatcher enters the "
                        f"kernel)",
                    )
                elif attr == "update" and self._kernelish(receiver):
                    yield ctx.finding(
                        self.rule_id, node.lineno,
                        f"sim process {function.name!r} calls "
                        f"{receiver}.update() directly: kernel writes "
                        f"from an event-loop process bypass queue "
                        f"ordering and charge no simulated time; "
                        f"submit op='update' to the serving pipeline "
                        f"instead",
                    )

    def finish(self, project: "Project") -> Iterator[Finding]:
        """Interprocedural pass: kernel entry reached through helpers.

        For every discovered process whose entry is *not* in the
        dispatcher module, walk its bounded call graph; a
        ``predict_batch``/kernel-``update`` call in any reached plain
        function is flagged at the call site.  Generator bodies are
        the syntactic pass's job (no double reporting), and helpers
        living in the allowlisted dispatcher module are the sanctioned
        entry itself.
        """
        from repro.analysis.callgraph import ProgramIndex
        from repro.analysis.concurrency import ProcessModel

        index = ProgramIndex.for_project(project)
        model = ProcessModel.for_project(project)

        # (relpath, line) -> (fn, site, entry labels, example path)
        flagged: dict[tuple, tuple] = {}
        for entry in model.sorted_entries():
            entry_module = entry.fn.module.module_path
            if any(entry_module.endswith(allowed)
                   for allowed in self.ALLOWED_MODULES):
                continue
            reach = model.full_reach(entry)
            for qname in sorted(reach):
                fn = reach[qname].fn
                if fn.is_generator:
                    continue
                if any(fn.module.module_path.endswith(allowed)
                       for allowed in self.ALLOWED_MODULES):
                    continue
                for site in fn.calls:
                    receiver = ".".join(site.chain) if site.chain \
                        else ""
                    if site.name == "predict_batch":
                        pass
                    elif site.name == "update" \
                            and self._kernelish(receiver):
                        pass
                    else:
                        continue
                    key = (fn.module.context.relpath, site.line)
                    if key not in flagged:
                        path = " -> ".join(
                            index.call_path(reach, qname))
                        flagged[key] = (fn, site, [], path)
                    if entry.label not in flagged[key][2]:
                        flagged[key][2].append(entry.label)

        for key in sorted(flagged):
            fn, site, labels, path = flagged[key]
            receiver = ".".join(site.chain) if site.chain else "<expr>"
            yield fn.module.context.finding(
                self.rule_id, site.line,
                f"helper {fn.qname!r} calls "
                f"{receiver}.{site.name}() and is reachable from "
                f"sim process(es) {', '.join(labels)} ({path}): a "
                f"kernel entry one stack frame removed from the "
                f"event loop is still a blocking call inside an "
                f"engine step",
                pragma_lines=(fn.node.lineno, *fn.decorator_lines),
            )

    @classmethod
    def _kernelish(cls, receiver: str) -> bool:
        lowered = receiver.lower()
        return any(hint in lowered
                   for hint in cls.KERNEL_RECEIVER_HINTS)

    @staticmethod
    def _own_nodes(function: ast.AST) -> Iterator[ast.AST]:
        """Every AST node of ``function``'s own body, excluding nested
        function/lambda bodies (a nested def runs in whatever context
        *calls* it, not in this process's engine step)."""
        stack = list(ast.iter_child_nodes(function))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
