"""The analysis engine: file contexts, pragma suppression, rule driving.

The engine is deliberately small: it parses every Python file under the
project's package root once (:class:`FileContext` carries the AST, its
nodes walked once, the raw lines, and the pragma map), hands each
context to every registered rule's ``check_file`` hook, then gives each
rule one ``finish`` pass over the whole :class:`Project` for cross-file
audits (trace-kind registry, interprocedural and race analysis).
Suppression is resolved centrally so every rule honors the same
``# repro: allow RULE`` pragma syntax.
"""

from __future__ import annotations

import ast
import re
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.analysis.findings import Finding

if TYPE_CHECKING:
    from repro.analysis.rules.base import Rule

#: in-source escape hatch: ``# repro: allow DET001`` (comma-separated
#: rule ids) on the offending line or the line directly above it
PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\s+([A-Z]{3}\d{3}"
                       r"(?:\s*,\s*[A-Z]{3}\d{3})*)")

#: the package the checker audits, relative to the project root (when
#: absent, the root itself is treated as the package - fixture trees)
DEFAULT_PACKAGE = Path("src") / "repro"


def parse_pragmas(lines: list[str]) -> dict[int, frozenset[str]]:
    """Map 1-based line numbers to the rule ids allowed on that line."""
    pragmas: dict[int, frozenset[str]] = {}
    for number, text in enumerate(lines, start=1):
        match = PRAGMA_RE.search(text)
        if match is not None:
            rules = frozenset(
                part.strip() for part in match.group(1).split(",")
            )
            pragmas[number] = rules
    return pragmas


class FileContext:
    """Everything a rule may want to know about one source file."""

    def __init__(self, path: Path, relpath: str, source: str) -> None:
        self.path = path
        #: posix path relative to the project root (report form)
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=relpath)
        #: every node of ``tree`` in ``ast.walk`` order, walked once and
        #: shared by every rule's whole-file scan
        self.nodes = list(ast.walk(self.tree))
        self.pragmas = parse_pragmas(self.lines)

    @property
    def module_path(self) -> str:
        """Path relative to the *package* root (allowlist form), e.g.
        ``bench/experiments/latency.py`` for
        ``src/repro/bench/experiments/latency.py``."""
        prefix = DEFAULT_PACKAGE.as_posix() + "/"
        if self.relpath.startswith(prefix):
            return self.relpath[len(prefix):]
        return self.relpath

    def source_line(self, line: int) -> str:
        """Stripped text of 1-based ``line`` ("" when out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def allowed(self, rule_id: str, line: int) -> bool:
        """Whether a pragma on ``line`` or the line above allows
        ``rule_id``."""
        for candidate in (line, line - 1):
            rules = self.pragmas.get(candidate)
            if rules is not None and rule_id in rules:
                return True
        return False

    def finding(self, rule_id: str, line: int, message: str,
                severity: str = "error", hint: str = "",
                pragma_lines: tuple = ()) -> Finding:
        return Finding(
            rule_id=rule_id, path=self.relpath, line=line,
            message=message, severity=severity,
            source_line=self.source_line(line),
            hint=hint, pragma_lines=pragma_lines,
        )


class Project:
    """The set of parsed files one analysis run covers."""

    def __init__(self, root: str | Path,
                 files: Iterable[Path] | None = None) -> None:
        self.root = Path(root)
        package_root = self.root / DEFAULT_PACKAGE
        self.package_root = (package_root if package_root.is_dir()
                             else self.root)
        self.contexts: list[FileContext] = []
        self.parse_errors: list[Finding] = []
        for path in self._select_files(files):
            relpath = path.relative_to(self.root).as_posix()
            try:
                source = path.read_text(encoding="utf-8")
                context = FileContext(path, relpath, source)
            except (SyntaxError, UnicodeDecodeError, OSError) as exc:
                self.parse_errors.append(Finding(
                    rule_id="ENG000", path=relpath,
                    line=getattr(exc, "lineno", None) or 1,
                    message=f"cannot analyze file: {exc}",
                ))
                continue
            self.contexts.append(context)
        # Built once: rules doing cross-file lookups resolve one call
        # edge per context_for() call, so the old linear scan was
        # O(files * edges).
        self._by_module_path = {context.module_path: context
                                for context in self.contexts}

    def _select_files(self,
                      files: Iterable[Path] | None) -> list[Path]:
        if files is not None:
            return sorted(Path(f) for f in files)
        return sorted(
            path for path in self.package_root.rglob("*.py")
            if "__pycache__" not in path.parts
        )

    def context_for(self, module_path: str) -> FileContext | None:
        """The context whose package-relative path is ``module_path``."""
        return self._by_module_path.get(module_path)


def run_rules(project: Project, rules: Iterable["Rule"],
              scope: set[str] | None = None,
              ) -> tuple[list[Finding], int]:
    """Drive every rule over the project.

    Returns ``(findings, suppressed)`` where ``findings`` is sorted by
    location and ``suppressed`` counts pragma-silenced violations.
    Parse failures surface as ``ENG000`` findings: an unparseable file
    must fail the gate, not silently escape every rule.

    ``scope`` (root-relative posix paths, ``--changed``) restricts the
    per-file *findings* to the named files; ``check_file`` still visits
    every context — rules like TRC002 accumulate cross-file state
    there — and every rule's cross-file ``finish`` pass still runs
    over the whole tree, so interprocedural findings can land in
    unchanged files.
    """
    raw: list[tuple[Finding, "Rule | None"]] = [
        (finding, None) for finding in project.parse_errors
    ]
    rule_list = list(rules)
    for context in project.contexts:
        in_scope = scope is None or context.relpath in scope
        for rule in rule_list:
            raw.extend((finding, rule)
                       for finding in rule.check_file(context)
                       if in_scope)
    for rule in rule_list:
        raw.extend((finding, rule) for finding in rule.finish(project))

    findings: list[Finding] = []
    suppressed = 0
    by_path = {context.relpath: context for context in project.contexts}
    for finding, rule in raw:
        context = by_path.get(finding.path)
        if context is not None:
            lines = (finding.line, *finding.pragma_lines)
            if any(context.allowed(finding.rule_id, line)
                   for line in lines):
                suppressed += 1
                continue
        if rule is not None and rule.hint and not finding.hint:
            finding = replace(finding, hint=rule.hint)
        findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings, suppressed
