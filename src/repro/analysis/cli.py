"""``python -m repro check``: the invariant gate CI runs.

Exit codes follow the lint convention the rest of the toolchain uses:

* ``0`` - no findings (after pragma suppression and, with
  ``--baseline``, baseline filtering);
* ``1`` - at least one finding (each printed as ``path:line: RULE
  severity: message``);
* ``2`` - the checker itself could not run (bad flags, unknown rule,
  unreadable/corrupt baseline).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any

from repro.analysis.baseline import (
    BASELINE_NAME,
    BaselineError,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import Project, run_rules
from repro.analysis.findings import Finding
from repro.analysis.rules import select_rules
from repro.analysis.sarif import sarif_report

#: schema version of the JSON report (and the CI artifact);
#: 2: per-finding ``hint`` field, optional ``changed_files`` count
REPORT_VERSION = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description=("Project-specific invariant checker: determinism "
                     "lint, trace-registry audit, transport contract "
                     "checks, race analysis (see docs/INVARIANTS.md)"),
    )
    parser.add_argument("--root", metavar="DIR", default=".",
                        help="project root to analyze (default: cwd); "
                             "the package is DIR/src/repro when "
                             "present, else DIR itself")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="report format on stdout (default: text; "
                             "sarif emits SARIF 2.1.0 for PR "
                             "annotation)")
    parser.add_argument("--output", metavar="PATH",
                        help="additionally write the JSON report to "
                             "PATH (for CI artifacts), whatever "
                             "--format says")
    parser.add_argument("--sarif-out", metavar="PATH",
                        help="additionally write the SARIF 2.1.0 "
                             "report to PATH, whatever --format says")
    parser.add_argument("--changed", action="store_true",
                        help="scope the per-file rules to files named "
                             "in `git diff --name-only HEAD` under "
                             "--root (the cross-file finish pass "
                             "still sees the whole tree); exit 2 when "
                             "git cannot answer")
    parser.add_argument("--baseline", action="store_true",
                        help="filter findings recorded in "
                             f"{BASELINE_NAME} under --root; corrupt "
                             "baselines are rejected")
    parser.add_argument("--write-baseline", action="store_true",
                        help="grandfather the current findings into "
                             f"{BASELINE_NAME} and exit 0")
    parser.add_argument("--rules", metavar="IDS",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list every registered rule and exit")
    return parser


def _report(root: Path, project: Project, findings: list[Finding],
            suppressed: int, baselined: int,
            scope: set[str] | None = None) -> dict[str, Any]:
    report = {
        "version": REPORT_VERSION,
        "root": str(root),
        "checked_files": len(project.contexts),
        "suppressed": suppressed,
        "baselined": baselined,
        "findings": [finding.as_dict() for finding in findings],
    }
    if scope is not None:
        report["changed_files"] = len(scope)
    return report


def _changed_files(root: Path) -> set[str] | None:
    """Root-relative paths ``git diff --name-only HEAD`` reports, or
    None when git cannot answer (not a repo, git missing)."""
    try:
        completed = subprocess.run(
            ["git", "-C", str(root), "diff", "--name-only", "HEAD"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return {line.strip() for line in completed.stdout.splitlines()
            if line.strip()}


def _print_text(report: dict[str, Any],
                findings: list[Finding]) -> None:
    for finding in findings:
        print(finding.render())
    tail = (f"{len(findings)} finding"
            f"{'' if len(findings) == 1 else 's'} in "
            f"{report['checked_files']} files")
    extras = []
    if report["suppressed"]:
        extras.append(f"{report['suppressed']} pragma-suppressed")
    if report["baselined"]:
        extras.append(f"{report['baselined']} baselined")
    if extras:
        tail += " (" + ", ".join(extras) + ")"
    print(tail)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; keep both.
        return int(exc.code or 0)

    if args.list_rules:
        from repro.analysis.rules import RULE_CLASSES
        for cls in RULE_CLASSES:
            print(f"{cls.rule_id}  {cls.description}")
        return 0

    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"repro check: root {root} is not a directory",
              file=sys.stderr)
        return 2

    rule_ids = ([part.strip() for part in args.rules.split(",")
                 if part.strip()] if args.rules else None)
    try:
        rules = select_rules(rule_ids)
    except KeyError as exc:
        print(f"repro check: unknown rule id {exc.args[0]!r} "
              f"(see --list-rules)", file=sys.stderr)
        return 2

    scope: set[str] | None = None
    if args.changed:
        scope = _changed_files(root)
        if scope is None:
            print(f"repro check: --changed needs a git checkout at "
                  f"{root} (git diff failed)", file=sys.stderr)
            return 2

    project = Project(root)
    findings, suppressed = run_rules(project, rules, scope=scope)

    baseline_path = root / BASELINE_NAME
    if args.write_baseline:
        count = write_baseline(findings, baseline_path)
        print(f"wrote {count} grandfathered finding"
              f"{'' if count == 1 else 's'} to {baseline_path}")
        return 0

    baselined = 0
    if args.baseline:
        try:
            grandfathered = load_baseline(baseline_path)
        except BaselineError as exc:
            print(f"repro check: {exc}", file=sys.stderr)
            return 2
        findings, baselined = apply_baseline(findings, grandfathered)

    report = _report(root, project, findings, suppressed, baselined,
                     scope)
    if args.output:
        Path(args.output).write_text(
            json.dumps(report, indent=1) + "\n", encoding="utf-8"
        )
    if args.sarif_out or args.format == "sarif":
        sarif = sarif_report(findings, rules, str(root))
        if args.sarif_out:
            Path(args.sarif_out).write_text(
                json.dumps(sarif, indent=1) + "\n", encoding="utf-8"
            )
    if args.format == "json":
        print(json.dumps(report, indent=1))
    elif args.format == "sarif":
        print(json.dumps(sarif, indent=1))
    else:
        _print_text(report, findings)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
