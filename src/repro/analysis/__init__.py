"""Project-specific static analysis: the invariant checker.

The reproduction's claims - bit-identical kernel/monolith scores,
fault sequences identical traced or untraced, deterministic ``--seed``
reports - rest on conventions nothing in the language enforces:
simulated time only, seeded RNG only, every trace kind registered,
transports that close cleanly, no swallowed faults, no racing sim
processes.  This package enforces them at the AST level, Mantis-style
white-box program analysis turned inward on the repo itself, and gates
CI via ``python -m repro check``.

Layout:

* :mod:`repro.analysis.findings` - the :class:`Finding` model;
* :mod:`repro.analysis.engine`   - file contexts, pragma suppression,
  the rule driver;
* :mod:`repro.analysis.rules`    - the rule registry (CTR/DET/EXC/QUE/
  RAC/REP/TRC families);
* :mod:`repro.analysis.baseline` - CRC-checked grandfathering;
* :mod:`repro.analysis.cli`      - the ``check`` command.

See ``docs/INVARIANTS.md`` for the rule catalogue and escape hatches.
"""

from repro.analysis.baseline import (
    BASELINE_NAME,
    BaselineError,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import (
    FileContext,
    Project,
    parse_pragmas,
    run_rules,
)
from repro.analysis.findings import Finding
from repro.analysis.rules import (
    RULE_CLASSES,
    Rule,
    all_rules,
    rules_by_id,
    select_rules,
)

__all__ = [
    "BASELINE_NAME",
    "BaselineError",
    "FileContext",
    "Finding",
    "Project",
    "RULE_CLASSES",
    "Rule",
    "all_rules",
    "load_baseline",
    "parse_pragmas",
    "rules_by_id",
    "run_rules",
    "select_rules",
    "write_baseline",
]
