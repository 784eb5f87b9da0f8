"""Domain-aware static analysis for the reproduction.

The interpreter never checks the conventions this codebase's physics
rests on: temperatures are Celsius-compatible differences from ambient
(``repro.units``), configs are frozen dataclasses, simulations are
bit-deterministic under a seed, and schedulers honor the
``sched.base.Scheduler`` contract.  ``repro.lint`` machine-checks those
invariants over the source tree — violations corrupt the analytic
``T_peak`` bound silently rather than raising, so they must be caught
before run time.

Library entry point::

    from repro.lint import run_lint
    findings = run_lint(["src/repro"])

CLI gate (exit 1 on findings)::

    python -m repro.lint check src/repro --baseline lint-baseline.json

Beyond the per-file rules, the engine builds a whole-tree call graph on
demand (:mod:`repro.lint.graph`, via :meth:`Project.graph`) for the
``async-safety`` family: flow- and reachability-sensitive checks that
the single-threaded asyncio serve loop never blocks, races on shared
state across an ``await``, or leaks request-scoped ContextVars.

See ``docs/lint.md`` for the rule catalogue and the suppression /
baseline workflow.  The package is deliberately stdlib-only.
"""

from .baseline import load_baseline, partition, save_baseline
from .engine import (
    Module,
    Project,
    Rule,
    collect_files,
    default_rules,
    register,
    rule_families,
    rule_ids,
    run_lint,
)
from .findings import Finding
from .graph import ProjectGraph

__all__ = [
    "Finding",
    "Module",
    "Project",
    "ProjectGraph",
    "Rule",
    "collect_files",
    "default_rules",
    "load_baseline",
    "partition",
    "register",
    "rule_families",
    "rule_ids",
    "run_lint",
    "save_baseline",
]
