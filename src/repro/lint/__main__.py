"""``python -m repro.lint`` — the domain-lint CLI gate.

- ``check [paths...]`` — lint the tree (default ``src/repro``); exit
  status 1 when any non-baselined finding remains (the CI gate), 2 on
  usage errors — the same convention as ``python -m repro.obs check``;
- ``rules`` — the rule catalogue with families and descriptions.

``--baseline FILE`` subtracts grandfathered findings;
``--write-baseline FILE`` snapshots the current findings so a newly
adopted rule starts from a clean gate.  ``--select`` restricts the run to
a comma-separated set of rule ids **or families** (``--select
async-safety`` runs the five async rules) — the same vocabulary as the
``# lint: ignore[...]`` suppression form; it works for ``rules`` too.

``--graph-dump`` prints the project call graph (:mod:`repro.lint.graph`)
as JSON instead of linting — the debugging view of what the
``async-safety`` family sees.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from .._cli import (
    EXIT_FINDINGS,
    EXIT_OK,
    main_with_exit,
    print_json,
    render_table,
    run_cli,
)
from .baseline import load_baseline, partition, save_baseline
from .engine import Project, collect_files, default_rules, parse_module, run_lint
from .findings import Finding

DEFAULT_PATHS = ("src/repro",)


def _selected_rules(select: Optional[str]):
    rules = default_rules()
    if not select:
        return rules
    wanted = {token.strip() for token in select.split(",") if token.strip()}
    chosen = [r for r in rules if r.id in wanted or r.family in wanted]
    known = {r.id for r in rules} | {r.family for r in rules}
    unknown = wanted - known
    if unknown:
        raise ValueError(
            f"unknown rule ids/families: {', '.join(sorted(unknown))}"
        )
    return chosen


def _render_findings(findings: List[Finding], title: str) -> str:
    if not findings:
        return f"{title}\n(no findings)"
    rows = [
        [f.location, f.rule, f.severity, f.message] for f in findings
    ]
    return render_table(
        ["location", "rule", "severity", "message"], rows, title=title
    )


def _cmd_graph_dump(paths: Sequence[object]) -> int:
    modules = []
    for path in collect_files(paths):
        module, _parse_finding = parse_module(path)
        if module is not None:
            modules.append(module)
    print_json(Project(modules).graph().to_dict())
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    paths = args.paths or list(DEFAULT_PATHS)
    if args.graph_dump:
        return _cmd_graph_dump(paths)
    rules = _selected_rules(args.select)
    findings = run_lint(paths, rules=rules)
    if args.write_baseline:
        save_baseline(args.write_baseline, findings)
        print(
            f"wrote baseline {args.write_baseline} "
            f"({len(findings)} fingerprints)"
        )
        return EXIT_OK
    grandfathered: List[Finding] = []
    if args.baseline:
        new, grandfathered = partition(findings, load_baseline(args.baseline))
        findings = new
    if args.json:
        payload = {
            "paths": [str(p) for p in paths],
            "findings": [f.to_dict() for f in findings],
            "families": sorted({f.family for f in findings}),
            "grandfathered": len(grandfathered),
        }
        print_json(payload)
    else:
        title = f"repro.lint check {' '.join(str(p) for p in paths)}"
        print(_render_findings(findings, title))
        summary = f"{len(findings)} finding(s)"
        if grandfathered:
            summary += f", {len(grandfathered)} grandfathered by baseline"
        print(summary)
    return EXIT_FINDINGS if findings else EXIT_OK


def _cmd_rules(args: argparse.Namespace) -> int:
    rules = _selected_rules(args.select)
    if args.json:
        print_json(
            [
                {
                    "id": r.id,
                    "family": r.family,
                    "severity": r.severity,
                    "description": r.description,
                }
                for r in rules
            ]
        )
        return EXIT_OK
    rows = [[r.id, r.family, r.severity, r.description] for r in rules]
    print(
        render_table(
            ["rule", "family", "severity", "description"],
            rows,
            title=f"{len(rows)} registered rules",
        )
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Domain-aware static analysis (see docs/lint.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", help="lint the tree (exit 1 on new findings)"
    )
    p_check.add_argument(
        "paths",
        nargs="*",
        help=f"files/directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    p_check.add_argument(
        "--baseline",
        help="baseline JSON of grandfathered findings to subtract",
    )
    p_check.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="snapshot current findings as the new baseline and exit 0",
    )
    p_check.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids/families to run (default: all)",
    )
    p_check.add_argument(
        "--graph-dump",
        action="store_true",
        help="print the project call graph as JSON instead of linting",
    )
    p_check.add_argument("--json", action="store_true", help="machine output")
    p_check.set_defaults(func=_cmd_check)

    p_rules = sub.add_parser("rules", help="list the rule catalogue")
    p_rules.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids/families to list (default: all)",
    )
    p_rules.add_argument("--json", action="store_true", help="machine output")
    p_rules.set_defaults(func=_cmd_rules)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return run_cli(lambda: args.func(args))


if __name__ == "__main__":
    main_with_exit(main)
