"""AST-walking rule engine for the domain lint.

The engine parses every ``*.py`` file under the requested paths once,
wraps each in a :class:`Module` (source, line table, AST, location helpers)
and dispatches two kinds of checks from the rule registry:

- :meth:`Rule.check_module` — per-file AST inspection;
- :meth:`Rule.check_project` — whole-tree checks that need to see several
  files at once (e.g. "every scheduler subclass is exported from
  ``repro.sched``").

Findings on a line carrying a ``# lint: ignore[rule-id]`` comment are
suppressed (a bare ``# lint: ignore`` suppresses every rule; the bracket
form accepts rule ids and rule families).  The engine is stdlib-only by
design — it must run in environments without the numeric stack.
"""

from __future__ import annotations

import abc
import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cache import LintCache
    from .graph import ProjectGraph

#: Subpackages of ``repro`` that must be bit-deterministic under a seed.
#: The batched engine (``sim/batch.py``, ``thermal/batched_state.py``)
#: behind serve's fused ``/v1/simulate`` bursts is covered here: its
#: whole contract is that a fused batch is byte-identical to solo runs,
#: which a clock or global-RNG read would silently break per-row.
DETERMINISTIC_SUBPACKAGES = ("sim", "sched", "thermal", "core")

#: Top-level ``repro`` modules held to the same determinism rules; an
#: entry with a trailing slash covers a whole package.  The parallel
#: runner's contract is that a sweep's results (and now its retry/backoff
#: schedule) are a pure function of its seeds, and the fault injector's
#: is that a fault schedule replays bit-exactly from ``FaultsConfig.seed``
#: — a wall-clock or global-RNG read in either silently breaks that.
#: The serve layer joins them: identical request payloads must yield
#: identical answers (cached or not), and its load generator replays a
#: request tape that is a pure function of its seed — monotonic clocks
#: (``loop.time()``, ``perf_counter``) are fine for latency measurement,
#: calendar time is not.  The span tracer joins for the same reason:
#: trace/span ids are monotonic counters and durations come from
#: ``perf_counter`` only, so a span JSONL is replayable and two traced
#: runs differ only in their (excluded-by-convention) timing fields.
#: The traffic layer is determinism-critical by construction: every
#: arrival schedule (and its JSONL trace) is a pure function of its seed.
DETERMINISTIC_MODULES = (
    "parallel.py",
    "faults/",
    "serve/",
    "obs/spans.py",
    "traffic/",
)

#: Rule id reported for files the engine cannot parse.
PARSE_ERROR_RULE = "parse-error"

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore(?:\[(?P<ids>[^\]]*)\])?")


# -- parsed modules ------------------------------------------------------------


@dataclass
class Module:
    """One parsed source file plus location helpers for rules."""

    path: Path
    #: path as reported in findings (posix, relative to the cwd if possible).
    display: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    @property
    def name(self) -> str:
        return self.path.name

    @property
    def repro_parts(self) -> Tuple[str, ...]:
        """Path components from the innermost ``repro`` directory onward.

        Empty when the file does not live under a ``repro`` tree; this is
        how rules scope themselves to subpackages without importing
        anything (and how tests exercise them from snippet directories).
        """
        parts = self.path.parts
        for index in range(len(parts) - 1, -1, -1):
            if parts[index] == "repro":
                return parts[index:]
        return ()

    @property
    def subpackage(self) -> Optional[str]:
        """Direct subpackage under ``repro`` (``"sim"``), or ``None``."""
        parts = self.repro_parts
        if len(parts) >= 3:  # ('repro', '<sub>', ..., 'file.py')
            return parts[1]
        return None

    def line_text(self, lineno: int) -> str:
        """Source text of 1-based ``lineno`` (empty when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def segment(self, node: ast.AST) -> str:
        """Verbatim source text of ``node`` (best effort)."""
        lineno = getattr(node, "lineno", None)
        end_lineno = getattr(node, "end_lineno", None)
        col = getattr(node, "col_offset", None)
        end_col = getattr(node, "end_col_offset", None)
        if None in (lineno, end_lineno, col, end_col):
            return ""
        if lineno == end_lineno:
            return self.line_text(lineno)[col:end_col]
        parts = [self.line_text(lineno)[col:]]
        parts.extend(self.line_text(n) for n in range(lineno + 1, end_lineno))
        parts.append(self.line_text(end_lineno)[:end_col])
        return "\n".join(parts)

    def finding(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
    ) -> Finding:
        """Build a finding for ``node`` attributed to ``rule``."""
        return Finding(
            path=self.display,
            line=getattr(node, "lineno", 1) or 1,
            rule=rule.id,
            message=message,
            severity=rule.severity,
            family=rule.family,
        )


@dataclass
class Project:
    """All modules of one lint run, for cross-file rules."""

    modules: List[Module]
    _graph: Optional[object] = field(default=None, repr=False, compare=False)

    def graph(self) -> "ProjectGraph":
        """The project's call graph, built lazily and cached.

        Several ``async-safety`` rules share one run's graph; building it
        costs one extra AST walk per module (see
        :mod:`repro.lint.graph`), so per-file-only runs never pay for it.
        """
        if self._graph is None:
            from .graph import ProjectGraph

            self._graph = ProjectGraph(self)
        return self._graph  # type: ignore[return-value]

    def by_suffix(self, *suffix: str) -> Iterator[Module]:
        """Modules whose ``repro_parts`` end with ``suffix``."""
        for module in self.modules:
            if module.repro_parts[-len(suffix):] == suffix:
                yield module

    def in_subpackage(self, subpackage: str) -> Iterator[Module]:
        """Modules directly or transitively under ``repro/<subpackage>/``."""
        for module in self.modules:
            if module.subpackage == subpackage:
                yield module


# -- rules and registry --------------------------------------------------------


class Rule(abc.ABC):
    """One named invariant check.

    Subclasses set the class attributes and implement ``check_module``
    and/or ``check_project``.  Registered rules are instantiated fresh for
    every :func:`run_lint` call, so they may keep per-run state.
    """

    #: unique kebab-case identifier (used in reports and suppressions).
    id: str = ""
    #: rule family (one of the families catalogued in ``docs/lint.md``).
    family: str = ""
    #: default severity for this rule's findings.
    severity: str = "error"
    #: one-line human description (shown by ``repro.lint rules``).
    description: str = ""

    def applies_to(self, module: Module) -> bool:
        """Whether ``check_module`` should run on ``module``."""
        return True

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Per-file findings (default: none)."""
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        """Whole-tree findings (default: none)."""
        return ()


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.id:
        raise ValueError(f"{rule_cls.__name__} has no rule id")
    existing = _REGISTRY.get(rule_cls.id)
    if existing is not None and existing is not rule_cls:
        raise ValueError(f"duplicate rule id {rule_cls.id!r}")
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    from . import rules as _rules  # noqa: F401  (imports register the rules)

    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def rule_ids() -> List[str]:
    """Sorted ids of all registered rules."""
    from . import rules as _rules  # noqa: F401

    return sorted(_REGISTRY)


def rule_families() -> List[str]:
    """Sorted distinct families of all registered rules.

    Families are first-class selectors everywhere a rule id is accepted:
    ``--select``, ``# lint: ignore[...]`` and the ``family`` key of JSON
    records all speak the same vocabulary.
    """
    from . import rules as _rules  # noqa: F401

    return sorted({rule_cls.family for rule_cls in _REGISTRY.values()})


# -- engine --------------------------------------------------------------------


def _display_path(path: Path) -> str:
    try:
        return path.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def collect_files(paths: Sequence[object]) -> List[Path]:
    """All ``*.py`` files under ``paths`` (files kept as-is), sorted."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)  # type: ignore[arg-type]
        if path.is_dir():
            files.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    seen = set()
    unique = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def parse_module(path: Path) -> Tuple[Optional[Module], Optional[Finding]]:
    """Parse one file; on syntax errors return a ``parse-error`` finding."""
    display = _display_path(path)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Finding(
            path=display,
            line=exc.lineno or 1,
            rule=PARSE_ERROR_RULE,
            message=f"file does not parse: {exc.msg}",
            severity="error",
            family="engine",
        )
    return Module(path=path, display=display, source=source, tree=tree), None


def _suppressed(finding: Finding, modules: Dict[str, Module]) -> bool:
    module = modules.get(finding.path)
    if module is None:
        return False
    match = _IGNORE_RE.search(module.line_text(finding.line))
    if match is None:
        return False
    ids = match.group("ids")
    if ids is None:
        return True
    tokens = {t.strip() for t in re.split(r"[,\s]+", ids) if t.strip()}
    return finding.rule in tokens or (finding.family in tokens)


def has_project_pass(rule: Rule) -> bool:
    """Whether ``rule`` overrides :meth:`Rule.check_project`.

    Project-pass rules see the whole tree at once, so the incremental
    cache can never skip them — one changed file may flip a finding in
    another (that is the point of the call graph).
    """
    return type(rule).check_project is not Rule.check_project


def run_lint(
    paths: Sequence[object],
    rules: Optional[Sequence[Rule]] = None,
    cache: Optional["LintCache"] = None,
) -> List[Finding]:
    """Lint every ``*.py`` file under ``paths`` and return sorted findings.

    Suppression comments are honored; parse failures surface as
    ``parse-error`` findings rather than exceptions, so one broken file
    cannot hide findings in the rest of the tree.

    When ``cache`` is given (see :class:`repro.lint.cache.LintCache`),
    per-module findings of unchanged files — keyed by a BLAKE2b content
    hash — are served from it instead of re-running the per-file rules.
    Cached entries are stored post-suppression (suppression comments live
    in the same file as the findings they silence, so any edit that could
    change the outcome also changes the hash).  Project-pass rules always
    re-run; parse errors are never cached.
    """
    active = list(rules) if rules is not None else default_rules()
    findings: List[Finding] = []
    modules: List[Module] = []
    for path in collect_files(paths):
        module, parse_finding = parse_module(path)
        if parse_finding is not None:
            findings.append(parse_finding)
        if module is not None:
            modules.append(module)
    by_display = {module.display: module for module in modules}
    for module in modules:
        cached = cache.lookup(module) if cache is not None else None
        if cached is not None:
            findings.extend(cached)
            continue
        per_module: List[Finding] = []
        for rule in active:
            if rule.applies_to(module):
                per_module.extend(rule.check_module(module))
        per_module = [f for f in per_module if not _suppressed(f, by_display)]
        if cache is not None:
            cache.store(module, per_module)
        findings.extend(per_module)
    project = Project(modules)
    project_findings: List[Finding] = []
    for rule in active:
        project_findings.extend(rule.check_project(project))
    findings.extend(
        f for f in project_findings if not _suppressed(f, by_display)
    )
    if cache is not None:
        cache.save(module.display for module in modules)
    return sorted(findings)


# -- small AST helpers shared by rules -----------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def attribute_chain(node: ast.AST) -> List[str]:
    """Name components of an attribute chain (``self.cfg.x`` -> [...])."""
    name = dotted_name(node)
    return name.split(".") if name else []


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted things they import.

    ``import time as _time`` maps ``_time -> time``; ``from time import
    time`` maps ``time -> time.time``.  Used to resolve call targets back
    to their defining module regardless of aliasing.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def resolve_call_target(call: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """Fully-qualified dotted target of ``call`` after alias resolution."""
    name = dotted_name(call.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    resolved_head = aliases.get(head, head)
    return f"{resolved_head}.{rest}" if rest else resolved_head
