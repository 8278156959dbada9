"""The simlint rule engine: module loading, visitor dispatch, suppressions.

Design
------

The engine parses every target file once into a :class:`Module` (source +
AST + suppression table) and hands modules to rules:

- :class:`VisitorRule` — a per-file rule implemented as an
  :class:`ast.NodeVisitor`; the standard ``visit_<NodeType>`` dispatch is
  the rule's pattern-matching mechanism.  Most rules are of this kind.
- :class:`ProjectRule` — a whole-program rule that sees every parsed module
  at once (e.g. the metrics cross-check, which correlates counter
  *registrations* in one file with counter *increments* in all others).

Suppression follows the established lint idiom: a trailing
``# simlint: disable=RULE[,RULE...]`` comment silences matching findings on
that physical line, ``# simlint: disable-next-line=RULE`` (on its own line)
silences them on the following line, ``# simlint: disable`` /
``disable-next-line`` without rules silences every rule, and
``# simlint: disable-file=RULE`` anywhere in a file silences the rule for
the whole file.  Suppressions are honoured *after* rules run so the engine
can still count them.
"""

from __future__ import annotations

import abc
import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from ..common.errors import ReproError
from .finding import Finding, Severity


class LintError(ReproError):
    """The linter itself was misused (bad path, unreadable file, ...)."""


_SUPPRESS_RE = re.compile(
    r"#\s*simlint\s*:\s*(disable-next-line|disable-file|disable)"
    r"\s*(?:=\s*([A-Za-z0-9_,\s]+))?")

#: Wildcard rule id meaning "every rule" in suppression tables.
_ALL = "*"


def _parse_suppressions(
        source: str) -> Tuple[Dict[int, FrozenSet[str]], FrozenSet[str]]:
    """Extract per-line and file-level suppressions from source comments."""
    per_line: Dict[int, FrozenSet[str]] = {}
    file_level: List[str] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        kind, raw_rules = match.group(1), match.group(2)
        rules = (frozenset(r.strip() for r in raw_rules.split(",") if r.strip())
                 if raw_rules else frozenset((_ALL,)))
        if kind == "disable-file":
            file_level.extend(rules)
        else:
            target = lineno + 1 if kind == "disable-next-line" else lineno
            per_line[target] = per_line.get(target, frozenset()) | rules
    return per_line, frozenset(file_level)


@dataclass
class Module:
    """One parsed target file plus its suppression table."""

    path: Path                      # absolute
    rel: str                        # posix-style, relative to the lint root
    source: str
    tree: ast.Module
    line_suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    file_suppressions: FrozenSet[str] = frozenset()
    #: Scratch space rules share within one engine run (e.g. the flow rules
    #: cache per-function CFGs here so F1-F4 build them once, not four times).
    analysis_cache: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path, root: Path) -> "Module":
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as error:
            raise LintError(f"cannot read {path}: {error}") from error
        tree = ast.parse(source, filename=str(path))
        per_line, file_level = _parse_suppressions(source)
        try:
            rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
        return cls(path=path, rel=rel, source=source, tree=tree,
                   line_suppressions=per_line, file_suppressions=file_level)

    def is_suppressed(self, rule: str, line: int) -> bool:
        if _ALL in self.file_suppressions or rule in self.file_suppressions:
            return True
        rules = self.line_suppressions.get(line)
        return rules is not None and (_ALL in rules or rule in rules)


class Rule(abc.ABC):
    """Base class for all simlint rules.

    Subclasses set the class attributes below; ``scope`` restricts a rule to
    files whose relative path contains one of the given package fragments
    (e.g. ``("repro/core",)``), because some invariants only matter in
    simulation code.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""
    severity: Severity = Severity.ERROR
    scope: Optional[Tuple[str, ...]] = None

    def applies_to(self, module: Module) -> bool:
        if self.scope is None:
            return True
        haystack = f"/{module.rel}"
        return any(f"/{fragment}/" in haystack or haystack.endswith(f"/{fragment}")
                   for fragment in self.scope)


class VisitorRule(Rule, ast.NodeVisitor):
    """A per-file rule driven by :class:`ast.NodeVisitor` dispatch.

    Subclasses implement ``visit_<NodeType>`` methods and call
    :meth:`report`; :meth:`begin` runs before the walk for per-module setup
    (import maps, assignment tracking) and :meth:`finish` after it.
    """

    def __init__(self) -> None:
        self._module: Optional[Module] = None
        self._findings: List[Finding] = []

    @property
    def module(self) -> Module:
        assert self._module is not None, "rule used outside check()"
        return self._module

    def begin(self, module: Module) -> None:
        """Per-module setup hook (default: nothing)."""

    def finish(self, module: Module) -> None:
        """Per-module teardown hook (default: nothing)."""

    def report(self, node: ast.AST, message: str,
               severity: Optional[Severity] = None) -> None:
        self._findings.append(Finding(
            rule=self.id, path=self.module.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message, severity=severity or self.severity))

    def check(self, module: Module) -> List[Finding]:
        self._module = module
        self._findings = []
        try:
            self.begin(module)
            self.visit(module.tree)
            self.finish(module)
        finally:
            self._module = None
        return self._findings


@dataclass
class ProjectContext:
    """Shared state of one engine run, handed to every project rule.

    ``cache`` lets expensive whole-program artifacts (the contract rules'
    symbol model) be built once and reused by every rule in the run;
    ``ignore_scope`` mirrors the engine flag so rules that filter paths
    *internally* (beyond the registry-level ``scope``) can honour it too.
    """

    modules: Sequence[Module]
    ignore_scope: bool = False
    cache: Dict[str, Any] = field(default_factory=dict)


class ProjectRule(Rule):
    """A rule that needs to see every module at once.

    The engine sets :attr:`context` before calling :meth:`check_project`;
    rules can pull shared artifacts out of ``context.cache``.
    """

    context: Optional[ProjectContext] = None

    @abc.abstractmethod
    def check_project(self, modules: Sequence[Module]) -> List[Finding]:
        ...


# -- registry ----------------------------------------------------------------

_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.id:
        raise LintError(f"rule {rule_class.__name__} has no id")
    if rule_class.id in _REGISTRY:
        raise LintError(f"duplicate rule id {rule_class.id!r}")
    _REGISTRY[rule_class.id] = rule_class
    return rule_class


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, ordered by id."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def rule_catalog() -> List[Type[Rule]]:
    """The registered rule classes, ordered by id (for ``--list-rules``)."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


# -- engine ------------------------------------------------------------------

@dataclass
class LintReport:
    """Everything one engine run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    parse_errors: int = 0
    #: Suppression counts broken down by file (the incremental cache stores
    #: these per entry so a replayed run reports the same totals).
    suppressed_by_file: Dict[str, int] = field(default_factory=dict)


class LintEngine:
    """Collects files, runs rules, applies suppressions.

    ``ignore_scope`` disables per-rule path scoping; the fixture tests use
    it to exercise scoped rules on files outside ``src/repro``.
    """

    def __init__(self, root: Path, rules: Optional[Sequence[Rule]] = None,
                 ignore_scope: bool = False) -> None:
        self.root = root
        self.rules: List[Rule] = list(rules) if rules is not None \
            else all_rules()
        self.ignore_scope = ignore_scope
        #: Context of the most recent :meth:`run` — the incremental cache
        #: reads the shared call graph out of it to refresh file deps.
        self.last_context: Optional[ProjectContext] = None

    def collect_files(self, paths: Sequence[Path]) -> List[Path]:
        files: List[Path] = []
        for path in paths:
            if path.is_dir():
                files.extend(p for p in sorted(path.rglob("*.py"))
                             if not any(part.startswith(".")
                                        for part in p.parts))
            elif path.is_file():
                files.append(path)
            else:
                raise LintError(f"no such file or directory: {path}")
        # De-duplicate while preserving order.
        seen: Dict[Path, None] = {}
        for file_path in files:
            seen.setdefault(file_path.resolve(), None)
        return list(seen)

    def load_modules(self, paths: Sequence[Path]
                     ) -> Tuple[List[Module], List[Finding]]:
        modules: List[Module] = []
        parse_failures: List[Finding] = []
        for file_path in self.collect_files(paths):
            try:
                modules.append(Module.load(file_path, self.root))
            except SyntaxError as error:
                try:
                    rel = file_path.resolve().relative_to(
                        self.root.resolve()).as_posix()
                except ValueError:
                    rel = file_path.as_posix()
                parse_failures.append(Finding(
                    rule="E000", path=rel, line=error.lineno or 1,
                    col=error.offset or 0,
                    message=f"syntax error: {error.msg}",
                    severity=Severity.ERROR))
        return modules, parse_failures

    def _applies(self, rule: Rule, module: Module) -> bool:
        return self.ignore_scope or rule.applies_to(module)

    def run(self, paths: Sequence[Path],
            restrict: Optional[FrozenSet[str]] = None) -> LintReport:
        """Lint ``paths``; with ``restrict``, report only those rels.

        ``restrict`` is the incremental mode: every file is still parsed
        (project rules need the whole program to resolve calls), but
        per-file rules run only on the restricted modules and project-rule
        findings outside the restriction are dropped — the caller replays
        them from its cache.
        """
        modules, parse_failures = self.load_modules(paths)
        report = LintReport(files_checked=len(modules) + len(parse_failures),
                            parse_errors=len(parse_failures))
        raw: List[Finding] = list(parse_failures)
        by_rel: Dict[str, Module] = {m.rel: m for m in modules}
        context = ProjectContext(modules=modules,
                                 ignore_scope=self.ignore_scope)
        self.last_context = context

        def targeted(module: Module) -> bool:
            return restrict is None or module.rel in restrict

        for rule in self.rules:
            if isinstance(rule, ProjectRule):
                scoped = [m for m in modules if self._applies(rule, m)]
                rule.context = context
                raw.extend(rule.check_project(scoped))
            elif isinstance(rule, VisitorRule):
                for module in modules:
                    if targeted(module) and self._applies(rule, module):
                        raw.extend(rule.check(module))
            else:   # pragma: no cover - registry enforces the two kinds
                raise LintError(f"rule {rule.id} is neither visitor nor project")

        for finding in raw:
            if restrict is not None and finding.path not in restrict:
                continue
            module = by_rel.get(finding.path)
            if module is not None and module.is_suppressed(finding.rule,
                                                           finding.line):
                report.suppressed += 1
                report.suppressed_by_file[finding.path] = \
                    report.suppressed_by_file.get(finding.path, 0) + 1
            else:
                report.findings.append(finding)
        report.findings.sort(key=Finding.sort_key)
        return report


def iter_dotted(node: ast.AST) -> Iterator[str]:
    """Yield attribute-chain segments of ``a.b.c`` outermost-last; empty if
    the expression is not a pure name/attribute chain."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        yield from reversed(parts)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure name/attribute chain, else ``None``."""
    parts = list(iter_dotted(node))
    return ".".join(parts) if parts else None


class ImportMap:
    """Resolves local names to canonical dotted module paths.

    ``import numpy as np`` maps ``np`` -> ``numpy``; ``from random import
    randint`` maps ``randint`` -> ``random.randint``.  :meth:`canonical`
    rewrites a call target like ``np.random.rand`` to ``numpy.random.rand``
    so rules can match on stable, alias-free names.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.module_aliases: Dict[str, str] = {}
        self.member_aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self.module_aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.member_aliases[local] = f"{node.module}.{alias.name}"

    def canonical(self, node: ast.AST) -> Optional[str]:
        parts = list(iter_dotted(node))
        if not parts:
            return None
        head, rest = parts[0], parts[1:]
        if head in self.module_aliases:
            return ".".join([self.module_aliases[head]] + rest)
        if head in self.member_aliases:
            return ".".join([self.member_aliases[head]] + rest)
        return None


def module_imports(module: Module) -> ImportMap:
    """The module's :class:`ImportMap`, built once per engine run and
    shared by every rule through ``Module.analysis_cache``."""
    imports = module.analysis_cache.get("imports")
    if imports is None:
        imports = ImportMap(module.tree)
        module.analysis_cache["imports"] = imports
    result: ImportMap = imports
    return result


def is_builtin_call(node: ast.Call, names: Iterable[str],
                    imports: Optional[ImportMap] = None) -> bool:
    """True when ``node`` calls one of the given builtins by bare name.

    A bare name shadowed by an import (``from numpy import sum``) does not
    count when an :class:`ImportMap` is supplied.
    """
    if not isinstance(node.func, ast.Name):
        return False
    if imports is not None and (node.func.id in imports.module_aliases or
                                node.func.id in imports.member_aliases):
        return False
    return node.func.id in set(names)
