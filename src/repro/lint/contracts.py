"""Whole-program contract rules (the X family) and their symbol model.

The paper's numbers are only as good as the bookkeeping contracts between
layers: counters incremented deep in the simulator must surface in
:class:`SimulationResult` or ``supply_counters()``; telemetry events must
stay on the declared taxonomy; config reads must name real config fields.
Each of those is a *cross-module* invariant, so these rules are
:class:`ProjectRule` subclasses sharing one :class:`SymbolModel` — built in
a single walk over every module and cached on the engine run's
:class:`ProjectContext` so three rules pay for one analysis.

Rules:

- **X1** — counter bookkeeping: every ``self.<attr> += ...`` in the counter
  packages must be *read* somewhere in the linted tree (a write-only counter
  can never reach a result or comparison surface), and the static keys of
  every ``supply_counters()`` implementation must be covered by every other
  implementation's surface (static keys, dynamic-key prefixes, or an opaque
  ``.update(...)`` that makes a surface unenumerable and therefore exempt).
- **X2** — telemetry taxonomy: ``.emit(...)`` first arguments must be
  declared ``EventKind`` members; every member must be emitted somewhere
  (waivable with ``# simlint: disable=X2`` on its declaration line); the
  ``KIND_CATEGORY`` table must cover the members exactly.
- **X3** — config-field existence: every ``<config-typed expr>.field`` read
  in simulation packages must name a field, property, or method of the
  config dataclass, following annotations through nested config fields.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .engine import Module, ProjectRule, dotted_name, iter_dotted, register
from .finding import Finding
from .rules import SIMULATION_SCOPE

#: Packages whose ``self.<attr> +=`` statements are treated as counters:
#: every simulation package plus the back-end and the power model.
COUNTER_SCOPE: Tuple[str, ...] = SIMULATION_SCOPE + (
    "repro/backend", "repro/power")

#: Packages whose config reads X3 checks (simulation code plus the layers
#: that consume configs the same way).
CONFIG_READ_SCOPE: Tuple[str, ...] = SIMULATION_SCOPE + (
    "repro/oracle", "repro/telemetry")

_EVENT_ENUM = "EventKind"
_CATEGORY_TABLE = "KIND_CATEGORY"
_SURFACE_METHOD = "supply_counters"


def _in_scope(rel: str, fragments: Tuple[str, ...]) -> bool:
    haystack = f"/{rel}"
    return any(f"/{fragment}/" in haystack or
               haystack.endswith(f"/{fragment}")
               for fragment in fragments)


# -- the symbol model --------------------------------------------------------

@dataclass
class ConfigClassInfo:
    """One ``*Config`` dataclass: its fields and their (config) types."""

    name: str
    module_rel: str
    node: ast.ClassDef
    #: field -> annotation's trailing type name ("UopCacheConfig", "int"...)
    fields: Dict[str, Optional[str]] = field(default_factory=dict)
    #: every legal attribute: fields + properties + methods + class consts.
    members: Set[str] = field(default_factory=set)


@dataclass
class CounterSurface:
    """The comparison surface of one ``supply_counters`` implementation."""

    module_rel: str
    qualname: str
    node: ast.FunctionDef
    static_keys: Dict[str, int] = field(default_factory=dict)  # key -> line
    prefixes: Set[str] = field(default_factory=set)
    #: an opaque ``.update(...)`` makes the surface unenumerable.
    open_surface: bool = False

    def covers(self, key: str) -> bool:
        return key in self.static_keys or \
            any(key.startswith(prefix) for prefix in self.prefixes if prefix)


@dataclass
class EventModel:
    """The declared EventKind taxonomy and its category table."""

    module_rel: str
    members: Dict[str, int] = field(default_factory=dict)   # name -> line
    category_members: Dict[str, int] = field(default_factory=dict)
    category_table_line: int = 1


@dataclass
class EmitSite:
    """One ``<expr>.emit(...)`` call."""

    module_rel: str
    call: ast.Call
    #: the EventKind member name when the first arg is a literal, else None.
    member: Optional[str] = None
    resolvable: bool = False


@dataclass
class CounterIncrement:
    """One ``self.<attr> += ...`` statement."""

    module_rel: str
    attr: str
    node: ast.AST


@dataclass
class SymbolModel:
    """Everything the X rules need, built in one walk per module."""

    config_classes: Dict[str, ConfigClassInfo] = field(default_factory=dict)
    surfaces: List[CounterSurface] = field(default_factory=list)
    events: Optional[EventModel] = None
    emit_sites: List[EmitSite] = field(default_factory=list)
    increments: List[CounterIncrement] = field(default_factory=list)
    #: every attribute name read (Load context) anywhere in the tree.
    attribute_reads: Set[str] = field(default_factory=set)


def _annotation_type(annotation: Optional[ast.AST]) -> Optional[str]:
    """Trailing type name of an annotation; unwraps Optional[...] and
    string annotations.  Returns None when the shape is not a plain name."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and \
            isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.Subscript):
        head = dotted_name(annotation.value)
        if head is not None and head.split(".")[-1] == "Optional":
            return _annotation_type(annotation.slice)
        return None
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    return None


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = dotted_name(target)
        if name is not None and name.split(".")[-1] == "dataclass":
            return True
    return False


def _scan_config_class(node: ast.ClassDef, rel: str) -> ConfigClassInfo:
    info = ConfigClassInfo(name=node.name, module_rel=rel, node=node)
    for statement in node.body:
        if isinstance(statement, ast.AnnAssign) and \
                isinstance(statement.target, ast.Name):
            info.fields[statement.target.id] = \
                _annotation_type(statement.annotation)
            info.members.add(statement.target.id)
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.members.add(statement.name)
        elif isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    info.members.add(target.id)
    return info


def _scan_surface(node: ast.FunctionDef, rel: str,
                  qualname: str) -> CounterSurface:
    surface = CounterSurface(module_rel=rel, qualname=qualname, node=node)
    for child in ast.walk(node):
        if isinstance(child, ast.Dict):
            for key in child.keys:
                if isinstance(key, ast.Constant) and \
                        isinstance(key.value, str):
                    surface.static_keys.setdefault(key.value, key.lineno)
        elif isinstance(child, (ast.Assign, ast.AugAssign)):
            targets = child.targets if isinstance(child, ast.Assign) \
                else [child.target]
            for target in targets:
                if not isinstance(target, ast.Subscript):
                    continue
                key = target.slice
                if isinstance(key, ast.Constant) and \
                        isinstance(key.value, str):
                    surface.static_keys.setdefault(key.value, target.lineno)
                elif isinstance(key, ast.JoinedStr):
                    prefix = ""
                    for part in key.values:
                        if isinstance(part, ast.Constant) and \
                                isinstance(part.value, str):
                            prefix = part.value
                        break
                    if prefix:
                        surface.prefixes.add(prefix)
                    else:
                        surface.open_surface = True
                else:
                    surface.open_surface = True
        elif isinstance(child, ast.Call) and \
                isinstance(child.func, ast.Attribute) and \
                child.func.attr == "update":
            surface.open_surface = True
    return surface


def _scan_event_model(node: ast.ClassDef, rel: str) -> EventModel:
    model = EventModel(module_rel=rel)
    for statement in node.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    model.members[target.id] = statement.lineno
        elif isinstance(statement, ast.AnnAssign) and \
                isinstance(statement.target, ast.Name) and \
                statement.value is not None:
            model.members[statement.target.id] = statement.lineno
    return model


def _scan_category_table(value: ast.AST, model: EventModel) -> None:
    if not isinstance(value, ast.Dict):
        return
    for key in value.keys:
        if key is None:
            continue
        parts = list(iter_dotted(key))
        if len(parts) >= 2 and parts[-2] == _EVENT_ENUM:
            model.category_members[parts[-1]] = key.lineno


def _event_member_of(node: ast.AST) -> Tuple[Optional[str], bool]:
    """(member name, resolvable): resolvable is False when the expression is
    not a dotted chain through EventKind (a variable, a call, ...)."""
    parts = list(iter_dotted(node))
    if len(parts) >= 2 and parts[-2] == _EVENT_ENUM:
        return parts[-1], True
    return None, False


def build_symbol_model(modules: Sequence[Module]) -> SymbolModel:
    """One walk over every module; everything the X rules consume."""
    model = SymbolModel()
    for module in modules:
        class_stack: List[str] = []

        def scan(node: ast.AST, qual: str, current: Module = module) -> None:
            rel = current.rel
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    if child.name.endswith("Config") and _is_dataclass(child):
                        info = _scan_config_class(child, rel)
                        model.config_classes.setdefault(child.name, info)
                    if child.name == _EVENT_ENUM and model.events is None:
                        model.events = _scan_event_model(child, rel)
                    scan(child, child.name)
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    if child.name == _SURFACE_METHOD and \
                            isinstance(child, ast.FunctionDef):
                        qualname = f"{qual}.{child.name}" if qual \
                            else child.name
                        model.surfaces.append(
                            _scan_surface(child, rel, qualname))
                    scan(child, qual)
                else:
                    scan(child, qual)

        scan(module.tree, "")
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                model.attribute_reads.add(node.attr)
            elif isinstance(node, ast.AugAssign) and \
                    isinstance(node.op, ast.Add) and \
                    isinstance(node.target, ast.Attribute) and \
                    isinstance(node.target.value, ast.Name) and \
                    node.target.value.id == "self":
                model.increments.append(CounterIncrement(
                    module_rel=module.rel, attr=node.target.attr, node=node))
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "emit" and node.args:
                member, resolvable = _event_member_of(node.args[0])
                model.emit_sites.append(EmitSite(
                    module_rel=module.rel, call=node, member=member,
                    resolvable=resolvable))
            elif isinstance(node, ast.Assign) and model.events is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name) and \
                            target.id == _CATEGORY_TABLE:
                        _scan_category_table(node.value, model.events)
            elif isinstance(node, ast.AnnAssign) and \
                    model.events is not None and \
                    isinstance(node.target, ast.Name) and \
                    node.target.id == _CATEGORY_TABLE and \
                    node.value is not None:
                _scan_category_table(node.value, model.events)
    return model


class ContractRule(ProjectRule):
    """Base: X rules share the cached symbol model of the engine run."""

    _CACHE_KEY = "contracts:symbol_model"

    def symbol_model(self, modules: Sequence[Module]) -> SymbolModel:
        if self.context is None:
            return build_symbol_model(modules)
        model = self.context.cache.get(self._CACHE_KEY)
        if model is None:
            model = build_symbol_model(self.context.modules)
            self.context.cache[self._CACHE_KEY] = model
        cached: SymbolModel = model
        return cached

    def in_scope(self, rel: str, fragments: Tuple[str, ...]) -> bool:
        if self.context is not None and self.context.ignore_scope:
            return True
        return _in_scope(rel, fragments)


# -- X1: counter bookkeeping -------------------------------------------------

@register
class CounterContractRule(ContractRule):
    """X1: write-only counters and supply_counters() surface parity."""

    id = "X1"
    title = "counter incremented but never surfaced"
    rationale = ("A counter that is incremented but never read can reach "
                 "neither SimulationResult nor a supply_counters() "
                 "comparison surface — the measurement silently vanishes; "
                 "and a key one supply_counters() exposes that its peer "
                 "cannot produce makes the differential oracle compare "
                 "against a hole.")

    def check_project(self, modules: Sequence[Module]) -> List[Finding]:
        model = self.symbol_model(modules)
        findings: List[Finding] = []

        for increment in model.increments:
            if not self.in_scope(increment.module_rel, COUNTER_SCOPE):
                continue
            if increment.attr not in model.attribute_reads:
                findings.append(Finding(
                    rule=self.id, path=increment.module_rel,
                    line=getattr(increment.node, "lineno", 1),
                    col=getattr(increment.node, "col_offset", 0),
                    severity=self.severity,
                    message=f"counter self.{increment.attr} is incremented "
                            "but never read anywhere in the linted tree; "
                            "surface it in SimulationResult or "
                            "supply_counters(), or delete it"))

        for surface in model.surfaces:
            for peer in model.surfaces:
                if peer is surface or peer.open_surface:
                    continue
                for key, lineno in sorted(surface.static_keys.items()):
                    if not peer.covers(key):
                        findings.append(Finding(
                            rule=self.id, path=surface.module_rel,
                            line=lineno, col=0, severity=self.severity,
                            message=f"counter key {key!r} exposed by "
                                    f"{surface.qualname} is not covered by "
                                    f"{peer.qualname} "
                                    f"({peer.module_rel}); the differential "
                                    "comparison surface has a hole"))
        return findings


# -- X2: telemetry taxonomy --------------------------------------------------

@register
class TelemetryTaxonomyRule(ContractRule):
    """X2: emit sites vs the declared EventKind taxonomy."""

    id = "X2"
    title = "telemetry event off the declared taxonomy"
    rationale = ("Sinks, the replay cross-check, and the category filter "
                 "all dispatch on EventKind; an emit of an undeclared kind "
                 "crashes or silently misfiles, a declared-but-never-"
                 "emitted kind is a taxonomy entry consumers wait on "
                 "forever, and a KIND_CATEGORY gap breaks filtering.")

    def check_project(self, modules: Sequence[Module]) -> List[Finding]:
        model = self.symbol_model(modules)
        events = model.events
        if events is None:
            return []
        findings: List[Finding] = []

        emitted: Set[str] = set()
        for site in model.emit_sites:
            if site.member is not None:
                emitted.add(site.member)
                if site.member not in events.members:
                    findings.append(Finding(
                        rule=self.id, path=site.module_rel,
                        line=site.call.lineno, col=site.call.col_offset,
                        severity=self.severity,
                        message=f"emit of EventKind.{site.member}: not a "
                                f"declared {_EVENT_ENUM} member "
                                f"({events.module_rel})"))

        for member, lineno in sorted(events.members.items()):
            if member not in emitted:
                findings.append(Finding(
                    rule=self.id, path=events.module_rel, line=lineno, col=4,
                    severity=self.severity,
                    message=f"{_EVENT_ENUM}.{member} is declared but no "
                            "module emits it; emit it or waive it with a "
                            "'# simlint: disable=X2' on the declaration"))
            if events.category_members and \
                    member not in events.category_members:
                findings.append(Finding(
                    rule=self.id, path=events.module_rel, line=lineno, col=4,
                    severity=self.severity,
                    message=f"{_EVENT_ENUM}.{member} has no "
                            f"{_CATEGORY_TABLE} entry; category filtering "
                            "drops its events"))
        for member, lineno in sorted(events.category_members.items()):
            if member not in events.members:
                findings.append(Finding(
                    rule=self.id, path=events.module_rel, line=lineno, col=4,
                    severity=self.severity,
                    message=f"{_CATEGORY_TABLE} references "
                            f"{_EVENT_ENUM}.{member}, which is not a "
                            "declared member"))
        return findings


# -- X3: config-field existence ----------------------------------------------

class _TypeEnv:
    """Name -> config-class map of one scope, flow-insensitively inferred.

    A name assigned two different resolvable types, or one resolvable and
    one opaque value, is *poisoned* and never checked — simlint only
    reports what it can prove.
    """

    def __init__(self, classes: Dict[str, ConfigClassInfo]) -> None:
        self._classes = classes
        self._types: Dict[str, str] = {}
        self._poisoned: Set[str] = set()

    def bind(self, name: str, type_name: Optional[str]) -> None:
        if name in self._poisoned:
            return
        if type_name is None:
            if name in self._types:
                del self._types[name]
                self._poisoned.add(name)
            return
        if self._types.get(name, type_name) != type_name:
            del self._types[name]
            self._poisoned.add(name)
            return
        self._types[name] = type_name

    def lookup(self, name: str) -> Optional[str]:
        return self._types.get(name)

    def resolve(self, node: ast.AST,
                self_attrs: Dict[str, str]) -> Optional[str]:
        """Config class of an expression, or None if unprovable."""
        if isinstance(node, ast.Name):
            return self.lookup(node.id)
        if isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            if callee is not None and \
                    callee.split(".")[-1] in self._classes:
                return callee.split(".")[-1]
            return None
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            for operand in node.values:
                resolved = self.resolve(operand, self_attrs)
                if resolved is not None:
                    return resolved
            return None
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return self_attrs.get(node.attr)
            base = self.resolve(node.value, self_attrs)
            if base is None:
                return None
            info = self._classes.get(base)
            if info is None:
                return None
            field_type = info.fields.get(node.attr)
            if field_type is not None and field_type in self._classes:
                return field_type
            return None
        return None


def _own_statements(func: ast.AST) -> List[ast.AST]:
    """Every node of a scope excluding nested function/class bodies."""
    out: List[ast.AST] = []
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        out.append(node)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return out


@register
class ConfigFieldRule(ContractRule):
    """X3: reads of nonexistent config dataclass fields."""

    id = "X3"
    title = "read of a nonexistent config field"
    rationale = ("Frozen config dataclasses raise AttributeError on a "
                 "mistyped field only when the branch executes — which for "
                 "rare config combinations means deep into a sweep. "
                 "Resolving annotated config types statically catches the "
                 "typo at lint time.")

    def check_project(self, modules: Sequence[Module]) -> List[Finding]:
        model = self.symbol_model(modules)
        if not model.config_classes:
            return []
        findings: List[Finding] = []
        for module in modules:
            if not self.in_scope(module.rel, CONFIG_READ_SCOPE):
                continue
            findings.extend(self._check_module(module, model))
        return findings

    def _check_module(self, module: Module,
                      model: SymbolModel) -> List[Finding]:
        findings: List[Finding] = []
        for class_node, functions in self._scopes(module.tree):
            self_attrs = self._self_attr_types(class_node, model) \
                if class_node is not None else {}
            for func in functions:
                findings.extend(self._check_scope(
                    module, func, model, self_attrs))
        return findings

    def _scopes(self, tree: ast.Module) -> List[
            Tuple[Optional[ast.ClassDef], List[ast.AST]]]:
        """(owning class, scopes) pairs: module body, free functions, and
        every method grouped under its class."""
        out: List[Tuple[Optional[ast.ClassDef], List[ast.AST]]] = []
        free: List[ast.AST] = [tree]
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods: List[ast.AST] = [
                    child for child in ast.walk(node)
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))]
                out.append((node, methods))
        class_functions = {id(func) for _, funcs in out for func in funcs}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and id(node) not in class_functions:
                free.append(node)
        out.append((None, free))
        return out

    def _self_attr_types(self, class_node: ast.ClassDef,
                         model: SymbolModel) -> Dict[str, str]:
        """``self.<attr>`` -> config class, from class-level annotations and
        ``self.x = <config-typed>`` stores in methods."""
        attrs: Dict[str, str] = {}
        poisoned: Set[str] = set()

        def record(name: str, type_name: Optional[str]) -> None:
            if name in poisoned:
                return
            if type_name is None:
                if name in attrs:
                    del attrs[name]
                poisoned.add(name)
                return
            if attrs.get(name, type_name) != type_name:
                del attrs[name]
                poisoned.add(name)
                return
            attrs[name] = type_name

        for statement in class_node.body:
            if isinstance(statement, ast.AnnAssign) and \
                    isinstance(statement.target, ast.Name):
                annotated = _annotation_type(statement.annotation)
                if annotated in model.config_classes:
                    record(statement.target.id, annotated)

        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            env = self._param_env(method, model)
            for node in sorted(
                    (n for n in _own_statements(method)
                     if isinstance(n, ast.Assign)),
                    key=lambda n: n.lineno):
                value_type = env.resolve(node.value, attrs)
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and \
                            isinstance(target.value, ast.Name) and \
                            target.value.id == "self":
                        record(target.attr, value_type)
        return attrs

    def _param_env(self, func: ast.AST, model: SymbolModel) -> _TypeEnv:
        env = _TypeEnv(model.config_classes)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = func.args
            for arg in (list(getattr(args, "posonlyargs", [])) + args.args +
                        args.kwonlyargs):
                annotated = _annotation_type(arg.annotation)
                if annotated in model.config_classes:
                    env.bind(arg.arg, annotated)
        return env

    def _check_scope(self, module: Module, func: ast.AST, model: SymbolModel,
                     self_attrs: Dict[str, str]) -> List[Finding]:
        env = self._param_env(func, model)
        own = _own_statements(func)
        for node in sorted((n for n in own
                            if isinstance(n, (ast.Assign, ast.AnnAssign))),
                           key=lambda n: n.lineno):
            if isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    annotated = _annotation_type(node.annotation)
                    if annotated in model.config_classes:
                        env.bind(node.target.id, annotated)
                continue
            value_type = env.resolve(node.value, self_attrs)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    env.bind(target.id, value_type)

        findings: List[Finding] = []
        for node in own:
            if not (isinstance(node, ast.Attribute) and
                    isinstance(node.ctx, ast.Load)):
                continue
            base_type = env.resolve(node.value, self_attrs)
            if base_type is None:
                continue
            info = model.config_classes.get(base_type)
            if info is None or node.attr.startswith("__"):
                continue
            if node.attr not in info.members:
                findings.append(Finding(
                    rule=self.id, path=module.rel, line=node.lineno,
                    col=node.col_offset, severity=self.severity,
                    message=f"read of .{node.attr} on a {base_type} "
                            f"value: {base_type} "
                            f"({info.module_rel}) has no such field, "
                            "property, or method"))
        return findings
