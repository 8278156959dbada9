"""The simlint rule set: determinism (D*) and correctness (C*) rules.

Each rule encodes one invariant the simulator's reproducibility story
depends on (see DESIGN.md §9).  The determinism rules exist because the
sweep runner promises bit-identical aggregate tables across serial,
parallel, and resumed executions — a promise that a single unseeded RNG
call, wall-clock read, or hash-ordered set iteration silently breaks.
The correctness rules catch the patterns that have historically produced
quietly-wrong simulator statistics: dead counters, post-validation config
mutation, shared mutable defaults, and swallowed simulation errors.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .engine import (
    ImportMap,
    Module,
    ProjectRule,
    VisitorRule,
    dotted_name,
    is_builtin_call,
    module_imports,
    register,
)
from .finding import Finding, Severity

#: Packages whose code runs *inside* a simulation (set-iteration order there
#: changes simulated event order, not just output formatting).
SIMULATION_SCOPE: Tuple[str, ...] = (
    "repro/core", "repro/uopcache", "repro/frontend",
    "repro/branch", "repro/caches",
)


class SetTracker:
    """Tracks names (including ``self.x`` attributes) bound to sets.

    Purely name-based: a name ever assigned a set literal, ``set(...)`` /
    ``frozenset(...)`` call, or set comprehension is considered set-typed
    for the whole module.  That is deliberately conservative in both
    directions — simlint prefers explainable findings over type inference.
    """

    def __init__(self, tree: ast.Module, imports: ImportMap) -> None:
        self._imports = imports
        self.names: Set[str] = set()
        for node in ast.walk(tree):
            value: Optional[ast.AST] = None
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            if value is None or not self._is_set_literal(value):
                continue
            for target in targets:
                name = dotted_name(target)
                if name:
                    self.names.add(name)

    def _is_set_literal(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return is_builtin_call(node, ("set", "frozenset"), self._imports)
        return False

    def is_setish(self, node: ast.AST) -> bool:
        if self._is_set_literal(node):
            return True
        name = dotted_name(node)
        return name is not None and name in self.names


#: Builtins that consume an iterable in an order-insensitive way.
_ORDER_INSENSITIVE_CONSUMERS = ("sorted", "min", "max", "len", "sum",
                                "any", "all", "set", "frozenset")


@register
class UnseededRandomRule(VisitorRule):
    """D1: module-level ``random.*`` / ``numpy.random.*`` calls."""

    id = "D1"
    title = "unseeded module-level RNG call"
    rationale = ("Module-level RNG state is shared, unseeded by default, and "
                 "invisible to the sweep runner's --seed plumbing; every "
                 "random draw must come from an explicitly seeded "
                 "random.Random or numpy Generator instance.")

    _ALLOWED_RANDOM = ("random.Random",)
    _NUMPY_SEEDED_FACTORIES = ("numpy.random.default_rng",
                               "numpy.random.Generator",
                               "numpy.random.RandomState",
                               "numpy.random.SeedSequence")

    def begin(self, module: Module) -> None:
        self._imports = module_imports(module)

    def visit_Call(self, node: ast.Call) -> None:
        canonical = self._imports.canonical(node.func)
        if canonical is not None:
            if canonical.startswith("random.") and \
                    canonical not in self._ALLOWED_RANDOM:
                self.report(node, f"call to {canonical}() uses the shared "
                                  "module-level RNG; draw from a seeded "
                                  "random.Random instance instead")
            elif canonical in self._NUMPY_SEEDED_FACTORIES:
                if not node.args and not node.keywords:
                    self.report(node, f"{canonical}() constructed without a "
                                      "seed; pass an explicit seed")
            elif canonical.startswith("numpy.random."):
                self.report(node, f"call to {canonical}() uses numpy's "
                                  "global RNG state; use a seeded "
                                  "numpy.random.default_rng(seed) generator")
        self.generic_visit(node)


@register
class SetIterationRule(VisitorRule):
    """D2: iteration over sets in simulation packages."""

    id = "D2"
    title = "hash-ordered set iteration in simulation code"
    rationale = ("Set iteration order depends on insertion history and, for "
                 "str keys, on the per-process hash seed; iterating one in "
                 "a simulation hot path reorders simulated events between "
                 "runs.  Iterate sorted(...) or an ordered container.")
    scope = SIMULATION_SCOPE

    def begin(self, module: Module) -> None:
        self._imports = module_imports(module)
        self._sets = SetTracker(module.tree, self._imports)
        self._exempt: Set[int] = set()

    def _flag(self, node: ast.AST, source: ast.AST, context: str) -> None:
        if id(node) in self._exempt:
            return
        label = dotted_name(source) or "a set expression"
        self.report(node, f"{context} iterates {label!r} in set order; "
                          "wrap it in sorted(...) to fix the event order")

    def visit_Call(self, node: ast.Call) -> None:
        if is_builtin_call(node, _ORDER_INSENSITIVE_CONSUMERS, self._imports):
            for arg in node.args:
                self._exempt.add(id(arg))
        elif is_builtin_call(node, ("list", "tuple"), self._imports) and \
                len(node.args) == 1 and id(node) not in self._exempt and \
                self._sets.is_setish(node.args[0]):
            self._flag(node, node.args[0], "list/tuple conversion")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self._sets.is_setish(node.iter):
            self._flag(node, node.iter, "for loop")
        self.generic_visit(node)

    def _check_comprehension(self, node: ast.AST,
                             generators: Sequence[ast.comprehension],
                             context: str) -> None:
        if id(node) not in self._exempt:
            for generator in generators:
                if self._sets.is_setish(generator.iter):
                    self._flag(node, generator.iter, context)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node, node.generators, "list comprehension")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node, node.generators, "dict comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node, node.generators, "generator expression")


@register
class WallClockRule(VisitorRule):
    """D3: wall-clock / OS-entropy reads in simulation code."""

    id = "D3"
    title = "wall-clock or OS-entropy dependence"
    rationale = ("time.time/datetime.now/os.urandom make a run depend on "
                 "when and where it executed; simulated time must come from "
                 "the simulator's own cycle counters.  time.monotonic and "
                 "time.perf_counter stay allowed for runner timeouts because "
                 "they never feed simulation state.")

    _BANNED = {
        "time.time": "simulated time must come from cycle counters",
        "time.time_ns": "simulated time must come from cycle counters",
        "datetime.datetime.now": "wall-clock timestamps are not reproducible",
        "datetime.datetime.utcnow": "wall-clock timestamps are not reproducible",
        "datetime.datetime.today": "wall-clock timestamps are not reproducible",
        "datetime.date.today": "wall-clock timestamps are not reproducible",
        "os.urandom": "OS entropy is unseedable",
        "uuid.uuid1": "uuid1 mixes in clock and host state",
        "uuid.uuid4": "uuid4 draws OS entropy",
    }

    def begin(self, module: Module) -> None:
        self._imports = module_imports(module)

    def visit_Call(self, node: ast.Call) -> None:
        canonical = self._imports.canonical(node.func)
        if canonical in self._BANNED:
            self.report(node, f"call to {canonical}(): "
                              f"{self._BANNED[canonical]}")
        self.generic_visit(node)


@register
class MetricsRegistrationRule(ProjectRule):
    """C1: SimulationResult counters must be written, and writes registered."""

    id = "C1"
    title = "metrics registration/increment cross-check"
    rationale = ("A counter field declared on SimulationResult but never "
                 "assigned anywhere reports a silent 0 forever; a store to "
                 "a result attribute that is not a declared field is a typo "
                 "that drops the measurement on the floor.")

    _RESULT_CLASS = "SimulationResult"
    #: Variable names treated as SimulationResult instances for the
    #: unknown-attribute direction of the check.
    _RESULT_NAMES = ("result",)

    def check_project(self, modules: Sequence[Module]) -> List[Finding]:
        declaration = self._find_declaration(modules)
        if declaration is None:
            return []
        defining, class_node = declaration
        counter_lines: Dict[str, int] = {}
        known_attrs: Set[str] = set()
        for statement in class_node.body:
            if isinstance(statement, ast.AnnAssign) and \
                    isinstance(statement.target, ast.Name):
                known_attrs.add(statement.target.id)
                annotation = statement.annotation
                if isinstance(annotation, ast.Name) and annotation.id == "int":
                    counter_lines[statement.target.id] = statement.lineno
            elif isinstance(statement, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                known_attrs.add(statement.name)

        findings: List[Finding] = []
        stored_attrs: Set[str] = set()
        for module in modules:
            if module.rel == defining.rel:
                continue
            for target, node in self._attribute_stores(module.tree):
                stored_attrs.add(target.attr)
                base = dotted_name(target.value)
                if base in self._RESULT_NAMES and \
                        target.attr not in known_attrs:
                    findings.append(Finding(
                        rule=self.id, path=module.rel, line=node.lineno,
                        col=node.col_offset, severity=self.severity,
                        message=f"store to {base}.{target.attr}: not a "
                                f"declared {self._RESULT_CLASS} field "
                                "(typo or unregistered counter)"))
            for call in self._constructor_calls(module.tree):
                stored_attrs.update(keyword.arg for keyword in call.keywords
                                    if keyword.arg is not None)

        for name, lineno in sorted(counter_lines.items()):
            if name not in stored_attrs:
                findings.append(Finding(
                    rule=self.id, path=defining.rel, line=lineno, col=4,
                    severity=self.severity,
                    message=f"counter {self._RESULT_CLASS}.{name} is "
                            "registered but never assigned or incremented "
                            "by any simulation module"))
        return findings

    def _find_declaration(self, modules: Sequence[Module]
                          ) -> Optional[Tuple[Module, ast.ClassDef]]:
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and \
                        node.name == self._RESULT_CLASS:
                    return module, node
        return None

    @staticmethod
    def _attribute_stores(tree: ast.Module
                          ) -> List[Tuple[ast.Attribute, ast.stmt]]:
        stores: List[Tuple[ast.Attribute, ast.stmt]] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        stores.append((target, node))
            elif isinstance(node, ast.AugAssign) and \
                    isinstance(node.target, ast.Attribute):
                stores.append((node.target, node))
        return stores

    def _constructor_calls(self, tree: ast.Module) -> List[ast.Call]:
        calls: List[ast.Call] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is not None and \
                        name.split(".")[-1] == self._RESULT_CLASS:
                    calls.append(node)
        return calls


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = dotted_name(target)
        if name is not None and name.split(".")[-1] == "dataclass":
            return True
    return False


@register
class PostInitMutationRule(VisitorRule):
    """C2: dataclass fields validated in __post_init__ mutated later."""

    id = "C2"
    title = "validated dataclass field mutated after __post_init__"
    rationale = ("__post_init__ validation (ConfigError et al.) only holds "
                 "at construction time; mutating a validated field afterwards "
                 "reintroduces exactly the inconsistent states the validator "
                 "exists to reject.  Use dataclasses.replace to derive a "
                 "fresh, re-validated instance.")

    _ALLOWED_METHODS = ("__init__", "__post_init__", "__new__")

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if _is_dataclass_decorated(node):
            field_names = {
                statement.target.id for statement in node.body
                if isinstance(statement, ast.AnnAssign) and
                isinstance(statement.target, ast.Name)}
            has_post_init = any(
                isinstance(statement, ast.FunctionDef) and
                statement.name == "__post_init__" for statement in node.body)
            if has_post_init and field_names:
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and \
                            method.name not in self._ALLOWED_METHODS:
                        self._check_method(method, field_names)
        self.generic_visit(node)

    def _check_method(self, method: ast.FunctionDef,
                      field_names: Set[str]) -> None:
        for node in ast.walk(method):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id == "self" and \
                        target.attr in field_names:
                    self.report(node, f"field {target.attr!r} is validated "
                                      f"in __post_init__ but mutated in "
                                      f"{method.name}(); use "
                                      "dataclasses.replace instead")
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name == "object.__setattr__" and len(node.args) >= 2 and \
                        isinstance(node.args[0], ast.Name) and \
                        node.args[0].id == "self" and \
                        isinstance(node.args[1], ast.Constant) and \
                        node.args[1].value in field_names:
                    self.report(node, f"field {node.args[1].value!r} is "
                                      "mutated via object.__setattr__ after "
                                      "__post_init__ validation")


@register
class MutableDefaultRule(VisitorRule):
    """C3: mutable default argument values."""

    id = "C3"
    title = "mutable default argument"
    rationale = ("A mutable default is created once and shared across every "
                 "call; state leaking between simulations through a default "
                 "list/dict/set produces run-order-dependent results.")

    _MUTABLE_CALLS = ("list", "dict", "set", "bytearray", "defaultdict",
                      "OrderedDict", "Counter", "deque")

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name is not None and \
                name.split(".")[-1] in self._MUTABLE_CALLS
        return False

    def _check_defaults(self, node: ast.AST, args: ast.arguments) -> None:
        defaults: List[Optional[ast.expr]] = list(args.defaults)
        defaults.extend(args.kw_defaults)
        for default in defaults:
            if default is not None and self._is_mutable(default):
                self.report(default, "mutable default argument is shared "
                                     "across calls; default to None and "
                                     "create the container in the body")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node, node.args)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node, node.args)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node, node.args)
        self.generic_visit(node)


@register
class ExceptionHygieneRule(VisitorRule):
    """C4: bare except clauses and silently swallowed broad exceptions."""

    id = "C4"
    title = "bare except / swallowed simulation error"
    rationale = ("A bare except catches KeyboardInterrupt and SystemExit; a "
                 "pass-only handler for SimulationError (or broader) hides "
                 "the exact invariant violations the strict-mode checker "
                 "raises, turning a loud failure into silently wrong tables.")

    _BROAD = ("Exception", "BaseException", "ReproError", "SimulationError")

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(node, "bare 'except:' catches SystemExit and "
                              "KeyboardInterrupt; name the exception types")
        elif self._swallows(node.body):
            for caught in self._caught_names(node.type):
                if caught in self._BROAD:
                    self.report(node, f"handler catches {caught} and "
                                      "silently discards it; handle, log, "
                                      "or re-raise")
                    break
        self.generic_visit(node)

    @staticmethod
    def _swallows(body: Sequence[ast.stmt]) -> bool:
        for statement in body:
            if isinstance(statement, ast.Pass):
                continue
            if isinstance(statement, ast.Expr) and \
                    isinstance(statement.value, ast.Constant) and \
                    statement.value.value is Ellipsis:
                continue
            return False
        return True

    @staticmethod
    def _caught_names(node: ast.expr) -> List[str]:
        elements = node.elts if isinstance(node, ast.Tuple) else [node]
        names: List[str] = []
        for element in elements:
            name = dotted_name(element)
            if name is not None:
                names.append(name.split(".")[-1])
        return names


@register
class UnorderedSumRule(VisitorRule):
    """C5: float accumulation via sum() over an unordered iterable."""

    id = "C5"
    title = "sum() over an unordered iterable"
    rationale = ("Float addition is not associative: summing a set visits "
                 "elements in hash order, so the rounding error — and thus "
                 "the reported metric — varies between processes.  Sum a "
                 "sorted(...) sequence (or use math.fsum) instead.")

    def begin(self, module: Module) -> None:
        self._imports = module_imports(module)
        self._sets = SetTracker(module.tree, self._imports)

    def visit_Call(self, node: ast.Call) -> None:
        if is_builtin_call(node, ("sum",), self._imports) and node.args:
            source = node.args[0]
            if self._sets.is_setish(source):
                label = dotted_name(source) or "a set expression"
                self.report(node, f"sum() accumulates {label!r} in set "
                                  "order; float rounding then depends on "
                                  "the hash seed — sum sorted(...) instead")
            elif isinstance(source, (ast.GeneratorExp, ast.ListComp)):
                for generator in source.generators:
                    if self._sets.is_setish(generator.iter):
                        label = dotted_name(generator.iter) or \
                            "a set expression"
                        self.report(node, f"sum() over a comprehension "
                                          f"iterating {label!r} accumulates "
                                          "in set order; iterate "
                                          "sorted(...) instead")
                        break
        self.generic_visit(node)
