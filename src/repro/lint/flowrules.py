"""Flow-sensitive simlint rules (the F family).

These rules run the :mod:`repro.lint.dataflow` analyses over per-function
CFGs instead of pattern-matching single statements, so they can reason
about *paths*: an RNG that is unseeded on one branch, a local that is
assigned only inside an ``if``, a store that no use ever reaches.

All four rules share one analysis bundle per function — CFG, scope facts,
def-use chains, definite assignment — cached on ``Module.analysis_cache``
so the per-file cost is paid once per engine run, not once per rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .cfg import Cfg, Element, FunctionNode, build_cfg
from .dataflow import (
    DataflowResult,
    DefiniteAssignment,
    DefUse,
    ForwardAnalysis,
    ScopeInfo,
    build_function_nodes,
    compute_def_use,
    element_defs,
    element_uses,
    element_walrus_names,
    scope_info,
)
from .engine import (ImportMap, Module, VisitorRule, dotted_name,
                     module_imports, register)
from .finding import Finding, Severity

_CACHE_KEY = "flow:functions"


@dataclass
class FunctionInfo:
    """One function's shared analysis bundle (built lazily, cached)."""

    func: FunctionNode
    cfg: Cfg
    scope: ScopeInfo
    _def_use: Optional[DefUse] = None
    _assignment: Optional[Tuple[DefiniteAssignment, DataflowResult]] = None

    @property
    def is_module_body(self) -> bool:
        return isinstance(self.func, ast.Module)

    def def_use(self) -> DefUse:
        if self._def_use is None:
            self._def_use = compute_def_use(self.cfg, self.scope)
        return self._def_use

    def assignment(self) -> Tuple[DefiniteAssignment, DataflowResult]:
        if self._assignment is None:
            analysis = DefiniteAssignment(self.cfg, self.scope)
            self._assignment = (analysis, analysis.run(self.cfg))
        return self._assignment


def function_infos(module: Module) -> List[FunctionInfo]:
    """The module body's and every function's bundle, cached per module."""
    cached = module.analysis_cache.get(_CACHE_KEY)
    if cached is None:
        cached = []
        for func in build_function_nodes(module.tree):
            cfg = build_cfg(func)
            cached.append(FunctionInfo(func=func, cfg=cfg,
                                       scope=scope_info(cfg)))
        module.analysis_cache[_CACHE_KEY] = cached
    infos: List[FunctionInfo] = cached
    return infos


class FlowRule(VisitorRule):
    """A per-file rule driven by dataflow results instead of AST dispatch.

    Subclasses implement :meth:`check_function`; the visitor machinery of
    the base class is bypassed (there is nothing to pattern-match — the CFG
    already happened).
    """

    def check_function(self, module: Module, info: FunctionInfo) -> None:
        raise NotImplementedError

    def check(self, module: Module) -> List[Finding]:
        self._module = module
        self._findings = []
        try:
            for info in function_infos(module):
                self.check_function(module, info)
        finally:
            self._module = None
        return self._findings


# -- F1: unseeded RNG reaching a draw ----------------------------------------

#: RNG constructors that are deterministic only when given a seed argument.
_RNG_FACTORIES = ("random.Random", "numpy.random.default_rng",
                  "numpy.random.RandomState")

#: Methods that do not consume randomness (calling them on an unseeded
#: generator is fine; ``seed`` even repairs it).
_RNG_NON_DRAWS = ("seed", "getstate", "setstate", "bit_generator", "spawn")


class _UnseededRngReach(ForwardAnalysis):
    """May-analysis: which unseeded-RNG bindings reach each point.

    Facts are indices into ``self.sites``.  A re-assignment of the bound
    name kills its facts; so does an explicit ``name.seed(...)`` call,
    which is the one statement that turns an unseeded generator into a
    seeded one in place.
    """

    may = True

    def __init__(self, cfg: Cfg, imports: ImportMap) -> None:
        self.imports = imports
        #: (name, assign node) per unseeded construction site.
        self.sites: List[Tuple[str, ast.AST]] = []
        self._gen: Dict[int, FrozenSet[int]] = {}
        self._kill_names: Dict[int, FrozenSet[str]] = {}
        for element in cfg.elements():
            gen: Set[int] = set()
            killed: Set[str] = set()
            for name, _node in element_defs(element):
                killed.add(name)
            node = element.node
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name) and \
                    self._is_unseeded_factory(node.value):
                gen.add(len(self.sites))
                self.sites.append((node.targets[0].id, node))
            killed.update(self._seeded_names(node))
            self._gen[id(element)] = frozenset(gen)
            self._kill_names[id(element)] = frozenset(killed)

    def _is_unseeded_factory(self, value: ast.AST) -> bool:
        if not isinstance(value, ast.Call) or value.args or value.keywords:
            return False
        canonical = self.imports.canonical(value.func)
        return canonical in _RNG_FACTORIES

    @staticmethod
    def _seeded_names(node: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Call) and \
                    isinstance(child.func, ast.Attribute) and \
                    child.func.attr == "seed" and \
                    isinstance(child.func.value, ast.Name):
                names.add(child.func.value.id)
        return names

    def transfer(self, element: Element,
                 state: FrozenSet[int]) -> FrozenSet[int]:
        killed = self._kill_names[id(element)]
        survivors = frozenset(
            fact for fact in state if self.sites[fact][0] not in killed)
        return survivors | self._gen[id(element)]


@register
class UnseededRngReachRule(FlowRule):
    """F1: a draw on an RNG that was constructed without a seed on some path."""

    id = "F1"
    title = "unseeded RNG instance reaches a draw"
    rationale = ("random.Random() / numpy.random.default_rng() without a "
                 "seed is only safe if every path seeds it before the first "
                 "draw; reaching-definitions over the CFG proves otherwise. "
                 "Pass the seed at construction (the sweep runner's --seed "
                 "plumbing hands one to every component).")

    def check_function(self, module: Module, info: FunctionInfo) -> None:
        imports = module_imports(module)
        analysis = _UnseededRngReach(info.cfg, imports)
        if not analysis.sites:
            return
        result = analysis.run(info.cfg)
        for element, state in analysis.element_states(info.cfg, result):
            if not state:
                continue
            live = {analysis.sites[fact][0] for fact in state}
            for call in ast.walk(element.node):
                if isinstance(call, ast.Call) and \
                        isinstance(call.func, ast.Attribute) and \
                        isinstance(call.func.value, ast.Name) and \
                        call.func.value.id in live and \
                        call.func.attr not in _RNG_NON_DRAWS:
                    name = call.func.value.id
                    self.report(call, f"{name}.{call.func.attr}() draws from "
                                      f"an RNG constructed without a seed "
                                      f"({name!r} is unseeded on at least "
                                      "one path to this call)")


# -- F2: mutation after validation -------------------------------------------

#: Method names that mark an object as validated/finalized.
_VALIDATE_METHODS = ("validate", "finalize", "freeze")


class _ValidatedReach(ForwardAnalysis):
    """May-analysis: which ``obj.validate()`` calls reach each point.

    Facts index ``self.sites``: (dotted base, call node).  A re-assignment
    of the base name (or its root) kills the fact — the name now holds a
    different, unvalidated object.
    """

    may = True

    def __init__(self, cfg: Cfg) -> None:
        self.sites: List[Tuple[str, ast.AST]] = []
        self._gen: Dict[int, FrozenSet[int]] = {}
        self._kill_names: Dict[int, FrozenSet[str]] = {}
        for element in cfg.elements():
            gen: Set[int] = set()
            killed: Set[str] = {name for name, _ in element_defs(element)}
            for child in ast.walk(element.node):
                if isinstance(child, ast.Call) and \
                        isinstance(child.func, ast.Attribute) and \
                        child.func.attr in _VALIDATE_METHODS:
                    base = dotted_name(child.func.value)
                    if base is not None:
                        gen.add(len(self.sites))
                        self.sites.append((base, child))
            self._gen[id(element)] = frozenset(gen)
            self._kill_names[id(element)] = frozenset(killed)

    def transfer(self, element: Element,
                 state: FrozenSet[int]) -> FrozenSet[int]:
        killed = self._kill_names[id(element)]
        survivors = frozenset(
            fact for fact in state
            if self.sites[fact][0].split(".")[0] not in killed)
        return survivors | self._gen[id(element)]


@register
class MutationAfterValidateRule(FlowRule):
    """F2: attribute store on an object after a path that validated it."""

    id = "F2"
    title = "object mutated after validation"
    rationale = ("A validate()/finalize() call certifies the object's state "
                 "at that moment; mutating a field afterwards reintroduces "
                 "exactly the inconsistencies the validator rejects, on "
                 "precisely the paths where validation already ran. "
                 "Re-validate after the mutation or build a new object.")

    def check_function(self, module: Module, info: FunctionInfo) -> None:
        analysis = _ValidatedReach(info.cfg)
        if not analysis.sites:
            return
        result = analysis.run(info.cfg)
        for element, state in analysis.element_states(info.cfg, result):
            if not state:
                continue
            validated = {analysis.sites[fact][0]: analysis.sites[fact][1]
                         for fact in state}
            node = element.node
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                base = dotted_name(target.value)
                if base in validated:
                    call = validated[base]
                    self.report(node, f"{base}.{target.attr} is mutated "
                                      f"after {base}.validate-style call on "
                                      f"line {getattr(call, 'lineno', '?')}; "
                                      "the validated invariants no longer "
                                      "hold on that path")


# -- F3: possibly-unassigned local -------------------------------------------

@register
class PossiblyUnassignedRule(FlowRule):
    """F3: a local read on a path where no assignment dominates it."""

    id = "F3"
    title = "possibly-unassigned local variable"
    rationale = ("A name assigned only inside one branch (or only in a try "
                 "body that can raise before the binding) raises "
                 "UnboundLocalError on the other path — in a simulator that "
                 "usually means an uncovered config combination, found at "
                 "sweep time instead of lint time.  Definite-assignment "
                 "analysis proves the gap; loop bodies are assumed to run "
                 "at least once.")
    severity = Severity.WARNING

    def check_function(self, module: Module, info: FunctionInfo) -> None:
        if info.is_module_body:
            # Module-level conditional definitions (try/except ImportError,
            # platform switches) are an accepted idiom.
            return
        analysis, result = info.assignment()
        local_names = info.scope.local_names
        reported: Set[str] = set()
        for element, state in analysis.element_states(info.cfg, result):
            if state is None:
                continue   # unreachable code; not this rule's business
            # A walrus inside the element binds before the element's own
            # reads can observe it (comprehension guards); too fine-grained
            # for element-level replay, so those names get a pass here.
            walrus = element_walrus_names(element)
            for use in element_uses(element):
                name = use.id
                if name not in local_names or name in reported or \
                        name in walrus:
                    continue
                fact = analysis.fact(name)
                if fact is not None and fact not in state:
                    reported.add(name)
                    self.report(use, f"{name!r} may be unassigned here: no "
                                     "assignment reaches this use on every "
                                     "path (assign a default before the "
                                     "branch)")


# -- F4: dead store ----------------------------------------------------------

@register
class DeadStoreRule(FlowRule):
    """F4: an assignment no use can ever observe."""

    id = "F4"
    title = "dead store"
    rationale = ("An assignment that no later read can reach is either "
                 "leftover scaffolding or — worse — a result that was meant "
                 "to be returned or accumulated and silently is not.  "
                 "Def-use chains over the CFG find both.")
    severity = Severity.WARNING

    def check_function(self, module: Module, info: FunctionInfo) -> None:
        if info.is_module_body:
            return   # module-level names are the module's public surface
        chains = info.def_use()
        escaping = info.scope.escaping
        for definition in chains.definitions:
            if definition.is_param or definition.element is None:
                continue
            node = definition.element.node
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue   # only plain single-name stores; unpacking and
            # augmented/loop bindings have legitimate partial uses
            name = definition.name
            if name.startswith("_") or name in escaping:
                continue
            if not chains.uses_of_def.get(definition.id):
                self.report(node, f"store to {name!r} is dead: no path "
                                  "reads this value before it is "
                                  "overwritten or goes out of scope")
