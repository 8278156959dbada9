"""Project-wide call graph with conservative resolution and effect stubs.

The async/thread-safety rules (A1-A5) need to know what a function call
*eventually does* — does ``self.service.lookup(spec)`` reach ``os.fsync``?
Is ``self._feed`` ever handed to a ``threading.Thread``?  Answering that
requires a whole-program view, so this module builds one :class:`CallGraph`
per engine run (cached on the :class:`~repro.lint.engine.ProjectContext`)
in two phases:

1. **Indexing** — one walk per module collecting every function/method
   declaration (``FunctionDecl``), every class with its methods, base
   names and inferred attribute types (``ClassDecl``), and the module's
   import aliases (absolute *and* relative — the engine's own packages
   import relatively, which :class:`~repro.lint.engine.ImportMap`
   deliberately ignores).
2. **Resolution** — a second walk per function body turning every call
   expression into a :class:`CallSite`: resolved project callees, spawn
   targets (``Thread(target=...)``, ``run_in_executor``,
   ``asyncio.to_thread``), and *direct effect sinks* from the stdlib stub
   tables below.

Resolution is deliberately **conservative (may-call)**:

- ``self.m()`` dispatches to ``m`` in the receiver class, its named base
  classes *and* every project subclass that overrides ``m`` (the static
  analyzer cannot rule the override out);
- an attribute call on a receiver whose type cannot be inferred falls back
  to the *unique-name* heuristic: it resolves only if exactly one project
  class defines a method of that name, otherwise the edge is dropped
  (precision over noise — see DESIGN.md section 14 for the soundness
  caveats this buys);
- a name imported ``from .x import y`` resolves against the project-wide
  declaration registry by bare name, so relative imports work without
  package-path arithmetic.

Type inference reuses the contracts-rule philosophy: annotations first,
single-assignment locals second, poisoning on conflict, and ``None`` (no
edge) whenever the evidence is ambiguous.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import Module, dotted_name, module_imports

# -- effect tags --------------------------------------------------------------

BLOCKING = "blocking"
SPAWNS_THREAD = "spawns-thread"
SPAWNS_PROCESS = "spawns-process"
NONDET = "nondet"

EFFECTS = (BLOCKING, SPAWNS_THREAD, SPAWNS_PROCESS, NONDET)

#: Edge kinds.  ``call`` is ordinary synchronous invocation; the spawn kinds
#: record that the callee runs on *another* thread/process, which matters
#: for effect propagation (a thread target's blocking does not block the
#: spawner) and for the A4/A5 reachability sets.
EDGE_CALL = "call"
EDGE_THREAD = "thread"
EDGE_PROCESS = "process"
EDGE_EXECUTOR = "executor"

# -- stdlib stub tables -------------------------------------------------------

def _fs(*effects: str) -> FrozenSet[str]:
    return frozenset(effects)


#: Canonical dotted call (after import-alias rewriting) -> effects.
CANONICAL_SINKS: Dict[str, FrozenSet[str]] = {
    "time.sleep": _fs(BLOCKING),
    "os.fsync": _fs(BLOCKING),
    "os.replace": _fs(BLOCKING),
    "os.rename": _fs(BLOCKING),
    "os.remove": _fs(BLOCKING),
    "os.unlink": _fs(BLOCKING),
    "os.makedirs": _fs(BLOCKING),
    "os.listdir": _fs(BLOCKING),
    "os.scandir": _fs(BLOCKING),
    "os.stat": _fs(BLOCKING),
    "os.fork": _fs(SPAWNS_PROCESS),
    "shutil.copy": _fs(BLOCKING),
    "shutil.copyfile": _fs(BLOCKING),
    "shutil.copytree": _fs(BLOCKING),
    "shutil.move": _fs(BLOCKING),
    "shutil.rmtree": _fs(BLOCKING),
    "tempfile.mkstemp": _fs(BLOCKING),
    "tempfile.mkdtemp": _fs(BLOCKING),
    "tempfile.NamedTemporaryFile": _fs(BLOCKING),
    "tempfile.TemporaryDirectory": _fs(BLOCKING),
    "socket.create_connection": _fs(BLOCKING),
    "select.select": _fs(BLOCKING),
    "subprocess.run": _fs(BLOCKING, SPAWNS_PROCESS),
    "subprocess.call": _fs(BLOCKING, SPAWNS_PROCESS),
    "subprocess.check_call": _fs(BLOCKING, SPAWNS_PROCESS),
    "subprocess.check_output": _fs(BLOCKING, SPAWNS_PROCESS),
    "asyncio.run": _fs(BLOCKING),
    "time.time": _fs(NONDET),
    "time.time_ns": _fs(NONDET),
    "datetime.datetime.now": _fs(NONDET),
    "datetime.datetime.utcnow": _fs(NONDET),
    "datetime.datetime.today": _fs(NONDET),
    "datetime.date.today": _fs(NONDET),
    "os.urandom": _fs(NONDET),
    "uuid.uuid1": _fs(NONDET),
    "uuid.uuid4": _fs(NONDET),
    "secrets.token_bytes": _fs(NONDET),
    "secrets.token_hex": _fs(NONDET),
    "secrets.randbelow": _fs(NONDET),
}

#: Seeded numpy factories (mirrors D1): nondet only when called bare.
_NUMPY_SEEDED_FACTORIES = ("numpy.random.default_rng",
                           "numpy.random.Generator",
                           "numpy.random.RandomState",
                           "numpy.random.SeedSequence")

#: Canonical constructor -> external type name it produces.
EXTERNAL_CONSTRUCTORS: Dict[str, str] = {
    "threading.Lock": "threading.Lock",
    "threading.RLock": "threading.RLock",
    "threading.Condition": "threading.Condition",
    "threading.Semaphore": "threading.Semaphore",
    "threading.BoundedSemaphore": "threading.BoundedSemaphore",
    "threading.Event": "threading.Event",
    "threading.Thread": "threading.Thread",
    "multiprocessing.Process": "multiprocessing.Process",
    "subprocess.Popen": "subprocess.Popen",
    "queue.Queue": "queue.Queue",
    "queue.LifoQueue": "queue.Queue",
    "queue.PriorityQueue": "queue.Queue",
    "queue.SimpleQueue": "queue.Queue",
    "pathlib.Path": "pathlib.Path",
    "pathlib.PurePath": "pathlib.Path",
    "pathlib.PosixPath": "pathlib.Path",
    "pathlib.WindowsPath": "pathlib.Path",
    "asyncio.Lock": "asyncio.Lock",
    "asyncio.Event": "asyncio.Event",
    "asyncio.Condition": "asyncio.Condition",
    "asyncio.Semaphore": "asyncio.Semaphore",
    "asyncio.BoundedSemaphore": "asyncio.BoundedSemaphore",
    "asyncio.Queue": "asyncio.Queue",
    "asyncio.LifoQueue": "asyncio.Queue",
    "asyncio.PriorityQueue": "asyncio.Queue",
    "concurrent.futures.ThreadPoolExecutor":
        "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor":
        "concurrent.futures.ProcessPoolExecutor",
}

#: External callables whose *return value* has a known external type.
EXTERNAL_RETURNS: Dict[str, str] = {
    "asyncio.get_running_loop": "asyncio.AbstractEventLoop",
    "asyncio.get_event_loop": "asyncio.AbstractEventLoop",
}

#: threading synchronization types (for A3 and the with-lock sink).
THREADING_LOCK_TYPES = frozenset((
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore"))

#: asyncio primitives that are only safe from the event loop (for A5).
ASYNCIO_PRIMITIVES = frozenset((
    "asyncio.Lock", "asyncio.Event", "asyncio.Condition",
    "asyncio.Semaphore", "asyncio.BoundedSemaphore", "asyncio.Queue"))

_PATH_BLOCKING_METHODS = frozenset((
    "open", "read_text", "read_bytes", "write_text", "write_bytes",
    "mkdir", "rmdir", "unlink", "touch", "rename", "replace", "glob",
    "rglob", "iterdir", "exists", "stat", "resolve", "samefile"))

#: (external type, method) -> effects, for receivers with inferred types.
TYPED_METHOD_SINKS: Dict[Tuple[str, str], FrozenSet[str]] = {}
for _lock_type in sorted(THREADING_LOCK_TYPES):
    TYPED_METHOD_SINKS[(_lock_type, "acquire")] = _fs(BLOCKING)
TYPED_METHOD_SINKS.update({
    ("threading.Condition", "wait"): _fs(BLOCKING),
    ("threading.Condition", "wait_for"): _fs(BLOCKING),
    ("threading.Event", "wait"): _fs(BLOCKING),
    ("queue.Queue", "get"): _fs(BLOCKING),
    ("queue.Queue", "put"): _fs(BLOCKING),
    ("queue.Queue", "join"): _fs(BLOCKING),
    ("subprocess.Popen", "wait"): _fs(BLOCKING),
    ("subprocess.Popen", "communicate"): _fs(BLOCKING),
    ("threading.Thread", "join"): _fs(BLOCKING),
    ("multiprocessing.Process", "join"): _fs(BLOCKING),
    ("threading.Thread", "start"): _fs(SPAWNS_THREAD),
    ("multiprocessing.Process", "start"): _fs(SPAWNS_PROCESS),
})
for _method in sorted(_PATH_BLOCKING_METHODS):
    TYPED_METHOD_SINKS[("pathlib.Path", _method)] = _fs(BLOCKING)

#: Method names distinctive enough to flag on an *unknown* receiver.
#: Deliberately excludes ambiguous names (``get``, ``put``, ``join``,
#: ``wait``, ``send``, ``recv``): a false edge into the blocking lattice
#: poisons every transitive caller, so only near-unambiguous names qualify.
NAME_METHOD_SINKS: Dict[str, FrozenSet[str]] = {
    name: _fs(BLOCKING)
    for name in ("read_text", "read_bytes", "write_text", "write_bytes",
                 "fsync", "glob", "rglob", "iterdir", "communicate",
                 "acquire", "rmtree", "makedirs", "mkdtemp",
                 "run_until_complete")}

#: Builtins with effects.
BUILTIN_SINKS: Dict[str, FrozenSet[str]] = {
    "open": _fs(BLOCKING),
    "input": _fs(BLOCKING),
}

#: Scheduler shapes: method/canonical name -> (edge kind, target arg index).
#: ``run_in_executor(executor, func, *args)`` offloads ``func`` to a worker
#: thread — the sanctioned A1 fix — so its edge kind is ``executor``.
_METHOD_SCHEDULERS: Dict[str, Tuple[str, int]] = {
    "run_in_executor": (EDGE_EXECUTOR, 1),
    "submit": (EDGE_EXECUTOR, 0),
    "Thread": (EDGE_THREAD, -1),      # target= keyword (or positional 1)
    "Process": (EDGE_PROCESS, -1),
}
_CANONICAL_SCHEDULERS: Dict[str, Tuple[str, int]] = {
    "asyncio.to_thread": (EDGE_EXECUTOR, 0),
    "threading.Thread": (EDGE_THREAD, -1),
    "multiprocessing.Process": (EDGE_PROCESS, -1),
}
_SCHEDULER_SPAWN_EFFECT = {EDGE_THREAD: SPAWNS_THREAD,
                           EDGE_PROCESS: SPAWNS_PROCESS,
                           EDGE_EXECUTOR: SPAWNS_THREAD}

#: Method names the *unique-name* fallback must never resolve: anything a
#: builtin container/string (or a file/socket handle) also answers to.  A
#: project class happening to be the only one defining ``get`` must not
#: capture every ``some_dict.get(...)`` in the codebase — a false call
#: edge into the blocking lattice would poison every transitive caller.
_UNIQUE_FALLBACK_EXCLUDE = frozenset(
    name for builtin_type in (dict, list, set, frozenset, str, bytes, tuple)
    for name in dir(builtin_type)) | frozenset((
        "close", "read", "write", "flush", "fileno", "readline",
        "readlines", "wait", "poll", "send", "recv", "get", "put",
        "open", "release", "notify", "notify_all"))


# -- declarations -------------------------------------------------------------

@dataclass
class FunctionDecl:
    """One function, method, or nested function in the project."""

    fid: str                        # "<module rel>::<qualname>"
    module_rel: str
    qualname: str                   # "Class.method", "outer.inner", ...
    node: ast.AST                   # FunctionDef | AsyncFunctionDef
    is_async: bool
    class_name: Optional[str]       # immediate owner class, if a method
    line: int
    #: directly nested function defs: local name -> fid.
    nested: Dict[str, str] = field(default_factory=dict)
    enclosing: Optional[str] = None  # fid of the lexically enclosing function


@dataclass
class ClassDecl:
    """One project class: methods, base names, inferred attribute types."""

    name: str
    module_rel: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)    # trailing base names
    methods: Dict[str, str] = field(default_factory=dict)   # name -> fid
    #: ``self.<attr>`` -> type name (project class or external dotted name).
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class CallSite:
    """One resolved call (or lock-acquisition) inside a function body."""

    node: ast.AST
    line: int
    col: int
    label: str                                  # rendered callee expression
    callees: Tuple[str, ...] = ()               # normal call edges (fids)
    spawned: Tuple[Tuple[str, str], ...] = ()   # (fid, edge kind)
    sinks: Tuple[Tuple[str, str], ...] = ()     # (effect, sink name)
    is_lock_with: bool = False                  # a ``with <threading lock>:``


@dataclass
class LockWith:
    """A ``with`` block over a threading lock (A3's subject)."""

    node: ast.With
    label: str
    contains_await: bool


@dataclass
class PrimitiveTouch:
    """A method call on an asyncio primitive (A5's subject)."""

    node: ast.AST
    label: str
    type_name: str


@dataclass
class AttrWrite:
    """A ``self.<attr>`` store, with the with-contexts held around it."""

    node: ast.AST
    attr: str
    held: FrozenSet[str]


@dataclass
class FunctionFacts:
    """Everything phase 2 learned about one function body."""

    decl: FunctionDecl
    sites: List[CallSite] = field(default_factory=list)
    lock_withs: List[LockWith] = field(default_factory=list)
    touches: List[PrimitiveTouch] = field(default_factory=list)
    writes: List[AttrWrite] = field(default_factory=list)


@dataclass
class CallGraph:
    """The whole-program call graph plus per-function facts."""

    functions: Dict[str, FunctionDecl] = field(default_factory=dict)
    facts: Dict[str, FunctionFacts] = field(default_factory=dict)
    classes: Dict[str, List[ClassDecl]] = field(default_factory=dict)

    def successors(self, fid: str) -> Iterator[Tuple[str, str]]:
        """(callee fid, edge kind) pairs out of one function."""
        for site in self.facts[fid].sites:
            for callee in site.callees:
                yield callee, EDGE_CALL
            for target, kind in site.spawned:
                yield target, kind

    def spawn_targets(self, kinds: Sequence[str]) -> Set[str]:
        """Functions handed to a spawner of one of the given edge kinds."""
        targets: Set[str] = set()
        for facts in self.facts.values():
            for site in facts.sites:
                for target, kind in site.spawned:
                    if kind in kinds:
                        targets.add(target)
        return targets


# -- annotation / name helpers ------------------------------------------------

def annotation_type_name(annotation: Optional[ast.AST]) -> Optional[str]:
    """Dotted type name of an annotation: ``asyncio.Lock`` stays dotted,
    project classes come back bare; unwraps ``Optional[...]`` and string
    annotations; ``None`` for anything structurally richer."""
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
            return annotation_type_name(annotation.slice)
        return None
    return dotted_name(annotation)


def _own_statement_walk(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested function/class defs."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _contains_await(node: ast.AST) -> bool:
    for child in _own_statement_walk(node):
        if isinstance(child, ast.Await):
            return True
    return False


# -- phase 1: indexing --------------------------------------------------------

class _ModuleIndex:
    """Per-module declarations and import aliases."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.rel = module.rel
        self.imports = module_imports(module)
        #: local name -> imported *bare* member name (any import level, so
        #: relative imports resolve through the global registry too).
        self.member_alias: Dict[str, str] = {}
        self.top_functions: Dict[str, str] = {}
        self.top_classes: Dict[str, ClassDecl] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name != "*":
                        local = alias.asname or alias.name
                        self.member_alias[local] = alias.name


def _index_module(index: _ModuleIndex, graph: CallGraph) -> None:
    """Collect declarations (functions, methods, classes) of one module."""

    def walk(node: ast.AST, qual: str, class_name: Optional[str],
             enclosing: Optional[FunctionDecl]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                decl = ClassDecl(
                    name=child.name, module_rel=index.rel, node=child,
                    bases=[name.split(".")[-1]
                           for name in (dotted_name(base)
                                        for base in child.bases)
                           if name is not None])
                if qual == "" and enclosing is None:
                    index.top_classes[child.name] = decl
                graph.classes.setdefault(child.name, []).append(decl)
                prefix = f"{qual}.{child.name}" if qual else child.name
                walk(child, prefix, child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{qual}.{child.name}" if qual else child.name
                fid = f"{index.rel}::{qualname}"
                decl = FunctionDecl(
                    fid=fid, module_rel=index.rel, qualname=qualname,
                    node=child,
                    is_async=isinstance(child, ast.AsyncFunctionDef),
                    class_name=class_name, line=child.lineno,
                    enclosing=enclosing.fid if enclosing else None)
                graph.functions[fid] = decl
                if enclosing is not None:
                    enclosing.nested[child.name] = fid
                elif class_name is not None and \
                        class_name in graph.classes:
                    for class_decl in graph.classes[class_name]:
                        if class_decl.node is node:
                            class_decl.methods[child.name] = fid
                elif qual == "":
                    index.top_functions[child.name] = fid
                walk(child, qualname, None, decl)
            else:
                walk(child, qual, class_name, enclosing)

    walk(index.module.tree, "", None, None)


# -- phase 2: type inference + resolution -------------------------------------

class _Resolver:
    """Resolution context of one module: types, callees, method dispatch."""

    def __init__(self, index: _ModuleIndex, graph: CallGraph,
                 project_functions: Dict[str, List[str]],
                 project_methods: Dict[str, List[str]]) -> None:
        self.index = index
        self.graph = graph
        self.project_functions = project_functions
        self.project_methods = project_methods

    # -- classes --------------------------------------------------------------

    def classes_named(self, name: str) -> List[ClassDecl]:
        local = self.index.top_classes.get(name)
        if local is not None:
            return [local]
        target = self.index.member_alias.get(name, name)
        bare = target.split(".")[-1]
        return self.graph.classes.get(bare, [])

    def normalize_type(self, name: Optional[str]) -> Optional[str]:
        """Canonicalize a type name written in this module: project classes
        stay bare, imported externals become dotted (``Path`` written under
        ``from pathlib import Path`` -> ``pathlib.Path``)."""
        if name is None:
            return None
        parts = name.split(".")
        if len(parts) == 1:
            if self.classes_named(name):
                return self.classes_named(name)[0].name
            canonical = self.index.imports.member_aliases.get(name)
            return canonical if canonical is not None else name
        head = self.index.imports.module_aliases.get(parts[0]) or \
            self.index.imports.member_aliases.get(parts[0])
        if head is not None:
            return ".".join([head] + parts[1:])
        return name

    def annotation_type(self, annotation: Optional[ast.AST]
                        ) -> Optional[str]:
        """Normalized type of an annotation, or None when it names neither
        a project class nor a dotted external type."""
        annotated = self.normalize_type(annotation_type_name(annotation))
        if annotated is None:
            return None
        if "." in annotated or self.classes_named(annotated):
            return annotated
        return None

    def _subclasses(self, name: str) -> List[ClassDecl]:
        out: List[ClassDecl] = []
        for decls in self.graph.classes.values():
            for decl in decls:
                if name in decl.bases:
                    out.append(decl)
        return out

    def dispatch(self, class_name: str, method: str) -> List[str]:
        """Conservative method dispatch: the class, its named bases, and
        every project subclass that overrides the method."""
        fids: List[str] = []
        seen: Set[str] = set()

        def lookup_up(name: str) -> Optional[str]:
            if name in seen:
                return None
            seen.add(name)
            for decl in self.graph.classes.get(name, []):
                fid = decl.methods.get(method)
                if fid is not None:
                    return fid
                for base in decl.bases:
                    found = lookup_up(base)
                    if found is not None:
                        return found
            return None

        own = lookup_up(class_name)
        if own is not None:
            fids.append(own)
        for sub in self._subclasses(class_name):
            fid = sub.methods.get(method)
            if fid is not None and fid not in fids:
                fids.append(fid)
        return fids

    # -- expression types -----------------------------------------------------

    def expr_type(self, node: ast.AST, env: Dict[str, str],
                  self_class: Optional[str]) -> Optional[str]:
        """Type name of an expression (project class or external dotted
        name), or None when unprovable."""
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if node.id in ("self", "cls"):
                return self_class
            return None
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and \
                    node.value.id in ("self", "cls") and \
                    self_class is not None:
                return self._class_attr_type(self_class, node.attr)
            base = self.expr_type(node.value, env, self_class)
            if base is None:
                return None
            return self._class_attr_type(base, node.attr) \
                if base in self.graph.classes else None
        if isinstance(node, ast.Call):
            return self.call_result_type(node, env, self_class)
        if isinstance(node, ast.IfExp):
            return self.expr_type(node.body, env, self_class) or \
                self.expr_type(node.orelse, env, self_class)
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            for operand in node.values:
                resolved = self.expr_type(operand, env, self_class)
                if resolved is not None:
                    return resolved
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            # pathlib's ``base / "part"`` keeps the Path type.
            left = self.expr_type(node.left, env, self_class)
            return left if left == "pathlib.Path" else None
        if isinstance(node, ast.Await):
            return self.expr_type(node.value, env, self_class)
        return None

    def _class_attr_type(self, class_name: str, attr: str) -> Optional[str]:
        for decl in self.graph.classes.get(class_name, []):
            found = decl.attr_types.get(attr)
            if found is not None:
                return found
        return None

    def call_result_type(self, node: ast.Call, env: Dict[str, str],
                         self_class: Optional[str]) -> Optional[str]:
        canonical = self.index.imports.canonical(node.func)
        if canonical is not None:
            if canonical in EXTERNAL_CONSTRUCTORS:
                return EXTERNAL_CONSTRUCTORS[canonical]
            if canonical in EXTERNAL_RETURNS:
                return EXTERNAL_RETURNS[canonical]
        callee = dotted_name(node.func)
        if callee is not None:
            bare = callee.split(".")[-1]
            if self.classes_named(bare):
                return bare
            # A call to a project function with an annotated return type.
            return_types = {
                self.annotation_type(decl.node.returns)
                for fid in self._function_fids(bare)
                for decl in (self.graph.functions[fid],)
                if isinstance(decl.node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))}
            if len(return_types) == 1:
                only = next(iter(return_types))
                if only is not None:
                    return only
        if isinstance(node.func, ast.Attribute):
            receiver = self.expr_type(node.func.value, env, self_class)
            if receiver is not None:
                fids = self.dispatch(receiver, node.func.attr) \
                    if receiver in self.graph.classes else []
                return_types = {
                    self.annotation_type(
                        self.graph.functions[fid].node.returns)  # type: ignore[attr-defined]
                    for fid in fids}
                if len(return_types) == 1:
                    only = next(iter(return_types))
                    if only is not None:
                        return only
        return None

    def _function_fids(self, bare_name: str) -> List[str]:
        local = self.index.top_functions.get(bare_name)
        if local is not None:
            return [local]
        return self.project_functions.get(bare_name, [])

    # -- callable resolution --------------------------------------------------

    def resolve_name_call(self, name: str,
                          decl: FunctionDecl) -> List[str]:
        """Project callees of a bare-name call inside ``decl``."""
        current: Optional[FunctionDecl] = decl
        while current is not None:
            if name in current.nested:
                return [current.nested[name]]
            current = self.graph.functions.get(current.enclosing) \
                if current.enclosing else None
        if name in self.index.top_functions:
            return [self.index.top_functions[name]]
        classes = self.classes_named(name)
        if classes:
            return [decl_.methods["__init__"] for decl_ in classes
                    if "__init__" in decl_.methods]
        target = self.index.member_alias.get(name)
        if target is not None:
            return self.project_functions.get(target.split(".")[-1], [])
        return []

    def resolve_func_ref(self, node: ast.AST,
                         decl: FunctionDecl, env: Dict[str, str]
                         ) -> List[str]:
        """Function reference (not a call): ``self._feed``, ``helper``."""
        if isinstance(node, ast.Call):
            # functools.partial(f, ...) and friends: unwrap the head.
            canonical = self.index.imports.canonical(node.func)
            if canonical == "functools.partial" and node.args:
                return self.resolve_func_ref(node.args[0], decl, env)
            return []
        if isinstance(node, ast.Name):
            return self.resolve_name_call(node.id, decl)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and \
                    node.value.id in ("self", "cls") and decl.class_name:
                return self.dispatch(decl.class_name, node.attr)
            receiver = self.expr_type(node.value, env, decl.class_name)
            if receiver is not None and receiver in self.graph.classes:
                return self.dispatch(receiver, node.attr)
            # Class-reference method (``JobSpec.from_dict``).
            head = dotted_name(node.value)
            if head is not None and self.classes_named(head.split(".")[-1]):
                return self.dispatch(
                    self.classes_named(head.split(".")[-1])[0].name,
                    node.attr)
            unique = self.project_methods.get(node.attr, [])
            if len(unique) == 1 and \
                    node.attr not in _UNIQUE_FALLBACK_EXCLUDE:
                return unique
        return []


def _param_env(decl: FunctionDecl, resolver: _Resolver) -> Dict[str, str]:
    env: Dict[str, str] = {}
    node = decl.node
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return env
    args = node.args
    for arg in (list(getattr(args, "posonlyargs", [])) + args.args +
                args.kwonlyargs):
        annotated = resolver.annotation_type(arg.annotation)
        if annotated is not None:
            env[arg.arg] = annotated
    return env


def _bind(env: Dict[str, str], poisoned: Set[str], name: str,
          type_name: Optional[str]) -> None:
    if name in poisoned:
        return
    if type_name is None:
        if name in env:
            del env[name]
            poisoned.add(name)
        return
    if env.get(name, type_name) != type_name:
        del env[name]
        poisoned.add(name)
        return
    env[name] = type_name


def _local_env(decl: FunctionDecl, resolver: _Resolver) -> Dict[str, str]:
    """Flow-insensitive local type environment of one function body."""
    env = _param_env(decl, resolver)
    poisoned: Set[str] = set()
    assigns = [node for node in _own_statement_walk(decl.node)
               if isinstance(node, (ast.Assign, ast.AnnAssign))]
    for node in sorted(assigns, key=lambda n: (n.lineno, n.col_offset)):
        if isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                annotated = resolver.annotation_type(node.annotation)
                if annotated is not None:
                    _bind(env, poisoned, node.target.id, annotated)
            continue
        value_type = resolver.expr_type(node.value, env, decl.class_name)
        for target in node.targets:
            if isinstance(target, ast.Name):
                _bind(env, poisoned, target.id, value_type)
            elif isinstance(target, ast.Tuple):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        _bind(env, poisoned, element.id, None)
    return env


def _infer_class_attr_types(resolvers: List[Tuple[_Resolver, _ModuleIndex]]
                            ) -> None:
    """Fill ``ClassDecl.attr_types`` from annotations and ``self.x = ...``
    stores.  Two passes so attribute chains through other classes resolve
    once those classes' own attributes are known."""
    for _pass in range(2):
        for resolver, index in resolvers:
            for class_decl in index.top_classes.values():
                _scan_class_attrs(class_decl, resolver)


def _scan_class_attrs(class_decl: ClassDecl, resolver: _Resolver) -> None:
    poisoned: Set[str] = set()

    def record(attr: str, type_name: Optional[str]) -> None:
        if attr in poisoned:
            return
        if type_name is None:
            return
        if class_decl.attr_types.get(attr, type_name) != type_name:
            del class_decl.attr_types[attr]
            poisoned.add(attr)
            return
        class_decl.attr_types[attr] = type_name

    for statement in class_decl.node.body:
        if isinstance(statement, ast.AnnAssign) and \
                isinstance(statement.target, ast.Name):
            record(statement.target.id,
                   resolver.annotation_type(statement.annotation))

    for method_fid in class_decl.methods.values():
        decl = resolver.graph.functions[method_fid]
        env = _local_env(decl, resolver)
        for node in sorted(
                (n for n in _own_statement_walk(decl.node)
                 if isinstance(n, (ast.Assign, ast.AnnAssign))),
                key=lambda n: (n.lineno, n.col_offset)):
            targets: List[ast.AST]
            value_type: Optional[str]
            if isinstance(node, ast.AnnAssign):
                targets = [node.target]
                value_type = resolver.annotation_type(node.annotation)
            else:
                targets = list(node.targets)
                value_type = resolver.expr_type(node.value, env,
                                                class_decl.name)
            for target in targets:
                if isinstance(target, ast.Attribute) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id == "self":
                    record(target.attr, value_type)


# -- phase 2: call-site extraction --------------------------------------------

class _BodyScanner:
    """Walks one function body collecting sites, writes, touches, locks."""

    def __init__(self, decl: FunctionDecl, resolver: _Resolver) -> None:
        self.decl = decl
        self.resolver = resolver
        self.env = _local_env(decl, resolver)
        self.facts = FunctionFacts(decl=decl)

    def scan(self) -> FunctionFacts:
        body = getattr(self.decl.node, "body", [])
        self._visit_statements(body, frozenset())
        return self.facts

    # -- statement recursion (tracks held with-contexts) ----------------------

    def _visit_statements(self, statements: Sequence[ast.stmt],
                          held: FrozenSet[str]) -> None:
        for statement in statements:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                continue
            if isinstance(statement, (ast.With, ast.AsyncWith)):
                self._visit_with(statement, held)
                continue
            self._visit_expressions(statement, held)
            for body_field in ("body", "orelse", "finalbody"):
                nested = getattr(statement, body_field, None)
                if nested:
                    self._visit_statements(nested, held)
            for handler in getattr(statement, "handlers", []) or []:
                self._visit_statements(handler.body, held)

    def _visit_with(self, statement: ast.stmt, held: FrozenSet[str]) -> None:
        labels: Set[str] = set()
        items = statement.items \
            if isinstance(statement, (ast.With, ast.AsyncWith)) else []
        for item in items:
            expr = item.context_expr
            self._visit_expressions_node(expr, held)
            label = dotted_name(expr) or \
                (dotted_name(expr.func) if isinstance(expr, ast.Call)
                 else None) or "<with>"
            labels.add(label)
            lock_type = self.resolver.expr_type(expr, self.env,
                                                self.decl.class_name)
            if lock_type is None and isinstance(expr, ast.Call):
                lock_type = self.resolver.call_result_type(
                    expr, self.env, self.decl.class_name)
            if lock_type in THREADING_LOCK_TYPES and \
                    isinstance(statement, ast.With):
                self.facts.lock_withs.append(LockWith(
                    node=statement, label=label,
                    contains_await=_contains_await(statement)))
                self.facts.sites.append(CallSite(
                    node=statement, line=statement.lineno,
                    col=statement.col_offset, label=f"with {label}",
                    sinks=((BLOCKING,
                            f"{lock_type} acquisition (with {label})"),),
                    is_lock_with=True))
        self._visit_statements(statement.body,
                               held | frozenset(labels))

    # -- expression scanning --------------------------------------------------

    def _visit_expressions(self, statement: ast.stmt,
                           held: FrozenSet[str]) -> None:
        if isinstance(statement, (ast.Assign, ast.AugAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) \
                else [statement.target]
            for target in targets:
                if isinstance(target, ast.Attribute) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id == "self":
                    self.facts.writes.append(AttrWrite(
                        node=statement, attr=target.attr, held=held))
        for field_name, value in ast.iter_fields(statement):
            if field_name in ("body", "orelse", "finalbody", "handlers"):
                continue
            nodes = value if isinstance(value, list) else [value]
            for node in nodes:
                if isinstance(node, ast.AST):
                    self._visit_expressions_node(node, held)

    def _visit_expressions_node(self, root: ast.AST,
                                held: FrozenSet[str]) -> None:
        for node in [root, *list(_own_statement_walk(root))]:
            if isinstance(node, ast.Call):
                self._visit_call(node)

    def _visit_call(self, node: ast.Call) -> None:
        resolver = self.resolver
        label = dotted_name(node.func) or "<call>"
        sinks: List[Tuple[str, str]] = []
        callees: List[str] = []
        spawned: List[Tuple[str, str]] = []

        canonical = resolver.index.imports.canonical(node.func)
        if canonical is not None:
            self._canonical_effects(node, canonical, sinks)
            scheduler = _CANONICAL_SCHEDULERS.get(canonical)
            if scheduler is not None:
                self._spawn(node, scheduler, sinks, spawned)

        if isinstance(node.func, ast.Name):
            name = node.func.id
            if canonical is None and name in BUILTIN_SINKS:
                sinks.append((next(iter(BUILTIN_SINKS[name])), name))
            elif canonical is None and name == "len" and node.args:
                arg_type = resolver.expr_type(node.args[0], self.env,
                                              self.decl.class_name)
                if arg_type is not None:
                    callees.extend(resolver.dispatch(arg_type, "__len__"))
            elif not sinks and not spawned:
                # Also reached when canonical named a *project* module
                # (``from util import f as g``): no stub matched, so the
                # call resolves through the project registry instead.
                callees.extend(resolver.resolve_name_call(name, self.decl))
        elif isinstance(node.func, ast.Attribute):
            method = node.func.attr
            receiver_expr = node.func.value
            resolved = False
            if isinstance(receiver_expr, ast.Name) and \
                    receiver_expr.id in ("self", "cls") and \
                    self.decl.class_name is not None:
                callees.extend(resolver.dispatch(self.decl.class_name,
                                                 method))
                resolved = bool(callees)
            else:
                receiver = resolver.expr_type(receiver_expr, self.env,
                                              self.decl.class_name)
                if receiver is not None and \
                        receiver in resolver.graph.classes:
                    callees.extend(resolver.dispatch(receiver, method))
                    resolved = True
                elif canonical is None and method in _METHOD_SCHEDULERS:
                    # Scheduler shapes beat typed-receiver sinks: a
                    # ``loop.run_in_executor(None, f)`` call must record
                    # the executor escape even though ``loop``'s type is
                    # known (and has no sink entry of its own).
                    self._spawn(node, _METHOD_SCHEDULERS[method], sinks,
                                spawned)
                    resolved = True
                elif receiver is not None:
                    typed = TYPED_METHOD_SINKS.get((receiver, method))
                    if typed is not None:
                        for effect in sorted(typed):
                            sinks.append((effect, f"{receiver}.{method}"))
                    if receiver in ASYNCIO_PRIMITIVES:
                        self.facts.touches.append(PrimitiveTouch(
                            node=node, label=label, type_name=receiver))
                    resolved = True
                elif canonical is None:
                    head = dotted_name(receiver_expr)
                    if head is not None and \
                            resolver.classes_named(head.split(".")[-1]):
                        class_decl = resolver.classes_named(
                            head.split(".")[-1])[0]
                        callees.extend(resolver.dispatch(class_decl.name,
                                                         method))
                        resolved = True
            if not resolved and canonical is None:
                unique = resolver.project_methods.get(method, [])
                if len(unique) == 1 and \
                        method not in _UNIQUE_FALLBACK_EXCLUDE:
                    callees.extend(unique)
                elif method in NAME_METHOD_SINKS:
                    for effect in sorted(NAME_METHOD_SINKS[method]):
                        sinks.append((effect, f"<unknown>.{method}"))

        if sinks or callees or spawned:
            self.facts.sites.append(CallSite(
                node=node, line=node.lineno, col=node.col_offset,
                label=label, callees=tuple(dict.fromkeys(callees)),
                spawned=tuple(spawned), sinks=tuple(sinks)))

    def _canonical_effects(self, node: ast.Call, canonical: str,
                           sinks: List[Tuple[str, str]]) -> None:
        effects = CANONICAL_SINKS.get(canonical)
        if effects is not None:
            for effect in sorted(effects):
                sinks.append((effect, canonical))
            return
        if canonical in _NUMPY_SEEDED_FACTORIES:
            if not node.args and not node.keywords:
                sinks.append((NONDET, f"{canonical} (unseeded)"))
        elif canonical.startswith("numpy.random."):
            sinks.append((NONDET, canonical))
        elif canonical.startswith("random.") and \
                canonical != "random.Random":
            sinks.append((NONDET, canonical))

    def _spawn(self, node: ast.Call, scheduler: Tuple[str, int],
               sinks: List[Tuple[str, str]],
               spawned: List[Tuple[str, str]]) -> None:
        kind, position = scheduler
        sinks.append((_SCHEDULER_SPAWN_EFFECT[kind],
                      dotted_name(node.func) or kind))
        target: Optional[ast.AST] = None
        if position >= 0 and len(node.args) > position:
            target = node.args[position]
        else:
            for keyword in node.keywords:
                if keyword.arg == "target":
                    target = keyword.value
                    break
            if target is None and position < 0 and len(node.args) > 1:
                target = node.args[1]
        if target is not None:
            for fid in self.resolver.resolve_func_ref(target, self.decl,
                                                      self.env):
                spawned.append((fid, kind))


# -- entry point --------------------------------------------------------------

def build_call_graph(modules: Sequence[Module]) -> CallGraph:
    """Index every module, infer types, and resolve every call site."""
    graph = CallGraph()
    indexes = [_ModuleIndex(module) for module in modules]
    for index in indexes:
        _index_module(index, graph)

    project_functions: Dict[str, List[str]] = {}
    project_methods: Dict[str, List[str]] = {}
    for fid, decl in graph.functions.items():
        if decl.class_name is not None:
            project_methods.setdefault(
                decl.qualname.split(".")[-1], []).append(fid)
        elif decl.enclosing is None:
            project_functions.setdefault(
                decl.qualname.split(".")[-1], []).append(fid)

    resolvers = [(_Resolver(index, graph, project_functions,
                            project_methods), index)
                 for index in indexes]
    _infer_class_attr_types(resolvers)

    by_rel = {index.rel: resolver for resolver, index in resolvers}
    for fid in sorted(graph.functions):
        decl = graph.functions[fid]
        resolver = by_rel[decl.module_rel]
        graph.facts[fid] = _BodyScanner(decl, resolver).scan()
    return graph


def call_closure(graph: CallGraph, roots: Set[str]) -> Set[str]:
    """Roots plus everything reachable from them over plain ``call`` edges.

    Spawn edges are excluded on purpose: a thread/process target runs on a
    different executor, so reachability facts that care about *who is on
    this stack* (event-loop blocking, per-cycle hotness, fast-mode
    guarantees) must not leak across them.
    """
    reached = set(roots)
    frontier = sorted(roots)
    while frontier:
        fid = frontier.pop()
        for callee, kind in graph.successors(fid):
            if kind == EDGE_CALL and callee in graph.functions and \
                    callee not in reached:
                reached.add(callee)
                frontier.append(callee)
    return reached


def fids_by_qualname(graph: CallGraph,
                     qualnames: Sequence[str]) -> Set[str]:
    """Functions whose qualified name matches one of ``qualnames`` exactly
    (any module) — the anchor for hot-region roots like ``Simulator.steps``."""
    wanted = set(qualnames)
    return {fid for fid, decl in graph.functions.items()
            if decl.qualname in wanted}
