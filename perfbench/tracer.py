"""Per-layer span tracer: wraps the program's public calls from outside.

A :class:`Tracer` replaces each method or function named in :data:`LAYERS`
with a wrapper that records a span (name, start, end, parent, job id) around
the call.  Nothing inside ``src/`` changes: methods are wrapped at class
level, and module functions are patched in the module their caller looks
them up in, so every instance created afterwards runs through the wrappers.

Spans live on per-thread stacks, because the service runs store calls on
executor threads.  Every span feeds the per-layer aggregate (calls, total
time, self time = span time minus the time its child spans cover, and an
optional count of "positive" outcomes for hit/mispredict ratios).  The full
span list is kept only for the first job, for the Chrome-trace export.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer name, "module:attribute path" of the call it times, and an optional
#: outcome classifier ``(receiver, result) -> bool`` for the layer's ratio.
#: Twin APIs (``lookup``/``lookup_fast`` ...) aggregate under one layer name.
#: A target that no longer exists is skipped with a warning, so deleting a
#: twin does not break the benchmark.
LayerSpec = Tuple[str, str, Optional[Callable[[Any, Any], bool]]]


def _is_hit(_receiver: Any, result: Any) -> bool:
    return result is not None


def _mispredicted(_receiver: Any, result: Any) -> bool:
    # observe() returns a BranchResolution, observe_fast() an int (2 =
    # mispredict).
    return result == 2 if isinstance(result, int) \
        else result.outcome.value == "mispredict"


def _l1i_hit(hierarchy: Any, latency: int) -> bool:
    return latency == hierarchy.l1i.config.hit_latency_cycles


def _l1d_hit(hierarchy: Any, latency: int) -> bool:
    return latency == hierarchy.l1d.config.hit_latency_cycles


LAYERS: Tuple[LayerSpec, ...] = (
    ("core.serve_loop", "repro.core.simulator:Simulator.run", None),
    ("core.invariants", "repro.core.simulator:Simulator.check_invariants",
     None),
    ("backend.admit", "repro.backend.core:OutOfOrderBackend.admit", None),
    ("backend.admit", "repro.backend.core:OutOfOrderBackend.admit_inst",
     None),
    ("branch.observe", "repro.branch.predictor:BranchPredictionUnit.observe",
     _mispredicted),
    ("branch.observe",
     "repro.branch.predictor:BranchPredictionUnit.observe_fast",
     _mispredicted),
    ("uopcache.lookup", "repro.uopcache.cache:UopCache.lookup", _is_hit),
    ("uopcache.lookup", "repro.uopcache.cache:UopCache.lookup_fast", _is_hit),
    ("uopcache.fill", "repro.uopcache.cache:UopCache.fill", None),
    ("uopcache.accumulate",
     "repro.uopcache.builder:AccumulationBuffer.begin", None),
    ("uopcache.accumulate",
     "repro.uopcache.builder:AccumulationBuffer.push", None),
    ("uopcache.accumulate",
     "repro.uopcache.builder:AccumulationBuffer.flush", None),
    ("caches.ifetch",
     "repro.caches.hierarchy:MemoryHierarchy.fetch_instruction_line",
     _l1i_hit),
    ("caches.ifetch",
     "repro.caches.hierarchy:MemoryHierarchy.fetch_instruction_line_fast",
     _l1i_hit),
    ("caches.dfetch", "repro.caches.hierarchy:MemoryHierarchy.access_data",
     _l1d_hit),
    ("caches.dfetch",
     "repro.caches.hierarchy:MemoryHierarchy.access_data_fast", _l1d_hit),
    ("workloads.program_image", "repro.workloads.suite:get_workload", None),
    ("workloads.trace", "repro.core.experiment:workload_trace", None),
    ("runner.execute_job", "repro.runner.executor:execute_job", None),
    ("service.parse", "repro.service.protocol:JobSpec.from_dict", None),
    ("service.key", "repro.service.protocol:JobSpec.key", None),
    ("service.store_get", "repro.service.store:ResultStore.get", _is_hit),
    ("service.store_put", "repro.service.store:ResultStore.put", None),
    ("service.execute", "repro.service.server:SimulationService.execute",
     None),
    ("service.pool_wait", "repro.service.supervisor:WorkerPool.run_batch",
     None),
)

#: Layers whose span is one whole job, with the job id taken from the call
#: arguments (None: number the jobs).  The job id tags every span opened
#: inside, and the end of the first job stops the full-span recording used
#: for the Chrome trace.
JOB_LAYERS: Dict[str, Optional[Callable[[Tuple[Any, ...]], str]]] = {
    "runner.execute_job": lambda args: args[0].job_id,
    "service.execute": None,
}

#: Ratio name per classified layer (positives / calls).
RATIOS = {
    "branch.observe": "branch.mispredict_ratio",
    "uopcache.lookup": "uopcache.hit_ratio",
    "caches.ifetch": "caches.l1i_hit_ratio",
    "caches.dfetch": "caches.l1d_hit_ratio",
    "service.store_get": "service.store_hit_ratio",
}

#: Full spans kept for the Chrome trace; one short job stays well below it.
MAX_RECORDED_SPANS = 400_000


class _Frame:
    __slots__ = ("span_id", "child_s")

    def __init__(self, span_id: int) -> None:
        self.span_id = span_id
        self.child_s = 0.0


#: Columns of a per-layer row.
_ROW_KEYS = ("calls", "total_s", "self_s", "positives")


class _ThreadState:
    __slots__ = ("stack", "table", "tid")

    def __init__(self, tid: int) -> None:
        self.stack: List[_Frame] = []
        #: layer -> row in _ROW_KEYS order
        self.table: Dict[str, List[float]] = {}
        self.tid = tid


class Tracer:
    """Span recorder and per-layer aggregator for one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._ids = itertools.count()
        self._jobs = itertools.count()
        self.job_id = ""
        self.recording = True
        #: (span id, parent id or -1, layer, start, end, job id, thread id)
        self.spans: List[Tuple[int, int, str, float, float, str, int]] = []
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------ recording

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _enter(self) -> Tuple[_ThreadState, _Frame, int, float]:
        state = self._state()
        stack = state.stack
        parent = stack[-1].span_id if stack else -1
        frame = _Frame(next(self._ids))  # count() is atomic under the GIL
        stack.append(frame)
        return state, frame, parent, time.perf_counter()

    def _exit(self, name: str, state: _ThreadState, frame: _Frame,
              parent: int, start: float, positive: bool) -> None:
        end = time.perf_counter()
        duration = end - start
        stack = state.stack
        stack.pop()
        if stack:
            stack[-1].child_s += duration
        row = state.table.get(name)
        if row is None:
            row = state.table[name] = [0, 0.0, 0.0, 0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - frame.child_s
        if positive:
            row[3] += 1
        if self.recording:
            if len(self.spans) < MAX_RECORDED_SPANS:
                self.spans.append((frame.span_id, parent, name, start, end,
                                   self.job_id, state.tid))

    @contextlib.contextmanager
    def span(self, name: str, job_id: str = "") -> Iterator[None]:
        """A span opened by the benchmark itself, around a job that no
        single public call encloses."""
        if job_id:
            self.job_id = job_id
        state, frame, parent, start = self._enter()
        try:
            yield
        finally:
            self._exit(name, state, frame, parent, start, False)
            if job_id and self.recording:
                self.end_job()

    def end_job(self) -> None:
        """The first job is over: stop keeping full spans."""
        self.recording = False

    # ------------------------------------------------------------- wrapping

    def _wrap(self, name: str, func: Callable[..., Any],
              classify: Optional[Callable[[Any, Any], bool]]
              ) -> Callable[..., Any]:
        tracer = self
        is_job = name in JOB_LAYERS
        job_of = JOB_LAYERS.get(name)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if is_job:
                tracer.job_id = job_of(args) if job_of is not None \
                    else f"{name}-{next(tracer._jobs)}"
            state, frame, parent, start = tracer._enter()
            result = None
            try:
                result = func(*args, **kwargs)
            finally:
                positive = classify is not None and args and \
                    result is not None and classify(args[0], result)
                tracer._exit(name, state, frame, parent, start,
                             bool(positive))
                if is_job and tracer.recording:
                    tracer.end_job()
            return result

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    def install(self, layers: Tuple[LayerSpec, ...] = LAYERS) -> List[str]:
        """Wrap every layer target; returns the targets that were missing."""
        missing = []
        for name, target, classify in layers:
            module_name, _, path = target.partition(":")
            try:
                owner: Any = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                missing.append(target)
                print(f"perfbench: layer target {target} not found; "
                      f"{name} is not traced through it", file=sys.stderr)
                continue
            if isinstance(raw, property):
                new: Any = property(self._wrap(name, raw.fget, classify))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, classify))
            else:
                new = self._wrap(name, raw, classify)
            setattr(owner, attr, new)
            self._undo.append(
                lambda owner=owner, attr=attr, raw=raw:
                setattr(owner, attr, raw))
        return missing

    def uninstall(self) -> None:
        """Restore every wrapped target (tests trace in-process)."""
        while self._undo:
            self._undo.pop()()

    def reset(self) -> None:
        """Forget everything recorded (a forked worker starts clean)."""
        self._local = threading.local()
        self._lock = threading.Lock()     # another thread may have held it
        self._states = []
        self._ids = itertools.count()
        self.spans = []
        self.recording = True
        self.job_id = ""

    # -------------------------------------------------------------- results

    def layers(self) -> Dict[str, Dict[str, float]]:
        """``layer -> {calls, total_s, self_s, positives}`` over all threads."""
        with self._lock:
            states = list(self._states)
        return merge_layers([
            {name: dict(zip(_ROW_KEYS, row))
             for name, row in list(state.table.items())}
            for state in states])

    def write_chrome_trace(self, path: str) -> None:
        """Write the first job's spans as Chrome trace-event JSON (Perfetto
        loads it; nested spans on one thread render as a flame chart)."""
        spans = sorted(self.spans, key=lambda span: span[3])
        origin = spans[0][3] if spans else 0.0
        events = [{"name": name, "cat": name.split(".")[0], "ph": "X",
                   "ts": (start - origin) * 1e6,
                   "dur": (end - start) * 1e6,
                   "pid": 1, "tid": tid,
                   "args": {"span": span_id, "parent": parent, "job": job}}
                  for span_id, parent, name, start, end, job, tid in spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


def merge_layers(tables: List[Dict[str, Dict[str, float]]]
                 ) -> Dict[str, Dict[str, float]]:
    """Sum per-layer rows from several threads or processes."""
    merged: Dict[str, Dict[str, float]] = {}
    for table in tables:
        for name, row in table.items():
            into = merged.setdefault(name, dict.fromkeys(_ROW_KEYS, 0))
            for key in _ROW_KEYS:
                into[key] += row[key]
    return merged
