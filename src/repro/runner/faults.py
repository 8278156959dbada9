"""Deterministic fault injection for sweeps and the worker pool.

Tests (and operators debugging the runner) need to *prove* that the retry,
quarantine, timeout and resume paths work, which requires making specific
jobs fail in specific ways on specific attempts.  A fault is a *directive*,
a small dict executed by :func:`apply_fault` just before the job runs:
``{"crash": True}``, ``{"kill": True}``, ``{"hang": seconds}`` or
``{"freeze": seconds}``.  The worker pool takes a list of directives per
job, one per leading attempt (the chaos harness builds such lists), and the
serial sweep runs the same function in-process.

A :class:`FaultPlan` is the sweep's schedule: it maps job ids to the number
of leading attempts that should crash or hang, and :meth:`FaultPlan.schedule`
turns that into directives.  Once a job's budgeted faults are exhausted,
later attempts run normally — which is exactly the shape of a transient
failure the retry machinery exists for.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping

from ..common.errors import InjectedFaultError


def apply_fault(fault: Mapping[str, Any]) -> None:
    """Execute one fault directive in the current process."""
    if fault.get("crash"):
        raise InjectedFaultError("injected in-process crash")
    if fault.get("kill"):
        # Process-level death mid-job: no cleanup, no goodbye — exactly
        # what SIGKILL from an OOM killer or operator looks like.
        os.kill(os.getpid(), signal.SIGKILL)
    hang = float(fault.get("hang", 0.0) or 0.0)
    if hang > 0.0:
        time.sleep(hang)     # heartbeats keep flowing; the deadline trips
    freeze = float(fault.get("freeze", 0.0) or 0.0)
    if freeze > 0.0:
        time.sleep(freeze)   # heartbeats were suppressed; the monitor trips


@dataclass(frozen=True)
class FaultPlan:
    """Which jobs fail, how, and for how many attempts.

    ``crash[job_id] = n`` makes attempts ``0..n-1`` raise
    :class:`InjectedFaultError`; ``hang[job_id] = n`` makes attempts
    ``0..n-1`` sleep for ``hang_seconds`` (long enough to trip the runner's
    per-job timeout).  Crash faults are applied before hang faults.
    """

    crash: Mapping[str, int] = field(default_factory=dict)
    hang: Mapping[str, int] = field(default_factory=dict)
    hang_seconds: float = 30.0

    def schedule(self, job_ids: Iterable[str]
                 ) -> Dict[str, List[Dict[str, Any]]]:
        """Per-attempt fault directives of every faulted job in
        ``job_ids``: its crashes first, then the hangs left over."""
        plans: Dict[str, List[Dict[str, Any]]] = {}
        for job_id in job_ids:
            crashes = self.crash.get(job_id, 0)
            hangs = max(0, self.hang.get(job_id, 0) - crashes)
            if crashes or hangs:
                plans[job_id] = [{"crash": True}] * crashes + \
                    [{"hang": self.hang_seconds}] * hangs
        return plans
