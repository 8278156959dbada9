"""Loop cache (loop buffer): serves uops of tiny hot loops (Section II-A).

The loop cache captures loops whose body fits within ``capacity_uops`` after
the same backward-taken branch has been observed ``min_iterations_to_capture``
times in a row.  While a captured loop stays "locked", its uops are delivered
without touching the I-cache, decoder *or* uop cache — the most
energy-efficient supply path.  Any control flow leaving the loop body unlocks
it.

The paper's evaluation focuses on the uop cache, so the simulator disables
the loop cache by default; it is implemented (and tested) as part of the
front-end substrate and can be enabled through :class:`LoopCacheConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..common.config import LoopCacheConfig
from ..telemetry.events import EventKind
from ..telemetry.hub import TelemetryHub


@dataclass(frozen=True)
class _LoopKey:
    branch_pc: int
    target_pc: int


class LoopCache:
    """Detects and locks onto short backward loops."""

    def __init__(self, config: Optional[LoopCacheConfig] = None,
                 telemetry: Optional[TelemetryHub] = None) -> None:
        self.config = config or LoopCacheConfig()
        self._telemetry = telemetry
        self._streak: Dict[_LoopKey, int] = {}
        self._active: Optional[_LoopKey] = None
        self._active_uops = 0
        self.captures = 0
        self.uops_served = 0
        self.exits = 0

    @property
    def active(self) -> bool:
        return self._active is not None

    @property
    def active_target(self) -> Optional[int]:
        """Loop body start PC while locked, else None."""
        return self._active.target_pc if self._active else None

    @property
    def active_branch_pc(self) -> Optional[int]:
        """The locked loop's backward branch PC, else None."""
        return self._active.branch_pc if self._active else None

    def observe_taken_branch(self, branch_pc: int, target_pc: int,
                             body_uops: int) -> bool:
        """Report a resolved taken branch; returns True if the loop cache is
        (now) serving this loop.

        ``body_uops`` is the uop count of one iteration (target..branch).
        """
        if not self.config.enabled:
            return False
        if target_pc >= branch_pc:           # not a backward branch
            self._note_exit()
            return False
        key = _LoopKey(branch_pc, target_pc)
        if self._active == key:
            self.uops_served += body_uops
            if self._telemetry is not None:
                self._telemetry.emit(EventKind.LOOP_REPLAY,
                                     branch_pc=branch_pc, uops=body_uops)
            return True
        # A different taken branch means control flow left any locked loop.
        self._note_exit()
        if body_uops > self.config.capacity_uops:
            return False
        streak = self._streak.get(key, 0) + 1
        self._streak[key] = streak
        if streak >= self.config.min_iterations_to_capture:
            self._note_exit()
            self._active = key
            self._active_uops = body_uops
            self.captures += 1
            self.uops_served += body_uops
            if self._telemetry is not None:
                self._telemetry.emit(EventKind.LOOP_CAPTURE,
                                     branch_pc=branch_pc,
                                     target_pc=target_pc,
                                     body_uops=body_uops)
            return True
        return False

    def observe_other_flow(self) -> None:
        """Any non-loop control flow: unlock and reset streaks lazily."""
        if not self.config.enabled:
            return
        self._note_exit()
        self._streak.clear()

    def _note_exit(self) -> None:
        if self._active is not None:
            self.exits += 1
            if self._telemetry is not None:
                self._telemetry.emit(EventKind.LOOP_EXIT,
                                     branch_pc=self._active.branch_pc)
            self._active = None
            self._active_uops = 0

    def snapshot(self) -> Dict[str, int]:
        """Flat counter view (captures/served/exits) for external checkers."""
        return {
            "loop_captures": self.captures,
            "loop_uops_served": self.uops_served,
            "loop_exits": self.exits,
        }
