"""Crash-safe checkpoint journal for sweep runs.

Every completed job is journaled as one JSON line keyed by its
:attr:`~repro.runner.job.JobSpec.job_id`.  Durability model:

- **Append with line-level fsync.**  ``record`` appends exactly one line and
  fsyncs it, so journaling is O(1) per job regardless of sweep size and a
  kill between records loses nothing.  A kill *during* a record leaves at
  most one torn trailing line.
- **Per-line CRC.**  Every record carries a CRC-32 of its canonical payload,
  so recovery distinguishes "torn write" and "bit rot" from valid data
  instead of trusting whatever still parses.
- **Tail recovery, not tail tolerance.**  ``load`` drops a torn or
  checksum-corrupt *trailing* record with a :class:`ReproWarning` and
  truncates the file back to the last good byte, so later appends continue
  a clean journal rather than concatenating onto garbage.  Corruption
  anywhere *before* the tail cannot be explained by a crash mid-append and
  still raises :class:`CheckpointError`: silently skipping completed work
  would make ``--resume`` re-run jobs nondeterministically.

A journal written by an incompatible format version is rejected with
:class:`~repro.common.errors.CheckpointError` rather than silently resumed.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path
from typing import Dict, Optional, Union

from ..common.errors import CheckpointError, ReproWarning
from ..common.integrity import IntegrityError, decode_envelope, encode_envelope
from ..core.metrics import SimulationResult
from ..telemetry.events import EventKind
from ..telemetry.hub import TelemetryHub

FORMAT_VERSION = 2

JOURNAL_NAME = "journal.jsonl"

PathLike = Union[str, Path]


class CheckpointJournal:
    """Append-only journal of completed sweep jobs."""

    def __init__(self, directory: PathLike,
                 telemetry: Optional[TelemetryHub] = None) -> None:
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_NAME
        self.telemetry = telemetry
        self._records: Dict[str, Dict] = {}   # job_id -> result payload

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._records

    def _recover_tail(self, reason: str, keep_bytes: int) -> None:
        """Drop the torn/corrupt trailing record: warn, emit, truncate."""
        warnings.warn(
            f"checkpoint journal {self.path}: dropping corrupt trailing "
            f"record ({reason}); the journal was truncated to the last "
            "good record and the job will be re-run", ReproWarning,
            stacklevel=3)
        if self.telemetry is not None:
            self.telemetry.emit(EventKind.CHECKPOINT_RECOVERED,
                                path=str(self.path), dropped=1, reason=reason)
        try:
            with open(self.path, "r+b") as handle:
                handle.truncate(keep_bytes)
        except OSError as error:
            raise CheckpointError(
                f"cannot truncate corrupt checkpoint journal {self.path}: "
                f"{error}") from error

    def load(self) -> Dict[str, SimulationResult]:
        """Read the journal from disk; returns ``{job_id: result}``.

        A torn or checksum-corrupt trailing record (a crash mid-append, or
        bit rot in the last line) is dropped with a :class:`ReproWarning`
        and physically truncated away; corruption anywhere else raises
        :class:`CheckpointError`.
        """
        self._records = {}
        if not self.path.exists():
            return {}
        try:
            raw = self.path.read_bytes()
        except OSError as error:
            raise CheckpointError(
                f"cannot read checkpoint journal {self.path}: {error}"
            ) from error
        # Records with their byte offsets, so tail recovery can truncate
        # back to the exact start of the first bad byte.
        entries = []   # (line_number, byte_offset, text)
        offset = 0
        number = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            end = len(raw) if newline < 0 else newline
            number += 1
            text = raw[offset:end].decode("utf-8", errors="replace")
            if text.strip():
                entries.append((number, offset, text))
            if newline < 0:
                break
            offset = newline + 1

        results: Dict[str, SimulationResult] = {}
        for index, (line_number, start, text) in enumerate(entries):
            try:
                payload = decode_envelope(text)
            except IntegrityError as error:
                if index == len(entries) - 1:
                    self._recover_tail(str(error), start)
                    break
                raise CheckpointError(
                    f"corrupt checkpoint journal {self.path} at line "
                    f"{line_number}: {error}") from error
            version = payload.get("version")
            if version != FORMAT_VERSION:
                raise CheckpointError(
                    f"{self.path}: journal format version {version} "
                    f"(expected {FORMAT_VERSION})")
            job_id = payload["job_id"]
            self._records[job_id] = payload["result"]
            results[job_id] = SimulationResult.from_dict(payload["result"])
        return results

    def record(self, job_id: str, result: SimulationResult) -> None:
        """Durably journal one completed job (single fsynced append)."""
        payload = result.to_dict()
        self._records[job_id] = payload
        line = encode_envelope(
            {"version": FORMAT_VERSION, "job_id": job_id,
             "result": payload}) + "\n"
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as error:
            raise CheckpointError(
                f"cannot write checkpoint journal {self.path}: {error}"
            ) from error
