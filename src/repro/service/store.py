"""Content-addressed, checksummed, atomic result store.

Layout: one file per result under ``objects/<key[:2]>/<key>.json``, where
``key`` is the :attr:`~repro.runner.job.JobSpec.key` content hash.
Records use the shared checksummed envelope
(:mod:`repro.common.integrity`) over a canonical body, so:

- **writes are atomic** — temp file + fsync + ``os.replace``; a kill at any
  point leaves either the old record, the new record, or no record, never a
  torn one;
- **equal results are byte-equal files** — canonical JSON makes the store a
  checkable artifact: the chaos harness diffs two stores byte-for-byte;
- **corruption is detected, never served** — a record that fails its CRC
  (or names the wrong key) is *quarantined*: moved aside under
  ``quarantine/``, reported with a :class:`ReproWarning` and a
  ``store_corrupt`` telemetry event, and treated as a miss so the caller
  recomputes or heals it from the checkpoint journal.  Corrupt data is
  never returned as a result.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..common.errors import ReproWarning, StoreError
from ..common.integrity import IntegrityError, decode_envelope, encode_envelope
from ..telemetry.events import EventKind
from ..telemetry.hub import TelemetryHub

STORE_FORMAT = 1

PathLike = Union[str, Path]


class ResultStore:
    """Persistent ``key -> result payload`` map with integrity checking."""

    def __init__(self, directory: PathLike,
                 telemetry: Optional[TelemetryHub] = None) -> None:
        self.directory = Path(directory)
        self.objects_dir = self.directory / "objects"
        self.quarantine_dir = self.directory / "quarantine"
        self.telemetry = telemetry

    # ------------------------------------------------------------------ paths

    def object_path(self, key: str) -> Path:
        self._check_key(key)
        return self.objects_dir / key[:2] / f"{key}.json"

    @staticmethod
    def _check_key(key: str) -> None:
        if len(key) < 3 or not all(c in "0123456789abcdef" for c in key):
            raise StoreError(f"malformed store key {key!r}")

    # -------------------------------------------------------------------- api

    def put(self, key: str, payload: Dict[str, Any]) -> Path:
        """Durably persist one result (atomic write; idempotent)."""
        path = self.object_path(key)
        record = encode_envelope(
            {"format": STORE_FORMAT, "key": key, "payload": payload}) + "\n"
        data = record.encode("utf-8")
        try:
            if path.exists() and path.read_bytes() == data:
                return path      # identical record already on disk
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp_path = path.with_suffix(".json.tmp")
            with open(tmp_path, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except OSError as error:
            raise StoreError(
                f"cannot write store record {path}: {error}") from error
        return path

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload, or ``None`` on miss *or* corruption.

        A record that fails integrity checking is quarantined and reported;
        returning ``None`` makes corruption indistinguishable from a miss
        to the caller, which is exactly right: the result must be recomputed
        or healed, never trusted.
        """
        path = self.object_path(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as error:
            raise StoreError(
                f"cannot read store record {path}: {error}") from error
        try:
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as error:
                raise IntegrityError(f"record is not UTF-8 ({error})") \
                    from error
            record = decode_envelope(text.strip())
            if record.get("format") != STORE_FORMAT:
                raise IntegrityError(
                    f"store format {record.get('format')!r} "
                    f"(expected {STORE_FORMAT})")
            if record.get("key") != key:
                raise IntegrityError(
                    f"record names key {record.get('key')!r}")
            payload = record["payload"]
            if not isinstance(payload, dict):
                raise IntegrityError("record payload is not an object")
        except IntegrityError as error:
            self._quarantine(key, path, str(error))
            return None
        if self.telemetry is not None:
            self.telemetry.emit(EventKind.STORE_HIT, key=key)
        return payload

    def __contains__(self, key: str) -> bool:
        return self.object_path(key).exists()

    def __len__(self) -> int:
        return len(self.keys())

    def keys(self) -> List[str]:
        """Every stored key, sorted (deterministic iteration)."""
        if not self.objects_dir.exists():
            return []
        return sorted(path.stem
                      for path in self.objects_dir.glob("*/*.json"))

    # --------------------------------------------------------------- recovery

    def _quarantine(self, key: str, path: Path, reason: str) -> None:
        """Move a corrupt record aside; it stays inspectable, not servable."""
        warnings.warn(
            f"result store record {path} is corrupt ({reason}); "
            "quarantined and treated as a miss — the result will be "
            "recomputed or healed from the journal, corrupt data is never "
            "served", ReproWarning, stacklevel=3)
        if self.telemetry is not None:
            self.telemetry.emit(EventKind.STORE_CORRUPT, key=key,
                                reason=reason)
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except OSError as error:
            raise StoreError(
                f"cannot quarantine corrupt store record {path}: {error}"
            ) from error

    # ------------------------------------------------------------ comparison

    def snapshot(self) -> Dict[str, bytes]:
        """``relative path -> bytes`` of every live object, sorted.

        The unit of byte-equivalence checking: two stores holding the same
        results produce identical snapshots because records are canonical.
        Quarantined files are deliberately excluded — they are corpses kept
        for inspection, not part of the store's served state.
        """
        snapshot: Dict[str, bytes] = {}
        if not self.objects_dir.exists():
            return snapshot
        for path in sorted(self.objects_dir.glob("*/*.json")):
            snapshot[str(path.relative_to(self.objects_dir))] = \
                path.read_bytes()
        return snapshot
