"""The simulation job service: orchestrator + asyncio HTTP/JSON front end.

:class:`SimulationService` is the deduplicating, self-healing core:

1. submissions are canonicalized to content keys (duplicates collapse);
2. the result store answers what it can (``store_hit``), quarantining any
   record that fails its checksum instead of serving it;
3. a store miss is next looked up in the checkpoint journal — store and
   journal are independent persistence layers that *cross-heal*: a
   bit-flipped store record is rewritten byte-identically from the journal
   without recomputation, and a journal lost to a torn write is re-recorded
   from the store;
4. only genuinely unknown specs reach the supervised worker pool, and
   completed results are persisted to both layers before being returned;
5. jobs the pool quarantined come back as *explicit gaps* — the batch
   result names each failed key and its error history rather than
   pretending the sweep succeeded or dying wholesale.

:class:`ServiceServer` puts an HTTP/1.1 JSON API on top using
``asyncio.start_server`` (stdlib only; the protocol parser is deliberately
minimal).  Simulation batches run on a worker thread so the event loop
keeps serving health checks and store reads while the pool grinds; batches
are serialized through a lock because the pool is single-batch by design.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..common.errors import ProtocolError, ServiceError
from ..runner.checkpoint import CheckpointJournal
from ..runner.executor import SweepReport
from ..runner.job import JobSpec
from ..telemetry.hub import TelemetryHub
from .store import ResultStore
from .supervisor import PoolConfig, WorkerPool

PathLike = Union[str, Path]

#: Maximum accepted request body (a batch of specs is tiny; anything larger
#: is a mistake or a hostile client).
MAX_BODY_BYTES = 1 << 20


@dataclass
class ServiceBatchResult:
    """Outcome of one batch: results, cache hits, and explicit gaps."""

    #: ``key -> result payload`` for every job that has a result.
    results: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Keys served straight from the store (no simulation ran).
    cached: List[str] = field(default_factory=list)
    #: ``key -> error history`` for quarantined jobs (the explicit gaps).
    failures: Dict[str, List[str]] = field(default_factory=dict)
    #: Pool execution report for the portion that ran (None if all cached).
    report: Optional[SweepReport] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {
            "results": self.results,
            "cached": list(self.cached),
            "failures": {key: list(errors)
                         for key, errors in self.failures.items()},
            "complete": self.ok,
        }


class SimulationService:
    """Store-backed, journal-healed, pool-sharded job execution."""

    def __init__(self, store_dir: PathLike,
                 checkpoint_dir: Optional[PathLike] = None,
                 pool_config: Optional[PoolConfig] = None,
                 telemetry: Optional[TelemetryHub] = None,
                 faults: Optional[Dict] = None) -> None:
        self.hub = telemetry if telemetry is not None \
            else TelemetryHub(categories=("service",))
        self.store = ResultStore(store_dir, telemetry=self.hub)
        self.journal = CheckpointJournal(checkpoint_dir, telemetry=self.hub) \
            if checkpoint_dir is not None else None
        self.pool = WorkerPool(pool_config or PoolConfig(),
                               telemetry=self.hub, faults=faults)
        self._journal_payloads: Dict[str, Dict[str, Any]] = {}
        self._started = False

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Spawn workers and recover persisted state (journal tail repair)."""
        if self._started:
            raise ServiceError("service already started")
        if self.journal is not None:
            # load() drops a torn/corrupt trailing record with a warning
            # and a checkpoint_recovered event; what survives is verified.
            self._journal_payloads = {
                job_id: result.to_dict()
                for job_id, result in self.journal.load().items()}
        self.pool.start()
        self._started = True

    def close(self) -> None:
        if self._started:
            self.pool.stop()
            self._started = False

    def __enter__(self) -> "SimulationService":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------ submission

    def lookup(self, spec: JobSpec) -> Optional[Dict[str, Any]]:
        """Cached payload for a spec, healing across layers; None on miss."""
        key = spec.key
        payload = self.store.get(key)
        if payload is not None:
            return payload
        healed = self._journal_payloads.get(key)
        if healed is not None:
            # Store lost or corrupted the record but the journal kept it:
            # rewrite the store object (canonical, hence byte-identical to
            # what the original put produced) without recomputing.
            self.store.put(key, healed)
            return healed
        return None

    def execute(self, specs: Sequence[JobSpec]) -> ServiceBatchResult:
        """Run a batch: dedupe, serve from cache, simulate the rest."""
        if not self._started:
            raise ServiceError("service is not started")
        unique: Dict[str, JobSpec] = {}
        for spec in specs:
            unique.setdefault(spec.key, spec)

        batch = ServiceBatchResult()
        misses: List[Tuple[str, JobSpec]] = []
        for key, spec in unique.items():
            payload = self.lookup(spec)
            if payload is not None:
                batch.results[key] = payload
                batch.cached.append(key)
            else:
                misses.append((key, spec))

        if misses:
            results, report = self.pool.run_batch(misses)
            batch.report = report
            for key, result in results.items():
                payload = result.to_dict()
                self.store.put(key, payload)
                if self.journal is not None:
                    self.journal.record(key, result)
                    self._journal_payloads[key] = payload
                batch.results[key] = payload
            for failure in report.quarantined:
                batch.failures[failure.job_id] = list(failure.errors)
        return batch

    # ----------------------------------------------------------------- stats

    def stats(self) -> Dict[str, Any]:
        return {
            "workers": self.pool.config.workers,
            "store_records": len(self.store),
            "journal_records": (len(self.journal)
                                if self.journal is not None else 0),
            "events": self.hub.summary(),
        }


# ------------------------------------------------------------- HTTP front end

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error"}


class ServiceServer:
    """Minimal asyncio HTTP/1.1 JSON API over a :class:`SimulationService`.

    Routes:

    - ``GET  /health``        liveness + counters
    - ``GET  /result/<key>``  stored payload or 404
    - ``POST /submit``        ``{"jobs": [...]}`` -> keys + cached flags
      (a dry lookup: nothing is scheduled)
    - ``POST /run``           ``{"jobs": [...]}`` -> full batch execution
      with explicit-gap partial results
    """

    def __init__(self, service: SimulationService,
                 host: str = "127.0.0.1", port: int = 0,
                 default_engine: str = "synthetic",
                 default_engine_params: Optional[Mapping[str, Any]] = None
                 ) -> None:
        self.service = service
        self.host = host
        self.port = port
        #: Engine injected into job specs that do not name one themselves
        #: (``repro serve --engine ...``).  A spec's own "engine" field
        #: always wins, so mixed-engine batches still work.
        self.default_engine = default_engine
        self.default_engine_params = dict(default_engine_params or {})
        self._server: Optional[asyncio.AbstractServer] = None
        self._batch_lock: Optional[asyncio.Lock] = None

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        self._batch_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port)
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -------------------------------------------------------------- protocol

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            status, payload = await self._respond(reader)
        except ProtocolError as error:
            status, payload = 400, {"error": str(error)}
        except Exception as error:   # the service must outlive bad requests
            status, payload = 500, {"error": f"{type(error).__name__}: "
                                             f"{error}"}
        body = json.dumps(payload).encode("utf-8")
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass     # client hung up before the answer; nothing to salvage
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass     # close raced the client's reset; already gone

    async def _respond(self, reader: asyncio.StreamReader
                       ) -> Tuple[int, Dict[str, Any]]:
        request_line = (await _read_line(reader)).decode("ascii",
                                                         errors="replace")
        parts = request_line.split()
        if len(parts) != 3:
            raise ProtocolError(f"malformed request line {request_line!r}")
        method, target = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("ascii", errors="replace") \
                                 .partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError as error:
                    raise ProtocolError("bad Content-Length") from error
                if content_length < 0:
                    raise ProtocolError("bad Content-Length")
        if content_length > MAX_BODY_BYTES:
            return 413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}
        try:
            body = await reader.readexactly(content_length)
        except asyncio.IncompleteReadError as error:
            raise ProtocolError(
                f"body ended after {len(error.partial)} of "
                f"{content_length} bytes") from error
        return await self._route(method, target, body)

    async def _route(self, method: str, target: str, body: bytes
                     ) -> Tuple[int, Dict[str, Any]]:
        # Every store/journal touch reads (and sometimes heals, i.e.
        # writes) disk, so each one runs off the loop: a slow disk must
        # never stall health checks for every connected client (simlint A1
        # enforces this transitively).
        loop = asyncio.get_running_loop()
        if target == "/health" and method == "GET":
            stats = await loop.run_in_executor(None, self.service.stats)
            stats["status"] = "ok"
            return 200, stats
        if target.startswith("/result/") and method == "GET":
            key = target[len("/result/"):]
            payload = await loop.run_in_executor(
                None, self.service.store.get, key)
            if payload is None:
                return 404, {"error": f"no result for key {key!r}"}
            return 200, {"key": key, "result": payload}
        if target == "/submit" and method == "POST":
            specs = _parse_jobs(body, self.default_engine,
                                self.default_engine_params)
            jobs = await loop.run_in_executor(None, self._dry_lookup,
                                              specs)
            return 200, {"jobs": jobs}
        if target == "/run" and method == "POST":
            specs = _parse_jobs(body, self.default_engine,
                                self.default_engine_params)
            assert self._batch_lock is not None
            async with self._batch_lock:     # the pool is single-batch
                batch = await loop.run_in_executor(
                    None, self.service.execute, specs)
            payload = batch.to_dict()
            payload["keys"] = [spec.key for spec in specs]
            return 200, payload
        if target in ("/health", "/submit", "/run") or \
                target.startswith("/result/"):
            return 405, {"error": f"{method} not allowed on {target}"}
        return 404, {"error": f"unknown route {target}"}

    def _dry_lookup(self, specs: Sequence[JobSpec]
                    ) -> List[Dict[str, Any]]:
        """The /submit answer: store/journal lookups only, no scheduling.

        Runs on a worker thread — :meth:`SimulationService.lookup` reads
        the store and may heal it from the journal, both disk operations.
        """
        return [{"key": spec.key,
                 "cached": self.service.lookup(spec) is not None}
                for spec in specs]


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request or header line.  A line longer than the stream's buffer
    limit (64 KiB by default) makes ``readline`` raise ``ValueError``; that
    is the client's error, so it becomes a 400."""
    try:
        return await reader.readline()
    except ValueError as error:
        raise ProtocolError(
            f"request or header line too long: {error}") from error


def _parse_jobs(body: bytes, default_engine: str = "synthetic",
                default_engine_params: Optional[Mapping[str, Any]] = None
                ) -> List[JobSpec]:
    try:
        payload = json.loads(body or b"null")
    except json.JSONDecodeError as error:
        raise ProtocolError(f"request body is not JSON: {error}") from error
    if not isinstance(payload, dict) or "jobs" not in payload:
        raise ProtocolError('request body must be {"jobs": [...]}')
    jobs = payload["jobs"]
    if not isinstance(jobs, list) or not jobs:
        raise ProtocolError('"jobs" must be a non-empty list')
    specs: List[JobSpec] = []
    for item in jobs:
        if isinstance(item, dict) and "engine" not in item and \
                default_engine != "synthetic":
            item = dict(item)
            item["engine"] = default_engine
            if default_engine_params and "engine_params" not in item:
                item["engine_params"] = dict(default_engine_params)
        specs.append(JobSpec.from_dict(item))
    return specs
