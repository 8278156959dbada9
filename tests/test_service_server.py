"""Tests for the simulation service orchestrator and its HTTP front end:
dedup caching, store/journal cross-healing, explicit gaps, and the API."""

import asyncio
import json

import pytest

from repro.common.errors import ReproWarning, ServiceError
from repro.service.protocol import JobSpec
from repro.service.server import (
    MAX_BODY_BYTES,
    ServiceServer,
    SimulationService,
)
from repro.service.supervisor import PoolConfig

INSTRUCTIONS = 1200


def _spec(workload="bm-x64", design="baseline"):
    return JobSpec(workload=workload, design=design,
                   num_instructions=INSTRUCTIONS, seed=7)


def _config(**overrides):
    base = dict(workers=2, retries=2, deadline_seconds=30.0,
                retry_backoff_seconds=0.01, restart_backoff_seconds=0.01)
    base.update(overrides)
    return PoolConfig(**base)


def _service(tmp_path, **kwargs):
    kwargs.setdefault("pool_config", _config())
    return SimulationService(tmp_path / "store",
                             checkpoint_dir=tmp_path / "ckpt", **kwargs)


class TestSimulationService:
    def test_execute_dedupes_and_caches(self, tmp_path):
        spec = _spec()
        with _service(tmp_path) as service:
            first = service.execute([spec, spec])
            assert first.ok and not first.cached
            assert list(first.results) == [spec.key]
            again = service.execute([spec])
            assert again.cached == [spec.key]
            assert again.results == first.results
            assert again.report is None    # nothing reached the pool

    def test_results_survive_service_restart(self, tmp_path):
        spec = _spec()
        with _service(tmp_path) as service:
            before = service.execute([spec]).results[spec.key]
        with _service(tmp_path) as revived:
            after = revived.execute([spec])
            assert after.cached == [spec.key]
            assert after.results[spec.key] == before

    def test_corrupt_store_record_heals_from_journal(self, tmp_path):
        spec = _spec()
        with _service(tmp_path) as service:
            service.execute([spec])
            path = service.store.object_path(spec.key)
            pristine = path.read_bytes()
            path.write_bytes(pristine[:-6] + b"zzzzz\n")
        with _service(tmp_path) as revived:
            with pytest.warns(ReproWarning, match="corrupt"):
                batch = revived.execute([spec])
            # Healed from the journal without recomputation, byte-identical.
            assert batch.cached == [spec.key]
            assert revived.store.object_path(spec.key).read_bytes() == \
                pristine

    def test_lost_store_object_heals_from_journal(self, tmp_path):
        spec = _spec()
        with _service(tmp_path) as service:
            service.execute([spec])
            pristine = service.store.object_path(spec.key).read_bytes()
            service.store.object_path(spec.key).unlink()
        with _service(tmp_path) as revived:
            batch = revived.execute([spec])
            assert batch.cached == [spec.key]
            assert revived.store.object_path(spec.key).read_bytes() == \
                pristine

    def test_quarantined_jobs_are_explicit_gaps(self, tmp_path):
        good, bad = _spec(), _spec(design="clasp")
        with _service(tmp_path, pool_config=_config(retries=0),
                      faults={bad.key: [{"crash": True}]}) as service:
            batch = service.execute([good, bad])
        assert not batch.ok
        assert good.key in batch.results
        assert bad.key not in batch.results
        assert any("injected" in error
                   for error in batch.failures[bad.key])
        assert batch.to_dict()["complete"] is False

    def test_execute_requires_start(self, tmp_path):
        service = _service(tmp_path)
        with pytest.raises(ServiceError, match="not started"):
            service.execute([_spec()])

    def test_stats_counts_layers(self, tmp_path):
        spec = _spec()
        with _service(tmp_path) as service:
            service.execute([spec])
            stats = service.stats()
        assert stats["store_records"] == 1
        assert stats["journal_records"] == 1


# ---------------------------------------------------------------- HTTP layer

async def _request(port, method, target, payload=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(payload).encode() if payload is not None else b""
    head = (f"{method} {target} HTTP/1.1\r\n"
            f"Host: localhost\r\nContent-Length: {len(body)}\r\n"
            f"\r\n").encode()
    writer.write(head + body)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":")[1])
    data = await reader.readexactly(length)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return status, json.loads(data)


async def _raw_status(port, data, eof=False):
    """Send raw request bytes (then EOF, if asked); the response status."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(data)
    if eof:
        writer.write_eof()
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    writer.close()
    return status


@pytest.fixture()
def served(tmp_path):
    """A started service + server; yields (port, service) to async tests."""
    service = _service(tmp_path)
    service.start()
    server = ServiceServer(service)

    async def run(scenario):
        await server.start()
        try:
            return await scenario(server.port, service)
        finally:
            await server.stop()

    try:
        yield lambda scenario: asyncio.run(run(scenario))
    finally:
        service.close()


JOB = {"workload": "bm-x64", "num_instructions": INSTRUCTIONS}


class TestParseJobsEngineDefaults:
    """The serve-level default engine is injected into bare specs only."""

    @staticmethod
    def _body(*jobs):
        return json.dumps({"jobs": list(jobs)}).encode("utf-8")

    def test_default_engine_injected_when_spec_omits_one(self):
        from repro.service.server import _parse_jobs
        specs = _parse_jobs(self._body({"workload": "bm-x64"}),
                            "adv-smc", {"lines": 4})
        assert specs[0].engine == "adv-smc"
        assert specs[0].engine_params == (("lines", 4),)

    def test_spec_engine_always_wins(self):
        from repro.service.server import _parse_jobs
        specs = _parse_jobs(
            self._body({"workload": "bm-x64", "engine": "synthetic"}),
            "adv-smc", {"lines": 4})
        assert specs[0].engine == "synthetic"
        assert specs[0].engine_params == ()

    def test_synthetic_default_leaves_submissions_untouched(self):
        from repro.service.server import _parse_jobs
        specs = _parse_jobs(self._body({"workload": "bm-x64"}))
        assert specs[0] == JobSpec(workload="bm-x64")


class TestServiceServer:
    def test_health(self, served):
        async def scenario(port, _service):
            return await _request(port, "GET", "/health")
        status, payload = served(scenario)
        assert status == 200 and payload["status"] == "ok"

    def test_submit_then_run_then_result(self, served):
        async def scenario(port, _service):
            submit = await _request(port, "POST", "/submit",
                                    {"jobs": [JOB]})
            run1 = await _request(port, "POST", "/run", {"jobs": [JOB]})
            run2 = await _request(port, "POST", "/run", {"jobs": [JOB]})
            key = run1[1]["keys"][0]
            result = await _request(port, "GET", f"/result/{key}")
            return submit, run1, run2, key, result
        submit, run1, run2, key, result = served(scenario)
        assert submit[0] == 200
        assert submit[1]["jobs"][0]["cached"] is False
        assert run1[0] == 200 and run1[1]["complete"]
        assert key in run1[1]["results"] and not run1[1]["cached"]
        assert run2[1]["cached"] == [key]   # duplicate = free cache hit
        assert run2[1]["results"] == run1[1]["results"]
        assert result[0] == 200
        assert result[1]["result"] == run1[1]["results"][key]

    def test_result_miss_is_404(self, served):
        async def scenario(port, _service):
            return await _request(port, "GET", "/result/" + "ab" * 32)
        status, payload = served(scenario)
        assert status == 404 and "no result" in payload["error"]

    def test_unknown_route_is_404(self, served):
        async def scenario(port, _service):
            return await _request(port, "GET", "/nope")
        assert served(scenario)[0] == 404

    def test_wrong_method_is_405(self, served):
        async def scenario(port, _service):
            return await _request(port, "GET", "/run")
        assert served(scenario)[0] == 405

    def test_bad_spec_is_400(self, served):
        async def scenario(port, _service):
            return await _request(port, "POST", "/run",
                                  {"jobs": [{"workload": "nope"}]})
        status, payload = served(scenario)
        assert status == 400 and "unknown workload" in payload["error"]

    def test_non_json_body_is_400(self, served):
        async def scenario(port, _service):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            writer.write(b"POST /run HTTP/1.1\r\nContent-Length: 3\r\n"
                         b"\r\n{{{")
            await writer.drain()
            status = int((await reader.readline()).split()[1])
            writer.close()
            return status
        assert served(scenario) == 400

    def test_negative_content_length_is_400(self, served):
        async def scenario(port, _service):
            return await _raw_status(
                port, b"POST /run HTTP/1.1\r\nContent-Length: -1\r\n\r\n")
        assert served(scenario) == 400

    def test_body_shorter_than_content_length_is_400(self, served):
        async def scenario(port, _service):
            return await _raw_status(
                port, b"POST /run HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}",
                eof=True)
        assert served(scenario) == 400

    def test_header_line_over_the_stream_limit_is_400(self, served):
        async def scenario(port, _service):
            return await _raw_status(
                port, b"POST /run HTTP/1.1\r\nX-Padding: " +
                b"a" * (64 * 1024 + 100) + b"\r\n\r\n")
        assert served(scenario) == 400

    def test_empty_jobs_is_400(self, served):
        async def scenario(port, _service):
            return await _request(port, "POST", "/run", {"jobs": []})
        assert served(scenario)[0] == 400

    def test_oversized_body_is_413(self, served):
        async def scenario(port, _service):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            writer.write(b"POST /run HTTP/1.1\r\n"
                         b"Content-Length: %d\r\n\r\n"
                         % (MAX_BODY_BYTES + 1))
            await writer.drain()
            status = int((await reader.readline()).split()[1])
            writer.close()
            return status
        assert served(scenario) == 413
