"""One benchmark workload, run in a fresh process.

``run.py`` starts this script once per measured run (plus a few set-up-only
starts).  It imports what the workload's public entry point needs, prints
``READY`` (the end of set-up, timed by the parent from spawn), then repeats
the workload's *unit* until ``--seconds`` have passed and prints one JSON
line of raw samples for the parent to turn into metrics.

Every unit of a run does the same work: the in-process units clear the
trace and program-image caches first, as a freshly started CLI process
has them, and reuse the run's seed, so they must also produce identical
result digests.  Repeating identical work lets the parent take each job's
best time over the units (see run.py).

Workloads (sizes at full scale; ``--scale quick`` divides them by 20):

- ``policy-sweep``: ``run_policy_sweep`` over four Table II workloads x the
  five designs, 15k instructions with 3k warmup, serial, CLI defaults.
  Each trace is shared by five designs, so simulation dominates and the
  uop-cache lookup path is hot (hit ratio about 0.9).
- ``table2-cold``: the ``repro table2 --measure`` path: ``workload_trace``
  then a baseline ``Simulator.run`` for all 13 Table II workloads at 10k
  instructions, nothing shared, so program-image build and trace walk carry
  about half the time.
- ``fragment-thrash``: ``run_policy_sweep`` with the ``adv-fragment`` and
  ``adv-pwconflict`` engines x five designs at 12k instructions: few
  uop-cache hits, so fills, accumulation, I-fetch and mispredicts dominate.
- ``service-mix``: ``repro serve --port 0 --workers 2`` with a fresh store,
  driven by two client threads in a closed loop.  Each client cycle is 10
  ``POST /run`` batches of 4 stored specs (hits) and one batch of 2 new
  15k-instruction specs (a store miss the pool computes); the clients take
  turns to send misses, so a miss never waits for another.  A unit is a
  round of :data:`CYCLES_PER_ROUND` cycles per client; every round sends
  the same request sequence, with new seeds so its misses stay misses.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import http.client
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("policy-sweep", "table2-cold", "fragment-thrash", "service-mix")

#: Instructions per job at full scale.
SIZES = {"policy-sweep": 15_000, "table2-cold": 10_000,
         "fragment-thrash": 12_000, "service-mix": 15_000}
SCALE_DIVISORS = {"full": 1, "quick": 20}

SWEEP_WORKLOADS = ("bm-x64", "redis", "bm-lla", "bm-z")
DESIGNS = ("baseline", "clasp", "rac", "pwac", "f-pwac")
FRAGMENT_ENGINES = ("adv-fragment", "adv-pwconflict")

#: Service-mix traffic shape.
CLIENTS = 2
#: Short rounds give each miss slot (client, cycle) about a dozen samples
#: in a 20 s run, so its best time lands near its floor; three cycles
#: still send every workload and design as a miss.
CYCLES_PER_ROUND = 3
HITS_PER_CYCLE = 10
HIT_BATCH = 4
MISS_BATCH = 2
POOL = tuple((workload, design) for workload in SWEEP_WORKLOADS
             for design in ("baseline", "f-pwac"))
#: Rounds whose miss digests expected.json holds (default seed).
EXPECTED_ROUNDS = 20


def digest(payload: Dict[str, Any]) -> str:
    """Short SHA-256 of a result's canonical JSON (the serialize step)."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:20]


def load_expected(workload: str, scale: str, seed: int) -> Dict[str, str]:
    """Committed digests for this workload, or {} for a non-default seed."""
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        expected = json.load(f)
    if seed != expected["seed"]:
        return {}
    return expected["digests"][scale][workload]


class Unit:
    """Raw samples of one unit."""

    def __init__(self) -> None:
        self.jobs: Dict[str, float] = {}      # job id -> wall s
        self.digests: Dict[str, str] = {}
        self.errors: List[str] = []
        self.wall = 0.0


# ------------------------------------------------------------ in-process

class SweepWorkload:
    """``run_policy_sweep`` calls, one per engine, timed per job through the
    public ``progress`` callback."""

    def __init__(self, workloads: Tuple[str, ...], engines: Tuple[str, ...],
                 instructions: int, warmup: int, seed: int) -> None:
        from repro.core import experiment
        from repro.runner.executor import RunnerConfig
        from repro.runner.job import build_policy_jobs
        from repro.workloads import suite
        self.experiment = experiment
        self.suite = suite
        self.runner = RunnerConfig()
        self.sweeps = [(engine, build_policy_jobs(
            workloads, DESIGNS, 2048, 2, instructions, warmup, seed,
            engine=engine)) for engine in engines]
        self.workloads = workloads
        self.instructions = instructions
        self.warmup = warmup
        self.seed = seed

    def run_unit(self, tracer: Any) -> Unit:
        unit = Unit()
        start = time.perf_counter()
        self.experiment.clear_trace_cache()
        self.suite.clear_workload_cache()
        for engine, jobs in self.sweeps:
            stamps = [time.perf_counter()]
            sweep = self.experiment.run_policy_sweep(
                workloads=self.workloads,
                num_instructions=self.instructions,
                warmup_instructions=self.warmup, seed=self.seed,
                runner=self.runner, engine=engine,
                progress=lambda _line: stamps.append(time.perf_counter()))
            for failure in sweep.report.quarantined:
                unit.errors.append(f"quarantined {failure.job_id}: "
                                   f"{failure.errors[-1]}")
            # Results come back in canonical job order, keyed by trace name
            # (an engine may rename the workload).
            results = [result for by_label in sweep.results.values()
                       for result in by_label.values()]
            if [r.config_label for r in results] != \
                    [job.label for job in jobs]:
                unit.errors.append(f"{engine} sweep returned "
                                   f"{len(results)} of {len(jobs)} results")
                continue
            for index, (job, result) in enumerate(zip(jobs, results)):
                serialize_start = time.perf_counter()
                unit.digests[job.job_id] = digest(result.to_dict())
                unit.jobs[job.job_id] = \
                    stamps[index + 1] - stamps[index] + \
                    time.perf_counter() - serialize_start
        unit.wall = time.perf_counter() - start
        return unit

    def cross_check(self, digests: Dict[str, str]) -> List[str]:
        """Recompute each sweep's first job through the fast serve loop."""
        import dataclasses
        from repro.core.simulator import Simulator
        errors = []
        for engine, jobs in self.sweeps:
            job = jobs[0]
            config = dataclasses.replace(
                self.experiment.policy_config(job.label),
                warmup_instructions=self.warmup).with_fast_mode()
            trace = self.experiment.workload_trace(
                job.workload, self.instructions, seed=self.seed,
                engine=engine)
            result = Simulator(trace, config, job.label).run()
            if digest(result.to_dict()) != digests.get(job.job_id):
                errors.append(f"{job.job_id}: fast loop disagrees with the "
                              "sweep result")
        return errors


class Table2Workload:
    """The ``repro table2 --measure`` loop: trace + baseline run, per
    workload, nothing shared."""

    def __init__(self, instructions: int, seed: int) -> None:
        from repro.core import experiment
        from repro.core.simulator import Simulator
        from repro.workloads import suite
        self.experiment = experiment
        self.suite = suite
        self.simulator = Simulator
        self.config = experiment.policy_config("baseline", 2048)
        self.names = suite.WORKLOAD_NAMES
        self.instructions = instructions
        self.seed = seed

    def _job(self, name: str) -> str:
        trace = self.experiment.workload_trace(name, self.instructions,
                                               seed=self.seed)
        return digest(self.simulator(trace, self.config, "b").run().to_dict())

    def run_unit(self, tracer: Any) -> Unit:
        unit = Unit()
        start = time.perf_counter()
        self.experiment.clear_trace_cache()
        self.suite.clear_workload_cache()
        for name in self.names:
            job_id = f"{name}/baseline"
            job_start = time.perf_counter()
            with tracer.span("perfbench.job", job_id) if tracer is not None \
                    else contextlib.nullcontext():
                unit.digests[job_id] = self._job(name)
            unit.jobs[job_id] = time.perf_counter() - job_start
        unit.wall = time.perf_counter() - start
        return unit

    def cross_check(self, digests: Dict[str, str]) -> List[str]:
        """Recompute the first workload through the fast serve loop."""
        name = self.names[0]
        trace = self.experiment.workload_trace(name, self.instructions,
                                               seed=self.seed)
        result = self.simulator(trace, self.config.with_fast_mode(),
                                "b").run()
        job_id = f"{name}/baseline"
        if digest(result.to_dict()) != digests.get(job_id):
            return [f"{job_id}: fast loop disagrees with the stepped loop"]
        return []


def in_process_workload(name: str, instructions: int, seed: int) -> Any:
    """The workload object behind one in-process workload name."""
    if name == "policy-sweep":
        return SweepWorkload(SWEEP_WORKLOADS, ("synthetic",), instructions,
                             instructions // 5, seed)
    if name == "table2-cold":
        return Table2Workload(instructions, seed)
    return SweepWorkload(("bm-x64",), FRAGMENT_ENGINES, instructions, 0,
                         seed)


# --------------------------------------------------------------- service

def _spec(workload: str, design: str, seed: int,
          instructions: int) -> Dict[str, Any]:
    return {"workload": workload, "design": design, "seed": seed,
            "num_instructions": instructions}


def pool_specs(instructions: int, seed: int) -> List[Dict[str, Any]]:
    """The specs stored before the measured window (the hit pool)."""
    return [_spec(workload, design, seed, instructions)
            for workload, design in POOL]


def miss_specs(instructions: int, seed: int, round_index: int, client: int,
               cycle: int) -> List[Dict[str, Any]]:
    """The never-seen specs of one client cycle.  Workload and design
    depend only on the position in the round, the seed on the round too."""
    specs = []
    for slot in range(MISS_BATCH):
        local = (cycle * MISS_BATCH + slot) * CLIENTS + client
        overall = round_index * CYCLES_PER_ROUND * MISS_BATCH * CLIENTS + \
            local
        specs.append(_spec(SWEEP_WORKLOADS[local % len(SWEEP_WORKLOADS)],
                           DESIGNS[local % len(DESIGNS)], seed + 1 + overall,
                           instructions))
    return specs


def _request(port: int, method: str, path: str,
             body: Optional[Dict[str, Any]] = None
             ) -> Tuple[int, Dict[str, Any], float]:
    """One HTTP round trip: ``(status, decoded body, seconds)``."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    start = time.perf_counter()
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        connection.request(method, path, body=data,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        raw = response.read()
    finally:
        connection.close()
    elapsed = time.perf_counter() - start
    return response.status, json.loads(raw or b"{}"), elapsed


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServiceWorkload:
    """A ``repro serve`` process driven over loopback by client threads."""

    def __init__(self, instructions: int, seed: int, out_dir: str,
                 trace_dir: Optional[str]) -> None:
        self.instructions = instructions
        self.seed = seed
        self.store_dir = os.path.join(out_dir, f"store-{os.getpid()}")
        if trace_dir is not None:
            command = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                       trace_dir]
        else:
            command = [sys.executable, "-m", "repro"]
        command += ["serve", "--port", "0", "--workers", "2",
                    "--store-dir", self.store_dir]
        # The server stops gracefully on SIGINT.  A shell starts background
        # jobs with SIGINT ignored and exec keeps an ignored signal ignored,
        # so handle it here: a handled signal is reset to default on exec.
        signal.signal(signal.SIGINT, signal.default_int_handler)
        # The server stays in this process's group (run.py reaps the group)
        # and never gets our stdout, which carries the result line.
        self.server = subprocess.Popen(command, stdin=subprocess.DEVNULL,
                                       stdout=subprocess.DEVNULL,
                                       stderr=subprocess.PIPE, text=True)
        try:
            line = self.server.stderr.readline()
            if "http://" not in line:
                raise RuntimeError(f"server did not start: {line.strip()!r}")
            self.port = int(line.split("http://")[1].split()[0]
                            .rsplit(":")[1])
            # Keep draining stderr so warnings can never fill the pipe.
            threading.Thread(target=self.server.stderr.read,
                             daemon=True).start()
            status, _body, _ = _request(self.port, "GET", "/health")
            if status != 200:
                raise RuntimeError(f"/health answered {status}")
        except BaseException:
            self.stop()
            raise
        self.pool = pool_specs(instructions, seed)
        self.known: Dict[str, str] = {}          # key -> result digest
        self.miss_rounds: Dict[str, int] = {}    # miss key -> its round
        self.round_trips = 0.0
        self.lock = threading.Lock()

    def stop(self) -> Optional[str]:
        """Interrupt the server (it stops its pool) and wait for it;
        returns an error if it had to be killed instead."""
        error = None
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                error = "server ignored SIGINT for 30 s and was killed"
                self.server.kill()
                self.server.wait()
        shutil.rmtree(self.store_dir, ignore_errors=True)
        return error

    def _run_batch(self, specs: List[Dict[str, Any]]
                   ) -> Tuple[float, Dict[str, str], Optional[str]]:
        """POST /run; returns (round trip s, key -> digest, error)."""
        try:
            status, body, elapsed = _request(self.port, "POST", "/run",
                                             {"jobs": specs})
        except (OSError, ValueError) as error:
            return 0.0, {}, f"{type(error).__name__}: {error}"
        with self.lock:
            self.round_trips += elapsed
        if status != 200 or not body.get("complete"):
            return elapsed, {}, (f"/run answered {status}: "
                                 f"{body.get('error') or body.get('failures')}")
        results = body["results"]
        return elapsed, {key: digest(results[key])
                         for key in body["keys"]}, None

    def warm(self) -> Optional[str]:
        """Store the hit pool (before the measured rounds)."""
        _elapsed, digests, error = self._run_batch(self.pool)
        self.known.update(digests)
        return error

    def run_round(self, round_index: int) -> Dict[str, Any]:
        """Both clients send their cycles; returns the round's samples."""
        misses: Dict[str, float] = {}     # "client/cycle" -> round trip
        hits: List[float] = []
        errors: List[str] = []
        attempted = [0]
        # The clients take turns to send misses.  A miss that queued behind
        # the other client's miss on the server's batch lock would time both
        # computations: that happened to about half of all misses, so each
        # slot's best time hung on whether one of its few samples ran alone.
        miss_turn = threading.Lock()

        def client(index: int) -> None:
            for cycle in range(CYCLES_PER_ROUND):
                for request in range(HITS_PER_CYCLE + 1):
                    hit = request < HITS_PER_CYCLE
                    if hit:
                        first = (cycle * HITS_PER_CYCLE + request) * \
                            HIT_BATCH + index
                        specs = [self.pool[(first + offset) % len(POOL)]
                                 for offset in range(HIT_BATCH)]
                    else:
                        specs = miss_specs(self.instructions, self.seed,
                                           round_index, index, cycle)
                    with contextlib.nullcontext() if hit else miss_turn:
                        elapsed, digests, error = self._run_batch(specs)
                    with self.lock:
                        attempted[0] += 1
                        if hit and error is None and any(
                                self.known.get(key) != value
                                for key, value in digests.items()):
                            error = "a store hit returned a different result"
                        if error is not None:
                            errors.append(error)
                        elif hit:
                            hits.append(elapsed)
                        else:
                            misses[f"{index}/{cycle}"] = elapsed
                            self.known.update(digests)
                            for key in digests:
                                self.miss_rounds[key] = round_index

        start = time.perf_counter()
        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return {"wall": time.perf_counter() - start, "misses": misses,
                "hits": hits, "errors": errors, "attempted": attempted[0]}

    def cross_check(self) -> List[str]:
        """Recompute one pool spec and the first miss through the stepped
        loop in this process (the service runs the fast loop)."""
        import dataclasses
        from repro.core import experiment
        from repro.core.simulator import Simulator
        from repro.service.protocol import JobSpec
        errors = []
        for spec_dict in (self.pool[0],
                          miss_specs(self.instructions, self.seed, 0, 0,
                                     0)[0]):
            spec = JobSpec.from_dict(spec_dict)
            if spec.key not in self.known:
                continue
            config = dataclasses.replace(
                experiment.policy_config(spec.design),
                warmup_instructions=spec.warmup_instructions)
            trace = experiment.workload_trace(
                spec.workload, spec.num_instructions, seed=spec.seed)
            result = Simulator(trace, config, spec.design, strict=True).run()
            if digest(result.to_dict()) != self.known[spec.key]:
                errors.append(f"{spec.key[:12]}: stepped loop disagrees "
                              "with the service result")
        return errors


# ------------------------------------------------------------------ main

def _emit(payload: Dict[str, Any]) -> None:
    print(json.dumps(payload), flush=True)


def run_in_process(args: argparse.Namespace, instructions: int) -> int:
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    workload = in_process_workload(args.workload, instructions, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    units: List[Unit] = []
    deadline = time.perf_counter() + args.seconds
    while not units or time.perf_counter() < deadline:
        units.append(workload.run_unit(tracer))
    layers = tracer.layers() if tracer is not None else None
    if tracer is not None:
        tracer.write_chrome_trace(os.path.join(
            args.out, f"{args.workload}.trace.json"))

    # Every unit repeats the same work, so every unit must reproduce the
    # committed digests (default seed) or, at other seeds, unit 1's.
    reference = load_expected(args.workload, args.scale, args.seed) or \
        units[0].digests
    errors: List[str] = []
    for number, unit in enumerate(units, 1):
        errors += unit.errors
        errors += [f"unit {number}: {job_id} digest {value} != "
                   f"{reference.get(job_id)}"
                   for job_id, value in unit.digests.items()
                   if value != reference.get(job_id)]
    errors += workload.cross_check(units[0].digests)
    jobs: Dict[str, List[float]] = {}
    for unit in units:
        for job_id, wall in unit.jobs.items():
            jobs.setdefault(job_id, []).append(wall)
    _emit({"units": len(units), "unit_s": [unit.wall for unit in units],
           "jobs": jobs, "job_instructions": instructions,
           "attempted": sum(len(unit.jobs) for unit in units) +
           sum(len(unit.errors) for unit in units),
           "failed": len(errors), "errors": errors[:20],
           "digests": units[0].digests,
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "layers": layers})
    return 0


def run_service(args: argparse.Namespace, instructions: int) -> int:
    trace_dir = None
    if args.trace:
        trace_dir = os.path.join(args.out, f"service-trace-{os.getpid()}")
        os.makedirs(trace_dir, exist_ok=True)
    service = ServiceWorkload(instructions, args.seed, args.out, trace_dir)
    try:
        print("READY", flush=True)
        if args.setup_only:
            return 0
        warm_error = service.warm()
        errors = [warm_error] if warm_error else []
        rounds = []
        deadline = time.perf_counter() + args.seconds
        while not rounds or time.perf_counter() < deadline:
            rounds.append(service.run_round(len(rounds)))
        peak_rss_mb = _vm_hwm_mb(service.server.pid)
        for round_ in rounds:
            errors += round_["errors"]
        expected = load_expected(args.workload, args.scale, args.seed)
        if expected:
            errors += [f"{key[:12]}: digest {value} != expected "
                       f"{expected.get(key)}"
                       for key, value in service.known.items()
                       if value != expected.get(key) and
                       service.miss_rounds.get(key, 0) < EXPECTED_ROUNDS]
        errors += service.cross_check()
    finally:
        stop_error = service.stop()
    if stop_error is not None:
        errors.append(stop_error)
    layers = None
    if trace_dir is not None:
        layers = _collect_service_layers(trace_dir, args.out)
    jobs: Dict[str, List[float]] = {}
    for round_ in rounds:
        for index, elapsed in round_["misses"].items():
            jobs.setdefault(index, []).append(elapsed)
    _emit({"units": len(rounds), "unit_s": [r["wall"] for r in rounds],
           "jobs": jobs, "job_instructions": MISS_BATCH * instructions,
           "hits": [elapsed for r in rounds for elapsed in r["hits"]],
           "attempted": 1 + sum(r["attempted"] for r in rounds),
           "failed": len(errors), "errors": errors[:20],
           "digests": service.known, "peak_rss_mb": peak_rss_mb,
           "round_trips_s": service.round_trips, "layers": layers})
    return 0


def _collect_service_layers(trace_dir: str, out: str
                            ) -> Dict[str, Dict[str, float]]:
    """Merge the server's and the pool workers' layer tables, keep the
    Chrome trace and remove the scratch directory."""
    from tracer import merge_layers
    tables = []
    for name in sorted(os.listdir(trace_dir)):
        if name.endswith(".layers.json"):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as f:
                tables.append(json.load(f))
    chrome = os.path.join(trace_dir, "server.trace.json")
    if os.path.exists(chrome):
        os.replace(chrome, os.path.join(out, "service-mix.trace.json"))
    shutil.rmtree(trace_dir, ignore_errors=True)
    return merge_layers(tables)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", choices=tuple(SCALE_DIVISORS),
                        default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    instructions = SIZES[args.workload] // SCALE_DIVISORS[args.scale]
    if args.workload == "service-mix":
        return run_service(args, instructions)
    return run_in_process(args, instructions)


if __name__ == "__main__":
    sys.exit(main())
