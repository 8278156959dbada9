"""CLI entry points for the job service: ``repro serve`` / ``repro chaos``.

``serve`` runs the asyncio HTTP front end until interrupted.  ``chaos``
runs the fault-injection harness and exits nonzero unless the chaos run's
result store is byte-identical to the fault-free reference — so CI can use
it as a one-command crash-safety smoke test.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import tempfile
from typing import List

from ..runner.job import JobSpec
from ..workloads.cli import add_engine_arguments, engine_params_from_args
from .chaos import ChaosSpec, run_chaos
from .server import ServiceServer, SimulationService
from .supervisor import PoolConfig

#: Default chaos sweep: small but heterogeneous (different workloads and
#: designs so the stores hold distinguishable records).
_CHAOS_DESIGNS = ("baseline", "clasp", "pwac")


# ------------------------------------------------------------------- serve

def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8180,
                        help="TCP port; 0 picks a free one (default: 8180)")
    parser.add_argument("--store-dir", default="service-store",
                        help="result store directory "
                             "(default: service-store)")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="also journal results here (enables "
                             "store/journal cross-healing)")
    parser.add_argument("--workers", type=int, default=2,
                        help="simulation worker processes (default: 2)")
    parser.add_argument("--retries", type=int, default=2,
                        help="retries per failing job (default: 2)")
    parser.add_argument("--deadline", type=float, default=300.0,
                        help="per-job wall-clock deadline in seconds "
                             "(default: 300)")
    parser.add_argument("--seed", type=int, default=7,
                        help="backoff jitter seed (default: 7)")
    # Default engine injected into job specs that omit one; a spec's own
    # "engine" field always wins.
    add_engine_arguments(parser)


def run_serve(args: argparse.Namespace) -> int:
    config = PoolConfig(workers=args.workers, retries=args.retries,
                        deadline_seconds=args.deadline, seed=args.seed)
    service = SimulationService(args.store_dir,
                                checkpoint_dir=args.checkpoint_dir,
                                pool_config=config)
    server = ServiceServer(service, host=args.host, port=args.port,
                           default_engine=args.engine,
                           default_engine_params=engine_params_from_args(args))

    async def _serve() -> None:
        await server.start()
        print(f"repro service on http://{server.host}:{server.port} "
              f"({config.workers} worker(s), store: {args.store_dir})",
              file=sys.stderr)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    with service:
        # SIGTERM takes Ctrl-C's path: KeyboardInterrupt unwinds the event
        # loop (closing the server), then `with service:` stops the pool.
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:
            print("service interrupted; shutting down", file=sys.stderr)
        finally:
            signal.signal(signal.SIGTERM, previous)
    return 0


# ------------------------------------------------------------------- chaos

def add_chaos_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7,
                        help="chaos schedule + simulation seed (default: 7)")
    parser.add_argument("--workloads", default="redis,nutch,jvm",
                        help="comma-separated workloads to sweep "
                             "(default: redis,nutch,jvm)")
    parser.add_argument("--instructions", type=int, default=6_000,
                        help="trace length per job (default: 6000; keep "
                             "small — every job runs at least twice)")
    parser.add_argument("--workers", type=int, default=2,
                        help="pool worker processes (default: 2)")
    parser.add_argument("--workdir", default=None,
                        help="run under this directory instead of a "
                             "temporary one (kept for inspection)")
    parser.add_argument("--kills", type=int, default=1,
                        help="worker SIGKILLs mid-job (default: 1)")
    parser.add_argument("--hangs", type=int, default=1,
                        help="jobs hanging past the deadline (default: 1)")
    parser.add_argument("--freezes", type=int, default=1,
                        help="workers freezing with heartbeats suppressed "
                             "(default: 1)")
    parser.add_argument("--crashes", type=int, default=1,
                        help="in-process worker exceptions (default: 1)")
    parser.add_argument("--tears", type=int, default=1, choices=(0, 1),
                        help="torn checkpoint journal writes (default: 1)")
    parser.add_argument("--flips", type=int, default=1,
                        help="bit-flipped store records (default: 1)")
    parser.add_argument("--deadline", type=float, default=5.0,
                        help="per-job deadline in seconds; hang faults "
                             "sleep past it, so each hang costs one "
                             "deadline of wall-clock (default: 5)")


def _chaos_specs(args: argparse.Namespace) -> List[JobSpec]:
    workloads = [name.strip() for name in args.workloads.split(",")
                 if name.strip()]
    specs: List[JobSpec] = []
    for index, workload in enumerate(workloads):
        design = _CHAOS_DESIGNS[index % len(_CHAOS_DESIGNS)]
        specs.append(JobSpec(workload=workload, design=design,
                             num_instructions=args.instructions,
                             seed=args.seed))
    return specs


def run_chaos_command(args: argparse.Namespace) -> int:
    spec = ChaosSpec(kills=args.kills, hangs=args.hangs,
                     freezes=args.freezes, crashes=args.crashes,
                     tears=args.tears, flips=args.flips)
    specs = _chaos_specs(args)

    def _run(workdir: str) -> int:
        report = run_chaos(specs, workdir, chaos=spec, seed=args.seed,
                           workers=args.workers,
                           deadline_seconds=args.deadline)
        print(report.describe())
        return 0 if report.ok else 1

    if args.workdir is not None:
        return _run(args.workdir)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
        return _run(workdir)
