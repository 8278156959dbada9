"""Tests for the perfbench benchmark: ``python -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import types

import pytest

import compare
import run as perfbench_run
import tracer as tracer_module
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCHMARK = json.load(f)


# ------------------------------------------------------- self-time arithmetic

_clock = threading.local()


def _tick(seconds: float) -> None:
    _clock.now = getattr(_clock, "now", 0.0) + seconds


class _Outer:
    def run(self, inner: "_Inner") -> None:
        _tick(1.0)
        inner.step()
        _tick(2.0)
        inner.step()
        _tick(3.0)


class _Inner:
    barrier = None

    def step(self) -> None:
        if self.barrier is not None:
            self.barrier.wait(timeout=10)   # both threads inside at once
        _tick(5.0)


_FAKE_LAYERS = (("t.outer", f"{__name__}:_Outer.run", None),
                ("t.inner", f"{__name__}:_Inner.step", None),
                ("t.gone", f"{__name__}:_Inner.deleted_twin", None))


@pytest.fixture
def fake_clock(monkeypatch):
    monkeypatch.setattr(tracer_module, "time", types.SimpleNamespace(
        perf_counter=lambda: getattr(_clock, "now", 0.0)))


def test_self_time_of_nested_calls(fake_clock):
    tracer = Tracer()
    missing = tracer.install(_FAKE_LAYERS)
    try:
        _Outer().run(_Inner())
    finally:
        tracer.uninstall()
    assert missing == [f"{__name__}:_Inner.deleted_twin"]
    layers = tracer.layers()
    # run spans 1+5+2+5+3 = 16 s, of which its two child steps cover 10 s.
    assert layers["t.outer"] == {"calls": 1, "total_s": 16.0,
                                 "self_s": 6.0, "positives": 0}
    assert layers["t.inner"] == {"calls": 2, "total_s": 10.0,
                                 "self_s": 10.0, "positives": 0}
    spans = {span[0]: span for span in tracer.spans}
    outer = next(span for span in spans.values() if span[2] == "t.outer")
    assert all(span[1] == outer[0] for span in spans.values()
               if span[2] == "t.inner")
    assert _Outer.run.__name__ == "run"      # uninstall restored it


def test_self_time_with_interleaved_threads(fake_clock):
    tracer = Tracer()
    tracer.install(_FAKE_LAYERS)
    _Inner.barrier = threading.Barrier(2)
    errors = []

    def work() -> None:
        try:
            _Outer().run(_Inner())
        except Exception as error:   # surfaced by the assertion below
            errors.append(error)

    threads = [threading.Thread(target=work) for _ in range(2)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
    finally:
        _Inner.barrier = None
        tracer.uninstall()
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    layers = tracer.layers()
    assert layers["t.outer"]["calls"] == 2
    assert layers["t.outer"]["self_s"] == 12.0
    assert layers["t.inner"]["self_s"] == 20.0


# --------------------------------------------------- tracing keeps results

@pytest.mark.parametrize("fast", [False, True], ids=["stepped", "fast"])
def test_tracer_leaves_results_unchanged(fast):
    from repro.core import experiment
    from repro.core.simulator import Simulator

    def job(design):
        config = experiment.policy_config(design)
        if fast:
            config = config.with_fast_mode()
        trace = experiment.workload_trace("bm-lla", 3000, seed=11)
        return Simulator(trace, config, design, strict=True).run().to_dict()

    plain = {design: job(design) for design in experiment.POLICY_LABELS}
    experiment.clear_trace_cache()
    tracer = Tracer()
    tracer.install()
    try:
        traced = {design: job(design) for design in experiment.POLICY_LABELS}
    finally:
        tracer.uninstall()
    assert traced == plain
    layers = tracer.layers()
    for layer in ("core.serve_loop", "backend.admit", "branch.observe",
                  "uopcache.lookup", "uopcache.fill", "caches.ifetch",
                  "workloads.trace"):
        assert layers[layer]["calls"] > 0, layer
    assert layers["core.serve_loop"]["calls"] == len(experiment.POLICY_LABELS)


# ------------------------------------------------------------ tail rule

def test_tail_needs_ten_samples_beyond_it():
    samples = [float(value) for value in range(1, 100)]
    assert perfbench_run.tail(samples, 0.90) is None          # 9.9 beyond
    assert perfbench_run.tail(samples + [100.0], 0.90) == \
        pytest.approx(90.1)
    assert perfbench_run.tail([1.0] * 999, 0.99) is None
    assert perfbench_run.tail([1.0] * 1000, 0.99) == 1.0


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1,
              99.9]
    faster = [value * 1.2 for value in parent]
    assert compare.verdict(parent, faster, "higher", 0.1)[0] == "improved"
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "regressed"
    assert compare.verdict(parent, parent, "lower", 0.1)[0] == "unchanged"
    # Three pairs cannot show a gain, however clean.
    assert compare.verdict(parent[:3], faster[:3], "higher", 0.1)[0] == \
        "unchanged"
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict([0.0] * 10, [0.0] * 9 + [0.01], "lower",
                           0.0)[0] == "regressed"


# ------------------------------------------------------------ end to end

def _run(*args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_result_line_matches_benchmark_json(tmp_path, trace, section):
    done = _run("--workload", "policy-sweep", "--seed", "7", "--quick",
                "--trace", str(trace), "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert {name: metric["unit"] for name, metric in line["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def test_quick_suite_of_all_workloads(tmp_path):
    start = time.perf_counter()
    done = _run("--quick", "--repeats", "1", "--out", str(tmp_path))
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert elapsed < 60
    with open(tmp_path / "result.json", encoding="utf-8") as handle:
        result = json.load(handle)
    names = {metric["name"] for metric in BENCHMARK["end_to_end"]}
    assert sorted(run["workload"] for run in result["runs"]) == \
        sorted(workload["name"] for workload in BENCHMARK["workloads"])
    for record in result["runs"]:
        assert record["correct"], record["errors"]
        assert names <= set(record["metrics"])
    assert "service-mix hit_p50_ms" in done.stdout


def test_service_stops_when_started_with_sigint_ignored(tmp_path):
    # A shell starts background jobs with SIGINT ignored; the server must
    # still stop on the SIGINT the load process sends it.
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "service-mix", "--seed", "3",
         "--quick", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"]
    assert time.perf_counter() - start < 30


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "policy-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
