"""Tests for the ``repro serve`` / ``repro chaos`` CLI entry points."""

import os
import select
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.service.cli import _chaos_specs


class TestParserWiring:
    def test_serve_and_chaos_are_registered(self):
        parser = build_parser()
        serve = parser.parse_args(["serve", "--port", "0",
                                   "--workers", "3"])
        assert serve.workers == 3 and serve.port == 0
        chaos = parser.parse_args(["chaos", "--seed", "5", "--kills", "2"])
        assert chaos.seed == 5 and chaos.kills == 2

    def test_chaos_rejects_multiple_tears(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--tears", "2"])

    def test_chaos_specs_cycle_designs(self):
        args = build_parser().parse_args(
            ["chaos", "--workloads", "redis,nutch,jvm,mahout",
             "--instructions", "1000"])
        specs = _chaos_specs(args)
        assert [spec.workload for spec in specs] == \
            ["redis", "nutch", "jvm", "mahout"]
        assert len({spec.design for spec in specs}) == 3
        assert all(spec.num_instructions == 1000 for spec in specs)


class TestChaosCommand:
    @pytest.mark.slow
    def test_chaos_run_exits_zero_and_reports(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # recovery warns by design
            code = main(["chaos", "--seed", "7", "--instructions", "1200",
                         "--workloads", "bm-x64,bm-lla",
                         "--hangs", "0", "--freezes", "0",
                         "--workdir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "byte-identical" in out
        # --workdir keeps the artifacts for inspection.
        assert (tmp_path / "chaos" / "store" / "objects").is_dir()

    def test_unknown_workload_is_a_clean_error(self, capsys):
        code = main(["chaos", "--workloads", "nope"])
        assert code == 2
        assert "unknown workload" in capsys.readouterr().err


def _children(pid):
    """(pid, start time) of every live process whose parent is ``pid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue                      # exited while we looked
        # Fields after the parenthesized command: state, ppid, ...
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == pid and fields[0] != "Z":
            found.append((int(entry.name), fields[19]))
    return found


def _running(pid, start_time):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    fields = stat[stat.rindex(")") + 2:].split()
    return fields[19] == start_time and fields[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc to find the pool workers")
class TestServeSignals:
    def test_sigterm_stops_server_and_pool(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--store-dir", str(tmp_path / "store")],
            env=env, cwd=tmp_path, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        workers = []
        try:
            deadline = time.monotonic() + 60
            banner = ""
            while "repro service on http://" not in banner:
                remaining = deadline - time.monotonic()
                assert remaining > 0, "no serve banner within 60 s"
                ready, _, _ = select.select([server.stderr], [], [],
                                            remaining)
                if ready:
                    line = server.stderr.readline()
                    assert line, f"serve exited early ({server.poll()})"
                    banner += line
            workers[:] = _children(server.pid)
            assert len(workers) >= 2, workers

            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=30) == 0
            left = [pid for pid, start in workers if _running(pid, start)]
            assert not left, f"pool workers outlived the server: {left}"
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stderr.close()
            for pid, start in workers:      # never leak a failed run's pool
                if _running(pid, start):
                    os.kill(pid, signal.SIGKILL)
