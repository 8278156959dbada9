"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "bm-x64"])
        assert args.design == "baseline"
        assert args.capacity == 2048
        assert args.warmup == 0

    def test_run_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "not-a-workload"])

    def test_run_rejects_unknown_design(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bm-x64", "--design", "magic"])

    def test_smt_takes_multiple_workloads(self):
        args = build_parser().parse_args(["smt", "bm-x64", "bm-lla"])
        assert args.workloads == ["bm-x64", "bm-lla"]

    def test_runner_flag_defaults(self):
        args = build_parser().parse_args(["sweep-policy"])
        assert args.jobs == 1
        assert args.timeout is None
        assert args.retries == 2
        assert args.checkpoint_dir is None
        assert args.resume is False
        assert args.seed == 7

    def test_runner_flags_parse(self):
        args = build_parser().parse_args(
            ["sweep-capacity", "--jobs", "4", "--timeout", "30",
             "--retries", "1", "--checkpoint-dir", "/tmp/ck", "--resume",
             "--seed", "11"])
        assert args.jobs == 4
        assert args.timeout == 30.0
        assert args.retries == 1
        assert args.checkpoint_dir == "/tmp/ck"
        assert args.resume is True
        assert args.seed == 11

    def test_run_accepts_seed(self):
        args = build_parser().parse_args(["run", "bm-x64", "--seed", "3"])
        assert args.seed == 3


class TestCommands:
    def test_workloads_command(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "bm-cc" in out
        assert "redis" in out

    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "TAGE" in out
        assert "32 sets x 8 ways" in out

    def test_table1_with_design(self, capsys):
        assert main(["table1", "--design", "f-pwac",
                     "--capacity", "4096"]) == 0
        out = capsys.readouterr().out
        assert "f-pwac" in out

    def test_table2_command(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "paper MPKI" in out

    def test_run_command(self, capsys):
        assert main(["run", "bm-x64", "--instructions", "3000"]) == 0
        out = capsys.readouterr().out
        assert "UPC" in out
        assert "OC fetch ratio" in out

    def test_run_with_comparison(self, capsys):
        assert main(["run", "bm-x64", "--design", "f-pwac",
                     "--instructions", "3000", "--compare-baseline"]) == 0
        out = capsys.readouterr().out
        assert "vs baseline" in out

    def test_smt_command(self, capsys):
        assert main(["smt", "bm-x64", "bm-lla",
                     "--instructions", "3000"]) == 0
        out = capsys.readouterr().out
        assert "aggregate UPC" in out

    def test_run_with_engine(self, capsys):
        assert main(["run", "bm-x64", "--instructions", "2000",
                     "--engine", "adv-fragment",
                     "--engine-params", '{"num_blocks": 64}']) == 0
        out = capsys.readouterr().out
        assert "UPC" in out

    def test_run_takes_the_fast_loop(self, capsys, monkeypatch):
        from repro.core.simulator import Simulator

        def refuse(self):
            raise AssertionError("repro run drove the stepped loop")
        monkeypatch.setattr(Simulator, "steps", refuse)
        assert main(["run", "bm-x64", "--instructions", "2000",
                     "--compare-baseline", "--design", "rac"]) == 0
        out = capsys.readouterr().out
        assert "UPC" in out and "vs baseline" in out

    def test_sweep_with_engine(self, capsys):
        assert main(["sweep-policy", "--workloads", "bm-x64",
                     "--instructions", "2000", "--warmup", "0",
                     "--engine", "oscillating"]) == 0
        out = capsys.readouterr().out
        assert "bm-x64" in out

    def test_trace_pack_and_info_and_replay(self, capsys, tmp_path):
        packed = tmp_path / "bm.uoptrace"
        assert main(["trace-pack", "bm-x64", "--instructions", "1500",
                     "--out", str(packed)]) == 0
        out = capsys.readouterr().out
        assert "packed 1500 records" in out
        assert main(["trace-info", str(packed)]) == 0
        out = capsys.readouterr().out
        assert "integrity OK" in out
        assert "engine=synthetic" in out
        assert main(["trace-info", str(packed), "--json"]) == 0
        out = capsys.readouterr().out
        assert '"records": 1500' in out
        assert main(["run", "bm-x64", "--instructions", "1500",
                     "--engine", "replay", "--engine-params",
                     '{"path": "%s"}' % packed]) == 0
        out = capsys.readouterr().out
        assert "UPC" in out

    def test_bad_engine_params_json_is_a_config_error(self, capsys):
        assert main(["run", "bm-x64", "--instructions", "2000",
                     "--engine-params", "{not json"]) == 2
        err = capsys.readouterr().err
        assert "--engine-params" in err

    def test_trace_info_rejects_corrupt_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.uoptrace"
        bad.write_bytes(b"UOPTRACEgarbage")
        assert main(["trace-info", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_sweep_policy_small(self, capsys):
        assert main(["sweep-policy", "--workloads", "bm-x64",
                     "--instructions", "3000", "--warmup", "0"]) == 0
        out = capsys.readouterr().out
        assert "UPC improvement" in out
        assert "f-pwac" in out

    def test_sweep_capacity_small(self, capsys):
        assert main(["sweep-capacity", "--workloads", "bm-x64",
                     "--instructions", "3000", "--warmup", "0"]) == 0
        out = capsys.readouterr().out
        assert "OC_64K" in out

    def test_sweep_policy_parallel_jobs(self, capsys):
        assert main(["sweep-policy", "--workloads", "bm-x64",
                     "--instructions", "2000", "--warmup", "0",
                     "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "UPC improvement" in out

    def test_sweep_policy_checkpoint_and_resume(self, capsys, tmp_path):
        argv = ["sweep-policy", "--workloads", "bm-x64",
                "--instructions", "1500", "--warmup", "0",
                "--checkpoint-dir", str(tmp_path)]
        assert main(argv) == 0
        assert (tmp_path / "journal.jsonl").exists()
        assert main(argv + ["--resume"]) == 0
        err = capsys.readouterr().err
        assert "resumed from checkpoint" in err

    def test_sweep_rejects_bad_workloads(self, capsys):
        assert main(["sweep-policy", "--workloads", "nope",
                     "--instructions", "1000"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err


class TestNegativePaths:
    """Usage errors exit 2 with a one-line diagnostic, never a traceback."""

    def _assert_one_line_error(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        return err

    def test_trace_unknown_event_category(self, capsys):
        assert main(["trace", "bm-x64", "--instructions", "1000",
                     "--events", "not-a-category",
                     "--out", "/dev/null"]) == 2
        err = self._assert_one_line_error(capsys)
        assert "unknown event category" in err

    def test_trace_bad_format_is_a_parse_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "bm-x64", "--format", "tsv"])
        assert excinfo.value.code == 2

    def test_trace_unwritable_out(self, capsys, tmp_path):
        missing = tmp_path / "no-such-dir" / "trace.json"
        assert main(["trace", "bm-x64", "--instructions", "1000",
                     "--out", str(missing)]) == 2
        self._assert_one_line_error(capsys)

    def test_fuzz_unknown_design(self, capsys):
        assert main(["fuzz", "--designs", "magic", "--budget", "1"]) == 2
        err = self._assert_one_line_error(capsys)
        assert "unknown design" in err

    def test_fuzz_replay_missing_file(self, capsys, tmp_path):
        assert main(["fuzz", "--replay",
                     str(tmp_path / "missing.json")]) == 2
        self._assert_one_line_error(capsys)

    def test_fuzz_smoke_exits_zero(self, capsys, tmp_path):
        assert main(["fuzz", "--designs", "clasp", "--budget", "2",
                     "--seed", "7", "--quiet",
                     "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "no divergences" in out
