"""Tests for the command-line interface."""

import json
import re
import socket

import pytest

from repro.cli import build_parser, main
from repro.experiments import common


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "NOPE"])

    def test_scheme_choices(self):
        args = build_parser().parse_args(["run", "SRAD", "--scheme", "icache+lds"])
        assert args.scheme == "icache+lds"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "SRAD", "--scheme", "warp"])

    def test_estimate_is_an_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["estimate", "fig13"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'estimate'" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "ATAX" in out
        assert "icache+lds" in out

    def test_run_text(self, capsys):
        assert main(["run", "SRAD", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "PTW-PKI" in out
        assert "page walks" in out

    def test_run_json(self, capsys):
        assert main(["run", "SRAD", "--scale", "0.05", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["app"] == "SRAD"
        assert payload["cycles"] > 0

    def test_run_with_scheme_and_page_size(self, capsys):
        assert main([
            "run", "SRAD", "--scale", "0.05",
            "--scheme", "lds", "--page-size", "65536",
        ]) == 0
        assert "'lds'" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main([
            "compare", "SRAD", "--scale", "0.05", "--schemes", "lds",
        ]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "█" in out  # the bar chart

    def test_config_print(self, capsys):
        assert main(["config", "--scheme", "ducati"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheme"] == "ducati"

    def test_config_file_round_trip(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        assert main(["config", "--scheme", "icache", "--output", str(path)]) == 0
        capsys.readouterr()
        assert main([
            "run", "SRAD", "--scale", "0.05", "--config", str(path), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheme"] == "icache"

    def test_config_output_writes_what_load_config_reads(self, tmp_path, capsys):
        from repro.config import table1_config
        from repro.config_io import load_config

        path = tmp_path / "cfg.json"
        assert main(["config", "--page-size", "65536", "--output", str(path)]) == 0
        assert capsys.readouterr().out == f"wrote {path}\n"
        assert load_config(str(path)) == table1_config().with_page_size(65536)

    def test_l2_tlb_override(self, capsys):
        assert main(["config", "--l2-tlb-entries", "8192"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tlb"]["l2_entries"] == 8192

    @pytest.mark.parametrize(
        "flag", [["--page-size", "0"], ["--l2-tlb-entries", "0"], ["--l2-tlb-entries", "-5"]],
        ids=lambda flag: f"{flag[0][2:]}={flag[1]}",
    )
    @pytest.mark.parametrize(
        "command", [["run", "SRAD"], ["compare", "SRAD"], ["config"]], ids=lambda c: c[0]
    )
    def test_size_flag_below_one_exits_2_with_one_error_line(self, capsys, command, flag):
        # A zero is checked too: no command may fall back to the Table 1
        # value, print the size as a configuration or reach the simulator.
        assert main(command + ["--scale", "0.05"] + flag) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro {command[0]}: error: "), line

    @pytest.mark.parametrize("size", ["512", "8192"])
    @pytest.mark.parametrize(
        "command", [["run", "SRAD"], ["compare", "SRAD"], ["config"]], ids=lambda c: c[0]
    )
    def test_page_size_the_page_table_cannot_walk_exits_2(self, capsys, command, size):
        assert main(command + ["--scale", "0.01", "--page-size", size]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro {command[0]}: error: page size must be one of "
                               "[4096, 65536, 2097152]"), line


class TestSweepCommand:
    @pytest.fixture(autouse=True)
    def _isolated(self, monkeypatch):
        # cmd_sweep mutates the module-level cache dir; register the
        # original so monkeypatch restores it, and keep faults out of the
        # environment unless a test sets them.
        monkeypatch.setattr(common, "_CACHE_DIR", common._CACHE_DIR)
        monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)
        common.clear_cache()
        yield
        common.clear_cache()

    def test_parser_accepts_fault_tolerance_flags(self):
        args = build_parser().parse_args([
            "sweep", "fig13", "--jobs", "2", "--timeout", "30",
            "--max-retries", "5", "--keep-going",
        ])
        assert args.timeout == 30.0
        assert args.max_retries == 5
        assert args.keep_going is True
        assert build_parser().parse_args(["sweep", "fig13"]).keep_going is False

    def test_sweep_runs_clean(self, capsys, tmp_path):
        rc = main([
            "sweep", "table2", "--jobs", "1", "--scale", "0.05",
            "--cache-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "table2:" in out
        assert "FAILED" not in out

    def test_keep_going_with_injected_crash_exits_zero(
        self, capsys, monkeypatch, tmp_path
    ):
        # The CI fault smoke: a 2-worker sweep with one persistently
        # crashing job must exit 0 and print a populated failure report.
        monkeypatch.setenv("REPRO_FAULT_SPEC", "ATAX:*:crash")
        rc = main([
            "sweep", "table2", "--jobs", "2", "--scale", "0.05",
            "--cache-dir", str(tmp_path), "--max-retries", "1", "--keep-going",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 job(s) failed terminally" in out
        assert "ATAX" in out

    def test_terminal_failure_without_keep_going_exits_one(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "ATAX:*:exc")
        rc = main([
            "sweep", "table2", "--jobs", "1", "--scale", "0.05",
            "--cache-dir", str(tmp_path), "--max-retries", "0",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "sweep aborted" in err
        assert "--keep-going" in err

    def test_unwritable_store_stops_the_sweep_with_its_error(self, capsys, tmp_path):
        # Only the runner writes the store, so a store it cannot write
        # ends the sweep with the error rather than failing each job.
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        rc = main([
            "sweep", "table2", "--jobs", "1", "--scale", "0.05",
            "--cache-dir", str(blocker), "--keep-going",
        ])
        assert rc == 1
        assert "Not a directory" in capsys.readouterr().err

    def test_sweep_telemetry_prints_per_job_columns(self, capsys, tmp_path):
        rc = main([
            "sweep", "table2", "--jobs", "1", "--scale", "0.05",
            "--cache-dir", str(tmp_path), "--telemetry",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Per-job telemetry:" in out
        assert "wall_s" in out
        assert "cached" in out
        assert "miss" in out
        # Warm re-run: same command now reports cache hits.
        rc = main([
            "sweep", "table2", "--jobs", "1", "--scale", "0.05",
            "--cache-dir", str(tmp_path), "--telemetry",
        ])
        assert rc == 0
        assert "hit" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag", [
            ["--min-workers", "0"], ["--jobs", "0"], ["--start-timeout", "0"],
            ["--bind", "127.0.0.1:99999"],
        ],
        ids=lambda flag: f"{flag[0][2:]}={flag[1]}",
    )
    def test_bad_remote_flag_exits_2_with_one_error_line(self, capsys, flag):
        assert main(["sweep", "fig13bc", "--executor", "remote",
                     "--scale", "0.05"] + flag) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no coordinator was started
        (line,) = captured.err.splitlines()
        assert line.startswith("repro sweep: error: "), line

    def test_bind_port_in_use_exits_1_with_one_error_line(self, capsys):
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            address = f"127.0.0.1:{busy.getsockname()[1]}"
            assert main(["sweep", "fig13bc", "--executor", "remote",
                         "--bind", address, "--scale", "0.05"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro sweep: error: {address}: "), line


class TestWorkerCommand:
    def test_unusable_address_exits_2_before_anything_runs(self, capsys, monkeypatch):
        from repro.sim.executors.remote import EXIT_CLEAN

        spawned = []
        # Under --respawn a worker that fails on its address would be
        # respawned forever; the stub ends that loop at its first call.
        monkeypatch.setattr(
            "repro.sim.executors.remote.subprocess.call",
            lambda command: spawned.append(command) or EXIT_CLEAN,
        )
        for respawn in ([], ["--respawn"]):
            assert main(["worker", "--connect", "no-port"] + respawn) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith("repro worker: error: bad address 'no-port'"), line
        assert spawned == []


class TestTraceCommand:
    def test_parser_uppercases_app(self):
        args = build_parser().parse_args(["trace", "gups"])
        assert args.app == "GUPS"
        assert args.out == "trace.json"

    def test_trace_writes_chrome_trace(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        rc = main([
            "trace", "gups", "--scale", "0.05", "--out", str(out_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "perfetto" in out.lower()
        payload = json.loads(out_path.read_text())
        events = payload["traceEvents"]
        assert events
        names = {
            e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert "CU 0" in names
        assert any(name.startswith("iommu.walkers") for name in names)
        assert any("port" in name for name in names)
        assert all(
            e["dur"] >= 0 and e["ts"] >= 0 for e in events if e["ph"] == "X"
        )
        assert payload["otherData"]["app"] == "GUPS"

    def test_trace_respects_max_events(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        rc = main([
            "trace", "gups", "--scale", "0.05", "--out", str(out_path),
            "--max-events", "10",
        ])
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["otherData"]["op_events_recorded"] == 10
        assert payload["otherData"]["op_events_dropped"] > 0


class TestSweepJsonOutput:
    @pytest.fixture(autouse=True)
    def _isolated(self, monkeypatch):
        monkeypatch.setattr(common, "_CACHE_DIR", common._CACHE_DIR)
        common.clear_cache()
        yield
        common.clear_cache()

    def test_sweep_json_writes_loadable_report(self, capsys, tmp_path):
        from repro.sim.runner import REPORT_SCHEMA

        report_path = tmp_path / "report.json"
        rc = main([
            "sweep", "table2", "--jobs", "1", "--scale", "0.05",
            "--cache-dir", str(tmp_path / "cache"), "--json", str(report_path),
        ])
        assert rc == 0
        assert f"wrote {report_path}" in capsys.readouterr().out
        payload = json.loads(report_path.read_text())
        assert payload["schema"] == REPORT_SCHEMA
        assert payload["jobs_submitted"] > 0
        assert payload["failures"] == []


class TestServiceCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8000
        assert args.idle_timeout == 60.0
        assert args.jobs is None

    def test_submit_parser_uppercases_apps(self):
        args = build_parser().parse_args(
            ["submit", "--apps", "gups", "atax", "--schemes", "baseline"]
        )
        assert args.apps == ["GUPS", "ATAX"]
        assert args.figure is None
        assert args.url == "http://127.0.0.1:8000"

    def test_submit_parser_named_figure(self):
        args = build_parser().parse_args(["submit", "fig13", "--wait"])
        assert args.figure == "fig13"
        assert args.wait is True
        assert args.wait_timeout == 600.0

    def test_submit_invalid_spec_fails_locally_with_choices(self, capsys):
        # Validation runs before any network traffic: no server is
        # listening anywhere near this URL, yet the error is a spec error.
        rc = main([
            "submit", "--apps", "NOPE", "--url", "http://127.0.0.1:1",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "NOPE" in err
        assert "GUPS" in err  # actionable: valid choices listed

    def test_submit_unreachable_server_fails_cleanly(self, capsys):
        rc = main([
            "submit", "--apps", "GUPS", "--scale", "0.05",
            "--url", "http://127.0.0.1:1",
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("url", [
        "ftp://x", "http://127.0.0.1:notaport", "http://127.0.0.1:99999",
        "http://127.0.0.1:0", "http://[::1:80",
    ])
    def test_unusable_url_exits_2_naming_it(self, capsys, url):
        from repro.service.client import ServiceClient

        with pytest.raises(ValueError, match=re.escape(repr(url))):
            ServiceClient(url)
        for argv in (["submit", "fig13", "--url", url],
                     ["submit", "--url", url, "--status", "feedfacecafe"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith("repro submit: error: ") and url in line, line

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_serve_port_out_of_range_exits_2(self, capsys, port):
        assert main(["serve", "--port", port, "--jobs", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == f"repro serve: error: --port must be in 0-65535, got {port}"

    def test_serve_port_in_use_exits_1_with_the_manager_closed(
        self, capsys, monkeypatch
    ):
        from repro.service.manager import JobManager

        closed = []
        close = JobManager.close

        def recording_close(manager):
            close(manager)
            closed.append(manager)

        monkeypatch.setattr(JobManager, "close", recording_close)
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            assert main(["serve", "--port", str(port), "--jobs", "1"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"repro serve: error: 127.0.0.1:{port}: "), line
        (manager,) = closed
        assert not manager._thread.is_alive()
        with pytest.raises(RuntimeError, match="closed"):
            manager.pool.acquire(1)

    def test_submit_end_to_end_against_live_server(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.service.http import BackgroundServer
        from repro.service.manager import JobManager

        monkeypatch.setattr(common, "_CACHE_DIR", str(tmp_path / "cache"))
        common.clear_cache()
        with JobManager(workers=1) as manager:
            with BackgroundServer(manager) as server:
                rc = main([
                    "submit", "--apps", "GUPS", "--schemes", "baseline",
                    "--scale", "0.05", "--url", server.url,
                    "--wait", "--telemetry",
                ])
                out = capsys.readouterr().out
                assert rc == 0
                assert "done" in out
                assert "Per-job telemetry:" in out
                assert "1 simulated" in out
                # Identical resubmission dedups onto the finished job.
                rc = main([
                    "submit", "--apps", "gups", "--schemes", "baseline",
                    "--scale", "0.05", "--url", server.url, "--wait",
                ])
                out = capsys.readouterr().out
                assert rc == 0
                assert "deduplicated onto an existing job" in out
        common.clear_cache()

    def test_submit_status_prints_payload(self, capsys, monkeypatch, tmp_path):
        from repro.service.http import BackgroundServer
        from repro.service.manager import JobManager

        monkeypatch.setattr(common, "_CACHE_DIR", str(tmp_path / "cache"))
        common.clear_cache()
        with JobManager(workers=1, autostart=False) as manager:
            with BackgroundServer(manager) as server:
                record, _ = manager.submit(
                    {"apps": ["GUPS"], "schemes": ["baseline"], "scale": 0.05}
                )
                rc = main([
                    "submit", "--url", server.url, "--status", record.job_id,
                ])
                assert rc == 0
                payload = json.loads(capsys.readouterr().out)
                assert payload["job_id"] == record.job_id
                assert payload["state"] == "queued"
        common.clear_cache()
