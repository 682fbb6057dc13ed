"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import _parse_parallel, build_parser, main


class TestParallelParsing:
    def test_formats(self):
        assert _parse_parallel("tp2pp1") == (2, 1)
        assert _parse_parallel("2,2") == (2, 2)
        assert _parse_parallel("2") == (2, 1)
        assert _parse_parallel("TP2PP2") == (2, 2)

    def test_garbage_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_parallel("1,2,3")


class TestCommands:
    def test_models_lists_registry(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "opt-13b" in out and "llama2-70b" in out

    def test_datasets_lists_profiles(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "sharegpt" in out and "longbench" in out

    def test_run_json_output(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--system",
                    "windserve",
                    "--rate",
                    "2",
                    "--requests",
                    "40",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["system"] == "windserve"
        assert "ttft_p50" in payload["summary"]

    def test_run_table_output(self, capsys):
        assert main(["run", "--rate", "2", "--requests", "40"]) == 0
        assert "ttft_p50" in capsys.readouterr().out

    def test_run_exits_1_on_an_invariant_violation(self, monkeypatch, capsys):
        from repro.harness.cell import Cell

        real_run = Cell.run

        def violated(cell, workload=None):
            run = real_run(cell, workload)
            run.violations = ["lost a request"]
            return run

        monkeypatch.setattr(Cell, "run", violated)
        assert main(["run", "--rate", "2", "--requests", "10"]) == 1
        assert "[VIOLATED] lost a request" in capsys.readouterr().err

    def test_sweep_multiple_systems(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--rates",
                    "1,2",
                    "--systems",
                    "windserve,distserve",
                    "--requests",
                    "40",
                    "--json",
                ]
            )
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 4
        assert {r["system"] for r in rows} == {"windserve", "distserve"}

    def test_sweep_unknown_system_errors(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--rates", "1", "--systems", "tgi", "--requests", "10"])

    def test_bursty_arrivals_flag(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--rate",
                    "2",
                    "--requests",
                    "40",
                    "--arrivals",
                    "bursty",
                    "--burstiness",
                    "3",
                    "--json",
                ]
            )
            == 0
        )
        assert json.loads(capsys.readouterr().out)["summary"]["completed"] > 0

    def test_missing_rate_errors(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_breakdown_command(self, capsys):
        assert main(["breakdown", "--rate", "2", "--requests", "40"]) == 0
        out = capsys.readouterr().out
        assert "prefill_queue" in out
        assert "timeline over" in out

    def test_breakdown_json(self, capsys):
        assert main(["breakdown", "--rate", "2", "--requests", "30", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["component"] for r in rows} == {
            "prefill_queue",
            "prefill_exec",
            "handoff",
            "decode",
        }

    def test_parser_help_builds(self):
        parser = build_parser()
        assert parser.format_help()
