"""Tests for the command-line interface."""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro.cli import CELL_FLAGS, RUN_BASE, _parse_parallel, _run_cell, build_parser, main
from repro.harness.cell import Cell


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


#: One non-default value per :data:`CELL_FLAGS` entry: the text after the
#: flag (None for a switch) and the field value it must parse to.
FLAG_SAMPLES = {
    "model": ("llama2-7b", "llama2-7b"),
    "dataset": ("longbench", "longbench"),
    "rate_per_gpu": ("4.5", 4.5),
    "num_requests": ("77", 77),
    "seed": ("9", 9),
    "prefill_parallel": ("tp4pp1", (4, 1)),
    "decode_parallel": ("2,2", (2, 2)),
    "num_node_gpus": ("4", 4),
    "arrival_process": ("bursty", "bursty"),
    "burstiness_cv": ("3.5", 3.5),
    "tier_mix": ("interactive=0.5,standard=0.5", "interactive=0.5,standard=0.5"),
    "prefix_mix": ("none=0.5,assistant=0.5:384", "none=0.5,assistant=0.5:384"),
    "tenant_mix": ("acme=0.6,beta=0.4", "acme=0.6,beta=0.4"),
    "tenant_weights": ("acme=1,beta=4", "acme=1,beta=4"),
    "tenant_max_inflight": ("8", 8),
    "admission_policy": ("fair-share", "fair-share"),
    "fleet_policy": ("least-loaded", "least-loaded"),
    "fleet_nodes": ("2", 2),
    "fleet_pairs_per_node": ("1", 1),
    "fleet_standby": ("1", 1),
    "fleet_span_nodes": (None, True),
    "fleet_shape": ("a800:2,h100", "a800:2,h100"),
    "fault_plan": ("decode-crash", "decode-crash"),
    "prefix_cache_tokens": ("2048", 2048),
    "tenant_rate": ("4", 4.0),
}


class TestCellFlags:
    def test_every_flag_has_a_sample(self):
        assert set(FLAG_SAMPLES) == set(CELL_FLAGS)

    @pytest.mark.parametrize("field", list(CELL_FLAGS))
    def test_flag_sets_exactly_its_field(self, field):
        flag = CELL_FLAGS[field][0]
        text, value = FLAG_SAMPLES[field]
        argv = ["run"] if field == "rate_per_gpu" else ["run", "--rate", "3"]
        argv += [flag] if text is None else [flag, text]
        args = build_parser().parse_args(argv)
        cell = _run_cell(args, system=args.system)
        changed = {f.name for f in fields(Cell) if getattr(cell, f.name) != getattr(RUN_BASE, f.name)}
        assert changed == {field}
        assert getattr(cell, field) == value

    def test_non_positive_tenant_weight_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--rate", "3", "--tenant-weights", "a=0"])
        assert exc.value.code == 2
        assert "tenant 'a' needs a positive weight, got 0.0" in capsys.readouterr().err
