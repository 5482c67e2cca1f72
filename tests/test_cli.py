"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import available_ablations, available_figures, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_defaults(self):
        args = build_parser().parse_args(["figure", "fig13"])
        assert args.name == "fig13"
        assert args.format == "table"
        assert not args.fast

    def test_bad_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig13", "--format", "xml"])

    def test_bench_is_not_a_subcommand(self, capsys):
        # The repo benchmark is `python3 bench/run.py`, outside the package.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for fig in available_figures():
            assert fig in out
        for ab in available_ablations():
            assert ab in out

    def test_every_registered_figure_has_runner(self):
        assert set(available_figures()) == {
            "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
            "fig15a", "fig15b", "fig15c", "fig16",
        }

    def test_figure_table(self, capsys):
        assert main(["figure", "fig13"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "slots" in out

    def test_figure_csv(self, capsys):
        assert main(["figure", "fig14", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "slots,batch_time,speedup"

    def test_figure_json_to_file(self, tmp_path, capsys):
        dest = tmp_path / "fig13.json"
        assert main(["figure", "fig13", "--format", "json", "--out", str(dest)]) == 0
        data = json.loads(dest.read_text())
        assert data["slots"][0] == 1

    def test_unknown_figure(self, capsys):
        assert main(["figure", "nope"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_unknown_ablation(self, capsys):
        assert main(["ablation", "nope"]) == 2
        assert "unknown ablation" in capsys.readouterr().err

    def test_ablation_packing(self, capsys):
        assert main(["ablation", "packing"]) == 0
        out = capsys.readouterr().out
        assert "first_fit" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "d_model=3072" in out
        assert "GPUCostModel" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "in :" in out and "out:" in out

    def test_fast_figure(self, capsys):
        assert main(["figure", "fig16", "--fast"]) == 0
        assert "overhead_percent" in capsys.readouterr().out


class TestTraceCommand:
    def test_list_includes_traces(self, capsys):
        from repro.experiments.traced import available_traces

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in available_traces():
            assert name in out

    def test_unknown_trace(self, capsys):
        assert main(["trace", "nope"]) == 2
        assert "unknown traced experiment" in capsys.readouterr().err

    def test_chrome_export_to_file_is_valid(self, tmp_path, capsys):
        from repro.obs.export import validate_chrome_trace

        dest = tmp_path / "fig13.json"
        assert main(["trace", "fig13", "--fast", "--out", str(dest)]) == 0
        doc = json.loads(dest.read_text())
        validate_chrome_trace(doc)
        assert "wrote" in capsys.readouterr().out

    def test_csv_format(self, capsys):
        assert main(["trace", "faults", "--fast", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == (
            "request_id,phase,t_start,t_end,duration,attrs"
        )

    def test_ascii_format(self, capsys):
        assert main(["trace", "fig9", "--fast", "--format", "ascii"]) == 0
        out = capsys.readouterr().out
        assert "queue depth" in out
        assert "served cum" in out
