"""Command-line interface: parsing, exit codes, outputs, config files."""

import csv
import json

import pytest

from noisyqaoa import WeightedGraph
from noisyqaoa.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    GraphFormatError,
    main,
    parse_config,
    parse_graph,
    serialize_graph,
)


class TestGraphDocuments:
    def test_round_trip(self, table1):
        assert parse_graph(serialize_graph(table1)).edges == table1.edges

    def test_parse_minimal(self):
        g = parse_graph('{"nodes": 2, "edges": [[0, 1, 0.5]]}')
        assert g.num_nodes == 2 and g.edges == ((0, 1, 0.5),)

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2]",
            '{"nodes": 2}',
            '{"nodes": 2, "edges": [[0, 1, 0.5]], "extra": 1}',
            '{"nodes": "two", "edges": []}',
            '{"nodes": 2, "edges": [[0, 1]]}',
            '{"nodes": 2, "edges": [[0, 0, 1.0]]}',
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(GraphFormatError):
            parse_graph(text)


class TestRunConfigDocuments:
    def test_parses_known_keys(self):
        doc = parse_config('{"seed": 3, "shots": 100, "p_values": [0.0, 0.01]}')
        assert doc == {"seed": 3, "shots": 100, "p_values": [0.0, 0.01]}

    def test_rejects_unknown_key(self):
        with pytest.raises(GraphFormatError):
            parse_config('{"seed": 3, "sots": 100}')

    def test_rejects_non_object(self):
        with pytest.raises(GraphFormatError):
            parse_config("[1]")


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["validate", "--bogus"]) == EXIT_USAGE

    def test_custom_channel_flag_is_usage_error(self, capsys):
        # a custom channel has Kraus operators, which no flag can carry
        assert main(["validate", "--channel", "custom"]) == EXIT_USAGE

    def test_bad_graph_file_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = main(["brute-force", str(bad)])
        assert code == EXIT_VALIDATION
        assert "validation error" in capsys.readouterr().err

    def test_missing_graph_file_is_validation_error(self, capsys):
        assert main(["brute-force", "/nonexistent/graph.json"]) == EXIT_VALIDATION

    def test_missing_graph_file_in_experiment_is_validation_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["experiment", "fidelity", "--graph", "/nonexistent.json", "--p", "0.01", "--steps", "1"])
        assert code == EXIT_VALIDATION
        assert "cannot read graph file" in capsys.readouterr().err

    def test_bad_steps_value(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["experiment", "fidelity", "--steps", "1,x"]) == EXIT_VALIDATION

    def test_missing_fit_csv_is_validation_error(self, capsys):
        assert main(["fit", "/nonexistent.csv"]) == EXIT_VALIDATION
        assert "cannot read CSV file" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [{"p_values": 0.01}, {"steps": 3.5}, {"steps": [3.5]}, {"shots": "10"}])
    def test_wrong_config_type_in_validate(self, doc, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(cfg)]) == EXIT_VALIDATION
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [{"p_values": 0.01}, {"steps": 3.5}, {"steps": [3.5]}, {"shots": "10"}])
    def test_wrong_config_type_in_experiment(self, doc, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["experiment", "fidelity", "--config", str(cfg)]) == EXIT_VALIDATION
        assert "validation error" in capsys.readouterr().err
        assert not (tmp_path / "fidelity.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--mode", "sampled", "--shots", "10"],
            ["optimize", "--grid"],
            ["optimize", "--steps", "1"],
            ["optimize", "--out", "x"],
            ["validate", "--steps", "1"],
            ["validate", "--seed", "3"],
            ["validate", "--iters", "10"],
            ["validate", "--threads", "2"],
        ],
    )
    def test_unread_run_flag_is_usage_error(self, argv, capsys):
        assert main(argv) == EXIT_USAGE

    def test_sampled_mode_config_in_optimize(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"mode": "sampled"}))
        assert main(["optimize", "--config", str(cfg), "--iters", "5"]) == EXIT_VALIDATION
        assert "exact evaluator only" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc", [{"steps": [2]}, {"shots": 10}, {"threads": 2}, {"p_values": [0.01, 0.02]}]
    )
    def test_unread_config_key_in_optimize(self, doc, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["optimize", "--config", str(cfg), "--iters", "5"]) == EXIT_VALIDATION
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_non_positive_threads_is_validation_error(self, threads, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["experiment", "optimization", "--threads", threads, "--steps", "1", "--p", "0.01"])
        assert code == EXIT_VALIDATION
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "optimization.csv").exists()

    def test_bad_threads_env_is_validation_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("NOISYQAOA_THREADS", "abc")
        code = main(["experiment", "optimization", "--steps", "1", "--p", "0.01", "--iters", "2"])
        assert code == EXIT_VALIDATION
        assert "NOISYQAOA_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "optimization.csv").exists()

    def test_fidelity_threads_is_validation_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["experiment", "fidelity", "--threads", "2", "--steps", "1", "--p", "0.01"])
        assert code == EXIT_VALIDATION
        assert "threads=2" in capsys.readouterr().err
        assert not (tmp_path / "fidelity.csv").exists()

    @pytest.mark.parametrize("experiment", ["cost", "gradient"])
    def test_one_process_threads_is_validation_error(self, experiment, tmp_path, monkeypatch, capsys):
        # the cost and gradient experiments run on one process, as fidelity does
        monkeypatch.chdir(tmp_path)
        code = main(["experiment", experiment, "--threads", "2", "--steps", "1", "--p", "0.01", "--iters", "2"])
        assert code == EXIT_VALIDATION
        assert f"{experiment} experiment runs on one process; setting threads=2" in capsys.readouterr().err
        assert not (tmp_path / f"{experiment}.csv").exists()

    def test_sampled_fidelity_is_validation_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["experiment", "fidelity", "--mode", "sampled", "--shots", "3", "--steps", "1", "--p", "0.02"])
        assert code == EXIT_VALIDATION
        assert "mode 'sampled'" in capsys.readouterr().err
        assert not (tmp_path / "fidelity.csv").exists()


class TestValidateCommand:
    def test_grid_validation_passes(self, capsys):
        code = main(["validate", "--grid", "--channel", "dephasing"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.count("CPTP residual") == 11
        assert "FAIL" not in out

    def test_single_p(self, capsys):
        code = main(["validate", "--p", "0.02"])
        assert code == EXIT_OK
        assert "p=0.02" in capsys.readouterr().out


class TestBruteForceCommand:
    def test_table1_output(self, capsys):
        code = main(["brute-force", "table1"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "minimum energy: -5.17" in out
        assert "partition [0, 1, 2, 3] | [4, 5, 6]" in out

    def test_custom_graph_file(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(serialize_graph(WeightedGraph(2, ((0, 1, 1.0),))))
        code = main(["brute-force", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "minimum energy: -1" in out


class TestOptimizeCommand:
    def test_ideal_descent_report(self, capsys):
        code = main(["optimize", "--n", "1", "--iters", "300", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "ideal gradient descent" in out
        assert "converged: True" in out
        assert "gamma:" in out and "beta:" in out

    def test_noisy_descent_label(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(serialize_graph(WeightedGraph(2, ((0, 1, 1.0),))))
        code = main([
            "optimize", "--graph", str(path), "--p", "0.01", "--iters", "200",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "noisy (depolarizing, p=0.01)" in out

    def test_config_p_values_entry_is_the_noise_strength(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(serialize_graph(WeightedGraph(2, ((0, 1, 1.0),))))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"graph_source": str(path), "p_values": [0.01], "channel": "dephasing"}))
        code = main(["optimize", "--config", str(cfg), "--iters", "20"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "noisy (dephasing, p=0.01)" in out


class TestExperimentCommand:
    def test_fidelity_outputs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main([
            "experiment", "fidelity", "--p", "0.01", "--steps", "1", "--out", "fid",
        ])
        assert code == EXIT_OK
        with open(tmp_path / "fid.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["p", "n", "N", "fidelity"]
        assert len(rows) == 2
        with open(tmp_path / "fid.json") as fh:
            meta = json.load(fh)
        assert meta["experiment"] == "fidelity"
        assert meta["config"]["seed"] == 7

    def test_csv_reproducible_byte_identical(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["experiment", "fidelity", "--p", "0.005", "--steps", "1,2", "--out"]
        assert main(argv + ["a"]) == EXIT_OK
        assert main(argv + ["b"]) == EXIT_OK
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_fit_on_experiment_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([
            "experiment", "fidelity", "--grid", "--steps", "1", "--out", "fid",
        ]) == EXIT_OK
        code = main(["fit", "fid.csv", "--ycol", "fidelity"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "decay constant:" in out
        assert "r_squared:" in out

    def test_fit_missing_column(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([
            "experiment", "fidelity", "--p", "0.01", "--steps", "1", "--out", "fid",
        ]) == EXIT_OK
        assert main(["fit", "fid.csv", "--ycol", "nope"]) == EXIT_VALIDATION


class TestConfigFile:
    def test_config_values_applied(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "seed": 11, "steps": [1], "p_values": [0.0, 0.002],
        }))
        code = main([
            "experiment", "fidelity", "--config", str(cfg), "--out", "fid",
        ])
        assert code == EXIT_OK
        with open(tmp_path / "fid.json") as fh:
            meta = json.load(fh)
        assert meta["config"]["seed"] == 11
        assert meta["config"]["steps"] == [1]
        assert meta["config"]["p_values"] == [0.0, 0.002]

    def test_explicit_flag_beats_config(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 11, "p_values": [0.002]}))
        code = main([
            "experiment", "fidelity", "--config", str(cfg),
            "--seed", "5", "--p", "0.01", "--steps", "1", "--out", "fid",
        ])
        assert code == EXIT_OK
        with open(tmp_path / "fid.json") as fh:
            meta = json.load(fh)
        assert meta["config"]["seed"] == 5
        assert meta["config"]["p_values"] == [0.01]

    def test_explicit_flag_equal_to_default_beats_config(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 11}))
        code = main([
            "experiment", "fidelity", "--config", str(cfg),
            "--seed", "7", "--p", "0.01", "--steps", "1", "--out", "fid",
        ])
        assert code == EXIT_OK
        with open(tmp_path / "fid.json") as fh:
            meta = json.load(fh)
        assert meta["config"]["seed"] == 7

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"speed": 11}))
        assert main(["validate", "--config", str(cfg)]) == EXIT_VALIDATION

    def test_missing_config_file(self, capsys):
        assert main(["validate", "--config", "/nonexistent.json"]) == EXIT_VALIDATION
