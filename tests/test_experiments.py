"""Experiment drivers, CI calculators, decay fitting, result tables."""

import csv
import json

import numpy as np
import pytest

from noisyqaoa import (
    DensityMatrix,
    ExperimentConfig,
    Gradient,
    QaoaParams,
    ResultTable,
    StateVector,
    build_circuit,
    ci_cost,
    ci_gradient,
    cost_exact,
    cost_sampled,
    fit_decay,
    landscape_argmin,
    make_channel,
    problem_hamiltonian,
    run_cost_experiment,
    run_exact_noisy,
    run_fidelity_experiment,
    run_gradient_experiment,
    run_ideal,
    run_optimization_experiment,
)
from noisyqaoa import experiments, gradopt
from noisyqaoa.experiments import THREADS_ENV_VAR, resolve_graph
from noisyqaoa.statevector import SimulationError
from oracles import output_fidelity


class TestConfidenceIntervals:
    def test_ci_cost_reference_value(self, table1):
        assert ci_cost(5000, table1) == pytest.approx(0.051, abs=5e-4)

    def test_ci_cost_scales_inverse_sqrt(self, table1):
        assert ci_cost(1000, table1) == pytest.approx(
            2.0 * ci_cost(4000, table1), rel=1e-12
        )

    def test_ci_gradient_reference_values(self, table1):
        l_gamma, l_beta = ci_gradient(5000, table1, 7)
        assert l_gamma == pytest.approx(0.130, abs=5e-4)
        assert l_beta == pytest.approx(0.1906, abs=5e-4)

    def test_rejects_zero_shots(self, table1):
        with pytest.raises(ValueError):
            ci_cost(0, table1)
        with pytest.raises(ValueError):
            ci_gradient(0, table1, 7)

    def test_ci_cost_covers_sampled_estimates(self, single_edge):
        # worst-case 95% CI: nearly every estimate lands within half-length
        h = problem_hamiltonian(single_edge)
        seq = build_circuit(single_edge, QaoaParams([np.pi / 4], [np.pi / 8]))
        channel = make_channel("depolarizing", 0.01)
        exact = cost_exact(seq, h, channel)
        shots = 400
        half = 0.5 * ci_cost(shots, single_edge)
        hits = sum(
            abs(cost_sampled(seq, h, channel, shots, np.random.default_rng([999, rep]))[0] - exact) <= half
            for rep in range(30)
        )
        assert hits >= 27


class TestFitDecay:
    def test_recovers_exact_exponent(self):
        p = np.array([1e-4, 1e-3, 5e-3, 0.02])
        N = 48
        y = (1.0 - p) ** (0.5 * N)
        c, r2 = fit_decay(list(zip(p, y)), N)
        assert c == pytest.approx(0.5, rel=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_flat_series_gives_zero_exponent(self):
        c, r2 = fit_decay([(0.001, 1.0), (0.01, 1.0), (0.02, 1.0)], 16)
        assert c == 0.0
        assert r2 == 1.0

    def test_per_point_gate_counts(self):
        rows = [(0.01, (1.0 - 0.01) ** (0.7 * 16), 16), (0.01, (1.0 - 0.01) ** (0.7 * 64), 64)]
        c, _ = fit_decay([(p, y) for p, y, _ in rows], np.array([N for _, _, N in rows]))
        assert c == pytest.approx(0.7, rel=1e-10)

    def test_drops_non_positive_points_with_warning(self):
        pts = [(0.001, 0.9), (0.01, 0.5), (0.02, -0.1)]
        with pytest.warns(UserWarning):
            c, _ = fit_decay(pts, 16)
        clean, _ = fit_decay(pts[:2], 16)
        assert c == pytest.approx(clean)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_decay([(0.01, 0.9)], 16)

    def test_rejects_p_at_one(self):
        with pytest.raises(ValueError):
            fit_decay([(0.5, 0.9), (1.0, 0.5)], 16)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.graph_source == "table1"
        assert len(cfg.p_values) == 11
        assert cfg.steps == (1, 2, 3, 4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "fancy"},
            {"channel": "amplitude"},
            {"channel": "custom"},
            {"p_values": (1.5,)},
            {"steps": (0,)},
            {"shots": 0},
            # wrong types: a ValueError, not a TypeError further down
            {"p_values": 0.01},
            {"p_values": "0.01"},
            {"steps": 3.5},
            {"steps": (3.5,)},
            {"shots": "10"},
            {"seed": True},
            {"learning_rate": None},
            {"threads": 1.5},
            # a worker count below one is rejected, not run as one worker
            {"threads": 0},
            {"threads": -2},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        assert ExperimentConfig().worker_count() == 3
        monkeypatch.delenv(THREADS_ENV_VAR)
        assert ExperimentConfig(threads=2).worker_count() == 2

    def test_path_graph_source_is_stored_as_text(self, tmp_path):
        # the config is echoed into the JSON sidecar, which holds no Path
        path = tmp_path / "g.json"
        cfg = ExperimentConfig(graph_source=path)
        assert cfg.graph_source == str(path) and type(cfg.graph_source) is str

    @pytest.mark.parametrize("value", ["0", "-3", "abc", "2.5"])
    def test_worker_count_rejects_bad_env(self, monkeypatch, value):
        monkeypatch.setenv(THREADS_ENV_VAR, value)
        with pytest.raises(ValueError, match=THREADS_ENV_VAR):
            ExperimentConfig().worker_count()


class TestResultTable:
    def make_table(self):
        return ResultTable(
            ("p", "value"),
            [(0.01, 0.5), (0.02, 0.25)],
            {"experiment": "demo", "seed": 7},
        )

    def test_column_access(self):
        t = self.make_table()
        assert t.column("value").tolist() == [0.5, 0.25]
        with pytest.raises(ValueError):
            t.column("missing")

    def test_csv_round_trip(self, tmp_path):
        t = self.make_table()
        path = tmp_path / "demo.csv"
        t.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["p", "value"]
        assert [float(x) for x in rows[1]] == [0.01, 0.5]

    def test_write_outputs_sidecar(self, tmp_path):
        t = self.make_table()
        csv_path, json_path = t.write_outputs(tmp_path / "demo")
        assert csv_path.endswith(".csv") and json_path.endswith(".json")
        with open(json_path) as fh:
            meta = json.load(fh)
        assert meta["experiment"] == "demo"
        assert meta["seed"] == 7
        assert "generated_at" in meta

    def test_write_outputs_writes_nothing_it_cannot_encode(self, tmp_path):
        t = ResultTable(("p",), [(0.0,)], {"source": object()})
        with pytest.raises(TypeError, match="not JSON serializable"):
            t.write_outputs(tmp_path / "demo")
        assert list(tmp_path.iterdir()) == []


class TestResolveGraph:
    def test_builtin_name(self, table1):
        assert resolve_graph("table1").edges == table1.edges

    def test_file_path(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"nodes": 2, "edges": [[0, 1, 1.0]]}))
        g = resolve_graph(str(path))
        assert g.num_nodes == 2 and g.edges == ((0, 1, 1.0),)


SMALL = dict(p_values=(0.0, 0.001, 0.01), steps=(1, 2), seed=7)


@pytest.fixture(scope="module")
def fidelity_table():
    return run_fidelity_experiment(ExperimentConfig(**SMALL))


@pytest.fixture(scope="module")
def cost_table():
    return run_cost_experiment(ExperimentConfig(**SMALL))


@pytest.fixture(scope="module")
def gradient_table():
    return run_gradient_experiment(ExperimentConfig(**SMALL))


@pytest.fixture(scope="module")
def optimization_table():
    cfg = ExperimentConfig(p_values=(0.0, 0.01), steps=(1,), seed=7)
    return run_optimization_experiment(cfg)


@pytest.mark.parametrize("name", ["fidelity_table", "cost_table", "gradient_table", "optimization_table"])
def test_columns_are_the_described_ones(name, request):
    table = request.getfixturevalue(name)
    assert table.columns == tuple(table.metadata["columns"])


class TestFidelityExperiment:
    def test_row_grid(self, fidelity_table):
        assert len(fidelity_table.rows) == 6
        assert fidelity_table.columns == ("p", "n", "N", "fidelity")
        assert set(fidelity_table.column("N").tolist()) == {16.0, 32.0}

    def test_p_zero_gives_unit_fidelity(self, fidelity_table):
        for p, n, N, F in fidelity_table.rows:
            if p == 0.0:
                assert F == pytest.approx(1.0, abs=1e-12)
            else:
                assert 0.0 < F < 1.0

    def test_fidelity_decreases_with_p(self, fidelity_table):
        for n in (1, 2):
            series = [F for p, nn, _, F in fidelity_table.rows if nn == n]
            assert all(a > b for a, b in zip(series, series[1:]))

    def test_metadata_fit(self, fidelity_table):
        assert fidelity_table.metadata["fit_pooled"]["r_squared"] > 0.98
        assert fidelity_table.metadata["fit_pooled"]["delta"] > 0.0

    def test_deterministic(self, fidelity_table):
        again = run_fidelity_experiment(ExperimentConfig(**SMALL))
        assert again.rows == fidelity_table.rows

    def test_sampled_mode_rejected(self):
        with pytest.raises(ValueError, match="mode 'sampled'"):
            run_fidelity_experiment(ExperimentConfig(**SMALL, mode="sampled"))

    @pytest.mark.parametrize("threads", [2, 4])
    def test_more_than_one_thread_rejected(self, threads):
        # the experiment runs on one process: an explicit worker count above
        # one would be silently ignored
        with pytest.raises(ValueError, match=f"threads={threads}"):
            run_fidelity_experiment(ExperimentConfig(**SMALL, threads=threads))

    @pytest.mark.parametrize("threads", [None, 1])
    def test_one_thread_accepted(self, fidelity_table, threads):
        assert run_fidelity_experiment(ExperimentConfig(**SMALL, threads=threads)).rows == fidelity_table.rows

    @pytest.mark.parametrize("channel", ["depolarizing", "dephasing", "bitflip"])
    def test_rows_match_the_density_matrix(self, channel):
        # the driver reads F from the Pauli coefficients; the reference is
        # <phi|rho|phi> on run_exact_noisy's density matrix
        cfg = ExperimentConfig(**{**SMALL, "p_values": (0.0, 0.01, 0.05)}, channel=channel)
        table = run_fidelity_experiment(cfg)
        graph = resolve_graph(cfg.graph_source)
        circuits = {n: build_circuit(graph, QaoaParams(**par)) for n, par in table.metadata["params"].items()}
        assert len(table.rows) == 6
        for p, n, _, F in table.rows:
            rho = run_exact_noisy(circuits[n], make_channel(channel, p))
            assert abs(F - output_fidelity(run_ideal(circuits[n]).amplitudes, rho.entries)) < 1e-12


class TestCostExperiment:
    def test_ratio_one_at_p_zero(self, cost_table):
        for row in cost_table.rows:
            p, y = row[0], row[5]
            if p == 0.0:
                assert y == pytest.approx(1.0, abs=1e-10)

    def test_ratio_decays_with_p(self, cost_table):
        for n in (1, 2):
            ys = [row[5] for row in cost_table.rows if row[1] == n]
            assert all(a > b > 0.0 for a, b in zip(ys, ys[1:]))

    def test_fit_quality(self, cost_table):
        for n in (1, 2):
            assert cost_table.metadata["fit_per_n"][n]["r_squared"] > 0.98

    def test_exact_mode_has_zero_ci(self, cost_table):
        assert all(row[7] == 0.0 for row in cost_table.rows)

    @pytest.mark.parametrize("threads", [2, 4])
    def test_more_than_one_thread_rejected(self, threads):
        # the experiment runs on one process: an explicit worker count above
        # one would be silently ignored
        with pytest.raises(ValueError, match=f"cost experiment runs on one process; setting threads={threads}"):
            run_cost_experiment(ExperimentConfig(**SMALL, threads=threads))

    @pytest.mark.parametrize("threads", [None, 1])
    def test_one_thread_accepted(self, cost_table, threads):
        assert run_cost_experiment(ExperimentConfig(**SMALL, threads=threads)).rows == cost_table.rows


class TestGradientExperiment:
    def test_ratio_one_at_p_zero(self, gradient_table):
        for p, pid, di, dn, ratio in gradient_table.rows:
            if p == 0.0:
                assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_ratios_positive_and_shrinking(self, gradient_table):
        pids = {row[1] for row in gradient_table.rows}
        assert pids == {"gamma0", "gamma1", "beta0", "beta1"}
        for pid in pids:
            series = [row[4] for row in gradient_table.rows if row[1] == pid]
            assert all(a > b > 0.0 for a, b in zip(series, series[1:]))

    def test_cosine_similarity_near_one(self, gradient_table):
        for p, cosine in gradient_table.metadata["cosine_similarity"].items():
            assert cosine > 0.99

    def test_explicit_params_override(self, single_edge):
        cfg = ExperimentConfig(p_values=(0.0, 0.01), steps=(1,))
        t = run_gradient_experiment(cfg, params=QaoaParams([0.4], [0.3]))
        assert t.metadata["n"] == 1
        assert np.asarray(t.metadata["params"]["gamma"]).tolist() == [0.4]

    @pytest.mark.parametrize("threads", [2, 4])
    def test_more_than_one_thread_rejected(self, threads):
        with pytest.raises(ValueError, match=f"gradient experiment runs on one process; setting threads={threads}"):
            run_gradient_experiment(ExperimentConfig(**SMALL, threads=threads))

    @pytest.mark.parametrize("threads", [None, 1])
    def test_one_thread_accepted(self, gradient_table, threads):
        assert run_gradient_experiment(ExperimentConfig(**SMALL, threads=threads)).rows == gradient_table.rows


class TestOptimizationExperiment:
    def test_zero_distance_at_p_zero(self, optimization_table):
        for row in optimization_table.rows:
            p, dist = row[0], row[4]
            if p == 0.0:
                assert dist == 0.0
            else:
                assert dist > 0.0

    def test_scope_flag(self, optimization_table):
        for row in optimization_table.rows:
            p, N, np_prod, in_scope = row[0], row[2], row[3], row[7]
            assert np_prod == pytest.approx(N * p)
            assert in_scope == int(np_prod < 0.5)

    def test_in_scope_distance_small(self, optimization_table):
        for row in optimization_table.rows:
            if row[7] == 1:
                assert row[4] < 0.05

    def test_ideal_optimum_converged(self, optimization_table):
        assert optimization_table.metadata["ideal_optima"][1]["converged"]


    def test_cells_run_longest_first(self, monkeypatch):
        # the n=2 cells come before the n=1 cells, and the rows keep their order
        calls = []

        def cell(args):
            calls.append(len(args[3]))
            return args[3], args[4], float(len(args[3]))

        monkeypatch.setattr(experiments, "_optimization_cell", cell)
        cfg = ExperimentConfig(steps=(1, 2), p_values=(0.0, 0.01, 0.02), num_iters=3, threads=1)
        table = run_optimization_experiment(cfg)
        assert calls == [2, 2, 1, 1]
        assert [row[:2] for row in table.rows] == [(p, n) for n in (1, 2) for p in (0.0, 0.01, 0.02)]
        assert [row[6] for row in table.rows if row[0] > 0] == [1.0, 1.0, 2.0, 2.0]

    def test_repeated_strength_keeps_each_cell(self, monkeypatch):
        # two cells at the same p draw from their own substreams, so each
        # row reports its own descent
        def cell(args):
            return args[3], args[4], float(args[11])

        monkeypatch.setattr(experiments, "_optimization_cell", cell)
        cfg = ExperimentConfig(steps=(1,), p_values=(0.01, 0.01), num_iters=3, threads=1)
        table = run_optimization_experiment(cfg)
        assert [row[6] for row in table.rows] == [0.0, 1.0]

    def test_failing_cell_names_n_and_p(self, monkeypatch):
        # a noisy descent that goes non-finite raises with its cell's n, p
        # and mode; the ideal descents run a different evaluator and finish
        def nan_adjoint(self, circuit):
            n = circuit.layout.n
            return float("nan"), np.zeros(n), np.zeros(n)

        monkeypatch.setattr(gradopt.ExactNoisyEvaluator, "adjoint", nan_adjoint)
        cfg = ExperimentConfig(steps=(2,), p_values=(0.0, 0.015), num_iters=3, threads=1)
        with pytest.raises(SimulationError, match=r"optimization cell n=2, p=0\.015, mode=exact: non-finite cost"):
            run_optimization_experiment(cfg)


class TestLandscapeArgmin:
    def test_returns_grid_minimum(self, single_edge):
        gammas = np.linspace(0.0, 1.0, 5)
        betas = np.linspace(0.0, 1.0, 5)
        ig, ib, c = landscape_argmin(single_edge, gammas=gammas, betas=betas)
        h = problem_hamiltonian(single_edge)
        grid = [
            [cost_exact(build_circuit(single_edge, QaoaParams([g], [b])), h) for b in betas]
            for g in gammas
        ]
        grid = np.array(grid)
        assert c == pytest.approx(grid.min())
        assert grid[ig, ib] == pytest.approx(c)

    def test_noisy_landscape_shallower(self, single_edge):
        ideal = landscape_argmin(single_edge)
        noisy = landscape_argmin(single_edge, make_channel("depolarizing", 0.05))
        assert noisy[2] > ideal[2]  # flattened minimum is less deep

    @pytest.mark.parametrize("channel", [None, make_channel("depolarizing", 0.01)], ids=["ideal", "noisy"])
    @pytest.mark.parametrize("empty", ["gamma", "beta"])
    def test_empty_axis_rejected(self, single_edge, channel, empty):
        axes = {"gammas": [0.1, 0.2], "betas": [0.3]}
        axes[empty + "s"] = []
        with pytest.raises(ValueError, match=f"{empty} axis is empty"):
            landscape_argmin(single_edge, channel, **axes)


@pytest.mark.parametrize(
    "make, frozen",
    [
        (lambda: make_channel("depolarizing", 0.1), True),
        (lambda: QaoaParams([0.1, 0.2], [0.3, 0.4]), True),
        (lambda: Gradient([0.1, 0.2], [0.3, 0.4]), True),
        (lambda: StateVector(1, [1.0, 0.0]), False),
        (lambda: DensityMatrix(1, np.eye(2) / 2), False),
        (lambda: ResultTable(("p",), [(0.0,)], {"ci": np.zeros(2)}), False),
    ],
    ids=["NoiseChannel", "QaoaParams", "Gradient", "StateVector", "DensityMatrix", "ResultTable"],
)
def test_array_records_compare_by_identity(make, frozen):
    # a field-wise == would compare numpy arrays and raise on their truth value
    a, b = make(), make()
    assert a == a and a != b
    assert a in [b, a] and b not in [a]
    if frozen:
        assert hash(a) == hash(a) and a in {a}
