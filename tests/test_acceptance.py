"""Acceptance gate: ten end-to-end criteria, one reported line each.

Each test prints `ACCEPTANCE k: PASS/FAIL - <name>` (bypassing capture)
so the suite output doubles as the acceptance report.
"""

import math

import numpy as np
import pytest

from noisyqaoa import (
    ExperimentConfig,
    QaoaParams,
    WeightedGraph,
    brute_force_ground,
    build_circuit,
    ci_cost,
    ci_gradient,
    cost_and_gradient,
    cost_exact,
    ideal_evaluator,
    landscape_argmin,
    make_channel,
    noise_grid,
    problem_hamiltonian,
    run_cost_experiment,
    run_exact_noisy,
    run_fidelity_experiment,
    run_gradient_experiment,
    run_optimization_experiment,
    table1_graph,
    trajectory_states,
    validate_cptp,
)
from oracles import finite_difference_gradient

CHANNEL_KINDS = ("dephasing", "bitflip", "depolarizing")


@pytest.fixture(scope="module")
def graph():
    return table1_graph()


@pytest.fixture
def report(capsys):
    def _report(idx, name, passed, detail=""):
        with capsys.disabled():
            line = f"ACCEPTANCE {idx}: {'PASS' if passed else 'FAIL'} - {name}"
            if detail:
                line += f" [{detail}]"
            print(line)

    return _report


def test_01_cptp_suite(report):
    residuals = []
    for kind in CHANNEL_KINDS:
        for p in noise_grid():
            ok, residual = validate_cptp(make_channel(kind, p))
            residuals.append((kind, p, ok, residual))
    worst = max(r for _, _, _, r in residuals)
    passed = len(residuals) == 33 and all(ok for _, _, ok, _ in residuals) and worst < 1e-12
    report(1, "CPTP residual < 1e-12 for 33 grid channels", passed, f"worst {worst:.2e}")
    assert passed, residuals


def test_02_confidence_interval_values(report, graph):
    c = ci_cost(5000, graph)
    l_gamma, l_beta = ci_gradient(5000, graph, 7)
    passed = (
        f"{c:.3f}" == "0.051"
        and f"{l_gamma:.3f}" == "0.130"
        and f"{l_beta:.4f}" == "0.1906"
    )
    report(
        2,
        "worst-case CI lengths at M=5000",
        passed,
        f"ci_cost={c:.3f}, L_gamma={l_gamma:.3f}, L_beta={l_beta:.4f} (reported 0.186)",
    )
    assert passed


def test_03_shift_rule_vs_finite_difference(report, graph):
    rng = np.random.default_rng(321)
    ev = ideal_evaluator(graph)
    worst = 0.0
    for n in (1, 2, 3, 4):
        for _ in range(5):
            params = QaoaParams(rng.uniform(-np.pi, np.pi, n), rng.uniform(-np.pi, np.pi, n))
            sr = cost_and_gradient(graph, params, ev)[1].flat()
            fd = finite_difference_gradient(graph, params, 1e-5)
            worst = max(worst, float(np.abs(sr - fd).max()))
    passed = worst < 1e-6
    report(3, "shift-rule gradient matches finite differences", passed, f"max err {worst:.2e}")
    assert passed


def test_04_trajectory_exact_equivalence(report):
    g = WeightedGraph(4, ((0, 1, 0.8), (1, 2, 1.2), (2, 3, 0.5), (0, 3, 1.0), (1, 3, 0.7)))
    h = problem_hamiltonian(g)
    rng = np.random.default_rng(3)
    params = QaoaParams(rng.uniform(-np.pi, np.pi, 2), rng.uniform(-np.pi, np.pi, 2))
    circuit = build_circuit(g, params)
    channel = make_channel("depolarizing", 0.01)
    exact = cost_exact(circuit, h, channel)
    T, reps = 2000, 50
    hits = 0
    for rep in range(reps):
        states = trajectory_states(circuit, channel, T, seed=1234000 + rep)
        costs = np.einsum("ti,i,ti->t", states.conj(), h.energies, states).real
        mean = float(costs.mean())
        sigma = float(costs.std(ddof=1)) / math.sqrt(T)
        if abs(mean - exact) <= 4.0 * sigma:
            hits += 1
    passed = hits >= math.ceil(0.95 * reps)
    report(4, "trajectory-mean cost within 4 sigma of exact", passed, f"{hits}/{reps} reps")
    assert passed, (hits, reps)


def test_05_fidelity_decay_shape(report):
    table = run_fidelity_experiment(ExperimentConfig(seed=7))
    ps = sorted({row[0] for row in table.rows})
    ns = sorted({row[1] for row in table.rows})
    F = {(row[0], row[1]): row[3] for row in table.rows}
    dec_in_p = all(
        F[(a, n)] > F[(b, n)] for n in ns for a, b in zip(ps, ps[1:])
    )
    dec_in_n = all(
        F[(p, a)] > F[(p, b)] for p in ps for a, b in zip(ns, ns[1:])
    )
    r2 = table.metadata["fit_pooled"]["r_squared"]
    passed = dec_in_p and dec_in_n and r2 >= 0.98
    report(
        5,
        "fidelity strictly decreasing, pooled decay fit",
        passed,
        f"monotone p:{dec_in_p} n:{dec_in_n}, pooled R2={r2:.5f}",
    )
    assert passed


def test_06_cost_flattening_shape(report, graph):
    table = run_cost_experiment(ExperimentConfig(seed=7))
    fits = table.metadata["fit_per_n"]
    intercepts = table.metadata["intercept_check"]
    tol = 2.0 * ci_cost(5000, graph)
    r2_ok = all(fits[n]["r_squared"] >= 0.98 for n in (1, 2, 3, 4))
    a_ok = all(abs(intercepts[n]["intercept"]) < tol for n in (1, 2, 3, 4))
    worst_r2 = min(fits[n]["r_squared"] for n in (1, 2, 3, 4))
    worst_a = max(abs(intercepts[n]["intercept"]) for n in (1, 2, 3, 4))
    passed = r2_ok and a_ok
    report(
        6,
        "cost ratio fits (1-p)^(alpha N), intercept ~ 0",
        passed,
        f"min R2={worst_r2:.5f}, max |A|={worst_a:.4f} (tol {tol:.3f})",
    )
    assert passed


def test_07_gradient_scaling_shape(report):
    table = run_gradient_experiment(ExperimentConfig(seed=7, steps=(1, 2, 3, 4)))
    assert table.metadata["n"] == 4
    ps = sorted({row[0] for row in table.rows})
    pids = sorted({row[1] for row in table.rows})
    ratio = {(row[0], row[1]): row[4] for row in table.rows}
    positive = all(ratio[(p, pid)] > 0.0 for p in ps for pid in pids)
    monotone = all(
        ratio[(a, pid)] > ratio[(b, pid)] for pid in pids for a, b in zip(ps, ps[1:])
    )
    # relative spread = coefficient of variation across the 8 parameters
    worst_cv = worst_range = 0.0
    for p in ps:
        vals = np.array([ratio[(p, pid)] for pid in pids])
        worst_cv = max(worst_cv, float(vals.std() / vals.mean()))
        worst_range = max(worst_range, float((vals.max() - vals.min()) / vals.mean()))
    spread_ok = worst_cv <= 0.20
    cosines = table.metadata["cosine_similarity"]
    worst_cos = min(cosines.values())
    cos_ok = worst_cos >= 0.99
    passed = positive and monotone and spread_ok and cos_ok
    report(
        7,
        "derivative ratios positive, monotone, aligned",
        passed,
        f"CV max {worst_cv:.3f} (range/mean {worst_range:.3f}), cosine min {worst_cos:.5f}",
    )
    assert passed


def test_08_optimization_robustness(report):
    config = ExperimentConfig(seed=7, p_values=(0.0,) + tuple(noise_grid()))
    table = run_optimization_experiment(config)
    zero_rows = [row for row in table.rows if row[0] == 0.0]
    zero_ok = all(row[4] == 0.0 for row in zero_rows)
    in_scope = [row for row in table.rows if row[7] == 1 and row[0] > 0.0]
    worst = max(row[4] for row in in_scope)
    scope_ok = bool(in_scope) and worst < 0.05
    passed = zero_ok and scope_ok
    report(
        8,
        "noisy optima stay near ideal optima for Np < 0.5",
        passed,
        f"{len(in_scope)} in-scope rows, max distance {worst:.4f}; p=0 exact zero: {zero_ok}",
    )
    assert passed


def test_09_brute_force_ground_truth(report, graph):
    emin, optima = brute_force_ground(graph)
    reference = (0, 0, 0, 0, 1, 1, 1)
    passed = abs(emin + 5.17) < 1e-12 and reference in optima
    report(9, "exhaustive ground search recovers -5.17", passed, f"E={emin:.10g}")
    assert passed


def test_10_landscape_argmin_invariance(report, graph):
    ig0, ib0, _ = landscape_argmin(graph)
    cells = {}
    for p in noise_grid():
        ig, ib, _ = landscape_argmin(graph, make_channel("depolarizing", p))
        cells[p] = (ig, ib)
    passed = all(cell == (ig0, ib0) for cell in cells.values())
    report(
        10,
        "noisy landscape argmin cell matches ideal at all p",
        passed,
        f"ideal cell {(ig0, ib0)}",
    )
    assert passed, cells
