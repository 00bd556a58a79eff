"""Closed-form single-layer QAOA cost, an oracle that shares no code with
the simulator.

For n = 1 the expectation <Z_u Z_v> on a weighted graph has a closed
form (Ozaeta, van Dam & McMahon, arXiv:2012.03421). In this package's
conventions, U = prod_q exp(+i beta X_q) prod_uv exp(-i gamma w_uv Z_u Z_v)
acting on |+>^m, the mixer takes Z_u Z_v in the Heisenberg picture to
c^2 Z_u Z_v - c s (Z_u Y_v + Y_u Z_v) + s^2 Y_u Y_v with c = cos 2 beta and
s = sin 2 beta, and the cost layer evaluates the three terms as below.

Dephasing commutes with every ZZ gate, so the deg(q) channels that the
cost layer puts on qubit q act as one, after the layer, damping each X or
Y factor on q by (1 - 2p)^deg(q); the channels after the mixers leave
Z_u Z_v alone. The noisy cost is then the same formula with damped
coherences.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisyqaoa import (
    QaoaParams, WeightedGraph, build_circuit, cost_exact, landscape_argmin, make_channel, problem_hamiltonian,
)
from noisyqaoa.qaoa import adjoint_gradient_ideal


def closed_form_cost(edges, m, gamma, beta, p=0.0):
    """sum_uv w_uv <Z_u Z_v> after one dephased QAOA layer."""
    w = {}
    for i, j, wij in edges:
        w[i, j] = w[j, i] = wij
    nbrs = [{k for k in range(m) if (q, k) in w} for q in range(m)]
    damp = [(1.0 - 2.0 * p) ** len(nbrs[q]) for q in range(m)]
    c, s = math.cos(2 * beta), math.sin(2 * beta)

    def cos2(x):
        return math.cos(2 * gamma * x)

    total = 0.0
    for u, v, wuv in edges:
        # <Y_u Z_v> and <Z_u Y_v> in U_C |+>
        yz = math.sin(2 * gamma * wuv) * math.prod(cos2(w[u, k]) for k in nbrs[u] - {v})
        zy = math.sin(2 * gamma * wuv) * math.prod(cos2(w[v, k]) for k in nbrs[v] - {u})
        # <Y_u Y_v>: common neighbours pair up, the others give one cosine each
        common = (nbrs[u] & nbrs[v]) - {u, v}
        only = math.prod(cos2(w[u, k]) for k in nbrs[u] - common - {v}) * math.prod(
            cos2(w[v, k]) for k in nbrs[v] - common - {u}
        )
        yy = 0.5 * only * (
            math.prod(cos2(w[u, k] - w[v, k]) for k in common)
            - math.prod(cos2(w[u, k] + w[v, k]) for k in common)
        )
        zz = -c * s * (damp[u] * yz + damp[v] * zy) + s * s * damp[u] * damp[v] * yy
        total += wuv * zz
    return total


def random_graph(rng, m):
    edges = tuple(
        (i, j, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)))
        for i in range(m) for j in range(i + 1, m) if rng.random() < 0.6
    )
    return WeightedGraph(m, edges or ((0, 1, 1.0),))


def assert_matches(graph, gamma, beta, p):
    seq = build_circuit(graph, QaoaParams([gamma], [beta]))
    h = problem_hamiltonian(graph)
    expected = closed_form_cost(graph.edges, graph.num_nodes, gamma, beta, p)
    assert cost_exact(seq, h, make_channel("dephasing", p)) == pytest.approx(expected, abs=1e-12)
    if p == 0.0:
        assert cost_exact(seq, h) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("p", [0.0, 1e-4, 0.02, 0.3])
@pytest.mark.parametrize("gamma, beta", [(0.35, 0.25), (-1.1, 0.7), (2.3, -0.4)])
def test_table1_matches_closed_form(table1, gamma, beta, p):
    assert_matches(table1, gamma, beta, p)


@given(m=st.integers(2, 6), seed=st.integers(0, 10_000), p=st.sampled_from([0.0, 0.01, 0.2]))
@settings(max_examples=40, deadline=None)
def test_random_weighted_graphs_match_closed_form(m, seed, p):
    rng = np.random.default_rng(seed)
    assert_matches(random_graph(rng, m), float(rng.uniform(-np.pi, np.pi)), float(rng.uniform(-np.pi, np.pi)), p)


@given(m=st.integers(2, 6), seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_ideal_adjoint_gradient_matches_closed_form_differences(m, seed):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, m)
    gamma, beta = (float(x) for x in rng.uniform(-np.pi, np.pi, 2))
    _, d_gamma, d_beta = adjoint_gradient_ideal(build_circuit(graph, QaoaParams([gamma], [beta])),
                                                problem_hamiltonian(graph))
    h = 1e-5

    def cost(g, b):
        return closed_form_cost(graph.edges, m, g, b)

    assert d_gamma[0] == pytest.approx((cost(gamma + h, beta) - cost(gamma - h, beta)) / (2 * h), abs=1e-7)
    assert d_beta[0] == pytest.approx((cost(gamma, beta + h) - cost(gamma, beta - h)) / (2 * h), abs=1e-7)


def test_ideal_landscape_cell_is_the_closed_form_argmin(table1):
    # acceptance 10's ideal cell, on the same 21 x 21 grid over [0, 1]^2
    axis = np.linspace(0.0, 1.0, 21)
    grid = np.array([[closed_form_cost(table1.edges, table1.num_nodes, g, b) for b in axis] for g in axis])
    ig, ib, value = landscape_argmin(table1)
    assert (ig, ib) == np.unravel_index(np.argmin(grid), grid.shape)
    assert value == pytest.approx(grid.min(), abs=1e-12)
