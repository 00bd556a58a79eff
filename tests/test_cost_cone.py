"""The noisy cost and adjoint on the two-sided light cone, against the
full even-sector sweep.

Under a Pauli channel, cost_exact and adjoint_gradient_noisy sweep only
the coefficient pairs that |+>^m can reach and a cost term can see (the
cone plan of qaoa), and landscape_argmin shares one cone sweep of the edge
layer per gamma row. They run the same elementwise operations on every
coefficient they compute as the full sweep and the full-sector adjoint
loop below, so they are compared with ==, not at a tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisyqaoa import QaoaParams, build_circuit, cost_exact, make_channel, problem_hamiltonian
from noisyqaoa.experiments import landscape_argmin
from noisyqaoa.noise import custom_channel
from noisyqaoa.qaoa import (
    GateSequence,
    _channel_on,
    _cone_plan,
    _landscape_row,
    _noisy_sweep,
    _plan_of,
    adjoint_gradient_noisy,
    with_shifted_gate,
)
from noisyqaoa.statevector import _pair_table, rotate_pairs
from test_even_sector import PAULIS, amplitude_damping, pauli_mixture
from test_ideal_oracle import graphs

KINDS = ("dephasing", "bitflip", "depolarizing", "pauli-mixture")
STRENGTHS = (0.0, 1e-4, 0.02, 0.3, 1.0)


def channel_at(kind, p, rng):
    """The named channel at strength p, or a random Pauli mixture with
    weight 1 - p on the identity, its Kraus operators carrying random
    phases."""
    if kind != "pauli-mixture":
        return make_channel(kind, p)
    w = p * rng.dirichlet(np.ones(4))
    w[0] += 1.0 - p
    return custom_channel([math.sqrt(wi) * np.exp(2j * np.pi * rng.random()) * P for wi, P in zip(w, PAULIS)])


def channel_of(kind, rng):
    """The named channel at a random strength, or a Pauli mixture drawn
    over the whole simplex."""
    if kind == "pauli-mixture":
        return pauli_mixture(rng)
    return make_channel(kind, rng.uniform(0.0, 0.3))


def variants(circuit, rng):
    """The circuit, one copy with a shifted gate, one cut after a random
    gate (often mid-run) and one cut right after an edge gate."""
    gates, m = circuit.gates, circuit.num_qubits
    last_edge = max(k for k, g in enumerate(gates) if g.param == "gamma")
    return {
        "whole": circuit,
        "shifted": with_shifted_gate(circuit, int(rng.integers(len(gates))), rng.uniform(-1.0, 1.0)),
        "cut": GateSequence.of_gates(m, gates[:int(rng.integers(1, len(gates) + 1))]),
        "ends-in-edge": GateSequence.of_gates(m, gates[:last_edge + 1]),
    }


def full_cost(circuit, h, channel):
    return _noisy_sweep(circuit, channel).cost(h)


def full_adjoint(circuit, h, channel, seen=None):
    """The full-sector adjoint loop the cone replaced: every gate rotates
    its whole pair table, forward and backward. seen, when given, receives
    each gate's (sigma, E), last gate first."""
    n = 1 + max(g.step for g in circuit.gates)
    sweep = _noisy_sweep(circuit, channel, store=True)
    r, scales, pairs, sigmas = sweep
    R_adj = channel.ptm.T
    e, spare = np.zeros(r.size), np.empty(r.size)
    for k, w in sweep.zz_terms(h):
        e[k] += w
    grads = {"gamma": np.zeros(n), "beta": np.zeros(n)}
    for gate, idx, sigma in zip(reversed(circuit.gates), reversed(pairs), sigmas[::-1]):
        e, spare = _channel_on(e, spare, R_adj, scales, gate.targets)
        E = e[idx]
        if seen is not None:
            seen.append((sigma, E))
        term = np.einsum("i,i->", E[1], sigma[0]) - np.einsum("i,i->", E[0], sigma[1])
        grads[gate.param][gate.step] += 2.0 * gate.weight * term
        rotate_pairs(e, idx, -2.0 * gate.weight * gate.angle, E)
    return sweep.cost(h), grads["gamma"], grads["beta"]


def random_circuit(graph, n, rng):
    return build_circuit(graph, QaoaParams(rng.uniform(-np.pi, np.pi, n), rng.uniform(-np.pi, np.pi, n)))


def assert_cone_costs(graph, n, channel, rng):
    h = problem_hamiltonian(graph)
    for name, variant in variants(random_circuit(graph, n, rng), rng).items():
        assert cost_exact(variant, h, channel) == full_cost(variant, h, channel), name


def assert_cone_adjoint(graph, n, channel, rng):
    h = problem_hamiltonian(graph)
    for name, variant in variants(random_circuit(graph, n, rng), rng).items():
        cost, d_gamma, d_beta = adjoint_gradient_noisy(variant, h, channel)
        want = full_adjoint(variant, h, channel)
        assert cost == want[0], name
        assert np.array_equal(d_gamma, want[1]) and np.array_equal(d_beta, want[2]), name


@given(graph=graphs(), n=st.integers(1, 3), kind=st.sampled_from(KINDS), p=st.sampled_from(STRENGTHS),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_cone_cost_is_the_full_sweep_cost(graph, n, kind, p, seed):
    rng = np.random.default_rng(seed)
    assert_cone_costs(graph, n, channel_at(kind, p, rng), rng)


@given(graph=graphs(), n=st.integers(1, 3), kind=st.sampled_from(KINDS), p=st.sampled_from(STRENGTHS),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_cone_adjoint_is_the_full_adjoint(graph, n, kind, p, seed):
    rng = np.random.default_rng(seed)
    assert_cone_adjoint(graph, n, channel_at(kind, p, rng), rng)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cone_cost_on_table1(table1, n, kind):
    rng = np.random.default_rng(100 * n + KINDS.index(kind))
    for p in STRENGTHS:
        assert_cone_costs(table1, n, channel_at(kind, p, rng), rng)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cone_adjoint_on_table1(table1, n, kind):
    rng = np.random.default_rng(200 * n + KINDS.index(kind))
    for p in STRENGTHS:
        assert_cone_adjoint(table1, n, channel_at(kind, p, rng), rng)


def first_minimum(costs):
    """(row, column, cost) of the first strict minimum in row-major order."""
    best = None
    for ig, row in enumerate(costs):
        for ib, c in enumerate(row):
            if best is None or c < best[2]:
                best = (ig, ib, c)
    return best


def per_cell(graph, cost, gammas, betas):
    return [[cost(build_circuit(graph, QaoaParams([g], [b]))) for b in betas] for g in gammas]


@given(graph=graphs(), kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_shared_rows_are_the_per_cell_sweeps(graph, kind, seed):
    rng = np.random.default_rng(seed)
    channel, h = channel_of(kind, rng), problem_hamiltonian(graph)
    gammas, betas = rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 4)
    expected = per_cell(graph, lambda c: full_cost(c, h, channel), gammas, betas)
    assert [_landscape_row(graph, h, channel, g, betas) for g in gammas] == expected
    assert landscape_argmin(graph, channel, gammas, betas) == first_minimum(expected)


@pytest.mark.parametrize("kind", KINDS)
def test_table1_landscape_is_the_per_cell_landscape(table1, table1_h, kind):
    channel, axis = channel_of(kind, np.random.default_rng(3)), np.linspace(0.0, 1.0, 6)
    expected = per_cell(table1, lambda c: full_cost(c, table1_h, channel), axis, axis)
    assert landscape_argmin(table1, channel, axis, axis) == first_minimum(expected)


def test_ties_keep_the_first_cell(table1, table1_h):
    # repeated angles make equal cells; the first in row-major order wins
    channel = make_channel("depolarizing", 0.01)
    gammas, betas = [0.9, 0.4, 0.4, 0.9], [0.7, 0.3, 0.7, 0.3]
    expected = per_cell(table1, lambda c: full_cost(c, table1_h, channel), gammas, betas)
    got = landscape_argmin(table1, channel, gammas, betas)
    assert got == first_minimum(expected)
    assert got[:2] in {(1, 0), (1, 1), (0, 0), (0, 1)}


@pytest.mark.parametrize("channel", [None, amplitude_damping(np.random.default_rng(4))], ids=["ideal", "damping"])
def test_other_landscapes_stay_per_cell(table1, table1_h, channel):
    axis = np.linspace(0.0, 1.0, 5)
    expected = per_cell(table1, lambda c: cost_exact(c, table1_h, channel), axis, axis)
    assert [_landscape_row(table1, table1_h, channel, g, axis) for g in axis] == expected
    assert landscape_argmin(table1, channel, axis, axis) == first_minimum(expected)


class TestConePlan:
    def test_plan_is_read_only_and_built_once(self, table1, table1_h):
        circuit = build_circuit(table1, QaoaParams([0.3], [0.4]))
        channel = make_channel("dephasing", 0.02)
        _cone_plan.cache_clear()
        cost_exact(circuit, table1_h, channel)
        adjoint_gradient_noisy(circuit, table1_h, channel)
        landscape_argmin(table1, channel, [0.1, 0.2], [0.3, 0.4])
        plan = _plan_of(circuit.layout, table1_h)
        assert _cone_plan.cache_info().misses == 1
        cost_exact(build_circuit(table1, QaoaParams([0.3, 0.1], [0.4, 0.2])), table1_h, channel)
        assert _cone_plan.cache_info().misses == 2
        arrays = [plan.cone, plan.start, plan.terms, *(a for pair in plan.gates for a in pair)]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[..., 0] = 0

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_swept_pairs_are_the_pairs_live_both_ways(self, table1, table1_h, n):
        # at generic angles a pair is live forward where the full sweep's
        # sigma has a nonzero side, and backward where the full adjoint's E has
        circuit, m = random_circuit(table1, n, np.random.default_rng(n)), table1.num_nodes
        seen = []
        full_adjoint(circuit, table1_h, make_channel("depolarizing", 0.0), seen)
        plan = _plan_of(circuit.layout, table1_h)
        for gate, (pairs, spots), (sigma, E) in zip(circuit.gates, plan.gates, seen[::-1]):
            cols = spots[0]
            assert np.array_equal(spots[1], cols + 4 ** m // 8)
            assert np.array_equal(plan.cone[pairs], _pair_table(m, gate.targets, True)[:, cols])
            live = (sigma != 0).any(axis=0) & (E != 0).any(axis=0)
            assert np.array_equal(cols, np.flatnonzero(live))
        # at n = 1 the cone is a small part of the 8,192-coefficient sector
        assert plan.cone.size <= (64 if n == 1 else 4 ** m // 4)
