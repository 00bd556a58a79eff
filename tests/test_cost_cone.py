"""The noisy cost on its light cone, against the full even-sector sweep.

Under a Pauli channel, cost_exact sweeps the gates before the circuit's
trailing run of mixers and finishes on the cost cone: the {Z,Y}_i {Z,Y}_j
coefficients of each term, which are all those mixers and their channels
move a Z_i Z_j coefficient among. landscape_argmin shares one sweep of
the edge layer per gamma row. Both run the same elementwise operations on
every coefficient as the full sweep, so they are compared with ==, not at
a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisyqaoa import QaoaParams, build_circuit, cost_exact, make_channel, problem_hamiltonian
from noisyqaoa.experiments import landscape_argmin
from noisyqaoa.qaoa import GateSequence, _cost_cone, _landscape_row, _noisy_sweep, with_shifted_gate
from noisyqaoa.statevector import sector_position
from test_even_sector import amplitude_damping, pauli_mixture
from test_ideal_oracle import graphs

KINDS = ("dephasing", "bitflip", "depolarizing", "pauli-mixture")


def channel_of(kind, rng):
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
        "cut": GateSequence(m, gates[:int(rng.integers(1, len(gates) + 1))]),
        "ends-in-edge": GateSequence(m, gates[:last_edge + 1]),
    }


def full_cost(circuit, h, channel):
    return _noisy_sweep(circuit, channel).cost(h)


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


def assert_cone_costs(graph, n, channel, rng):
    h = problem_hamiltonian(graph)
    circuit = build_circuit(graph, QaoaParams(rng.uniform(-np.pi, np.pi, n), rng.uniform(-np.pi, np.pi, n)))
    for name, variant in variants(circuit, rng).items():
        assert cost_exact(variant, h, channel) == full_cost(variant, h, channel), name


@given(graph=graphs(), n=st.integers(1, 3), kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_cone_cost_is_the_full_sweep_cost(graph, n, kind, seed):
    rng = np.random.default_rng(seed)
    assert_cone_costs(graph, n, channel_of(kind, rng), rng)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cone_cost_on_table1(table1, n, kind):
    rng = np.random.default_rng(100 * n + KINDS.index(kind))
    assert_cone_costs(table1, n, channel_of(kind, rng), rng)


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


class TestConeTables:
    def test_cone_is_each_terms_yz_block(self, table1):
        pairs = tuple((i, j) for i, j, _ in table1.edges)
        C, tables, terms = _cost_cone(table1.num_nodes, pairs)
        expected = {sector_position(a * 4 ** i + b * 4 ** j) for i, j in pairs for a in (2, 3) for b in (2, 3)}
        assert C.tolist() == sorted(expected) and C.size == 4 * len(pairs)
        assert C[terms].tolist() == [sector_position(3 * (4 ** i + 4 ** j)) for i, j in pairs]
        # each qubit's mixer rotates (Z_q, Y_q) of the two terms' blocks it touches
        for q, table in enumerate(tables):
            assert table.shape == (2, 2 * sum(q in pair for pair in pairs))

    def test_tables_are_read_only_and_built_once(self, table1, table1_h):
        circuit = build_circuit(table1, QaoaParams([0.3], [0.4]))
        channel = make_channel("dephasing", 0.02)
        _cost_cone.cache_clear()
        cost_exact(circuit, table1_h, channel)
        cone = _cost_cone(table1.num_nodes, tuple((i, j) for i, j, _ in table1.edges))
        landscape_argmin(table1, channel, [0.1, 0.2], [0.3, 0.4])
        assert _cost_cone.cache_info().misses == 1
        for array in (cone[0], cone[2], *cone[1]):
            with pytest.raises(ValueError, match="read-only"):
                array[..., 0] = 0
