"""The trajectory tree against the row-by-row trajectory loop it replaced.

For a unitary-mixture channel, trajectory_states evolves each distinct
fault history once, on a tree of shared prefixes, and cost_sampled takes
each distinct final state's marginal once. Every kernel acts on each row
alone, so the tree must reproduce the loop that evolves every faulty row
from the start bit for bit: the states are compared with
np.array_equal, and the sampled costs with ==.
"""

import math

import numpy as np
import pytest

from noisyqaoa import (
    QaoaParams,
    WeightedGraph,
    build_circuit,
    cost_sampled,
    make_channel,
    problem_hamiltonian,
    table1_graph,
    trajectory_states,
)
from noisyqaoa.noise import CPTP_TOL, custom_channel
from noisyqaoa.qaoa import _fault_events, _select_branches, noise_event_count
from noisyqaoa.statevector import apply_1q, gate_on

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1j], [1j, 0.0]])
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)

PAULI_KINDS = ("dephasing", "bitflip", "depolarizing")
TRIANGLE = WeightedGraph(3, ((0, 1, 1.0), (0, 2, -0.6), (1, 2, 0.8)))

CUSTOM = {
    # the identity is the second branch, so faults sit on both sides of it
    "identity-second": custom_channel([math.sqrt(0.1) * X, math.sqrt(0.85) * I2, math.sqrt(0.05) * Z]),
    # a zero operator has weight 0 and is never picked
    "zero-weight-branch": custom_channel([math.sqrt(0.8) * I2, np.zeros((2, 2)), math.sqrt(0.2) * Y]),
    # no identity branch: every uniform goes through the full selection
    "no-identity": custom_channel([math.sqrt(0.6) * X, math.sqrt(0.4) * Z]),
    # weights 0.95 + 0.05 sum to just below 1 in floating point
    "mixture-cdf-below-one": custom_channel(
        [math.sqrt(0.95) * I2, math.sqrt(0.05) * Z, np.zeros((2, 2))]),
}


def faults_of(channel):
    weights, unitaries = channel.unitary_mixture
    return weights, unitaries, [l for l, U in enumerate(unitaries) if np.abs(U - I2).max() > CPTP_TOL]


def reference_states(circuit, channel, uniforms):
    """The row-by-row loop: every branch is picked from the full (T, events)
    comparison, row 0 stands for every error-free trajectory, and each
    faulty row evolves from the start."""
    m = circuit.num_qubits
    events = noise_event_count(circuit)
    weights, unitaries, faults = faults_of(channel)
    branches = _select_branches(weights[:, None, None], uniforms)
    faulty = np.flatnonzero(np.isin(branches, faults).any(axis=1))
    picks = np.vstack([np.full(events, -1), branches[faulty]])
    states = np.full((len(picks), 1 << m), 2.0 ** (-m / 2.0), dtype=complex)
    col = 0
    for gate in circuit.gates:
        gate_on(states, gate, m)
        for q in gate.targets:
            for l in faults:
                rows = np.flatnonzero(picks[:, col] == l)
                if rows.size:
                    states[rows] = apply_1q(states[rows], unitaries[l], q)
            col += 1
    out = np.empty((len(uniforms), 1 << m), dtype=complex)
    out[:] = states[0]
    out[faulty] = states[1:]
    return out


def reference_cost(circuit, h, channel, shots, rng):
    """cost_sampled with one marginal per row of reference_states."""
    m = circuit.num_qubits
    events = noise_event_count(circuit)
    estimate, per_edge = 0.0, []
    for i, j, w in h.terms:
        states = reference_states(circuit, channel, rng.random((shots, events)))
        pr = np.abs(states) ** 2
        t = np.moveaxis(pr.reshape((shots,) + (2,) * m), (1 + m - 1 - i, 1 + m - 1 - j), (1, 2))
        probs4 = t.reshape(shots, 4, -1).sum(axis=2)
        outcomes = _select_branches(probs4.T, rng.random(shots))
        p_ij = float(np.mean((outcomes == 0) | (outcomes == 3)))
        per_edge.append(((i, j), p_ij))
        estimate += w * (2.0 * p_ij - 1.0)
    return estimate, per_edge


def circuit(graph, n, seed):
    rng = np.random.default_rng(seed)
    return build_circuit(graph, QaoaParams(rng.normal(size=n), rng.normal(size=n)))


CHANNELS = [(f"{kind}-{p:g}", make_channel(kind, p)) for kind in PAULI_KINDS for p in (0.0, 1e-4, 0.02, 0.3)]
CHANNELS += list(CUSTOM.items())


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name, channel", CHANNELS, ids=[name for name, _ in CHANNELS])
def test_tree_states_equal_the_row_loop(name, channel, n):
    seq = circuit(table1_graph(), n, seed=n)
    T = 600
    uniforms = np.random.default_rng(17).random((T, noise_event_count(seq)))
    assert np.array_equal(trajectory_states(seq, channel, T, uniforms=uniforms),
                          reference_states(seq, channel, uniforms))


@pytest.mark.parametrize("name, channel", CHANNELS, ids=[name for name, _ in CHANNELS])
def test_sampled_cost_equals_the_row_loop(name, channel):
    graph = table1_graph()
    h = problem_hamiltonian(graph)
    seq = circuit(graph, 2, seed=3)
    assert cost_sampled(seq, h, channel, 300, np.random.default_rng(8)) == reference_cost(
        seq, h, channel, 300, np.random.default_rng(8))


@pytest.mark.parametrize("kind", PAULI_KINDS)
def test_buffer_compacts_and_stays_equal(kind):
    # the live-state buffer holds at most 1 + 2T states, and the tree makes
    # one state per distinct fault history that ends in a fault; with more
    # of those than 2T it must drop the states no row points at on the way
    seq = circuit(TRIANGLE, 2, seed=5)
    channel = make_channel(kind, 0.6)
    T = 400
    uniforms = np.random.default_rng(23).random((T, noise_event_count(seq)))
    weights, _, faults = faults_of(channel)
    branches = _select_branches(weights[:, None, None], uniforms)
    history = np.where(np.isin(branches, faults), branches, -1)
    made = sum(len(np.unique(history[history[:, col] >= 0, :col + 1], axis=0))
               for col in range(history.shape[1]))
    assert made > 2 * T
    assert np.array_equal(trajectory_states(seq, channel, T, uniforms=uniforms),
                          reference_states(seq, channel, uniforms))


@pytest.mark.parametrize("name, channel", CHANNELS, ids=[name for name, _ in CHANNELS])
def test_fault_first_selection_equals_the_full_rule(name, channel):
    weights, _, faults = faults_of(channel)
    rng = np.random.default_rng(31)
    cdf = np.cumsum(weights)
    # random uniforms, the cdf's own values and their neighbours, and the
    # largest uniform below 1, which can sit at or above a total that
    # rounds below 1
    edges = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
                            [0.0, np.nextafter(1.0, 0.0)]])
    edges = edges[(edges >= 0.0) & (edges < 1.0)]
    uniforms = np.concatenate([rng.random(400), edges, rng.choice(edges, 200)]).reshape(-1, 1)
    uniforms = np.hstack([uniforms, rng.permutation(uniforms)])
    branches = _select_branches(weights[:, None, None], uniforms)
    got = _fault_events(weights, faults, uniforms)
    assert len(got) == uniforms.shape[1]
    for col, (rows, picks) in enumerate(got):
        want = np.flatnonzero(np.isin(branches[:, col], faults))
        assert np.array_equal(rows, want) and np.array_equal(picks, branches[want, col])


def test_uniform_below_one_picks_no_fault_when_the_last_nonzero_branch_is_the_identity():
    # weights (0.05, 0.95): the identity comes last and the cdf rounds
    # below 1, so the largest uniform falls back to the identity branch
    channel = custom_channel([math.sqrt(0.05) * Z, math.sqrt(0.95) * I2])
    weights, _, faults = faults_of(channel)
    assert faults == [0]
    r = np.nextafter(1.0, 0.0)
    assert _select_branches(weights[:, None], np.array([r]))[0] == 1
    events = _fault_events(weights, faults, np.full((3, 4), r))
    assert len(events) == 4 and all(rows.size == picks.size == 0 for rows, picks in events)
