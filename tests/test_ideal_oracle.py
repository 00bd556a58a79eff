"""The fused pure-state sweep against a dense oracle that shares no code
with the simulator.

The oracle multiplies kron-lifted 2^m x 2^m matrices exp(-i theta w Z_i Z_j)
and exp(+i beta X_q), made by scipy's expm, one per gate in circuit order,
and takes each gate's derivative by inserting its generator (-i w Z_i Z_j
or +i X_q) right after the gate. It reads only the circuit's gate list:
param, targets, weight, angle and step.
"""

import itertools

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from noisyqaoa import QaoaParams, WeightedGraph, build_circuit, problem_hamiltonian, run_ideal, with_shifted_gate
from noisyqaoa.qaoa import adjoint_gradient_ideal
from oracles import X, Z, hamiltonian, lift

TOL = 1e-12


def generator(gate, m):
    """(G, U) with dU/dangle = G U."""
    if gate.param == "gamma":
        i, j = gate.targets
        G = -1j * gate.weight * lift(Z, i, m) @ lift(Z, j, m)
    else:
        G = 1j * lift(X, gate.targets[0], m)
    return G, expm(gate.angle * G)


def dense_oracle(circuit, graph):
    """(state, cost, d_gamma, d_beta) of the circuit by dense products."""
    m = circuit.num_qubits
    ops = [generator(g, m) for g in circuit.gates]
    H = hamiltonian(graph)
    plus = np.full(1 << m, 2.0 ** (-m / 2))

    def run(insert_at=None):
        psi = plus.astype(complex)
        for k, (G, U) in enumerate(ops):
            psi = U @ psi
            if k == insert_at:
                psi = G @ psi
        return psi

    psi = run()
    n = 1 + max(g.step for g in circuit.gates)
    grads = {"gamma": np.zeros(n), "beta": np.zeros(n)}
    for k, gate in enumerate(circuit.gates):
        grads[gate.param][gate.step] += 2.0 * np.vdot(psi, H @ run(insert_at=k)).real
    return psi, np.vdot(psi, H @ psi).real, grads["gamma"], grads["beta"]


@st.composite
def graphs(draw):
    m = draw(st.integers(2, 6))
    pairs = list(itertools.combinations(range(m), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    weights = draw(st.lists(st.floats(0.1, 2.0), min_size=len(chosen), max_size=len(chosen)))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(chosen), max_size=len(chosen)))
    return WeightedGraph(m, tuple((i, j, s * w) for (i, j), w, s in zip(chosen, weights, signs)))


def assert_matches(circuit, graph):
    psi, cost, d_gamma, d_beta = dense_oracle(circuit, graph)
    assert np.abs(run_ideal(circuit).amplitudes - psi).max() < TOL
    got_cost, got_gamma, got_beta = adjoint_gradient_ideal(circuit, problem_hamiltonian(graph))
    assert abs(got_cost - cost) < TOL
    assert np.abs(got_gamma - d_gamma).max() < TOL
    assert np.abs(got_beta - d_beta).max() < TOL


# a single edge, with node 2 isolated
SINGLE_EDGE = WeightedGraph(3, ((0, 1, 0.7),))


def random_circuit(graph, n, rng):
    return build_circuit(graph, QaoaParams(rng.uniform(-np.pi, np.pi, n), rng.uniform(-np.pi, np.pi, n)))


@given(graph=graphs(), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(graph=SINGLE_EDGE, n=2, seed=0)
@settings(max_examples=40, deadline=None)
def test_sweep_matches_dense_oracle(graph, n, seed):
    assert_matches(random_circuit(graph, n, np.random.default_rng(seed)), graph)


@given(graph=graphs(), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(graph=SINGLE_EDGE, n=1, seed=0)
@settings(max_examples=40, deadline=None)
def test_shifted_gates_match_dense_oracle(graph, n, seed):
    # a random subset of the gates, each shifted by its own delta: unequal
    # angles inside edge runs and mixer runs
    rng = np.random.default_rng(seed)
    circuit = random_circuit(graph, n, rng)
    for k in rng.permutation(circuit.gate_count)[: rng.integers(1, circuit.gate_count + 1)]:
        circuit = with_shifted_gate(circuit, int(k), float(rng.normal()))
    assert_matches(circuit, graph)

