"""Reference implementations that the tests compare the package against.

Each oracle works on dense 2^m x 2^m matrices: a one-qubit operator is
kron-lifted to the register (lift), a gate of weight w and angle t is
exp(t w P) = cos(t w) I + sin(t w) P for its lifted Pauli generator P
(pauli_generator), and a channel is the literal Kraus sum. States are
plain arrays: amplitudes of length 2^m, or a 2^m x 2^m density matrix.

From noisyqaoa an oracle takes only input records: a graph, QaoaParams,
the circuits of build_circuit and with_shifted_gate with their QaoaGate
fields, and a channel's kraus tuple. It runs no kernel, sweep or
evaluator of the package, so a fault there cannot hide in the reference;
test_oracles.py checks this by parsing this file.
"""

import math
from functools import lru_cache

import numpy as np

from noisyqaoa import QaoaParams, build_circuit, with_shifted_gate

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.diag([1.0, -1.0])


def lift(M, q, m):
    """M on qubit q of m, I_(2^(m-1-q)) x M x I_(2^q) (little-endian:
    qubit 0 is the last kron factor), as one outer product."""
    lo, hi = 1 << q, 1 << (m - 1 - q)
    return np.einsum("ab,ij,kl->aikbjl", np.eye(hi), M, np.eye(lo)).reshape(2 * hi * lo, -1)


def num_qubits(state) -> int:
    """m of an array whose first axis has length 2^m."""
    return len(state).bit_length() - 1


def check_qubits(m, qubits):
    for q in qubits:
        if not 0 <= q < m:
            raise ValueError(f"qubit index {q} out of range for {m} qubits")


def projector(psi):
    """|psi><psi|."""
    return np.outer(psi, psi.conj())


def plus(m):
    """Amplitudes of |+>^m."""
    return np.full(1 << m, 2.0 ** (-m / 2.0), dtype=complex)


@lru_cache(maxsize=256)
def pauli_generator(param, targets, m):
    """P = -i Z_i Z_j for an edge gate, +i X_q for a mixer (read-only): the
    gate of weight w and angle t is exp(t w P), and P^2 = -I."""
    if param == "gamma":
        i, j = targets
        P = -1j * lift(Z, i, m) @ lift(Z, j, m)
    else:
        P = 1j * lift(X, targets[0], m)
    P.setflags(write=False)
    return P


def gate_step(gate, psi, m):
    """exp(t w P) psi = cos(t w) psi + sin(t w) P psi."""
    a = gate.weight * gate.angle
    return math.cos(a) * psi + math.sin(a) * (pauli_generator(gate.param, gate.targets, m) @ psi)


def hamiltonian(graph):
    """sum_ij C_ij Z_i Z_j as a dense matrix."""
    m = graph.num_nodes
    return sum((w * lift(Z, i, m) @ lift(Z, j, m) for i, j, w in graph.edges), np.zeros((1 << m, 1 << m)))


def ideal_state(circuit):
    """|+>^m through the circuit's gates, in order."""
    m = circuit.num_qubits
    psi = plus(m)
    for gate in circuit.gates:
        psi = gate_step(gate, psi, m)
    return psi


def apply_kraus_exact(rho, channel, qubit):
    """sum_i (K_i x I) rho (K_i x I)^dag with K_i on one qubit."""
    m = num_qubits(rho)
    check_qubits(m, (qubit,))
    lifted = [lift(K, qubit, m) for K in channel.kraus]
    return sum(K @ rho @ K.conj().T for K in lifted)


def sample_kraus(psi, channel, qubit, r):
    """One Monte-Carlo trajectory step on one qubit: (K_l psi / |K_l psi|, l).

    The branch probabilities are p_i = |K_i psi|^2. Branch l is the first
    whose cumulative probability exceeds r (r = 0 selects the first
    branch); when rounding leaves r at or above the total, it is the last
    branch of nonzero probability.
    """
    m = num_qubits(psi)
    check_qubits(m, (qubit,))
    branches = [lift(K, qubit, m) @ psi for K in channel.kraus]
    probs = np.array([np.vdot(b, b).real for b in branches])
    if probs.sum() <= 1e-12:
        raise ValueError("all Kraus branch probabilities vanished")
    l = int(np.searchsorted(np.cumsum(probs), r, side="right"))
    if l == len(probs):
        l = int(np.flatnonzero(probs > 1e-15)[-1])
    return branches[l] / math.sqrt(probs[l]), l


def run_trajectory(circuit, channel, rng):
    """One trajectory's final amplitudes: each gate, then a sample_kraus
    step per target, drawing one rng.random() per noise event in gate
    order, then target order."""
    m = circuit.num_qubits
    psi = plus(m)
    for gate in circuit.gates:
        psi = gate_step(gate, psi, m)
        for q in gate.targets:
            psi = sample_kraus(psi, channel, q, rng.random())[0]
    return psi


def pure_fidelity(a, b):
    """|<a|b>|^2 for two amplitude arrays of equal length."""
    if a.shape != b.shape:
        raise ValueError("state dimensions differ")
    return float(abs(np.vdot(a, b)) ** 2)


def output_fidelity(psi, rho):
    """<psi|rho|psi> between pure amplitudes and a density matrix."""
    if rho.shape != (len(psi), len(psi)):
        raise ValueError("state dimensions differ")
    return float(np.vdot(psi, rho @ psi).real)


def measurement_probabilities(state, qubits):
    """Computational-basis marginal (p00, p01, p10, p11) over a qubit pair,
    as Tr(P_a(i) P_b(j) rho) with P_0, P_1 the one-bit projectors; the
    first subscript is the bit of qubits[0]. state is amplitudes or a
    density matrix."""
    i, j = qubits
    if i == j:
        raise ValueError("measurement qubits must be distinct")
    m = num_qubits(state)
    check_qubits(m, (i, j))
    rho = projector(state) if state.ndim == 1 else state
    bit = ((I2 + Z) / 2, (I2 - Z) / 2)
    return tuple(float(np.trace(lift(bit[a], i, m) @ lift(bit[b], j, m) @ rho).real)
                 for a in (0, 1) for b in (0, 1))


def shifted_evaluation_gradient(graph, params, evaluator):
    """The per-gate shift rule as 2N evaluations, (d_gamma, d_beta) flat:
    gate k of weight w adds w [f(+pi/(4w)) - f(-pi/(4w))], with only
    gate k's angle shifted, to its parameter's derivative."""
    circuit = build_circuit(graph, params)
    grads = {"gamma": np.zeros(params.n), "beta": np.zeros(params.n)}
    for k, gate in enumerate(circuit.gates):
        shift = math.pi / (4.0 * gate.weight)
        f_plus = evaluator(with_shifted_gate(circuit, k, shift))
        f_minus = evaluator(with_shifted_gate(circuit, k, -shift))
        grads[gate.param][gate.step] += gate.weight * (f_plus - f_minus)
    return np.concatenate([grads["gamma"], grads["beta"]])


def finite_difference_gradient(graph, params, step=1e-5, evaluator=None):
    """Central differences [f(t+h) - f(t-h)] / 2h, (d_gamma, d_beta) flat,
    of the evaluator's cost, by default the dense ideal cost."""
    if step <= 0:
        raise ValueError("finite-difference step must be positive")
    if evaluator is None:
        H = hamiltonian(graph)

        def evaluator(circuit):
            psi = ideal_state(circuit)
            return float(np.vdot(psi, H @ psi).real)

    theta = np.concatenate([params.gamma, params.beta])
    grad = np.zeros(theta.size)
    for k in range(theta.size):
        f = [evaluator(build_circuit(graph, QaoaParams(*np.split(theta + s * np.eye(theta.size)[k], 2))))
             for s in (step, -step)]
        grad[k] = (f[0] - f[1]) / (2.0 * step)
    return grad
