"""Dense Kraus-sum reference for the benchmark's output checks.

Shares no code with noisyqaoa. Circuits are rebuilt from the graph's
edge list and the QAOA angles as full 2^m x 2^m matrices, the state
evolves as rho -> U rho U^dag and rho -> sum_k K rho K^dag with every
operator lifted to the whole register by Kronecker products, and costs
are Tr(rho H). The conventions are the ones the package documents: qubit
0 is the least significant bit of a basis index, bit b maps to spin
(-1)^b, each step applies exp(-i gamma C_ij Z_i Z_j) per edge in sorted
(i, j) order and then exp(+i beta X_q) per qubit, and the channel acts
after every gate on each qubit the gate touches.
"""

from __future__ import annotations

import math

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def lift(op: np.ndarray, qubit: int, m: int) -> np.ndarray:
    """op on one qubit, identity elsewhere, as a full 2^m x 2^m matrix."""
    out = np.ones((1, 1), dtype=complex)
    for q in range(m - 1, -1, -1):  # leftmost Kronecker factor is the top qubit
        out = np.kron(out, op if q == qubit else I2)
    return out


def spins(m: int) -> np.ndarray:
    """z_q = (-1)^bit_q for every basis index, shape (2^m, m)."""
    idx = np.arange(1 << m)
    return 1.0 - 2.0 * ((idx[:, None] >> np.arange(m)[None, :]) & 1)


def energies(edges, m: int) -> np.ndarray:
    z = spins(m)
    return sum(w * z[:, i] * z[:, j] for i, j, w in edges)


def kraus_ops(kind: str, p: float) -> list:
    """The named single-qubit channels, written out from their definitions."""
    if kind == "depolarizing":
        return [math.sqrt(1.0 - 0.75 * p) * I2] + [0.5 * math.sqrt(p) * P for P in (X, Y, Z)]
    if kind == "dephasing":
        return [math.sqrt(1.0 - p) * I2, math.sqrt(p) * Z]
    if kind == "bitflip":
        return [math.sqrt(1.0 - p) * I2, math.sqrt(p) * X]
    raise ValueError(f"no reference Kraus set for channel {kind!r}")


def _gates(edges, m: int, gamma, beta):
    """(full unitary, touched qubits) in circuit order."""
    z = spins(m)
    for g, b in zip(gamma, beta):
        for i, j, w in sorted(edges):
            yield np.diag(np.exp(-1j * g * w * z[:, i] * z[:, j])), (i, j)
        mixer = math.cos(b) * I2 + 1j * math.sin(b) * X
        for q in range(m):
            yield lift(mixer, q, m), (q,)


def ideal_state(edges, m: int, gamma, beta) -> np.ndarray:
    psi = np.full(1 << m, 2.0 ** (-m / 2.0), dtype=complex)
    for U, _ in _gates(edges, m, gamma, beta):
        psi = U @ psi
    return psi


def noisy_state(edges, m: int, gamma, beta, kind: str, p: float) -> np.ndarray:
    dim = 1 << m
    rho = np.full((dim, dim), 1.0 / dim, dtype=complex)
    lifted = [[lift(K, q, m) for K in kraus_ops(kind, p)] for q in range(m)]
    for U, targets in _gates(edges, m, gamma, beta):
        rho = U @ rho @ U.conj().T
        for q in targets:
            rho = sum(K @ rho @ K.conj().T for K in lifted[q])
    return rho


def cost(edges, m: int, gamma, beta, kind: str | None = None, p: float = 0.0) -> float:
    """<H_p> of the circuit output: ideal when kind is None, else exact-noisy."""
    e = energies(edges, m)
    if kind is None:
        psi = ideal_state(edges, m, gamma, beta)
        return float((np.abs(psi) ** 2) @ e)
    rho = noisy_state(edges, m, gamma, beta, kind, p)
    return float(np.trace(rho @ np.diag(e)).real)


def fidelity(edges, m: int, gamma, beta, kind: str, p: float) -> float:
    """<phi|rho|phi> of the noisy output against the ideal output phi."""
    psi = ideal_state(edges, m, gamma, beta)
    rho = noisy_state(edges, m, gamma, beta, kind, p)
    return float(np.vdot(psi, rho @ psi).real)


def ci_cost(edges, shots: int) -> float:
    """Worst-case 95% CI length of a shot-based cost, 2 sqrt(sum C^2 / M)."""
    return 2.0 * math.sqrt(sum(w * w for _, _, w in edges) / shots)


def rms_distance(gamma_a, beta_a, gamma_b, beta_b) -> float:
    d = np.concatenate([np.subtract(gamma_a, gamma_b), np.subtract(beta_a, beta_b)])
    return float(np.sqrt(np.mean(d * d)))
