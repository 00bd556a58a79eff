"""QAOA circuit compilation and execution.

A circuit for step count n alternates, for each step k: one diagonal
two-qubit gate exp(-i gamma_k C_ij Z_i Z_j) per edge (sorted (i, j)
ascending), then one mixer gate exp(+i beta_k X_q) per qubit. The mixer
exponent is positive because the drive Hamiltonian is -sum_q X_q. The
gate count is N = n * (E + m); state preparation |+>^m is noiseless and
not counted.

Noise is inserted after every gate, once per touched qubit (two channel
applications for edge gates, one for mixer gates).

Exact noisy evolution runs on the state's 4^m real Pauli coefficients
(see statevector): every channel is its Pauli transfer matrix on one
qubit's axis and every gate a set of real rotations between coefficient
pairs, by the angle phi = 2 w theta. One forward sweep serves the noisy
cost, which reads the Z_i Z_j coefficients, the density matrix of
run_exact_noisy, converted once at the end, the fidelity driver's
readout and the adjoint gradient.
For a Pauli channel the sweep holds only the even sector (see
statevector), the half of the coefficients that the global bit flip,
the Z2 symmetry of Max-Cut QAOA, leaves nonzero; any other channel
keeps all 4^m.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .maxcut import ProblemHamiltonian, WeightedGraph, exact_expectation
from .noise import CPTP_TOL, NoiseChannel, make_channel
from .statevector import (
    MAX_DENSE_QUBITS,
    DensityMatrix,
    SimulationError,
    StateVector,
    apply_1q,
    apply_ptm,
    bit_flips,
    even_sector,
    gate_on,
    mix,
    pauli_to_density,
    plus_state,
    rotate_pairs,
    rotation_pairs,
    sector_position,
    zz_parities,
)


@dataclass(frozen=True, eq=False)
class QaoaParams:
    """Parameter vectors (gamma, beta), each of length n (radians)."""

    gamma: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        b = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if g.shape != b.shape or g.ndim != 1 or g.size < 1:
            raise ValueError("gamma and beta must be equal-length 1-D vectors, n >= 1")
        if not (np.isfinite(g).all() and np.isfinite(b).all()):
            raise ValueError("non-finite QAOA parameters")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "beta", b)

    @property
    def n(self) -> int:
        return int(self.gamma.size)


@dataclass(frozen=True)
class GateSequence:
    """Compiled ordered list of QaoaGates; gate_count is N = n * (E + m)."""

    num_qubits: int
    gates: tuple

    def __post_init__(self):
        for k, gate in enumerate(self.gates):
            if not isinstance(gate, QaoaGate):
                raise ValueError(f"gate {k} is a {type(gate).__name__}, not a QaoaGate")

    @property
    def gate_count(self) -> int:
        return len(self.gates)


class QaoaGate(NamedTuple):
    """A QAOA gate as an angle record: the edge gate
    exp(-i angle weight Z_i Z_j) (param "gamma") or the mixer
    exp(+i angle X_q) (param "beta", weight 1) of QAOA step `step`."""

    targets: tuple
    step: int
    param: str
    weight: float
    angle: float


def build_circuit(graph: WeightedGraph, params: QaoaParams) -> GateSequence:
    """Compile the alternating edge/mixer gate list for the given graph.

    Checks nothing per gate: a WeightedGraph holds its edges as
    0 <= i < j < m, and QaoaParams only finite angles, for which every
    edge gate and mixer is unitary."""
    m = graph.num_nodes
    edges = sorted(graph.edges)
    gates = []
    for k, (gamma, beta) in enumerate(zip(params.gamma.tolist(), params.beta.tolist())):
        gates += [QaoaGate((i, j), k, "gamma", w, gamma) for i, j, w in edges]
        gates += [QaoaGate((q,), k, "beta", 1.0, beta) for q in range(m)]
    return GateSequence(m, tuple(gates))


def with_shifted_gate(seq: GateSequence, index: int, delta: float) -> GateSequence:
    """Copy of the sequence with only gate `index`'s angle shifted by delta."""
    g = seq.gates[index]
    gates = list(seq.gates)
    gates[index] = g._replace(angle=g.angle + delta)
    return GateSequence(seq.num_qubits, tuple(gates))


def _ideal_plan(circuit: GateSequence) -> tuple:
    """The circuit as the ops of the fused pure-state sweep, in order, with
    the weights, angles and steps of its gates. A run of consecutive edge
    gates or of consecutive mixers is (param, table, rows), with table the
    run's zz_parities or bit_flips and rows its slice of those arrays."""
    m = circuit.num_qubits
    ops, steps, w, theta = [], [], [], []
    for param, run in groupby(circuit.gates, key=attrgetter("param")):
        targets, run_steps, _, run_w, run_theta = zip(*run)  # QaoaGate fields
        table = zz_parities(m, targets) if param == "gamma" else bit_flips(m, targets)
        ops.append((param, table, slice(len(steps), len(steps) + len(targets))))
        steps += run_steps
        w += run_w
        theta += run_theta
    return ops, np.array(w, dtype=float), np.array(theta, dtype=float), np.array(steps, dtype=int)


def _ideal_sweep(circuit: GateSequence, plan: tuple, phases: list | None = None) -> np.ndarray:
    """Amplitudes of |+>^m through the circuit; plan is _ideal_plan(circuit).
    A run of edge gates is one multiply by exp(-i sum_g w_g theta_g z_i z_j),
    a run of mixers is applied in place. The one forward pass of run_ideal,
    the ideal cost_exact and adjoint_gradient_ideal: phases, when given,
    receives each edge run's phase vector."""
    m = circuit.num_qubits
    ops, w, theta, _ = plan
    w_theta, angles = w * theta, theta.tolist()
    psi = plus_state(m).amplitudes
    for param, table, rows in ops:
        if param == "gamma":
            phase = np.exp(-1j * (w_theta[rows] @ table))
            psi *= phase
            if phases is not None:
                phases.append(phase)
        else:
            mix(psi, table, angles[rows])
    return psi


def run_ideal(circuit: GateSequence) -> StateVector:
    """|+>^m evolved through all gates in order (noiseless)."""
    return StateVector(circuit.num_qubits, _ideal_sweep(circuit, _ideal_plan(circuit)))


def _channel_on(r: np.ndarray, spare: np.ndarray, R: np.ndarray, scales: list | None, targets) -> tuple:
    """(result, spare buffer) of the transfer matrix R on each target: in
    place on the even sector for a Pauli channel (scales =
    NoiseChannel.ptm_scales), else via spare. Channels on different qubits
    commute, so the adjoint keeps the order."""
    for q in targets:
        if scales is None:
            r, spare = apply_ptm(r, R, q, spare), r
        else:
            r *= scales[q]
    return r, spare


class _Sweep(NamedTuple):
    """A forward sweep: the coefficients r, the channel's scales (None for
    a channel that keeps all 4^m coefficients, else r is the even sector),
    the pairs of every gate in r's layout and, if stored, the sigmas."""

    r: np.ndarray
    scales: list | None
    pairs: list
    sigmas: np.ndarray | None

    def zz_terms(self, h: ProblemHamiltonian) -> list:
        """(index in r of the Z_i Z_j coefficient, C_ij) per term: <H_p>
        is sum_ij C_ij r_(Z_i Z_j)."""
        position = int if self.scales is None else sector_position
        return [(position(3 * (4 ** i + 4 ** j)), w) for i, j, w in h.terms]

    def cost(self, h: ProblemHamiltonian) -> float:
        return float(sum(w * self.r[k] for k, w in self.zz_terms(h)))


def _noisy_sweep(circuit: GateSequence, channel: NoiseChannel, store: bool = False) -> _Sweep:
    """Pauli coefficients r of the noisy output of |+>^m, with the channel
    after every gate on each qubit it touches: the 4^m / 2 of the even
    sector for a Pauli channel, else all 4^m. The one forward pass of
    run_exact_noisy, cost_exact and adjoint_gradient_noisy; sigmas[k], when
    store is set, holds the values of gate k's pairs after the gate and
    before its channels."""
    m = circuit.num_qubits
    if m > MAX_DENSE_QUBITS:  # before any 4^m array, the scales' included
        raise ValueError(f"density-matrix evolution limited to {MAX_DENSE_QUBITS} qubits")
    R, scales = channel.ptm, channel.ptm_scales(m)
    pairs = [rotation_pairs(gate, m, scales is not None) for gate in circuit.gates]
    r = np.zeros((4,) * (m - 1) + (4 if scales is None else 2,))  # the sector drops qubit 0's Y/Z bit
    r[(slice(0, 2),) * m] = 1.0  # |+>^m
    r, spare = r.reshape(-1), np.empty(r.size)
    sigmas = np.empty((len(pairs), 2, r.size // 4)) if store else None
    for k, (gate, idx) in enumerate(zip(circuit.gates, pairs)):
        rotated = rotate_pairs(r, idx, 2.0 * gate.weight * gate.angle)
        if store:
            sigmas[k] = rotated
        r, spare = _channel_on(r, spare, R, scales, gate.targets)
    return _Sweep(r, scales, pairs, sigmas)


def run_exact_noisy(circuit: GateSequence, channel: NoiseChannel) -> DensityMatrix:
    """Exact density-matrix evolution with the channel after every gate,
    on each qubit the gate touches; the Pauli coefficients (see
    statevector) become the density matrix once, at the end."""
    m = circuit.num_qubits
    r, scales = _noisy_sweep(circuit, channel)[:2]
    if scales is not None:  # the even sector, scattered back
        r = np.bincount(even_sector(m), r, 4 ** m)
    return DensityMatrix(m, pauli_to_density(r, m))


def _fidelities(circuit: GateSequence, kind: str, p_values) -> list:
    """The fidelity <phi|rho|phi> of run_exact_noisy(circuit, channel) to
    run_ideal(circuit) for the named channel kind at each strength p, with
    no density matrix: F = Tr(rho sigma) = 2^-m r . s, with r the noisy
    sweep's coefficients and s those of the ideal output, the same sweep
    at p = 0. A named channel is a Pauli channel, so r and s are both
    even-sector arrays."""
    s = _noisy_sweep(circuit, make_channel(kind, 0.0)).r
    scale = 0.5 ** circuit.num_qubits
    return [scale * float(np.einsum("i,i->", _noisy_sweep(circuit, make_channel(kind, p)).r, s))
            for p in p_values]


def _num_steps(circuit: GateSequence) -> int:
    return 1 + max(g.step for g in circuit.gates)


def adjoint_gradient_ideal(
    circuit: GateSequence, h: ProblemHamiltonian
) -> tuple[float, np.ndarray, np.ndarray]:
    """Noiseless cost and its per-gate shift-rule gradient in one sweep.

    Equivalent to summing shifted cost evaluations gate by gate (the
    generators are involutory, so the +-pi/4 angle-shift difference is
    the exact derivative), but computed with the fused forward pass and
    one backward pass carrying (psi, b = U_rest^dag H |psi_out>) as one
    (2, 2^m) array (Jones & Gacon, arXiv:2009.02823). The gates of a run
    commute, so every term of a run is read at its end, in one product
    with the run's table: 2 w Im <b|Z_i Z_j|psi> for an edge gate,
    -2 Im <b|X_q psi> for a mixer. Returns (cost, d_gamma, d_beta).
    """
    n = _num_steps(circuit)
    plan, phases = _ideal_plan(circuit), []
    psi = _ideal_sweep(circuit, plan, phases)
    ops, w, theta, steps = plan
    w2, undo_angles = 2.0 * w, (-theta).tolist()
    S = np.empty((2, psi.size), dtype=complex)  # (psi, b)
    S[0] = psi
    np.multiply(h.energies, psi, out=S[1])
    cost = float(np.vdot(S[0], S[1]).real)
    grads = {"gamma": np.zeros(n), "beta": np.zeros(n)}
    for param, table, rows in reversed(ops):
        if param == "gamma":
            terms = w2[rows] * (table @ (S[1].conj() * S[0]).imag)
            S *= phases.pop().conj()
        else:
            terms = -2.0 * (S[0][table] @ S[1].conj()).imag
            mix(S, table, undo_angles[rows])
        np.add.at(grads[param], steps[rows], terms)
    return cost, grads["gamma"], grads["beta"]


def adjoint_gradient_noisy(
    circuit: GateSequence, h: ProblemHamiltonian, channel: NoiseChannel
) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact-noisy cost and shift-rule gradient via forward/backward sweeps.

    The forward sweep stores sigma_k, the values of gate k's coefficient
    pairs after the gate and before its channels. The backward sweep
    carries the observable's coefficients e through the adjoint channels
    (R.T) and gates (rotation by -phi) (Jones & Gacon, arXiv:2009.02823),
    so that the cost is e . r at every point of the circuit. A gate
    rotates its pairs (A, B) by phi = 2 w theta, so d sigma_A / d phi =
    -sigma_B and d sigma_B / d phi = sigma_A, and the gate's term is
    2 w sum (E_B . sigma_A - E_A . sigma_B), with E the pairs of e behind
    the gate's channels, all in real arithmetic. This equals the
    shifted-evaluation construction to rounding. Returns (cost, d_gamma,
    d_beta).
    """
    n = _num_steps(circuit)
    sweep = _noisy_sweep(circuit, channel, store=True)
    r, scales, pairs, sigmas = sweep
    R_adj = channel.ptm.T  # scales serve as their own adjoint
    e, spare = np.zeros(r.size), np.empty(r.size)
    for k, w in sweep.zz_terms(h):
        e[k] += w
    grads = {"gamma": np.zeros(n), "beta": np.zeros(n)}
    for gate, idx, sigma in zip(reversed(circuit.gates), reversed(pairs), sigmas[::-1]):
        e, spare = _channel_on(e, spare, R_adj, scales, gate.targets)
        E = e[idx]
        term = np.einsum("i,i->", E[1], sigma[0]) - np.einsum("i,i->", E[0], sigma[1])
        grads[gate.param][gate.step] += 2.0 * gate.weight * term
        rotate_pairs(e, idx, -2.0 * gate.weight * gate.angle, E)
    return sweep.cost(h), grads["gamma"], grads["beta"]


def noise_event_count(circuit: GateSequence) -> int:
    """Number of uniforms one trajectory consumes (sum of gate arities)."""
    return sum(len(g.targets) for g in circuit.gates)


def _select_branches(probs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Branch index for each uniform r: the first branch whose cumulative
    probability exceeds r (r = 0 selects the first), or, when rounding
    leaves r at or above the total, the last branch of nonzero
    probability. probs holds the branch probabilities on its first axis
    and broadcasts against r.
    """
    k = len(probs)
    chosen = (r >= np.cumsum(probs, axis=0)).sum(axis=0)
    last = k - 1 - np.argmax(probs[::-1] > 1e-15, axis=0)
    return np.where(chosen < k, chosen, last)


def _sample_kraus_batch(
    states: np.ndarray, channel: NoiseChannel, qubit: int, r: np.ndarray, m: int
) -> np.ndarray:
    T = states.shape[0]
    v = states.reshape(T, 1 << (m - 1 - qubit), 2, 1 << qubit)
    sigma = np.einsum("taub,tavb->tuv", v, v.conj())
    probs = np.stack([np.einsum("ab,tba->t", M, sigma).real for M in channel.povm])
    if np.any(probs.sum(axis=0) <= 1e-12):
        raise SimulationError("all Kraus branch probabilities vanished in batch")
    chosen = _select_branches(probs, r)
    out = np.empty_like(v)
    for i, K in enumerate(channel.kraus):
        mask = chosen == i
        if mask.any():
            out[mask] = apply_1q(v[mask], K, qubit)
    nrm = np.sqrt(np.einsum("taub,taub->t", out, out.conj()).real)
    if np.any(nrm <= 1e-12):
        raise SimulationError("a selected Kraus branch annihilated the state")
    return (out / nrm[:, None, None, None]).reshape(T, -1)


def _fault_events(weights: np.ndarray, faults: list, uniforms: np.ndarray) -> list:
    """Per noise event, in order, the (rows, branches) of the uniforms whose
    branch under _select_branches(weights[:, None, None], uniforms) is a
    fault. Only those outside the first identity branch's cdf interval
    (u >= w_0 when it comes first), or all with no identity branch, go
    through _select_branches."""
    u, cdf = uniforms.T, np.concatenate([[0.0], np.cumsum(weights)])
    i = next((l for l in range(len(weights)) if l not in faults), None)
    moved = np.ones(u.shape, dtype=bool) if i is None else (u >= cdf[i + 1]) | (u < cdf[i])
    cols, rows = np.nonzero(moved)
    branches = _select_branches(weights[:, None], u[cols, rows])
    keep = np.isin(branches, faults)
    cuts = np.searchsorted(cols[keep], np.arange(1, len(u)))
    return list(zip(np.split(rows[keep], cuts), np.split(branches[keep], cuts)))


def _trajectory_tree(circuit: GateSequence, channel: NoiseChannel, uniforms: np.ndarray) -> tuple:
    """(states, index), with trajectory t ending in states[index[t]] (see
    trajectory_states)."""
    m, T = circuit.num_qubits, len(uniforms)
    mixture = channel.unitary_mixture
    if mixture is None:
        states = np.full((T, 1 << m), 2.0 ** (-m / 2.0), dtype=complex)
        columns = iter(uniforms.T)
        for gate in circuit.gates:
            gate_on(states, gate, m)
            for q, r in zip(gate.targets, columns):
                states = _sample_kraus_batch(states, channel, q, r, m)
        return states, np.arange(T)
    weights, unitaries = mixture
    faults = [l for l, U in enumerate(unitaries) if np.abs(U - np.eye(2)).max() > CPTP_TOL]
    events = _fault_events(weights, faults, uniforms)
    # a fault adds at most one state; compacted, the buffer holds at most T
    # states, and one event adds at most T
    states = np.empty((1 + min(sum(rows.size for rows, _ in events), 2 * T), 1 << m), dtype=complex)
    states[0] = 2.0 ** (-m / 2.0)
    index, size, events = np.zeros(T, dtype=np.intp), 1, iter(events)
    for gate in circuit.gates:
        gate_on(states[:size], gate, m)
        for q, (moving, picks) in zip(gate.targets, events):
            for l in faults if moving.size else ():
                rows = moving[picks == l]
                if size + rows.size > len(states):  # drop the states no row points at
                    live, index = np.unique(index, return_inverse=True)
                    states[:live.size], size = states[live], live.size
                parents, inverse = np.unique(index[rows], return_inverse=True)
                states[size:size + parents.size] = apply_1q(states[parents], unitaries[l], q)
                index[rows] = size + inverse
                size += parents.size
    live, index = np.unique(index, return_inverse=True)
    return states[live], index


def trajectory_states(
    circuit: GateSequence,
    channel: NoiseChannel,
    num_traj: int,
    seed: int | None = None,
    uniforms: np.ndarray | None = None,
) -> np.ndarray:
    """Final pure states of num_traj independent trajectories, shape (T, 2^m).

    The uniforms are a pre-drawn (T, events) matrix, or
    np.random.default_rng(seed).random((T, events)): row t holds
    trajectory t's, one per noise event in gate order, then target order.
    The uniform r of a noise event picks the first Kraus branch whose
    cumulative probability exceeds r, or the last branch of nonzero
    probability when rounding leaves r at or above the total.

    A unitary-mixture channel (every K_i^dag K_i = w_i I, as for
    dephasing, bit-flip, depolarizing and such custom sets) has branch
    probabilities w_i that do not depend on the state. For it every
    branch is picked up front from the fixed cdf of the w_i, and a
    trajectory's state depends only on its history of non-identity
    branches (faults). The trajectories evolve as a tree of shared
    prefixes: all start on one ideal state, each gate runs once per
    distinct state, and at a noise event only the rows with a fault
    there move, onto one copy of their parent state per (parent, branch)
    with K_l / sqrt(w_l) applied. The kernels act on each row alone, so
    every row is bit-equal to its own evolution from the start. Any
    other channel (amplitude damping, say) draws each branch from the
    state's own probabilities and renormalizes, one row per trajectory.
    """
    events = noise_event_count(circuit)
    if uniforms is None:
        if seed is None:
            raise ValueError("need either a seed or a uniform matrix")
        uniforms = np.random.default_rng(seed).random((num_traj, events))
    elif uniforms.shape != (num_traj, events):
        raise ValueError(f"uniform matrix has shape {uniforms.shape}, expected ({num_traj}, {events})")
    states, index = _trajectory_tree(circuit, channel, uniforms)
    return states[index]


def cost_exact(
    circuit: GateSequence, h: ProblemHamiltonian, channel: NoiseChannel | None = None
) -> float:
    """<H_p> of the circuit output: ideal, or exact-noisy if given a channel."""
    if channel is None:
        return exact_expectation(run_ideal(circuit), h)
    return _noisy_sweep(circuit, channel).cost(h)


def cost_sampled(
    circuit: GateSequence,
    h: ProblemHamiltonian,
    channel: NoiseChannel,
    shots: int,
    rng,
) -> tuple[float, list]:
    """Shot-based noisy cost estimate from trajectory executions.

    For each ZZ term, runs `shots` trajectories, samples one two-qubit
    outcome per run and accumulates C_ij (2 p_ij - 1) with
    p_ij = phat00 + phat11. Returns (estimate, [((i, j), p_ij), ...]).
    A term's trajectories evolve on trajectory_states' tree of shared
    fault prefixes, with one (i, j) marginal per distinct final state.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    m = circuit.num_qubits
    events = noise_event_count(circuit)
    estimate = 0.0
    per_edge = []
    for i, j, w in h.terms:
        states, index = _trajectory_tree(circuit, channel, rng.random((shots, events)))
        pr = np.abs(states) ** 2
        t = np.moveaxis(pr.reshape((-1,) + (2,) * m), (m - i, m - j), (1, 2))
        probs4 = t.reshape(len(states), 4, -1).sum(axis=2)
        outcomes = _select_branches(probs4[index].T, rng.random(shots))
        p_ij = float(np.mean((outcomes == 0) | (outcomes == 3)))
        per_edge.append(((i, j), p_ij))
        estimate += w * (2.0 * p_ij - 1.0)
    return estimate, per_edge
