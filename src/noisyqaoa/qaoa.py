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

Under a Pauli channel the noisy cost and its adjoint run on the sweep's
two-sided light cone. A channel only scales coefficients and a gate only
rotates the pairs of its table, so which coefficients can be nonzero,
and which can reach a cost term, is fixed by the gate targets alone.
Forward from |+>^m, whose nonzero coefficients are {I,X}^m, a gate's
pair is live if either side is; back from the Z_i Z_j terms, a pair
matters if either side is in the observable's support. _cone_plan, built
once per (m, gate targets, term pairs) and kept, read-only, holds per
gate the pairs live both ways, which the sweeps rotate: the cone, the
coefficients those pairs and the terms touch, is 59 of the 8,192 sector
coefficients at n = 1 on table1 and 1,126 at n = 2, where 3% of the
pairs are live both ways. cost_exact and adjoint_gradient_noisy run on
the plan, and an n = 1 landscape row shares one cone sweep of its edge
layer between its cells (_landscape_row). The adjoint's backward sweep
rotates the same pairs: a coefficient live forward at a gate stays live
at every later gate, so behind each gate e is exact on the coefficients
live forward there, the only ones its gradient term reads with a nonzero
weight. Every computed coefficient goes through the same elementwise
operations in the same order as in the full sweep; the gradient's sums
still run over each gate's whole table, with zero weight for the pairs
not swept, so that each nonzero product keeps its place in the sum.
Costs and gradients are therefore bit-equal to the full sweep's.
run_exact_noisy, the fidelities and any other channel run the full
sweep.

A circuit (GateSequence) is its layout and one array of angles. The
layout (_Layout) is what does not depend on the angles: per gate its
targets, 2 w, step and whether it reads gamma or beta, the slot its angle
comes from in (gamma, beta), and the fused pure-state sweep's ops.
build_circuit builds its layout once per (m, sorted edges, n) and keeps
it, read-only (_layout), and with_shifted_gate keeps the layout it is
given, so no evaluation derives one; a circuit built from QaoaGate
records (GateSequence.of_gates) derives its own, once. The sweeps read
the layout, and only the trajectory sampler and the shift-rule gradient
read the records. An exact noisy evaluator also keeps its layout's
_ConeWork: the cone plan, the channel's scales on the cone and the
adjoint's sigma stack, which gate k always writes at the same columns
and so never needs clearing.

The sampled path evolves a unitary-mixture channel's trajectories on a
tree of shared fault prefixes (trajectory_states), one pass per noise
event: the images of a Pauli fault (every fault of the named channels is
X, Y or Z) are one gather times a phase in (1, -1, i, -i), exactly
apply_1q's (_fault_tables); any other fault goes through apply_1q. Its
bookkeeping runs in linear passes, with no sort over states: the faults
are found in one scan of the row-major (shots, events) uniforms, each
event's fault histories are grouped by counting on a table of flags, and
cost_sampled draws each shot's outcome from its final state's cdf, taken
once per distinct state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .maxcut import ProblemHamiltonian, WeightedGraph, exact_expectation
from .noise import CPTP_TOL, NoiseChannel, make_channel
from .statevector import (
    MAX_DENSE_QUBITS,
    DensityMatrix,
    SimulationError,
    StateVector,
    _bit,
    _check_targets,
    _pair_table,
    apply_1q,
    apply_ptm,
    bit_flips,
    even_sector,
    gate_on,
    mix,
    pauli_to_density,
    plus_state,
    rotate_pairs,
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


class _CircuitFields(NamedTuple):
    layout: _Layout
    theta: np.ndarray


class GateSequence(_CircuitFields):
    """A compiled circuit: its layout, read-only and, for build_circuit's
    circuits, kept per structure (see the module docstring), and theta, the
    angle of each gate. gate_count is N = n * (E + m). The constructor
    takes a _Layout; a circuit of QaoaGate records comes from of_gates."""

    __slots__ = ()

    def __new__(cls, layout: _Layout, theta: np.ndarray):
        if not isinstance(layout, _Layout):
            raise TypeError(f"GateSequence takes a circuit layout, got {type(layout).__name__}; "
                            "build a circuit of QaoaGate records with GateSequence.of_gates(m, gates)")
        return tuple.__new__(cls, (layout, theta))

    @classmethod
    def of_gates(cls, m: int, gates) -> GateSequence:
        """The circuit of QaoaGate records on m qubits, in order, on a
        layout derived from them once."""
        for k, gate in enumerate(gates):
            if not isinstance(gate, QaoaGate):
                raise ValueError(f"gate {k} is a {type(gate).__name__}, not a QaoaGate")
        layout = _build_layout(m, [(g.targets, g.step, g.param == "gamma", g.weight) for g in gates])
        return cls(layout, np.array([g.angle for g in gates], dtype=float))

    @property
    def num_qubits(self) -> int:
        return self.layout.m

    @property
    def gate_count(self) -> int:
        return len(self.layout.targets)

    @property
    def gates(self) -> tuple:
        """The QaoaGate records, built on each read."""
        lay = self.layout
        fields = zip(lay.targets, lay.steps.tolist(), lay.edge.tolist(), lay.w.tolist(), self.theta.tolist())
        return tuple(QaoaGate(t, k, "gamma" if e else "beta", w, a) for t, k, e, w, a in fields)

    # equal and hashed as their qubit count and records, not as the tuple
    # of a layout and an array, whose comparison has no truth value
    def __eq__(self, other):
        return isinstance(other, GateSequence) and (self.num_qubits, self.gates) == (other.num_qubits, other.gates)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((self.num_qubits, self.gates))


class QaoaGate(NamedTuple):
    """A QAOA gate as an angle record: the edge gate
    exp(-i angle weight Z_i Z_j) (param "gamma") or the mixer
    exp(+i angle X_q) (param "beta", weight 1) of QAOA step `step`."""

    targets: tuple
    step: int
    param: str
    weight: float
    angle: float


class _Layout(NamedTuple):
    """The angle-independent part of a circuit on m qubits with n steps,
    read-only (see the module docstring): per gate, its targets, weight w,
    2 w, step, whether it is an edge gate (angle gamma) or a mixer (beta),
    and its slot, the index of its angle in concatenate(gamma, beta) and
    of its derivative in concatenate(d_gamma, d_beta); and the ops of the
    fused pure-state sweep, in order: a run of consecutive edge gates or
    of consecutive mixers is (edge, table, rows), with table the run's
    zz_parities or bit_flips and rows its slice of the per-gate arrays."""

    m: int
    n: int
    targets: tuple
    w: np.ndarray
    w2: np.ndarray
    steps: np.ndarray
    edge: np.ndarray
    slots: np.ndarray
    ops: tuple


def _build_layout(m: int, records) -> _Layout:
    """The _Layout of the gates given as (targets, step, edge, weight)."""
    targets = tuple(tuple(t) for t, _, _, _ in records)
    _check_targets(m, [q for t in targets for q in t])
    steps = np.array([k for _, k, _, _ in records], dtype=int)
    edge = np.array([e for _, _, e, _ in records], dtype=bool)
    w = np.array([w for _, _, _, w in records], dtype=float)
    n = 1 + int(steps.max()) if steps.size else 0
    ops, start = [], 0
    for is_edge, run in groupby(edge.tolist()):
        rows = slice(start, start + len(list(run)))
        ops.append((is_edge, (zz_parities if is_edge else bit_flips)(m, targets[rows]), rows))
        start = rows.stop
    layout = _Layout(m, n, targets, w, 2.0 * w, steps, edge, np.where(edge, steps, n + steps), tuple(ops))
    for a in layout[3:8]:
        a.setflags(write=False)
    return layout


@lru_cache(maxsize=64)
def _layout(m: int, edges: tuple, n: int) -> _Layout:
    """The _Layout of build_circuit's circuit with n steps on the sorted
    edges (i, j, w) of an m-node graph, built once and kept: 5 KB at n = 4
    on table1, and 18 KB of pure-state tables, which the zz_parities and
    bit_flips caches hold too."""
    step = [((i, j), True, w) for i, j, w in edges] + [((q,), False, 1.0) for q in range(m)]
    return _build_layout(m, [(t, k, e, w) for k in range(n) for t, e, w in step])


def build_circuit(graph: WeightedGraph, params: QaoaParams) -> GateSequence:
    """Compile the alternating edge/mixer circuit for the given graph: the
    kept layout of its structure, with each gate's angle read from
    (gamma, beta) by its slot.

    Checks nothing per gate: a WeightedGraph holds its edges as
    0 <= i < j < m, and QaoaParams only finite angles, for which every
    edge gate and mixer is unitary."""
    layout = _layout(graph.num_nodes, tuple(sorted(graph.edges)), params.n)
    return GateSequence(layout, np.concatenate((params.gamma, params.beta))[layout.slots])


def with_shifted_gate(seq: GateSequence, index: int, delta: float) -> GateSequence:
    """Copy of the circuit, on the same layout, with only gate `index`'s
    angle shifted by delta."""
    theta = seq.theta.copy()
    theta[index] += delta
    return GateSequence(seq.layout, theta)


def _ideal_sweep(circuit: GateSequence, phases: list | None = None) -> np.ndarray:
    """Amplitudes of |+>^m through the circuit, by its layout's ops. A run
    of edge gates is one multiply by exp(-i sum_g w_g theta_g z_i z_j), a
    run of mixers is applied in place. The one forward pass of run_ideal,
    the ideal cost_exact and adjoint_gradient_ideal: phases, when given,
    receives each edge run's phase vector."""
    layout, theta = circuit
    w_theta, angles = layout.w * theta, theta.tolist()
    psi = plus_state(layout.m).amplitudes
    for edge, table, rows in layout.ops:
        if edge:
            phase = np.exp(-1j * (w_theta[rows] @ table))
            psi *= phase
            if phases is not None:
                phases.append(phase)
        else:
            mix(psi, table, angles[rows])
    return psi


def run_ideal(circuit: GateSequence) -> StateVector:
    """|+>^m evolved through all gates in order (noiseless)."""
    return StateVector(circuit.num_qubits, _ideal_sweep(circuit))


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
    the pairs of every swept gate in r's layout and, if stored, the sigmas."""

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


def _sector_scales(channel: NoiseChannel, m: int) -> list | None:
    """channel.ptm_scales(m), once m passes the register-size check that
    every exact noisy sweep makes before any 4^m array, the scales' included."""
    if m > MAX_DENSE_QUBITS:
        raise ValueError(f"density-matrix evolution limited to {MAX_DENSE_QUBITS} qubits")
    return channel.ptm_scales(m)


def _phis(circuit: GateSequence) -> list:
    """Each gate's rotation angle phi = 2 w theta."""
    return (circuit.layout.w2 * circuit.theta).tolist()


def _noisy_sweep(circuit: GateSequence, channel: NoiseChannel, store: bool = False) -> _Sweep:
    """Pauli coefficients r of the noisy output of |+>^m, with the channel
    after every gate on each qubit it touches: the 4^m / 2 of the even
    sector for a Pauli channel, else all 4^m. The full forward pass of
    run_exact_noisy and the fidelities, and of cost_exact and
    adjoint_gradient_noisy under any other channel; sigmas[k], when store
    is set, holds the values of gate k's pairs after the gate and before
    its channels."""
    m, targets = circuit.num_qubits, circuit.layout.targets
    scales = _sector_scales(channel, m)
    R = channel.ptm
    pairs = [_pair_table(m, t, scales is not None) for t in targets]
    r = np.zeros((4,) * (m - 1) + (4 if scales is None else 2,))  # the sector drops qubit 0's Y/Z bit
    r[(slice(0, 2),) * m] = 1.0  # |+>^m
    r, spare = r.reshape(-1), np.empty(r.size)
    sigmas = np.empty((len(pairs), 2, r.size // 4)) if store else None
    for k, (t, idx, phi) in enumerate(zip(targets, pairs, _phis(circuit))):
        rotated = rotate_pairs(r, idx, phi)
        if store:
            sigmas[k] = rotated
        r, spare = _channel_on(r, spare, R, scales, t)
    return _Sweep(r, scales, pairs, sigmas)


class _ConePlan(NamedTuple):
    """The two-sided light cone of a circuit structure under a Pauli
    channel, read-only (see the module docstring): the sorted sector
    positions of the cone; |+>^m on the cone; each term's Z_i Z_j position
    in the cone; and per gate, its pairs live both ways as cone positions,
    with their spots: the positions of their A and B sides in the gate's
    sector pair table flattened to (A row, B row), [cols, K + cols] for
    the pairs' columns cols and the table's width K = 4^m / 8."""

    cone: np.ndarray
    start: np.ndarray
    terms: np.ndarray
    gates: tuple


def _live_pairs(tables, live: np.ndarray) -> list:
    """Per table, in order, the boolean columns whose pair has a side in
    live, the mask of the coefficients that can be nonzero; both sides of
    such a pair join live (a gate's pairs are disjoint)."""
    columns = []
    for table in tables:
        sides = live.take(table)
        cols = sides[0] | sides[1]
        live[table[0]] = cols  # one scatter per side beats one broadcast into both
        live[table[1]] = cols
        columns.append(cols)
    return columns


@lru_cache(maxsize=128)
def _cone_plan(m: int, targets: tuple, pairs: tuple) -> _ConePlan:
    """The _ConePlan of the gates on the targets (checked by their
    layout), in order, for the terms on the qubit pairs (i, j). Its index
    arrays take four int64 per pair live both ways, at n = 4 about twice
    the pair tables the full sweep keeps: 1.0 MB on table1, and about
    410 MB at m = 11 (16 edges), where three per pair took 309 MB."""
    tables = [_pair_table(m, t, True) for t in targets]
    plus = np.zeros((4,) * (m - 1) + (2,), dtype=bool)
    plus[(slice(0, 2),) * m] = True  # |+>^m: the {I, X}^m coefficients
    plus = plus.reshape(-1)
    ahead = _live_pairs(tables, plus.copy())
    terms = [sector_position(3 * (4 ** i + 4 ** j)) for i, j in pairs]
    held = np.zeros(plus.size, dtype=bool)
    held[terms] = True
    behind = _live_pairs(tables[::-1], held.copy())[::-1]
    columns = [(a & b).nonzero()[0] for a, b in zip(ahead, behind)]
    swept = [table.take(cols, axis=1) for table, cols in zip(tables, columns)]
    for table in swept:
        held[table] = True
    cone = np.flatnonzero(held)
    where = np.zeros(plus.size, dtype=np.intp)
    where[cone] = np.arange(cone.size)
    width = 4 ** m // 8
    gates = tuple((where.take(t), np.stack([cols, width + cols])) for t, cols in zip(swept, columns))
    plan = _ConePlan(cone, plus[cone].astype(float), where[terms], gates)
    for a in [plan.cone, plan.start, plan.terms, *(x for g in gates for x in g)]:
        a.setflags(write=False)
    return plan


def _plan_of(layout: _Layout, h: ProblemHamiltonian) -> _ConePlan:
    return _cone_plan(layout.m, layout.targets, tuple((i, j) for i, j, _ in h.terms))


class _ConeWork:
    """A Pauli channel on a layout's cone for the terms of h: the plan, the
    channel's ptm_scales on the cone and, built on first use, the
    adjoint's zeroed sigma stack, one flattened (A row, B row) of 4^m / 4
    per gate. Gate k always writes the same spots of its
    sigma and the others stay zero, so an evaluator that keeps the work
    for a descent never clears the stack."""

    def __init__(self, layout: _Layout, h: ProblemHamiltonian, scales: list):
        self.plan = _plan_of(layout, h)
        self.scales, self.width = [s[self.plan.cone] for s in scales], 4 ** layout.m // 4

    @cached_property
    def sigmas(self) -> np.ndarray:
        return np.zeros((len(self.plan.gates), self.width))


def _cone_work(layout: _Layout, h: ProblemHamiltonian, channel: NoiseChannel) -> _ConeWork | None:
    """The _ConeWork under a Pauli channel, else None (the full sweep)."""
    scales = _sector_scales(channel, layout.m)
    return None if scales is None else _ConeWork(layout, h, scales)


def _cone_sweep(work: _ConeWork, targets: tuple, phis: list, r: np.ndarray | None = None, first: int = 0,
                stop: int | None = None, sigmas: np.ndarray | None = None) -> np.ndarray:
    """r, coefficients on the work's cone (by default a copy of its start),
    through gates first to stop (by default the last) of its circuit and
    their channels, in place: gate k on targets[k] rotates its pairs live
    both ways by phis[k], and the scales on the cone apply the channel.
    sigmas[k], when given, receives gate k's rotated pairs at their spots
    (a scatter into a flat row is several times faster than into the
    columns of a (2, K) one). Returns r."""
    plan, scales = work.plan, work.scales
    if r is None:
        r = plan.start.copy()
    for k in range(first, len(phis) if stop is None else stop):
        pairs, spots = plan.gates[k]
        rotated = rotate_pairs(r, pairs, phis[k])
        if sigmas is not None:
            sigmas[k][spots] = rotated
        for q in targets[k]:
            r *= scales[q]
    return r


def _cone_cost(plan: _ConePlan, h: ProblemHamiltonian, r: np.ndarray) -> float:
    """<H_p> from the coefficients on the cone, summed as _Sweep.cost."""
    return float(sum(w * r[k] for k, (_, _, w) in zip(plan.terms, h.terms)))


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
    phases = []
    psi = _ideal_sweep(circuit, phases)
    layout, theta = circuit
    undo_angles = (-theta).tolist()
    S = np.empty((2, psi.size), dtype=complex)  # (psi, b)
    S[0] = psi
    np.multiply(h.energies, psi, out=S[1])
    cost = float(np.vdot(S[0], S[1]).real)
    grads = np.zeros(2 * layout.n)
    for edge, table, rows in reversed(layout.ops):
        if edge:
            terms = layout.w2[rows] * (table @ (S[1].conj() * S[0]).imag)
            S *= phases.pop().conj()
        else:
            terms = -2.0 * (S[0][table] @ S[1].conj()).imag
            mix(S, table, undo_angles[rows])
        np.add.at(grads, layout.slots[rows], terms)
    return cost, grads[:layout.n], grads[layout.n:]


def adjoint_gradient_noisy(
    circuit: GateSequence, h: ProblemHamiltonian, channel: NoiseChannel, work: _ConeWork | None = None
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
    shifted-evaluation construction to rounding. Under a Pauli channel the
    forward sweep runs on the cone, sigma_k is zero outside gate k's pairs
    live both ways, and the backward sweep also runs on the cone and
    rotates those pairs alone, which keeps e exact wherever sigma is
    nonzero (see the module docstring). work, when given, is _cone_work
    of the circuit's layout, h and the channel, kept by the caller.
    Returns (cost, d_gamma, d_beta).
    """
    layout, phis = circuit.layout, _phis(circuit)
    if work is None:
        work = _cone_work(layout, h, channel)
    if work is None:
        sweep = _noisy_sweep(circuit, channel, store=True)
        cost, scales, e = sweep.cost(h), None, np.zeros(sweep.r.size)
        sigmas, spots = sweep.sigmas.reshape(len(phis), -1), np.arange(e.size // 2).reshape(2, -1)
        pairs, terms = [(idx, spots) for idx in sweep.pairs], [k for k, _ in sweep.zz_terms(h)]
    else:
        sigmas, scales = work.sigmas, work.scales
        cost = _cone_cost(work.plan, h, _cone_sweep(work, layout.targets, phis, sigmas=sigmas))
        e, pairs, terms = np.zeros(work.plan.cone.size), work.plan.gates, work.plan.terms
    R_adj = channel.ptm.T  # scales serve as their own adjoint
    spare = np.empty(e.size)
    for k, (_, _, w) in zip(terms, h.terms):
        e[k] += w
    # E holds each gate's pairs of e at their spots; its other spots keep
    # earlier gates' values, finite, which meet zeros in sigma
    E = np.zeros(sigmas.shape[1])
    width = E.size // 2
    E_A, E_B = E[:width], E[width:]
    grads = np.zeros(2 * layout.n)
    w2, slots = layout.w2.tolist(), layout.slots.tolist()
    for k in reversed(range(len(phis))):
        idx, spot = pairs[k]
        e, spare = _channel_on(e, spare, R_adj, scales, layout.targets[k])
        live = e.take(idx)
        E[spot] = live
        sigma = sigmas[k]
        term = np.einsum("i,i->", E_B, sigma[:width]) - np.einsum("i,i->", E_A, sigma[width:])
        grads[slots[k]] += w2[k] * term
        rotate_pairs(e, idx, -phis[k], live)
    return cost, grads[:layout.n], grads[layout.n:]


def noise_event_count(circuit: GateSequence) -> int:
    """Number of uniforms one trajectory consumes (sum of gate arities)."""
    return sum(len(t) for t in circuit.layout.targets)


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


def _select_per_state(probs: np.ndarray, index: np.ndarray, r: np.ndarray) -> np.ndarray:
    """_select_branches(probs[index].T, r), with the branch probabilities of
    state s in row s of probs (S, k) and uniform r[t] drawn on state
    index[t]: each state's cdf and last branch of nonzero probability are
    taken once, and each uniform is compared with one gathered cdf column
    at a time."""
    k = probs.shape[1]
    chosen = np.zeros(r.shape, dtype=np.intp)
    for cdf in np.cumsum(probs, axis=1).T:
        chosen += r >= cdf[index]
    last = k - 1 - np.argmax(probs[:, ::-1] > 1e-15, axis=1)
    return np.where(chosen < k, chosen, last[index])


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
    through _select_branches. They are found in one pass over the
    row-major (rows, events) uniforms, then ordered by event."""
    events = uniforms.shape[1]
    u, cdf = uniforms.ravel(), np.concatenate([[0.0], np.cumsum(weights)])
    i = next((l for l in range(len(weights)) if l not in faults), None)
    hits = np.arange(u.size) if i is None else np.flatnonzero((u >= cdf[i + 1]) | (u < cdf[i]))
    branches = _select_branches(weights[:, None], u[hits])
    is_fault = np.zeros(len(weights), dtype=bool)
    is_fault[faults] = True
    keep = is_fault[branches]
    rows, cols = np.divmod(hits[keep], events)
    # the hits run row-major, so a stable sort by event keeps each event's
    # rows ascending; on a dtype of at most 16 bits numpy sorts by radix
    order = np.argsort(cols.astype(np.min_scalar_type(events)), kind="stable")
    rows, branches = rows[order], branches[keep][order]
    ends = np.cumsum(np.bincount(cols, minlength=events)).tolist()
    return [(rows[a:b], branches[a:b]) for a, b in zip([0] + ends, ends)]


def _pauli_form(U: np.ndarray) -> tuple | None:
    """(source, phase) when each row b of U has one nonzero entry, phase[b]
    in (1, -1, i, -i) at column source[b], as X, Y and Z do; else None."""
    entries = [[(c, v) for c, v in enumerate(row) if v] for row in U.tolist()]
    if all(len(e) == 1 and e[0][1] in (1, -1, 1j, -1j) for e in entries):
        return tuple(zip(*(e[0] for e in entries)))
    return None


@lru_cache(maxsize=64)
def _fault_tables(m: int, q: int, forms: tuple) -> tuple:
    """(source, phase), each (len(forms), 2^m) and read-only, such that
    psi[..., source[l]] * phase[l] is U_l psi for the U_l of _pauli_form
    forms[l] on qubit q (the identity for a form None). Built once per
    (m, q, forms)."""
    bit = _bit(m, q)
    source, phase = zip(*[((0, 1), (1, 1)) if f is None else f for f in forms])
    source = np.arange(1 << m) ^ ((bit ^ np.array(source)[:, bit]) << q)
    phase = np.array(phase, dtype=complex)[:, bit]
    for a in (source, phase):
        a.setflags(write=False)
    return source, phase


def _distinct(keys: np.ndarray, bound: int) -> tuple:
    """np.unique(keys, return_inverse=True) for integer keys in
    [0, bound), by counting: the keys marked on a table of bound flags,
    the marked ones read back in order, and each key's rank looked up."""
    marked = np.zeros(bound, dtype=bool)
    marked[keys] = True
    distinct = marked.nonzero()[0]
    rank = np.empty(bound, dtype=np.intp)
    rank[distinct] = np.arange(distinct.size)
    return distinct, rank[keys]


def _trajectory_tree(m: int, gates: tuple, channel: NoiseChannel, uniforms: np.ndarray) -> tuple:
    """(states, index), with trajectory t ending in states[index[t]] (see
    trajectory_states), for the circuit of the QaoaGate records on m
    qubits; some states may be ones no trajectory ends in. For a unitary
    mixture, _fault_events finds every fault in one pass over the
    uniforms; per noise event, one counting grouping (_distinct) numbers
    its new states by (branch, parent), in np.unique's sorted order, and
    one gather makes their Pauli images; only a fault that is no Pauli
    runs apply_1q, on its slice of them. A buffer compaction renumbers
    the live states with the same grouping."""
    T = len(uniforms)
    mixture = channel.unitary_mixture
    if mixture is None:
        states = np.full((T, 1 << m), 2.0 ** (-m / 2.0), dtype=complex)
        columns = iter(uniforms.T)
        for gate in gates:
            gate_on(states, gate, m)
            for q, r in zip(gate.targets, columns):
                states = _sample_kraus_batch(states, channel, q, r, m)
        return states, np.arange(T)
    weights, unitaries = mixture
    faults = [l for l, U in enumerate(unitaries) if np.abs(U - np.eye(2)).max() > CPTP_TOL]
    forms = tuple(map(_pauli_form, unitaries))
    others = [l for l in faults if forms[l] is None and weights[l] > 0.0]  # a zero weight is never picked
    tables = [_fault_tables(m, q, forms) for q in range(m)]
    events = _fault_events(weights, faults, uniforms)
    # a fault adds at most one state; compacted, the buffer holds at most T
    # states, and one event adds at most T
    states = np.empty((1 + min(sum(rows.size for rows, _ in events), 2 * T), 1 << m), dtype=complex)
    states[0] = 2.0 ** (-m / 2.0)
    index, size, events = np.zeros(T, dtype=np.intp), 1, iter(events)
    for gate in gates:
        gate_on(states[:size], gate, m)
        for q, (rows, picks) in zip(gate.targets, events):
            if not rows.size:
                continue
            if size + rows.size > len(states):  # drop the states no row points at
                live, index = _distinct(index, size)
                states[:live.size], size = states[live], live.size
            keys, inverse = _distinct(picks * size + index[rows], len(weights) * size)
            branch, parents = np.divmod(keys, size)
            new = states[size:size + keys.size]
            source, phase = tables[q]
            np.multiply(states[parents[:, None], source[branch]], phase[branch], out=new)
            for l in others:
                at = slice(*np.searchsorted(branch, (l, l + 1)))
                new[at] = apply_1q(states[parents[at]], unitaries[l], q)
            index[rows] = size + inverse
            size += keys.size
    return states[:size], index


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
    with K_l / sqrt(w_l) applied. Each event makes its copies in one
    pass: a Pauli fault (X, Y or Z, times a phase of +-1 or +-i) by a
    gather of the parent's amplitudes and an exact phase product, any
    other fault by apply_1q. The faults of all events are found in one
    scan of the row-major uniforms, and each event's (parent, branch)
    copies are numbered by counting, not by sorting. The kernels act on
    each row alone, so every row is bit-equal to its own evolution from
    the start. Any other channel (amplitude damping, say) draws each
    branch from the state's own probabilities and renormalizes, one row
    per trajectory.
    """
    events = noise_event_count(circuit)
    if uniforms is None:
        if seed is None:
            raise ValueError("need either a seed or a uniform matrix")
        uniforms = np.random.default_rng(seed).random((num_traj, events))
    elif uniforms.shape != (num_traj, events):
        raise ValueError(f"uniform matrix has shape {uniforms.shape}, expected ({num_traj}, {events})")
    states, index = _trajectory_tree(circuit.num_qubits, circuit.gates, channel, uniforms)
    return states[index]


def cost_exact(
    circuit: GateSequence, h: ProblemHamiltonian, channel: NoiseChannel | None = None
) -> float:
    """<H_p> of the circuit output: ideal, or exact-noisy if given a channel."""
    if channel is None:
        return exact_expectation(run_ideal(circuit), h)
    work = _cone_work(circuit.layout, h, channel)
    if work is None:
        return _noisy_sweep(circuit, channel).cost(h)
    return _cone_cost(work.plan, h, _cone_sweep(work, circuit.layout.targets, _phis(circuit)))


def _landscape_row(graph: WeightedGraph, h: ProblemHamiltonian, channel: NoiseChannel | None,
                  gamma: float, betas) -> list:
    """cost_exact of the n=1 circuit (gamma, beta) for each beta, on one
    layout. Under a Pauli channel the cells share one cone sweep of the
    edge layer, and each runs only its mixers; any other channel, and the
    ideal cost, run cell by cell."""
    circuits = [build_circuit(graph, QaoaParams([gamma], [beta])) for beta in betas]
    work = None if channel is None or not circuits else _cone_work(circuits[0].layout, h, channel)
    if work is None:
        return [cost_exact(circuit, h, channel) for circuit in circuits]
    cut, targets = graph.num_edges, circuits[0].layout.targets
    edges = _cone_sweep(work, targets, _phis(circuits[0]), stop=cut)
    return [_cone_cost(work.plan, h, _cone_sweep(work, targets, _phis(circuit), edges.copy(), cut))
            for circuit in circuits]


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
    fault prefixes, with one (i, j) marginal per state of the tree. Each
    term's uniforms are drawn into one reused (shots, events) buffer, the
    same stream as rng.random((shots, events)). The outcome of a shot is
    drawn from its final state's cdf, summed once per state of the tree
    (_select_per_state), by _select_branches' rule and rounding fallback.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    m, gates = circuit.num_qubits, circuit.gates
    uniforms = np.empty((shots, noise_event_count(circuit)))
    estimate = 0.0
    per_edge = []
    for i, j, w in h.terms:
        states, index = _trajectory_tree(m, gates, channel, rng.random(out=uniforms))
        pr = np.abs(states) ** 2
        t = np.moveaxis(pr.reshape((-1,) + (2,) * m), (m - i, m - j), (1, 2))
        probs4 = t.reshape(len(states), 4, -1).sum(axis=2)
        outcomes = _select_per_state(probs4, index, rng.random(shots))
        p_ij = float(np.mean((outcomes == 0) | (outcomes == 3)))
        per_edge.append(((i, j), p_ij))
        estimate += w * (2.0 * p_ij - 1.0)
    return estimate, per_edge
