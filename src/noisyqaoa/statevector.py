"""Dense pure-state and density-matrix simulation kernel.

Qubit ordering is little-endian: qubit 0 is the least significant bit of
the amplitude index. For an array reshaped to [2]*m the axis of qubit q
is therefore m-1-q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .noise import NoiseChannel, PauliForm

MAX_PURE_QUBITS = 24
MAX_DENSE_QUBITS = 12
NORM_TOL = 1e-10
GATE_RULE = "gate kernels take single-qubit and diagonal two-qubit gates only"


class SimulationError(RuntimeError):
    """Numerical failure during simulation (degenerate branch weights etc.)."""


@dataclass
class StateVector:
    """Pure state of num_qubits qubits as a length-2^m complex array."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        dim = 1 << self.num_qubits
        if self.amplitudes.shape != (dim,):
            raise ValueError(
                f"amplitude array has shape {self.amplitudes.shape}, expected ({dim},)"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def projector(self) -> "DensityMatrix":
        """|phi><phi| as a DensityMatrix."""
        a = self.amplitudes
        return DensityMatrix(self.num_qubits, np.outer(a, a.conj()))


@dataclass
class DensityMatrix:
    """Mixed state of num_qubits qubits as a 2^m x 2^m complex matrix."""

    num_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        dim = 1 << self.num_qubits
        if self.entries.shape != (dim, dim):
            raise ValueError(
                f"density matrix has shape {self.entries.shape}, expected ({dim}, {dim})"
            )

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.num_qubits, self.entries.copy())


@dataclass(frozen=True)
class GateOp:
    """A single- or two-qubit unitary gate.

    diag holds the 4-entry diagonal for diagonal two-qubit gates (fast
    path). step/param/weight/angle carry provenance for shift-rule
    bookkeeping: which QAOA step and parameter the gate depends on.
    """

    kind: str                      # "single" | "two"
    targets: tuple
    matrix: np.ndarray
    diag: np.ndarray | None = None
    step: int = -1
    param: str = ""                # "gamma" | "beta" | ""
    weight: float = 0.0
    angle: float = 0.0

    def __post_init__(self):
        dim = {"single": 2, "two": 4}.get(self.kind)
        if dim is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.targets) != (1 if self.kind == "single" else 2):
            raise ValueError(f"{self.kind} gate needs {1 if dim == 2 else 2} targets")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate gate targets {self.targets}")
        if any(q < 0 for q in self.targets):
            raise ValueError(f"negative qubit index in {self.targets}")
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"gate matrix has shape {mat.shape}, expected ({dim}, {dim})")
        if np.abs(mat.conj().T @ mat - np.eye(dim)).max() > 1e-10:
            raise ValueError("gate matrix is not unitary")
        object.__setattr__(self, "matrix", mat)
        if self.diag is not None:
            object.__setattr__(self, "diag", np.asarray(self.diag, dtype=complex))


def plus_state(m: int) -> StateVector:
    """|+>^(x m): the uniform real superposition over all 2^m basis states."""
    if not 1 <= m <= MAX_PURE_QUBITS:
        raise ValueError(f"qubit count m={m} outside [1, {MAX_PURE_QUBITS}]")
    dim = 1 << m
    return StateVector(m, np.full(dim, 2.0 ** (-m / 2.0), dtype=complex))


def _check_targets(m: int, targets) -> None:
    for q in targets:
        if not 0 <= q < m:
            raise ValueError(f"qubit index {q} out of range for {m} qubits")


@lru_cache(maxsize=None)
def _bit(m: int, q: int) -> np.ndarray:
    """Bit of qubit q across all 2^m basis indices (read-only)."""
    bits = (np.arange(1 << m) >> q) & 1
    bits.setflags(write=False)
    return bits


def expand_diag(m: int, targets, diag4: np.ndarray) -> np.ndarray:
    """Lift a two-qubit diagonal (indexed 2*b_i + b_j) to the full register."""
    i, j = targets
    return np.asarray(diag4)[2 * _bit(m, i) + _bit(m, j)]


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply a gate; norm is preserved to 1e-10 (unitary)."""
    m = state.num_qubits
    _check_targets(m, gate.targets)
    return StateVector(m, gate_on(state.amplitudes, gate, m))


def apply_1q(arr: np.ndarray, M: np.ndarray, bit: int, out: np.ndarray | None = None) -> np.ndarray:
    """M acting on one bit of the flat (C-order) index of arr.

    Elementwise, with no BLAS call: a gemm on a 2x2 or 4x4 operator is
    slower than the arithmetic it does once its second thread has to
    wait for a shared CPU. The result goes to `out` (C-contiguous, the
    size of arr, not arr itself) when given, else to a new array.
    """
    t = arr.reshape(-1, 2, 1 << bit)
    out = np.empty_like(t) if out is None else out.reshape(t.shape)
    a, b = t[:, 0], t[:, 1]
    tmp = np.empty(a.shape, dtype=out.dtype)
    for i in (0, 1):
        np.multiply(M[i, 0], a, out=out[:, i])
        np.multiply(M[i, 1], b, out=tmp)
        np.add(out[:, i], tmp, out=out[:, i])
    return out.reshape(arr.shape)


def gate_on(psi: np.ndarray, gate: GateOp, m: int) -> np.ndarray:
    """A gate acting on the last axis (length 2^m) of psi, for any batch shape.

    A diagonal gate is a multiply by its lifted diagonal and a
    single-qubit gate an elementwise 2x2 product (as in qsim's per-gate
    kernels, arXiv:2111.02396); any other gate raises GATE_RULE.
    """
    if gate.diag is not None:
        # diagonal first: numpy's complex product rounds by operand order
        # (fused multiply-adds), and the other order moves the last bits
        # of every ideal state and of the CSV rows computed from them
        return expand_diag(m, gate.targets, gate.diag) * psi
    if gate.kind != "single":
        raise ValueError(GATE_RULE)
    return apply_1q(psi, gate.matrix, gate.targets[0])


_BIT_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def apply_superop_1q(
    rho: np.ndarray, S, qubit: int, m: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply a 4x4 superoperator, or a PauliForm, to one qubit of rho.

    A PauliForm (see channel_superops) is applied in closed form on whole
    arrays with real weights. Any other sparse S (amplitude damping, say;
    at most 8 nonzero entries) is applied elementwise over the four
    (row bit, col bit) blocks of rho, skipping zero entries. A dense S (a
    gate fused with its channel) takes one gemm, which is cheaper than 16
    scaled block adds; it is the only path that calls BLAS. The result
    goes to `out` (C-contiguous, the shape of rho, not rho itself) when
    given, else to a new array.
    """
    hi, lo = 1 << (m - 1 - qubit), 1 << qubit
    out = np.empty(rho.shape, dtype=complex) if out is None else out
    if isinstance(S, PauliForm):
        return _apply_pauli_1q(rho, S, hi, lo, out)
    if np.count_nonzero(S) > 8:
        # out first holds rho with the qubit's (row bit, col bit) leading,
        # so that the gemm leaves one temporary, not two
        x = out.reshape(2, 2, hi, lo, hi, lo)
        np.copyto(x, rho.reshape(hi, 2, lo, hi, 2, lo).transpose(1, 4, 0, 2, 3, 5))
        y = (S @ x.reshape(4, -1)).reshape(x.shape)
        np.copyto(out.reshape(hi, 2, lo, hi, 2, lo), y.transpose(2, 0, 3, 4, 1, 5))
        return out
    t = rho.reshape(hi, 2, lo * hi, 2, lo)
    blocks = [t[:, u, :, v] for u, v in _BIT_PAIRS]
    o4 = out.reshape(t.shape)
    tmp = np.empty(blocks[0].shape, dtype=out.dtype)
    for a, (u, v) in enumerate(_BIT_PAIRS):
        o = o4[:, u, :, v]
        terms = [(S[a, b], blk) for b, blk in enumerate(blocks) if S[a, b] != 0]
        if not terms:
            o[...] = 0
            continue
        np.multiply(terms[0][0], terms[0][1], out=o)
        for c, blk in terms[1:]:
            np.multiply(c, blk, out=tmp)
            np.add(o, tmp, out=o)
    return out


def _apply_pauli_1q(rho: np.ndarray, w: PauliForm, hi: int, lo: int, out: np.ndarray) -> np.ndarray:
    """The PauliForm w on the qubit whose bit splits rho's index as (hi, 2, lo).

    One whole-array pass gets one pair of blocks right: c rho for the
    off-diagonal pair when d = 0, else rho + b (X rho X - rho) for the
    diagonal pair, with X rho X a view with both bits flipped. The other
    pair is then fixed up block by block, which dephasing (a copy) and
    depolarizing (adding b Tr_q rho) do cheaply and bit-flip skips.
    """
    b, c, d = w
    t = rho.reshape(hi, 2, lo * hi, 2, lo)
    o = out.reshape(t.shape)
    if d == 0:
        np.multiply(rho, c, out=out)
        if b == 0:
            for u in (0, 1):
                np.copyto(o[:, u, :, u], t[:, u, :, u])
            return out
        # diagonal blocks: (1 - b) rho_uu + b rho_(1-u)(1-u) = c rho_uu + e rho_uu + b Tr_q rho
        tr = np.add(t[:, 0, :, 0], t[:, 1, :, 1])
        np.multiply(tr, b, out=tr)
        e = 1 - 2 * b - c
        for u in (0, 1):
            if e != 0:
                np.add(o[:, u, :, u], e * t[:, u, :, u], out=o[:, u, :, u])
            np.add(o[:, u, :, u], tr, out=o[:, u, :, u])
        return out
    np.subtract(t[:, ::-1, :, ::-1], t, out=o)
    np.multiply(out, b, out=out)
    np.add(out, rho, out=out)
    if (c, d) != (1 - b, b):
        # off-diagonal blocks: c rho_uv + d rho_vu = (c - d) rho_uv + d (rho_01 + rho_10)
        s = np.add(t[:, 0, :, 1], t[:, 1, :, 0])
        np.multiply(s, d, out=s)
        for u in (0, 1):
            np.multiply(t[:, u, :, 1 - u], c - d, out=o[:, u, :, 1 - u])
            np.add(o[:, u, :, 1 - u], s, out=o[:, u, :, 1 - u])
    return out


def mul_left_1q(
    arr: np.ndarray, M: np.ndarray, qubit: int, m: int, out: np.ndarray | None = None
) -> np.ndarray:
    """M acting on the row index of a 2^m x 2^m array at one qubit."""
    return apply_1q(arr, M, qubit + m, out)


def mul_right_1q(
    arr: np.ndarray, M: np.ndarray, qubit: int, m: int, out: np.ndarray | None = None
) -> np.ndarray:
    """out_rc = sum_c' arr_rc' M_c'c with M acting on one qubit of the column."""
    return apply_1q(arr, M.T, qubit, out)


def channel_superops(channel: NoiseChannel) -> tuple:
    """(forward, adjoint) operands of apply_superop_1q for one channel.

    A Pauli channel gives its PauliForm for both, as it is its own
    adjoint; it is classified once, when the channel's pauli_form is
    first read. Any other channel gives its two 4x4 superoperators.
    """
    pauli = channel.pauli_form
    if pauli is None:
        return channel.superop, channel.superop_adjoint
    return pauli, pauli


def apply_kraus_exact(rho: DensityMatrix, channel: NoiseChannel, qubit: int) -> DensityMatrix:
    """Exact channel action sum_i (K_i x I) rho (K_i x I)^dag on one qubit."""
    m = rho.num_qubits
    _check_targets(m, (qubit,))
    return DensityMatrix(m, apply_superop_1q(rho.entries, channel_superops(channel)[0], qubit, m))


def _reduced_gram(psi: np.ndarray, qubit: int, m: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """View amplitudes as (2, rest) over one qubit; also return its 2x2 Gram."""
    t = np.moveaxis(psi.reshape((2,) * m), m - 1 - qubit, 0)
    rest = t.shape[1:]
    v = t.reshape(2, -1)
    return v, v @ v.conj().T, rest


def sample_kraus(
    state: StateVector, channel: NoiseChannel, qubit: int, r: float
) -> tuple[StateVector, int]:
    """One Monte-Carlo trajectory step on one qubit.

    Branch probabilities are p_i = <phi|K_i^dag K_i|phi>; the branch l is
    the first with cumulative probability exceeding r (r = 0 selects the
    first branch). Returns the renormalized K_l|phi> and l (0-based).
    """
    m = state.num_qubits
    _check_targets(m, (qubit,))
    v, sigma, rest = _reduced_gram(state.amplitudes, qubit, m)
    probs = np.array([np.trace(M @ sigma).real for M in channel.povm])
    total = probs.sum()
    if total <= 1e-12:
        raise SimulationError("all Kraus branch probabilities vanished")
    cdf = np.cumsum(probs)
    l = int(np.searchsorted(cdf, r, side="right"))
    if l >= len(probs):
        nz = np.flatnonzero(probs > 1e-15)
        if nz.size == 0:
            raise SimulationError("all Kraus branch probabilities vanished")
        l = int(nz[-1])
    w = channel.kraus[l] @ v
    nrm = np.linalg.norm(w)
    if nrm <= 1e-12:
        raise SimulationError(f"selected Kraus branch {l} annihilated the state")
    w = w / nrm
    out = np.moveaxis(w.reshape((2,) + rest), 0, m - 1 - qubit).reshape(-1)
    return StateVector(m, out), l


def pure_fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for two pure states of equal dimension."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("state dimensions differ")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def measurement_probabilities(state, qubits) -> tuple[float, float, float, float]:
    """Computational-basis marginal (p00, p01, p10, p11) over a qubit pair.

    The first subscript is the bit of qubits[0], the second of qubits[1].
    Accepts a StateVector or DensityMatrix.
    """
    i, j = qubits
    if i == j:
        raise ValueError("measurement qubits must be distinct")
    m = state.num_qubits
    _check_targets(m, (i, j))
    if isinstance(state, DensityMatrix):
        pr = np.diagonal(state.entries).real.copy()
    else:
        pr = np.abs(state.amplitudes) ** 2
    t = np.moveaxis(pr.reshape((2,) * m), (m - 1 - i, m - 1 - j), (0, 1))
    p = t.reshape(4, -1).sum(axis=1)
    return tuple(float(x) for x in p)
