"""Simulation kernels: pure states in place, exact noisy states as Pauli
coefficients.

Qubit ordering is little-endian: qubit 0 is the least significant bit of
the amplitude index. For an array reshaped to [2]*m the axis of qubit q
is therefore m-1-q.

The exact noisy kernels hold a density matrix as its 4^m real Pauli
coefficients, rho = 2^-m sum_P r_P P with r_P = Tr(P rho). Qubit q's
Pauli index (I, X, Y, Z) = (0, 1, 2, 3) sits on the axis of stride 4^q,
so |+>^m is [1, 1, 0, 0] on every axis. A channel is its real 4x4 Pauli
transfer matrix on one axis (NoiseChannel.ptm), a QAOA gate a set of
real rotations between coefficient pairs, and an observable
O = sum_P o_P P, with Tr(O rho) = o . r, goes back through both
transposed.

A Pauli channel (diagonal transfer matrix) and the QAOA gates keep the
parity of a string's count of Y/Z digits, and |+>^m is even, so the
odd coefficients stay zero. The noisy sweep then holds only the even
sector, 4^m / 2 coefficients in ascending flat order: flat index f sits
at sector_position(f) = 2 (f >> 2) + (f & 1), and even_sector(m) maps
back.

The index table of the coefficient pairs a gate rotates (_pair_table)
is built once per (m, targets, layout) and kept, read-only: 32 KB per
gate at m = 7 and about 34 MB per gate at m = 12, for the even sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # qaoa imports this module
    from .qaoa import QaoaGate

MAX_PURE_QUBITS = 24
MAX_DENSE_QUBITS = 12


class SimulationError(RuntimeError):
    """Numerical failure during simulation (degenerate branch weights etc.)."""


@dataclass(eq=False)
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


@dataclass(eq=False)
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


def apply_1q(arr: np.ndarray, M: np.ndarray, bit: int) -> np.ndarray:
    """M acting on one bit of the flat (C-order) index of arr, as a new array.

    Elementwise, with no BLAS call: a gemm on a 2x2 or 4x4 operator is
    slower than the arithmetic it does once its second thread has to
    wait for a shared CPU.
    """
    t = arr.reshape(-1, 2, 1 << bit)
    out = np.empty_like(t)
    a, b = t[:, 0], t[:, 1]
    tmp = np.empty(a.shape, dtype=out.dtype)
    for i in (0, 1):
        np.multiply(M[i, 0], a, out=out[:, i])
        np.multiply(M[i, 1], b, out=tmp)
        np.add(out[:, i], tmp, out=out[:, i])
    return out.reshape(arr.shape)


@lru_cache(maxsize=128)
def zz_parities(m: int, pairs: tuple) -> np.ndarray:
    """The (len(pairs), 2^m) table of z_i z_j = +-1 over all basis indices,
    one row per qubit pair (i, j) (read-only): the generators of a run of
    edge gates, whose phases multiply to exp(-i sum_g w_g theta_g z_i z_j)."""
    _check_targets(m, [q for pair in pairs for q in pair])
    zz = np.array([1.0 - 2.0 * (_bit(m, i) ^ _bit(m, j)) for i, j in pairs]).reshape(-1, 1 << m)
    zz.setflags(write=False)
    return zz


@lru_cache(maxsize=128)
def bit_flips(m: int, targets: tuple) -> np.ndarray:
    """The (len(targets), 2^m) basis indices with the bit of qubit q
    flipped, one row per target (q,) (read-only): psi[..., row] is X_q psi."""
    qubits = [q for (q,) in targets]
    _check_targets(m, qubits)
    flips = np.arange(1 << m) ^ (1 << np.array(qubits, dtype=np.int64))[:, None]
    flips.setflags(write=False)
    return flips


def mix(psi: np.ndarray, flips: np.ndarray, angles) -> None:
    """The mixers exp(+i a X_q), one per row of bit_flips and angle a, in
    place on the last axis (length 2^m) of psi, for any batch shape; the
    adjoint negates the angles. Each is psi + i tan(a) X_q psi, or
    X_q psi - i cot(a) psi when |sin a| > |cos a|, and the factors cos a or
    i sin a left out are multiplied in once, at the end. Gathering X_q psi
    beats arithmetic on strided views of the qubit's axis."""
    scale = 1.0
    for flip, a in zip(flips, angles):
        c, s = math.cos(a), math.sin(a)
        flipped = psi.take(flip, axis=-1)
        if abs(c) >= abs(s):
            flipped *= 1j * (s / c)
            psi += flipped
            scale *= c
        else:
            psi *= -1j * (c / s)
            psi += flipped
            scale *= 1j * s
    psi *= scale


def gate_on(psi: np.ndarray, gate: QaoaGate, m: int) -> np.ndarray:
    """A QAOA gate in place on the last axis (length 2^m) of psi, for any
    batch shape, with the noiseless sweep's tables: the edge gate
    multiplies by exp(-i w theta z_i z_j), the mixer is mix (as in qsim's
    per-gate kernels, arXiv:2111.02396). Returns psi."""
    if gate.param == "gamma":
        psi *= np.exp(-1j * gate.weight * gate.angle * zz_parities(m, (gate.targets,))[0])
    else:
        mix(psi, bit_flips(m, (gate.targets,)), (gate.angle,))
    return psi


def _odd(f: np.ndarray, m: int) -> np.ndarray:
    """1 where flat index f's m digits hold an odd count of Y/Z, else 0."""
    odd = np.zeros_like(f)
    for q in range(m):
        odd ^= (f >> (2 * q + 1)) & 1
    return odd


def sector_position(f):
    """Position of even-sector flat index f: its bits without qubit 0's Y/Z
    bit, which the others fix. Additive over disjoint nonzero digits."""
    return 2 * (f >> 2) + (f & 1)


@lru_cache(maxsize=4)
def even_sector(m: int) -> np.ndarray:
    """The flat index at each sector position c: 4 (c >> 1) + (c & 1)
    + 2 * (the Y/Z parity of c >> 1). Built once per m and kept,
    read-only, for every channel's ptm_scales: 4^m / 2 int64, 64 KB at
    m = 7 and 64 MB at m = 12, for at most 4 sizes."""
    rest = np.arange(4 ** (m - 1))
    S = ((4 * rest + 2 * _odd(rest, m - 1))[:, None] + np.arange(2)).ravel()
    S.setflags(write=False)
    return S


def apply_ptm(r: np.ndarray, R: np.ndarray, qubit: int, out: np.ndarray) -> np.ndarray:
    """out = the 4x4 matrix R applied on one qubit's axis of r, elementwise,
    skipping zero entries of R, with no BLAS call; out is the size of r,
    not r itself. The adjoint channel has the transfer matrix R.T."""
    t = r.reshape(-1, 4, 1 << (2 * qubit))
    o = out.reshape(t.shape)
    for a in range(4):
        o[:, a] = 0.0
        for b in np.flatnonzero(R[a]):
            o[:, a] += R[a, b] * t[:, b]
    return out


@lru_cache(maxsize=128)
def _pair_table(m: int, targets: tuple, sector: bool) -> np.ndarray:
    """The (2, K) indices of the coefficient pairs (A, B) that a QAOA gate
    on the targets rotates, as A -> cos(phi) A - sin(phi) B,
    B -> sin(phi) A + cos(phi) B with phi = 2 * weight * angle: (Z_q, Y_q)
    for the mixer exp(+i beta X_q), and for the edge gate
    exp(-i gamma w Z_i Z_j) the four slices (X_a P_b, Y_a Q_b) with
    {a, b} = {i, j}, P_b in (I, Z) and Q_b the other one. They are the
    K = 4^(m-1) flat indices, or with sector set the 4^m / 8 sector
    positions of the even-sector pairs (the gates keep the Y/Z parity):
    the K slices of A sides and of B sides, offsets from the flat indices
    whose digits at the targets are 0; in the sector, offsets and bases of
    equal Y/Z parity are paired and given as sector positions, even parity
    first. The table depends on m, the targets and the layout only, so it
    is built once and kept, read-only, for every later gate on the same
    qubits: 2K int64, 32 KB at m = 7 and about 34 MB at m = 12 in the
    sector, twice that in the full layout, for at most 128 tables. The
    targets are not checked here: a circuit's layout checks them."""
    lo, hi = min(targets), max(targets)
    L, H = 4 ** lo, 4 ** hi
    base = (np.arange(4 ** (m - 1 - hi))[:, None, None] * (4 * H)
            + np.arange(max(H // (4 * L), 1))[None, :, None] * (4 * L)
            + np.arange(L)[None, None, :]).ravel()
    if hi == lo:  # the mixer's (Z_q, Y_q)
        offsets = np.array([[3 * L], [2 * L]])
    else:  # (X_lo P_hi, Y_lo Q_hi) and (P_lo X_hi, Q_lo Y_hi) for P in (I, Z)
        offsets = np.array([[L, L + 3 * H, H, 3 * L + H], [2 * L + 3 * H, 2 * L, 3 * L + 2 * H, 2 * H]])
    groups = [(offsets, base)]
    if sector:
        odd_offsets, odd_base = _odd(offsets[0], m), _odd(base, m)
        groups = [(sector_position(offsets[:, odd_offsets == p]), sector_position(base[odd_base == p]))
                  for p in (0, 1)]
    pairs = np.concatenate([(o[:, :, None] + b).reshape(2, -1) for o, b in groups], axis=1)
    pairs.setflags(write=False)
    return pairs


def rotate_pairs(r: np.ndarray, pairs: np.ndarray, phi: float, values: np.ndarray | None = None):
    """Rotate r's pairs at the indices _pair_table gives by phi, in place
    (the adjoint gate by -phi), and return their new values; values, when
    given, is r[pairs]. Gathered pairs are contiguous, where strided views
    of low qubits have short inner axes that make arithmetic slow. Two
    array operations: (c A + (-s) B, c B + s A), bit-equal to
    (c A - s B, c B + s A), since a - s b == a + (-s) b in IEEE arithmetic."""
    if values is None:
        values = r.take(pairs)
    c, s = math.cos(phi), math.sin(phi)
    new = values * c
    new += values[::-1] * np.array([[-s], [s]])
    r[pairs] = new
    return new


# (I, X, Y, Z) coefficients -> (row bit, col bit) entries (00, 01, 10, 11) of one qubit
_PAULI_TO_BITS = 0.5 * np.array([[1, 0, 0, 1], [0, 1, -1j, 0], [0, 1, 1j, 0], [1, 0, 0, -1]])


def pauli_to_density(r: np.ndarray, m: int) -> np.ndarray:
    """The 2^m x 2^m matrix 2^-m sum_P r_P P of Pauli coefficients r: each
    qubit's axis becomes its (row bit, col bit) pair, then one transpose
    gathers the row bits and the column bits."""
    t, spare = r.astype(complex), np.empty(r.shape, dtype=complex)
    for q in range(m):
        t, spare = apply_ptm(t, _PAULI_TO_BITS, q, spare), t
    order = tuple(range(0, 2 * m, 2)) + tuple(range(1, 2 * m, 2))
    return t.reshape((2,) * (2 * m)).transpose(order).reshape(1 << m, 1 << m)


# Held for the benchmark alone, until its refresh (ROADMAP item 1) frees
# them: its tracer wraps apply_gate, apply_superop_1q, expand_diag,
# mul_left_1q and mul_right_1q below, none of which the package calls,
# and its set-up and warm-ups call NoiseChannel.superop and
# superop_adjoint, qaoa.run_exact_noisy (with DensityMatrix and
# pauli_to_density above) and qaoa.trajectory_states.


def apply_gate(state: StateVector, gate: QaoaGate) -> StateVector:
    """Apply a QAOA gate to a copy of the state; norm is preserved to 1e-10 (unitary)."""
    return StateVector(state.num_qubits, gate_on(state.amplitudes.copy(), gate, state.num_qubits))


def apply_superop_1q(rho: np.ndarray, S: np.ndarray, qubit: int, m: int) -> np.ndarray:
    """Apply a 4x4 superoperator to one qubit of a 2^m x 2^m matrix rho,
    indexed (row bit, col bit) on both sides, as one elementwise
    contraction with no BLAS call; the result is a new array."""
    hi, lo = 1 << (m - 1 - qubit), 1 << qubit
    t = rho.reshape(hi, 2, lo * hi, 2, lo)
    return np.einsum("uvxy,ixjyl->iujvl", S.reshape(2, 2, 2, 2), t).reshape(rho.shape)


def expand_diag(m: int, targets, diag4: np.ndarray) -> np.ndarray:
    """Lift a two-qubit diagonal (indexed 2*b_i + b_j) to the full register."""
    i, j = targets
    return np.asarray(diag4)[2 * _bit(m, i) + _bit(m, j)]


def mul_left_1q(arr: np.ndarray, M: np.ndarray, qubit: int, m: int) -> np.ndarray:
    """M acting on the row index of a 2^m x 2^m array at one qubit."""
    return apply_1q(arr, M, qubit + m)


def mul_right_1q(arr: np.ndarray, M: np.ndarray, qubit: int, m: int) -> np.ndarray:
    """out_rc = sum_c' arr_rc' M_c'c with M acting on one qubit of the column."""
    return apply_1q(arr, M.T, qubit)
