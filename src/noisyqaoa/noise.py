"""Single-qubit Kraus noise channels and the experimental strength grid."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .statevector import even_sector

CPTP_TOL = 1e-12

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = np.stack([_I2, _X, _Y, _Z])

KINDS = ("dephasing", "bitflip", "depolarizing")


@dataclass(frozen=True, eq=False)
class NoiseChannel:
    """A single-qubit channel given by a list of 2x2 Kraus operators.

    Immutable after construction, apart from the values derived from the
    Kraus operators on first use (the cached properties and the
    ptm_scales of each register size); the Kraus tuple is stored in full
    so that zero operators at p=0 keep the code paths uniform.
    """

    kind: str
    p: float
    kraus: tuple = field(repr=False)

    @cached_property
    def povm(self) -> tuple:
        """K_i^dag K_i for each operator (branch-probability observables)."""
        return tuple(K.conj().T @ K for K in self.kraus)

    @cached_property
    def superop(self) -> np.ndarray:
        """4x4 superoperator sum_i K_i (x) conj(K_i) acting on vec(rho)."""
        S = np.zeros((4, 4), dtype=complex)
        for K in self.kraus:
            S += np.kron(K, K.conj())
        return S

    @cached_property
    def superop_adjoint(self) -> np.ndarray:
        """Superoperator of the adjoint (Heisenberg) map B -> sum_i K_i^dag B K_i."""
        S = np.zeros((4, 4), dtype=complex)
        for K in self.kraus:
            Kd = K.conj().T
            S += np.kron(Kd, Kd.conj())
        return S

    @cached_property
    def ptm(self) -> np.ndarray:
        """Pauli transfer matrix R_PQ = Tr(P Lambda(Q)) / 2 over (I, X, Y, Z)
        (Greenbaum, arXiv:1509.02921): Pauli coefficients r go to R r, and
        the adjoint map has R.T. It is real, so the imaginary rounding
        residue is dropped; a Pauli channel has a diagonal R."""
        images = sum(K @ _PAULIS @ K.conj().T for K in self.kraus)
        R = 0.5 * np.einsum("pab,qba->pq", _PAULIS, images)
        return np.ascontiguousarray(R.real)

    @cached_property
    def _ptm_scales_by_size(self) -> dict:
        return {}

    def ptm_scales(self, m: int) -> list | None:
        """For a Pauli channel (a diagonal ptm R, its own adjoint), the m
        vectors diag(R)[(S >> 2q) & 3] over the even-sector flat indices
        S = statevector.even_sector(m), whose product with the even-sector
        coefficients applies R on qubit q; else None. Built once per m."""
        cache = self._ptm_scales_by_size
        if m not in cache:
            d = np.diag(self.ptm)
            cache[m] = None
            if not np.any(self.ptm - np.diag(d)):
                S = even_sector(m)
                cache[m] = [d[(S >> 2 * q) & 3] for q in range(m)]
        return cache[m]

    @cached_property
    def unitary_mixture(self) -> tuple | None:
        """(weights, unitaries) when every K_i^dag K_i = w_i I, else None.

        Such a channel applies K_i / sqrt(w_i) with a probability w_i that
        does not depend on the state. A zero operator has weight 0 and is
        kept as the zero matrix.
        """
        weights = np.array([np.trace(M).real / 2.0 for M in self.povm])
        if any(np.abs(M - w * _I2).max() > CPTP_TOL for M, w in zip(self.povm, weights)):
            return None
        unitaries = tuple(K / np.sqrt(w) if w > 0.0 else K for K, w in zip(self.kraus, weights))
        return weights, unitaries

    @property
    def num_operators(self) -> int:
        return len(self.kraus)


def cptp_residual(kraus: Sequence[np.ndarray]) -> float:
    """Max-entry magnitude of sum_i K_i^dag K_i - I."""
    acc = np.zeros((2, 2), dtype=complex)
    for K in kraus:
        acc += np.asarray(K).conj().T @ np.asarray(K)
    return float(np.abs(acc - _I2).max())


def validate_cptp(channel: NoiseChannel) -> tuple[bool, float]:
    """Diagnostic completeness check: (pass, residual norm)."""
    residual = cptp_residual(channel.kraus)
    return residual < CPTP_TOL, residual


def make_channel(kind: str, p: float) -> NoiseChannel:
    """Build one of the three named channels at strength p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"channel strength p={p} outside [0, 1]")
    kind = kind.lower()
    if kind == "dephasing":
        kraus = (np.sqrt(1.0 - p) * _I2, np.sqrt(p) * _Z)
    elif kind == "bitflip":
        kraus = (np.sqrt(1.0 - p) * _I2, np.sqrt(p) * _X)
    elif kind == "depolarizing":
        kraus = (
            np.sqrt(1.0 - 0.75 * p) * _I2,
            0.5 * np.sqrt(p) * _X,
            0.5 * np.sqrt(p) * _Y,
            0.5 * np.sqrt(p) * _Z,
        )
    else:
        raise ValueError(f"unknown channel kind {kind!r}; use custom_channel() for custom Kraus sets")
    return NoiseChannel(kind, float(p), kraus)


def custom_channel(kraus: Sequence[np.ndarray], p: float = 0.0) -> NoiseChannel:
    """Wrap an arbitrary single-qubit Kraus set, gated by the CPTP check."""
    ops = tuple(np.asarray(K, dtype=complex) for K in kraus)
    if not ops:
        raise ValueError("need at least one Kraus operator")
    for K in ops:
        if K.shape != (2, 2):
            raise ValueError(f"Kraus operator has shape {K.shape}, expected (2, 2)")
    residual = cptp_residual(ops)
    if residual >= CPTP_TOL:
        raise ValueError(f"Kraus set violates CPTP completeness (residual {residual:.3e})")
    return NoiseChannel("custom", float(p), ops)


def noise_grid() -> list[float]:
    """The 11-point exponential strength grid p_i = 0.0001 * 200^(0.1 i)."""
    return [1e-4 * 200.0 ** (0.1 * i) for i in range(11)]
