"""Noise-channel construction, CPTP validation, and the strength grid."""

import numpy as np
import pytest

from noisyqaoa import NoiseChannel, make_channel, noise_grid, validate_cptp
from noisyqaoa.noise import CPTP_TOL, cptp_residual, custom_channel
from oracles import apply_kraus_exact

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])


class TestMakeChannel:
    def test_dephasing_matrices(self):
        ch = make_channel("dephasing", 0.3)
        assert np.allclose(ch.kraus[0], np.sqrt(0.7) * I2)
        assert np.allclose(ch.kraus[1], np.sqrt(0.3) * Z)

    def test_bitflip_at_p002(self):
        ch = make_channel("bitflip", 0.02)
        assert np.allclose(ch.kraus[0], np.sqrt(0.98) * I2)
        assert np.allclose(ch.kraus[1], np.sqrt(0.02) * X)

    def test_depolarizing_at_p002(self):
        ch = make_channel("depolarizing", 0.02)
        assert len(ch.kraus) == 4
        assert np.allclose(ch.kraus[0], np.sqrt(0.985) * I2)
        assert np.allclose(ch.kraus[1], 0.5 * np.sqrt(0.02) * X)
        assert np.allclose(ch.kraus[2], 0.5 * np.sqrt(0.02) * Y)
        assert np.allclose(ch.kraus[3], 0.5 * np.sqrt(0.02) * Z)

    def test_p_zero_keeps_zero_operators(self):
        ch = make_channel("dephasing", 0.0)
        assert len(ch.kraus) == 2
        assert np.allclose(ch.kraus[0], I2)
        assert np.allclose(ch.kraus[1], np.zeros((2, 2)))

    @pytest.mark.parametrize("p", [-0.1, 1.01, 2.0])
    def test_p_out_of_range(self, p):
        with pytest.raises(ValueError):
            make_channel("dephasing", p)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_channel("amplitude-damping", 0.1)


class TestCptp:
    @pytest.mark.parametrize("kind", ["dephasing", "bitflip", "depolarizing"])
    @pytest.mark.parametrize("p", noise_grid())
    def test_all_grid_channels_pass(self, kind, p):
        ok, residual = validate_cptp(make_channel(kind, p))
        assert ok
        assert residual < CPTP_TOL

    def test_incomplete_kraus_set_fails(self):
        # dephasing with its Z operator removed: sum K^dag K = (1-p) I
        broken = NoiseChannel("custom", 0.5, (np.sqrt(0.5) * I2.astype(complex),))
        ok, residual = validate_cptp(broken)
        assert not ok
        assert residual == pytest.approx(0.5, abs=1e-12)

    def test_identity_custom_channel(self):
        ch = custom_channel([I2])
        ok, residual = validate_cptp(ch)
        assert ok and residual < CPTP_TOL

    def test_custom_channel_rejects_non_cptp(self):
        with pytest.raises(ValueError):
            custom_channel([0.9 * I2, 0.1 * X])

    def test_custom_channel_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            custom_channel([np.eye(3)])

    def test_custom_channel_rejects_empty(self):
        with pytest.raises(ValueError):
            custom_channel([])

    def test_residual_of_printed_sets_is_algebraically_zero(self):
        for kind in ("dephasing", "bitflip", "depolarizing"):
            for p in (0.0, 0.37, 1.0):
                assert cptp_residual(make_channel(kind, p).kraus) < 1e-15


class TestDepolarizingAction:
    def test_maximally_mixed_fixed_point(self):
        out = apply_kraus_exact(0.5 * np.eye(2), make_channel("depolarizing", 0.7), 0)
        assert np.allclose(out, 0.5 * np.eye(2), atol=1e-14)

    def test_pauli_twirl_identity(self, rng):
        # depolarizing(p) rho == (1 - 3p/4) rho + (p/4)(X rho X + Y rho Y + Z rho Z)
        p = 0.013
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        out = apply_kraus_exact(rho, make_channel("depolarizing", p), 0)
        expected = (1 - 0.75 * p) * rho + 0.25 * p * (X @ rho @ X + Y @ rho @ Y + Z @ rho @ Z)
        assert np.abs(out - expected).max() < 1e-12


class TestSuperoperators:
    def test_superop_reproduces_kraus_sum(self, rng):
        ch = make_channel("depolarizing", 0.21)
        rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        direct = sum(K @ rho @ K.conj().T for K in ch.kraus)
        via_superop = (ch.superop @ rho.reshape(-1)).reshape(2, 2)
        assert np.allclose(via_superop, direct, atol=1e-14)

    def test_adjoint_superop_duality(self, rng):
        # Tr(B N(rho)) == Tr(N^dag(B) rho) for random operators
        ch = make_channel("bitflip", 0.34)
        rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        n_rho = (ch.superop @ rho.reshape(-1)).reshape(2, 2)
        nd_B = (ch.superop_adjoint @ B.reshape(-1)).reshape(2, 2)
        assert np.trace(B @ n_rho) == pytest.approx(np.trace(nd_B @ rho), abs=1e-12)


class TestNoiseGrid:
    def test_endpoints(self):
        grid = noise_grid()
        assert len(grid) == 11
        assert grid[0] == pytest.approx(1e-4, rel=1e-15)
        assert grid[10] == pytest.approx(0.02, rel=1e-15)

    def test_midpoint(self):
        assert noise_grid()[5] == pytest.approx(1e-4 * np.sqrt(200.0), rel=1e-12)

    def test_strictly_increasing(self):
        grid = noise_grid()
        assert all(a < b for a, b in zip(grid, grid[1:]))
