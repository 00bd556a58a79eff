"""Simulation kernels against kron-lifted dense operators, and the dense
oracles' own checks: Kraus sum, trajectory step, fidelity, measurement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisyqaoa import (
    DensityMatrix,
    QaoaParams,
    SimulationError,
    StateVector,
    WeightedGraph,
    apply_gate,
    build_circuit,
    make_channel,
    plus_state,
)
from noisyqaoa.noise import custom_channel
from noisyqaoa.qaoa import QaoaGate
from noisyqaoa.statevector import (
    apply_1q,
    apply_ptm,
    apply_superop_1q,
    even_sector,
    expand_diag,
    gate_on,
    mul_left_1q,
    mul_right_1q,
    pauli_to_density,
    rotate_pairs,
    rotation_pairs,
)
from oracles import apply_kraus_exact, lift, measurement_probabilities, projector, pure_fidelity, sample_kraus

H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULIS = (np.eye(2), X, np.array([[0.0, -1j], [1j, 0.0]]), np.diag([1.0, -1.0]))


def basis_state(m, index):
    amp = np.zeros(1 << m, dtype=complex)
    amp[index] = 1.0
    return StateVector(m, amp)


def random_state(m, rng):
    amp = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
    return StateVector(m, amp / np.linalg.norm(amp))


def pauli_string(index, m):
    """The 2^m x 2^m Pauli string of flat coefficient index sum_q a_q 4^q."""
    full = np.eye(1)
    for q in reversed(range(m)):
        full = np.kron(full, PAULIS[(index >> (2 * q)) & 3])
    return full


def pauli_basis(m):
    return [pauli_string(k, m) for k in range(4 ** m)]


def coefficients(rho, basis):
    """r_P = Tr(P rho), the coordinates of rho = 2^-m sum_P r_P P."""
    return np.array([np.trace(P @ rho).real for P in basis])


def observable_coefficients(obs, basis):
    """o_P with obs = sum_P o_P P, so that Tr(obs rho) = o . r."""
    return np.array([np.trace(P @ obs).real for P in basis]) / len(basis[0])


def random_hermitian(m, rng):
    a = rng.normal(size=(1 << m, 1 << m)) + 1j * rng.normal(size=(1 << m, 1 << m))
    return a + a.conj().T


def random_cptp(shape, rng):
    """A random single-qubit channel of the named shape, as a Kraus set."""
    if shape in ("dephasing", "bitflip", "depolarizing"):
        return make_channel(shape, rng.choice([0.0, 1.0, rng.random()]))
    if shape == "pauli-mixture":
        # Kraus operators with random phases; their transfer matrix is diagonal
        w = rng.dirichlet(np.ones(4))
        return custom_channel([np.sqrt(wi) * np.exp(2j * np.pi * rng.random()) * P for wi, P in zip(w, PAULIS)])
    if shape == "amplitude-damping":
        g = rng.random()
        return custom_channel([np.diag([1.0, np.sqrt(1.0 - g)]), np.sqrt(g) * np.array([[0.0, 1.0], [0.0, 0.0]])])
    k = int(rng.integers(1, 5))
    V, _ = np.linalg.qr(rng.normal(size=(2 * k, 2)) + 1j * rng.normal(size=(2 * k, 2)))
    return custom_channel([V[2 * i:2 * i + 2] for i in range(k)])


CHANNEL_SHAPES = ("dephasing", "bitflip", "depolarizing", "pauli-mixture", "amplitude-damping", "random-kraus")


class TestStates:
    def test_plus_state_m1(self):
        s = plus_state(1)
        assert np.allclose(s.amplitudes, [1 / np.sqrt(2)] * 2)

    def test_plus_state_m2(self):
        assert np.allclose(plus_state(2).amplitudes, [0.5] * 4)

    def test_plus_state_m7(self):
        s = plus_state(7)
        assert s.amplitudes.shape == (128,)
        assert np.allclose(s.amplitudes, 2.0 ** -3.5)
        assert s.norm() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [0, -1, 25])
    def test_plus_state_bounds(self, m):
        with pytest.raises(ValueError):
            plus_state(m)

    def test_statevector_shape_check(self):
        with pytest.raises(ValueError):
            StateVector(2, np.zeros(3, dtype=complex))

    def test_density_shape_check(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.zeros((2, 3), dtype=complex))

    def test_projector(self):
        rho = projector(plus_state(1).amplitudes)
        assert np.allclose(rho, 0.5 * np.ones((2, 2)))
        assert np.trace(rho) == pytest.approx(1.0)


def mixer(q, beta):
    return QaoaGate((q,), 0, "beta", 1.0, beta)


def edge_gate(i, j, w, gamma):
    return QaoaGate((i, j), 0, "gamma", w, gamma)


class TestApplyGate:
    def test_x_flips_zero(self):
        # exp(i pi/2 X) = i X
        out = apply_gate(basis_state(1, 0), mixer(0, np.pi / 2))
        assert np.allclose(out.amplitudes, [0.0, 1j])

    def test_hadamard_on_zero(self):
        # a trajectory's Kraus branch is any 2x2 operator: apply_1q takes it
        out = apply_1q(basis_state(1, 0).amplitudes, H, 0)
        assert np.allclose(out, [1 / np.sqrt(2)] * 2)

    def test_diagonal_zz_phase(self):
        out = apply_gate(basis_state(2, 0), edge_gate(0, 1, 1.0, np.pi / 2))
        assert np.allclose(out.amplitudes, [-1j, 0, 0, 0])

    def test_x_targets_correct_qubit(self):
        # qubit 1 is the second-least-significant bit of the index
        out = apply_gate(basis_state(2, 0), mixer(1, np.pi / 2))
        assert np.allclose(out.amplitudes, [0, 0, 1j, 0])

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            apply_gate(basis_state(2, 0), mixer(3, np.pi / 2))

    @pytest.mark.parametrize("gate", [mixer(1, 0.7), edge_gate(0, 2, -0.5, 0.9)], ids=["mixer", "edge"])
    def test_apply_gate_leaves_its_input(self, gate, rng):
        psi = random_state(3, rng)
        before = psi.amplitudes.copy()
        out = apply_gate(psi, gate)
        assert np.array_equal(psi.amplitudes, before)
        assert not np.array_equal(out.amplitudes, before)

    @pytest.mark.parametrize("gate", [mixer(1, 0.7), edge_gate(0, 2, -0.5, 0.9)], ids=["mixer", "edge"])
    def test_gate_on_works_in_place(self, gate, rng):
        batch = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        assert gate_on(batch, gate, 3) is batch

    @given(m=st.integers(1, 4), q=st.integers(0, 3), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_norm_preserved_random_unitaries(self, m, q, seed):
        q = q % m
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(a)
        out = apply_1q(random_state(m, rng).amplitudes, u, q)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)

    @given(m=st.integers(1, 4), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_kernel_matches_dense_operator(self, m, seed):
        # oracle: the kron-lifted 2^m x 2^m matrix, which shares no code
        # with gate_on or apply_1q; checked on a (T, 2^m) batch and on a
        # single state, for a mixer, an edge gate and a random unitary
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 5))
        batch = rng.normal(size=(T, 1 << m)) + 1j * rng.normal(size=(T, 1 << m))
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        q = int(rng.integers(m))
        assert np.abs(apply_1q(batch, u, q) - batch @ lift(u, q, m).T).max() < 1e-13
        beta = rng.uniform(-np.pi, np.pi)
        gates = [(mixer(q, beta), lift(np.cos(beta) * np.eye(2) + 1j * np.sin(beta) * X, q, m))]
        if m >= 2:
            i, j = (int(x) for x in rng.choice(m, size=2, replace=False))
            w, gamma = rng.uniform(-2.0, 2.0), rng.uniform(-np.pi, np.pi)
            d = np.exp(-1j * gamma * w * np.array([1.0, -1.0, -1.0, 1.0]))
            Z = np.diag([1.0, -1.0])
            # d is indexed 2 * b_i + b_j; build it from projectors on each bit
            proj = ((np.eye(2) + Z) / 2, (np.eye(2) - Z) / 2)
            full = sum(d[2 * bi + bj] * lift(proj[bi], i, m) @ lift(proj[bj], j, m)
                       for bi in (0, 1) for bj in (0, 1))
            gates.append((edge_gate(i, j, w, gamma), full))
        for gate, full in gates:
            assert np.abs(gate_on(batch.copy(), gate, m) - batch @ full.T).max() < 1e-13
            psi = random_state(m, rng)
            out = apply_gate(psi, gate).amplitudes
            assert np.abs(out - full @ psi.amplitudes).max() < 1e-13


class TestApplyKrausExact:
    def test_depolarizing_fixes_maximally_mixed(self):
        out = apply_kraus_exact(0.5 * np.eye(2), make_channel("depolarizing", 0.4), 0)
        assert np.allclose(out, 0.5 * np.eye(2), atol=1e-14)

    def test_dephasing_on_plus(self):
        p = 0.23
        plus = 0.5 * np.ones((2, 2))
        minus = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        out = apply_kraus_exact(plus, make_channel("dephasing", p), 0)
        assert np.allclose(out, (1 - p) * plus + p * minus, atol=1e-14)

    def test_bitflip_on_zero(self):
        p = 0.41
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = apply_kraus_exact(rho, make_channel("bitflip", p), 0)
        assert np.allclose(out, np.diag([1 - p, p]), atol=1e-14)

    @pytest.mark.parametrize("kind", ["dephasing", "bitflip", "depolarizing"])
    def test_trace_preserved_on_grid(self, kind, rng):
        from noisyqaoa import noise_grid

        rho = projector(random_state(3, rng).amplitudes)
        for p in noise_grid():
            out = apply_kraus_exact(rho, make_channel(kind, p), 1)
            assert abs(np.trace(out) - 1.0) < 1e-12

    def test_linearity(self, rng):
        ch = make_channel("depolarizing", 0.17)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        ha, hb = a + a.conj().T, b + b.conj().T
        lhs = apply_kraus_exact(0.3 * ha + 0.7 * hb, ch, 0)
        rhs = 0.3 * apply_kraus_exact(ha, ch, 0) + 0.7 * apply_kraus_exact(hb, ch, 0)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_bad_qubit(self):
        with pytest.raises(ValueError):
            apply_kraus_exact(0.5 * np.eye(2), make_channel("bitflip", 0.1), 1)


class TestKernelHelpers:
    def test_superop_matches_dense_conjugation(self, rng):
        m = 3
        ch = make_channel("depolarizing", 0.3)
        rho = projector(random_state(m, rng).amplitudes)
        for q in range(m):
            out = apply_superop_1q(rho, ch.superop, q, m)
            expected = apply_kraus_exact(rho, ch, q)
            assert np.abs(out - expected).max() < 1e-13

    @given(pauli=st.booleans(), k=st.integers(1, 4), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_superop_of_random_channel_matches_kraus_sum(self, pauli, k, seed):
        # a random Pauli mixture has a sparse superoperator, a random Kraus
        # set a dense one; the contraction must handle either
        rng = np.random.default_rng(seed)
        m = 3
        if pauli:
            w = rng.dirichlet(np.ones(4))
            paulis = (np.eye(2), X, np.array([[0.0, -1j], [1j, 0.0]]), np.diag([1.0, -1.0]))
            kraus = [np.sqrt(wi) * P for wi, P in zip(w, paulis)]
        else:
            V, _ = np.linalg.qr(rng.normal(size=(2 * k, 2)) + 1j * rng.normal(size=(2 * k, 2)))
            kraus = [V[2 * i:2 * i + 2] for i in range(k)]
        ch = custom_channel(kraus)
        assert (np.count_nonzero(ch.superop) <= 8) == pauli
        rho = projector(random_state(m, rng).amplitudes)
        for q in range(m):
            out = apply_superop_1q(rho, ch.superop, q, m)
            expected = apply_kraus_exact(rho, ch, q)
            assert np.abs(out - expected).max() < 1e-13

    def test_mul_left_right(self, rng):
        m = 3
        arr = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for q in range(m):
            full = lift(M, q, m)
            assert np.abs(mul_left_1q(arr, M, q, m) - full @ arr).max() < 1e-13
            assert np.abs(mul_right_1q(arr, M, q, m) - arr @ full).max() < 1e-13

    def test_expand_diag(self, rng):
        m, d = 3, rng.normal(size=4)
        Z = np.diag([1.0, -1.0])
        proj = ((np.eye(2) + Z) / 2, (np.eye(2) - Z) / 2)
        for i, j in ((0, 2), (2, 1)):
            # d is indexed 2 * b_i + b_j
            full = sum(d[2 * bi + bj] * lift(proj[bi], i, m) @ lift(proj[bj], j, m)
                       for bi in (0, 1) for bj in (0, 1))
            assert np.abs(expand_diag(m, (i, j), d) - np.diag(full)).max() < 1e-15


class TestPauliTransferKernels:
    """The Pauli-coefficient kernels against kron-lifted dense operators."""

    @given(shape=st.sampled_from(CHANNEL_SHAPES), m=st.integers(1, 3), seed=st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_channel_kernels_match_kraus_sum(self, shape, m, seed):
        # forward: the coefficients of sum_K K rho K^dag; adjoint: those of
        # sum_K K^dag O K, through R.T; both by the elementwise product and,
        # for a diagonal R, by the scale vectors on the even sector
        rng = np.random.default_rng(seed)
        ch = random_cptp(shape, rng)
        R = ch.ptm
        assert np.abs(R[0] - [1.0, 0.0, 0.0, 0.0]).max() < 1e-14  # trace preservation
        scales, S = ch.ptm_scales(m), even_sector(m)
        assert (scales is None) == (shape in ("amplitude-damping", "random-kraus"))
        basis = pauli_basis(m)
        rho = projector(random_state(m, rng).amplitudes)
        obs = random_hermitian(m, rng)
        r, o = coefficients(rho, basis), observable_coefficients(obs, basis)
        for q in range(m):
            Ks = [lift(K, q, m) for K in ch.kraus]
            forward = coefficients(sum(K @ rho @ K.conj().T for K in Ks), basis)
            adjoint = observable_coefficients(sum(K.conj().T @ obs @ K for K in Ks), basis)
            buf = np.empty_like(r)
            assert np.abs(apply_ptm(r, R, q, buf) - forward).max() < 1e-13
            assert np.abs(apply_ptm(o, R.T, q, buf) - adjoint).max() < 1e-13 * np.abs(o).max()
            if scales is not None:
                assert np.abs(r[S] * scales[q] - forward[S]).max() < 1e-13
                assert np.abs(o[S] * scales[q] - adjoint[S]).max() < 1e-13 * np.abs(o).max()

    @given(m=st.integers(1, 4), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_gate_kernels_match_conjugation(self, m, seed):
        # forward rotation by phi: U rho U^dag; adjoint rotation by -phi:
        # U^dag O U; for the mixer exp(i beta X_q) and every edge gate
        # exp(-i gamma w Z_i Z_j) of a random weighted graph on m qubits
        rng = np.random.default_rng(seed)
        edges = tuple((i, j, float(rng.uniform(-2.0, 2.0))) for i in range(m) for j in range(i + 1, m))
        graph = WeightedGraph(m, edges)
        seq = build_circuit(graph, QaoaParams([rng.uniform(-np.pi, np.pi)], [rng.uniform(-np.pi, np.pi)]))
        basis = pauli_basis(m)
        rho = projector(random_state(m, rng).amplitudes)
        obs = random_hermitian(m, rng)
        for gate in seq.gates:
            if gate.param == "beta":
                U = lift(np.cos(gate.angle) * np.eye(2) + 1j * np.sin(gate.angle) * X, gate.targets[0], m)
            else:
                i, j = gate.targets
                Z = np.diag([1.0, -1.0])
                U = np.diag(np.exp(-1j * gate.angle * gate.weight * np.diag(lift(Z, i, m) @ lift(Z, j, m))))
            phi = 2.0 * gate.weight * gate.angle
            pairs = rotation_pairs(gate, m)
            r = coefficients(rho, basis)
            rotated = rotate_pairs(r, pairs, phi)
            expected = coefficients(U @ rho @ U.conj().T, basis)
            assert np.abs(r - expected).max() < 1e-13
            assert np.array_equal(rotated[0], r[pairs[0]]) and np.array_equal(rotated[1], r[pairs[1]])
            o = observable_coefficients(obs, basis)
            rotate_pairs(o, pairs, -phi)
            expected = observable_coefficients(U.conj().T @ obs @ U, basis)
            assert np.abs(o - expected).max() < 1e-13 * np.abs(obs).max()

    @given(m=st.integers(1, 4), seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_density_conversion_matches_pauli_sum(self, m, seed):
        rng = np.random.default_rng(seed)
        basis = pauli_basis(m)
        r = rng.normal(size=4 ** m)
        expected = sum(c * P for c, P in zip(r, basis)) / 2 ** m
        assert np.abs(pauli_to_density(r, m) - expected).max() < 1e-13
        plus = projector(plus_state(m).amplitudes)
        assert np.abs(pauli_to_density(coefficients(plus, basis), m) - plus).max() < 1e-15

    def test_named_channels_have_their_diagonal(self):
        p = 0.3
        expected = {
            "dephasing": [1.0, 1 - 2 * p, 1 - 2 * p, 1.0],
            "bitflip": [1.0, 1.0, 1 - 2 * p, 1 - 2 * p],
            "depolarizing": [1.0, 1 - p, 1 - p, 1 - p],
        }
        for kind, diag in expected.items():
            channel = make_channel(kind, p)
            R = channel.ptm
            assert np.abs(R - np.diag(diag)).max() < 1e-15
            # the m=2 sector is II IX XI XX YY YZ ZY ZZ: qubit 1's digits
            # 0 0 1 1 2 2 3 3, qubit 0's 0 1 0 1 2 3 2 3
            scales = channel.ptm_scales(2)
            assert np.array_equal(scales[1], np.repeat(np.diag(R), 2))
            assert np.array_equal(scales[0], np.diag(R)[[0, 1, 0, 1, 2, 3, 2, 3]])
            assert channel.ptm_scales(2) is scales  # built once per channel and m
        # amplitude damping moves weight from Z onto I: R_ZI = gamma
        g = 0.3
        damping = custom_channel([np.diag([1.0, np.sqrt(1 - g)]), np.sqrt(g) * np.array([[0.0, 1.0], [0.0, 0.0]])])
        expected = [[1, 0, 0, 0], [0, np.sqrt(1 - g), 0, 0], [0, 0, np.sqrt(1 - g), 0], [g, 0, 0, 1 - g]]
        assert np.abs(damping.ptm - np.array(expected)).max() < 1e-15
        assert damping.ptm_scales(2) is None


class TestSampleKraus:
    def test_bitflip_branch_probabilities_on_zero(self):
        p = 0.3
        ch = make_channel("bitflip", p)
        out0, l0 = sample_kraus(basis_state(1, 0).amplitudes, ch, 0, 0.5)
        assert l0 == 0 and np.allclose(out0, [1, 0])
        out1, l1 = sample_kraus(basis_state(1, 0).amplitudes, ch, 0, 0.8)
        assert l1 == 1 and np.allclose(out1, [0, 1])

    def test_bitflip_on_plus_invariant(self):
        ch = make_channel("bitflip", 0.5)
        for r in (0.1, 0.9):
            out, _ = sample_kraus(plus_state(1).amplitudes, ch, 0, r)
            assert np.allclose(np.abs(out), [1 / np.sqrt(2)] * 2)

    def test_r_zero_selects_first_branch(self):
        for kind in ("dephasing", "bitflip", "depolarizing"):
            _, l = sample_kraus(plus_state(2).amplitudes, make_channel(kind, 0.2), 1, 0.0)
            assert l == 0

    def test_cdf_boundary_selects_next_branch(self):
        # r exactly at the first branch boundary: sum_{i<l} p_i <= r < sum_{i<=l} p_i
        p = 0.25
        _, l = sample_kraus(basis_state(1, 0).amplitudes, make_channel("bitflip", p), 0, 1 - p)
        assert l == 1

    def test_output_normalized(self, rng):
        ch = make_channel("depolarizing", 0.8)
        state = random_state(3, rng).amplitudes
        for r in rng.random(10):
            out, _ = sample_kraus(state, ch, 2, float(r))
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)

    def test_trajectory_average_converges_to_exact(self):
        # one mixer on |0>, dephasing(0.2): trajectory mixture vs exact channel
        p, T = 0.2, 100_000
        ch = make_channel("dephasing", p)
        after_gate = apply_gate(basis_state(1, 0), mixer(0, 0.6)).amplitudes
        exact = apply_kraus_exact(projector(after_gate), ch, 0)
        rng = np.random.default_rng(11)
        acc = np.zeros((2, 2), dtype=complex)
        for r in rng.random(T):
            out, _ = sample_kraus(after_gate, ch, 0, float(r))
            acc += projector(out)
        assert np.abs(acc / T - exact).max() < 0.01


class TestFidelityAndMeasurement:
    def test_fidelity_self(self, rng):
        s = random_state(2, rng).amplitudes
        assert pure_fidelity(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_orthogonal(self):
        assert pure_fidelity(basis_state(1, 0).amplitudes, basis_state(1, 1).amplitudes) == pytest.approx(0.0)

    def test_fidelity_zero_plus(self):
        assert pure_fidelity(basis_state(1, 0).amplitudes, plus_state(1).amplitudes) == pytest.approx(0.5)

    def test_fidelity_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pure_fidelity(plus_state(1).amplitudes, plus_state(2).amplitudes)

    def test_probs_basis_state(self):
        assert measurement_probabilities(basis_state(2, 0).amplitudes, (0, 1)) == pytest.approx((1, 0, 0, 0))

    def test_probs_plus_plus(self):
        assert measurement_probabilities(plus_state(2).amplitudes, (0, 1)) == pytest.approx((0.25,) * 4)

    def test_probs_bell(self):
        amp = np.zeros(4, dtype=complex)
        amp[0] = amp[3] = 1 / np.sqrt(2)
        probs = measurement_probabilities(amp, (0, 1))
        assert probs == pytest.approx((0.5, 0.0, 0.0, 0.5))

    def test_probs_subscript_order(self):
        # |01> on (q0, q1): q0 carries bit 1, so p10 (first subscript = q0) is 1
        probs = measurement_probabilities(basis_state(2, 1).amplitudes, (0, 1))
        assert probs == pytest.approx((0, 0, 1, 0))

    def test_probs_density_input(self, rng):
        s = random_state(3, rng).amplitudes
        pv = measurement_probabilities(s, (0, 2))
        pd = measurement_probabilities(projector(s), (0, 2))
        assert pv == pytest.approx(pd, abs=1e-12)

    def test_probs_sum_to_one(self, rng):
        probs = measurement_probabilities(random_state(3, rng).amplitudes, (1, 2))
        assert sum(probs) == pytest.approx(1.0, abs=1e-10)

    def test_probs_duplicate_qubits(self):
        with pytest.raises(ValueError):
            measurement_probabilities(plus_state(2).amplitudes, (1, 1))
