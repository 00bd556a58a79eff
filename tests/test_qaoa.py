"""QAOA compilation and execution against independent dense oracles."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from noisyqaoa import (
    GateSequence,
    QaoaParams,
    WeightedGraph,
    build_circuit,
    cost_exact,
    cost_sampled,
    exact_expectation,
    make_channel,
    plus_state,
    problem_hamiltonian,
    run_exact_noisy,
    run_ideal,
    trajectory_states,
    with_shifted_gate,
)
from noisyqaoa.experiments import ci_cost
from noisyqaoa.noise import custom_channel
from noisyqaoa.qaoa import adjoint_gradient_noisy, noise_event_count
from oracles import apply_kraus_exact, lift, output_fidelity, run_trajectory

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


PAULI_KINDS = ("dephasing", "bitflip", "depolarizing")

TRIANGLE = WeightedGraph(3, ((0, 1, 1.0), (0, 2, -0.6), (1, 2, 0.8)))


def random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def amplitude_damping(gamma, extra=()):
    return custom_channel(
        [np.diag([1.0, math.sqrt(1.0 - gamma)]), math.sqrt(gamma) * np.array([[0.0, 1.0], [0.0, 0.0]]), *extra]
    )


class ConstantRng:
    """Stands in for a Generator whose every uniform is r."""

    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


def assert_rows_match_reference(channel, seed, T=4):
    """On a random n=2 triangle circuit, trajectory_states row t equals
    the t-th of T run_trajectory calls that share one stream from seed."""
    rng = np.random.default_rng(seed)
    seq = build_circuit(TRIANGLE, QaoaParams(rng.normal(size=2), rng.normal(size=2)))
    batch = trajectory_states(seq, channel, T, seed=seed)
    stream = np.random.default_rng(seed)
    for t in range(T):
        assert np.abs(batch[t] - run_trajectory(seq, channel, stream)).max() < 1e-12


def zz_diag(i, j, m):
    idx = np.arange(1 << m)
    return ((-1.0) ** ((idx >> i) & 1)) * ((-1.0) ** ((idx >> j) & 1))


def dense_step_unitary(graph, gamma, beta):
    m = graph.num_nodes
    U = np.eye(1 << m, dtype=complex)
    for i, j, w in sorted(graph.edges):
        U = np.diag(np.exp(-1j * gamma * w * zz_diag(i, j, m))) @ U
    for q in range(m):
        U = lift(expm(1j * beta * X), q, m) @ U
    return U


def dense_channel_step(rho, graph, gamma, beta, channel):
    """Oracle: gate then per-touched-qubit Kraus sum, all via dense kron."""
    m = graph.num_nodes
    for i, j, w in sorted(graph.edges):
        U = np.diag(np.exp(-1j * gamma * w * zz_diag(i, j, m)))
        rho = U @ rho @ U.conj().T
        rho = apply_kraus_exact(apply_kraus_exact(rho, channel, i), channel, j)
    for q in range(m):
        U = lift(expm(1j * beta * X), q, m)
        rho = U @ rho @ U.conj().T
        rho = apply_kraus_exact(rho, channel, q)
    return rho


class TestQaoaParams:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            QaoaParams([0.1, 0.2], [0.3])

    def test_non_finite(self):
        with pytest.raises(ValueError):
            QaoaParams([np.nan], [0.0])

    def test_scalar_promotion(self):
        p = QaoaParams(0.3, 0.4)
        assert p.n == 1


class TestBuildCircuit:
    def test_gate_count_table1(self, table1):
        for n in (1, 2, 4):
            seq = build_circuit(table1, QaoaParams(np.ones(n) * 0.1, np.ones(n) * 0.2))
            assert seq.gate_count == n * (9 + 7)

    def test_layer_ordering(self, table1):
        seq = build_circuit(table1, QaoaParams([0.1, 0.2], [0.3, 0.4]))
        kinds = [(g.param, g.step) for g in seq.gates]
        expected = (
            [("gamma", 0)] * 9 + [("beta", 0)] * 7 + [("gamma", 1)] * 9 + [("beta", 1)] * 7
        )
        assert kinds == expected

    def test_edges_sorted_within_layer(self, table1):
        seq = build_circuit(table1, QaoaParams([0.1], [0.2]))
        pairs = [g.targets for g in seq.gates[:9]]
        assert pairs == sorted(pairs)

    def test_event_count(self, table1):
        seq = build_circuit(table1, QaoaParams([0.1, 0.2], [0.3, 0.4]))
        assert noise_event_count(seq) == 2 * (2 * 9 + 7)


class TestRunIdeal:
    def test_zero_angles_is_plus_state(self, table1):
        seq = build_circuit(table1, QaoaParams([0.0], [0.0]))
        assert np.allclose(run_ideal(seq).amplitudes, plus_state(7).amplitudes)

    def test_single_edge_phase_layer(self, single_edge):
        # beta = 0: amplitudes are exp(-i*pi/4*parity)/2 on |+>+
        seq = build_circuit(single_edge, QaoaParams([np.pi / 4], [0.0]))
        out = run_ideal(seq).amplitudes
        expected = 0.5 * np.exp(-1j * np.pi / 4 * np.array([1, -1, -1, 1]))
        assert np.allclose(out, expected, atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_expm_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = WeightedGraph(3, ((0, 1, 0.8), (1, 2, -0.6), (0, 2, 1.1)))
        params = QaoaParams(rng.normal(size=2), rng.normal(size=2))
        psi = plus_state(3).amplitudes
        for k in range(2):
            psi = dense_step_unitary(g, params.gamma[k], params.beta[k]) @ psi
        out = run_ideal(build_circuit(g, params)).amplitudes
        assert np.abs(out - psi).max() < 1e-12

    def test_norm_preserved(self, table1, rng):
        params = QaoaParams(rng.normal(size=3), rng.normal(size=3))
        out = run_ideal(build_circuit(table1, params))
        assert np.vdot(out.amplitudes, out.amplitudes).real == pytest.approx(1.0)


class TestRunExactNoisy:
    def test_p_zero_equals_ideal_projector(self, table1, rng):
        params = QaoaParams(rng.normal(size=2), rng.normal(size=2))
        seq = build_circuit(table1, params)
        psi = run_ideal(seq).amplitudes
        rho = run_exact_noisy(seq, make_channel("depolarizing", 0.0))
        assert np.abs(rho.entries - np.outer(psi, psi.conj())).max() < 1e-12

    @pytest.mark.parametrize("kind", ["dephasing", "bitflip", "depolarizing"])
    def test_matches_dense_oracle(self, kind, rng):
        g = WeightedGraph(3, ((0, 1, 0.9), (1, 2, 0.4), (0, 2, -0.7)))
        params = QaoaParams(rng.normal(size=2), rng.normal(size=2))
        channel = make_channel(kind, 0.07)
        rho = np.full((8, 8), 1.0 / 8.0, dtype=complex)
        for k in range(2):
            rho = dense_channel_step(rho, g, params.gamma[k], params.beta[k], channel)
        out = run_exact_noisy(build_circuit(g, params), channel)
        assert np.abs(out.entries - rho).max() < 1e-12

    def test_trace_preserved(self, table1, rng):
        params = QaoaParams(rng.normal(size=2), rng.normal(size=2))
        rho = run_exact_noisy(build_circuit(table1, params), make_channel("depolarizing", 0.02))
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)

    def test_single_qubit_dephasing_fidelity(self):
        # m=1 edgeless circuit: one mixer gate, one dephasing event;
        # the output is e^{i beta}|+> so F = (1-p) + p |<psi|Z|psi>|^2 = 1-p
        g = WeightedGraph(1, ())
        seq = build_circuit(g, QaoaParams([0.0], [0.63]))
        for p in (0.0, 0.1, 0.37):
            rho = run_exact_noisy(seq, make_channel("dephasing", p))
            assert output_fidelity(run_ideal(seq).amplitudes, rho.entries) == pytest.approx(1.0 - p, abs=1e-12)


ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])


def test_circuit_rejects_a_foreign_gate(table1):
    # an iSWAP posing as an edge gate: unchecked, the sweeps would read its
    # angle and the trajectory kernel its missing diagonal
    gates = build_circuit(table1, QaoaParams([0.4], [0.3])).gates
    iswap = SimpleNamespace(targets=(0, 1), step=0, param="gamma", weight=1.0, angle=0.0, diag=None, matrix=ISWAP)
    for at in (0, 5, len(gates)):
        with pytest.raises(ValueError, match=f"gate {at} is a SimpleNamespace, not a QaoaGate"):
            GateSequence(table1.num_nodes, gates[:at] + (iswap,) + gates[at:])


class TestWithShiftedGate:
    def test_only_target_gate_changes(self, table1):
        seq = build_circuit(table1, QaoaParams([0.1], [0.2]))
        shifted = with_shifted_gate(seq, 3, 0.5)
        assert shifted.gates[3].angle == pytest.approx(0.6)
        for i in range(seq.gate_count):
            if i != 3:
                assert shifted.gates[i] is seq.gates[i]

    def test_shift_matches_rebuilt_mixer(self, single_edge):
        seq = build_circuit(single_edge, QaoaParams([0.3], [0.4]))
        # index 1 is the qubit-0 mixer; shifting every mixer equals new beta
        shifted = with_shifted_gate(with_shifted_gate(seq, 1, 0.2), 2, 0.2)
        rebuilt = build_circuit(single_edge, QaoaParams([0.3], [0.6]))
        assert np.allclose(run_ideal(shifted).amplitudes, run_ideal(rebuilt).amplitudes)


class TestTrajectories:
    def test_batch_matches_single(self, single_edge):
        seq = build_circuit(single_edge, QaoaParams([0.7], [0.3]))
        channel = make_channel("depolarizing", 0.2)
        batch = trajectory_states(seq, channel, 5, seed=42)
        stream = np.random.default_rng(42)
        for t in range(5):
            assert np.abs(batch[t] - run_trajectory(seq, channel, stream)).max() < 1e-12

    def test_p_zero_trajectories_are_ideal(self, single_edge):
        seq = build_circuit(single_edge, QaoaParams([0.7], [0.3]))
        batch = trajectory_states(seq, make_channel("bitflip", 0.0), 3, seed=0)
        ideal = run_ideal(seq).amplitudes
        for t in range(3):
            assert np.abs(batch[t] - ideal).max() < 1e-12

    def test_states_normalized(self, table1):
        seq = build_circuit(table1, QaoaParams([0.4], [0.2]))
        batch = trajectory_states(seq, make_channel("depolarizing", 0.1), 8, seed=5)
        norms = np.einsum("ti,ti->t", batch, batch.conj()).real
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_mean_projector_approaches_exact(self, single_edge):
        seq = build_circuit(single_edge, QaoaParams([0.5], [0.4]))
        channel = make_channel("depolarizing", 0.05)
        T = 4000
        states = trajectory_states(seq, channel, T, seed=11)
        avg = np.einsum("ti,tj->ij", states, states.conj()) / T
        exact = run_exact_noisy(seq, channel).entries
        assert np.abs(avg - exact).max() < 0.02

    @given(kind=st.sampled_from(PAULI_KINDS), p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_named_channels_match_reference(self, kind, p, seed):
        channel = make_channel(kind, p)
        assert channel.unitary_mixture is not None
        assert_rows_match_reference(channel, seed)

    @given(p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_custom_unitary_mixture_matches_reference(self, p, seed):
        rng = np.random.default_rng(seed + 1)
        w = rng.dirichlet([1.0, 1.0])
        kraus = [math.sqrt(1.0 - p) * np.eye(2)] + [math.sqrt(p * wi) * random_unitary(rng) for wi in w]
        channel = custom_channel(kraus)
        assert channel.unitary_mixture is not None
        assert_rows_match_reference(channel, seed)

    @given(gamma=st.floats(0.01, 1.0), seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_amplitude_damping_matches_reference(self, gamma, seed):
        channel = amplitude_damping(gamma)
        assert channel.unitary_mixture is None
        assert_rows_match_reference(channel, seed)

    @pytest.mark.parametrize(
        "channel",
        [make_channel(kind, 0.0) for kind in PAULI_KINDS]
        + [
            custom_channel([np.eye(2), np.zeros((2, 2))]),
            # weights 0.95 + 0.05 sum to just below 1 in floating point
            custom_channel([math.sqrt(0.95) * np.eye(2), math.sqrt(0.05) * np.diag([1.0, -1.0]), np.zeros((2, 2))]),
            amplitude_damping(0.3, [np.zeros((2, 2))]),
        ],
        ids=list(PAULI_KINDS) + ["custom-zero-operator", "mixture-cdf-below-one", "damping-zero-operator"],
    )
    def test_uniform_below_one_takes_last_nonzero_branch(self, table1, channel):
        # the branch cdf can round to just below r; the rule then falls
        # back to the last branch of nonzero probability, never a zero operator
        seq = build_circuit(table1, QaoaParams([0.4], [0.3]))
        r = np.nextafter(1.0, 0.0)
        batch = trajectory_states(seq, channel, 3, uniforms=np.full((3, noise_event_count(seq)), r))
        single = run_trajectory(seq, channel, ConstantRng(r))
        assert np.abs(batch - single).max() < 1e-12

    def test_uniform_matrix_shape_check(self, single_edge):
        seq = build_circuit(single_edge, QaoaParams([0.5], [0.4]))
        with pytest.raises(ValueError):
            trajectory_states(seq, make_channel("bitflip", 0.1), 2, uniforms=np.zeros((2, 3)))

    def test_seed_required(self, single_edge):
        seq = build_circuit(single_edge, QaoaParams([0.5], [0.4]))
        with pytest.raises(ValueError):
            trajectory_states(seq, make_channel("bitflip", 0.1), 2)


class TestAdjointGradientNoisy:
    @pytest.mark.parametrize("gamma", [0.05, 0.6])
    def test_amplitude_damping_matches_finite_differences(self, gamma):
        # amplitude damping is no Pauli channel: its transfer matrix is not
        # diagonal, so it takes the elementwise 4x4 product, and its adjoint
        # R.T differs from R
        channel = amplitude_damping(gamma)
        assert channel.ptm_scales(3) is None
        h = problem_hamiltonian(TRIANGLE)
        rng = np.random.default_rng(17)
        gam, bet = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2)

        def cost(g, b):
            rho = run_exact_noisy(build_circuit(TRIANGLE, QaoaParams(g, b)), channel)
            return float(np.diagonal(rho.entries).real @ h.energies)

        cost0, d_gamma, d_beta = adjoint_gradient_noisy(build_circuit(TRIANGLE, QaoaParams(gam, bet)), h, channel)
        assert cost0 == pytest.approx(cost(gam, bet), abs=1e-12)
        step = 1e-5
        for k in range(2):
            e = np.eye(2)[k] * step
            fd_gamma = (cost(gam + e, bet) - cost(gam - e, bet)) / (2 * step)
            fd_beta = (cost(gam, bet + e) - cost(gam, bet - e)) / (2 * step)
            assert d_gamma[k] == pytest.approx(fd_gamma, abs=1e-8)
            assert d_beta[k] == pytest.approx(fd_beta, abs=1e-8)


class TestCost:
    def test_ideal_cost_matches_expectation(self, table1, table1_h, rng):
        params = QaoaParams(rng.normal(size=2), rng.normal(size=2))
        seq = build_circuit(table1, params)
        assert cost_exact(seq, table1_h) == pytest.approx(
            exact_expectation(run_ideal(seq), table1_h), abs=1e-12
        )

    def test_noisy_cost_at_p_zero(self, table1, table1_h, rng):
        params = QaoaParams(rng.normal(size=1), rng.normal(size=1))
        seq = build_circuit(table1, params)
        assert cost_exact(seq, table1_h, make_channel("dephasing", 0.0)) == pytest.approx(
            cost_exact(seq, table1_h), abs=1e-12
        )

    def test_noisy_cost_shrinks_toward_zero(self, table1, table1_h):
        # heavy depolarizing pushes the state toward maximal mixing, where
        # the traceless cost vanishes
        params = QaoaParams([0.35], [0.25])
        seq = build_circuit(table1, params)
        ideal = cost_exact(seq, table1_h)
        noisy = cost_exact(seq, table1_h, make_channel("depolarizing", 0.5))
        assert abs(noisy) < abs(ideal)

    def test_sampled_cost_near_exact(self, single_edge):
        h = problem_hamiltonian(single_edge)
        seq = build_circuit(single_edge, QaoaParams([0.6], [0.35]))
        channel = make_channel("depolarizing", 0.01)
        exact = cost_exact(seq, h, channel)
        shots = 4000
        est, per_edge = cost_sampled(seq, h, channel, shots, np.random.default_rng(3))
        assert abs(est - exact) < ci_cost(shots, single_edge)
        assert len(per_edge) == 1 and per_edge[0][0] == (0, 1)
        assert 0.0 <= per_edge[0][1] <= 1.0

    @pytest.mark.parametrize("p", [1e-4, 0.02])
    def test_sampled_cost_unbiased(self, table1, table1_h, p):
        seq = build_circuit(table1, QaoaParams([0.4], [0.3]))
        channel = make_channel("depolarizing", p)
        rng = np.random.default_rng(2024)
        est = np.array([cost_sampled(seq, table1_h, channel, 200, rng)[0] for _ in range(100)])
        se = est.std(ddof=1) / math.sqrt(est.size)
        assert abs(est.mean() - cost_exact(seq, table1_h, channel)) <= 4.0 * se

    def test_sampled_cost_reproducible(self, single_edge):
        h = problem_hamiltonian(single_edge)
        seq = build_circuit(single_edge, QaoaParams([0.6], [0.35]))
        channel = make_channel("bitflip", 0.02)
        a = cost_sampled(seq, h, channel, 200, np.random.default_rng(9))
        b = cost_sampled(seq, h, channel, 200, np.random.default_rng(9))
        assert a == b

    def test_sampled_cost_rejects_zero_shots(self, single_edge):
        h = problem_hamiltonian(single_edge)
        seq = build_circuit(single_edge, QaoaParams([0.6], [0.35]))
        with pytest.raises(ValueError):
            cost_sampled(seq, h, make_channel("bitflip", 0.02), 0, np.random.default_rng(0))


class TestOutputFidelity:
    def test_dimension_mismatch(self, single_edge, table1):
        seq2 = build_circuit(single_edge, QaoaParams([0.1], [0.1]))
        seq7 = build_circuit(table1, QaoaParams([0.1], [0.1]))
        rho = run_exact_noisy(seq7, make_channel("dephasing", 0.1))
        with pytest.raises(ValueError):
            output_fidelity(run_ideal(seq2).amplitudes, rho.entries)

    def test_pure_self_fidelity(self, table1, rng):
        params = QaoaParams(rng.normal(size=1), rng.normal(size=1))
        seq = build_circuit(table1, params)
        psi = run_ideal(seq).amplitudes
        rho = run_exact_noisy(seq, make_channel("depolarizing", 0.0)).entries
        assert output_fidelity(psi, rho) == pytest.approx(1.0, abs=1e-12)
