"""The even-parity Pauli sector of the exact noisy sweep against a dense
Kraus-sum oracle that shares no code with the simulator.

Pauli channels and the QAOA gates commute with the global flip X^(x m),
and |+>^m is its +1 eigenstate, so the noisy state has no Pauli string
with an odd count of Y/Z digits. For a Pauli channel the sweep holds only
the 4^m / 2 even coefficients; any other channel keeps all 4^m. The oracle
evolves 2^m x 2^m matrices with kron-lifted gates and Kraus operators, and
takes gate k's derivative by inserting its generator right after the gate;
its lift is that of oracles.py, its generators and graphs those of
test_ideal_oracle.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from noisyqaoa import (
    QaoaParams, WeightedGraph, build_circuit, cost_exact, make_channel, problem_hamiltonian, run_exact_noisy,
)
from noisyqaoa.noise import custom_channel
from noisyqaoa.qaoa import _noisy_sweep, adjoint_gradient_noisy
from noisyqaoa.statevector import MAX_DENSE_QUBITS, _pair_table, even_sector, sector_position
from oracles import I2, X, Z, hamiltonian, lift
from test_ideal_oracle import TOL, generator, graphs

PAULIS = np.array([I2, X, [[0.0, -1j], [1j, 0.0]], Z])


def odd_parity(m):
    """1 for every flat Pauli index sum_q a_q 4^q with an odd count of
    digits a_q in (Y, Z) = (2, 3), else 0."""
    digits = (np.arange(4 ** m)[:, None] >> (2 * np.arange(m))) & 3
    return (digits >= 2).sum(axis=1) % 2


def pauli_coefficients(rho, m):
    """r_P = Tr(P rho) at every flat index, one qubit contracted at a time:
    test_statevector's coefficients without its list of 4^m dense Pauli
    strings, which at m = 6 would take 268 MB."""
    t = rho.reshape((2,) * (2 * m))
    for k in range(m):  # kron factor k (qubit m-1-k): row axis 0, column axis m-k
        t = np.tensordot(t, PAULIS, axes=([0, m - k], [2, 1]))
    return t.real.ravel()


def dense_reference(circuit, graph, channel):
    """(rho, cost, d_gamma, d_beta) by dense matrix products."""
    m = circuit.num_qubits
    kraus = [[lift(K, q, m) for K in channel.kraus] for q in range(m)]
    ops = [(g, *generator(g, m)) for g in circuit.gates]
    H = hamiltonian(graph)

    def noise(rho, gate):
        for q in gate.targets:
            rho = sum(K @ rho @ K.conj().T for K in kraus[q])
        return rho

    def finish(rho, start):
        for g, _, U in ops[start:]:
            rho = noise(U @ rho @ U.conj().T, g)
        return np.trace(H @ rho).real

    n = 1 + max(g.step for g in circuit.gates)
    grads = {"gamma": np.zeros(n), "beta": np.zeros(n)}
    rho = np.full((1 << m, 1 << m), 2.0 ** -m, dtype=complex)
    for k, (g, G, U) in enumerate(ops):
        rho = U @ rho @ U.conj().T
        grads[g.param][g.step] += finish(noise(G @ rho + rho @ G.conj().T, g), k + 1)
        rho = noise(rho, g)
    return rho, np.trace(H @ rho).real, grads["gamma"], grads["beta"]


def assert_matches(graph, n, channel, seed, sector):
    rng = np.random.default_rng(seed)
    circuit = build_circuit(graph, QaoaParams(rng.uniform(-np.pi, np.pi, n), rng.uniform(-np.pi, np.pi, n)))
    m, h = graph.num_nodes, problem_hamiltonian(graph)
    rho, cost, d_gamma, d_beta = dense_reference(circuit, graph, channel)
    coef = pauli_coefficients(rho, m)
    r = _noisy_sweep(circuit, channel)[0]
    if sector:
        assert np.abs(coef[odd_parity(m) == 1]).max() < TOL
        assert np.abs(r - coef[odd_parity(m) == 0]).max() < TOL  # the sector in ascending flat order
    else:
        assert np.abs(r - coef).max() < TOL
    assert np.abs(run_exact_noisy(circuit, channel).entries - rho).max() < TOL
    assert abs(cost_exact(circuit, h, channel) - cost) < TOL
    got_cost, got_gamma, got_beta = adjoint_gradient_noisy(circuit, h, channel)
    assert abs(got_cost - cost) < TOL
    assert np.abs(got_gamma - d_gamma).max() < TOL
    assert np.abs(got_beta - d_beta).max() < TOL


def pauli_mixture(rng):
    """A random Pauli channel, its Kraus operators carrying random phases."""
    w = rng.dirichlet(np.ones(4))
    return custom_channel([math.sqrt(wi) * np.exp(2j * np.pi * rng.random()) * P for wi, P in zip(w, PAULIS)])


def amplitude_damping(rng):
    g = rng.random()
    return custom_channel([np.diag([1.0, math.sqrt(1.0 - g)]), math.sqrt(g) * np.array([[0.0, 1.0], [0.0, 0.0]])])


def coherent_rotation(rng):
    """e^{i theta X}: keeps the Y/Z parity, but its transfer matrix mixes Y and Z."""
    return custom_channel([expm(1j * rng.uniform(0.1, 1.0) * X)])


def random_kraus(rng):
    k = int(rng.integers(1, 5))
    V, _ = np.linalg.qr(rng.normal(size=(2 * k, 2)) + 1j * rng.normal(size=(2 * k, 2)))
    return custom_channel([V[2 * i:2 * i + 2] for i in range(k)])


def named(kind):
    return lambda rng: make_channel(kind, rng.uniform(0.0, 0.3))


PAULI_CHANNELS = {"dephasing": named("dephasing"), "bitflip": named("bitflip"),
                  "depolarizing": named("depolarizing"), "pauli-mixture": pauli_mixture}
OTHER_CHANNELS = {"amplitude-damping": amplitude_damping, "coherent-x": coherent_rotation,
                  "random-kraus": random_kraus}


@given(graph=graphs(), n=st.integers(1, 3), kind=st.sampled_from(sorted(PAULI_CHANNELS)),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_pauli_channels_run_on_the_even_sector(graph, n, kind, seed):
    channel = PAULI_CHANNELS[kind](np.random.default_rng(seed))
    assert _noisy_sweep(build_circuit(graph, QaoaParams([0.1], [0.2])), channel)[0].size == 4 ** graph.num_nodes // 2
    assert_matches(graph, n, channel, seed, sector=True)


@given(graph=graphs(), n=st.integers(1, 3), kind=st.sampled_from(sorted(OTHER_CHANNELS)),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_other_channels_keep_every_coefficient(graph, n, kind, seed):
    channel = OTHER_CHANNELS[kind](np.random.default_rng(seed))
    assert _noisy_sweep(build_circuit(graph, QaoaParams([0.1], [0.2])), channel)[0].size == 4 ** graph.num_nodes
    assert_matches(graph, n, channel, seed, sector=False)


class TestIndexMap:
    @pytest.mark.parametrize("m", range(1, 6))
    def test_sector_is_the_even_strings_in_order(self, m):
        S = even_sector(m)
        assert np.array_equal(S, np.flatnonzero(odd_parity(m) == 0))
        assert np.array_equal(sector_position(S), np.arange(S.size))

    def test_channels_share_one_read_only_sector_per_size(self):
        # every new channel's ptm_scales reads the sector of its size, so
        # it is built once per m, and no caller can write to it
        S = even_sector(4)
        assert not S.flags.writeable
        with pytest.raises(ValueError):
            S[0] = 1
        for kind in ("dephasing", "bitflip", "depolarizing"):
            scales = make_channel(kind, 0.1).ptm_scales(4)
            assert even_sector(4) is S and len(scales) == 4

    @given(m=st.integers(1, 5), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_sector_pairs_are_the_even_full_pairs(self, m, data):
        # the full pairs (flat indices) whose A side is even, as sector
        # positions, are the sector pairs, in some order
        targets = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=min(m, 2), unique=True)))
        full = _pair_table(m, targets, False)
        even = full[:, odd_parity(m)[full[0]] == 0]
        assert np.array_equal(odd_parity(m)[full[0]], odd_parity(m)[full[1]])  # the gates keep the parity
        expected = np.searchsorted(even_sector(m), even)
        got = _pair_table(m, targets, True)
        assert got.shape == expected.shape == (2, 4 ** m // 8)
        assert sorted(map(tuple, got.T)) == sorted(map(tuple, expected.T))


class TestPairTables:
    def test_gates_on_the_same_qubits_share_one_read_only_table(self):
        gates = build_circuit(WeightedGraph(3, ((0, 2, 1.0),)), QaoaParams([0.3, -0.2], [0.4, 0.1])).gates
        for kind_gates in ((gates[0], gates[4]), (gates[1], gates[5])):  # two edge gates, two mixers on qubit 0
            assert kind_gates[0].targets == kind_gates[1].targets and kind_gates[0].step != kind_gates[1].step
            for sector in (False, True):
                table = _pair_table(3, kind_gates[0].targets, sector)
                assert _pair_table(3, kind_gates[1].targets, sector) is table
                with pytest.raises(ValueError, match="read-only"):
                    table[0, 0] = 0

    @pytest.mark.parametrize("sector", [True, False])
    def test_warm_tables_give_the_cold_bits(self, sector):
        graph = WeightedGraph(4, ((0, 1, 1.0), (1, 3, -0.6), (0, 2, 0.4)))
        circuit, h = build_circuit(graph, QaoaParams([0.3, -0.5], [0.4, 0.9])), problem_hamiltonian(graph)
        channel = make_channel("bitflip", 0.05) if sector else amplitude_damping(np.random.default_rng(2))
        _pair_table.cache_clear()
        cold = adjoint_gradient_noisy(circuit, h, channel), run_exact_noisy(circuit, channel).entries
        assert _pair_table.cache_info().currsize == graph.num_edges + graph.num_nodes
        warm = adjoint_gradient_noisy(circuit, h, channel), run_exact_noisy(circuit, channel).entries
        assert _pair_table.cache_info().currsize == graph.num_edges + graph.num_nodes
        for a, b in zip((*cold[0], cold[1]), (*warm[0], warm[1])):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestEdgeCases:
    GRAPHS = {
        "one-qubit": WeightedGraph(1, ()),  # the mixer has no even-sector pair
        "edgeless": WeightedGraph(3, ()),
        "isolated-nodes": WeightedGraph(4, ((1, 3, -0.8),)),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("kind", ["dephasing", "bitflip", "depolarizing"])
    def test_small_and_sparse_graphs(self, name, kind):
        graph = self.GRAPHS[name]
        assert_matches(graph, 2, make_channel(kind, 0.1), 5, sector=True)
        assert_matches(graph, 2, amplitude_damping(np.random.default_rng(5)), 5, sector=False)

    def test_empty_pairs(self):
        assert _pair_table(1, (0,), True).shape == (2, 0)

    def test_too_many_qubits_raise_before_any_scales(self):
        # the qubit limit comes before the channel's 4^m / 2 scale vectors,
        # which at m = 13 would take 0.9 GB, and before any pair table,
        # which the module cache would keep (134 MB per gate)
        misses = _pair_table.cache_info().misses
        m = MAX_DENSE_QUBITS + 1
        graph = WeightedGraph(m, ((0, 1, 1.0),))
        circuit, h = build_circuit(graph, QaoaParams([0.3], [0.4])), problem_hamiltonian(graph)
        channel = make_channel("depolarizing", 0.1)
        for evaluate in (lambda: run_exact_noisy(circuit, channel), lambda: cost_exact(circuit, h, channel),
                         lambda: adjoint_gradient_noisy(circuit, h, channel)):
            with pytest.raises(ValueError, match="density-matrix evolution limited"):
                evaluate()
        assert not vars(channel).get("_ptm_scales_by_size")
        assert _pair_table.cache_info().misses == misses
