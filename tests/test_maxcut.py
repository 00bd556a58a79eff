"""Max-Cut model: graph validation, Hamiltonian, expectations, brute force."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisyqaoa import (
    StateVector,
    WeightedGraph,
    brute_force_ground,
    energy_of_bitstring,
    exact_expectation,
    plus_state,
    problem_hamiltonian,
    table1_graph,
)
from noisyqaoa.maxcut import index_to_bits


def random_graph(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    rng.shuffle(pairs)
    k = int(rng.integers(1, len(pairs) + 1))
    edges = tuple((i, j, float(rng.normal() or 1.0)) for i, j in pairs[:k])
    return WeightedGraph(m, edges)


class TestWeightedGraph:
    def test_normalizes_edge_order(self):
        g = WeightedGraph(3, ((2, 0, 1.5),))
        assert g.edges == ((0, 2, 1.5),)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, ((0, 0, 1.0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, ((0, 1, 1.0), (1, 0, 2.0)))

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, ((0, 1, 0.0),))

    def test_rejects_out_of_range_node(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, ((0, 2, 1.0),))

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            WeightedGraph(0, ())

    def test_table1_shape(self, table1):
        assert table1.num_nodes == 7
        assert table1.num_edges == 9
        assert table1.total_weight() == pytest.approx(5.17, abs=1e-12)
        assert sum(w * w for _, _, w in table1.edges) == pytest.approx(3.2421, abs=1e-12)


class TestProblemHamiltonian:
    def test_single_edge_term(self):
        h = problem_hamiltonian(WeightedGraph(2, ((0, 1, 0.7),)))
        assert h.terms == ((0, 1, 0.7),)
        assert h.num_qubits == 2

    def test_table1_terms(self, table1_h):
        assert len(table1_h.terms) == 9
        assert table1_h.num_qubits == 7

    def test_empty_hamiltonian(self, rng):
        h = problem_hamiltonian(WeightedGraph(3, ()))
        assert np.all(h.energies == 0.0)
        amp = rng.normal(size=8) + 1j * rng.normal(size=8)
        s = StateVector(3, amp / np.linalg.norm(amp))
        assert exact_expectation(s, h) == pytest.approx(0.0)


class TestEnergy:
    def test_aligned_spins(self):
        h = problem_hamiltonian(WeightedGraph(2, ((0, 1, 0.9),)))
        assert energy_of_bitstring(h, (0, 0)) == pytest.approx(0.9)

    def test_cut_edge(self):
        h = problem_hamiltonian(WeightedGraph(2, ((0, 1, 0.9),)))
        assert energy_of_bitstring(h, (0, 1)) == pytest.approx(-0.9)

    def test_table1_reference_partition(self, table1_h):
        # every edge crosses {0,1,2,3} | {4,5,6}, so energy = -sum of weights
        bits = (0, 0, 0, 0, 1, 1, 1)
        assert energy_of_bitstring(table1_h, bits) == pytest.approx(-5.17, abs=1e-12)

    def test_length_mismatch(self, table1_h):
        with pytest.raises(ValueError):
            energy_of_bitstring(table1_h, (0, 1))

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_global_flip_symmetry(self, seed):
        g = random_graph(seed)
        h = problem_hamiltonian(g)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, g.num_nodes)
        assert energy_of_bitstring(h, bits) == pytest.approx(
            energy_of_bitstring(h, 1 - bits), abs=1e-12
        )

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_trace_zero(self, seed):
        h = problem_hamiltonian(random_graph(seed))
        assert abs(float(h.energies.sum())) < 1e-9


class TestExactExpectation:
    def test_plus_state_is_zero(self, table1_h):
        assert exact_expectation(plus_state(7), table1_h) == pytest.approx(0.0, abs=1e-12)

    def test_basis_state_single_edge(self):
        h = problem_hamiltonian(WeightedGraph(2, ((0, 1, 1.3),)))
        amp = np.zeros(4, dtype=complex)
        amp[0] = 1.0
        assert exact_expectation(StateVector(2, amp), h) == pytest.approx(1.3)

    def test_basis_states_match_energy(self):
        g = random_graph(99)
        h = problem_hamiltonian(g)
        m = g.num_nodes
        for x in range(1 << m):
            amp = np.zeros(1 << m, dtype=complex)
            amp[x] = 1.0
            assert exact_expectation(StateVector(m, amp), h) == pytest.approx(
                energy_of_bitstring(h, index_to_bits(x, m)), abs=1e-12
            )

    def test_dimension_mismatch(self, table1_h):
        with pytest.raises(ValueError):
            exact_expectation(plus_state(3), table1_h)


class TestBruteForce:
    def test_single_edge(self):
        emin, optima = brute_force_ground(WeightedGraph(2, ((0, 1, 0.8),)))
        assert emin == pytest.approx(-0.8)
        assert sorted(optima) == [(0, 1), (1, 0)]

    def test_frustrated_triangle(self):
        g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))
        emin, optima = brute_force_ground(g)
        assert emin == pytest.approx(-1.0)
        assert len(optima) == 6  # all nontrivial bipartitions

    def test_table1_ground(self, table1):
        emin, optima = brute_force_ground(table1)
        assert emin == pytest.approx(-5.17, abs=1e-12)
        assert (0, 0, 0, 0, 1, 1, 1) in optima
        assert (1, 1, 1, 1, 0, 0, 0) in optima

    def test_even_optimum_count(self):
        for seed in range(5):
            _, optima = brute_force_ground(random_graph(seed))
            assert len(optima) % 2 == 0

    def test_lower_bounds_expectations(self, rng):
        g = random_graph(7)
        h = problem_hamiltonian(g)
        emin, _ = brute_force_ground(g)
        for _ in range(10):
            amp = rng.normal(size=1 << g.num_nodes) + 1j * rng.normal(size=1 << g.num_nodes)
            s = StateVector(g.num_nodes, amp / np.linalg.norm(amp))
            assert exact_expectation(s, h) >= emin - 1e-10

    def test_size_guard(self):
        g = WeightedGraph(25, ((0, 1, 1.0),))
        with pytest.raises(ValueError):
            brute_force_ground(g)


def test_table1_matches_bundled_fixture():
    g = table1_graph()
    expected = {
        (0, 4): 0.73, (0, 5): 0.33, (0, 6): 0.5,
        (1, 4): 0.69, (1, 5): 0.36,
        (2, 5): 0.88, (2, 6): 0.58,
        (3, 5): 0.67, (3, 6): 0.43,
    }
    assert {(i, j): w for i, j, w in g.edges} == pytest.approx(expected)
