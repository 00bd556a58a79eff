"""Shift-rule gradients vs finite differences, descent behavior, metrics."""

import numpy as np
import pytest

from noisyqaoa import (
    QaoaParams,
    WeightedGraph,
    brute_force_ground,
    build_circuit,
    cost_and_gradient,
    exact_noisy_evaluator,
    finite_difference_gradient,
    gradient_descent,
    ideal_evaluator,
    make_channel,
    param_distance,
    random_init,
    sampled_evaluator,
    shifted_evaluation_gradient,
)
from noisyqaoa.gradopt import Gradient
from noisyqaoa.statevector import SimulationError

NEG_WEIGHT_GRAPH = WeightedGraph(3, ((0, 1, 1.3), (1, 2, -0.8), (0, 2, 0.5)))


def random_params(n, rng):
    return QaoaParams(rng.uniform(-np.pi, np.pi, n), rng.uniform(-np.pi, np.pi, n))


class TestGradientContainer:
    def test_norm_and_flat(self):
        g = Gradient(np.array([3.0]), np.array([4.0]))
        assert g.norm() == pytest.approx(5.0)
        assert list(g.flat()) == [3.0, 4.0]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Gradient(np.array([1.0, 2.0]), np.array([1.0]))

    def test_is_finite(self):
        assert not Gradient(np.array([np.inf]), np.array([0.0])).is_finite()


class TestShiftRuleVsFiniteDifference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ideal_twenty_random_points(self, table1, n):
        rng = np.random.default_rng(1000 + n)
        ev = ideal_evaluator(table1)
        for _ in range(5):
            params = random_params(n, rng)
            sr = cost_and_gradient(table1, params, ev)[1].flat()
            fd = finite_difference_gradient(table1, params, 1e-5).flat()
            assert np.abs(sr - fd).max() < 1e-6

    def test_noisy_evaluator(self, table1):
        rng = np.random.default_rng(55)
        channel = make_channel("depolarizing", 0.01)
        ev = exact_noisy_evaluator(table1, channel)
        params = random_params(2, rng)
        sr = cost_and_gradient(table1, params, ev)[1].flat()
        fd = finite_difference_gradient(table1, params, 1e-5, evaluator=ev).flat()
        assert np.abs(sr - fd).max() < 1e-6

    def test_negative_weights(self):
        rng = np.random.default_rng(7)
        params = random_params(2, rng)
        sr = cost_and_gradient(NEG_WEIGHT_GRAPH, params, ideal_evaluator(NEG_WEIGHT_GRAPH))[1].flat()
        fd = finite_difference_gradient(NEG_WEIGHT_GRAPH, params, 1e-5).flat()
        assert np.abs(sr - fd).max() < 1e-6

    def test_fd_error_shrinks_quadratically(self, table1):
        params = QaoaParams([0.3], [0.4])
        exact = cost_and_gradient(table1, params, ideal_evaluator(table1))[1].flat()
        errs = [
            np.abs(finite_difference_gradient(table1, params, h).flat() - exact).max()
            for h in (1e-2, 1e-3)
        ]
        assert errs[1] < errs[0] / 50.0  # ~1/100 for an O(h^2) scheme

    def test_fd_rejects_bad_step(self, table1):
        with pytest.raises(ValueError):
            finite_difference_gradient(table1, QaoaParams([0.1], [0.1]), 0.0)


class TestAdjointMatchesShiftedEvaluations:
    """cost_and_gradient's fast path must equal the literal 2N-evaluation sum."""

    @pytest.mark.parametrize("n", [1, 3])
    def test_ideal(self, table1, n):
        rng = np.random.default_rng(40 + n)
        params = random_params(n, rng)
        ev = ideal_evaluator(table1)
        fast = cost_and_gradient(table1, params, ev)[1].flat()
        # a bare lambda has no adjoint method
        literal = shifted_evaluation_gradient(table1, params, lambda s: ev(s)).flat()
        assert np.abs(fast - literal).max() < 1e-9

    @pytest.mark.parametrize("kind", ["dephasing", "depolarizing"])
    def test_noisy(self, kind):
        rng = np.random.default_rng(77)
        params = random_params(2, rng)
        ev = exact_noisy_evaluator(NEG_WEIGHT_GRAPH, make_channel(kind, 0.03))
        fast = cost_and_gradient(NEG_WEIGHT_GRAPH, params, ev)[1].flat()
        literal = shifted_evaluation_gradient(NEG_WEIGHT_GRAPH, params, lambda s: ev(s)).flat()
        assert np.abs(fast - literal).max() < 1e-9

    def test_cost_matches_evaluator(self, table1):
        params = QaoaParams([0.2, -0.3], [0.1, 0.4])
        for ev in (
            ideal_evaluator(table1),
            exact_noisy_evaluator(table1, make_channel("bitflip", 0.02)),
        ):
            cost, _ = cost_and_gradient(table1, params, ev)
            assert cost == pytest.approx(ev(build_circuit(table1, params)), abs=1e-12)


class TestGradientStructure:
    def test_beta_zero_gamma_derivative_vanishes(self, table1):
        # with beta = 0 the state stays diagonal-symmetric: cost is 0 and
        # flat in gamma
        params = QaoaParams([0.7], [0.0])
        ev = ideal_evaluator(table1)
        cost, grad = cost_and_gradient(table1, params, ev)
        assert cost == pytest.approx(0.0, abs=1e-12)
        assert np.abs(grad.d_gamma).max() < 1e-12

    def test_zero_point_gradient_zero(self, table1):
        grad = cost_and_gradient(table1, QaoaParams([0.0], [0.0]), ideal_evaluator(table1))[1]
        assert grad.norm() < 1e-12

    def test_sampled_evaluator_path(self, single_edge):
        channel = make_channel("depolarizing", 0.01)
        ev = sampled_evaluator(single_edge, channel, 800, np.random.default_rng(5))
        params = QaoaParams([0.5], [0.3])
        noisy = cost_and_gradient(single_edge, params, ev)[1].flat()
        exact = cost_and_gradient(
            single_edge, params, exact_noisy_evaluator(single_edge, channel)
        )[1].flat()
        assert np.abs(noisy - exact).max() < 0.25  # statistical agreement


class TestEvaluatorProtocol:
    """An evaluator is a callable from circuit to cost, with an optional
    adjoint method that cost_and_gradient prefers."""

    def test_adjoint_method_is_used_when_present(self, table1):
        class Fixed:
            def __call__(self, seq):
                raise AssertionError("the cost must come from adjoint")

            def adjoint(self, seq):
                return 1.5, np.array([2.0]), np.array([3.0])

        cost, grad = cost_and_gradient(table1, QaoaParams([0.1], [0.2]), Fixed())
        assert cost == 1.5 and grad.flat().tolist() == [2.0, 3.0]

    def test_callable_gets_cost_then_shifts_gate_by_gate(self, single_edge):
        # the generic path's call order fixes the order of a sampled
        # evaluator's draws: the cost, then + and - for each gate in turn
        seen = []

        def record(seq):
            seen.append(tuple(g.angle for g in seq.gates))
            return 0.0

        params = QaoaParams([0.5], [0.3])
        cost_and_gradient(single_edge, params, record)
        base = seen[0]
        assert base == tuple(g.angle for g in build_circuit(single_edge, params).gates)
        assert len(seen) == 1 + 2 * len(base)
        for idx in range(len(base)):
            plus, minus = seen[1 + 2 * idx], seen[2 + 2 * idx]
            moved = [k for k in range(len(base)) if plus[k] != base[k] or minus[k] != base[k]]
            assert moved == [idx] and plus[idx] > base[idx] > minus[idx]

    def test_exact_evaluators_answer_with_their_adjoint(self, table1):
        params = QaoaParams([0.2, -0.3], [0.1, 0.4])
        seq = build_circuit(table1, params)
        for ev in (ideal_evaluator(table1), exact_noisy_evaluator(table1, make_channel("dephasing", 0.02))):
            cost, d_gamma, d_beta = ev.adjoint(seq)
            got_cost, grad = cost_and_gradient(table1, params, ev)
            assert got_cost == cost
            assert np.array_equal(grad.d_gamma, d_gamma) and np.array_equal(grad.d_beta, d_beta)


class TestGradientDescent:
    def test_monotone_decrease_ideal(self, table1):
        init = QaoaParams([0.1], [0.1])
        trace = gradient_descent(table1, init, ideal_evaluator(table1), 0.02, 120)
        costs = trace.costs()
        assert np.all(np.diff(costs) <= 1e-9)
        assert costs[-1] < costs[0]

    def test_reaches_stationary_point(self, table1):
        init = random_init(1, np.random.default_rng(2))
        trace = gradient_descent(table1, init, ideal_evaluator(table1), 0.02, 600)
        assert trace.converged
        assert trace.iterations[-1].grad_norm < 1e-4

    def test_cost_bounded_by_ground_energy(self, table1):
        emin, _ = brute_force_ground(table1)
        init = random_init(2, np.random.default_rng(3))
        trace = gradient_descent(table1, init, ideal_evaluator(table1), 0.02, 200)
        assert trace.final_cost >= emin - 1e-10

    def test_deterministic(self, table1):
        init = random_init(1, np.random.default_rng(8))
        kw = dict(learning_rate=0.02, num_iters=50)
        a = gradient_descent(table1, init, ideal_evaluator(table1), **kw)
        b = gradient_descent(table1, init, ideal_evaluator(table1), **kw)
        assert np.array_equal(a.final_params.gamma, b.final_params.gamma)
        assert np.array_equal(a.final_params.beta, b.final_params.beta)
        assert a.costs().tolist() == b.costs().tolist()

    def test_full_budget_while_gradient_is_large(self, table1):
        init = QaoaParams([0.05], [0.05])
        trace = gradient_descent(table1, init, ideal_evaluator(table1), 0.02, 30)
        assert len(trace.iterations) == 31  # 30 updates + final iterate

    def test_early_stop_with_tol(self, table1):
        init = random_init(1, np.random.default_rng(2))
        trace = gradient_descent(table1, init, ideal_evaluator(table1), 0.02, 1000)
        assert len(trace.iterations) < 1001

    def test_rejects_bad_hyperparams(self, table1):
        init = QaoaParams([0.1], [0.1])
        with pytest.raises(ValueError):
            gradient_descent(table1, init, ideal_evaluator(table1), 0.0, 10)
        with pytest.raises(ValueError):
            gradient_descent(table1, init, ideal_evaluator(table1), 0.1, 0)

    def test_aborts_on_non_finite_cost(self, table1):
        def bad_evaluator(seq):
            return float("nan")

        with pytest.raises(SimulationError):
            gradient_descent(table1, QaoaParams([0.1], [0.1]), bad_evaluator, 0.1, 3)

    def test_noisy_descent_runs(self, single_edge):
        channel = make_channel("depolarizing", 0.01)
        init = random_init(1, np.random.default_rng(4))
        trace = gradient_descent(
            single_edge, init, exact_noisy_evaluator(single_edge, channel), 0.05, 100
        )
        assert trace.final_cost < 0.0


class TestInitAndDistance:
    def test_random_init_range(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_init(3, rng)
            assert np.all(np.abs(p.gamma) <= 0.01)
            assert np.all(np.abs(p.beta) <= 0.01)

    def test_random_init_rejects_bad_n(self):
        with pytest.raises(ValueError):
            random_init(0, np.random.default_rng(0))

    def test_distance_zero_on_equal(self):
        p = QaoaParams([0.3, 0.4], [0.5, 0.6])
        assert param_distance(p, p) == 0.0

    def test_distance_single_coordinate(self):
        # one coordinate off by d among 2n=2 parameters: RMS = d/sqrt(2)
        a = QaoaParams([0.0], [0.0])
        b = QaoaParams([0.6], [0.0])
        assert param_distance(a, b) == pytest.approx(0.6 / np.sqrt(2.0))

    def test_distance_uniform_offset(self):
        a = QaoaParams([0.0, 0.0], [0.0, 0.0])
        b = QaoaParams([0.2, 0.2], [0.2, 0.2])
        assert param_distance(a, b) == pytest.approx(0.2)

    def test_distance_length_mismatch(self):
        with pytest.raises(ValueError):
            param_distance(QaoaParams([0.1], [0.1]), QaoaParams([0.1, 0.2], [0.1, 0.2]))
