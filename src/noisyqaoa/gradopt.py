"""Evaluators, shift-rule gradients, vanilla gradient descent, and the
optimized-parameter distance metric.

The shift rule is per-gate: each parameter's derivative is a sum over
the gates depending on it, each contributing a scaled difference of
cost evaluations with only that gate's angle shifted. For an edge gate
exp(-i gamma C ZZ) the exact rule is C * [f(+pi/(4C)) - f(-pi/(4C))];
for a mixer gate exp(+i beta X) it is f(+pi/4) - f(-pi/4). Both follow
from d/dtheta <H> = [<H>(theta + pi/4) - <H>(theta - pi/4)] for any
involutory generator; the tests check them against central finite
differences of a dense oracle (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .maxcut import WeightedGraph, problem_hamiltonian
from .noise import NoiseChannel
from .qaoa import (
    GateSequence,
    QaoaParams,
    _cone_work,
    adjoint_gradient_ideal,
    adjoint_gradient_noisy,
    build_circuit,
    cost_exact,
    cost_sampled,
    with_shifted_gate,
)
from .statevector import SimulationError

# An evaluator maps a circuit to its cost; one with an adjoint(circuit)
# method, returning (cost, d_gamma, d_beta), gives its gradient from that.
# Not typing.Callable: typing's cache of subscripted aliases kept every
# imported copy of this package alive, with its module-level caches
Evaluator = Callable[[GateSequence], float]


@dataclass(frozen=True, eq=False)
class Gradient:
    """Cost derivatives with respect to gamma and beta (energy/radian)."""

    d_gamma: np.ndarray
    d_beta: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.d_gamma, dtype=float)
        b = np.asarray(self.d_beta, dtype=float)
        if g.shape != b.shape or g.ndim != 1:
            raise ValueError("gradient components must be equal-length vectors")
        object.__setattr__(self, "d_gamma", g)
        object.__setattr__(self, "d_beta", b)

    def norm(self) -> float:
        return float(np.sqrt((self.d_gamma ** 2).sum() + (self.d_beta ** 2).sum()))

    def flat(self) -> np.ndarray:
        return np.concatenate([self.d_gamma, self.d_beta])

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.d_gamma).all() and np.isfinite(self.d_beta).all())


class IterationRecord(NamedTuple):
    params: QaoaParams
    cost: float
    grad_norm: float


@dataclass
class OptimizationTrace:
    """Per-iteration record of a gradient-descent run."""

    iterations: list
    learning_rate: float
    converged: bool

    @property
    def final_params(self) -> QaoaParams:
        return self.iterations[-1].params

    @property
    def final_cost(self) -> float:
        return self.iterations[-1].cost

    def costs(self) -> np.ndarray:
        return np.array([rec.cost for rec in self.iterations])


class IdealEvaluator:
    """Exact noiseless cost of a circuit on this graph's Hamiltonian."""

    def __init__(self, graph: WeightedGraph):
        self.hamiltonian = problem_hamiltonian(graph)

    def __call__(self, seq: GateSequence) -> float:
        return cost_exact(seq, self.hamiltonian)

    def adjoint(self, seq: GateSequence) -> tuple[float, np.ndarray, np.ndarray]:
        """(cost, d_gamma, d_beta) from one pure-state adjoint sweep."""
        return adjoint_gradient_ideal(seq, self.hamiltonian)


class ExactNoisyEvaluator:
    """Exact density-matrix noisy cost."""

    def __init__(self, graph: WeightedGraph, channel: NoiseChannel):
        self.channel = channel
        self.hamiltonian = problem_hamiltonian(graph)
        self._kept = (None, None)  # the last layout and its qaoa._cone_work

    def __call__(self, seq: GateSequence) -> float:
        return cost_exact(seq, self.hamiltonian, self.channel)

    def adjoint(self, seq: GateSequence) -> tuple[float, np.ndarray, np.ndarray]:
        """(cost, d_gamma, d_beta) from one Pauli-transfer adjoint sweep.
        The cone work of the last layout (its plan, the channel's scales on
        the cone and the sigma stack) is kept, so a descent builds it once."""
        layout, work = self._kept
        if layout is not seq.layout:
            work = _cone_work(seq.layout, self.hamiltonian, self.channel)
            self._kept = (seq.layout, work)
        return adjoint_gradient_noisy(seq, self.hamiltonian, self.channel, work)


ideal_evaluator = IdealEvaluator
exact_noisy_evaluator = ExactNoisyEvaluator


def sampled_evaluator(graph: WeightedGraph, channel: NoiseChannel, shots: int, rng) -> Evaluator:
    """Shot-based trajectory cost estimate; every call draws from rng."""
    h = problem_hamiltonian(graph)
    return lambda seq: cost_sampled(seq, h, channel, shots, rng)[0]


def _shifted_gradient(seq: GateSequence, n: int, evaluator: Evaluator) -> Gradient:
    """The per-gate shift-rule sum over the gates of seq, a + then a -
    shifted evaluation per gate, in gate order. A mixer is the weight-1
    case of the edge rule C * [f(+pi/(4C)) - f(-pi/(4C))]."""
    grads = {"gamma": np.zeros(n), "beta": np.zeros(n)}
    for idx, gate in enumerate(seq.gates):
        shift = math.pi / (4.0 * gate.weight)
        f_plus = evaluator(with_shifted_gate(seq, idx, +shift))
        f_minus = evaluator(with_shifted_gate(seq, idx, -shift))
        grads[gate.param][gate.step] += gate.weight * (f_plus - f_minus)
    return Gradient(grads["gamma"], grads["beta"])


def cost_and_gradient(
    graph: WeightedGraph, params: QaoaParams, evaluator: Evaluator
) -> tuple[float, Gradient]:
    """Cost and per-gate shift-rule gradient under the evaluator.

    An evaluator with an `adjoint` method (the two exact ones) answers
    both from one forward/backward sweep; this equals the shifted-
    evaluation sum exactly (the generators are involutory, so the
    angle-shift difference is the analytic derivative) at O(N) instead
    of O(N^2) gate cost. Any other evaluator, a sampled one or a plain
    callable, gives the cost and then 2N shifted evaluations.
    """
    seq = build_circuit(graph, params)
    adjoint = getattr(evaluator, "adjoint", None)
    if adjoint is not None:
        cost, dg, db = adjoint(seq)
        return cost, Gradient(dg, db)
    cost = evaluator(seq)
    return cost, _shifted_gradient(seq, params.n, evaluator)


def gradient_descent(
    graph: WeightedGraph,
    init: QaoaParams,
    evaluator: Evaluator,
    learning_rate: float,
    num_iters: int,
) -> OptimizationTrace:
    """Vanilla gradient descent: theta <- theta - lr * grad f.

    Runs for num_iters updates, stopping early once the gradient norm
    falls below 1e-6. The converged flag reports whether the final
    gradient norm is below 1e-4.
    """
    if learning_rate <= 0:
        raise ValueError("learning rate must be positive")
    if num_iters < 1:
        raise ValueError("need at least one iteration")
    params = init
    records = []
    grad_norm = math.inf
    for _ in range(num_iters):
        cost, grad = cost_and_gradient(graph, params, evaluator)
        if not (math.isfinite(cost) and grad.is_finite()):
            raise SimulationError(
                f"non-finite cost ({cost}) or gradient at gamma={params.gamma}, beta={params.beta}"
            )
        grad_norm = grad.norm()
        records.append(IterationRecord(params, cost, grad_norm))
        if grad_norm < 1e-6:
            break
        params = QaoaParams(
            params.gamma - learning_rate * grad.d_gamma,
            params.beta - learning_rate * grad.d_beta,
        )
    if records[-1].params is not params:
        cost, grad = cost_and_gradient(graph, params, evaluator)
        grad_norm = grad.norm()
        records.append(IterationRecord(params, cost, grad_norm))
    return OptimizationTrace(records, learning_rate, grad_norm < 1e-4)


def random_init(n: int, rng) -> QaoaParams:
    """2n i.i.d. uniform draws on [-0.01, 0.01]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return QaoaParams(rng.uniform(-0.01, 0.01, n), rng.uniform(-0.01, 0.01, n))


def param_distance(a: QaoaParams, b: QaoaParams) -> float:
    """Root mean square of the Euclidean gap over all 2n parameters."""
    if a.n != b.n:
        raise ValueError("parameter vectors differ in length")
    sq = ((a.gamma - b.gamma) ** 2).sum() + ((a.beta - b.beta) ** 2).sum()
    return float(np.sqrt(sq / (2.0 * a.n)))
