"""Noisy-QAOA simulation laboratory.

A dense statevector / density-matrix simulator for QAOA on weighted
Max-Cut instances, with single-qubit Kraus noise channels, Monte-Carlo
trajectory sampling, parameter-shift gradients and batch experiment
drivers with exponential-decay fitting.
"""

from .statevector import (
    StateVector,
    DensityMatrix,
    SimulationError,
    plus_state,
    apply_gate,
    apply_kraus_exact,
    sample_kraus,
    pure_fidelity,
    measurement_probabilities,
)
from .noise import NoiseChannel, make_channel, custom_channel, validate_cptp, noise_grid
from .maxcut import (
    WeightedGraph,
    ProblemHamiltonian,
    problem_hamiltonian,
    energy_of_bitstring,
    exact_expectation,
    brute_force_ground,
    table1_graph,
)
from .qaoa import (
    QaoaParams,
    GateSequence,
    build_circuit,
    with_shifted_gate,
    run_ideal,
    run_exact_noisy,
    run_trajectory,
    trajectory_states,
    output_fidelity,
    cost_exact,
    cost_sampled,
)
from .gradopt import (
    Gradient,
    OptimizationTrace,
    ideal_evaluator,
    exact_noisy_evaluator,
    sampled_evaluator,
    cost_and_gradient,
    shifted_evaluation_gradient,
    finite_difference_gradient,
    gradient_descent,
    random_init,
    param_distance,
)
from .experiments import (
    ExperimentConfig,
    ResultTable,
    ci_cost,
    ci_gradient,
    fit_decay,
    landscape_argmin,
    run_fidelity_experiment,
    run_cost_experiment,
    run_gradient_experiment,
    run_optimization_experiment,
)

from ._version import __version__
