"""Batch experiment drivers: fidelity decay, cost flattening, gradient
scaling and optimization robustness, plus the worst-case confidence
interval calculators and the exponential-decay fitter.

All randomness flows from the master seed through named substreams, so
an identical config reproduces identical result rows. Grid cells of the
optimization experiment are independent and can run on a process pool.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
import warnings
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from numbers import Integral, Real

import numpy as np

from ._version import __version__
from .gradopt import (
    cost_and_gradient,
    exact_noisy_evaluator,
    gradient_descent,
    ideal_evaluator,
    param_distance,
    random_init,
    sampled_evaluator,
)
from .maxcut import WeightedGraph, load_graph as resolve_graph, problem_hamiltonian
from .noise import KINDS, make_channel, noise_grid
from .qaoa import QaoaParams, _fidelities, _landscape_row, build_circuit, cost_exact
from .statevector import SimulationError

THREADS_ENV_VAR = "NOISYQAOA_THREADS"

# substream tags for deriving per-purpose rng seeds from the master seed
_STREAM_FIDELITY = 101
_STREAM_INIT = 202
_STREAM_SAMPLED = 303


# the types of the ExperimentConfig settings other than the two lists
_SCALAR_TYPES = {
    "graph_source": (str, os.PathLike), "channel": str, "mode": str, "shots": Integral,
    "seed": Integral, "learning_rate": Real, "num_iters": Integral, "threads": (Integral, type(None)),
}


def _of_type(name: str, value, kind):
    """value if it is of the kind (a bool is no number), else a ValueError
    naming the setting: a wrong type in a run config is a validation
    failure, not a crash further down."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"setting {name} has a value of the wrong type: {value!r}")
    return value


def _entries(name: str, values, kind) -> tuple:
    """The entries of a list setting, each checked by _of_type."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise ValueError(f"setting {name} has a value of the wrong type: {values!r}")
    return tuple(_of_type(name, v, kind) for v in values)


@dataclass
class ExperimentConfig:
    """Settings shared by the four experiment drivers."""

    graph_source: str = "table1"
    channel: str = "depolarizing"
    p_values: tuple = field(default_factory=lambda: tuple(noise_grid()))
    steps: tuple = (1, 2, 3, 4)
    shots: int = 5000
    seed: int = 7
    mode: str = "exact"  # "exact" (density matrix) | "sampled" (trajectories)
    learning_rate: float = 0.02
    num_iters: int = 1000
    threads: int | None = None

    def __post_init__(self):
        for name, kind in _SCALAR_TYPES.items():
            _of_type(name, getattr(self, name), kind)
        self.graph_source = os.fspath(self.graph_source)
        self.p_values = tuple(float(p) for p in _entries("p_values", self.p_values, Real))
        self.steps = tuple(int(n) for n in _entries("steps", self.steps, Integral))
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if any(not 0.0 <= p <= 1.0 for p in self.p_values):
            raise ValueError("noise strengths must lie in [0, 1]")
        if any(n < 1 for n in self.steps):
            raise ValueError("step counts must be >= 1")
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"unknown evaluator mode {self.mode!r}")
        if self.channel not in KINDS:
            raise ValueError(f"unknown channel kind {self.channel!r}")
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"threads must be >= 1, not {self.threads}")

    def worker_count(self) -> int:
        """threads, else a non-empty $NOISYQAOA_THREADS, else min(CPU count, 8)."""
        if self.threads is not None:
            return self.threads
        env = os.environ.get(THREADS_ENV_VAR)
        if env:
            if not env.isdecimal() or int(env) < 1:
                raise ValueError(f"{THREADS_ENV_VAR} must be a positive integer, not {env!r}")
            return int(env)
        return min(os.cpu_count() or 1, 8)


@dataclass(eq=False)
class ResultTable:
    """Named columns, data rows, and a metadata dict (config echo, seed,
    fitted constants and residuals)."""

    columns: tuple
    rows: list
    metadata: dict

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([_csv_cell(v) for v in row])

    def write_outputs(self, prefix) -> tuple[str, str]:
        """Write <prefix>.csv and the <prefix>.json metadata sidecar. The
        sidecar is encoded before either file is opened, so a value that
        JSON cannot hold leaves no file behind."""
        csv_path, json_path = f"{prefix}.csv", f"{prefix}.json"
        sidecar = dict(self.metadata)
        sidecar["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        text = json.dumps(sidecar, indent=2, sort_keys=True, default=_jsonify)
        self.to_csv(csv_path)
        with open(json_path, "w") as fh:
            fh.write(text + "\n")
        return csv_path, json_path


def _csv_cell(v):
    if isinstance(v, float):
        return repr(v)
    return v


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _sum_sq_weights(graph: WeightedGraph) -> float:
    return float(sum(w * w for _, _, w in graph.edges))


def ci_cost(shots: int, graph: WeightedGraph) -> float:
    """About a 95% half-width for the sampled cost: 2 sigma_max, with
    sigma_max = sqrt(sum_ij C_ij^2 / M) the estimate's worst-case
    standard deviation (a term's per-shot variance 4q(1-q) is at most 1)."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    return 2.0 * math.sqrt(_sum_sq_weights(graph) / shots)


def ci_gradient(shots: int, graph: WeightedGraph, m: int) -> tuple[float, float]:
    """The worst-case CI values (L_gamma, L_beta) for sampled derivatives.

    Implements the printed formulas verbatim:
    L_gamma = 2 sqrt(2/M) sum C_ij^2 (sum outside the root), and
    L_beta = 2 sqrt(2 m sum C_ij^2 / M). L_gamma / 2 and L_beta / 2 are
    exactly the worst-case standard deviations of the shift-rule gamma
    and beta derivatives, so each value, like ci_cost, is about a 95%
    half-width. L_gamma reproduces the reference value 0.130 at
    M = 5000; L_beta evaluates to 0.1906 against a reported 0.186.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    ssq = _sum_sq_weights(graph)
    l_gamma = 2.0 * math.sqrt(2.0 / shots) * ssq
    l_beta = 2.0 * math.sqrt(2.0 * m * ssq / shots)
    return l_gamma, l_beta


def fit_decay(points, gate_count) -> tuple[float, float]:
    """Least-squares fit of ln y = c * N * ln(1 - p), through the origin.

    points is an iterable of (p, y); gate_count may be a scalar N or a
    per-point array. Non-positive y values are dropped with a warning.
    Returns (c, R^2), with R^2 measured against the mean of ln y.
    """
    pts = [(float(p), float(y)) for p, y in points]
    N = np.broadcast_to(np.asarray(gate_count, dtype=float), (len(pts),))
    keep = [k for k, (_, y) in enumerate(pts) if y > 0.0]
    if len(keep) < len(pts):
        warnings.warn(f"fit_decay dropped {len(pts) - len(keep)} non-positive points")
    if len(keep) < 2:
        raise ValueError("fit_decay needs at least 2 points with y > 0")
    p = np.array([pts[k][0] for k in keep])
    y = np.array([pts[k][1] for k in keep])
    if np.any(p >= 1.0):
        raise ValueError("fit_decay requires p < 1")
    x = N[keep] * np.log1p(-p)
    ly = np.log(y)
    denom = float((x * x).sum())
    c = float((x * ly).sum() / denom) if denom > 0 else 0.0
    resid = ly - c * x
    ss_res = float((resid * resid).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    if ss_tot > 0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res < 1e-20 else 0.0
    return c, r2


def landscape_argmin(
    graph: WeightedGraph,
    channel=None,
    gammas=None,
    betas=None,
) -> tuple[int, int, float]:
    """Grid argmin of the n=1 cost landscape over a (gamma, beta) slice.

    Returns (gamma index, beta index, cost) of the minimum cell: the first
    strict minimum in row-major order (gamma outer), so a tie keeps the
    earlier cell. Default slice: 21 points each over [0, 1] (an
    asymmetric window, since (gamma, beta) -> (-gamma, -beta) leaves the
    cost invariant and would make the argmin cell degenerate on a
    symmetric window). An empty axis is a ValueError. Each cell's cost
    equals cost_exact's bit for bit; under a Pauli channel the cells of
    one gamma row share one cone sweep of the edge layer and each runs
    only its mixers (see qaoa), while the ideal landscape and other
    channels run cell by cell.
    """
    if gammas is None:
        gammas = np.linspace(0.0, 1.0, 21)
    if betas is None:
        betas = np.linspace(0.0, 1.0, 21)
    for name, axis in (("gamma", gammas), ("beta", betas)):
        if len(axis) == 0:
            raise ValueError(f"the landscape's {name} axis is empty")
    h = problem_hamiltonian(graph)
    best = None
    for ig, gamma in enumerate(gammas):
        for ib, c in enumerate(_landscape_row(graph, h, channel, gamma, betas)):
            if best is None or c < best[2]:
                best = (ig, ib, c)
    return best


def _base_metadata(config: ExperimentConfig, experiment: str) -> dict:
    return {
        "experiment": experiment,
        "config": asdict(config),
        "seed": config.seed,
        "tool_version": __version__,
    }


def _noisy_evaluator(graph: WeightedGraph, kind: str, p: float, mode: str, shots: int,
                     seed: int, *tail):
    """The mode's noisy cost evaluator at strength p: exact, or sampled
    from the substream (seed, _STREAM_SAMPLED, *tail)."""
    channel = make_channel(kind, p)
    if mode == "sampled":
        return sampled_evaluator(graph, channel, shots, np.random.default_rng([seed, _STREAM_SAMPLED, *tail]))
    return exact_noisy_evaluator(graph, channel)


def _ideal_descent(config: ExperimentConfig, graph: WeightedGraph, n: int) -> tuple:
    """The ideal descent at step count n from the init seeded by the
    master seed, as (init, trace); the cost, gradient and optimization
    experiments all start from it."""
    init = random_init(n, np.random.default_rng([config.seed, _STREAM_INIT, n]))
    return init, gradient_descent(graph, init, ideal_evaluator(graph), config.learning_rate, config.num_iters)


def ideal_optimized_params(config: ExperimentConfig, graph: WeightedGraph | None = None) -> dict:
    """Ideal gradient-descent optimum per step count n, seeded from the
    master seed; shared by the cost and optimization experiments."""
    if graph is None:
        graph = resolve_graph(config.graph_source)
    return {n: _ideal_descent(config, graph, n)[1].final_params for n in config.steps}


def _one_process(config: ExperimentConfig, experiment: str) -> None:
    """Reject an explicit threads above 1 for a driver that runs on one
    process, so the setting is not silently ignored."""
    if config.threads is not None and config.threads > 1:
        raise ValueError(f"the {experiment} experiment runs on one process; setting threads={config.threads} is not read")


def run_fidelity_experiment(config: ExperimentConfig) -> ResultTable:
    """Output-state fidelity F = <ideal|rho_noisy|ideal> over the (p, n) grid.

    Circuit parameters are drawn once per n from the master seed
    (uniform on [-pi, pi]) and echoed in the metadata. The fidelity is
    read from the exact noisy and ideal Pauli coefficients, so sampled
    mode is rejected. It runs on one process, so an explicit threads
    above 1 is rejected too.
    """
    if config.mode != "exact":
        raise ValueError(f"the fidelity experiment runs in exact mode only, not mode {config.mode!r}")
    _one_process(config, "fidelity")
    graph = resolve_graph(config.graph_source)
    m, E = graph.num_nodes, graph.num_edges
    rng = np.random.default_rng([config.seed, _STREAM_FIDELITY])
    rows = []
    params_echo = {}
    fits = {}
    pooled = []
    for n in config.steps:
        params = QaoaParams(rng.uniform(-math.pi, math.pi, n), rng.uniform(-math.pi, math.pi, n))
        params_echo[n] = {"gamma": params.gamma, "beta": params.beta}
        circuit = build_circuit(graph, params)
        N = n * (E + m)
        series = []
        for p, F in zip(config.p_values, _fidelities(circuit, config.channel, config.p_values)):
            rows.append((p, n, N, F))
            series.append((p, F))
            pooled.append((p, F, N))
        if len(series) >= 2:
            delta, r2 = fit_decay(series, N)
            fits[n] = {"delta": delta, "r_squared": r2}
    if len(pooled) >= 2:
        c_pool, r2_pool = fit_decay(
            [(p, F) for p, F, _ in pooled], np.array([N for _, _, N in pooled])
        )
        fit_pooled = {"delta": c_pool, "r_squared": r2_pool}
    else:
        fit_pooled = None
    meta = _base_metadata(config, "fidelity")
    meta.update(
        {
            "params": params_echo,
            "fit_per_n": fits,
            "fit_pooled": fit_pooled,
            "columns": {
                "p": "noise channel strength",
                "n": "QAOA step count",
                "N": "compiled gate count n*(E+m)",
                "fidelity": "overlap of the exact-noisy state with the ideal output",
            },
        }
    )
    return ResultTable(tuple(meta["columns"]), rows, meta)


def run_cost_experiment(config: ExperimentConfig) -> ResultTable:
    """Noisy/ideal cost ratio y at the ideal-optimized parameters.

    In sampled mode each noisy cost carries ci_half = ci_cost / 2, one
    worst-case standard deviation of the estimate. Rows where the ideal
    cost is numerically zero are flagged (y undefined). It runs on one
    process, so an explicit threads above 1 is rejected.
    """
    _one_process(config, "cost")
    graph = resolve_graph(config.graph_source)
    h = problem_hamiltonian(graph)
    m, E = graph.num_nodes, graph.num_edges
    params_by_n = ideal_optimized_params(config, graph)
    rows = []
    fits = {}
    intercepts = {}
    half_width = 0.5 * ci_cost(config.shots, graph)
    ci_half = half_width if config.mode == "sampled" else 0.0
    for n in config.steps:
        params = params_by_n[n]
        circuit = build_circuit(graph, params)
        f_ideal = cost_exact(circuit, h)
        N = n * (E + m)
        series = []
        for p_idx, p in enumerate(config.p_values):
            f_noise = _noisy_evaluator(graph, config.channel, p, config.mode, config.shots,
                                       config.seed, n, p_idx)(circuit)
            valid = abs(f_ideal) > 1e-9
            y = f_noise / f_ideal if valid else math.nan
            rows.append((p, n, N, f_noise, f_ideal, y, int(valid), ci_half))
            if valid:
                series.append((p, y))
        if len(series) >= 2 and all(y > 0 for _, y in series):
            alpha, r2 = fit_decay(series, N)
            # free-intercept regression of f_noise against the fitted model,
            # to check consistency with the zero trace of H_p
            model = np.array([(1.0 - p) ** (alpha * N) * f_ideal for p, _ in series])
            data = np.array([y * f_ideal for _, y in series])
            A = np.vstack([model, np.ones_like(model)]).T
            (slope, intercept), *_ = np.linalg.lstsq(A, data, rcond=None)
            fits[n] = {"alpha": alpha, "r_squared": r2}
            intercepts[n] = {"intercept": float(intercept), "slope": float(slope)}
    meta = _base_metadata(config, "cost")
    meta.update(
        {
            "fit_per_n": fits,
            "intercept_check": intercepts,
            "ci_cost_half_width": half_width,
            "columns": {
                "p": "noise channel strength",
                "n": "QAOA step count",
                "N": "compiled gate count n*(E+m)",
                "f_noise": "noisy cost",
                "f_ideal": "ideal cost at the same parameters",
                "y": "f_noise / f_ideal (nan when flagged invalid)",
                "y_valid": "1 unless the ideal cost is numerically zero",
                "ci_half": "one worst-case standard deviation, ci_cost / 2 (sampled mode only)",
            },
        }
    )
    return ResultTable(tuple(meta["columns"]), rows, meta)


def max_gradient_params(config: ExperimentConfig, graph: WeightedGraph, n: int) -> QaoaParams:
    """The iterate with maximum gradient norm along the ideal descent."""
    _, trace = _ideal_descent(config, graph, n)
    return max(trace.iterations, key=lambda rec: rec.grad_norm).params


def run_gradient_experiment(
    config: ExperimentConfig, params: QaoaParams | None = None
) -> ResultTable:
    """Noisy/ideal derivative ratios for every parameter across the p grid.

    Parameters default to the maximum-gradient iterate of the ideal
    descent at the largest configured n. Parameters whose ideal
    derivative magnitude is below one worst-case standard deviation of
    its sampled estimate (L_gamma / 2 or L_beta / 2 of ci_gradient) are
    flagged statistically unreliable in the metadata. It runs on one
    process, so an explicit threads above 1 is rejected.
    """
    _one_process(config, "gradient")
    graph = resolve_graph(config.graph_source)
    m, E = graph.num_nodes, graph.num_edges
    if params is None:
        params = max_gradient_params(config, graph, max(config.steps))
    n = params.n
    N = n * (E + m)
    ideal_grad = cost_and_gradient(graph, params, ideal_evaluator(graph))[1]
    param_ids = [f"gamma{k}" for k in range(n)] + [f"beta{k}" for k in range(n)]
    ideal_flat = ideal_grad.flat()
    l_gamma, l_beta = ci_gradient(config.shots, graph, m)
    half_widths = np.concatenate([np.full(n, l_gamma / 2.0), np.full(n, l_beta / 2.0)])
    unreliable = [pid for pid, d, hw in zip(param_ids, ideal_flat, half_widths) if abs(d) < hw]
    rows = []
    cosines = {}
    ratios_by_param = {pid: [] for pid in param_ids}
    for p_idx, p in enumerate(config.p_values):
        evaluator = _noisy_evaluator(graph, config.channel, p, config.mode, config.shots, config.seed, p_idx)
        noisy_flat = cost_and_gradient(graph, params, evaluator)[1].flat()
        denom = float(np.linalg.norm(ideal_flat) * np.linalg.norm(noisy_flat))
        cosines[p] = float(ideal_flat @ noisy_flat / denom) if denom > 0 else math.nan
        for pid, di, dn in zip(param_ids, ideal_flat, noisy_flat):
            ratio = dn / di if di != 0.0 else math.nan
            rows.append((p, pid, float(di), float(dn), float(ratio)))
            ratios_by_param[pid].append((p, ratio))
    fits = {}
    for pid in param_ids:
        pts = [(p, r) for p, r in ratios_by_param[pid] if math.isfinite(r) and r > 0]
        if len(pts) >= 2:
            alpha, r2 = fit_decay(pts, N)
            fits[pid] = {"alpha": alpha, "r_squared": r2}
    meta = _base_metadata(config, "gradient")
    meta.update(
        {
            "n": n,
            "N": N,
            "params": {"gamma": params.gamma, "beta": params.beta},
            "fit_per_param": fits,
            "cosine_similarity": cosines,
            "unreliable_params": unreliable,
            "ci_gradient": {"L_gamma": l_gamma, "L_beta": l_beta},
            "columns": {
                "p": "noise channel strength",
                "param": "parameter identifier",
                "d_ideal": "ideal derivative",
                "d_noise": "noisy derivative",
                "ratio": "d_noise / d_ideal",
            },
        }
    )
    return ResultTable(tuple(meta["columns"]), rows, meta)


def _optimization_cell(args) -> tuple:
    """One noisy descent for a (n, p) grid cell (process-pool worker). A
    SimulationError is raised again with the cell's n, p and mode."""
    graph, channel_kind, p, init_gamma, init_beta, lr, iters, mode, shots, seed, n_idx, p_idx = args
    init = QaoaParams(np.asarray(init_gamma), np.asarray(init_beta))
    evaluator = _noisy_evaluator(graph, channel_kind, p, mode, shots, seed, n_idx, p_idx)
    try:
        trace = gradient_descent(graph, init, evaluator, lr, iters)
    except SimulationError as exc:
        raise SimulationError(f"optimization cell n={init.n}, p={p!r}, mode={mode}: {exc}") from exc
    return trace.final_params.gamma, trace.final_params.beta, trace.final_cost


def run_optimization_experiment(config: ExperimentConfig) -> ResultTable:
    """Distance between noisy- and ideal-optimized parameters per (p, n).

    Both descents share the init, learning rate and iteration budget. At
    p = 0 the channel is the identity, so the noisy descent is the ideal
    one and the distance is exactly zero. Rows satisfying N*p < 0.5 are
    marked in scope.
    """
    graph = resolve_graph(config.graph_source)
    workers = config.worker_count()
    m, E = graph.num_nodes, graph.num_edges
    ideal_traces = {}
    jobs = []
    for n_idx, n in enumerate(config.steps):
        init, ideal_traces[n] = _ideal_descent(config, graph, n)
        for p_idx, p in enumerate(config.p_values):
            if p == 0.0:
                continue
            jobs.append(
                (
                    graph, config.channel, p,
                    tuple(init.gamma), tuple(init.beta),
                    config.learning_rate, config.num_iters,
                    config.mode, config.shots, config.seed, n_idx, p_idx,
                )
            )
    # largest n first, so that the pool does not end on one slow cell
    jobs.sort(key=lambda job: -config.steps[job[10]])
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_optimization_cell, jobs))
    else:
        results = [_optimization_cell(job) for job in jobs]
    by_cell = {(job[10], job[11]): res for job, res in zip(jobs, results)}
    rows = []
    for n_idx, n in enumerate(config.steps):
        ideal_trace = ideal_traces[n]
        ideal_params = ideal_trace.final_params
        N = n * (E + m)
        for p_idx, p in enumerate(config.p_values):
            if p == 0.0:
                noisy_params, noisy_cost = ideal_params, ideal_trace.final_cost
            else:
                g, b, noisy_cost = by_cell[(n_idx, p_idx)]
                noisy_params = QaoaParams(g, b)
            dist = param_distance(noisy_params, ideal_params)
            np_product = N * p
            rows.append(
                (p, n, N, np_product, dist, ideal_trace.final_cost, noisy_cost,
                 int(np_product < 0.5))
            )
    meta = _base_metadata(config, "optimization")
    meta.update(
        {
            "ideal_optima": {
                n: {"gamma": tr.final_params.gamma, "beta": tr.final_params.beta,
                    "cost": tr.final_cost, "converged": tr.converged}
                for n, tr in ideal_traces.items()
            },
            "columns": {
                "p": "noise channel strength",
                "n": "QAOA step count",
                "N": "compiled gate count n*(E+m)",
                "Np": "N * p (scope filter quantity)",
                "distance": "RMS distance between noisy and ideal optima",
                "ideal_cost": "final ideal-descent cost",
                "noisy_cost": "final noisy-descent cost",
                "in_scope": "1 when N*p < 0.5",
            },
        }
    )
    return ResultTable(tuple(meta["columns"]), rows, meta)


EXPERIMENTS = {
    "fidelity": run_fidelity_experiment,
    "cost": run_cost_experiment,
    "gradient": run_gradient_experiment,
    "optimization": run_optimization_experiment,
}
