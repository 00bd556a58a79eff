"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 validation failure,
3 runtime/numeric failure. Diagnostics go to standard error.

Graphs are JSON objects {"nodes": m, "edges": [[i, j, weight], ...]};
the builtin name "table1" resolves to the bundled benchmark graph.
Results are written as a CSV plus a JSON metadata sidecar.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from ._version import __version__
from .experiments import (
    EXPERIMENTS,
    THREADS_ENV_VAR,
    ExperimentConfig,
    fit_decay,
)
from .gradopt import exact_noisy_evaluator, gradient_descent, ideal_evaluator, random_init
from .maxcut import WeightedGraph, brute_force_ground, table1_graph
from .noise import KINDS, make_channel, noise_grid, validate_cptp
from .statevector import SimulationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class GraphFormatError(ValueError):
    """Malformed or invalid graph document."""


def parse_graph(text: str) -> WeightedGraph:
    """Parse and validate a JSON graph document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise GraphFormatError("graph document must be a JSON object")
    unknown = set(doc) - {"nodes", "edges"}
    if unknown:
        raise GraphFormatError(f"unknown graph keys: {sorted(unknown)}")
    if "nodes" not in doc or "edges" not in doc:
        raise GraphFormatError('graph document needs "nodes" and "edges"')
    if not isinstance(doc["nodes"], int):
        raise GraphFormatError('"nodes" must be an integer')
    edges = []
    for idx, edge in enumerate(doc["edges"]):
        if not (isinstance(edge, list) and len(edge) == 3):
            raise GraphFormatError(f"edge {idx} must be a [i, j, weight] triple")
        edges.append(tuple(edge))
    try:
        return WeightedGraph(doc["nodes"], tuple(edges))
    except ValueError as exc:
        raise GraphFormatError(str(exc))


def serialize_graph(graph: WeightedGraph) -> str:
    doc = {"nodes": graph.num_nodes, "edges": [[i, j, w] for i, j, w in graph.edges]}
    return json.dumps(doc, indent=2) + "\n"


def load_graph(source: str) -> WeightedGraph:
    if source == "table1":
        return table1_graph()
    try:
        with open(source) as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphFormatError(f"cannot read graph file {source!r}: {exc}")
    return parse_graph(text)


# keys a run-config file may set, with the CLI argument each one backs
_CONFIG_KEYS = {
    "graph_source": "graph",
    "channel": "channel",
    "p_values": None,
    "steps": "steps",
    "shots": "shots",
    "seed": "seed",
    "mode": "mode",
    "learning_rate": "lr",
    "num_iters": "iters",
    "threads": "threads",
}


def parse_config(text: str) -> dict:
    """Parse a flat JSON run-config document; unknown keys are rejected."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise GraphFormatError("run config must be a JSON object")
    unknown = set(doc) - set(_CONFIG_KEYS)
    if unknown:
        raise GraphFormatError(f"unknown config keys: {sorted(unknown)}")
    return doc


# CLI defaults for settings a run-config file may override
_CLI_DEFAULTS = {
    "graph": "table1",
    "channel": "depolarizing",
    "steps": "1,2,3,4",
    "shots": 5000,
    "seed": 7,
    "mode": "exact",
    "lr": 0.02,
    "iters": 1000,
    "threads": None,
}


def _apply_config_file(args, parser) -> None:
    """Fill args from --config for settings left at their CLI defaults."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config) as fh:
            doc = parse_config(fh.read())
    except OSError as exc:
        raise GraphFormatError(f"cannot read config file {args.config!r}: {exc}")
    defaults = _CLI_DEFAULTS
    for key, value in doc.items():
        dest = _CONFIG_KEYS[key]
        if key == "p_values":
            if getattr(args, "p", None) is None and not args.grid:
                args.config_p_values = [float(p) for p in value]
            continue
        if key == "steps":
            value = ",".join(str(int(n)) for n in value) if isinstance(value, list) else str(value)
        if getattr(args, dest) == defaults.get(dest):
            setattr(args, dest, value)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_common(parser):
    parser.add_argument("--config", default=None,
                        help="JSON run-config file; explicit flags take precedence")
    parser.add_argument("--graph", default="table1", help="graph file path or 'table1'")
    parser.add_argument("--channel", default="depolarizing",
                        choices=[k for k in KINDS if k != "custom"])
    parser.add_argument("--p", type=float, default=None, help="single noise strength")
    parser.add_argument("--grid", action="store_true", help="use the 11-point strength grid")
    parser.add_argument("--steps", default="1,2,3,4", help="comma-separated step counts")
    parser.add_argument("--shots", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    parser.add_argument("--lr", type=float, default=0.02, help="gradient-descent learning rate")
    parser.add_argument("--iters", type=int, default=1000, help="gradient-descent iteration budget")
    parser.add_argument("--threads", type=int, default=None,
                        help=f"worker pool size (default: ${THREADS_ENV_VAR} or CPU count)")
    parser.add_argument("--out", default=None, help="output path prefix")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="noisyqaoa", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"noisyqaoa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_val = sub.add_parser("validate", help="CPTP and graph validation checks")
    _add_common(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_bf = sub.add_parser("brute-force", help="exhaustive Max-Cut ground search")
    p_bf.add_argument("graph_source", help="graph file path or 'table1'")
    p_bf.set_defaults(func=cmd_brute_force)

    p_opt = sub.add_parser("optimize", help="gradient-descent parameter optimization")
    _add_common(p_opt)
    p_opt.add_argument("--n", type=int, default=1, help="QAOA step count")
    p_opt.set_defaults(func=cmd_optimize)

    p_exp = sub.add_parser("experiment", help="run a batch experiment, write CSV + sidecar")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS))
    _add_common(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_fit = sub.add_parser("fit", help="decay-constant fit on an existing CSV")
    p_fit.add_argument("csv_path")
    p_fit.add_argument("--pcol", default="p")
    p_fit.add_argument("--ycol", default="y")
    p_fit.add_argument("--ncol", default="N")
    p_fit.set_defaults(func=cmd_fit)
    return parser


def _p_list(args) -> list[float]:
    if args.grid:
        return noise_grid()
    if args.p is not None:
        return [args.p]
    custom = getattr(args, "config_p_values", None)
    return custom if custom is not None else noise_grid()


def _steps(args) -> tuple:
    try:
        return tuple(int(tok) for tok in args.steps.split(",") if tok)
    except ValueError:
        raise GraphFormatError(f"bad --steps value {args.steps!r}")


def cmd_validate(args) -> int:
    graph = load_graph(args.graph)
    print(f"graph ok: {graph.num_nodes} nodes, {graph.num_edges} edges, "
          f"total weight {graph.total_weight():.4g}")
    failures = 0
    for p in _p_list(args):
        channel = make_channel(args.channel, p)
        ok, residual = validate_cptp(channel)
        status = "ok" if ok else "FAIL"
        print(f"channel {args.channel} p={p:.6g}: CPTP residual {residual:.3e} {status}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} CPTP check(s) failed", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_brute_force(args) -> int:
    graph = load_graph(args.graph_source)
    energy, optima = brute_force_ground(graph)
    print(f"minimum energy: {energy:.10g}")
    print(f"optimal assignments ({len(optima)}):")
    for bits in optima:
        zero_side = [q for q, b in enumerate(bits) if b == 0]
        one_side = [q for q, b in enumerate(bits) if b == 1]
        print(f"  {''.join(map(str, bits))}  partition {zero_side} | {one_side}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    graph = load_graph(args.graph)
    rng = np.random.default_rng(args.seed)
    init = random_init(args.n, rng)
    if args.p is not None and args.p > 0:
        evaluator = exact_noisy_evaluator(graph, make_channel(args.channel, args.p))
        label = f"noisy ({args.channel}, p={args.p})"
    else:
        evaluator = ideal_evaluator(graph)
        label = "ideal"
    trace = gradient_descent(graph, init, evaluator, args.lr, args.iters, grad_tol=1e-6)
    print(f"# {label} gradient descent, lr={args.lr}, n={args.n}")
    for it, rec in enumerate(trace.iterations):
        print(f"iter {it:4d}  cost {rec.cost:+.8f}  |grad| {rec.grad_norm:.3e}")
    final = trace.final_params
    print(f"converged: {trace.converged}")
    print(f"gamma: {final.gamma.tolist()}")
    print(f"beta:  {final.beta.tolist()}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = ExperimentConfig(
        graph_source=args.graph,
        channel=args.channel,
        p_values=tuple(_p_list(args)),
        steps=_steps(args),
        shots=args.shots,
        seed=args.seed,
        mode=args.mode,
        learning_rate=args.lr,
        num_iters=args.iters,
        threads=args.threads,
    )
    table = EXPERIMENTS[args.name](config)
    prefix = args.out or args.name
    csv_path, json_path = table.write_outputs(prefix)
    print(f"wrote {csv_path} ({len(table.rows)} rows) and {json_path}")
    return EXIT_OK


def cmd_fit(args) -> int:
    with open(args.csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise GraphFormatError(f"{args.csv_path} contains no data rows")
    for col in (args.pcol, args.ycol, args.ncol):
        if col not in rows[0]:
            raise GraphFormatError(f"column {col!r} not found in {args.csv_path}")
    points = [(float(r[args.pcol]), float(r[args.ycol])) for r in rows]
    gate_counts = np.array([float(r[args.ncol]) for r in rows])
    c, r2 = fit_decay(points, gate_counts)
    print(f"decay constant: {c:.6f}")
    print(f"r_squared: {r2:.6f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config_file(args, parser)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (GraphFormatError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SimulationError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
