"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 validation failure,
3 runtime/numeric failure. Diagnostics go to standard error.

Graphs are JSON objects {"nodes": m, "edges": [[i, j, weight], ...]};
the builtin name "table1" resolves to the bundled benchmark graph.
Each run setting is taken from its explicit flag, else from the --config
file, whose keys are the ExperimentConfig fields, else from the
ExperimentConfig default. Results are written as a CSV plus a JSON
metadata sidecar.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields

import numpy as np

from ._version import __version__
from .experiments import (
    EXPERIMENTS,
    THREADS_ENV_VAR,
    ExperimentConfig,
    fit_decay,
)
from .gradopt import exact_noisy_evaluator, gradient_descent, ideal_evaluator, random_init
from .maxcut import (  # parse_graph and serialize_graph are re-exported
    GraphFormatError,
    _json_object,
    brute_force_ground,
    load_graph,
    parse_graph,  # noqa: F401
    serialize_graph,  # noqa: F401
)
from .noise import KINDS, make_channel, noise_grid, validate_cptp
from .statevector import SimulationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

_CONFIG_FIELDS = tuple(f.name for f in fields(ExperimentConfig))


def parse_config(text: str) -> dict:
    """Parse a flat JSON run-config document; unknown keys are rejected."""
    return _json_object(text, _CONFIG_FIELDS, "run config", "config")


def _merge_settings(args) -> None:
    """Set args.settings, the run's ExperimentConfig: each field from its
    explicit flag, else from the --config file, else the dataclass
    default; args.config_keys holds the keys the file set. Commands
    without the run flags are left alone."""
    if not hasattr(args, "config"):
        return
    settings = {}
    if args.config:
        try:
            with open(args.config) as fh:
                settings = parse_config(fh.read())
        except OSError as exc:
            raise GraphFormatError(f"cannot read config file {args.config!r}: {exc}")
    args.config_keys = frozenset(settings)
    if getattr(args, "grid", False):
        args.p_values = noise_grid()
    elif args.p is not None:
        args.p_values = [args.p]
    settings |= {name: getattr(args, name) for name in _CONFIG_FIELDS if getattr(args, name, None) is not None}
    if "steps" in settings:
        settings["steps"] = _steps(settings["steps"])
    args.settings = ExperimentConfig(**settings)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_common(parser, grid=False, descent=False, batch=False):
    """The run flags a command reads: the graph and the noise always,
    the strength grid, the descent settings and the batch settings on
    request."""
    parser.add_argument("--config", default=None,
                        help="JSON run-config file; explicit flags take precedence")
    # run settings default to None so that _merge_settings can tell an
    # explicit flag from an unset one; the defaults are ExperimentConfig's
    parser.add_argument("--graph", dest="graph_source", help="graph file path or 'table1'")
    parser.add_argument("--channel", choices=KINDS)
    parser.add_argument("--p", type=float, default=None, help="single noise strength")
    if grid:
        parser.add_argument("--grid", action="store_true", help="use the 11-point strength grid")
    if descent:
        parser.add_argument("--seed", type=int)
        parser.add_argument("--lr", dest="learning_rate", type=float, help="gradient-descent learning rate")
        parser.add_argument("--iters", dest="num_iters", type=int, help="gradient-descent iteration budget")
    if batch:
        parser.add_argument("--steps", help="comma-separated step counts")
        parser.add_argument("--shots", type=int)
        parser.add_argument("--mode", choices=("exact", "sampled"))
        parser.add_argument("--threads", type=int,
                            help=f"worker pool size (default: ${THREADS_ENV_VAR} or min(CPU count, 8))")
        parser.add_argument("--out", default=None, help="output path prefix")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="noisyqaoa", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"noisyqaoa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_val = sub.add_parser("validate", help="CPTP and graph validation checks")
    _add_common(p_val, grid=True)
    p_val.set_defaults(func=cmd_validate)

    p_bf = sub.add_parser("brute-force", help="exhaustive Max-Cut ground search")
    p_bf.add_argument("graph_source", help="graph file path or 'table1'")
    p_bf.set_defaults(func=cmd_brute_force)

    p_opt = sub.add_parser("optimize", help="gradient-descent parameter optimization")
    _add_common(p_opt, descent=True)
    p_opt.add_argument("--n", type=int, default=1, help="QAOA step count")
    p_opt.set_defaults(func=cmd_optimize)

    p_exp = sub.add_parser("experiment", help="run a batch experiment, write CSV + sidecar")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS))
    _add_common(p_exp, grid=True, descent=True, batch=True)
    p_exp.set_defaults(func=cmd_experiment)

    p_fit = sub.add_parser("fit", help="decay-constant fit on an existing CSV")
    p_fit.add_argument("csv_path")
    p_fit.add_argument("--pcol", default="p")
    p_fit.add_argument("--ycol", default="y")
    p_fit.add_argument("--ncol", default="N")
    p_fit.set_defaults(func=cmd_fit)
    return parser


def _steps(value):
    """Step counts from a comma-separated string; any other value is
    left to ExperimentConfig's type check."""
    if not isinstance(value, str):
        return value
    try:
        return tuple(int(tok) for tok in value.split(",") if tok != "")
    except ValueError:
        raise GraphFormatError(f"bad steps value {value!r}")


def cmd_validate(args) -> int:
    settings = args.settings
    graph = load_graph(settings.graph_source)
    print(f"graph ok: {graph.num_nodes} nodes, {graph.num_edges} edges, "
          f"total weight {graph.total_weight():.4g}")
    failures = 0
    for p in settings.p_values:
        channel = make_channel(settings.channel, p)
        ok, residual = validate_cptp(channel)
        status = "ok" if ok else "FAIL"
        print(f"channel {settings.channel} p={p:.6g}: CPTP residual {residual:.3e} {status}")
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
    settings = args.settings
    if settings.mode != "exact":
        raise GraphFormatError(f"optimize runs the exact evaluator only, not mode {settings.mode!r}")
    unread = sorted(args.config_keys & {"steps", "shots", "threads"})
    if unread:
        raise GraphFormatError(f"optimize does not read the config keys {unread}")
    p = 0.0
    if args.p is not None or "p_values" in args.config_keys:
        if len(settings.p_values) != 1:
            raise GraphFormatError(
                f"optimize takes one noise strength, not {len(settings.p_values)} p_values"
            )
        p = settings.p_values[0]
    graph = load_graph(settings.graph_source)
    rng = np.random.default_rng(settings.seed)
    init = random_init(args.n, rng)
    if p > 0:
        evaluator = exact_noisy_evaluator(graph, make_channel(settings.channel, p))
        label = f"noisy ({settings.channel}, p={p})"
    else:
        evaluator = ideal_evaluator(graph)
        label = "ideal"
    lr = settings.learning_rate
    trace = gradient_descent(graph, init, evaluator, lr, settings.num_iters)
    print(f"# {label} gradient descent, lr={lr}, n={args.n}")
    for it, rec in enumerate(trace.iterations):
        print(f"iter {it:4d}  cost {rec.cost:+.8f}  |grad| {rec.grad_norm:.3e}")
    final = trace.final_params
    print(f"converged: {trace.converged}")
    print(f"gamma: {final.gamma.tolist()}")
    print(f"beta:  {final.beta.tolist()}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    table = EXPERIMENTS[args.name](args.settings)
    prefix = args.out or args.name
    csv_path, json_path = table.write_outputs(prefix)
    print(f"wrote {csv_path} ({len(table.rows)} rows) and {json_path}")
    return EXIT_OK


def cmd_fit(args) -> int:
    try:
        with open(args.csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise GraphFormatError(f"cannot read CSV file {args.csv_path!r}: {exc}")
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
        _merge_settings(args)
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
