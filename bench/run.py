#!/usr/bin/env python3
"""Benchmark of the noisyqaoa experiment drivers.

Run from the repository root:

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory, never from
an installed copy. One run sets the package up several times (setup_s is
the median), then repeats the workload's round, a fixed job at a stated
input size, until the next round would end past ``--seconds`` (at least
one round). The rounds' outputs are checked against the dense Kraus-sum
oracle in ``oracle.py`` outside the timed phase.

``--trace 1`` first repeats untraced rounds for half the time, then
traced rounds for the other half, and reports per-layer metrics per
traced round, the tracing overhead, and writes the spans to
``bench/out/``. See README.md beside this file for the workloads and
the metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
1 when an output check fails and 2 when the package is not found.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import oracle
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 9  # the median ignores BLAS start-up stalls of a few set-ups
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NOISYQAOA_THREADS")

EXACT_TOL = 1e-8  # exact values: the oracle agrees to ~1e-14
FD_STEP, FD_TOL = 1e-4, 1e-5  # central differences of the oracle cost
SAMPLED_CI_FACTOR = 2.0  # sampled cost within 2 * ci_cost (4 sigma worst case)

# name -> unit, for the end-to-end table; BENCHMARK.json lists the ones
# that are measured and non-zero on every workload
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "forward_per_s": "1/s",
    "descent_iters_per_s": "1/s",
    "shots_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}
JSON_END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
RATES = ("forward_per_s", "descent_iters_per_s", "shots_per_s")


# ---------------------------------------------------------------- package


def load_package() -> SimpleNamespace:
    """(Re)import noisyqaoa from the checkout's src/ directory."""
    for name in [n for n in sys.modules if n == "noisyqaoa" or n.startswith("noisyqaoa.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("noisyqaoa")
    if Path(pkg.__file__).resolve().parent != SRC / "noisyqaoa":
        raise ImportError(f"noisyqaoa was imported from {pkg.__file__}, not from {SRC}")
    mods = {name: sys.modules[f"noisyqaoa.{name}"]
            for name in ("statevector", "noise", "maxcut", "qaoa", "gradopt", "experiments")}
    return SimpleNamespace(**mods)


def paper_grid(pkg) -> tuple:
    return pkg.experiments.ExperimentConfig().p_values


# -------------------------------------------------------------- workloads


class Workload:
    """One workload: its config, warm-up, round and reference checks.

    rates maps an end-to-end rate metric to the work one round completes.
    """

    rates: dict = {}

    def __init__(self, pkg, graph, seed: int):
        self.pkg, self.graph, self.seed = pkg, graph, seed
        self.edges, self.m = graph.edges, graph.num_nodes

    def channels(self):
        return [self.pkg.noise.make_channel(self.cfg.channel, p) for p in self.cfg.p_values]

    def workers(self) -> int:
        return 1


class ExactSweep(Workload):
    """Fidelity, cost and gradient drivers at the paper configuration in
    exact mode, then n=1 landscape argmins at three grid strengths."""

    name = "exact-sweep"

    def __init__(self, pkg, graph, seed, tiny):
        super().__init__(pkg, graph, seed)
        grid = paper_grid(pkg)
        ExperimentConfig = pkg.experiments.ExperimentConfig
        if tiny:
            self.cfg = ExperimentConfig(seed=seed, steps=(1,), p_values=(grid[0], grid[-1]), num_iters=30)
            self.landscape_p, self.axis = (grid[-1],), np.linspace(0.0, 1.0, 3)
        else:
            self.cfg = ExperimentConfig(seed=seed)
            self.landscape_p, self.axis = (grid[0], grid[5], grid[10]), np.linspace(0.0, 1.0, 11)
        self.landscape_channels = [pkg.noise.make_channel(self.cfg.channel, p) for p in self.landscape_p]
        cells = len(self.cfg.steps) * len(self.cfg.p_values)
        self.rates = {"forward_per_s": 2 * cells + len(self.landscape_p) * self.axis.size ** 2}

    def warmup(self, channels):
        qa = self.pkg.qaoa
        qa.run_exact_noisy(qa.build_circuit(self.graph, qa.QaoaParams([0.1], [0.2])), channels[-1])

    def run_round(self):
        ex = self.pkg.experiments
        out = {
            "fidelity": ex.run_fidelity_experiment(self.cfg),
            "cost": ex.run_cost_experiment(self.cfg),
            "gradient": ex.run_gradient_experiment(self.cfg),
        }
        for i, channel in enumerate(self.landscape_channels):
            out[f"landscape{i}"] = ex.landscape_argmin(self.graph, channel, self.axis, self.axis)
        return out

    def checks(self, out, captured, rng):
        kind, edges, m = self.cfg.channel, self.edges, self.m
        fid = out["fidelity"]
        for r in rng.choice(len(fid.rows), size=min(3, len(fid.rows)), replace=False):
            p, n, _, _ = fid.rows[r]
            par = fid.metadata["params"][n]
            yield ("fidelity", f"fidelity row {r} (n={n}, p={p:.4g})",
                   lambda o, c, r=r: o["fidelity"].rows[r][3],
                   oracle.fidelity(edges, m, par["gamma"], par["beta"], kind, p), EXACT_TOL)
        cost = out["cost"]
        params_by_n = captured.ideal_params[0]
        for r in rng.choice(len(cost.rows), size=min(3, len(cost.rows)), replace=False):
            p, n = cost.rows[r][:2]
            par = params_by_n[n]
            yield ("cost", f"f_noise row {r} (n={n}, p={p:.4g})",
                   lambda o, c, r=r: o["cost"].rows[r][3],
                   oracle.cost(edges, m, par.gamma, par.beta, kind, p), EXACT_TOL)
            yield ("cost", f"f_ideal row {r} (n={n})",
                   lambda o, c, r=r: o["cost"].rows[r][4],
                   oracle.cost(edges, m, par.gamma, par.beta), EXACT_TOL)
        grad = out["gradient"]
        r = int(rng.integers(len(grad.rows)))
        p, pid = grad.rows[r][:2]
        yield ("gradient", f"d_noise row {r} ({pid}, p={p:.4g})",
               lambda o, c, r=r: o["gradient"].rows[r][3],
               self._fd(grad.metadata["params"], pid, kind, p), FD_TOL)
        for i, p in enumerate(self.landscape_p):
            label = f"landscape{i}"
            ig, ib, _ = out[label]
            yield (label, f"landscape argmin cost (p={p:.4g})",
                   lambda o, c, label=label: o[label][2],
                   oracle.cost(edges, m, [self.axis[ig]], [self.axis[ib]], kind, p), EXACT_TOL)

    def _fd(self, params, pid, kind, p):
        gamma, beta = np.array(params["gamma"], float), np.array(params["beta"], float)
        vec, k = (gamma, int(pid[5:])) if pid.startswith("gamma") else (beta, int(pid[4:]))
        vals = []
        for step in (FD_STEP, -FD_STEP):
            vec[k] += step
            vals.append(oracle.cost(self.edges, self.m, gamma, beta, kind, p))
            vec[k] -= step
        return (vals[0] - vals[1]) / (2.0 * FD_STEP)


class NoisyDescent(Workload):
    """The optimization driver in exact mode on one process, at n=2 over
    six grid strengths, with a fixed 20-iteration budget."""

    name = "noisy-descent"
    threads = 1

    def __init__(self, pkg, graph, seed, tiny):
        super().__init__(pkg, graph, seed)
        grid = paper_grid(pkg)
        ExperimentConfig = pkg.experiments.ExperimentConfig
        if tiny:
            self.cfg = ExperimentConfig(seed=seed, steps=(1,), p_values=(grid[0], grid[-1]),
                                        num_iters=2, threads=self.threads)
        else:
            self.cfg = ExperimentConfig(seed=seed, steps=(2,), p_values=grid[0::2],
                                        num_iters=20, threads=self.threads)
        cells = len(self.cfg.steps) * len(self.cfg.p_values)
        # each descent evaluates cost and gradient once per update plus once at the end
        self.rates = {"descent_iters_per_s": cells * (self.cfg.num_iters + 1)}

    def workers(self):
        return self.cfg.worker_count()

    def warmup(self, channels):
        go, qa = self.pkg.gradopt, self.pkg.qaoa
        n = self.cfg.steps[0]
        go.cost_and_gradient(self.graph, qa.QaoaParams(np.full(n, 0.01), np.full(n, 0.01)),
                             go.exact_noisy_evaluator(self.graph, channels[-1]))

    def run_round(self):
        return {"optimization": self.pkg.experiments.run_optimization_experiment(self.cfg)}

    def checks(self, out, captured, rng):
        kind, edges, m = self.cfg.channel, self.edges, self.m
        table = out["optimization"]
        optima = table.metadata["ideal_optima"]
        cells = dict(captured.cells)
        for r, (p, n, *_rest) in enumerate(table.rows):
            ideal = optima[n]
            key = (p, self.cfg.steps.index(n))
            gamma, beta, _ = cells[key]
            yield ("optimization", f"noisy_cost row {r} (n={n}, p={p:.4g})",
                   lambda o, c, r=r: o["optimization"].rows[r][6],
                   oracle.cost(edges, m, gamma, beta, kind, p), EXACT_TOL)
            yield ("optimization", f"distance row {r}",
                   lambda o, c, r=r: o["optimization"].rows[r][4],
                   oracle.rms_distance(gamma, beta, ideal["gamma"], ideal["beta"]), EXACT_TOL)
        n = self.cfg.steps[0]
        yield ("optimization", f"ideal_cost (n={n})",
               lambda o, c: o["optimization"].rows[0][5],
               oracle.cost(edges, m, optima[n]["gamma"], optima[n]["beta"]), EXACT_TOL)


class NoisyDescentPool(NoisyDescent):
    """The noisy-descent cells on the default worker count."""

    name = "noisy-descent-pool"
    threads = None


class SampledCost(Workload):
    """The cost driver in sampled mode at M=5000 shots, n=1, at both ends
    of the strength grid."""

    name = "sampled-cost"

    def __init__(self, pkg, graph, seed, tiny):
        super().__init__(pkg, graph, seed)
        grid = paper_grid(pkg)
        self.cfg = pkg.experiments.ExperimentConfig(
            seed=seed, steps=(1,), p_values=(grid[0], grid[-1]), mode="sampled",
            shots=20 if tiny else 5000,
        )
        cells = len(self.cfg.steps) * len(self.cfg.p_values)
        self.rates = {"shots_per_s": self.cfg.shots * graph.num_edges * cells}

    def warmup(self, channels):
        qa = self.pkg.qaoa
        circuit = qa.build_circuit(self.graph, qa.QaoaParams([0.1], [0.2]))
        qa.trajectory_states(circuit, channels[-1], 200, seed=self.seed)

    def run_round(self):
        return {"cost": self.pkg.experiments.run_cost_experiment(self.cfg)}

    def checks(self, out, captured, rng):
        kind, edges, m = self.cfg.channel, self.edges, self.m
        params_by_n = captured.ideal_params[0]
        tol = SAMPLED_CI_FACTOR * oracle.ci_cost(edges, self.cfg.shots)
        for r, row in enumerate(out["cost"].rows):
            p, n = row[:2]
            par = params_by_n[n]
            yield ("cost", f"sampled f_noise row {r} (n={n}, p={p:.4g}) within {SAMPLED_CI_FACTOR:g} ci_cost",
                   lambda o, c, r=r: o["cost"].rows[r][3],
                   oracle.cost(edges, m, par.gamma, par.beta, kind, p), tol)
            yield ("cost", f"f_ideal row {r} (n={n})",
                   lambda o, c, r=r: o["cost"].rows[r][4],
                   oracle.cost(edges, m, par.gamma, par.beta), EXACT_TOL)


WORKLOADS = {cls.name: cls for cls in (ExactSweep, NoisyDescent, SampledCost, NoisyDescentPool)}


# ------------------------------------------------------------ measurement


def cpu_seconds():
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime, c.ru_utime + c.ru_stime, c.ru_nivcsw


def setup(cls, seed, tiny):
    """Import, graph load, channel build and one warm-up evaluation."""
    t0 = time.perf_counter()
    pkg = load_package()
    graph = pkg.experiments.resolve_graph("table1")
    wl = cls(pkg, graph, seed, tiny)
    channels = wl.channels()
    for ch in channels:
        ch.superop, ch.superop_adjoint
    wl.warmup(channels)
    return time.perf_counter() - t0, wl


def run_rounds(wl, capture, budget_s, t_tracer=None):
    """Repeat the round until the next one would end past budget_s."""
    rounds = []
    start = time.perf_counter()
    while True:
        capture.clear()
        if t_tracer is not None:
            t_tracer.new_round()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            out, error = wl.run_round(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        cpu1 = cpu_seconds()
        rounds.append(SimpleNamespace(
            start=t0, end=t1, wall=t1 - t0,
            cpu_self=cpu1[0] - cpu0[0], cpu_children=cpu1[1] - cpu0[1],
            nivcsw_children=cpu1[2] - cpu0[2], rss_mb=peak_rss_mb(), out=out, error=error,
            captured=SimpleNamespace(ideal_params=list(capture.ideal_params), cells=list(capture.cells)),
        ))
        elapsed = time.perf_counter() - start
        if error or elapsed + statistics.median(r.wall for r in rounds) > budget_s:
            return rounds


def check_rounds(wl, rounds, seed):
    """Count failed operations: drivers that raised or missed a check."""
    rng = np.random.default_rng([seed, 9001])
    good = [r for r in rounds if r.error is None]
    checks = list(wl.checks(good[0].out, good[0].captured, rng)) if good else []
    drivers = {label for label, *_ in checks} or {"round"}
    attempted = failed = 0
    misses, first = [], []  # first: every check of the first good round, for the record
    for k, r in enumerate(rounds):
        attempted += len(drivers)
        if r.error is not None:
            failed += len(drivers)
            misses.append(f"round {k}: {r.error}")
            continue
        bad = set()
        for label, desc, actual, expected, tol in checks:
            try:
                value = actual(r.out, r.captured)
                ok = math.isfinite(value) and abs(value - expected) <= tol
            except (KeyError, IndexError, TypeError) as exc:
                value, ok = f"{type(exc).__name__}: {exc}", False
            if r is good[0]:
                first.append({"round": k, "check": desc, "got": value, "reference": expected, "tol": tol})
            if not ok:
                bad.add(label)
                misses.append(f"round {k}: {desc}: got {value}, reference {expected} (tol {tol:g})")
        failed += len(bad)
    return attempted, failed, first, misses


def peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def end_to_end(wl, setups, rounds, attempted, failed, peak_mb):
    wall = statistics.median(r.wall for r in rounds)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu_self + r.cpu_children for r in rounds),
        "peak_rss_mb": peak_mb,
        "failed_frac": failed / attempted,
    }
    for name in RATES:
        values[name] = wl.rates.get(name, 0) / wall
    return values


# ------------------------------------------------------------ per layer


def _tail(durations):
    """The highest percentile with ten samples above it; the max below 100 samples."""
    d = sorted(durations)
    return d[-11] if len(d) >= 100 else (d[-1] if d else 0.0)


def per_layer(t, rounds, untraced):
    """Per-layer metrics of the traced rounds, per round where additive."""
    k = len(rounds)
    wall = sum(r.wall for r in rounds)
    selfs = tracer.self_times(t.spans)
    by_name = {}
    for span in t.spans:
        entry = by_name.setdefault(span[1], {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += selfs[span[0]]
        entry["wall_s"] += span[3] - span[2]
        entry["durations"].append(span[3] - span[2])
    empty = {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "durations": []}
    out = {}
    for name in tracer.KERNELS:
        calls, seconds, nbytes = t.kernels.get(name, (0, 0.0, 0))
        out[f"{name}.calls"] = (calls / k, "count")
        out[f"{name}.self_s"] = (seconds / k, "s")
        if name == "statevector.apply_superop_1q":
            out[f"{name}.gb_computed"] = (nbytes / k / 1e9, "GB")
    for name in tracer.SPANS:
        e = by_name.get(name, empty)
        if name in tracer.DRIVERS:
            out[f"{name}.wall_s"] = (e["wall_s"] / k, "s")
            continue
        out[f"{name}.calls"] = (e["calls"] / k, "count")
        if name == "gradopt.gradient_descent":
            c = t.counts
            out[f"{name}.iterations"] = (c["descent.iterations"] / k, "count")
            out[f"{name}.converged"] = (c["descent.converged"] / k, "count")
            out[f"{name}.ideal_duplicate_frac"] = (
                c["descent.ideal_duplicate"] / c["descent.ideal"] if c["descent.ideal"] else 0.0, "ratio")
            continue
        out[f"{name}.self_s"] = (e["self_s"] / k, "s")
        if name in ("qaoa.run_exact_noisy", "qaoa.adjoint_gradient_noisy"):
            d = e["durations"]
            out[f"{name}.p50_ms"] = (statistics.median(d) * 1e3 if d else 0.0, "ms")
            out[f"{name}.tail_ms"] = (_tail(d) * 1e3, "ms")
            out[f"{name}.max_ms"] = (max(d) * 1e3 if d else 0.0, "ms")
        if name == "qaoa.trajectory_states":
            out[f"{name}.trajectories"] = (t.counts["traj.count"] / k, "count")
    analytic = t.counts["traj.analytic"]
    out["qaoa.error_free_traj_frac_computed"] = (
        t.counts["traj.error_free"] / analytic if analytic else 0.0, "ratio")
    workers = int(t.counts["pool.workers"])
    pool_wall = by_name.get("experiments.run_optimization_experiment", empty)["wall_s"] if workers else 0.0
    children_cpu = sum(r.cpu_children for r in rounds)
    out["experiments.pool.workers"] = (workers, "count")
    out["experiments.pool.cpu_util"] = (children_cpu / (workers * pool_wall) if pool_wall else 0.0, "ratio")
    out["experiments.pool.invol_ctx_switches"] = (sum(r.nivcsw_children for r in rounds) / k, "count")
    out["process.cpu_per_wall"] = (sum(r.cpu_self + r.cpu_children for r in rounds) / wall, "ratio")
    top = [(s[2], s[3]) for s in t.spans if s[4] is None]
    out["trace.overhead_frac"] = (
        statistics.median(r.wall for r in rounds) / statistics.median(r.wall for r in untraced) - 1.0, "ratio")
    out["trace.unexplained_frac"] = (1.0 - tracer.union(top) / wall, "ratio")
    return out


def write_spans(t, path, t0):
    with open(path, "w") as fh:
        for span in sorted(t.spans, key=lambda s: s[2]):
            fh.write(json.dumps({"id": span[0], "name": span[1], "start": span[2] - t0,
                                 "end": span[3] - t0, "parent": span[4], "pid": span[5]}) + "\n")


# ------------------------------------------------------------ environment


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment(wl):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workers_effective": wl.workers(),
        "default_worker_count": wl.pkg.experiments.ExperimentConfig().worker_count(),
        "platform": platform.platform(),
    }


# ------------------------------------------------------------------ main


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs of each workload, for the smoke test")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "noisyqaoa" / "__init__.py").is_file():
        print(f"error: no noisyqaoa package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[args.workload]

    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, wl = setup(cls, args.seed, args.tiny)
        setups.append(seconds)
    capture = tracer.install_capture()

    if args.trace:
        untraced = run_rounds(wl, capture, args.seconds / 2.0)
        t, hooks = tracer.install_tracer()
        try:
            rounds = run_rounds(wl, capture, args.seconds / 2.0, t)
        finally:
            tracer.stop_tracer(hooks)
        all_rounds = untraced + rounds
    else:
        all_rounds = rounds = run_rounds(wl, capture, args.seconds)
    attempted, failed, checked, misses = check_rounds(wl, all_rounds, args.seed)

    # the peak through set-up and the first round does not depend on how many
    # rounds fit in --seconds; the record keeps each round's peak too
    e2e = end_to_end(wl, setups, untraced if args.trace else rounds, attempted, failed,
                     all_rounds[0].rss_mb)
    env = environment(wl)
    print(f"workload {wl.name}  seed {args.seed}  rounds {len(all_rounds)}  "
          f"checks per round {len(checked)}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, unit in END_TO_END.items():
        note = "  (not exercised by this workload)" if name in RATES and name not in wl.rates else ""
        print(f"  {name:<22} {e2e[name]:>14.6g} {unit}{note}")
    for line in misses:
        print("CHECK FAILED " + line)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "end_to_end": e2e, "misses": misses, "setups_s": setups, "checks": checked,
              "rounds": [{"wall_s": r.wall, "cpu_s": r.cpu_self + r.cpu_children,
                          "peak_rss_mb": r.rss_mb, "error": r.error} for r in all_rounds]}
    if args.trace:
        layers = per_layer(t, rounds, untraced)
        span_path = OUT_DIR / f"spans-{stem}.jsonl"
        write_spans(t, span_path, rounds[0].start)
        for name, (value, unit) in layers.items():
            print(f"  {name:<52} {value:>14.6g} {unit}")
        for name in ("qaoa.run_exact_noisy", "qaoa.adjoint_gradient_noisy"):
            calls = sum(1 for s in t.spans if s[1] == name)
            if calls:
                where = f"p{100.0 * (1 - 10 / calls):.1f}" if calls >= 100 else "max"
                print(f"  {name}.tail_ms is the {where} of {calls} calls")
        print(f"spans {span_path.relative_to(ROOT)}")
        record["per_layer"] = {k: v[0] for k, v in layers.items()}
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": END_TO_END[k]} for k in JSON_END_TO_END}
    with open(OUT_DIR / f"result-{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
