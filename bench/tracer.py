"""Span tracer and output capture for the benchmark.

Nothing in noisyqaoa is edited. The package's modules import their
callees by name, so each function is wrapped where its callers look it
up: every noisyqaoa module attribute that is the original function is
replaced by the wrapper, and put back by ``uninstall``.

Evaluator and driver calls become spans (name, start, end, parent).
Leaf kernels in ``statevector`` are called tens of thousands of times
per round, so they are aggregated into counters instead; their time is
charged to the enclosing span so that self times still add up.

Pool workers are forked, so wrappers installed before a driver starts
reach them. Workers exit without running atexit handlers, so each
optimization cell hands its spans and its result back to the parent
inside the pickled cell result (see ``_Handback``).

The active tracer and the capture live in module globals because the
hand-back runs inside unpickling, where no other reference reaches them.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from collections import defaultdict

# layer name -> (home module, function names); leaves, aggregated
KERNELS = {
    "statevector.apply_superop_1q": ("statevector", ("apply_superop_1q",)),
    "statevector.mul_1q": ("statevector", ("mul_left_1q", "mul_right_1q")),
    "statevector.expand_diag": ("statevector", ("expand_diag",)),
    "statevector.apply_gate": ("statevector", ("apply_gate",)),
}

# layer name -> (home module, function name); one span per call
SPANS = {
    "noise.make_channel": ("noise", "make_channel"),
    "maxcut.exact_expectation": ("maxcut", "exact_expectation"),
    "qaoa.build_circuit": ("qaoa", "build_circuit"),
    "qaoa.run_exact_noisy": ("qaoa", "run_exact_noisy"),
    "qaoa.adjoint_gradient_ideal": ("qaoa", "adjoint_gradient_ideal"),
    "qaoa.adjoint_gradient_noisy": ("qaoa", "adjoint_gradient_noisy"),
    "qaoa.trajectory_states": ("qaoa", "trajectory_states"),
    "qaoa.cost_sampled": ("qaoa", "cost_sampled"),
    "gradopt.cost_and_gradient": ("gradopt", "cost_and_gradient"),
    "gradopt.gradient_descent": ("gradopt", "gradient_descent"),
    "experiments.run_fidelity_experiment": ("experiments", "run_fidelity_experiment"),
    "experiments.run_cost_experiment": ("experiments", "run_cost_experiment"),
    "experiments.run_gradient_experiment": ("experiments", "run_gradient_experiment"),
    "experiments.run_optimization_experiment": ("experiments", "run_optimization_experiment"),
    "experiments.landscape_argmin": ("experiments", "landscape_argmin"),
}
DRIVERS = tuple(name for name in SPANS if name.startswith("experiments."))
CELL_SPAN = "experiments.optimization_cell"

# error-free branch weight |K_0|^2 of the named Pauli channels
_NO_ERROR_WEIGHT = {
    "depolarizing": lambda p: 1.0 - 0.75 * p,
    "dephasing": lambda p: 1.0 - p,
    "bitflip": lambda p: 1.0 - p,
}

ACTIVE = None  # the Tracer recording spans, or None
CAPTURE = None  # the Capture receiving optimization-cell results


class Capture:
    """Values the drivers compute but do not return, kept for the checks."""

    def __init__(self):
        self.pid = os.getpid()
        self.lock = threading.Lock()
        self.ideal_params = []  # return values of ideal_optimized_params
        self.cells = []  # ((p, n_idx), (gamma, beta, cost)) per optimization cell

    def clear(self):
        with self.lock:
            self.ideal_params.clear()
            self.cells.clear()


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self):
        self.pid = os.getpid()
        self.lock = threading.Lock()
        self.reset()

    def reset(self):
        self.spans = []  # [id, name, start, end, parent, pid, kernel_child_s]
        self.stack = []
        self.kernels = defaultdict(lambda: [0, 0.0, 0])  # name -> [calls, seconds, bytes]
        self.counts = defaultdict(float)
        self.seen_ideal = set()
        self.next_id = 0

    def new_round(self):
        """Duplicate ideal descents are counted within one round."""
        self.seen_ideal = set()

    def open(self, name):
        parent = self.stack[-1][0] if self.stack else None
        span = [self.next_id, name, time.perf_counter(), 0.0, parent, self.pid, 0.0]
        self.next_id += 1
        self.stack.append(span)
        return span

    def close(self, span):
        span[3] = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)

    def kernel(self, name, seconds, nbytes):
        agg = self.kernels[name]
        agg[0] += 1
        agg[1] += seconds
        agg[2] += nbytes
        if self.stack:
            self.stack[-1][6] += seconds

    def drain(self):
        """Hand this process's records over and start empty (pool worker)."""
        payload = (self.spans, dict(self.kernels), dict(self.counts))
        self.spans, self.next_id = [], 0
        self.kernels = defaultdict(lambda: [0, 0.0, 0])
        self.counts = defaultdict(float)
        return payload

    def merge(self, payload):
        """Adopt a worker's records under the span open in the main thread."""
        spans, kernels, counts = payload
        with self.lock:
            parent = self.stack[-1][0] if self.stack else None
            ids = {}
            for span in spans:
                ids[span[0]] = self.next_id
                self.next_id += 1
            for span in spans:
                self.spans.append(
                    [ids[span[0]], span[1], span[2], span[3],
                     ids[span[4]] if span[4] is not None else parent, span[5], span[6]]
                )
            for name, (calls, seconds, nbytes) in kernels.items():
                agg = self.kernels[name]
                agg[0] += calls
                agg[1] += seconds
                agg[2] += nbytes
            for key, value in counts.items():
                self.counts[key] += value


def _active_here():
    """The active tracer, reset first if this is a freshly forked worker."""
    t = ACTIVE
    if t is not None and t.pid != os.getpid():
        t.pid = os.getpid()
        t.reset()
    return t


class _Handback:
    """A worker's cell result; unpickling it in the parent records it."""

    def __init__(self, key, result, payload):
        self.key, self.result, self.payload = key, result, payload

    def __reduce__(self):
        return _receive, (self.key, self.result, self.payload)


def _receive(key, result, payload):
    if CAPTURE is not None:
        with CAPTURE.lock:
            CAPTURE.cells.append((key, result))
    if payload is not None and ACTIVE is not None:
        ACTIVE.merge(payload)
    return result


def _superop_bytes(args):
    return 2 * 16 * args[0].size  # read + write of the complex128 density matrix


def _observe_trajectories(t, bound, result):
    circuit, channel, num_traj = (bound.arguments[k] for k in ("circuit", "channel", "num_traj"))
    events = sum(len(g.targets) for g in circuit.gates)
    t.counts["traj.count"] += num_traj
    weight = _NO_ERROR_WEIGHT.get(channel.kind)
    if weight is not None:
        t.counts["traj.error_free"] += num_traj * weight(channel.p) ** events
        t.counts["traj.analytic"] += num_traj


def _observe_descent(t, bound, result):
    args = bound.arguments
    t.counts["descent.iterations"] += len(result.iterations)
    t.counts["descent.converged"] += bool(result.converged)
    if type(args["evaluator"]).__name__ == "IdealEvaluator":
        init = args["init"]
        key = (init.n, tuple(init.gamma), tuple(init.beta),
               args["learning_rate"], args["num_iters"], args.get("grad_tol", 0.0))
        t.counts["descent.ideal"] += 1
        if key in t.seen_ideal:
            t.counts["descent.ideal_duplicate"] += 1
        t.seen_ideal.add(key)


_OBSERVERS = {
    "qaoa.trajectory_states": _observe_trajectories,
    "gradopt.gradient_descent": _observe_descent,
}


def _kernel_wrapper(name, fn):
    nbytes = _superop_bytes if name == "statevector.apply_superop_1q" else None

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        t = _active_here()
        if t is None:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t.kernel(name, time.perf_counter() - t0, nbytes(args) if nbytes else 0)
        return result

    return wrapped


def _span_wrapper(name, fn):
    observe = _OBSERVERS.get(name)
    signature = inspect.signature(fn) if observe else None

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        t = _active_here()
        if t is None:
            return fn(*args, **kwargs)
        span = t.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            t.close(span)
        if observe:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            observe(t, bound, result)
        return result

    return wrapped


def _cell_wrapper(fn):
    @functools.wraps(fn)
    def cell(args):
        t = _active_here()
        span = t.open(CELL_SPAN) if t else None
        try:
            result = fn(args)
        finally:
            if span:
                t.close(span)
        key = (args[2], args[10])  # (p, n_idx), as the driver keys its cells
        if os.getpid() == CAPTURE.pid:
            with CAPTURE.lock:
                CAPTURE.cells.append((key, result))
            return result
        return _Handback(key, result, t.drain() if t else None)

    return cell


def _capture_ideal_params(fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        CAPTURE.ideal_params.append(result)
        return result

    return wrapped


def _pool_class(cls):
    class CountingPool(cls):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            t = _active_here()
            if t is not None:
                t.counts["pool.workers"] = max(t.counts["pool.workers"], self._max_workers)

    CountingPool.__name__ = CountingPool.__qualname__ = cls.__name__
    return CountingPool


def _modules():
    return [mod for name, mod in sys.modules.items()
            if mod is not None and (name == "noisyqaoa" or name.startswith("noisyqaoa."))]


class Installed:
    """Wrappers put in place over the loaded noisyqaoa modules."""

    def __init__(self):
        self.replaced = []  # (module, attribute, original)

    def replace(self, original, wrapper):
        for mod in _modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self.replaced.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self.replaced):
            setattr(mod, attr, original)
        self.replaced.clear()


def install_capture():
    """Record what the output checks need, in traced and untraced rounds
    alike; stays installed until the process exits."""
    global CAPTURE
    CAPTURE = Capture()
    ex = sys.modules["noisyqaoa.experiments"]
    Installed().replace(ex.ideal_optimized_params, _capture_ideal_params(ex.ideal_optimized_params))
    Installed().replace(ex._optimization_cell, _cell_wrapper(ex._optimization_cell))
    return CAPTURE


def install_tracer():
    """Wrap every traced layer; returns the tracer and the undo handle."""
    global ACTIVE
    pkg = "noisyqaoa."
    installed = Installed()
    for name, (home, fns) in KERNELS.items():
        mod = sys.modules[pkg + home]
        for fn in fns:
            original = getattr(mod, fn)
            installed.replace(original, _kernel_wrapper(name, original))
    for name, (home, fn) in SPANS.items():
        original = getattr(sys.modules[pkg + home], fn)
        installed.replace(original, _span_wrapper(name, original))
    ex = sys.modules[pkg + "experiments"]
    installed.replace(ex.ProcessPoolExecutor, _pool_class(ex.ProcessPoolExecutor))
    ACTIVE = Tracer()
    return ACTIVE, installed


def stop_tracer(installed):
    global ACTIVE
    installed.uninstall()
    ACTIVE = None


def union(intervals):
    """Total length covered by (start, end) intervals."""
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """Span id -> duration minus the part of it its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    return {
        span[0]: (span[3] - span[2]) - span[6] - union(children.get(span[0], ()))
        for span in spans
    }
