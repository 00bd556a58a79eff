"""The names the benchmark looks up on the package still resolve.

bench/tracer.py wraps the functions listed in its KERNELS and SPANS
tables, and bench/run.py and the tracer's capture call a few more by
name. A change that deletes or renames one of them breaks the benchmark;
this test makes it fail the tier-1 suite too. The tables are read from
the tracer module, never edited here, and bench/run.py's own set-up runs
in a separate process, as the benchmark runs it.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import noisyqaoa

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer_tables", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(home, name):
    module = importlib.import_module(f"{noisyqaoa.__name__}.{home}")
    assert hasattr(module, name), f"noisyqaoa.{home} has no attribute {name!r}, which the benchmark looks up"
    return getattr(module, name)


def traced_names():
    tracer = load_tracer()
    names = [(home, fn) for home, fns in tracer.KERNELS.values() for fn in fns]
    names += list(tracer.SPANS.values())
    return names


@pytest.mark.parametrize("home, name", traced_names(), ids=lambda x: str(x))
def test_traced_layer_resolves(home, name):
    assert callable(resolve(home, name))


@pytest.mark.parametrize(
    "home, name",
    [
        # bench/run.py
        ("experiments", "resolve_graph"),
        ("gradopt", "exact_noisy_evaluator"),
        ("gradopt", "IdealEvaluator"),
        # the tracer's capture, installed in every benchmark run
        ("experiments", "ideal_optimized_params"),
        ("experiments", "_optimization_cell"),
        ("experiments", "ProcessPoolExecutor"),
    ],
)
def test_benchmark_lookup_resolves(home, name):
    assert callable(resolve(home, name))


def test_channel_superoperators_resolve():
    # bench/run.py builds both superoperators of every channel during set-up
    channel = noisyqaoa.make_channel("depolarizing", 0.01)
    assert channel.superop.shape == (4, 4)
    assert channel.superop_adjoint.shape == (4, 4)


def test_benchmark_setup_runs():
    # setup() of every workload: the package import, resolve_graph("table1"),
    # the channels with both superoperators, and the warm-ups, among them
    # qaoa.run_exact_noisy(circuit, channel) and
    # qaoa.trajectory_states(circuit, channel, 200, seed=seed); in its own
    # process, because setup() re-imports the package
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'bench')!r}, {str(ROOT / 'src')!r}]\n"
        "import run\n"
        "for cls in run.WORKLOADS.values():\n"
        "    seconds, wl = run.setup(cls, 5, False)\n"
        "    print(wl.name, seconds)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= {line.split()[0] for line in proc.stdout.splitlines()}
