"""The names the benchmark looks up on the package still resolve.

bench/tracer.py wraps the functions listed in its KERNELS and SPANS
tables, and bench/run.py and the tracer's capture call a few more by
name. A change that deletes or renames one of them breaks the benchmark;
this test makes it fail the tier-1 suite too. The tables are read from
the tracer module, never edited here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import noisyqaoa

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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
