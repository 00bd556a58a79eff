"""Golden rows: the experiment drivers' output at a small configuration,
recorded once from an earlier tree, so that a change meant to leave the
numbers alone shows when it does not.

Exact-mode float columns must agree within 1e-12, every other column
exactly: counts, labels and flags, and the sampled estimates (the cost,
the derivative and the descent's final cost), which are sums of shot
counts. The ideal descents must stop at the recorded iteration.

To record the rows afresh (only for a change that means to move them):

    PYTHONPATH=src python tests/test_golden_rows.py
"""

import json
import math
from pathlib import Path

import pytest

from noisyqaoa import (
    ExperimentConfig,
    run_cost_experiment,
    run_fidelity_experiment,
    run_gradient_experiment,
    run_optimization_experiment,
    table1_graph,
)
from noisyqaoa.experiments import _ideal_descent

GOLDEN = Path(__file__).parent / "data" / "golden_rows.json"
CHANNELS = ("depolarizing", "dephasing", "bitflip")
EXACT = {
    "fidelity": run_fidelity_experiment,
    "cost": run_cost_experiment,
    "gradient": run_gradient_experiment,
    "optimization": run_optimization_experiment,
}
# the column of shot-count estimates in each sampled table
SAMPLED_ESTIMATE = {"sampled-cost": "f_noise", "sampled-cost-2000": "f_noise", "sampled-gradient": "d_noise",
                    "sampled-optimization": "noisy_cost"}
# the sampled gradient and optimization drivers, one channel each (sized
# to run in about a second), and the sampled cost at 2000 shots, where
# many trajectories share a fault history
SAMPLED_DRIVERS = {
    "sampled-gradient/depolarizing": (run_gradient_experiment, dict(
        channel="depolarizing", p_values=(0.0, 0.01, 0.05), num_iters=100)),
    "sampled-optimization/bitflip": (run_optimization_experiment, dict(
        channel="bitflip", p_values=(0.0, 0.02), num_iters=2)),
    "sampled-cost-2000/depolarizing": (run_cost_experiment, dict(
        channel="depolarizing", steps=(1, 2), p_values=(0.0, 0.02, 0.2), num_iters=100, shots=2000)),
}
TOL = 1e-12


def config(channel, **kw):
    return ExperimentConfig(channel=channel, steps=(1, 2), p_values=(0.0, 0.01, 0.05),
                            num_iters=100, threads=1, **kw)


def golden_tables() -> dict:
    """Table name -> {"columns", "rows"}, plus the ideal descents' lengths."""
    out = {}
    for channel in CHANNELS:
        for name, run in EXACT.items():
            table = run(config(channel))
            out[f"{name}/{channel}"] = {"columns": list(table.columns), "rows": [list(r) for r in table.rows]}
        table = run_cost_experiment(config(channel, mode="sampled", shots=200))
        out[f"sampled-cost/{channel}"] = {"columns": list(table.columns), "rows": [list(r) for r in table.rows]}
    for name, (run, kw) in SAMPLED_DRIVERS.items():
        table = run(ExperimentConfig(**{"steps": (1,), "shots": 20, **kw}, mode="sampled", threads=1))
        out[name] = {"columns": list(table.columns), "rows": [list(r) for r in table.rows]}
    cfg = config(CHANNELS[0])
    out["ideal_descent_iterations"] = {
        str(n): len(_ideal_descent(cfg, table1_graph(), n)[1].iterations) for n in cfg.steps
    }
    return out


def same(a, b, tol) -> bool:
    if isinstance(b, float) and math.isnan(b):
        return isinstance(a, float) and math.isnan(a)
    if isinstance(b, float) and tol:
        return math.isclose(a, b, rel_tol=tol, abs_tol=tol)
    return a == b


@pytest.fixture(scope="module")
def current():
    return golden_tables()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "table", [f"{name}/{ch}" for ch in CHANNELS for name in (*EXACT, "sampled-cost")] + list(SAMPLED_DRIVERS)
)
def test_rows_match_golden(table, current, golden):
    want, got = golden[table], current[table]
    assert got["columns"] == want["columns"]
    assert len(got["rows"]) == len(want["rows"])
    estimate = SAMPLED_ESTIMATE.get(table.split("/")[0])
    for r, (row, ref) in enumerate(zip(got["rows"], want["rows"])):
        for col, a, b in zip(want["columns"], row, ref):
            tol = 0.0 if col == estimate else TOL
            assert same(a, b, tol), f"{table} row {r} column {col}: {a!r} against {b!r}"


def test_ideal_descents_stop_at_the_golden_iteration(current, golden):
    assert current["ideal_descent_iterations"] == golden["ideal_descent_iterations"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_tables(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
