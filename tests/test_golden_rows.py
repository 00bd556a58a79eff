"""Golden rows: the experiment drivers' output at a small configuration,
recorded once from an earlier tree, so that a change meant to leave the
numbers alone shows when it does not.

Exact-mode float columns must agree within 1e-12, every other column
exactly: counts, labels and flags, and the sampled cost estimate, which
is a sum of shot counts. The ideal descents must stop at the recorded
iteration.

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
SAMPLED_ESTIMATE = "f_noise"  # of the sampled cost table
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


@pytest.mark.parametrize("table", [f"{name}/{ch}" for ch in CHANNELS for name in (*EXACT, "sampled-cost")])
def test_rows_match_golden(table, current, golden):
    want, got = golden[table], current[table]
    assert got["columns"] == want["columns"]
    assert len(got["rows"]) == len(want["rows"])
    sampled = table.startswith("sampled")
    for r, (row, ref) in enumerate(zip(got["rows"], want["rows"])):
        for col, a, b in zip(want["columns"], row, ref):
            tol = 0.0 if sampled and col == SAMPLED_ESTIMATE else TOL
            assert same(a, b, tol), f"{table} row {r} column {col}: {a!r} against {b!r}"


def test_ideal_descents_stop_at_the_golden_iteration(current, golden):
    assert current["ideal_descent_iterations"] == golden["ideal_descent_iterations"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_tables(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
