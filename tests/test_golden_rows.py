"""Golden rows: the experiment drivers' output at a small configuration,
recorded once from an earlier tree, so that a change meant to leave the
numbers alone shows when it does not.

Exact-mode float columns must agree within 1e-12, every other column
exactly: counts, labels and flags, and the sampled estimates (the cost,
the derivative and the descent's final cost), which are sums of shot
counts. The ideal descents must stop at the recorded iteration.

To record tables afresh (only for a change that means to move them),
name them; every other table keeps its bytes:

    PYTHONPATH=src python tests/test_golden_rows.py fidelity/depolarizing ...
"""

import json
import math
import sys
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


def as_record(table) -> dict:
    return {"columns": list(table.columns), "rows": [list(r) for r in table.rows]}


def ideal_descent_iterations() -> dict:
    cfg = config(CHANNELS[0])
    return {str(n): len(_ideal_descent(cfg, table1_graph(), n)[1].iterations) for n in cfg.steps}


def table_makers() -> dict:
    """Table name -> a function computing its {"columns", "rows"}, plus the
    ideal descents' lengths, in the golden file's order."""
    makers = {}
    for channel in CHANNELS:
        for name, run in EXACT.items():
            makers[f"{name}/{channel}"] = lambda run=run, cfg=config(channel): as_record(run(cfg))
        cfg = config(channel, mode="sampled", shots=200)
        makers[f"sampled-cost/{channel}"] = lambda cfg=cfg: as_record(run_cost_experiment(cfg))
    for name, (run, kw) in SAMPLED_DRIVERS.items():
        cfg = ExperimentConfig(**{"steps": (1,), "shots": 20, **kw}, mode="sampled", threads=1)
        makers[name] = lambda run=run, cfg=cfg: as_record(run(cfg))
    makers["ideal_descent_iterations"] = ideal_descent_iterations
    return makers


def record(names, path=GOLDEN) -> None:
    """Record the named tables into the golden file at path afresh; the
    others are written back as read, byte for byte."""
    makers = table_makers()
    unknown = [name for name in names if name not in makers]
    if unknown:
        raise ValueError(f"unknown golden tables {unknown}; known: {list(makers)}")
    doc = json.loads(path.read_text())
    for name in names:
        doc[name] = makers[name]()
    path.write_text(json.dumps(doc, indent=1) + "\n")


def same(a, b, tol) -> bool:
    if isinstance(b, float) and math.isnan(b):
        return isinstance(a, float) and math.isnan(a)
    if isinstance(b, float) and tol:
        return math.isclose(a, b, rel_tol=tol, abs_tol=tol)
    return a == b


@pytest.fixture(scope="module")
def current():
    return {name: make() for name, make in table_makers().items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("table", [name for name in table_makers() if name != "ideal_descent_iterations"])
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


def test_recorder_rewrites_only_the_named_tables(tmp_path, golden):
    # the recorder reads and writes the file as json.dumps(indent=1) does,
    # so a table it does not record keeps its bytes
    assert json.dumps(golden, indent=1) + "\n" == GOLDEN.read_text()
    copy = tmp_path / GOLDEN.name
    stale = dict.fromkeys(golden, "stale")
    text = json.dumps(stale, indent=1) + "\n"
    copy.write_text(text)
    name = "fidelity/dephasing"
    record([name], copy)
    recorded = json.loads(copy.read_text())
    assert recorded[name]["columns"] == golden[name]["columns"]
    assert len(recorded[name]["rows"]) == len(golden[name]["rows"])
    recorded[name] = "stale"
    assert json.dumps(recorded, indent=1) + "\n" == text


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} TABLE [TABLE ...], from {list(table_makers())}")
    record(sys.argv[1:])
    print(f"recorded {sys.argv[1:]} in {GOLDEN}")
