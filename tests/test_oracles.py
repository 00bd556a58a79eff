"""tests/oracles.py shares no code path with the package it checks.

Its references may take from noisyqaoa only input records: graphs,
QaoaParams, the circuits of build_circuit and with_shifted_gate with
their QaoaGate fields, and a channel's kraus tuple. A kernel, sweep or
evaluator used there would check the package against itself.
"""

import ast
import dataclasses
from pathlib import Path

from noisyqaoa import NoiseChannel

ORACLES = Path(__file__).with_name("oracles.py")
INPUT_RECORDS = {"WeightedGraph", "table1_graph", "QaoaParams", "QaoaGate", "build_circuit", "with_shifted_gate"}


def package_imports(source: str) -> set:
    """Names imported from noisyqaoa, with "*" for a bare module import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {"*" for alias in node.names if alias.name.split(".")[0] == "noisyqaoa"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "noisyqaoa":
            names |= {alias.name for alias in node.names}
    return names


def test_oracles_import_only_input_records():
    imported = package_imports(ORACLES.read_text())
    assert imported, "no import from noisyqaoa found: the parse checks nothing"
    assert imported <= INPUT_RECORDS, sorted(imported - INPUT_RECORDS)


def test_the_check_flags_a_kernel_import():
    assert package_imports("from noisyqaoa.qaoa import build_circuit, cost_exact") == {"build_circuit", "cost_exact"}
    assert package_imports("import noisyqaoa.statevector as sv") == {"*"}


def test_oracles_read_only_the_kraus_tuple_of_a_channel():
    members = {f.name for f in dataclasses.fields(NoiseChannel)}
    members |= {name for name in vars(NoiseChannel) if not name.startswith("__")}
    read = {node.attr for node in ast.walk(ast.parse(ORACLES.read_text())) if isinstance(node, ast.Attribute)}
    assert read & members == {"kraus"}
