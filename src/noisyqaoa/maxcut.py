"""Weighted Max-Cut model: graph, its JSON document format and loader,
ZZ problem Hamiltonian, exact expectations, and the brute-force
enumeration oracle.

Graph documents are JSON objects {"nodes": m, "edges": [[i, j, weight], ...]};
the builtin name "table1" resolves to the bundled benchmark graph.

Encoding convention: bit b of a node maps to spin z = (-1)^b, so the
energy of an assignment is sum_ij C_ij z_i z_j. Cutting an edge makes
its term negative; the ground state of the Hamiltonian is a maximum cut.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np

from .statevector import StateVector, _bit

MAX_BRUTE_FORCE_QUBITS = 24


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph; each edge stored once with i < j."""

    num_nodes: int
    edges: tuple  # of (i, j, weight)

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("graph needs at least one node")
        seen = set()
        normalized = []
        for edge in self.edges:
            i, j, w = edge
            i, j, w = int(i), int(j), float(w)
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            if not (0 <= i < self.num_nodes and 0 <= j < self.num_nodes):
                raise ValueError(f"edge ({i}, {j}) references a node >= {self.num_nodes}")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            if not np.isfinite(w) or w == 0.0:
                raise ValueError(f"edge ({i}, {j}) has invalid weight {w}")
            normalized.append((i, j, w))
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))


@dataclass(frozen=True)
class ProblemHamiltonian:
    """sum_ij C_ij Z_i Z_j, diagonal in the computational basis."""

    num_qubits: int
    terms: tuple  # of (i, j, coefficient)

    @cached_property
    def energies(self) -> np.ndarray:
        """Diagonal of the Hamiltonian over all 2^m basis states (read-only)."""
        e = np.zeros(1 << self.num_qubits)
        for i, j, w in self.terms:
            zi = 1.0 - 2.0 * _bit(self.num_qubits, i)
            zj = 1.0 - 2.0 * _bit(self.num_qubits, j)
            e += w * zi * zj
        e.setflags(write=False)
        return e


def problem_hamiltonian(graph: WeightedGraph) -> ProblemHamiltonian:
    """One ZZ term per edge with the edge weight as coefficient."""
    return ProblemHamiltonian(graph.num_nodes, tuple(graph.edges))


def energy_of_bitstring(h: ProblemHamiltonian, bits) -> float:
    """sum_ij C_ij z_i z_j with z = +1 for bit 0 and -1 for bit 1."""
    bits = list(bits)
    if len(bits) != h.num_qubits:
        raise ValueError(f"bit assignment has length {len(bits)}, expected {h.num_qubits}")
    z = [1.0 - 2.0 * int(b) for b in bits]
    return float(sum(w * z[i] * z[j] for i, j, w in h.terms))


def exact_expectation(state: StateVector, h: ProblemHamiltonian) -> float:
    """<H_p> of a pure state: sum |amp|^2 E."""
    if state.num_qubits != h.num_qubits:
        raise ValueError("state and Hamiltonian dimensions differ")
    return float((np.abs(state.amplitudes) ** 2) @ h.energies)


def index_to_bits(x: int, m: int) -> tuple:
    """Basis index -> per-node bit tuple (node 0 = least significant bit)."""
    return tuple((x >> q) & 1 for q in range(m))


def brute_force_ground(graph: WeightedGraph) -> tuple[float, list]:
    """Exhaustive minimum energy and all optimal bit assignments.

    Optima come in global-flip pairs, so the list always has even length.
    """
    m = graph.num_nodes
    if m > MAX_BRUTE_FORCE_QUBITS:
        raise ValueError(f"brute force limited to {MAX_BRUTE_FORCE_QUBITS} nodes, got {m}")
    e = problem_hamiltonian(graph).energies
    emin = float(e.min())
    optima = [index_to_bits(int(x), m) for x in np.flatnonzero(e <= emin + 1e-12)]
    return emin, optima


class GraphFormatError(ValueError):
    """Malformed or invalid graph document."""


def _json_object(text: str, keys, document: str, kind: str) -> dict:
    """The JSON object in text, with no key outside keys. Malformed JSON,
    a non-object and an unknown key are GraphFormatErrors, which name
    the document ("graph document") or the kind of key ("graph")."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise GraphFormatError(f"{document} must be a JSON object")
    unknown = set(doc) - set(keys)
    if unknown:
        raise GraphFormatError(f"unknown {kind} keys: {sorted(unknown)}")
    return doc


def parse_graph(text: str) -> WeightedGraph:
    """Parse and validate a JSON graph document."""
    doc = _json_object(text, ("nodes", "edges"), "graph document", "graph")
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


def table1_graph() -> WeightedGraph:
    """The bundled 7-node, 9-edge benchmark graph."""
    return parse_graph(resources.files("noisyqaoa.data").joinpath("table1.json").read_text())


def load_graph(source: str) -> WeightedGraph:
    """Resolve a graph source: the builtin name 'table1' or a JSON file path.

    Every failure, an unreadable file included, is a GraphFormatError.
    """
    if source == "table1":
        return table1_graph()
    try:
        with open(source) as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphFormatError(f"cannot read graph file {source!r}: {exc}")
    return parse_graph(text)
