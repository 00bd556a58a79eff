"""The compiled circuit layout against per-gate sweeps.

build_circuit compiles its circuit once per (m, sorted edges, n) into a
read-only qaoa._Layout and reads each call's angles from (gamma, beta) by
the layout's slots; with_shifted_gate keeps the layout, and
GateSequence.of_gates derives one from QaoaGate records. Every exact path
must give the same bits as the per-gate sweeps below, which read the
records themselves, gate by gate, as the package did before the layout
existed. Everything is compared with == or tobytes, never at a tolerance.
"""

import math
import subprocess
import sys
from functools import partial
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisyqaoa import (
    QaoaParams,
    build_circuit,
    cost_exact,
    exact_noisy_evaluator,
    gradient_descent,
    ideal_evaluator,
    make_channel,
    problem_hamiltonian,
    random_init,
)
from noisyqaoa import qaoa
from noisyqaoa.gradopt import Gradient
from noisyqaoa.qaoa import (
    GateSequence,
    QaoaGate,
    _channel_on,
    _layout,
    adjoint_gradient_ideal,
    adjoint_gradient_noisy,
    run_ideal,
    with_shifted_gate,
)
from noisyqaoa.statevector import _pair_table, bit_flips, mix, plus_state, rotate_pairs, sector_position, zz_parities
from test_cost_cone import KINDS, channel_at, variants
from test_even_sector import amplitude_damping
from test_ideal_oracle import graphs

STRENGTHS = (0.0, 1e-4, 0.02, 0.3)


def gate_sweep(circuit, channel):
    """The noisy forward sweep read gate by gate from the QaoaGate records:
    (r, scales, pairs, sigmas), as the package's _noisy_sweep with store."""
    m = circuit.num_qubits
    scales = channel.ptm_scales(m)
    pairs = [_pair_table(m, gate.targets, scales is not None) for gate in circuit.gates]
    r = np.zeros((4,) * (m - 1) + (4 if scales is None else 2,))
    r[(slice(0, 2),) * m] = 1.0
    r, spare = r.reshape(-1), np.empty(r.size)
    sigmas = np.empty((len(pairs), 2, r.size // 4))
    for k, (gate, idx) in enumerate(zip(circuit.gates, pairs)):
        sigmas[k] = rotate_pairs(r, idx, 2.0 * gate.weight * gate.angle)
        r, spare = _channel_on(r, spare, channel.ptm, scales, gate.targets)
    return r, scales, pairs, sigmas


def gate_noisy_adjoint(circuit, h, channel):
    """(cost, d_gamma, d_beta) of the full-width adjoint over gate_sweep."""
    n = 1 + max(g.step for g in circuit.gates)
    r, scales, pairs, sigmas = gate_sweep(circuit, channel)
    position = int if scales is None else sector_position
    terms = [(position(3 * (4 ** i + 4 ** j)), w) for i, j, w in h.terms]
    cost = float(sum(w * r[k] for k, w in terms))
    e, spare = np.zeros(r.size), np.empty(r.size)
    for k, w in terms:
        e[k] += w
    grads = {"gamma": np.zeros(n), "beta": np.zeros(n)}
    for gate, idx, sigma in zip(reversed(circuit.gates), reversed(pairs), sigmas[::-1]):
        e, spare = _channel_on(e, spare, channel.ptm.T, scales, gate.targets)
        E = e[idx]
        term = np.einsum("i,i->", E[1], sigma[0]) - np.einsum("i,i->", E[0], sigma[1])
        grads[gate.param][gate.step] += 2.0 * gate.weight * term
        rotate_pairs(e, idx, -2.0 * gate.weight * gate.angle, E)
    return cost, grads["gamma"], grads["beta"]


def gate_ideal_adjoint(circuit, h):
    """(cost, d_gamma, d_beta) of the fused pure-state adjoint, its runs of
    edge gates and of mixers grouped from the QaoaGate records, and the
    cost as exact_expectation reads it from the output state."""
    m, n = circuit.num_qubits, 1 + max(g.step for g in circuit.gates)
    ops, steps, w, theta = [], [], [], []
    for param, run in groupby(circuit.gates, key=attrgetter("param")):
        targets, run_steps, _, run_w, run_theta = zip(*run)
        table = zz_parities(m, targets) if param == "gamma" else bit_flips(m, targets)
        ops.append((param, table, slice(len(steps), len(steps) + len(targets))))
        steps, w, theta = steps + list(run_steps), w + list(run_w), theta + list(run_theta)
    w, theta, steps = np.array(w), np.array(theta), np.array(steps)
    psi, phases = plus_state(m).amplitudes, []
    for param, table, rows in ops:
        if param == "gamma":
            phases.append(np.exp(-1j * ((w * theta)[rows] @ table)))
            psi *= phases[-1]
        else:
            mix(psi, table, theta.tolist()[rows])
    expectation = float((np.abs(psi) ** 2) @ h.energies)
    S = np.array([psi, h.energies * psi])
    cost = float(np.vdot(S[0], S[1]).real)
    grads = {"gamma": np.zeros(n), "beta": np.zeros(n)}
    for param, table, rows in reversed(ops):
        if param == "gamma":
            terms = (2.0 * w)[rows] * (table @ (S[1].conj() * S[0]).imag)
            S *= phases.pop().conj()
        else:
            terms = -2.0 * (S[0][table] @ S[1].conj()).imag
            mix(S, table, (-theta).tolist()[rows])
        np.add.at(grads[param], steps[rows], terms)
    return cost, grads["gamma"], grads["beta"], expectation


def same(a, b):
    """Equal (cost, d_gamma, d_beta) triples, bit for bit."""
    return a[0] == b[0] and all(np.asarray(x).tobytes() == np.asarray(y).tobytes() for x, y in zip(a[1:], b[1:]))


def assert_layout_paths(graph, n, channel, rng):
    """The whole circuit, a shifted copy on its kept layout, and a cut and
    an edge-ending copy built from its records, against the gate sweeps."""
    h = problem_hamiltonian(graph)
    params = QaoaParams(rng.uniform(-np.pi, np.pi, n), rng.uniform(-np.pi, np.pi, n))
    evaluator = exact_noisy_evaluator(graph, channel)
    for name, circuit in variants(build_circuit(graph, params), rng).items():
        noisy, ideal = gate_noisy_adjoint(circuit, h, channel), gate_ideal_adjoint(circuit, h)
        assert same(adjoint_gradient_noisy(circuit, h, channel), noisy), name
        assert same(adjoint_gradient_ideal(circuit, h), ideal[:3]), name
        assert cost_exact(circuit, h, channel) == noisy[0], name
        assert cost_exact(circuit, h) == ideal[3], name
        # the evaluator keeps the last layout's work: twice, so the
        # second call reuses the sigma stack without clearing it
        for _ in range(2):
            assert same(evaluator.adjoint(circuit), noisy), name


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table1_layout_path_is_the_gate_path(table1, n, kind):
    rng = np.random.default_rng(300 * n + KINDS.index(kind))
    for p in STRENGTHS:
        assert_layout_paths(table1, n, channel_at(kind, p, rng), rng)


@given(graph=graphs(), n=st.integers(1, 3), kind=st.sampled_from(KINDS), p=st.sampled_from(STRENGTHS),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_layout_path_is_the_gate_path(graph, n, kind, p, seed):
    rng = np.random.default_rng(seed)
    assert_layout_paths(graph, n, channel_at(kind, p, rng), rng)


def test_other_channels_take_the_layout_path_too(table1, table1_h):
    rng = np.random.default_rng(9)
    channel = amplitude_damping(rng)
    for name, circuit in variants(build_circuit(table1, QaoaParams([0.3, -0.2], [0.5, 0.1])), rng).items():
        want = gate_noisy_adjoint(circuit, table1_h, channel)
        assert same(adjoint_gradient_noisy(circuit, table1_h, channel), want), name
        assert cost_exact(circuit, table1_h, channel) == want[0], name


def fresh_circuit(graph, params):
    """build_circuit's circuit on a layout derived from its records, not
    the kept one."""
    return GateSequence.of_gates(graph.num_nodes, build_circuit(graph, params).gates)


def build_circuit_descent(graph, init, make_evaluator, learning_rate, num_iters):
    """gradient_descent's records, from a loop that builds a fresh circuit
    and a fresh evaluator every iteration."""
    params, records = init, []
    for _ in range(num_iters):
        cost, d_gamma, d_beta = make_evaluator().adjoint(fresh_circuit(graph, params))
        records.append((params, cost, Gradient(d_gamma, d_beta).norm()))
        if records[-1][2] < 1e-6:
            break
        params = QaoaParams(params.gamma - learning_rate * d_gamma, params.beta - learning_rate * d_beta)
    if records[-1][0] is not params:
        cost, d_gamma, d_beta = make_evaluator().adjoint(fresh_circuit(graph, params))
        records.append((params, cost, Gradient(d_gamma, d_beta).norm()))
    return records


@pytest.mark.parametrize("channel", [None, "dephasing", "depolarizing", "damping"])
@pytest.mark.parametrize("n", [1, 3])
def test_descent_traces_are_the_build_circuit_loop(table1, n, channel):
    if channel is None:
        make = partial(ideal_evaluator, table1)
    else:
        ch = amplitude_damping(np.random.default_rng(5)) if channel == "damping" else make_channel(channel, 0.02)
        make = partial(exact_noisy_evaluator, table1, ch)
    init = random_init(n, np.random.default_rng(n))
    trace = gradient_descent(table1, init, make(), 0.05, 12)
    want = build_circuit_descent(table1, init, make, 0.05, 12)
    assert len(trace.iterations) == len(want)
    for rec, (params, cost, norm) in zip(trace.iterations, want):
        assert rec.params.gamma.tobytes() == params.gamma.tobytes()
        assert rec.params.beta.tobytes() == params.beta.tobytes()
        assert rec.cost == cost and rec.grad_norm == norm


def test_exact_descents_build_no_gate_records(table1, monkeypatch):
    def refuse(*args):
        raise AssertionError("an exact descent built QaoaGate records")

    monkeypatch.setattr(GateSequence, "gates", property(refuse))
    init = QaoaParams([0.1, 0.2], [0.3, 0.1])
    for evaluator in (ideal_evaluator(table1), exact_noisy_evaluator(table1, make_channel("bitflip", 0.01))):
        assert len(gradient_descent(table1, init, evaluator, 0.02, 5).iterations) == 6


def test_evaluator_rebuilds_its_work_for_a_new_layout(table1, table1_h):
    # a plan for one step count does not serve a longer circuit, so the
    # evaluator must notice the layout changing, whichever path built it
    channel = make_channel("dephasing", 0.02)
    evaluator = exact_noisy_evaluator(table1, channel)
    for params in ([0.2], [0.1, -0.4], [0.3], [0.5, 0.2], [-0.1, 0.6, 0.2]):
        params = QaoaParams(params, params[::-1])
        want = gate_noisy_adjoint(build_circuit(table1, params), table1_h, channel)
        for circuit in (build_circuit(table1, params), fresh_circuit(table1, params)):
            assert same(evaluator.adjoint(circuit), want)


def test_evaluations_derive_no_layout(table1, table1_h, monkeypatch):
    # build_circuit's circuits and their shifted copies carry the kept
    # layout, so no evaluation derives one
    channels = [None, make_channel("depolarizing", 0.01), amplitude_damping(np.random.default_rng(4))]
    circuits = []
    for params in (QaoaParams([0.2], [0.4]), QaoaParams([0.1, -0.3], [0.5, 0.2])):
        circuit = build_circuit(table1, params)
        circuits += [circuit, with_shifted_gate(circuit, 3, 0.25)]

    def refuse(*args):
        raise AssertionError("an evaluation derived a layout")

    monkeypatch.setattr(qaoa, "_build_layout", refuse)
    for circuit in circuits:
        run_ideal(circuit)
        adjoint_gradient_ideal(circuit, table1_h)
        for channel in channels:
            cost_exact(circuit, table1_h, channel)
            if channel is not None:
                adjoint_gradient_noisy(circuit, table1_h, channel)


class TestLayout:
    def test_built_once_per_structure(self, table1):
        _layout.cache_clear()
        for n in (1, 2):
            gradient_descent(table1, random_init(n, np.random.default_rng(0)), ideal_evaluator(table1), 0.02, 4)
            gradient_descent(table1, random_init(n, np.random.default_rng(1)),
                             exact_noisy_evaluator(table1, make_channel("depolarizing", 0.01)), 0.02, 4)
        assert _layout.cache_info().misses == 2
        a = build_circuit(table1, QaoaParams([0.1], [0.2])).layout
        assert build_circuit(table1, QaoaParams([-0.4], [0.9])).layout is a
        assert build_circuit(table1, QaoaParams([0.1, 0.3], [0.2, 0.4])).layout is not a

    def test_read_only(self, table1):
        layout = build_circuit(table1, QaoaParams([0.1, 0.3], [0.2, 0.4])).layout
        arrays = [layout.w, layout.w2, layout.steps, layout.edge, layout.slots] + [t for _, t, _ in layout.ops]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[..., 0] = 0
        with pytest.raises(AttributeError):
            layout.n = 3
        assert isinstance(layout.targets, tuple) and all(isinstance(t, tuple) for t in layout.targets)

    def test_is_build_circuit_structure(self, table1):
        # the records of the alternating edge/mixer list, built one by one
        params = QaoaParams([0.1, -0.3], [0.2, 0.7])
        seq, m = build_circuit(table1, params), table1.num_nodes
        want = []
        for k, (gamma, beta) in enumerate(zip(params.gamma.tolist(), params.beta.tolist())):
            want += [QaoaGate((i, j), k, "gamma", w, gamma) for i, j, w in sorted(table1.edges)]
            want += [QaoaGate((q,), k, "beta", 1.0, beta) for q in range(m)]
        assert seq.gates == tuple(want)
        assert (seq.num_qubits, seq.gate_count) == (m, len(want))
        assert seq.theta.tobytes() == np.array([g.angle for g in want]).tobytes()
        rebuilt = GateSequence.of_gates(m, seq.gates)
        assert rebuilt.gates == seq.gates and rebuilt.theta.tobytes() == seq.theta.tobytes()

    def test_built_on_first_use(self):
        # nothing is compiled at import: a fresh interpreter has empty caches
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import noisyqaoa.qaoa as q; "
                "i = q._layout.cache_info(); assert i.currsize == 0 and q._cone_plan.cache_info().currsize == 0, i")
        src = str(Path(qaoa.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code, src], check=True)


def four_op_rotation(values, phi):
    """rotate_pairs' earlier arithmetic: (c A - s B, c B + s A) in four ops."""
    c, s = math.cos(phi), math.sin(phi)
    new = np.multiply(values, c)
    new[0] -= s * values[1]
    new[1] += s * values[0]
    return new


@pytest.mark.parametrize("K", [1, 7, 53, 2048])
def test_two_op_rotation_is_the_four_op_rotation(K):
    rng = np.random.default_rng(K)
    extremes = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.0, -1.0])
    for _ in range(50):
        values = rng.standard_normal((2, K)) * 10.0 ** rng.integers(-300, 300, (2, K))
        mask = rng.random((2, K)) < 0.3
        values[mask] = rng.choice(extremes, mask.sum())
        phi = float(rng.choice([0.0, -0.0, math.pi / 2, math.pi, rng.uniform(-10.0, 10.0)]))
        r = np.zeros(2 * K)
        pairs = rng.permutation(2 * K).reshape(2, K)
        r[pairs] = values
        got = rotate_pairs(r, pairs, phi)
        want = four_op_rotation(values, phi)
        assert got.tobytes() == want.tobytes()
        assert r[pairs].tobytes() == want.tobytes()
