"""The trajectory tree against the row-by-row trajectory loop it replaced,
and its Pauli fault images against apply_1q.

For a unitary-mixture channel, trajectory_states evolves each distinct
fault history once, on a tree of shared prefixes, and cost_sampled takes
each distinct final state's marginal once. Every kernel acts on each row
alone, so the tree must reproduce the loop that evolves every faulty row
from the start bit for bit: the states are compared with
np.array_equal, and the sampled costs with ==.
"""

import math
import sys

import numpy as np
import pytest

from noisyqaoa import (
    QaoaParams,
    WeightedGraph,
    build_circuit,
    cost_sampled,
    make_channel,
    problem_hamiltonian,
    table1_graph,
    trajectory_states,
)
from noisyqaoa.noise import CPTP_TOL, custom_channel
from noisyqaoa import qaoa
from noisyqaoa.qaoa import (
    _distinct, _fault_events, _fault_tables, _pauli_form, _select_branches, _select_per_state, noise_event_count,
)
from noisyqaoa.statevector import apply_1q, gate_on

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1j], [1j, 0.0]])
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)
ROTATION = math.cos(0.3) * I2 - 1j * math.sin(0.3) * Y  # exp(-0.3i Y)

PAULI_KINDS = ("dephasing", "bitflip", "depolarizing")
TRIANGLE = WeightedGraph(3, ((0, 1, 1.0), (0, 2, -0.6), (1, 2, 0.8)))

CUSTOM = {
    # the identity is the second branch, so faults sit on both sides of it
    "identity-second": custom_channel([math.sqrt(0.1) * X, math.sqrt(0.85) * I2, math.sqrt(0.05) * Z]),
    # a zero operator has weight 0 and is never picked
    "zero-weight-branch": custom_channel([math.sqrt(0.8) * I2, np.zeros((2, 2)), math.sqrt(0.2) * Y]),
    # no identity branch: every uniform goes through the full selection
    "no-identity": custom_channel([math.sqrt(0.6) * X, math.sqrt(0.4) * Z]),
    # weights 0.95 + 0.05 sum to just below 1 in floating point
    "mixture-cdf-below-one": custom_channel(
        [math.sqrt(0.95) * I2, math.sqrt(0.05) * Z, np.zeros((2, 2))]),
    # a fault that is not a Pauli: its images come from apply_1q
    "rotation": custom_channel([math.sqrt(0.9) * I2, math.sqrt(0.1) * ROTATION]),
    # a Pauli and a non-Pauli fault in one event
    "pauli-and-rotation": custom_channel(
        [math.sqrt(0.85) * I2, math.sqrt(0.1) * ROTATION, math.sqrt(0.05) * Y]),
}


def faults_of(channel):
    weights, unitaries = channel.unitary_mixture
    return weights, unitaries, [l for l, U in enumerate(unitaries) if np.abs(U - I2).max() > CPTP_TOL]


def reference_states(circuit, channel, uniforms):
    """The row-by-row loop: every branch is picked from the full (T, events)
    comparison, row 0 stands for every error-free trajectory, and each
    faulty row evolves from the start."""
    m = circuit.num_qubits
    events = noise_event_count(circuit)
    weights, unitaries, faults = faults_of(channel)
    branches = _select_branches(weights[:, None, None], uniforms)
    faulty = np.flatnonzero(np.isin(branches, faults).any(axis=1))
    picks = np.vstack([np.full(events, -1), branches[faulty]])
    states = np.full((len(picks), 1 << m), 2.0 ** (-m / 2.0), dtype=complex)
    col = 0
    for gate in circuit.gates:
        gate_on(states, gate, m)
        for q in gate.targets:
            for l in faults:
                rows = np.flatnonzero(picks[:, col] == l)
                if rows.size:
                    states[rows] = apply_1q(states[rows], unitaries[l], q)
            col += 1
    out = np.empty((len(uniforms), 1 << m), dtype=complex)
    out[:] = states[0]
    out[faulty] = states[1:]
    return out


def reference_cost(circuit, h, channel, shots, rng):
    """cost_sampled with one marginal per row of reference_states."""
    m = circuit.num_qubits
    events = noise_event_count(circuit)
    estimate, per_edge = 0.0, []
    for i, j, w in h.terms:
        states = reference_states(circuit, channel, rng.random((shots, events)))
        pr = np.abs(states) ** 2
        t = np.moveaxis(pr.reshape((shots,) + (2,) * m), (1 + m - 1 - i, 1 + m - 1 - j), (1, 2))
        probs4 = t.reshape(shots, 4, -1).sum(axis=2)
        outcomes = _select_branches(probs4.T, rng.random(shots))
        p_ij = float(np.mean((outcomes == 0) | (outcomes == 3)))
        per_edge.append(((i, j), p_ij))
        estimate += w * (2.0 * p_ij - 1.0)
    return estimate, per_edge


def circuit(graph, n, seed):
    rng = np.random.default_rng(seed)
    return build_circuit(graph, QaoaParams(rng.normal(size=n), rng.normal(size=n)))


CHANNELS = [(f"{kind}-{p:g}", make_channel(kind, p)) for kind in PAULI_KINDS for p in (0.0, 1e-4, 0.02, 0.3)]
CHANNELS += list(CUSTOM.items())


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name, channel", CHANNELS, ids=[name for name, _ in CHANNELS])
def test_tree_states_equal_the_row_loop(name, channel, n):
    seq = circuit(table1_graph(), n, seed=n)
    T = 600
    uniforms = np.random.default_rng(17).random((T, noise_event_count(seq)))
    assert np.array_equal(trajectory_states(seq, channel, T, uniforms=uniforms),
                          reference_states(seq, channel, uniforms))


@pytest.mark.parametrize("name, channel", CHANNELS, ids=[name for name, _ in CHANNELS])
def test_sampled_cost_equals_the_row_loop(name, channel):
    graph = table1_graph()
    h = problem_hamiltonian(graph)
    seq = circuit(graph, 2, seed=3)
    assert cost_sampled(seq, h, channel, 300, np.random.default_rng(8)) == reference_cost(
        seq, h, channel, 300, np.random.default_rng(8))


@pytest.mark.parametrize("kind", PAULI_KINDS)
def test_buffer_compacts_and_stays_equal(kind):
    # the live-state buffer holds at most 1 + 2T states, and the tree makes
    # one state per distinct fault history that ends in a fault; with more
    # of those than 2T it must drop the states no row points at on the way
    seq = circuit(TRIANGLE, 2, seed=5)
    channel = make_channel(kind, 0.6)
    T = 400
    uniforms = np.random.default_rng(23).random((T, noise_event_count(seq)))
    weights, _, faults = faults_of(channel)
    branches = _select_branches(weights[:, None, None], uniforms)
    history = np.where(np.isin(branches, faults), branches, -1)
    made = sum(len(np.unique(history[history[:, col] >= 0, :col + 1], axis=0))
               for col in range(history.shape[1]))
    assert made > 2 * T
    assert np.array_equal(trajectory_states(seq, channel, T, uniforms=uniforms),
                          reference_states(seq, channel, uniforms))


@pytest.mark.parametrize("name, channel", CHANNELS, ids=[name for name, _ in CHANNELS])
def test_fault_first_selection_equals_the_full_rule(name, channel):
    weights, _, faults = faults_of(channel)
    rng = np.random.default_rng(31)
    cdf = np.cumsum(weights)
    # random uniforms, the cdf's own values and their neighbours, and the
    # largest uniform below 1, which can sit at or above a total that
    # rounds below 1
    edges = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
                            [0.0, np.nextafter(1.0, 0.0)]])
    edges = edges[(edges >= 0.0) & (edges < 1.0)]
    uniforms = np.concatenate([rng.random(400), edges, rng.choice(edges, 200)]).reshape(-1, 1)
    uniforms = np.hstack([uniforms, rng.permutation(uniforms)])
    assert_events_follow_the_full_rule(weights, faults, uniforms)


def assert_events_follow_the_full_rule(weights, faults, uniforms):
    branches = _select_branches(weights[:, None, None], uniforms)
    got = _fault_events(weights, faults, uniforms)
    assert len(got) == uniforms.shape[1]
    for col, (rows, picks) in enumerate(got):
        want = np.flatnonzero(np.isin(branches[:, col], faults))
        assert np.array_equal(rows, want) and np.array_equal(picks, branches[want, col])
    return got


def has_identity_and_pickable_fault(channel):
    weights, _, faults = faults_of(channel)
    return len(faults) < len(weights) and any(weights[l] > 0.0 for l in faults)


EDGE_CHANNELS = [(name, channel) for name, channel in CHANNELS if has_identity_and_pickable_fault(channel)]


@pytest.mark.parametrize("T", [1, 3])
@pytest.mark.parametrize("name, channel", EDGE_CHANNELS, ids=[name for name, _ in EDGE_CHANNELS])
def test_fault_events_at_the_first_and_last_event_and_around_empty_ones(name, channel, T):
    # the faults are found on the row-major (T, events) uniforms and then
    # ordered by event, so the first and the last column, a column with no
    # fault between two with faults, and a single row must all come out
    # in event order with their rows ascending
    weights, _, faults = faults_of(channel)
    cdf = np.concatenate([[0.0], np.cumsum(weights)])
    mid = (cdf[:-1] + cdf[1:]) / 2.0
    identity = next(l for l in range(len(weights)) if l not in faults)
    picked = [l for l in faults if weights[l] > 0.0]
    uniforms = np.full((T, 5), mid[identity])
    uniforms[:, 0] = mid[picked[0]]
    uniforms[:, 4] = mid[picked[-1]]
    uniforms[-1, 2] = mid[picked[len(picked) // 2]]
    got = assert_events_follow_the_full_rule(weights, faults, uniforms)
    assert [rows.size for rows, _ in got] == [T, 0, 1, 0, T]
    assert np.array_equal(got[0][0], np.arange(T)) and np.array_equal(got[2][0], [T - 1])


@pytest.mark.parametrize("count, bound", [(0, 1), (1, 1), (3, 3), (75, 1200), (5000, 401)])
def test_counting_grouping_equals_unique(count, bound):
    # the tree numbers each event's new states by counting on a table of
    # bound flags; the numbering must be np.unique's, keys sorted
    keys = np.random.default_rng(count).integers(0, bound, count)
    keys[:min(count, 2)] = (0, bound - 1)[:min(count, 2)]
    distinct, inverse = _distinct(keys, bound)
    want, want_inverse = np.unique(keys, return_inverse=True)
    assert np.array_equal(distinct, want) and np.array_equal(inverse, want_inverse)


def test_per_state_draw_equals_the_full_rule():
    # cost_sampled draws each shot's outcome from its state's cdf, taken
    # once per state; it must pick what _select_branches picks on the
    # gathered marginals, rounding fallback included: a uniform at or above
    # a state's total picks its last branch of nonzero probability
    probs = np.array([
        [0.3, 0.0, 0.0, 0.0],  # totals below 1, with last nonzero branch 0,
        [0.2, 0.3, 0.0, 0.0],  # 1,
        [0.1, 0.0, 0.4, 0.0],  # 2
        [0.1, 0.2, 0.3, 0.3],  # and 3
        [0.0, 0.5, 0.0, 0.5],  # zero-probability outcomes first and between
        [0.5, 0.4, 0.0, 1e-16],  # a last entry below the nonzero cutoff
        [0.7, 0.1, 0.1, 0.1],  # a total that rounds below 1
        [0.0, 0.0, 0.0, 0.0],
    ])
    cdf = np.cumsum(probs, axis=1)
    rng = np.random.default_rng(3)
    index, r = [], []
    for s, row in enumerate(cdf):
        # each cdf entry exactly, its neighbours, 0, the largest uniform
        # below 1, points above the total and random uniforms
        u = np.concatenate([row, np.nextafter(row, 0.0), np.nextafter(row, 1.0), [0.0, np.nextafter(1.0, 0.0)],
                            row[-1] + (1.0 - row[-1]) * rng.random(5), rng.random(20)])
        u = u[(u >= 0.0) & (u < 1.0)]
        index += [s] * u.size
        r.append(u)
    index, r = np.array(index), np.concatenate(r)
    order = rng.permutation(r.size)
    index, r = index[order], r[order]
    want = _select_branches(probs[index].T, r)
    assert np.array_equal(_select_per_state(probs, index, r), want)
    # every state with a total below 1 met the fallback, which picked each
    # of the four branches somewhere
    fallback = r >= cdf[index, -1]
    assert set(index[fallback]) == set(np.flatnonzero(cdf[:, -1] < 1.0)) == {0, 1, 2, 3, 5, 6, 7}
    assert set(want[fallback]) == {0, 1, 2, 3}


def test_uniform_below_one_picks_no_fault_when_the_last_nonzero_branch_is_the_identity():
    # weights (0.05, 0.95): the identity comes last and the cdf rounds
    # below 1, so the largest uniform falls back to the identity branch
    channel = custom_channel([math.sqrt(0.05) * Z, math.sqrt(0.95) * I2])
    weights, _, faults = faults_of(channel)
    assert faults == [0]
    r = np.nextafter(1.0, 0.0)
    assert _select_branches(weights[:, None], np.array([r]))[0] == 1
    events = _fault_events(weights, faults, np.full((3, 4), r))
    assert len(events) == 4 and all(rows.size == picks.size == 0 for rows, picks in events)


def random_states(rng, shape):
    """Complex amplitudes with about a third of the real and imaginary
    parts exactly zero, some of them negative zeros."""
    re, im = rng.normal(size=shape), rng.normal(size=shape)
    for part in (re, im):
        part[rng.random(shape) < 0.3] = 0.0
        part[rng.random(shape) < 0.1] = -0.0
    return re + 1j * im


def image(m, q, U, psi):
    """U on qubit q of each row of psi, as the tree makes a Pauli fault's image."""
    source, phase = _fault_tables(m, q, (_pauli_form(U),))
    return psi[:, source[0]] * phase[0]


@pytest.mark.parametrize("p", [1e-4, 0.02, 0.3, 1.0])
@pytest.mark.parametrize("kind", PAULI_KINDS)
def test_named_channel_faults_are_exact_paulis(kind, p):
    # every fault that can be picked (weight > 0) is X, Y or Z to the bit,
    # so the tree makes its images by gather, equal to apply_1q's
    weights, unitaries, faults = faults_of(make_channel(kind, p))
    picked = [unitaries[l] for l in faults if weights[l] > 0.0]
    assert len(picked) == (3 if kind == "depolarizing" else 1)
    psi = random_states(np.random.default_rng(5), (8, 8))
    for U in picked:
        assert any(np.array_equal(U, P) for P in (X, Y, Z))
        for q in range(3):
            assert np.array_equal(image(3, q, U, psi), apply_1q(psi, U, q))


@pytest.mark.parametrize("m", range(1, 7))
def test_pauli_images_equal_apply_1q(m):
    psi = random_states(np.random.default_rng(m), (40, 1 << m))
    for P in (X, Y, Z, -X, 1j * Z):
        for q in range(m):
            assert np.array_equal(image(m, q, P, psi), apply_1q(psi, P, q))


def test_only_unit_monomials_have_a_pauli_form():
    assert _pauli_form(X) == ((1, 0), (1, 1)) and _pauli_form(Y) == ((1, 0), (-1j, 1j))
    for U in (ROTATION, np.zeros((2, 2)), 0.5 * X, np.diag([1.0, np.exp(0.1j)]), np.ones((2, 2))):
        assert _pauli_form(U) is None


def test_tree_runs_one_unique_per_faulting_event(monkeypatch):
    # one counting grouping (_distinct, in place of np.unique) numbers each
    # event's new states; any more are buffer compactions, and a compaction
    # needs at least T more faulting rows than the last (the buffer holds
    # 1 + 2T states, at most T survive)
    seq = circuit(TRIANGLE, 2, seed=5)
    channel = make_channel("depolarizing", 0.3)
    T = 200
    uniforms = np.random.default_rng(41).random((T, noise_event_count(seq)))
    weights, _, faults = faults_of(channel)
    events = _fault_events(weights, faults, uniforms)
    faulting = sum(rows.size > 0 for rows, _ in events)
    fault_rows = sum(rows.size for rows, _ in events)
    assert fault_rows > 2 * T
    calls = {"unique": 0, "distinct": 0, "apply_1q": 0}

    def counted(name, f):
        def wrapper(*args, **kw):
            if sys._getframe(1).f_code.co_name == "_trajectory_tree":
                calls[name] += 1
            return f(*args, **kw)
        return wrapper

    monkeypatch.setattr(np, "unique", counted("unique", np.unique))
    monkeypatch.setattr(qaoa, "_distinct", counted("distinct", qaoa._distinct))
    monkeypatch.setattr(qaoa, "apply_1q", counted("apply_1q", qaoa.apply_1q))
    states = trajectory_states(seq, channel, T, uniforms=uniforms)
    monkeypatch.undo()
    assert calls["unique"] == 0
    assert faulting < calls["distinct"] <= faulting + fault_rows // T
    assert calls["apply_1q"] == 0
    assert np.array_equal(states, reference_states(seq, channel, uniforms))
