"""Property tests for ``lower_to_ngs``, the rewrite passes and the JSON
round trip, on the random circuits and annotated builds of
``test_route_properties.py`` (same strategies, same derandomized settings).

The lowering and the passes must keep the unitary exactly, global phase
included: the lowered circuit times e^(i global_phase) is the source
unitary, not just equal to it up to phase.  On the builds, AQFT-truncated
ones included, the lowering also keeps at most one Rz on each parity of path
variables (phase folding), and so at most one in each Z-basis run of a
wireline (its Rz and CX controls between two X-basis gates).  A tracker local
to these tests names the parities with ids that are never reused, so it
checks the lowering's recycled ids independently.  On random H, U2, CU2 and
CX circuits, whose single-qubit runs merge, the lowering never spends more
CX, SX and X than the gates lowered alone would; CX go only in cancelling
pairs.  The commutation-aware scheduler emits the gate order of the
reference scheduler in ``tests/oracles.py``, on random native lists and on
what lowering hands it from the builds.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_route_properties import ANGLES, SETTINGS, annotated_builds, unannotated_circuits

from qftmcu import layout
from qftmcu.circuit import Circuit, Gate, cu2, cx, from_json, h, rz, to_json, u2, x
from qftmcu.gate_algebra import root, u2_mat, zyz_decompose
from qftmcu.layout import NATIVE_KINDS, _commute_schedule, lower_to_ngs, route_lnn
from qftmcu.optimizer import (
    cancel_cx_pairs,
    cancel_x_pair,
    collapse_cx,
    ldd_to_qft,
    merge_phase_columns,
)
from qftmcu.verifier import circuit_unitary
from tests.oracles import heap_commute_schedule


def _apply(rewrite, circ):
    """The pass's output; a refusal (``ValueError``) leaves the circuit as it is."""
    try:
        return rewrite(circ)
    except ValueError:
        return circ


@SETTINGS
@given(unannotated_circuits())
def test_lowering_is_native_and_exact_with_its_phase(circ):
    nc = lower_to_ngs(circ)
    assert {g.kind for g in nc.gates} <= set(NATIVE_KINDS)
    got = circuit_unitary(nc) * np.exp(1j * nc.global_phase)
    assert np.abs(got - circuit_unitary(circ)).max() < 1e-10


# What each kind costs when it lowers alone: (CX, SX + X).
ALONE = {"H": (0, 1), "U2": (0, 2), "CU2": (2, 4), "CX": (1, 0)}


@st.composite
def merging_circuits(draw):
    """H, U2, CU2 and CX on 2-3 wirelines, the kinds whose runs merge.  Half
    the CU2 carry a root of one shared payload (deep roots included), so
    neighbouring roots share an eigenbasis the way a ladder's do."""
    n = draw(st.integers(2, 3))
    payload = u2_mat(*(draw(ANGLES) for _ in range(4)))
    out = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("H", "U2", "CU2", "CU2", "CX")))
        t, c = draw(st.permutations(range(1, n + 1)))[:2]
        if kind == "H":
            out.append(h(t))
        elif kind == "U2":
            out.append(u2(tuple(draw(ANGLES) for _ in range(4)), t))
        elif kind == "CX":
            out.append(cx(c, t))
        elif draw(st.booleans()):
            m = draw(st.sampled_from((1, 2, 3, 5, 30)))
            out.append(cu2(zyz_decompose(root(payload, m)), c, t))
        else:
            out.append(cu2(tuple(draw(ANGLES) for _ in range(4)), c, t))
    return Circuit(n, out)


@SETTINGS
@given(merging_circuits())
def test_merged_runs_are_exact_and_never_cost_more(circ):
    nc = lower_to_ngs(circ)
    got = circuit_unitary(nc) * np.exp(1j * nc.global_phase)
    assert np.abs(got - circuit_unitary(circ)).max() < 1e-12
    counts = nc.counts()
    alone = sum(ALONE[g.kind][0] for g in circ.gates)
    assert counts["CX"] <= alone and (alone - counts["CX"]) % 2 == 0
    assert counts["SX"] + counts["X"] <= sum(ALONE[g.kind][1] for g in circ.gates)


def _rz_per_z_run(gates, w):
    """How many Rz each Z-basis run of wireline w holds."""
    runs = [0]
    for g in gates:
        if g.kind == "Rz" and g.target == w:
            runs[-1] += 1
        elif g.target == w:
            runs.append(0)
    return runs


@pytest.mark.parametrize("routed", [False, True], ids=["fc", "lnn"])
@SETTINGS
@given(circ=annotated_builds())
def test_lowered_builds_are_exact_with_one_rz_per_z_run(routed, circ):
    if routed:
        circ = route_lnn(circ)
    nc = lower_to_ngs(circ)
    got = circuit_unitary(nc) * np.exp(1j * nc.global_phase)
    assert np.abs(got - circuit_unitary(circ)).max() < 1e-10
    for w in range(1, nc.n + 1):
        assert max(_rz_per_z_run(nc.gates, w)) <= 1, w


def _rz_parities(nc):
    """The parity each Rz of a native circuit acts on, constant dropped, in
    gate order.  Wireline w starts on variable w and every SX opens a new
    variable; no id is ever reused."""
    par = [1 << w for w in range(nc.n + 1)]
    fresh = nc.n + 1
    out = []
    for g in nc.gates:
        if g.kind == "CX":
            par[g.target] ^= par[g.control]
        elif g.kind == "X":
            par[g.target] ^= 1
        elif g.kind == "SX":
            par[g.target] = 1 << fresh
            fresh += 1
        else:
            out.append(par[g.target] >> 1)
    return out


def _one_rz_per_parity(nc):
    keys = _rz_parities(nc)
    return len(set(keys)) == len(keys)


@pytest.mark.parametrize("routed", [False, True], ids=["fc", "lnn"])
@SETTINGS
@given(circ=annotated_builds())
def test_lowered_builds_keep_one_rz_per_parity(routed, circ):
    nc = lower_to_ngs(route_lnn(circ) if routed else circ)
    assert _one_rz_per_parity(nc)


def test_phase_folding_recycles_ids_exactly():
    # Random {CX, Rz, SX, X} on 3 wirelines with over 300 SX: the lowering
    # frees the ids of dead variables many times over, and must stay exact
    # and still keep one Rz per parity.
    rng = np.random.default_rng(2014)
    gates = []
    for _ in range(2000):
        a, b = (int(v) for v in rng.permutation([1, 2, 3])[:2])
        kind = rng.choice(["CX", "CX", "Rz", "Rz", "SX", "X"])
        angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        gates.append({"CX": cx(a, b), "Rz": rz(angle, a), "SX": Gate("SX", a), "X": x(a)}[kind])
    assert sum(g.kind == "SX" for g in gates) >= 300
    circ = Circuit(3, gates)
    nc = lower_to_ngs(circ)
    got = circuit_unitary(nc) * np.exp(1j * nc.global_phase)
    assert np.abs(got - circuit_unitary(circ)).max() < 1e-10
    assert _one_rz_per_parity(nc)
    assert sum(g.kind == "Rz" for g in nc.gates) < sum(g.kind == "Rz" for g in gates)


@st.composite
def native_lists(draw):
    """{CX, Rz, SX, X} on 2-6 wirelines, the CX drawn from up to three
    wireline pairs: many gates tie on their start, and several ready gates
    share one wire tuple (Rz runs on a wire, CX with a common control or a
    common target)."""
    n = draw(st.integers(2, 6))
    pairs = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=3))
    gates = []
    for kind in draw(st.lists(st.sampled_from(["CX", "CX", "Rz", "Rz", "SX", "X"]), max_size=60)):
        if kind == "CX":
            c, t = draw(st.sampled_from(pairs))[:2]
            gates.append(cx(c, t))
        else:
            w = draw(st.integers(1, n))
            gates.append(rz(draw(ANGLES), w) if kind == "Rz" else Gate(kind, w))
    return gates, n


def _same_order_as_reference(gates, n) -> bool:
    # By identity: equal gates (two CX on one pair) must not trade places.
    # Lowering emits one shared record for equal CX, SX and X, so each gate
    # is copied first, or a swap of two equal gates would go unseen.
    gates = [g._replace() for g in gates]
    got = _commute_schedule(gates, n)
    return [id(g) for g in got] == [id(g) for g in heap_commute_schedule(gates, n)]


@SETTINGS
@given(native_lists())
def test_scheduler_emits_the_reference_order_on_native_lists(case):
    assert _same_order_as_reference(*case)


def test_scheduler_emits_the_reference_order_on_long_queues():
    # Thousands of ready gates on a few wire tuples, which no drawn list
    # reaches: 4,000 SX on wireline 1 then 3,000 CX onto it from wirelines
    # 2-4, all ready at once; and 2,000 Rz on a CX control between two CX,
    # where the second CX waits behind every Rz.
    shared = [Gate("SX", 1) for _ in range(4000)] + [cx(2 + i % 3, 1) for i in range(3000)]
    between = [cx(1, 2)] + [rz(0.1, 1) for _ in range(2000)] + [cx(1, 2)]
    assert _same_order_as_reference(shared, 4)
    assert _same_order_as_reference(between, 2)


@pytest.mark.parametrize("routed", [False, True], ids=["fc", "lnn"])
@SETTINGS
@given(circ=annotated_builds())
def test_scheduler_emits_the_reference_order_on_lowered_builds(routed, circ):
    seen = []

    def checking(gates, n):
        seen.append(_same_order_as_reference(gates, n))
        return _commute_schedule(gates, n)

    with mock.patch.object(layout, "_commute_schedule", checking):
        lower_to_ngs(route_lnn(circ) if routed else circ)
    assert seen == [True]


@SETTINGS
@given(unannotated_circuits())
def test_unannotated_passes_keep_the_unitary(circ):
    out = cancel_cx_pairs(circ)
    assert np.abs(circuit_unitary(out) - circuit_unitary(circ)).max() < 1e-10


@SETTINGS
@given(annotated_builds())
def test_annotated_passes_keep_the_unitary_and_are_idempotent(circ):
    want = circuit_unitary(circ)
    for rewrite in (merge_phase_columns, collapse_cx, cancel_x_pair, ldd_to_qft):
        out = _apply(rewrite, circ)
        assert np.abs(circuit_unitary(out) - want).max() < 1e-10, rewrite.__name__
        assert _apply(rewrite, out).gates == out.gates, rewrite.__name__


@SETTINGS
@given(unannotated_circuits())
def test_json_round_trip_keeps_kinds_wires_and_params(circ):
    back = from_json(to_json(circ))
    assert back.n == circ.n
    assert [(g.kind, g.target, g.control, g.params) for g in back.gates] == [
        (g.kind, g.target, g.control, g.params) for g in circ.gates
    ]
