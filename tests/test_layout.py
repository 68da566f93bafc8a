"""Architecture mapping and native-gate-set lowering.

The lowering rules are pinned gate-by-gate against exact unitaries; the
commutation-aware scheduler is held to sameness of the full circuit unitary,
which is the property the whole pipeline stands on, and to the gate order of
the ready-list scan it replaced.
"""

import numpy as np
import pytest

from qftmcu import layout
from qftmcu.circuit import (
    BLOCK_PLUS,
    GATE_KINDS,
    TWO_QUBIT,
    Circuit,
    Gate,
    cp,
    crx,
    cu2,
    cx,
    h,
    inverse,
    p,
    rz,
    schedule_slots,
    swap,
    u2,
    x,
)
from qftmcu.gate_algebra import (
    H,
    S,
    X,
    Z,
    gate_unitary_1q,
    random_unitary,
    root,
    u2_mat,
    zyz_decompose,
)
from qftmcu.layout import (
    ARCHES,
    LOWERING,
    NATIVE_KINDS,
    NativeCircuit,
    _commute_schedule,
    layout_permutation,
    lower_to_ngs,
    model_cx,
    model_depth,
    model_swaps,
    model_sx,
    native_metrics,
    route_lnn,
    synth_native,
)
from qftmcu.linalg import equal_up_to_global_phase
from qftmcu.optimizer import cancel_cx_pairs
from qftmcu.synthesis import (
    CONTROLLED_ROTATIONS,
    METHODS,
    SynthConfig,
    apply_aqft,
    build,
    build_qft,
    expected_counts,
)
from qftmcu.verifier import circuit_unitary, verify_mcu
from tests.conftest import generic_u


def _native_matches_source(circ, tol=1e-12):
    nc = lower_to_ngs(circ)
    assert set(g.kind for g in nc.gates) <= set(NATIVE_KINDS)
    got = circuit_unitary(nc) * np.exp(1j * nc.global_phase)
    want = circuit_unitary(circ)
    assert np.abs(got - want).max() < tol, f"lowering drifted by {np.abs(got-want).max()}"
    return nc


def _swaps(gates):
    """Swaps a router inserted: one per SWAP gate."""
    return sum(g.kind == "SWAP" for g in gates)


def _same_pair(a, b):
    return {a.target, a.control} == {b.target, b.control}


# -- routing ---------------------------------------------------------------------

def test_route_passthrough_when_adjacent():
    circ = Circuit(3, [cx(1, 2), cx(3, 2), h(1)])
    routed = route_lnn(circ)
    assert routed.gates == circ.gates
    assert routed.final_layout == (1, 2, 3)


def test_route_makes_everything_adjacent(u_gen):
    for method in ("mcu-mod", "mcu-zyz", "ldd"):
        circ = build(SynthConfig(method, 6, u=u_gen))
        for g in route_lnn(circ).gates:
            if g.control is not None:
                assert abs(g.control - g.target) == 1


@pytest.mark.parametrize("dropped", [None, 1])
def test_walk_passes_every_lower_wireline(dropped):
    # Stage t's target passes all t-1 lower wirelines, right after its CPs,
    # and with nothing before the SWAP where a gate is missing (here every CP
    # from wireline 1, as the merge removes some); stage 2 passes nothing.  A
    # half on k wirelines ends in the order k, ..., 3, 1, 2 either way.
    gates = [g for g in build_qft(6).gates if g.control != dropped]
    line = layout._Line(6)
    layout._walk(line, gates)
    assert line.p2l[1:] == [6, 5, 4, 3, 1, 2]
    assert _swaps(line.out) == 5 + 4 + 3 + 2
    pairs = [
        a for a, b in zip(line.out, line.out[1:])
        if a.kind == "CP" and b.kind == "SWAP" and _same_pair(a, b)
    ]
    assert len(pairs) == (14 if dropped is None else 10)


def _step_network(gates):
    return [(g.kind, g.target, g.control) for g in gates if g.kind != "P"]


@pytest.mark.parametrize("dropped", [None, 1])
def test_parity_walk_passes_every_lower_wireline(dropped):
    # Stage t >= 3 steps past all t-1 lower wirelines, with or without a CP
    # from each (here every CP from wireline 1 is missing, as the merge
    # removes some): the CX and SWAP network is the same either way, and
    # each CP is three P gates.  A half on 6 wirelines with stages 6..3
    # ends with wirelines 2 and 1 on top in difference form and each target
    # below them holding its value XOR wireline 1's (bit w is wireline w's
    # value, bit 6 + t the value stage t's H left).
    stages = [g for g in build_qft(6).gates if g.target > 2]
    gates = [g for g in stages if g.control is None or g.control != dropped]
    out, par = layout._walk_half(layout._stages(gates), 6, None, after=False)
    full, _ = layout._walk_half(layout._stages(stages), 6, None, after=False)
    assert _step_network(out) == _step_network(full)
    x, y = (lambda w: 1 << w), (lambda t: 1 << (6 + t))
    assert par[1:] == [y(6) | x(1), y(5) | x(1), y(4) | x(1), y(3) | x(1), x(1) | x(2), x(2)]
    assert sum(g.kind == "P" for g in out) == 3 * sum(g.kind == "CP" for g in gates)
    assert all(g.control is None or abs(g.control - g.target) == 1 for g in out)
    # 4 CX into difference form, 2 CX per step (5 + 4 + 3 + 2 steps), and one
    # CX per stage but the first; the step that holds that CX has no SWAP.
    assert _swaps(out) == 5 + 4 + 3 + 2 - 3
    assert lower_to_ngs(Circuit(6, out)).counts()["CX"] == 4 + 2 * 14 + 3


@pytest.mark.parametrize("method, n, seed", [
    pytest.param("mcx-qft", 7, 0, id="mcx-qft"),
    pytest.param("mcu-mod", 7, 0, id="mcu-mod"),
    pytest.param("mcu-zyz", 7, 0, id="mcu-zyz"),
    pytest.param("mcu-mod", 48, 5, id="mcu-mod-n48-u5"),
])
def test_parity_walk_writes_each_rotation_above_stage_2_as_phases(method, n, seed):
    # No CP or root is left in the routed build but stage 2's CP from
    # wireline 1, one per mcx-qft block, which acts in place; every other
    # one is three P gates.  A block the walk refuses falls back to the swap
    # walk and keeps its roots as CU2: at n = 48 the deepest roots are about
    # 1e-14 from I, and they must still share their ladder's frame.
    circ = build(SynthConfig(method, n, None if method == "mcx-qft" else generic_u(seed)))
    routed = route_lnn(circ)
    in_place = 2 if method == "mcx-qft" else 0
    assert sum(g.kind == "CP" for g in routed.gates) == in_place
    assert not any(g.kind == "CU2" for g in routed.gates)
    rotations = sum(g.kind in ("CP", "CU2") for g in circ.gates) - in_place
    added = sum(g.kind == "P" for g in routed.gates) - sum(g.kind == "P" for g in circ.gates)
    assert added == 3 * rotations


def test_route_enters_a_lone_inverse_qft_through_swaps():
    # An inverse QFT with no forward half before it starts at the identity,
    # not where its mirror starts: neighbour swaps bring the row there, and
    # the half still ends at the identity.
    circ = inverse(build_qft(5))
    routed = route_lnn(circ)
    assert routed.final_layout == (1, 2, 3, 4, 5)
    assert _swaps(routed.gates) == 9 + 9  # into the mirror's start layout, then the walk
    assert all(g.control is None or abs(g.control - g.target) == 1 for g in routed.gates)
    assert np.abs(circuit_unitary(routed) - circuit_unitary(circ)).max() < 1e-12


def test_route_carried_permutation_relation():
    # The routed circuit equals (final-layout permutation) o (original).
    circ = Circuit(4, [cx(1, 4)])
    routed = route_lnn(circ)
    assert _swaps(routed.gates) == 2
    assert routed.final_layout != (1, 2, 3, 4)
    perm = layout_permutation(routed.final_layout)
    u_routed = circuit_unitary(routed)
    u_orig = circuit_unitary(circ)
    assert np.abs(u_routed - perm @ u_orig).max() < 1e-12


@pytest.mark.parametrize("method", ["mcu-mod", "mcu-zyz", "ldd"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_route_preserves_logical_unitary(method, n, u_gen):
    circ = build(SynthConfig(method, n, u=u_gen))
    routed = route_lnn(circ)
    perm = layout_permutation(routed.final_layout)
    u_logical = perm.T @ circuit_unitary(routed)
    ok, _, dev = equal_up_to_global_phase(u_logical, circuit_unitary(circ), 1e-10)
    assert ok, f"{method} n={n} dev={dev}"


@pytest.mark.parametrize(
    "method, n, m", [("mcx-qft", 8, 2), ("mcu-mod", 7, 3), ("mcu-zyz", 6, 2), ("ldd", 7, 3)]
)
def test_aqft_truncates_a_routed_circuit_as_its_source(method, n, m, u_gen):
    # The swap walk (ldd) emits each rotation as it is, so AQFT drops the
    # same ones after routing as before.  The parity walk writes each CP and
    # root as three P gates on its phase terms, with its root index, so AQFT
    # drops three P gates for each rotation it drops from the source.
    circ = build(SynthConfig(method, n, None if method == "mcx-qft" else u_gen))
    full, kept = route_lnn(circ), apply_aqft(circ, m)
    routed = apply_aqft(full, m)
    want = layout_permutation(routed.final_layout) @ circuit_unitary(kept)
    assert np.abs(circuit_unitary(routed) - want).max() < 1e-12

    def rotations(c):
        return sum(g.kind in CONTROLLED_ROTATIONS for g in c.gates)

    def phases(c):
        return sum(g.kind == "P" for g in c.gates)

    if method == "ldd":
        assert rotations(routed) == rotations(kept) < rotations(circ)
    else:
        assert 0 < phases(full) - phases(routed) == 3 * (rotations(circ) - rotations(kept))


def _unannotated(circ):
    return Circuit(circ.n, [g._replace(block=None, role=None) for g in circ.gates])


def test_route_swap_counts_are_reported_not_forced(u_gen):
    # The count is what the router did.  An annotated build takes the parity
    # walk, which model_swaps is derived from; the same gates stripped of
    # their annotations take the greedy branch, whose count nothing models:
    # 26 at n=5, over the walk's 24, and 56 at n=6, over its 38.
    for n, greedy in ((5, 26), (6, 56)):
        circ = build(SynthConfig("mcu-mod", n, u=u_gen))
        assert _swaps(route_lnn(circ).gates) == model_swaps("mcu-mod", n)
        assert _swaps(route_lnn(_unannotated(circ)).gates) == greedy


def test_layout_permutation_identity():
    assert np.array_equal(layout_permutation((1, 2, 3)), np.eye(8))


# -- lowering: per-kind exactness ---------------------------------------------------

def test_lower_h_rule():
    nc = _native_matches_source(Circuit(1, [h(1)]))
    assert [g.kind for g in nc.gates] == ["Rz", "SX", "Rz"]
    assert all(g.params == (np.pi / 2,) for g in nc.gates if g.kind == "Rz")
    assert abs(nc.global_phase - np.pi / 4) < 1e-12


def test_lower_cp_rule():
    nc = _native_matches_source(Circuit(2, [cp(np.pi / 2, 1, 2)]))
    assert len(nc.gates) == 5
    assert nc.depth() == 4


def test_lower_swap_rule():
    nc = _native_matches_source(Circuit(2, [swap(1, 2)]))
    assert [g.kind for g in nc.gates] == ["CX", "CX", "CX"]


CONTROLLED = sorted(TWO_QUBIT - {"SWAP"})


def _controlled(kind, c, t, u):
    params = {"CX": (), "CU2": zyz_decompose(u)}.get(kind, (0.7,))
    return Gate(kind, t, control=c, params=params)


@pytest.mark.parametrize("swap_first", [False, True], ids=["gate-swap", "swap-gate"])
@pytest.mark.parametrize("kind", CONTROLLED)
def test_gate_beside_a_swap_of_its_pair_lowers_with_one_cx_more(kind, swap_first, u_gen):
    # Exact, and one CX more than the gate alone instead of three, whichever
    # operand is the control and whichever of the two comes first.
    for c, t in ((1, 2), (2, 1)):
        g = _controlled(kind, c, t, u_gen)
        pair = [swap(1, 2), g] if swap_first else [g, swap(1, 2)]
        nc = _native_matches_source(Circuit(2, pair))
        assert nc.counts()["CX"] == lower_to_ngs(Circuit(2, [g])).counts()["CX"] + 1


def _template_unitary(steps):
    """The 4x4 of a lowering template with _T on wireline 2 and _C on 1,
    times its phase ("frame" steps emit nothing)."""
    ops = {layout._T: 2, layout._C: 1}
    gates, phase = [], 0.0
    for kind, w, angle in steps:
        if kind == "phase":
            phase += angle
        elif kind == "CX":
            gates.append(cx(ops[w], ops[1 - w]))
        elif kind == "Rz":
            gates.append(rz(angle, ops[w]))
        elif kind in ("SX", "X"):
            gates.append(Gate(kind, ops[w]))
    return circuit_unitary(Circuit(2, gates)) * np.exp(1j * phase)


@pytest.mark.parametrize("exchanged", [False, True], ids=["as-is", "operands-exchanged"])
@pytest.mark.parametrize("kind", CONTROLLED)
def test_then_swap_reads_the_last_cx_orientation(kind, exchanged, u_gen):
    # _then_swap of a template equals the gate then a SWAP, whichever
    # operand controls the template's last CX: exchanging every operand of
    # a template gives the template of the gate with its operands exchanged.
    template = LOWERING[kind](_controlled(kind, 1, 2, u_gen).params)
    if exchanged:
        template = tuple((k, w if w is None else 1 - w, a) for k, w, a in template)
    c, t = (2, 1) if exchanged else (1, 2)
    gate = circuit_unitary(Circuit(2, [_controlled(kind, c, t, u_gen)]))
    assert np.abs(_template_unitary(template) - gate).max() < 1e-12
    want = circuit_unitary(Circuit(2, [swap(1, 2)])) @ gate
    assert np.abs(_template_unitary(layout._then_swap(template)) - want).max() < 1e-12


def _cx_order(gates):
    # On two wirelines the scheduler never exchanges CX(1, 2) and CX(2, 1),
    # which do not commute, so the CX operand order is the emitted one.
    return [(g.control, g.target) for g in lower_to_ngs(Circuit(2, gates)).gates if g.kind == "CX"]


@pytest.mark.parametrize("kind", ["CX", "CRx"])
def test_swap_between_two_gates_of_its_pair_goes_with_the_first(kind, u_gen):
    # The second gate has its operands exchanged, so no CX of one template
    # cancels one of the other, and the CX order shows which gate took the
    # SWAP.  (Two CX the same way round meet as a pair, and two CP share
    # their parity term, so either lowers to fewer CX whichever gate takes
    # the SWAP.)
    g = _controlled(kind, 1, 2, u_gen)
    circ = [g, swap(1, 2), _controlled(kind, 2, 1, u_gen)]
    _native_matches_source(Circuit(2, circ))
    assert _cx_order(circ) == _cx_order(circ[:2]) + _cx_order(circ[2:])
    assert _cx_order(circ) != _cx_order(circ[:1]) + _cx_order(circ[1:])


def test_every_gate_kind_has_a_rule_and_a_matrix():
    # The IR and the lowering table cannot drift apart, and the verifier
    # applies every kind but SWAP through its 2x2 matrix.
    assert set(LOWERING) == GATE_KINDS
    for kind in GATE_KINDS - {"SWAP"}:
        assert gate_unitary_1q(kind, (0.7,) * 4).shape == (2, 2)


def test_lower_cu2_stays_within_budget(u_gen):
    nc = _native_matches_source(Circuit(2, [cu2(zyz_decompose(u_gen), 1, 2)]))
    assert len(nc.gates) <= 14


# CU2 payloads the eigenbasis lowering must treat exactly: scalars, diagonal
# and antidiagonal ones (degenerate or axis-aligned eigenbases), theta = pi,
# and a deep root whose spectrum is within 1e-8 of degenerate.
DEGENERATE_PAYLOADS = {
    "I": np.eye(2),
    "-I": -np.eye(2),
    "diag": np.diag([np.exp(0.3j), np.exp(-1.1j)]),
    "antidiag": np.array([[0, np.exp(0.4j)], [np.exp(-0.9j), 0]]),
    "theta-pi": u2_mat(0.2, 0.5, np.pi, -0.3),
    "root30": root(u2_mat(0.3, 0.5, 1.0, -0.7), 30),
}


@pytest.mark.parametrize(
    "gate",
    [
        x(1), Gate("SX", 1), rz(0.7, 1), p(2.2, 1), u2((0.3, 0.5, 1.0, -0.7), 1),
        cx(1, 2), cp(-0.9, 2, 1), crx(0.8, 1, 2), swap(2, 1),
        *(cu2(zyz_decompose(v), 1, 2) for v in DEGENERATE_PAYLOADS.values()),
    ],
    ids=[
        "X@1", "SX@1", "Rz@1", "P@1", "U2@1", "CX@2", "CP@1", "CRx@2", "SWAP@1",
        *(f"CU2-{name}" for name in DEGENERATE_PAYLOADS),
    ],
)
def test_lower_single_gate_exact(gate):
    width = 2 if gate.wires() != (1,) else 1
    _native_matches_source(Circuit(width, [gate]))


@pytest.mark.parametrize("m", [3, 5])
def test_crx_stage_takes_8_layers_per_crx_on_its_target(m):
    # m CRx with distinct angles onto one target, as in an ldd stage, lower
    # exactly with their tracked phase.  The count is odd: the template's
    # pi/2 phase taken with the wrong sign is a factor -1 per CRx, which an
    # even count (every build's) hides.  Each CRx costs its 2 CX and 4 SX on the target and nothing
    # more: A's last Rz cancels the next CRx's C, and B's Z went to the
    # control, so only the stage's first C and last A keep an Rz there.
    t = m + 1
    circ = Circuit(t, [crx(0.3 + 0.4 * c, c, t) for c in range(1, t)])
    nc = _native_matches_source(circ)
    on_t = [g.kind for g in nc.gates if t in g.wires()]
    assert on_t == ["Rz"] + ["CX", "SX", "Rz", "SX"] * 2 * m + ["Rz"]
    assert nc.depth() == 8 * m + 2


@pytest.mark.parametrize("arch", ARCHES)
@pytest.mark.parametrize("n", [5, 7])
def test_ldd_block_lowers_with_its_crx_phase(n, arch, u_gen):
    # The same check on built circuits.  verify_mcu cannot make it: every
    # ldd build holds an even number of CRx.  One block holds (n - 2)^2,
    # odd for odd n, so lowered on its own, routed or not, it equals the
    # abstract block times its tracked phase only if each CRx's phase does.
    circ = build(SynthConfig("ldd", n, u=u_gen))
    block = Circuit(n, [g for g in circ.gates if g.block == BLOCK_PLUS])
    assert sum(g.kind == "CRx" for g in block.gates) == (n - 2) ** 2
    want = circuit_unitary(block)
    if arch == "lnn":
        block = route_lnn(block)
        want = layout_permutation(block.final_layout) @ want
    nc = lower_to_ngs(block)
    got = circuit_unitary(nc) * np.exp(1j * nc.global_phase)
    assert np.abs(got - want).max() < 1e-12


def test_lower_drops_zero_rotations():
    nc = lower_to_ngs(Circuit(1, [rz(0.0, 1)]))
    assert nc.gates == []


def test_lower_merges_adjacent_rz():
    nc = lower_to_ngs(Circuit(1, [rz(0.3, 1), rz(0.4, 1)]))
    assert len(nc.gates) == 1
    assert nc.gates[0].params == (pytest.approx(0.7),)


def test_lower_cancelling_rz_vanishes():
    nc = lower_to_ngs(Circuit(1, [rz(0.3, 1), rz(-0.3, 1)]))
    assert nc.gates == []


# -- lowering: one Rz per parity ----------------------------------------------------

def _rz_on(nc, w):
    return [g.params[0] for g in nc.gates if g.kind == "Rz" and g.target == w]


def test_lower_merges_rz_across_a_cx_control():
    nc = _native_matches_source(Circuit(2, [rz(0.3, 1), cx(1, 2), rz(0.4, 1)]))
    assert _rz_on(nc, 1) == [pytest.approx(0.7)]


def test_lower_merges_rz_on_a_parity_a_cx_pair_restores():
    # CX(2 -> 1) twice puts x1 back on wireline 1, so Rz(b) adds to Rz(a),
    # and the pair, with nothing left between them, cancels.
    nc = _native_matches_source(Circuit(2, [rz(0.3, 1), cx(2, 1), cx(2, 1), rz(0.4, 1)]))
    assert _rz_on(nc, 1) == [pytest.approx(0.7)]
    assert [g.kind for g in nc.gates] == ["Rz"]


def test_lower_merges_rz_across_an_x_with_the_sign_flipped():
    # Rz(b) X Rz(a) = Rz(b - a) X: after the X, wireline 1 holds 1 + x1, on
    # which an Rz(c) is an Rz(-c) on x1.  The one Rz sits after the X.
    nc = _native_matches_source(Circuit(1, [rz(0.3, 1), x(1), rz(0.4, 1)]))
    assert [g.kind for g in nc.gates] == ["X", "Rz"]
    assert _rz_on(nc, 1) == [pytest.approx(0.4 - 0.3)]


def test_lower_merges_rz_on_a_value_a_swap_moved():
    # After the SWAP, wireline 2 holds x1: Rz(b) there adds to the Rz(a)
    # that x1 took on wireline 1, and the sum sits in the latest interval
    # holding x1, the one on wireline 2 after the SWAP.
    nc = _native_matches_source(Circuit(2, [rz(0.3, 1), swap(1, 2), rz(0.4, 2)]))
    assert _rz_on(nc, 1) == []
    assert _rz_on(nc, 2) == [pytest.approx(0.7)]
    assert [g.kind for g in nc.gates] == ["CX", "CX", "CX", "Rz"]


@pytest.mark.parametrize(
    "between", [cx(2, 1), Gate("SX", 1)], ids=["cx-target", "sx"]
)
def test_lower_keeps_rz_apart_across_an_x_basis_gate(between):
    nc = _native_matches_source(Circuit(2, [rz(0.3, 1), between, rz(0.4, 1)]))
    assert _rz_on(nc, 1) == [pytest.approx(0.3), pytest.approx(0.4)]


@pytest.mark.parametrize("a, b", [(0.3, -0.3), (np.pi, np.pi)])
def test_lower_cancelled_pair_drops_out_and_the_next_rz_survives(a, b):
    # Rz(pi) twice is a full turn: it vanishes into the global phase.
    circ = Circuit(2, [rz(a, 1), cx(1, 2), rz(b, 1), cx(1, 2), rz(0.5, 1)])
    nc = _native_matches_source(circ)
    assert _rz_on(nc, 1) == [pytest.approx(0.5)]
    assert [g.kind for g in nc.gates] == ["Rz"]


def test_lower_moves_an_rz_out_of_a_cx_pair_and_the_pair_cancels():
    # Between the two CX(1 -> 2), wireline 2 holds x1 + x2; after CX(2 -> 1)
    # wireline 1 holds it too.  The Rz goes there, and the pair cancels.
    circ = Circuit(2, [cx(1, 2), rz(0.3, 2), cx(1, 2), cx(2, 1)])
    nc = _native_matches_source(circ)
    assert [(g.kind, g.target) for g in nc.gates] == [("CX", 1), ("Rz", 1)]


def test_lower_keeps_a_cx_pair_around_the_only_interval_of_its_rz():
    # x1 + x2 is held only between the two CX: the Rz stays, so do both CX.
    nc = _native_matches_source(Circuit(2, [cx(1, 2), rz(0.3, 2), cx(1, 2)]))
    assert [g.kind for g in nc.gates] == ["CX", "Rz", "CX"]


def test_lower_keeps_the_pairs_around_a_kept_pair():
    # The inner pair keeps its Rz, so the outer pair, which would cancel
    # once the inner one did, keeps both its CX too.
    circ = Circuit(3, [cx(2, 3), cx(1, 2), rz(0.3, 2), cx(1, 2), cx(2, 3)])
    nc = _native_matches_source(circ)
    assert [g.kind for g in nc.gates].count("CX") == 4


def test_lower_cancels_nested_cx_pairs():
    # The inner pair cancels, which brings the outer pair together.
    circ = Circuit(3, [rz(0.2, 3), cx(2, 3), cx(1, 2), cx(1, 2), cx(2, 3), rz(0.4, 3)])
    nc = _native_matches_source(circ)
    assert [g.kind for g in nc.gates] == ["Rz"]
    assert _rz_on(nc, 3) == [pytest.approx(0.6)]


def test_lower_placement_ignores_rz_steps_below_1e_12(u_gen):
    # An Rz step of 1e-17, rounding noise, adds to its parity's sum but
    # moves no Rz: the lowered gate list stays the same, wherever it sits.
    # The source is a lowered build, whose gates lower one by one.
    native = lower_to_ngs(route_lnn(build(SynthConfig("mcu-mod", 6, u=u_gen))))
    want = lower_to_ngs(native).gates
    for at in range(0, len(native.gates), 7):
        for w in (1, 3, 6):
            gates = list(native.gates)
            gates.insert(at, rz(1e-17, w))
            got = lower_to_ngs(Circuit(6, gates)).gates
            assert [(g.kind, g.target, g.control) for g in got] == [
                (g.kind, g.target, g.control) for g in want
            ], (at, w)
            assert all(
                g.params == pytest.approx(h.params, abs=1e-12) for g, h in zip(got, want)
            ), (at, w)


# -- the commutation-aware scheduler ------------------------------------------------

def _random_abstract(rng, n=4, length=60):
    gates = []
    for _ in range(length):
        kind = rng.integers(0, 6)
        wires = rng.permutation(np.arange(1, n + 1))[:2]
        t, c = int(wires[0]), int(wires[1])
        angle = float(rng.uniform(-np.pi, np.pi))
        gates.append(
            [h(t), x(t), rz(angle, t), cx(c, t), cp(angle, c, t), swap(c, t)][kind]
        )
    return Circuit(n, gates)


def test_scheduler_only_reorders_commuting_gates():
    # Randomized soundness battery: the lowered unitary must track the source
    # exactly no matter how the greedy scheduler interleaves the gates.
    rng = np.random.default_rng(77)
    for _ in range(25):
        circ = _random_abstract(rng)
        _native_matches_source(circ, tol=1e-11)


def test_scheduler_is_deterministic(u_gen):
    circ = build(SynthConfig("mcu-mod", 6, u=u_gen))
    a = lower_to_ngs(circ)
    b = lower_to_ngs(circ)
    assert a.gates == b.gates
    assert a.global_phase == b.global_phase


def _reference_schedule(gates, n):
    """The O(m * |ready|) scan ``_commute_schedule`` replaced, kept as its
    reference: same commutation DAG, and each step emits the ready gate with
    the least (start, index), found by scanning the whole ready list."""
    m = len(gates)
    succs = [[] for _ in range(m)]
    indeg = [0] * m
    run = {}
    for i, g in enumerate(gates):
        for w in g.wires():
            basis = "z" if g.kind == "Rz" or (g.kind == "CX" and w == g.control) else "x"
            st = run.get(w)
            if st is None:
                run[w] = (basis, [i], [])
            elif st[0] == basis:
                for q in st[2]:
                    succs[q].append(i)
                    indeg[i] += 1
                st[1].append(i)
            else:
                for q in st[1]:
                    succs[q].append(i)
                    indeg[i] += 1
                run[w] = (basis, [i], st[1])
    ready = [i for i in range(m) if indeg[i] == 0]
    avail = [0] * (n + 1)
    order = []
    while ready:
        start, best = min((max(avail[w] for w in gates[i].wires()), i) for i in ready)
        ready.remove(best)
        order.append(best)
        for w in gates[best].wires():
            avail[w] = start + 1
        for s in succs[best]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    return [gates[i] for i in order]


def _assert_schedules_like_reference(gates, n):
    got = _commute_schedule(gates, n)
    assert [id(g) for g in got] == [id(g) for g in _reference_schedule(gates, n)]


def test_scheduler_matches_reference_on_random_native_lists():
    # Few wires and a small pool of CX pairs: many gates tie on their start
    # and several ready gates share one wire tuple (Rz runs on a wire, CX
    # with a common control or a common target).
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(3, 7))
        pool = [tuple(int(w) for w in rng.permutation(np.arange(1, n + 1))[:2]) for _ in range(3)]
        gates = []
        for _ in range(int(rng.integers(1, 80))):
            t = int(rng.integers(1, n + 1))
            kind = rng.choice(["CX", "CX", "Rz", "Rz", "SX", "X"])
            if kind == "CX":
                gates.append(cx(*pool[int(rng.integers(len(pool)))]))
            elif kind == "Rz":
                gates.append(rz(float(rng.uniform(-np.pi, np.pi)), t))
            else:
                gates.append(Gate(str(kind), t))
        _assert_schedules_like_reference(gates, n)


@pytest.mark.parametrize("arch", ARCHES)
@pytest.mark.parametrize("method", METHODS)
def test_scheduler_matches_reference_on_lowered_builds(method, arch, u_gen, monkeypatch):
    # Every list lower_to_ngs hands the scheduler, n = 5..12.
    checked = []

    def checking(gates, n):
        _assert_schedules_like_reference(gates, n)
        checked.append(n)
        return _commute_schedule(gates, n)

    monkeypatch.setattr(layout, "_commute_schedule", checking)
    u = None if method == "mcx-qft" else u_gen
    for n in range(5, 13):
        synth_native(SynthConfig(method, n, u), arch)
    assert checked == list(range(5, 13))


# -- end-to-end pipeline -----------------------------------------------------------

@pytest.mark.parametrize("method", ["mcx-qft", "mcu-mod", "mcu-zyz", "ldd"])
@pytest.mark.parametrize("arch", ["fc", "lnn"])
def test_pipeline_matches_oracle(method, arch, u_gen):
    n = 5
    u = np.array([[0, 1], [1, 0]], dtype=complex) if method == "mcx-qft" else u_gen
    cfg = SynthConfig(method, n, u=None if method == "mcx-qft" else u_gen)
    res = verify_mcu(synth_native(cfg, arch=arch), u)
    assert res.ok, f"{method}/{arch} dev={res.max_deviation}"
    assert abs(res.global_phase) < 1e-9


def test_lnn_natives_are_exact_on_random_and_degenerate_payloads():
    # Routed and lowered, each MCU cell verifies against the oracle with a
    # residual phase under 1e-9: random payloads up to n = 10, the payloads
    # I, -I, Z, X, S and H up to n = 7, and mcx-qft up to n = 9.
    rng = np.random.default_rng(20)
    named = [np.eye(2), -np.eye(2), Z, X, S, H]
    cells = [(m, n, random_unitary(rng)) for m in ("mcu-mod", "mcu-zyz") for n in range(4, 11)]
    cells += [(m, n, u) for m in ("mcu-mod", "mcu-zyz") for n in range(4, 8) for u in named]
    cells += [("mcx-qft", n, X) for n in range(4, 10)]
    for method, n, u in cells:
        nc = synth_native(SynthConfig(method, n, None if method == "mcx-qft" else u), "lnn")
        res = verify_mcu(nc, u)
        assert res.ok and abs(res.global_phase) <= 1e-9, (method, n, res.max_deviation)


def test_pipeline_rejects_unknown_arch(u_gen):
    with pytest.raises(ValueError):
        synth_native(SynthConfig("mcu-mod", 4, u=u_gen), arch="ring")


def test_pipeline_stamps_provenance(u_gen):
    nc = synth_native(SynthConfig("mcu-mod", 5, u=u_gen), arch="lnn")
    assert (nc.method, nc.n, nc.arch) == ("mcu-mod", 5, "lnn")
    assert nc.abstract_slots == 22
    assert nc.swaps_inserted == 24


# -- a native circuit is a Circuit ---------------------------------------------------

def test_native_circuit_rejects_out_of_range_wireline():
    with pytest.raises(ValueError):
        NativeCircuit(2, [cx(1, 3)])


def test_native_circuit_goes_straight_into_circuit_functions():
    # A random circuit routed greedily and lowered, which cancels its CX
    # pairs; with a pair appended, cancel_cx_pairs has one to delete.
    routed = route_lnn(_random_abstract(np.random.default_rng(0), n=5))
    nc = lower_to_ngs(routed)
    assert len(cancel_cx_pairs(nc).gates) == len(nc.gates)
    nc.gates += [cx(1, 2), cx(1, 2)]
    assert nc.final_layout == routed.final_layout
    plain = nc.as_circuit()
    assert schedule_slots(nc) == native_metrics(nc).depth == schedule_slots(plain)
    out = cancel_cx_pairs(nc)
    assert out.gates == cancel_cx_pairs(plain).gates
    assert len(out.gates) < len(nc.gates)
    assert out.final_layout == nc.final_layout
    assert np.array_equal(circuit_unitary(nc), circuit_unitary(plain))


# -- metrics and the closed-form models ----------------------------------------------

def test_model_values_at_n5():
    assert model_depth("mcu-mod", 5) == 114
    assert model_cx("mcu-mod", 5) == 48
    assert model_depth("mcu-zyz", 5) == 116
    assert model_cx("mcu-zyz", 5) == 62
    assert model_sx("mcu-mod", 5) == 12
    assert model_swaps("mcu-zyz", 5) == 30


def test_model_lnn_additive_terms():
    n = 5
    assert model_depth("mcu-mod", n, "lnn") == model_depth("mcu-mod", n) + 24 * n - 64
    assert model_depth("mcu-zyz", n, "lnn") == model_depth("mcu-zyz", n) + 24 * n - 52
    assert model_depth("ldd", n) is None


LNN_WIDTHS = range(4, 33)


@pytest.fixture(scope="module")
def lnn_builds(u_gen):
    """Every method routed to a line and lowered, n = 4..32."""
    cells = [(m, n) for m in METHODS for n in LNN_WIDTHS]
    return {
        (m, n): synth_native(SynthConfig(m, n, None if m == "mcx-qft" else u_gen), "lnn")
        for m, n in cells
    }


#: wide root ladders: mcu-mod's deepest roots there lie within 1e-14 of I
WIDE_LADDERS = [(n, seed) for n in (48, 64) for seed in (2, 5)]


@pytest.fixture(scope="module")
def wide_ladders():
    """mcu-mod on both targets at n = 48 and 64, payloads generic_u(2) and (5)."""
    return {
        (arch, n, seed): synth_native(SynthConfig("mcu-mod", n, generic_u(seed)), arch)
        for arch in ARCHES for n, seed in WIDE_LADDERS
    }


def test_model_cx_lnn_matches_built_circuit(lnn_builds, wide_ladders):
    # The swap and CX models are derived from the parity-walk network (the
    # swap walk for ldd); the built circuits meet them exactly, and every
    # build ends at the identity.
    wide = {("mcu-mod", n, seed): wide_ladders["lnn", n, seed] for n, seed in WIDE_LADDERS}
    for (method, n, *_), nc in list(lnn_builds.items()) + list(wide.items()):
        assert nc.swaps_inserted == model_swaps(method, n), f"{method} n={n}"
        assert nc.counts()["CX"] == model_cx(method, n, "lnn"), f"{method} n={n}"
        assert nc.final_layout == tuple(range(1, n + 1)), f"{method} n={n}"


@pytest.mark.parametrize("method", ["mcu-mod", "mcu-zyz", "ldd"])
def test_lnn_depth_is_linear(method, lnn_builds):
    # The paper's claim: linear depth on the line.
    ns = np.array(LNN_WIDTHS)
    depths = np.array([lnn_builds[method, int(n)].depth() for n in ns])
    slope, intercept = np.polyfit(ns, depths, 1)
    fit = slope * ns + intercept
    r2 = 1 - float(np.sum((depths - fit) ** 2)) / float(np.sum((depths - depths.mean()) ** 2))
    assert r2 >= 0.99, f"{method}: R^2 = {r2:.4f}, slope {slope:.1f}"


#: native depth measured on generic_u(0) builds, n = 7..32, as (FC, line)
#: forms; the FC forms of the QFT methods step by parity of n, ldd's by
#: n mod 3 from n = 8 (n = 7 reads 168, 3 above that form)
DEPTH_CEILINGS = {
    "mcu-mod": (lambda n: 20 * n - 45 - n % 2, lambda n: 26 * n - 59),
    "mcu-zyz": (lambda n: 20 * n - 33 - n % 2, lambda n: 26 * n - 46),
    "mcx-qft": (lambda n: 20 * n - 41 - 2 * (n % 2), lambda n: 26 * n - 53),
    "ldd": (lambda n: 168 if n == 7 else 40 * n - 117 + 2 * (n % 3), lambda n: 56 * n - 145),
}


@pytest.mark.parametrize("method", sorted(DEPTH_CEILINGS))
def test_native_depth_stays_under_its_measured_ceiling(method, lnn_builds, u_gen):
    # One-sided: a change that makes any of these circuits deeper fails here,
    # one that makes them shallower passes (and should lower the ceiling).
    fc, line = DEPTH_CEILINGS[method]
    u = None if method == "mcx-qft" else u_gen
    for n in range(7, 33):
        assert synth_native(SynthConfig(method, n, u)).depth() <= fc(n), f"fc n={n}"
        assert lnn_builds[method, n].depth() <= line(n), f"lnn n={n}"


def test_model_cx_follows_pinned_counts():
    # Lowering spends 2 CX per CP and CU2 and 1 per CX and never removes one,
    # so the FC CX model is tied to the abstract counts AC3 pins exactly.
    for method in ("mcu-mod", "mcu-zyz"):
        for n in range(4, 21):
            c = expected_counts(method, n)
            want = 2 * c["CP"] + 2 * c.get("CU2", 0) + c["CX"]
            assert model_cx(method, n) == want, f"{method} n={n}"


def test_model_sx_matches_built_circuits(u_gen, wide_ladders):
    # SX comes only from the lowering templates; merged runs keep the
    # cheapest form of their product (see model_sx for the derivation).
    for n in range(4, 21):
        assert model_sx("mcu-mod", n) == 4 * n - 8
        assert model_sx("mcu-zyz", n) == 4 * n - 7
        for method in ("mcu-mod", "mcu-zyz"):
            nc = synth_native(SynthConfig(method, n, u=u_gen))
            assert nc.counts()["SX"] == model_sx(method, n), f"{method} n={n}"
    for n, seed in WIDE_LADDERS:
        sx = wide_ladders["fc", n, seed].counts()["SX"]
        assert sx == model_sx("mcu-mod", n), f"n={n} generic_u({seed})"


def test_metrics_fields(u_gen):
    nc = synth_native(SynthConfig("mcu-mod", 5, u=u_gen))
    m = native_metrics(nc)
    assert nc.method == "mcu-mod" and nc.n == 5 and nc.arch == "fc"
    assert m.depth == nc.depth()
    assert m.counts == nc.counts()
    assert m.model_depth == 114
    assert m.depth_deviation == pytest.approx((m.depth - 114) / 114)
    assert m.model_cx == 48
    assert m.cx_deviation == pytest.approx((m.counts["CX"] - 48) / 48)
    assert m.cx_deviation == 0
    assert m.cx_cancellable >= 0


def test_metrics_empty_circuit():
    m = native_metrics(NativeCircuit(3, []))
    assert m.depth == 0
    assert m.counts == {"CX": 0, "Rz": 0, "SX": 0, "X": 0}
    assert m.model_depth is None and m.depth_deviation is None


@pytest.mark.parametrize("arch", ARCHES)
def test_metrics_report_the_rz_sums_left_out_as_noise(arch, u_gen):
    # Phase folding leaves out a parity's Rz when its folded sum is nonzero
    # but within 1e-12 of a full turn: rounding noise of the folded terms.
    # None at n=8; at n=48, 93 such sums on FC and 92 on the line, about
    # 3.1e-11 in all, each under 1e-12.
    m = native_metrics(synth_native(SynthConfig("mcu-mod", 8, u=u_gen), arch))
    assert (m.dropped_rz, m.dropped_rz_sum) == (0, 0.0)
    m = native_metrics(synth_native(SynthConfig("mcu-mod", 48, u=u_gen), arch))
    assert m.dropped_rz == (93 if arch == "fc" else 92)
    assert 3.0e-11 < m.dropped_rz_sum < 3.2e-11
    assert m.dropped_rz_sum < 1e-12 * m.dropped_rz


def test_native_depth_slope_brackets(u_gen):
    # Linear growth, and for both MCU methods a slope under 28, well below
    # the closed-form coefficients 34 (mcu-mod) and 32 (mcu-zyz).  Phase
    # folding and the commutation-aware scheduler pack mcu-zyz to a slope of
    # 21, and with its roots lowered in their payload's eigenbasis mcu-mod
    # reads 21 as well.  The ceiling surfaces any regression back toward the
    # model for review rather than absorbing it silently.
    ns = np.arange(5, 15)
    slopes = {}
    for method in ("mcu-mod", "mcu-zyz"):
        depths = np.array(
            [synth_native(SynthConfig(method, int(n), u=u_gen)).depth() for n in ns]
        )
        slope, intercept = np.polyfit(ns, depths, 1)
        fit = slope * ns + intercept
        ss_res = float(np.sum((depths - fit) ** 2))
        ss_tot = float(np.sum((depths - depths.mean()) ** 2))
        assert 1 - ss_res / ss_tot >= 0.99
        slopes[method] = slope
    assert slopes["mcu-mod"] < 28, f"mod slope={slopes['mcu-mod']:.2f}"
    assert slopes["mcu-zyz"] < 28, f"zyz slope={slopes['mcu-zyz']:.2f}"
