"""Circuit IR: scheduling, inversion, serialization, counting."""

import json

import numpy as np
import pytest

from qftmcu.circuit import (
    Circuit,
    Gate,
    count_gates,
    cp,
    cx,
    from_json,
    h,
    inverse,
    normalize_angle,
    rz,
    schedule_slots,
    to_json,
    u2,
)
from qftmcu.synthesis import SynthConfig, build, build_increment, build_qft
from qftmcu.verifier import circuit_unitary
from tests.oracles import structural_equal


# -- gate construction guards ----------------------------------------------------

def test_gate_rejects_unknown_kind():
    # No stage emits SXdg, Ry, Rx or CRz, so the IR has no such kinds.
    for kind in ("Hadamard", "SXdg", "Ry", "Rx"):
        with pytest.raises(ValueError):
            Gate(kind, 1, params=(0.3,))
    with pytest.raises(ValueError):
        Gate("CRz", 2, control=1, params=(0.3,))


def test_gate_rejects_control_mismatch():
    with pytest.raises(ValueError):
        Gate("CX", 2)  # two-qubit kind without a control
    with pytest.raises(ValueError):
        Gate("H", 1, control=2)
    with pytest.raises(ValueError):
        Gate("CX", 1, control=1)


def test_circuit_rejects_out_of_range_wireline():
    with pytest.raises(ValueError):
        Circuit(2, [h(3)])
    with pytest.raises(ValueError):
        Circuit(2, [cx(1, 3)])


# -- scheduling --------------------------------------------------------------------

def test_slots_disjoint_gates_share():
    assert schedule_slots(Circuit(2, [h(1), h(2)])) == 1


def test_slots_forced_chain():
    assert schedule_slots(Circuit(2, [h(1), cx(1, 2), h(2)])) == 3


def test_slots_mcx5_optimized_and_not():
    # Frozen packing of our scheduler: 34 unoptimized, 26 merged, a delta of
    # exactly 8 slots from the phase-column merge.
    unopt = build(SynthConfig("mcx-qft", 5, optimize=False))
    opt = build(SynthConfig("mcx-qft", 5))
    assert schedule_slots(unopt) == 34
    assert schedule_slots(opt) == 26


def test_slots_deterministic():
    circ = build(SynthConfig("mcx-qft", 6))
    first = schedule_slots(circ)
    second = schedule_slots(circ)
    assert first == second


def test_block_transition_forces_barrier():
    free = Circuit(2, [h(1), h(2)])
    walled = Circuit(2, [h(1, block="plus"), h(2, block="minus")])
    assert schedule_slots(free) == 1
    assert schedule_slots(walled) == 2


# -- counting ---------------------------------------------------------------------

def test_count_gates_only_present_kinds():
    c = Circuit(3, [h(1), h(2), cx(1, 2), cp(0.5, 1, 3)])
    assert count_gates(c) == {"H": 2, "CX": 1, "CP": 1}
    assert count_gates(Circuit(2)) == {}


# -- inversion ---------------------------------------------------------------------

def test_inverse_qft_composes_to_identity():
    q = build_qft(3)
    both = Circuit(3, list(q.gates) + list(inverse(q).gates))
    assert np.abs(circuit_unitary(both) - np.eye(8)).max() < 1e-12


def test_inverse_of_cx_is_cx():
    c = Circuit(2, [cx(1, 2)])
    assert inverse(c).gates == c.gates


def test_inverse_refuses_sx():
    # SX is not its own inverse, and SX-dagger is no gate kind.
    with pytest.raises(ValueError, match="SX"):
        inverse(Circuit(2, [cx(1, 2), Gate("SX", 1)]))


def test_inverse_increment_is_decrement_permutation():
    # decrement mod 8: |a> -> |a-1 mod 8>
    got = circuit_unitary(inverse(build_increment(3)))
    want = np.zeros((8, 8))
    for a in range(8):
        want[(a - 1) % 8, a] = 1
    assert np.abs(got - want).max() < 1e-12


def test_double_inverse_restores_gates():
    circ = build(SynthConfig("mcu-zyz", 4, u=np.array([[0, 1], [1, 0]], dtype=complex)))
    assert structural_equal(inverse(inverse(circ)), circ)


def test_inverse_u2_params():
    g = u2((0.1, 0.2, 0.3, 0.4), 1)
    (gi,) = inverse(Circuit(1, [g])).gates
    assert gi.params == (-0.1, -0.4, -0.3, -0.2)
    u = circuit_unitary(Circuit(1, [g]))
    ui = circuit_unitary(Circuit(1, [gi]))
    assert np.abs(u @ ui - np.eye(2)).max() < 1e-12


# -- serialization -------------------------------------------------------------

def test_json_round_trip_preserves_gates():
    circ = build(SynthConfig("mcx-qft", 4))
    back = from_json(to_json(circ))
    assert back.n == circ.n
    assert len(back.gates) == len(circ.gates)
    for a, b in zip(circ.gates, back.gates):
        assert (a.kind, a.target, a.control) == (b.kind, b.target, b.control)
        assert np.allclose(a.params, b.params)
    assert np.abs(circuit_unitary(back) - circuit_unitary(circ)).max() < 1e-12


def test_json_schema_is_plain():
    # Scheduling annotations are deliberately not serialized.
    doc = json.loads(to_json(Circuit(2, [cp(0.5, 1, 2, block="plus")])))
    assert set(doc) == {"n", "gates"}
    assert set(doc["gates"][0]) == {"kind", "params", "target", "control"}


def test_from_json_rejects_garbage():
    with pytest.raises((ValueError, KeyError)):
        from_json(json.dumps({"n": 2, "gates": [{"kind": "nope", "target": 1}]}))


# -- helpers ------------------------------------------------------------------

def test_normalize_angle_branch():
    assert normalize_angle(np.pi) == pytest.approx(np.pi)
    assert normalize_angle(-np.pi) == pytest.approx(np.pi)
    assert normalize_angle(3 * np.pi) == pytest.approx(np.pi)
    assert normalize_angle(0.3) == pytest.approx(0.3)
    assert normalize_angle(-0.3) == pytest.approx(-0.3)


def test_structural_equal_angle_representatives():
    a = Circuit(2, [rz(np.pi / 2, 1), cx(1, 2)])
    b = Circuit(2, [rz(np.pi / 2 + 2 * np.pi, 1), cx(1, 2)])
    c = Circuit(2, [rz(np.pi / 2, 1), cx(2, 1)])
    assert structural_equal(a, b)
    assert not structural_equal(a, c)
    assert not structural_equal(a, Circuit(2, [rz(np.pi / 2, 1)]))
