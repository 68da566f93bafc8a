"""Rewrite passes: merging, phase ladders, LDD simplification, CX
cancellation.  Every pass must keep the unitary, global phase included."""

import numpy as np
import pytest

from qftmcu.circuit import (
    Circuit,
    cp,
    cx,
    from_json,
    rz,
    schedule_slots,
    to_json,
)
from qftmcu.optimizer import (
    PASSES,
    cancel_cx_pairs,
    ldd_to_qft,
    merge_phase_columns,
)
from qftmcu.synthesis import (
    SynthConfig,
    build,
    build_decrement,
    build_increment,
    insert_phase_ladder,
)
from qftmcu.verifier import circuit_unitary
from tests.oracles import structural_equal


def _reconciles(before, after, tol=1e-10):
    u0 = circuit_unitary(before)
    u1 = circuit_unitary(after)
    return np.abs(u1 - u0).max() < tol


# -- merge_phase_columns -----------------------------------------------------------

def test_merge_mcx_slot_delta_is_eight():
    for n in range(4, 11):
        unopt = build(SynthConfig("mcx-qft", n, optimize=False))
        merged = merge_phase_columns(unopt)
        assert schedule_slots(unopt) - schedule_slots(merged) == 8


def test_merge_preserves_unitary():
    for n in range(3, 8):
        unopt = build(SynthConfig("mcx-qft", n, optimize=False))
        merged = merge_phase_columns(unopt)
        assert _reconciles(unopt, merged)


def test_merge_is_idempotent():
    merged = merge_phase_columns(build(SynthConfig("mcx-qft", 5, optimize=False)))
    assert merge_phase_columns(merged).gates == merged.gates


def test_merge_refuses_without_annotations():
    # The JSON schema drops block annotations on purpose; the pass must
    # refuse rather than guess which gates belong to which register block.
    stripped = from_json(to_json(build(SynthConfig("mcx-qft", 5, optimize=False))))
    with pytest.raises(ValueError, match="no block annotations"):
        merge_phase_columns(stripped)


# -- insert_phase_ladder --------------------------------------------------------

def _inc_dec_frame(n: int) -> Circuit:
    gates = list(build_increment(n - 1).gates) + list(build_decrement(n - 1).gates)
    return Circuit(n, gates)


def test_ladder_zero_delta_is_noop():
    base = _inc_dec_frame(3)
    assert insert_phase_ladder(base, 0.0).gates == base.gates


def test_ladder_phases_exactly_the_all_ones_controls():
    delta = np.pi / 2
    base = _inc_dec_frame(3)
    out = insert_phase_ladder(base, delta)
    got = circuit_unitary(out)
    want = np.eye(8, dtype=complex)
    for a in range(8):
        if (a & 0b011) == 0b011:  # both control wirelines set
            want[a, a] = np.exp(1j * delta)
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("delta", [0.37, -1.2, np.pi])
def test_ladder_generic_deltas(delta):
    base = _inc_dec_frame(4)
    got = circuit_unitary(insert_phase_ladder(base, delta))
    want = np.eye(16, dtype=complex)
    for a in range(16):
        if (a & 0b0111) == 0b0111:
            want[a, a] = np.exp(1j * delta)
    assert np.abs(got - want).max() < 1e-12


# -- ldd_to_qft ---------------------------------------------------------------------

@pytest.mark.parametrize("n", range(3, 9))
def test_ldd_round_trip_structural(n, u_gen):
    ldd = build(SynthConfig("ldd", n, u=u_gen))
    back = ldd_to_qft(ldd)
    mod = build(SynthConfig("mcu-mod", n, u=u_gen))
    assert structural_equal(back, mod)


@pytest.mark.parametrize("n", range(3, 7))
def test_ldd_to_qft_preserves_unitary(n, u_gen):
    ldd = build(SynthConfig("ldd", n, u=u_gen))
    assert _reconciles(ldd, ldd_to_qft(ldd))


def test_ldd_to_qft_reduces_native_totals(u_gen):
    from qftmcu.layout import lower_to_ngs

    ldd = build(SynthConfig("ldd", 6, u=u_gen))
    back = ldd_to_qft(ldd)
    before = sum(lower_to_ngs(ldd).counts().values())
    after = sum(lower_to_ngs(back).counts().values())
    assert after < before


def test_ldd_to_qft_refuses_non_ldd_shapes(u_gen):
    with pytest.raises(ValueError, match="contains Hadamards"):
        ldd_to_qft(build(SynthConfig("mcx-qft", 5)))
    once = ldd_to_qft(build(SynthConfig("ldd", 5, u=u_gen)))
    with pytest.raises(ValueError, match="contains Hadamards"):
        ldd_to_qft(once)
    with pytest.raises(ValueError, match="no CRx gates"):
        ldd_to_qft(Circuit(2, [rz(0.3, 1)]))
    stripped = from_json(to_json(build(SynthConfig("ldd", 5, u=u_gen))))
    with pytest.raises(ValueError, match="no block annotations"):
        ldd_to_qft(stripped)


def test_ldd_to_qft_refuses_truncated_stages(u_gen):
    # Converting this AQFT build would move an entry of its unitary by 0.14.
    ldd = build(SynthConfig("ldd", 6, u=u_gen, aqft_cutoff=2))
    with pytest.raises(ValueError, match="truncated stages"):
        ldd_to_qft(ldd)
    # A cutoff that drops only payload roots leaves every CRx stage whole.
    ldd = build(SynthConfig("ldd", 6, u=u_gen, aqft_cutoff=4))
    assert _reconciles(ldd, ldd_to_qft(ldd))


# -- cancel_cx_pairs -----------------------------------------------------------

def test_cancel_cx_adjacent_pair():
    assert cancel_cx_pairs(Circuit(2, [cx(1, 2), cx(1, 2)])).gates == []


def test_cancel_cx_blocked_by_intervening_gate():
    circ = Circuit(2, [cx(1, 2), rz(0.3, 1), cx(1, 2)])
    out = cancel_cx_pairs(circ)
    assert len(out.gates) == 3


def test_cancel_cx_ignores_spectator_wirelines():
    circ = Circuit(3, [cx(1, 2), rz(0.3, 3), cx(1, 2)])
    out = cancel_cx_pairs(circ)
    assert [g.kind for g in out.gates] == ["Rz"]


def test_cancel_cx_orientation_matters():
    circ = Circuit(2, [cx(1, 2), cx(2, 1)])
    out = cancel_cx_pairs(circ)
    assert len(out.gates) == 2


def test_cancel_cx_reaches_fixpoint():
    # Nested pairs: deleting the inner pair exposes the outer one.
    circ = Circuit(3, [cx(1, 2), cx(2, 3), cx(2, 3), cx(1, 2)])
    out = cancel_cx_pairs(circ)
    assert out.gates == []
    assert cancel_cx_pairs(out).gates == []


def test_cancel_cx_odd_run_keeps_its_last_gate():
    gates = [cx(1, 2), cx(1, 2), cx(1, 2)]
    out = cancel_cx_pairs(Circuit(2, gates))
    assert len(out.gates) == 1 and out.gates[0] is gates[2]


def test_cancel_cx_keeps_the_copy_the_scan_keeps():
    # The first scan cancels the inner CX(2,3) pair and then the adjacent
    # CX(1,2) pair at the end, so the first CX(1,2) stays, ahead of the Rz.
    # Cancelling each CX against the latest live gate (a per-wire stack)
    # would pair the first CX(1,2) with the fifth gate and keep the last.
    gates = [cx(1, 2), cx(2, 3), cx(2, 3), rz(0.3, 4), cx(1, 2), cx(1, 2)]
    out = cancel_cx_pairs(Circuit(4, gates))
    assert [id(g) for g in out.gates] == [id(gates[0]), id(gates[3])]


def _reference_cancel(gates):
    """The O(m^2) scan ``cancel_cx_pairs`` replaced, kept as its reference:
    pair each CX with the next gate on either wire if that is the same CX,
    deleting from the list, and rescan until nothing changes."""
    gates = list(gates)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(gates):
            g = gates[i]
            if g.kind == "CX":
                wires = set(g.wires())
                for j in range(i + 1, len(gates)):
                    other = gates[j]
                    if wires & set(other.wires()):
                        if (
                            other.kind == "CX"
                            and other.control == g.control
                            and other.target == g.target
                        ):
                            del gates[j]
                            del gates[i]
                            changed = True
                            i -= 1
                        break
            i += 1
    return gates


def _assert_cancels_like_reference(circ):
    # By identity, on copies: lowering shares one record among equal CX, so
    # keeping the other one of two equal CX would go unseen on its output.
    circ = Circuit(circ.n, [g._replace() for g in circ.gates])
    out = cancel_cx_pairs(circ)
    want = _reference_cancel(circ.gates)
    assert [id(g) for g in out.gates] == [id(g) for g in want]


def test_cancel_cx_matches_reference_on_random_circuits():
    # CX-heavy lists on a few wire pairs, so runs, nested cascades and odd
    # runs are common; Rz and CP block on one or both wires.
    rng = np.random.default_rng(11)
    for _ in range(400):
        n = int(rng.integers(2, 6))
        pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
        pool = [pairs[k] for k in rng.choice(len(pairs), size=min(3, len(pairs)), replace=False)]
        gates = []
        for _ in range(int(rng.integers(1, 40))):
            c, t = pool[int(rng.integers(len(pool)))]
            r = rng.random()
            if r < 0.8:
                gates.append(cx(c, t))
            elif r < 0.9:
                gates.append(rz(0.1, int(rng.integers(1, n + 1))))
            else:
                gates.append(cp(0.2, c, t))
        _assert_cancels_like_reference(Circuit(n, gates))


def test_cancel_cx_matches_reference_on_routed_circuits(u_gen):
    from qftmcu.layout import synth_native

    for method in ("mcu-mod", "mcu-zyz", "ldd"):
        for n in range(4, 9):
            native = synth_native(SynthConfig(method, n, u=u_gen), "lnn")
            _assert_cancels_like_reference(native)


def test_cancel_cx_preserves_unitary(u_gen):
    from qftmcu.layout import lower_to_ngs

    native = lower_to_ngs(build(SynthConfig("mcu-mod", 4, u=u_gen)))
    assert _reconciles(native, cancel_cx_pairs(native))


# -- composition --------------------------------------------------------------------

def test_pass_registry_names():
    assert set(PASSES) == {"merge", "ldd-to-qft"}


def test_composition_never_grows(u_gen):
    circ = build(SynthConfig("mcu-mod", 6, u=u_gen, optimize=False))
    merged = PASSES["merge"](circ)
    assert len(merged.gates) <= len(circ.gates)
    assert schedule_slots(merged) <= schedule_slots(circ)
