"""Oracles and simulators: the ground truth everything else is judged against."""

from dataclasses import replace

import numpy as np
import pytest

from qftmcu import verifier
from qftmcu.circuit import TWO_QUBIT, Circuit, Gate, cx, h, rz
from qftmcu.gate_algebra import gate_unitary_1q
from qftmcu.layout import NativeCircuit, lower_to_ngs, synth_native
from qftmcu.linalg import kron
from qftmcu.synthesis import METHODS, SynthConfig, build, build_increment
from qftmcu.verifier import (
    VerifyResult,
    apply_statevector,
    circuit_unitary,
    mcu_oracle,
    oracle_apply,
    verify_mcu,
)
from tests.conftest import generic_u

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


# -- mcu_oracle ----------------------------------------------------------------

def test_oracle_x_n2_is_cx():
    # Control on wireline 1 (least significant), target on wireline 2: the
    # basis states with the control set are indices 1 and 3.
    want = np.eye(4)[:, [0, 3, 2, 1]]
    assert np.array_equal(mcu_oracle(X, 2), want)


def test_oracle_x_n3_swaps_3_and_7():
    got = mcu_oracle(X, 3)
    want = np.eye(8)
    want[[3, 7]] = want[[7, 3]]
    assert np.array_equal(got, want)


def test_oracle_identity_is_identity():
    for n in (2, 4, 6):
        assert np.array_equal(mcu_oracle(I2, n), np.eye(1 << n))


def test_oracle_generic_block(u_gen):
    n = 4
    got = mcu_oracle(u_gen, n)
    lo, hi = (1 << (n - 1)) - 1, (1 << n) - 1
    # Only the {|01..1>, |11..1>} pair carries u; everything else is identity.
    block = got[np.ix_([lo, hi], [lo, hi])]
    assert np.abs(block - u_gen).max() < 1e-15
    rest = got.copy()
    rest[lo, lo] = rest[hi, hi] = 1.0
    rest[lo, hi] = rest[hi, lo] = 0.0
    assert np.abs(rest - np.eye(1 << n)).max() == 0


def test_oracle_degenerate_widths():
    # n=1 degenerates to u itself (no controls); n=0 is rejected.
    assert np.array_equal(mcu_oracle(X, 1), X)
    with pytest.raises(ValueError):
        mcu_oracle(X, 0)


# -- circuit_unitary ----------------------------------------------------------------

def test_unitary_empty_circuit():
    assert np.array_equal(circuit_unitary(Circuit(3)), np.eye(8))


def test_unitary_wireline_one_is_least_significant():
    got = circuit_unitary(Circuit(2, [h(1)]))
    assert np.abs(got - kron(I2, H)).max() < 1e-15


def test_unitary_increment_is_cyclic_permutation():
    got = circuit_unitary(build_increment(3))
    want = np.zeros((8, 8))
    for a in range(8):
        want[(a + 1) % 8, a] = 1
    assert np.abs(got - want).max() < 1e-12


def test_unitary_homomorphism():
    rng = np.random.default_rng(3)
    gates1 = [h(1), cx(1, 2), rz(0.7, 3), cx(2, 3)]
    gates2 = [cx(3, 1), h(2), rz(-0.2, 1)]
    u1 = circuit_unitary(Circuit(3, gates1))
    u2 = circuit_unitary(Circuit(3, gates2))
    u12 = circuit_unitary(Circuit(3, gates1 + gates2))
    assert np.abs(u12 - u2 @ u1).max() < (len(gates1) + len(gates2)) * 1e-15


def test_unitary_width_cap():
    with pytest.raises(ValueError, match="statevector"):
        circuit_unitary(Circuit(13))


# -- the in-place kernel against its tensordot reference ----------------------

def _reference_apply(tensor, g, n):
    """The copy-and-tensordot kernel the in-place ``_apply_gate`` replaced,
    kept as its reference: a single-qubit gate is a tensordot on the target
    axis; a controlled gate copies the whole tensor and runs the tensordot
    on its control=1 half."""
    if g.kind == "SWAP":
        return np.swapaxes(tensor, n - g.control, n - g.target)
    mat = gate_unitary_1q(g.kind, g.params)
    if g.control is None:
        ax = n - g.target
        t = np.tensordot(mat, tensor, axes=([1], [ax]))
        return np.moveaxis(t, 0, ax)
    ax_c, ax_t = n - g.control, n - g.target
    t = np.moveaxis(tensor, ax_c, 0)
    ax_sub = (ax_t + 1 if ax_t < ax_c else ax_t) - 1
    sub = np.tensordot(mat, t[1], axes=([1], [ax_sub]))
    t = t.copy()
    t[1] = np.moveaxis(sub, 0, ax_sub)
    return np.moveaxis(t, 0, ax_c)


def _reference_run(circ, columns):
    """Push a (2^n,) vector or a (2^n, k) stack through the reference kernel."""
    n = circ.n
    tensor = np.array(columns, dtype=complex).reshape((2,) * n + columns.shape[1:])
    for g in circ.gates:
        tensor = _reference_apply(tensor, g, n)
    return tensor.reshape(columns.shape)


_PAYLOAD_KINDS = ("H", "X", "SX", "SXdg", "Rz", "Ry", "Rx", "P", "U2", "CX", "CP", "CRz", "CRx", "CU2")


def _random_gate(rng, n):
    kinds = [k for k in _PAYLOAD_KINDS + ("SWAP",) if n > 1 or k not in TWO_QUBIT]
    kind = kinds[int(rng.integers(len(kinds)))]
    wires = [int(w) for w in rng.permutation(np.arange(1, n + 1))[:2]]
    # A zero angle makes a diagonal factor exactly 1 (P(0), CRz(0)) or a U2
    # exactly diagonal (theta = 0), the kernel's shortcuts.
    angles = rng.uniform(-np.pi, np.pi, size=4) * (rng.random(size=4) > 0.2)
    params = () if kind in ("H", "X", "SX", "SXdg", "CX", "SWAP") else tuple(angles[:1])
    if kind in ("U2", "CU2"):
        params = tuple(angles)
    control = wires[1] if kind in TWO_QUBIT else None
    return Gate(kind, wires[0], control=control, params=params)


def test_kernel_matches_reference_on_random_circuits():
    rng = np.random.default_rng(6)
    seen = set()
    for _ in range(240):
        n = int(rng.integers(1, 7))
        circ = Circuit(n, [_random_gate(rng, n) for _ in range(int(rng.integers(1, 25)))])
        dim = 1 << n
        # Trailing batch axis: the unitary pushes all 2^n columns at once.
        want = _reference_run(circ, np.eye(dim, dtype=complex))
        assert np.abs(circuit_unitary(circ) - want).max() < 1e-13
        # No batch axis: one statevector.
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        assert np.abs(apply_statevector(circ, psi) - _reference_run(circ, psi)).max() < 1e-13
        after_swap = False
        for g in circ.gates:
            seen.add(g.kind)
            seen.add(("n", n))
            if g.control is not None and g.kind != "SWAP":
                seen.add("control above" if g.control > g.target else "control below")
            if after_swap and g.kind != "SWAP":
                seen.add("after swap")
            after_swap = after_swap or g.kind == "SWAP"
    want_seen = set(_PAYLOAD_KINDS) | {"SWAP", "control above", "control below", "after swap"}
    assert want_seen | {("n", n) for n in range(1, 7)} <= seen


# -- apply_statevector ----------------------------------------------------------

def test_statevector_increment_basis_hop():
    psi = np.zeros(8, dtype=complex)
    psi[0b101] = 1.0
    out = apply_statevector(build_increment(3), psi)
    assert abs(out[0b110] - 1.0) < 1e-12
    assert np.abs(np.delete(out, 0b110)).max() < 1e-12


def test_statevector_wraparound():
    psi = np.zeros(8, dtype=complex)
    psi[0b111] = 1.0
    out = apply_statevector(build_increment(3), psi)
    assert abs(out[0b000] - 1.0) < 1e-12


def test_statevector_agrees_with_unitary(u_gen):
    circ = build(SynthConfig("mcu-mod", 5, u=u_gen))
    u = circuit_unitary(circ)
    rng = np.random.default_rng(8)
    psi = rng.normal(size=32) + 1j * rng.normal(size=32)
    psi /= np.linalg.norm(psi)
    assert np.abs(apply_statevector(circ, psi) - u @ psi).max() < 1e-10


def test_statevector_preserves_norm(u_gen):
    circ = build(SynthConfig("mcu-zyz", 6, u=u_gen))
    rng = np.random.default_rng(9)
    psi = rng.normal(size=64) + 1j * rng.normal(size=64)
    psi /= np.linalg.norm(psi)
    out = apply_statevector(circ, psi)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_statevector_width_mismatch():
    with pytest.raises(ValueError):
        apply_statevector(Circuit(3), np.zeros(4, dtype=complex))
    with pytest.raises(ValueError):
        apply_statevector(Circuit(3), np.zeros((4, 2), dtype=complex))
    with pytest.raises(ValueError):
        apply_statevector(Circuit(3), np.zeros((8, 2, 2), dtype=complex))


def test_statevector_stack_equals_single_calls(u_gen):
    circ = build(SynthConfig("mcu-zyz", 5, u=u_gen))
    rng = np.random.default_rng(12)
    stack = rng.normal(size=(32, 4)) + 1j * rng.normal(size=(32, 4))
    kept = stack.copy()
    got = apply_statevector(circ, stack)
    assert got.shape == (32, 4)
    for j in range(4):
        assert np.abs(got[:, j] - apply_statevector(circ, stack[:, j])).max() < 1e-14
    # The kernel works in place, on a copy: the caller's arrays are untouched.
    assert np.array_equal(stack, kept)
    psi = stack[:, 0].copy()
    apply_statevector(circ, psi)
    assert np.array_equal(psi, kept[:, 0])


def test_oracle_apply_matches_matrix(u_gen):
    n = 6
    rng = np.random.default_rng(10)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi /= np.linalg.norm(psi)
    assert np.abs(oracle_apply(u_gen, n, psi) - mcu_oracle(u_gen, n) @ psi).max() < 1e-12
    # A (2^n, k) stack: each column is mixed from the input, not from a
    # half-updated row.
    stack = rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3))
    assert np.abs(oracle_apply(u_gen, n, stack) - mcu_oracle(u_gen, n) @ stack).max() < 1e-12


# -- wide-register spot checks (n=12) ---------------------------------------------

def test_mod_n12_all_ones_column(u_gen):
    n = 12
    circ = build(SynthConfig("mcu-mod", n, u=u_gen))
    psi = np.zeros(1 << n, dtype=complex)
    lo = (1 << (n - 1)) - 1  # |0 1..1>: controls on, target 0
    psi[lo] = 1.0
    out = apply_statevector(circ, psi)
    hi = (1 << n) - 1
    got = np.array([out[lo], out[hi]])
    assert np.abs(got - u_gen[:, 0]).max() < 1e-8
    mask = np.ones(1 << n, dtype=bool)
    mask[[lo, hi]] = False
    assert np.abs(out[mask]).max() < 1e-8


def test_mod_n12_control_off_is_inert(u_gen):
    n = 12
    circ = build(SynthConfig("mcu-mod", n, u=u_gen))
    idx = int("011111111110", 2)  # wireline 1 (LSB) off: not all controls set
    psi = np.zeros(1 << n, dtype=complex)
    psi[idx] = 1.0
    out = apply_statevector(circ, psi)
    assert abs(abs(out[idx]) - 1.0) < 1e-8


# -- verify_mcu tiers --------------------------------------------------------------

def test_verify_unitary_tier(u_gen):
    circ = build(SynthConfig("mcu-mod", 5, u=u_gen))
    res = verify_mcu(circ, u_gen)
    assert isinstance(res, VerifyResult)
    assert res.ok
    assert res.tier == "unitary"
    assert res.max_deviation <= 1e-9


def test_verify_statevector_tier(u_gen):
    circ = build(SynthConfig("mcu-mod", 13, u=u_gen))
    res = verify_mcu(circ, u_gen)
    assert res.ok
    assert res.tier == "statevector"
    assert res.max_deviation <= 1e-9


def _reference_verify_statevector(circ, u, tol=1e-9, probes=12, seed=0):
    """The statevector tier as it was before the probes were stacked, kept as
    its reference: one apply_statevector call per probe, phase from the
    first."""
    n = circ.n
    rng = np.random.default_rng(seed)
    dim = 1 << n
    basis = [(1 << (n - 1)) - 1, dim - 1, 0]
    basis += [int(v) for v in rng.integers(0, dim, size=max(probes - 4, 1))]
    states = []
    for idx in basis:
        e = np.zeros(dim, dtype=complex)
        e[idx] = 1.0
        states.append(e)
    dense = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    states.append(dense / np.linalg.norm(dense))
    phase = None
    max_dev = 0.0
    for psi in states:
        got = apply_statevector(circ, psi)
        want = oracle_apply(u, n, psi)
        if phase is None:
            k = int(np.argmax(np.abs(want)))
            phase = float(np.angle(got[k] / want[k]))
        max_dev = max(max_dev, float(np.max(np.abs(got - np.exp(1j * phase) * want))))
    return VerifyResult(max_dev <= tol, max_dev, float(phase), "statevector")


@pytest.mark.parametrize("method", ["mcu-mod", "mcu-zyz", "ldd"])
def test_verify_statevector_tier_matches_per_probe_loop(method, u_gen):
    circ = build(SynthConfig(method, 13, u=u_gen))
    got = verify_mcu(circ, u_gen)
    want = _reference_verify_statevector(circ, u_gen)
    assert (got.ok, got.tier) == (want.ok, want.tier) == (True, "statevector")
    assert abs(got.max_deviation - want.max_deviation) < 1e-12
    assert abs(got.global_phase - want.global_phase) < 1e-12


def test_verify_statevector_tier_in_several_passes(monkeypatch, u_gen):
    # Wide circuits push the probes through in several passes to bound
    # memory; a smaller budget makes n=13 take four (4 + 4 + 4 + 1 probes).
    monkeypatch.setattr(verifier, "_PROBE_STACK_AMPLITUDES", 1 << 15)
    circ = build(SynthConfig("mcu-mod", 13, u=u_gen))
    got = verify_mcu(circ, u_gen)
    want = _reference_verify_statevector(circ, u_gen)
    assert got.ok and got.tier == "statevector"
    assert abs(got.max_deviation - want.max_deviation) < 1e-12
    assert abs(got.global_phase - want.global_phase) < 1e-12


def test_verify_statevector_tier_flags_wrong_circuit(u_gen):
    circ = build(SynthConfig("mcu-mod", 13, u=u_gen, aqft_cutoff=1))
    res = verify_mcu(circ, u_gen)
    assert res.tier == "statevector"
    assert not res.ok
    assert res.max_deviation > 1e-3


def test_verify_flags_wrong_circuit(u_gen):
    # A truncated register behaves nothing like the oracle.
    circ = build(SynthConfig("mcu-mod", 5, u=u_gen, aqft_cutoff=1))
    res = verify_mcu(circ, u_gen)
    assert not res.ok
    assert res.max_deviation > 1e-3


# -- verify_mcu on native circuits, as the pipeline emits them ----------------------

@pytest.mark.parametrize("method", METHODS)
def test_verify_lowered_circuit_without_provenance(method, u_gen):
    # lower_to_ngs leaves the provenance fields unset (nc.n is None); the
    # width comes from the circuit itself.
    u = X if method == "mcx-qft" else u_gen
    nc = lower_to_ngs(build(SynthConfig(method, 5, u=None if method == "mcx-qft" else u)))
    assert nc.n is None
    res = verify_mcu(nc, u)
    assert res.ok and res.tier == "unitary"
    assert abs(res.global_phase) < 1e-9


@pytest.mark.parametrize("n", [5, 13])
def test_verify_reports_phase_as_result_over_oracle(n, u_gen):
    # A tracked phase raised by 0.3 makes the circuit e^(0.3i) times the
    # oracle, and the reported phase says +0.3 (circuit = e^(i phi) oracle).
    nc = lower_to_ngs(build(SynthConfig("mcu-zyz", n, u=u_gen)))
    res = verify_mcu(replace(nc, global_phase=nc.global_phase + 0.3), u_gen)
    assert res.ok and res.tier == ("unitary" if n <= 12 else "statevector")
    assert res.global_phase == pytest.approx(0.3, abs=1e-9)


def _with_wire_swaps(nc, pairs):
    """nc followed by a SWAP (three CX) of each pair of physical wirelines,
    with the final layout that records where each logical wireline went."""
    layout = list(range(1, nc.width + 1))
    gates = list(nc.gates)
    for a, b in pairs:
        gates += [cx(a, b), cx(b, a), cx(a, b)]
        layout = [b if p == a else a if p == b else p for p in layout]
    return NativeCircuit(nc.width, gates, nc.global_phase, final_layout=tuple(layout))


# The (1 3) transposition, and a 3-cycle, whose layout differs from its
# inverse and so pins the direction of the undo.
@pytest.mark.parametrize("pairs", [[(1, 3)], [(1, 2), (2, 3)]], ids=["swap13", "cycle123"])
@pytest.mark.parametrize("n", [5, 13])
def test_verify_undoes_final_layout(n, pairs, u_gen):
    nc = _with_wire_swaps(lower_to_ngs(build(SynthConfig("mcu-mod", n, u=u_gen))), pairs)
    res = verify_mcu(nc, u_gen)
    assert res.ok and res.tier == ("unitary" if n <= 12 else "statevector")
    assert abs(res.global_phase) < 1e-9
    assert not verify_mcu(replace(nc, final_layout=None), u_gen).ok


def test_verify_routed_circuit_on_statevector_tier(u_gen):
    nc = synth_native(SynthConfig("mcu-mod", 13, u=u_gen), arch="lnn")
    assert nc.swaps_inserted > 0
    res = verify_mcu(nc, u_gen)
    assert (res.ok, res.tier) == (True, "statevector")
    assert abs(res.global_phase) < 1e-9
