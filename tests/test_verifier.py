"""Oracles and simulators: the ground truth everything else is judged against."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from qftmcu import verifier
from qftmcu.circuit import TWO_QUBIT, Circuit, Gate, cx, h, inverse, rz
from qftmcu.gate_algebra import gate_unitary_1q
from qftmcu.layout import NativeCircuit, lower_to_ngs, route_lnn, synth_native
from qftmcu.synthesis import METHODS, SynthConfig, apply_aqft, build, build_increment
from qftmcu.verifier import (
    VerifyResult,
    apply_statevector,
    circuit_unitary,
    mcu_oracle,
    oracle_apply,
    verify_mcu,
)

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
    assert np.abs(got - np.kron(I2, H)).max() < 1e-15


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


_PAYLOAD_KINDS = ("H", "X", "SX", "Rz", "P", "U2", "CX", "CP", "CRx", "CU2")


def _random_gate(rng, n):
    kinds = [k for k in _PAYLOAD_KINDS + ("SWAP",) if n > 1 or k not in TWO_QUBIT]
    kind = kinds[int(rng.integers(len(kinds)))]
    wires = [int(w) for w in rng.permutation(np.arange(1, n + 1))[:2]]
    # A zero angle makes a diagonal factor exactly 1 (P(0), CP(0)) or a U2
    # exactly diagonal (theta = 0), the kernel's shortcuts.
    angles = rng.uniform(-np.pi, np.pi, size=4) * (rng.random(size=4) > 0.2)
    params = () if kind in ("H", "X", "SX", "CX", "SWAP") else tuple(angles[:1])
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


# -- the push split into parallel column blocks ------------------------------------

@pytest.fixture
def blocks(monkeypatch):
    """``blocks(w)`` makes every push split its columns as on w CPUs, at any
    size, so a runner with one CPU runs the threaded path too."""

    def split(workers):
        monkeypatch.setattr(verifier, "_workers", lambda: workers)
        monkeypatch.setattr(verifier, "_BLOCK_AMPLITUDES_LOG2", 0)

    return split


@pytest.mark.parametrize("workers", [2, 3])
def test_blocks_are_bit_identical_to_one_block_on_random_circuits(workers, blocks):
    # n >= 3: at n <= 2 a one-column block has one-amplitude slices, and numpy
    # rounds an in-place product on a one-element array differently from a
    # longer one.  A threaded push is far above that size.
    rng = np.random.default_rng(21 + workers)
    seen = set()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
    try:
        for _ in range(60):
            n = int(rng.integers(3, 8))
            circ = Circuit(n, [_random_gate(rng, n) for _ in range(int(rng.integers(1, 30)))])
            # 1..7 columns: fewer than the blocks, and counts they do not divide.
            stack = rng.normal(size=(1 << n, int(rng.integers(1, 8)))) + 0j
            blocks(1)
            want = circuit_unitary(circ), apply_statevector(circ, stack)
            blocks(workers)
            got = circuit_unitary(circ), apply_statevector(circ, stack)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            for g in circ.gates:
                if g.control is not None and g.kind != "SWAP":
                    seen.add("control above" if g.control > g.target else "control below")
                seen.add(g.kind)
    finally:
        sys.setswitchinterval(interval)
    assert {"SWAP", "control above", "control below"} <= seen


def test_blocks_split_the_columns_as_evenly_as_they_can(blocks, monkeypatch, u_gen):
    circ = build(SynthConfig("mcu-zyz", 5, u=u_gen))
    widths = []
    kernel = verifier._apply

    def recording(ops, tensor, scratch):
        widths.append(tensor.shape[-1])
        return kernel(ops, tensor, scratch)

    def split(push, *args):
        # The column counts of the push's blocks (run in any order).
        widths.clear()
        push(circ, *args)
        return sorted(widths)

    monkeypatch.setattr(verifier, "_apply", recording)

    blocks(3)
    assert split(circuit_unitary) == [10, 11, 11]
    assert split(apply_statevector, np.ones((32, 5))) == [1, 2, 2]
    assert split(apply_statevector, np.ones((32, 2))) == [1, 1]  # fewer columns than workers
    assert split(apply_statevector, np.ones(32)) == [1]
    # One CPU, or a push under twice the least block: one block, as before
    # the split.
    blocks(1)
    assert split(circuit_unitary) == [32]
    monkeypatch.setattr(verifier, "_workers", lambda: 4)
    monkeypatch.setattr(verifier, "_BLOCK_AMPLITUDES_LOG2", 10)  # 32 x 32 = 2^10
    assert split(circuit_unitary) == [32]
    # More CPUs than least blocks fit: as many blocks as fit, none smaller.
    monkeypatch.setattr(verifier, "_BLOCK_AMPLITUDES_LOG2", 9)
    assert split(circuit_unitary) == [16, 16]
    monkeypatch.setattr(verifier, "_BLOCK_AMPLITUDES_LOG2", 8)
    assert split(circuit_unitary) == [8, 8, 8, 8]
    assert split(apply_statevector, np.ones((32, 12))) == [12]  # 384 < 2 x 2^8


@pytest.mark.parametrize("workers", [2, 3])
def test_blocks_keep_statevector_inputs_and_results(workers, blocks, u_gen):
    circ = route_lnn(build(SynthConfig("mcu-mod", 6, u=u_gen)))
    rng = np.random.default_rng(31)
    stack = rng.normal(size=(64, 5)) + 1j * rng.normal(size=(64, 5))
    psi = stack[:, 0].copy()
    kept = stack.copy(), psi.copy()
    blocks(1)
    want = apply_statevector(circ, stack), apply_statevector(circ, psi)
    blocks(workers)
    got = apply_statevector(circ, stack), apply_statevector(circ, psi)
    assert got[0].shape == (64, 5) and got[1].shape == (64,)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert np.array_equal(stack, kept[0]) and np.array_equal(psi, kept[1])


@pytest.mark.parametrize("n", [6, 13])
def test_blocks_verify_a_routed_build_identically(n, blocks, u_gen):
    nc = synth_native(SynthConfig("mcu-mod", n, u=u_gen), arch="lnn")
    assert nc.swaps_inserted > 0
    routed = route_lnn(build(SynthConfig("ldd", n, u=u_gen)))
    blocks(1)
    want = verify_mcu(nc, u_gen), verify_mcu(routed, u_gen)
    assert want[0].ok and want[1].ok
    for workers in (2, 3):
        blocks(workers)
        assert (verify_mcu(nc, u_gen), verify_mcu(routed, u_gen)) == want


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_a_block_that_raises_fails_the_push(where, blocks, monkeypatch, u_gen):
    kernel = verifier._apply

    def failing(ops, tensor, scratch):
        if (threading.current_thread() is threading.main_thread()) == (where == "caller"):
            raise RuntimeError(f"{where} block failed")
        return kernel(ops, tensor, scratch)

    monkeypatch.setattr(verifier, "_apply", failing)
    blocks(2)
    running = threading.active_count()
    circ = build(SynthConfig("mcu-mod", 5, u=u_gen))
    with pytest.raises(RuntimeError, match=f"{where} block failed"):
        circuit_unitary(circ)
    with pytest.raises(RuntimeError, match=f"{where} block failed"):
        verify_mcu(circ, u_gen)
    assert threading.active_count() == running  # every worker was joined


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


@pytest.mark.parametrize("method, n", [("mcx-qft", 14), ("mcu-zyz", 13)])
def test_verify_phase_of_wrong_circuit_comes_from_the_overlap(method, n, u_gen):
    # Truncated at cutoff 1 both circuits are wrong.  mcu-zyz's output at the
    # first probe's largest oracle amplitude is rounding noise (~2e-16), so a
    # phase read there is arbitrary; the overlap's phase brings the first
    # probe as close to the oracle's output as any phase can.  (mcx-qft's
    # first output is orthogonal to the oracle's: every phase is as close.)
    u = X if method == "mcx-qft" else u_gen
    circ = build(SynthConfig(method, n, u=None if method == "mcx-qft" else u, aqft_cutoff=1))
    res = verify_mcu(circ, u)
    assert res.tier == "statevector" and not res.ok
    got, want = next(verifier._outputs(circ, u))
    g, w = got[:, 0], want[:, 0]
    closest = np.sqrt(2 - 2 * abs(np.vdot(w, g)))  # both unit vectors
    assert abs(np.linalg.norm(g - np.exp(1j * res.global_phase) * w) - closest) < 1e-12


def test_verify_flags_wrong_circuit(u_gen):
    # A truncated register behaves nothing like the oracle.
    circ = build(SynthConfig("mcu-mod", 5, u=u_gen, aqft_cutoff=1))
    res = verify_mcu(circ, u_gen)
    assert not res.ok
    assert res.max_deviation > 1e-3


# -- verify_mcu on native circuits, as the pipeline emits them ----------------------

@pytest.mark.parametrize("method", METHODS)
def test_verify_lowered_circuit_without_provenance(method, u_gen):
    # lower_to_ngs leaves the provenance fields unset (no method); the width
    # is the circuit's own.
    u = X if method == "mcx-qft" else u_gen
    nc = lower_to_ngs(build(SynthConfig(method, 5, u=None if method == "mcx-qft" else u)))
    assert nc.method is None and nc.n == 5
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
    layout = list(range(1, nc.n + 1))
    gates = list(nc.gates)
    for a, b in pairs:
        gates += [cx(a, b), cx(b, a), cx(a, b)]
        layout = [b if p == a else a if p == b else p for p in layout]
    return NativeCircuit(nc.n, gates, nc.global_phase, final_layout=tuple(layout))


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



@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n", [5, 13])
def test_verify_checks_a_routed_abstract_circuit(method, n, u_gen):
    u = X if method == "mcx-qft" else u_gen
    circ = build(SynthConfig(method, n, None if method == "mcx-qft" else u))
    res = verify_mcu(route_lnn(circ), u)
    assert res.ok and res.tier == ("unitary" if n <= 12 else "statevector")
    # Two CX that cancel, from wireline 1 to n, are routed greedily and
    # leave the line permuted: the layout is undone, not ignored.
    permuted = route_lnn(Circuit(n, circ.gates + [cx(1, n), cx(1, n)]))
    assert permuted.final_layout != tuple(range(1, n + 1))
    assert verify_mcu(permuted, u).ok
    assert not verify_mcu(replace(permuted, final_layout=None), u).ok


def test_aqft_keeps_and_inverse_refuses_a_final_layout():
    # The CX(1,5) pair is routed greedily and leaves the line permuted.
    circ = build(SynthConfig("mcx-qft", 5))
    routed = route_lnn(Circuit(5, circ.gates + [cx(1, 5), cx(1, 5)]))
    assert routed.final_layout == (4, 1, 2, 3, 5)
    kept = apply_aqft(routed, 5)
    assert kept.final_layout == routed.final_layout
    assert verify_mcu(kept, X).ok
    # Its inverse would start in that layout, not end in it.
    with pytest.raises(ValueError, match="final_layout"):
        inverse(routed)
