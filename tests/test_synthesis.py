"""Builders: QFT blocks, the four MCU constructions, AQFT truncation, and the
frozen slot/count bookkeeping they are pinned to."""

import numpy as np
import pytest

from qftmcu.circuit import BLOCK_MINUS, BLOCK_PLUS, Circuit, count_gates, cp, inverse, schedule_slots
from qftmcu.gate_algebra import u2_mat
from qftmcu.linalg import equal_up_to_global_phase
from qftmcu.synthesis import (
    METHODS,
    SynthConfig,
    apply_aqft,
    build,
    build_decrement,
    build_increment,
    build_qft,
    default_aqft_cutoff,
    expected_counts,
)
from qftmcu.verifier import circuit_unitary, mcu_oracle
from tests.oracles import aqft_expected_counts

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


# -- QFT block -------------------------------------------------------------------

def test_qft_k1_is_single_h():
    (g,) = build_qft(1).gates
    assert g.kind == "H" and g.target == 1


def test_qft_k2_gate_order():
    kinds = [(g.kind, g.target, g.control) for g in build_qft(2).gates]
    assert kinds == [("H", 2, None), ("CP", 2, 1), ("H", 1, None)]
    cp_gate = build_qft(2).gates[1]
    assert cp_gate.params == (np.pi / 2,)


def test_qft_k3_is_bit_reversed_dft():
    got = circuit_unitary(build_qft(3))
    w = np.exp(2j * np.pi / 8)
    dft = np.array([[w ** (j * k) for k in range(8)] for j in range(8)]) / np.sqrt(8)
    rev = np.zeros((8, 8))
    for a in range(8):
        rev[((a & 1) << 2) | (a & 2) | ((a & 4) >> 2), a] = 1
    # No terminal swap network, so the DFT comes out with reversed bit order.
    assert np.abs(got - rev @ dft).max() < 1e-12


# -- register increments -----------------------------------------------------------

def test_increment_full_unitary_cycles():
    got = circuit_unitary(build_increment(3))
    want = np.zeros((8, 8))
    for a in range(8):
        want[(a + 1) % 8, a] = 1
    assert np.abs(got - want).max() < 1e-12


def test_decrement_inverts_increment():
    for k in (2, 3, 4):
        ui = circuit_unitary(build_increment(k))
        ud = circuit_unitary(build_decrement(k))
        assert np.abs(ud @ ui - np.eye(1 << k)).max() < 1e-12


@pytest.mark.parametrize("block", [BLOCK_PLUS, BLOCK_MINUS])
def test_decrement_is_the_inverted_increment_gate_for_gate(block):
    for k in range(1, 13):
        assert build_decrement(k, block=block).gates == inverse(build_increment(k, block=block)).gates


# -- config validation -------------------------------------------------------------

def test_config_rejects_unknown_method():
    with pytest.raises(ValueError):
        SynthConfig("grover", 5)


def test_config_width_floors():
    with pytest.raises(ValueError):
        SynthConfig("mcu-mod", 1, u=X)
    with pytest.raises(ValueError):
        SynthConfig("ldd", 2, u=X)  # ldd needs n >= 3
    SynthConfig("ldd", 3, u=X)


def test_config_requires_unitary_payload():
    with pytest.raises(ValueError):
        SynthConfig("mcu-mod", 4)
    with pytest.raises(ValueError):
        SynthConfig("mcu-mod", 4, u=np.array([[1, 1], [0, 1]], dtype=complex))
    with pytest.raises(ValueError):
        SynthConfig("mcu-mod", 4, u=np.eye(3))


def test_config_mcx_ignores_payload():
    assert SynthConfig("mcx-qft", 4, u=X).u is None


def test_config_cutoff_bounds():
    with pytest.raises(ValueError):
        SynthConfig("mcu-mod", 4, u=X, aqft_cutoff=0)
    with pytest.raises(ValueError):
        SynthConfig("mcu-mod", 4, u=X, aqft_cutoff=5)


# -- mcx-qft ----------------------------------------------------------------------

def test_mcx_n2_is_cx():
    got = circuit_unitary(build(SynthConfig("mcx-qft", 2)))
    ok, _, _ = equal_up_to_global_phase(got, mcu_oracle(X, 2), 1e-9)
    assert ok


@pytest.mark.parametrize("n", range(3, 8))
def test_mcx_oracle_equivalence(n):
    for optimize in (False, True):
        got = circuit_unitary(build(SynthConfig("mcx-qft", n, optimize=optimize)))
        ok, _, dev = equal_up_to_global_phase(got, mcu_oracle(X, n), 1e-9)
        assert ok, f"n={n} optimize={optimize} dev={dev}"


@pytest.mark.parametrize("n", range(4, 21))
def test_mcx_slots_and_merge_delta(n):
    unopt = schedule_slots(build(SynthConfig("mcx-qft", n, optimize=False)))
    opt = schedule_slots(build(SynthConfig("mcx-qft", n)))
    assert unopt == 8 * n - 6
    assert opt == 8 * n - 14
    assert unopt - opt == 8


@pytest.mark.parametrize("n", range(4, 21))
def test_mcx_counts(n):
    got = count_gates(build(SynthConfig("mcx-qft", n)))
    want = expected_counts("mcx-qft", n)
    assert want == {"H": 4 * n - 6, "CP": (n - 1) ** 2 + (n - 2) ** 2, "X": 2}
    assert got == want


# -- mcu-mod ----------------------------------------------------------------------

def test_mod_n2_degenerates_to_single_cu2(u_gen):
    circ = build(SynthConfig("mcu-mod", 2, u=u_gen))
    assert [g.kind for g in circ.gates] == ["CU2"]
    assert np.abs(circuit_unitary(circ) - mcu_oracle(u_gen, 2)).max() < 1e-12


@pytest.mark.parametrize("n", range(3, 7))
def test_mod_oracle_equivalence(n, u_gen):
    got = circuit_unitary(build(SynthConfig("mcu-mod", n, u=u_gen)))
    ok, _, dev = equal_up_to_global_phase(got, mcu_oracle(u_gen, n), 1e-9)
    assert ok, f"n={n} dev={dev}"


def test_mod_n5_frozen_example(u_gen):
    circ = build(SynthConfig("mcu-mod", 5, u=u_gen))
    assert schedule_slots(circ) == 22
    assert count_gates(circ) == {"H": 8, "CP": 16, "CU2": 7, "CX": 2}


@pytest.mark.parametrize("n", range(4, 21))
def test_mod_slots_formula(n, u_gen):
    circ = build(SynthConfig("mcu-mod", n, u=u_gen))
    assert schedule_slots(circ) == 8 * n - 18


@pytest.mark.parametrize("n", range(4, 21))
def test_mod_counts_formula(n, u_gen):
    got = count_gates(build(SynthConfig("mcu-mod", n, u=u_gen)))
    want = expected_counts("mcu-mod", n)
    assert want == {
        "H": 4 * (n - 3),
        "CP": 2 * (n - 1) * (n - 3),
        "CU2": 2 * n - 3,
        "CX": 2,
    }
    assert got == want


def test_mod_counts_at_two_wirelines(u_gen):
    # n = 2 is one root, CU(1 -> 2) = u, which the n >= 3 formula misses.
    got = count_gates(build(SynthConfig("mcu-mod", 2, u=u_gen)))
    assert got == expected_counts("mcu-mod", 2) == {"CU2": 1}


def test_mod_restricted_to_z_is_controlled_z():
    for n in (3, 4, 5):
        got = circuit_unitary(build(SynthConfig("mcu-mod", n, u=Z)))
        ok, _, dev = equal_up_to_global_phase(got, mcu_oracle(Z, n), 1e-9)
        assert ok, f"n={n} dev={dev}"


def test_mod_unoptimized_still_exact(u_gen):
    circ = build(SynthConfig("mcu-mod", 5, u=u_gen, optimize=False))
    ok, _, _ = equal_up_to_global_phase(
        circuit_unitary(circ), mcu_oracle(u_gen, 5), 1e-9
    )
    assert ok


# -- mcu-zyz ----------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 7))
def test_zyz_oracle_equivalence(n, u_gen):
    got = circuit_unitary(build(SynthConfig("mcu-zyz", n, u=u_gen)))
    ok, _, dev = equal_up_to_global_phase(got, mcu_oracle(u_gen, n), 1e-9)
    assert ok, f"n={n} dev={dev}"


def test_zyz_n5_frozen_example(u_gen):
    circ = build(SynthConfig("mcu-zyz", 5, u=u_gen))
    assert schedule_slots(circ) == 31
    assert count_gates(circ) == {"H": 12, "CP": 30, "CX": 2, "P": 7, "U2": 3}


@pytest.mark.parametrize("n", range(4, 21))
def test_zyz_slots_formula(n, u_gen):
    slots = schedule_slots(build(SynthConfig("mcu-zyz", n, u=u_gen)))
    assert slots == 8 * n - 9
    # Register blocks take 8n-12; A, B, C add at most three more.
    assert 8 * n - 12 <= slots <= 8 * n - 12 + 3


@pytest.mark.parametrize("n", range(4, 21))
def test_zyz_counts_formula(n, u_gen):
    got = count_gates(build(SynthConfig("mcu-zyz", n, u=u_gen)))
    want = expected_counts("mcu-zyz", n)
    assert want == {
        "H": 4 * (n - 2),
        "CP": 2 * n * (n - 2),
        "CX": 2,
        "P": 2 * n - 3,
        "U2": 3,
    }
    assert got == want


def test_zyz_det_one_payload_drops_ladder():
    # det(u) = 1 means no determinant phase to distribute: no P ladder.
    u = u2_mat(0.0, 0.7, 1.1, -2.3)
    got = count_gates(build(SynthConfig("mcu-zyz", 6, u=u)))
    assert got.get("P", 0) == 0


# -- ldd --------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(3, 7))
def test_ldd_oracle_equivalence(n, u_gen):
    got = circuit_unitary(build(SynthConfig("ldd", n, u=u_gen)))
    ok, _, dev = equal_up_to_global_phase(got, mcu_oracle(u_gen, n), 1e-9)
    assert ok, f"n={n} dev={dev}"


@pytest.mark.parametrize("n", range(4, 21))
def test_ldd_counts_formula(n, u_gen):
    got = count_gates(build(SynthConfig("ldd", n, u=u_gen)))
    want = expected_counts("ldd", n)
    assert want["CRx"] == 2 * (n - 1) * (n - 3) + 2
    assert want["CU2"] == 2 * n - 3
    for kind, count in want.items():
        assert got.get(kind, 0) == count
    assert got.get("H", 0) == 0  # every H is absorbed by the Rx conjugation


# -- AQFT -------------------------------------------------------------------------

def test_default_aqft_cutoff_is_ceil_log2():
    assert default_aqft_cutoff(4) == 2
    assert default_aqft_cutoff(5) == 3
    assert default_aqft_cutoff(8) == 3
    assert default_aqft_cutoff(9) == 4
    assert default_aqft_cutoff(16) == 4
    assert default_aqft_cutoff(17) == 5


def test_aqft_full_cutoff_is_identity_rewrite(u_gen):
    circ = build(SynthConfig("mcu-mod", 6, u=u_gen))
    assert apply_aqft(circ, 6).gates == circ.gates


def test_aqft_keeps_an_unannotated_rotation():
    # The cutoff reads root_m only; pi/8 is root index 4, but without the
    # annotation the gate is kept rather than guessed at.
    circ = Circuit(4, [cp(np.pi / 8, 1, 4), cp(np.pi / 8, 2, 4, root_m=4)])
    assert apply_aqft(circ, 2).gates == circ.gates[:1]


def test_aqft_cutoff_bounds(u_gen):
    circ = build(SynthConfig("mcu-mod", 5, u=u_gen))
    with pytest.raises(ValueError):
        apply_aqft(circ, 0)
    with pytest.raises(ValueError):
        apply_aqft(circ, 6)


def test_aqft_mod_n8_m3_frozen_example(u_gen):
    circ = build(SynthConfig("mcu-mod", 8, u=u_gen, aqft_cutoff=3))
    got = count_gates(circ)
    assert got["CP"] == 2 * (3 - 1) * (2 * 8 - 3 - 3) == 40
    assert got["CU2"] == 2 * (3 - 1) == 4
    assert got["H"] == 20  # Hadamards are untouched by the cutoff


@pytest.mark.parametrize("n", range(5, 13))
def test_aqft_count_formulas(n, u_gen):
    mu = default_aqft_cutoff(n)
    if not 2 <= mu <= n - 2:
        pytest.skip("formula regime")
    mod = count_gates(build(SynthConfig("mcu-mod", n, u=u_gen, aqft_cutoff=mu)))
    want = aqft_expected_counts("mcu-mod", n, mu)
    assert mod["CP"] == want["CP"] == 2 * (mu - 1) * (2 * n - 3 - mu)
    assert mod["CU2"] == want["CU2"] == 2 * (mu - 1)
    zyz = count_gates(build(SynthConfig("mcu-zyz", n, u=u_gen, aqft_cutoff=mu)))
    assert zyz["CP"] == aqft_expected_counts("mcu-zyz", n, mu)["CP"]


def test_aqft_close_at_generous_cutoff(u_gen):
    # With the default cutoff the truncated circuit stays a good approximation.
    n = 6
    full = build(SynthConfig("mcu-mod", n, u=u_gen))
    trunc = apply_aqft(full, default_aqft_cutoff(n))
    dev = np.abs(circuit_unitary(trunc) - circuit_unitary(full)).max()
    assert 0 < dev < 0.5


@pytest.mark.parametrize("n", [6, 8])
def test_aqft_truncates_ldd_like_mod(n, u_gen):
    # ldd rewrites each CP and CX of mcu-mod into a CRx, so a cutoff must drop
    # the same rotations from both and cost both the same accuracy.
    ldd_full = build(SynthConfig("ldd", n, u=u_gen))
    ldd_u = circuit_unitary(ldd_full)
    mod_u = circuit_unitary(build(SynthConfig("mcu-mod", n, u=u_gen)))
    # An n=8 unitary costs about half a second, so there only m=3 is multiplied out.
    for m in range(2, n + 1):
        ldd = build(SynthConfig("ldd", n, u=u_gen, aqft_cutoff=m))
        mod = build(SynthConfig("mcu-mod", n, u=u_gen, aqft_cutoff=m))
        assert apply_aqft(ldd_full, m).gates == ldd.gates
        got, want = count_gates(ldd), count_gates(mod)
        assert got["CRx"] == want["CP"] + want["CX"], f"m={m}"
        if m == 3:
            assert got["CRx"] == {6: 26, 8: 42}[n]
        elif n == 8:
            continue
        ldd_err = np.abs(circuit_unitary(ldd) - ldd_u).max()
        mod_err = np.abs(circuit_unitary(mod) - mod_u).max()
        assert abs(ldd_err - mod_err) < 1e-12, f"m={m}: {ldd_err} vs {mod_err}"


# -- dispatcher ----------------------------------------------------------------

def test_build_dispatch_covers_methods(u_gen):
    for method in METHODS:
        n = 3
        cfg = SynthConfig(method, n, u=None if method == "mcx-qft" else u_gen)
        circ = build(cfg)
        assert circ.n == n
        assert len(circ.gates) > 0
