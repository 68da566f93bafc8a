"""Single-qubit algebra: ZYZ, ABC, matrix roots, and the identity battery."""

import numpy as np
import pytest

from qftmcu.gate_algebra import (
    abc_split,
    gate_unitary_1q,
    p_mat,
    random_unitary,
    root,
    root_params,
    rx_mat,
    ry_mat,
    rz_mat,
    su2_axis,
    u2_mat,
    zyz_decompose,
)
from qftmcu.linalg import equal_up_to_global_phase, is_unitary
from qftmcu.verifier import mcu_oracle
from tests.conftest import generic_u
from tests.oracles import controlled, identity_battery

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)
SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])


def _haar(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# -- primitive matrices ----------------------------------------------------------

def test_rotation_conventions():
    g = 0.7
    assert np.allclose(rz_mat(g), np.diag([np.exp(-0.5j * g), np.exp(0.5j * g)]))
    assert np.allclose(p_mat(g), np.diag([1.0, np.exp(1j * g)]))
    # Rz and P agree up to the determinant phase split.
    assert np.allclose(p_mat(g), np.exp(0.5j * g) * rz_mat(g))
    assert np.allclose(ry_mat(np.pi), np.array([[0, -1], [1, 0]]), atol=1e-15)
    assert np.allclose(rx_mat(np.pi), -1j * X, atol=1e-15)


def test_u2_mat_composition():
    d, a, t, b = 0.3, -0.8, 1.1, 2.0
    want = np.exp(1j * d) * rz_mat(a) @ ry_mat(t) @ rz_mat(b)
    assert np.abs(u2_mat(d, a, t, b) - want).max() < 1e-15


def test_gate_unitary_1q_covers_kinds():
    for kind, params in [
        ("H", ()), ("X", ()), ("SX", ()), ("Rz", (0.4,)), ("P", (0.4,)),
        ("CRx", (0.4,)), ("U2", (0.1, 0.2, 0.3, 0.4)),
    ]:
        m = gate_unitary_1q(kind, params)
        assert is_unitary(m)
    assert np.allclose(gate_unitary_1q("SX", ()), SX)
    assert np.allclose(gate_unitary_1q("CRx", (0.4,)), rx_mat(0.4))


# -- ZYZ ------------------------------------------------------------------------

def test_zyz_identity_is_zero():
    assert zyz_decompose(I2) == (0.0, 0.0, 0.0, 0.0)


def test_zyz_x_reconstructs():
    d, a, t, b = zyz_decompose(X)
    assert np.abs(u2_mat(d, a, t, b) - X).max() < 1e-12


def test_zyz_random_reconstruction():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        u = _haar(rng)
        d, a, t, b = zyz_decompose(u)
        worst = max(worst, np.abs(u2_mat(d, a, t, b) - u).max())
    assert worst < 1e-12


def _unit_axis(params):
    _, x, y, z = su2_axis(*params[1:])
    return np.array([x, y, z]) / np.linalg.norm([x, y, z])


def test_zyz_keeps_the_axis_of_a_tiny_rotation():
    # A rotation by 1e-14 about a tilted axis: its off-diagonal is tiny but
    # not 0, and its angle still carries the axis.  The angles hold a + b to
    # about 1e-16 absolute, so the axis keeps two or three digits; taking
    # the matrix as diagonal would put it on z, 0.6 away.
    n = np.array([np.sin(0.7) * np.cos(1.3), np.sin(0.7) * np.sin(1.3), np.cos(0.7)])
    c, s = np.cos(0.5e-14), np.sin(0.5e-14)
    u = c * I2 - 1j * s * (n[0] * X + n[1] * np.array([[0, -1j], [1j, 0]]) + n[2] * Z)
    params = zyz_decompose(u)
    assert 0 < params[2] < 1e-13
    assert np.abs(_unit_axis(params) - n).max() < 1e-2


# -- ABC ------------------------------------------------------------------------

def _abc(u):
    """Matrices (A, B, C) of the split the lowering ships, and the phase d,
    with A B C = I and u = e^{id} A X B X C."""
    d, a, t, b = zyz_decompose(u)
    A, B, C = (u2_mat(*par) for par in abc_split(a, t, b))
    return A, B, C, d


def test_abc_identity_case():
    A, B, C, d = _abc(I2)
    for m in (A, B, C):
        assert np.abs(m - I2).max() < 1e-12
    assert abs(d) < 1e-12


def test_abc_on_x():
    A, B, C, d = _abc(X)
    assert np.abs(A @ B @ C - I2).max() < 1e-12
    assert np.abs(np.exp(1j * d) * A @ X @ B @ X @ C - X).max() < 1e-12


def test_abc_random_identities():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        u = _haar(rng)
        A, B, C, d = _abc(u)
        assert np.abs(A @ B @ C - I2).max() < 1e-12
        assert np.abs(np.exp(1j * d) * A @ X @ B @ X @ C - u).max() < 1e-12


def test_abc_det_one_delta_is_zero_or_pi():
    rng = np.random.default_rng(13)
    for _ in range(200):
        a, b = rng.uniform(-np.pi, np.pi, size=2)
        u = u2_mat(0.0, a, rng.uniform(0, np.pi), b)
        *_, d = _abc(u)
        assert min(abs(d), abs(abs(d) - np.pi)) < 1e-9


# -- roots ----------------------------------------------------------------------

def test_root_of_z_is_s():
    assert np.abs(root(Z, 2) - np.diag([1.0, 1j])).max() < 1e-12


def test_root_of_x_is_sx():
    assert np.abs(root(X, 2) - SX).max() < 1e-12


def test_root_powering():
    rng = np.random.default_rng(14)
    for _ in range(500):
        u = _haar(rng)
        r = root(u, 5)
        assert np.abs(np.linalg.matrix_power(r, 16) - u).max() < 1e-11


@pytest.mark.parametrize("scalar, phase", [(-1.0, np.pi), (1.0, 0.0)])
@pytest.mark.parametrize("m", [2, 3, 5, 47])
def test_root_of_a_scalar_takes_the_principal_branch(scalar, phase, m):
    # -1 is e^(i pi), on the S / T side of the cut.
    want = np.exp(1j * phase / 2 ** (m - 1)) * I2
    assert np.abs(root(scalar * I2, m) - want).max() < 1e-15


def test_deep_roots_are_diagonal_in_the_payload_frame():
    # The root is built about the payload's own axis, so the payload's
    # eigenframe W diagonalizes it to rounding, however close to I it is.
    for u in [generic_u(s) for s in range(6)] + [random_unitary(np.random.default_rng(1001))]:
        x, y, z = _unit_axis(zyz_decompose(u))
        w = u2_mat(0.0, np.arctan2(y, x), np.arctan2(np.hypot(x, y), z), 0.0)
        lam = w.conj().T @ u2_mat(*root_params(zyz_decompose(u), 47)) @ w
        assert max(abs(lam[0, 1]), abs(lam[1, 0])) <= 1e-15


def test_root_m1_is_identity_map():
    rng = np.random.default_rng(15)
    u = _haar(rng)
    assert np.abs(root(u, 1) - u).max() < 1e-12


# -- controlled embedding ---------------------------------------------------------

def test_controlled_matches_two_qubit_oracle(u_gen):
    assert np.abs(controlled(u_gen) - mcu_oracle(u_gen, 2)).max() < 1e-15
    assert np.abs(controlled(X) - mcu_oracle(X, 2)).max() == 0


# -- identity battery --------------------------------------------------------------

def test_identity_battery_tight():
    results = identity_battery()
    assert len(results) >= 7
    worst = max(dev for _, dev in results)
    assert worst <= 1e-12, results


def test_identity_battery_deterministic():
    assert identity_battery() == identity_battery()


# -- random gate protocol ----------------------------------------------------------

def test_random_unitary_properties():
    rng = np.random.default_rng(16)
    for _ in range(100):
        u = random_unitary(rng)
        assert is_unitary(u)
        for trivial in (I2, X, Z):
            ok, _, _ = equal_up_to_global_phase(u, trivial, 1e-6)
            assert not ok


def test_random_unitary_seed_reproducible():
    a = random_unitary(np.random.default_rng(5))
    b = random_unitary(np.random.default_rng(5))
    assert np.array_equal(a, b)
