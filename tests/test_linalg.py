"""Phase-insensitive comparison, and 2x2 spectra."""

import numpy as np
import pytest

from qftmcu.linalg import (
    eig2,
    equal_up_to_global_phase,
    is_unitary,
    principal_phases,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_equal_up_to_global_phase_recovers_quarter_turn():
    ok, phi, dev = equal_up_to_global_phase(1j * X, X, 1e-10)
    assert ok
    assert abs(phi - np.pi / 2) < 1e-12
    assert dev < 1e-12


def test_equal_up_to_global_phase_rejects_distinct_paulis():
    ok, _, dev = equal_up_to_global_phase(X, Z, 1e-10)
    assert not ok
    assert dev > 0.5


def test_equal_up_to_global_phase_shape_and_zero_errors():
    with pytest.raises(ValueError):
        equal_up_to_global_phase(np.eye(2), np.eye(4))
    with pytest.raises(ValueError):
        equal_up_to_global_phase(np.eye(2), np.zeros((2, 2)))


def test_principal_phases_branch():
    # -1 must land on +pi, the S/T side of the cut; everything in (-pi, pi].
    vals = np.exp(1j * np.array([0.0, np.pi, -np.pi + 1e-18, 2.5, -2.5]))
    ph = principal_phases(vals)
    assert np.all(ph > -np.pi)
    assert np.all(ph <= np.pi)
    assert abs(ph[1] - np.pi) < 1e-12
    assert abs(ph[2] - np.pi) < 1e-9


def test_eig2_pauli_z():
    phases, vecs = eig2(Z)
    assert sorted(np.round(phases, 12)) == [0.0, np.round(np.pi, 12)]
    # Eigenvectors are the computational basis states, up to phase and order.
    for col in vecs.T:
        assert max(abs(col[0]), abs(col[1])) > 1 - 1e-12


def test_eig2_pauli_x():
    phases, vecs = eig2(X)
    assert sorted(np.round(phases, 12)) == [0.0, np.round(np.pi, 12)]
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    overlaps = sorted(
        (abs(plus @ vecs[:, 0]), abs(minus @ vecs[:, 0]),
         abs(plus @ vecs[:, 1]), abs(minus @ vecs[:, 1]))
    )
    # Each column matches one of |+>, |-> exactly, up to phase.
    assert overlaps[0] < 1e-12 and overlaps[1] < 1e-12
    assert overlaps[2] > 1 - 1e-12 and overlaps[3] > 1 - 1e-12


def test_eig2_reconstructs_random_unitaries():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(a)
        phases, vecs = eig2(q)
        back = vecs @ np.diag(np.exp(1j * phases)) @ vecs.conj().T
        assert np.abs(back - q).max() < 1e-12


def test_eig2_degenerate_spectrum():
    phases, vecs = eig2(1j * I2)
    assert np.abs(phases - np.pi / 2).max() < 1e-12
    assert np.abs(vecs.conj().T @ vecs - np.eye(2)).max() < 1e-12


def test_is_unitary():
    assert is_unitary(H)
    assert is_unitary(np.exp(0.3j) * X)
    assert not is_unitary(2 * np.eye(2))
    assert not is_unitary(np.array([[1, 1], [0, 1]], dtype=complex))
