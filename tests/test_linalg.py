"""Phase-insensitive comparison and the unitarity check."""

import numpy as np
import pytest

from qftmcu.linalg import equal_up_to_global_phase, is_unitary

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


def test_is_unitary():
    assert is_unitary(H)
    assert is_unitary(np.exp(0.3j) * X)
    assert not is_unitary(2 * np.eye(2))
    assert not is_unitary(np.array([[1, 1], [0, 1]], dtype=complex))
