"""Small linear-algebra helpers shared by the synthesis and verification code.

Everything here works on dense complex numpy arrays.  Circuit widths stay
small (a dozen qubits or so), so no sparse or tensor-network machinery is
needed.
"""

from __future__ import annotations

import numpy as np


def equal_up_to_global_phase(
    a: np.ndarray, b: np.ndarray, tol: float = 1e-9
) -> tuple[bool, float, float]:
    """Decide whether ``a == exp(i*phi) * b`` for some real phi.

    The candidate phase is read off at b's largest-magnitude entry, which is
    well-conditioned wherever b is not the zero matrix.  Returns
    ``(equal, phi, max_deviation)`` where max_deviation is the largest
    entrywise distance after unwinding the phase.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    pivot = b[idx]
    if abs(pivot) == 0.0:
        raise ValueError("cannot recover a phase against the zero matrix")
    phi = float(np.angle(a[idx] / pivot))
    dev = float(np.max(np.abs(a - np.exp(1j * phi) * b)))
    return dev <= tol, phi, dev


def is_unitary(u: np.ndarray) -> bool:
    """True when u.conj().T @ u is the identity within 1e-10."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-10)
