"""Small linear-algebra helpers shared by the synthesis and verification code.

Everything here works on dense complex numpy arrays.  Circuit widths stay
small (a dozen qubits or so), so no sparse or tensor-network machinery is
needed.
"""

from __future__ import annotations

import numpy as np

_BRANCH_TOL = 1e-12


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


def principal_phases(eigvals: np.ndarray) -> np.ndarray:
    """Eigenphases on the principal branch (-pi, pi].

    numpy's angle() returns values in [-pi, pi); an eigenvalue of exactly -1
    may land on either side of the cut depending on rounding of its imaginary
    part, so values within tolerance of -pi are folded up to +pi.  This keeps
    roots of Z on the S / T side of the branch, matching R_m conventions.
    """
    phases = np.angle(np.asarray(eigvals, dtype=complex))
    phases = np.where(phases <= -np.pi + _BRANCH_TOL, phases + 2 * np.pi, phases)
    return np.minimum(phases, np.pi)


def eig2(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a 2x2 unitary.

    Returns ``(phases, vecs)`` with phases on the principal branch (-pi, pi]
    and vecs' columns an orthonormal eigenbasis, so that
    ``u = vecs @ diag(exp(1j*phases)) @ vecs.conj().T`` to within 1e-12.

    np.linalg.eig alone does not guarantee an orthogonal basis for a normal
    matrix with a near-degenerate spectrum, so the second vector is built as
    the exact orthogonal complement of the first.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"eig2 expects a 2x2 matrix, got {u.shape}")
    w, v = np.linalg.eig(u)
    if abs(w[0] - w[1]) < 1e-10:
        # Scalar multiple of the identity: any orthonormal basis works.
        vecs = np.eye(2, dtype=complex)
        phases = principal_phases(w)
        return phases, vecs
    v1 = v[:, 0] / np.linalg.norm(v[:, 0])
    v2 = np.array([-np.conj(v1[1]), np.conj(v1[0])], dtype=complex)
    lam1 = v1.conj() @ u @ v1
    lam2 = v2.conj() @ u @ v2
    vecs = np.column_stack([v1, v2])
    phases = principal_phases(np.array([lam1, lam2]))
    return phases, vecs


def is_unitary(u: np.ndarray) -> bool:
    """True when u.conj().T @ u is the identity within 1e-10."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-10)
