"""Single-qubit gate algebra: matrices, ZYZ/ABC decompositions, closed-form
principal roots, and the random payload protocol.

Conventions (used consistently across the package):

    Rz(g) = diag(e^{-ig/2}, e^{+ig/2})          P(g) = diag(1, e^{ig})
    Ry(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]
    U2(d, a, t, b) = e^{id} Rz(a) Ry(t) Rz(b)

The ZYZ angle ranges are t in [0, pi] and d in (-pi/2, pi/2].  For exactly
diagonal input the decomposition puts everything in alpha (t = 0, b = 0); for
exactly antidiagonal input t = pi and alpha = 0.
"""

from __future__ import annotations

import math

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)
SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)

#: gates addressable by name from the CLI
NAMED_GATES = {"X": X, "Z": Z, "H": H, "S": S, "T": T}


def rz_mat(g: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * g), 0], [0, np.exp(0.5j * g)]], dtype=complex)


def ry_mat(t: float) -> np.ndarray:
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rx_mat(g: float) -> np.ndarray:
    c, s = np.cos(g / 2), np.sin(g / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def p_mat(g: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * g)]], dtype=complex)


def u2_mat(d: float, a: float, t: float, b: float) -> np.ndarray:
    return np.exp(1j * d) * (rz_mat(a) @ ry_mat(t) @ rz_mat(b))


def gate_unitary_1q(kind: str, params: tuple[float, ...]) -> np.ndarray:
    """Local 2x2 matrix of a single-qubit gate, or the controlled payload of a
    two-qubit controlled gate (SWAP has no payload and is handled upstream)."""
    if kind == "H":
        return H
    if kind in ("X", "CX"):
        return X
    if kind == "SX":
        return SX
    if kind == "Rz":
        return rz_mat(params[0])
    if kind == "CRx":
        return rx_mat(params[0])
    if kind in ("P", "CP"):
        return p_mat(params[0])
    if kind in ("U2", "CU2"):
        return u2_mat(*params)
    raise ValueError(f"no local matrix for kind {kind!r}")


def zyz_decompose(u: np.ndarray) -> tuple[float, float, float, float]:
    """Angles (d, a, t, b) with u = e^{id} Rz(a) Ry(t) Rz(b), t in [0, pi].

    V = e^{-id} u is special unitary with
        V = [[cos(t/2) e^{-i(a+b)/2}, -sin(t/2) e^{-i(a-b)/2}],
             [sin(t/2) e^{+i(a-b)/2},  cos(t/2) e^{+i(a+b)/2}]]

    a and b are read off the angles of V's second row.  Only an exact 0
    there has no angle (V diagonal or antidiagonal), so a rotation by 1e-14
    about a tilted axis stays tilted.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("zyz_decompose expects a 2x2 matrix")
    d = float(np.angle(np.linalg.det(u)) / 2.0)
    v = np.exp(-1j * d) * u
    c_mag = abs(v[0, 0])
    s_mag = abs(v[1, 0])
    t = float(2.0 * np.arctan2(s_mag, c_mag))
    if s_mag == 0.0:
        # diagonal: fold all z-rotation into alpha
        a = float(2.0 * np.angle(v[1, 1]))
        b = 0.0
    elif c_mag == 0.0:
        # antidiagonal: alpha = 0 by convention
        a = 0.0
        b = float(-2.0 * np.angle(v[1, 0]))
    else:
        a = float(np.angle(v[1, 1]) + np.angle(v[1, 0]))
        b = float(np.angle(v[1, 1]) - np.angle(v[1, 0]))
    return d, a, t, b


def abc_split(a: float, t: float, b: float) -> tuple[tuple[float, ...], ...]:
    """U2 parameters of (A, B, C) with A B C = I and Rz(a) Ry(t) Rz(b) = A X B X C.

    Barenco et al., PRA 52:3457 (1995): A = Rz(a) Ry(t/2),
    B = Ry(-t/2) Rz(-(a+b)/2), C = Rz((b-a)/2).
    """
    return (0.0, a, t / 2, 0.0), (0.0, 0.0, -t / 2, -(a + b) / 2), (0.0, 0.0, 0.0, (b - a) / 2)


def su2_axis(a: float, t: float, b: float) -> tuple[float, float, float, float]:
    """(w, x, y, z) with Rz(a) Ry(t) Rz(b) = w I - i (x X + y Y + z Z).

    For a rotation by psi about the unit axis n, w = cos(psi/2) and
    (x, y, z) = sin(psi/2) n.  Read off the angles, not off the matrix,
    whose off-diagonal loses a rotation near the identity to rounding.
    """
    c, s = math.cos(t / 2), math.sin(t / 2)
    return (
        c * math.cos((a + b) / 2), -s * math.sin((a - b) / 2),
        s * math.cos((a - b) / 2), c * math.sin((a + b) / 2),
    )


def root_params(params: tuple[float, ...], m: int) -> tuple[float, float, float, float]:
    """ZYZ angles of the principal 2^{m-1}-th root of u2_mat(*params).

    u = e^{id} exp(-i psi n.sigma/2) has the eigenphases d -+ psi/2 on +-n.
    Each is taken on (-pi, pi], a value within 1e-12 of -pi folding to +pi
    (so roots of Z and -I take the S / T side of the cut), and divided by
    2^{m-1}; the root is the rotation about the same axis n with those
    eigenphases.  So every root of one payload is diagonal in the payload's
    eigenframe at any m, and the square of root m is root m - 1.
    """
    if m < 1:
        raise ValueError("root index m must be >= 1")
    d, a, t, b = params
    w, x, y, z = su2_axis(a, t, b)
    r = math.hypot(x, y, z)
    half = math.atan2(r, w)
    lo, hi = (math.remainder(d + side * half, 2 * math.pi) for side in (-1, 1))
    lo, hi = ((p if p > -math.pi + 1e-12 else math.pi) / (1 << (m - 1)) for p in (lo, hi))
    # the root is e^{i(lo + hi)/2} exp(-i (hi - lo) n.sigma/2); its ZYZ
    # angles are read off (qw, q) as zyz_decompose reads a matrix
    k = math.sin((hi - lo) / 2) / r if r else 0.0
    qw, qx, qy, qz = math.cos((hi - lo) / 2), k * x, k * y, k * z
    spin = math.atan2(qz, qw)
    if qx == 0.0 and qy == 0.0:
        return (lo + hi) / 2, 2 * spin, 0.0, 0.0
    tilt, t = math.atan2(-qx, qy), 2 * math.atan2(math.hypot(qx, qy), math.hypot(qw, qz))
    return (lo + hi) / 2, spin + tilt, t, spin - tilt


def root(u: np.ndarray, m: int) -> np.ndarray:
    """Principal 2^{m-1}-th root: eigenphases on (-pi, pi] divided by 2^{m-1}
    (see :func:`root_params`).

    root(u, 1) is u itself; root(u, m) ** (2^{m-1}) recovers u, and
    root(u, m) @ root(u, m) equals root(u, m-1).
    """
    return u2_mat(*root_params(zyz_decompose(u), m))


# -- random unitary protocol --------------------------------------------------

_TRIVIAL = (I2, X, Z)


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Random U(2) built from rational multiples of pi.

    Angles are pi * sign * p/q with p in 0..16 and q in 1..16 (theta uses
    p <= q so it stays in [0, pi]).  Draws within 1e-6 of I, X, or Z up to
    global phase are rejected and retried.
    """

    def rational_angle(signed: bool = True) -> float:
        p = int(rng.integers(0, 17))
        q = int(rng.integers(1, 17))
        s = int(rng.choice((-1, 1))) if signed else 1
        return np.pi * s * p / q

    while True:
        d = rational_angle()
        a = rational_angle()
        b = rational_angle()
        q = int(rng.integers(1, 17))
        p = int(rng.integers(0, q + 1))
        t = np.pi * p / q
        u = u2_mat(d, a, t, b)
        if all(_phase_distance(u, triv) > 1e-6 for triv in _TRIVIAL):
            return u


def _phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Distance between a and the closest global-phase multiple of b."""
    inner = np.trace(b.conj().T @ a)
    if abs(inner) < 1e-30:
        return float(np.max(np.abs(a - b)))
    phase = inner / abs(inner)
    return float(np.max(np.abs(a - phase * b)))
