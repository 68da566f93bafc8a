"""Test-only oracles: the gate-algebra identity battery, the AQFT count
formulas and gate-list identity.  The pipeline never calls these; the tests
judge it against them."""

import numpy as np

from qftmcu.circuit import Circuit, normalize_angle
from qftmcu.gate_algebra import H, I2, X, Z, p_mat, root, rx_mat, rz_mat, u2_mat

# -- identity battery ---------------------------------------------------------

_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)


def controlled(v: np.ndarray) -> np.ndarray:
    """4x4 controlled-v with control on qubit 1 (LSB) and target on qubit 2,
    i.e. kron(target_factor, control_factor) ordering."""
    return np.kron(I2, _P0) + np.kron(v, _P1)


def _ctl_p(g: float) -> np.ndarray:
    """P(g) acting on the control qubit (qubit 1)."""
    return np.kron(I2, p_mat(g))


def _tgt(v: np.ndarray) -> np.ndarray:
    """v acting on the target qubit (qubit 2)."""
    return np.kron(v, I2)


_CX4 = controlled(X)


def identity_battery() -> list[tuple[str, float]]:
    """Evaluate each named identity at 100 seeded random parameter draws and
    return (name, max deviation) pairs.  Every deviation should sit at
    numerical noise, well under 1e-12."""
    rng = np.random.default_rng(20240917)
    results: list[tuple[str, float]] = []

    def run(name: str, sample) -> None:
        dev = 0.0
        for _ in range(100):
            dev = max(dev, float(sample()))
        results.append((name, dev))

    def d_rm() -> float:
        m = int(rng.integers(1, 11))
        lhs = p_mat(np.pi / (1 << (m - 1)))
        return np.max(np.abs(lhs - root(Z, m)))

    run("R_m = Z^(1/2^(m-1))", d_rm)

    def d_cp_crz() -> float:
        g = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        lhs = controlled(p_mat(g))
        short = controlled(rz_mat(g)) @ _ctl_p(g / 2)
        long = _tgt(rz_mat(g / 2)) @ _CX4 @ _tgt(rz_mat(-g / 2)) @ _CX4 @ _ctl_p(g / 2)
        return max(np.max(np.abs(lhs - short)), np.max(np.abs(lhs - long)))

    run("CP = CRz + P(g/2) on control", d_cp_crz)

    def d_eq5() -> float:
        d = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        lhs = X @ p_mat(-d / 2) @ X @ p_mat(d / 2)
        return max(
            np.max(np.abs(lhs - rz_mat(d))),
            np.max(np.abs(lhs - np.exp(-1j * d / 2) * p_mat(d))),
        )

    run("X P(-d/2) X P(d/2) = Rz(d)", d_eq5)

    def d_eq6() -> float:
        d = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        lhs = p_mat(d / 2) @ X @ p_mat(-d / 2) @ X
        return np.max(np.abs(lhs - rz_mat(d)))

    run("P(d/2) X P(-d/2) X = Rz(d)", d_eq6)

    def d_eq7() -> float:
        m = int(rng.integers(1, 9))
        d = float(rng.uniform(-np.pi, np.pi))
        a, b = rng.uniform(-np.pi, np.pi, size=2)
        t = float(rng.uniform(0, np.pi))
        w = u2_mat(0.0, float(a), t, float(b))
        dm = d / (1 << (m - 1))
        lhs = controlled(np.exp(1j * dm) * w)
        rhs = controlled(w) @ _ctl_p(dm)
        return np.max(np.abs(lhs - rhs))

    run("C-U(2)^(1/2^(m-1)) = C-U^(1/2^(m-1)) (P(d/2^(m-1)) x I)", d_eq7)

    def d_hzh() -> float:
        return np.max(np.abs(H @ Z @ H - X))

    run("H Z H = X", d_hzh)

    def d_hrxh() -> float:
        g = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        return np.max(np.abs(H @ rx_mat(g) @ H - rz_mat(g)))

    run("H Rx(g) H = Rz(g)", d_hrxh)

    return results


# -- AQFT counts and gate-list identity ----------------------------------------

def aqft_expected_counts(method: str, n: int, m_max: int) -> dict[str, int]:
    """Controlled-rotation counts surviving an AQFT cutoff at root index m_max.

    Valid for 2 <= m_max <= n - 2 on the optimized circuits.
    """
    mu = m_max
    if method == "mcu-mod":
        return {"CP": 2 * (mu - 1) * (2 * n - 3 - mu), "CU2": 2 * (mu - 1)}
    if method == "mcu-zyz":
        return {"CP": 2 * (mu - 1) * (2 * n - 1 - mu)}
    raise ValueError(f"no AQFT count formula for method {method!r}")


def structural_equal(a: Circuit, b: Circuit) -> bool:
    """Gate-list identity: same length, kinds, operands, and params equal to
    1e-9 after normalizing every angle into (-pi, pi]."""
    if a.n != b.n or len(a.gates) != len(b.gates):
        return False
    for ga, gb in zip(a.gates, b.gates):
        if (ga.kind, ga.target, ga.control) != (gb.kind, gb.target, gb.control):
            return False
        if len(ga.params) != len(gb.params):
            return False
        for pa, pb in zip(ga.params, gb.params):
            if abs(normalize_angle(pa - pb)) > 1e-9:
                return False
    return True
