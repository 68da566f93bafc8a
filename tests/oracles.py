"""Test-only oracles: the gate-algebra identity battery, the AQFT count
formulas, gate-list identity and the reference commutation scheduler.  The
pipeline never calls these; the tests judge it against them."""

import heapq
from collections import defaultdict, deque

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


# -- reference scheduler ------------------------------------------------------

def _native_basis(g, w: int) -> str:
    """Single-qubit basis in which a native gate is diagonal on wireline w.

    Rz and a CX control are Z-diagonal; X, SX and a CX target are X-diagonal
    (SX = exp(-i pi X / 4) up to phase).  Two native gates commute when they
    agree in basis on every wireline they share.
    """
    if g.kind == "Rz" or (g.kind == "CX" and w == g.control):
        return "z"
    return "x"


def heap_commute_schedule(gates: list, n: int) -> list:
    """The commutation-aware scheduler with one DAG edge per pair of
    dependent gates, the reference for ``layout._commute_schedule``, which
    counts runs instead: the two must emit the same order.

    Reorder native gates into earliest-start order, honouring commutation.

    List scheduling charges each gate to the latest busy time of its
    wirelines in *list* order, so a gate stuck behind a commuting neighbour
    can idle a wireline for no physical reason.  This pass builds the
    commutation DAG (edges only between gates that share a wireline in
    different bases) and greedily emits whichever ready gate can start
    earliest, breaking ties by original position.  Only commuting exchanges
    are performed, so the overall unitary is untouched.

    Ready gates on one wire tuple share a start time, and they become ready in
    index order: whatever holds a gate back on one of its wirelines also
    holds back every later gate on the same wirelines, directly or through
    the runs between them.  So each wire tuple queues its ready gates
    first-in first-out, and one heap holds a ``(start, index)`` entry for the
    head of every non-empty queue.  Starts only grow (``avail`` is
    monotone), so an entry's start is a lower bound: a popped entry whose
    start moved on is pushed back with the new one, and a popped entry whose
    start still holds is the least ``(start, index)`` over all ready gates --
    the gate a scan of the whole ready list would emit.  Each emission costs
    O(log m) heap work instead of an O(|ready|) scan.
    """
    m = len(gates)
    succs: list[list[int]] = [[] for _ in range(m)]
    indeg = [0] * m
    # Per wireline: basis of the current commuting run, its members, and the
    # members of the run before it.  A gate must follow every gate of the
    # opposite-basis run immediately preceding it on each of its wirelines;
    # same-basis gates commute there no matter how far apart they sit.
    run: dict[int, tuple[str, list[int], list[int]]] = {}
    for i, g in enumerate(gates):
        ws = (g.target,) if g.control is None else (g.control, g.target)
        for w in ws:
            basis = _native_basis(g, w)
            st = run.get(w)
            if st is None:
                run[w] = (basis, [i], [])
            elif st[0] == basis:
                for q in st[2]:
                    succs[q].append(i)
                    indeg[i] += 1
                st[1].append(i)
            else:
                for q in st[1]:
                    succs[q].append(i)
                    indeg[i] += 1
                run[w] = (basis, [i], st[1])
    avail = [0] * (n + 1)
    queues: dict[tuple[int | None, int], deque[int]] = defaultdict(deque)
    heap: list[tuple[int, int]] = []

    def start_of(g) -> int:
        return avail[g.target] if g.control is None else max(avail[g.target], avail[g.control])

    def make_ready(i: int) -> None:
        g = gates[i]
        queue = queues[g.control, g.target]
        queue.append(i)
        if len(queue) == 1:
            heapq.heappush(heap, (start_of(g), i))

    for i in range(m):
        if indeg[i] == 0:
            make_ready(i)
    order: list[int] = []
    while heap:
        start, best = heapq.heappop(heap)
        g = gates[best]
        now = start_of(g)
        if now != start:
            heapq.heappush(heap, (now, best))
            continue
        queue = queues[g.control, g.target]
        queue.popleft()
        order.append(best)
        avail[g.target] = start + 1
        if g.control is not None:
            avail[g.control] = start + 1
        if queue:
            heapq.heappush(heap, (start + 1, queue[0]))
        for s in succs[best]:
            indeg[s] -= 1
            if indeg[s] == 0:
                make_ready(s)
    return [gates[i] for i in order]
