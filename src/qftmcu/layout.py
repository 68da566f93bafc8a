"""Nearest-neighbour routing and lowering to the native gate set.

The native set is {CX, Rz, SX, X} (identity is never emitted).  Lowering
tracks the global phase exactly, so a lowered circuit times e^(i phase)
reproduces the abstract unitary to machine precision.  Routing for a linear
nearest-neighbour architecture walks each QFT stage's target across its
lower wirelines with neighbour SWAPs, so every block returns to the identity
layout; unannotated gates are routed greedily and the final
logical-to-physical layout is recorded on the routed circuit
(``Circuit.final_layout``) instead of undone.  The routed circuit holds only
logical gates and bare SWAPs; lowering fuses a controlled gate with a SWAP
of its pair beside it.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict, deque
from dataclasses import dataclass, replace

import numpy as np

from .circuit import TWO_QUBIT, Circuit, Gate, normalize_angle, rz, schedule_slots, swap
from .gate_algebra import abc_split
from .optimizer import cancel_cx_pairs
from .synthesis import build, expected_counts

TWO_PI = 2.0 * math.pi

ARCHES = ("fc", "lnn")


# -- linear nearest-neighbour routing -------------------------------------------

class _Line:
    """Wirelines in a row: where each logical wireline sits, and the routed
    gates emitted so far."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.l2p = list(range(n + 1))  # index 0 unused; l2p[i] = physical home of logical i
        self.p2l = list(range(n + 1))
        self.out: list[Gate] = []

    def emit(self, g: Gate) -> None:
        """Append a logical gate at its physical wirelines."""
        c = None if g.control is None else self.l2p[g.control]
        self.out.append(replace(g, target=self.l2p[g.target], control=c))

    def swap(self, a: int, b: int) -> None:
        """Exchange physical neighbours a and b."""
        self.out.append(swap(a, b))
        la, lb = self.p2l[a], self.p2l[b]
        self.p2l[a], self.p2l[b] = lb, la
        self.l2p[la], self.l2p[lb] = b, a

    def bring(self, mover: int, to: int) -> None:
        """Step logical ``mover`` toward logical ``to`` until they are neighbours."""
        pm, pt = self.l2p[mover], self.l2p[to]
        while abs(pm - pt) > 1:
            step = 1 if pt > pm else -1
            self.swap(pm, pm + step)
            pm += step

    def arrange(self, p2l: list[int]) -> None:
        """Bring the row to the layout ``p2l`` by neighbour swaps."""
        for p in range(1, self.n + 1):
            q = self.l2p[p2l[p]]
            for r in range(q, p, -1):
                self.swap(r - 1, r)


def _walk(line: _Line, gates: list[Gate]) -> None:
    """Route a QFT half: each stage's target walks across its lower wirelines.

    A stage is a run of gates on one target t (its H and the controlled
    gates onto t).  The target steps to each control, and after the gate the
    pair swaps, so the target passes it; once the stage's gates are done the
    target also passes the lower wirelines it has not met.  On a QFT this is
    the neighbour swap network (Fowler, Devitt & Hollenberg, QIC 4:237, 2004;
    Maslov, PRA 76:052310, 2007), in which each controlled gate and the SWAP
    after it share a CX once lowered.  A stage with a single lower wireline
    (t = 2) passes nothing: that swap would only reorder the last two
    wirelines, which no later stage of the half needs.
    """
    l2p, p2l = line.l2p, line.p2l
    i = 0
    while i < len(gates):
        t = gates[i].target
        step = 0
        while i < len(gates) and gates[i].target == t:
            g = gates[i]
            i += 1
            if g.control is None:
                line.emit(g)
                continue
            line.bring(t, g.control)
            line.emit(g)
            if t > 2 and g.control < t:
                step = l2p[g.control] - l2p[t]
                line.swap(l2p[t], l2p[g.control])
        p = l2p[t]
        while step and 1 <= p + step <= line.n and p2l[p + step] < t:
            line.swap(p, p + step)
            p += step


def route_lnn(circ: Circuit) -> Circuit:
    """Make every two-qubit gate act on adjacent wirelines.

    The QFT halves that the builders annotate (role ``qft`` and ``iqft``,
    a run per block) are routed by :func:`_walk`.  A ``qft`` half walks
    forward from the current layout; an ``iqft`` half is the mirror of its
    reversed gate list walked from the identity, so it ends every block at
    the identity layout (entered, if needed, through neighbour swaps to the
    layout its mirror starts from).  Any other gate is routed greedily: its
    control steps toward its target one SWAP at a time.  The permutation is
    carried forward rather than undone: the routed circuit's
    ``final_layout`` says where each logical wireline ended up, so it equals
    (layout permutation) o (original).  Each inserted swap is one SWAP gate.
    The work is O(gates + swaps).
    """
    n = circ.n
    line = _Line(n)
    gates = circ.gates
    i = 0
    while i < len(gates):
        g = gates[i]
        if g.role not in ("qft", "iqft"):
            if g.control is not None:
                line.bring(g.control, g.target)
            line.emit(g)
            i += 1
            continue
        j = i
        while j < len(gates) and gates[j].role == g.role and gates[j].block == g.block:
            j += 1
        if g.role == "qft":
            _walk(line, gates[i:j])
        else:
            mirror = _Line(n)
            _walk(mirror, gates[i:j][::-1])
            line.arrange(mirror.p2l)
            line.out += reversed(mirror.out)
            line.l2p, line.p2l = list(range(n + 1)), list(range(n + 1))
        i = j
    return Circuit(n, line.out, final_layout=tuple(line.l2p[1:]))


def layout_permutation(layout: tuple[int, ...]) -> np.ndarray:
    """Unitary of the wireline relabeling ``layout`` (logical -> physical).

    Basis states are indexed with wireline 1 as the least significant bit;
    the matrix maps a state whose logical bit i is b to the state whose
    physical bit layout[i-1] is b.
    """
    n = len(layout)
    dim = 1 << n
    perm = np.zeros((dim, dim))
    for a in range(dim):
        target = 0
        for i in range(n):
            if a >> i & 1:
                target |= 1 << (layout[i] - 1)
        perm[target, a] = 1.0
    return perm


# -- native gate set ------------------------------------------------------------

NATIVE_KINDS = ("CX", "Rz", "SX", "X")


@dataclass
class NativeCircuit(Circuit):
    """A lowered circuit: a Circuit of native gates plus the exact global phase.

    ``gates`` only ever holds CX, Rz, SX and X.  The provenance fields are
    filled by :func:`synth_native` so that metrics can be compared against
    the closed-form depth and count models.
    """

    global_phase: float = 0.0
    method: str | None = None
    arch: str = "fc"
    abstract_slots: int | None = None
    swaps_inserted: int = 0

    def counts(self) -> dict[str, int]:
        out = {k: 0 for k in NATIVE_KINDS}
        for g in self.gates:
            out[g.kind] += 1
        return out

    def depth(self) -> int:
        return schedule_slots(self)

    def as_circuit(self) -> Circuit:
        """The gates as a plain Circuit, without phase or provenance."""
        return Circuit(self.n, list(self.gates))


# -- the lowering table ----------------------------------------------------------
#
# Each gate kind maps to a rule: a function of the gate's params that returns
# its native template, a tuple of steps in time order.  A step is (kind,
# operand, angle).  Native steps name the operand they act on, _T or _C, the
# gate's target or control (for a CX, its control; the CX targets the other
# operand); only Rz steps carry an angle.  A ("phase", None, angle) step adds
# to the global phase, so the template times e^(i phase) equals the gate.
# This table is the only place that knows a gate's native cost.

_T, _C = 0, 1
_PI = math.pi


def _u2_steps(d: float, a: float, t: float, b: float) -> tuple:
    """e^(id) Rz(a) Ry(t) Rz(b) as Rz(b), SX, Rz(pi+t), SX, Rz(pi+a), phase d + pi/2."""
    return (
        ("Rz", _T, b), ("phase", None, d + _PI / 2), ("SX", _T, None),
        ("Rz", _T, _PI + t), ("SX", _T, None), ("Rz", _T, _PI + a),
    )


def _cu2_steps(d: float, a: float, t: float, b: float) -> tuple:
    """Controlled e^(id) Rz(a) Ry(t) Rz(b) as C, CX, B, CX, A (see abc_split),
    with the phase d as an Rz on the control."""
    par_a, par_b, par_c = abc_split(a, t, b)
    head = (("phase", None, d / 2), ("Rz", _T, par_c[3]), ("Rz", _C, d), ("CX", _C, None))
    return head + _u2_steps(*par_b) + (("CX", _C, None),) + _u2_steps(*par_a)


def _cp_steps(g: float) -> tuple:
    """CP(g) as CRz(g) times P(g/2) on the control, the P an Rz(g/2) and a
    phase g/4."""
    return (
        ("phase", None, g / 4), ("Rz", _T, g / 2), ("Rz", _C, g / 2),
        ("CX", _C, None), ("Rz", _T, -g / 2), ("CX", _C, None),
    )


_SWAP_STEPS = (("CX", _C, None), ("CX", _T, None), ("CX", _C, None))


LOWERING = {
    "Rz": lambda q: (("Rz", _T, q[0]),),
    "P": lambda q: (("phase", None, q[0] / 2), ("Rz", _T, q[0])),
    "X": lambda q: (("X", _T, None),),
    "SX": lambda q: (("SX", _T, None),),
    "H": lambda q: (("phase", None, _PI / 4), ("Rz", _T, _PI / 2), ("SX", _T, None), ("Rz", _T, _PI / 2)),
    "U2": lambda q: _u2_steps(*q),
    "CX": lambda q: (("CX", _C, None),),
    "CP": lambda q: _cp_steps(q[0]),
    "CRx": lambda q: _cu2_steps(0.0, -_PI / 2, q[0], _PI / 2),
    "CU2": lambda q: _cu2_steps(*q),
    "SWAP": lambda q: _SWAP_STEPS,
}


def _then_swap(steps: tuple) -> tuple:
    """A controlled gate's template followed by a SWAP of its pair, as
    ``lower_to_ngs`` emits the two when they are neighbours.  The
    single-qubit steps after the template's last CX cross the SWAP to the
    other operand, and that CX cancels the SWAP's first: a CP then a SWAP is
    3 CX, not 2 + 3."""
    k = max(i for i, step in enumerate(steps) if step[0] == "CX")
    tail = tuple((kind, w if w is None else 1 - w, angle) for kind, w, angle in steps[k + 1 :])
    return steps[:k] + _SWAP_STEPS[1:] + tail


def _cost(kind: str, native: str) -> int:
    """How many ``native`` gates (CX, SX or X) the rule for ``kind`` emits.
    Rz is left out: phase folding keeps one Rz per parity and drops zero sums."""
    return sum(step[0] == native for step in LOWERING[kind]((1.0,) * 4))


def _fold_turns(angle: float) -> tuple[float, int]:
    """The angle folded into (-pi, pi], and the parity of its full turns
    (each carries a global phase pi: Rz(2 pi) = -1)."""
    a = normalize_angle(angle)
    return a, round((angle - a) / TWO_PI) % 2


class _Parities:
    """Phase-folding state: the parity of path variables each wireline holds.

    A parity is an int whose bit 0 is a constant and whose bit i > 0 is the
    path variable with id i.  Wireline w starts on variable w.  A CX XORs its
    control's parity into its target's, an X flips the constant, and an SX
    puts a fresh variable on its wireline (``fresh``).  An Rz(a) on a parity
    with constant 1 is an Rz(-a) on the parity without it, so ``rot`` keys a
    rotated parity by its variables (``p >> 1``) and keeps its Rz:
    [angle sum in that frame, index in ``out`` of its latest occurrence, the
    wireline there, the constant there].  ``place`` writes that one Rz.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.par = [0] + [1 << w for w in range(1, n + 1)]
        self.rot: dict[int, list] = {}
        self.free: list[int] = []
        self.top = n + 1  # ids below top have been handed out
        self.limit = 2 * n
        self.wraps = 0  # full turns folded out of the sums, mod 2

    def fresh(self, out: list[Gate | None]) -> int:
        """The bit of an unused variable id.

        Ids stay small, so parities stay small ints: once no id is free and
        the ids handed out reach ``limit``, the ids no wireline holds any more
        are freed, and the Rz of every parity that mentions one is placed,
        since no later gate can reach that parity again.  ``limit`` is then
        the ids still held plus at least n, so the scan over the wirelines
        and ``rot`` runs once per n or more fresh variables.
        """
        if not self.free and self.top - 1 >= self.limit:
            held = 0
            for p in self.par:
                held |= p
            dead = (((1 << self.top) - 1) & ~held) >> 1  # bit v - 1 for id v
            if dead:
                rot = self.rot
                for key in [k for k in rot if k & dead]:
                    self.place(rot.pop(key), out)
                self.free = [v for v in range(self.top - 1, 0, -1) if dead >> (v - 1) & 1]
            live = (held >> 1).bit_count()
            self.limit = live + max(live, self.n)
        if self.free:
            return 1 << self.free.pop()
        self.top += 1
        return 1 << (self.top - 1)

    def rotate(self, w: int, angle: float, out: list[Gate | None]) -> None:
        """Add an Rz(angle) on wireline w to its parity's Rz, which moves to
        this occurrence: a placeholder appended to ``out``."""
        p = self.par[w]
        neg = p & 1
        entry = self.rot.get(p >> 1)
        if entry is None:
            self.rot[p >> 1] = [-angle if neg else angle, len(out), w, neg]
        else:
            entry[0] += -angle if neg else angle
            entry[1:] = len(out), w, neg
        out.append(None)

    def place_all(self, out: list[Gate | None]) -> None:
        """Write the Rz of every parity still open, once the lowering is done."""
        for entry in self.rot.values():
            self.place(entry, out)
        self.rot.clear()

    def place(self, entry: list, out: list[Gate | None]) -> None:
        """Write a parity's one Rz at its latest occurrence; a sum that
        vanishes leaves nothing, and its full turns go to ``wraps``."""
        angle, i, w, neg = entry
        a, wraps = _fold_turns(angle)
        self.wraps += wraps
        if abs(a) > 1e-12:
            out[i] = rz(-a if neg else a, w)


def _native_basis(g: Gate, w: int) -> str:
    """Single-qubit basis in which a native gate is diagonal on wireline w.

    Rz and a CX control are Z-diagonal; X, SX and a CX target are X-diagonal
    (SX = exp(-i pi X / 4) up to phase).  Two native gates commute when they
    agree in basis on every wireline they share.
    """
    if g.kind == "Rz" or (g.kind == "CX" and w == g.control):
        return "z"
    return "x"


def _commute_schedule(gates: list[Gate], n: int) -> list[Gate]:
    """Reorder native gates into earliest-start order, honouring commutation.

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

    def start_of(g: Gate) -> int:
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


def lower_to_ngs(circ: Circuit) -> NativeCircuit:
    """Lower every gate to {CX, Rz, SX, X} by its rule in ``LOWERING``,
    tracking the global phase exactly.

    A controlled gate and a SWAP of its pair next to it lower as one
    template, ``_then_swap`` of the gate's, one CX more than the gate alone.
    SWAP then G(c, t) is G(t, c) then SWAP; a SWAP between two gates of its
    pair goes with the one before it.

    Rz gates are phase-folded: each wireline holds a parity of path variables
    (see ``_Parities``), an Rz on a parity adds its phase term to the path
    sum's phase, and the terms on one parity add up, wherever they sit (Amy,
    Maslov & Mosca, IEEE TCAD 33:1476, 2014; Nam, Ross, Su, Childs & Maslov,
    npj Quantum Inf. 4:23, 2018).  So every parity keeps one Rz, the sum of
    its angles, at its latest occurrence.  This is exact for every circuit,
    and only Rz gates disappear.  A sum that vanishes is dropped and full
    turns fold into the phase (Rz(2 pi) = -1) as an integer parity; the
    template phases are summed with ``math.fsum``, so the phase is correctly
    rounded.  The commutation-aware scheduler then reorders the gates.  A
    routed circuit's ``final_layout`` carries over.
    """
    out: list[Gate | None] = []
    parities = _Parities(circ.n)
    par = parities.par
    terms: list[float] = []
    gates = circ.gates
    i = 0
    while i < len(gates):
        g = gates[i]
        nxt = gates[i + 1] if i + 1 < len(gates) else g
        ops = (g.target, g.control)
        fuse = (g.kind == "SWAP") != (nxt.kind == "SWAP") and (
            {g.target, g.control} == {nxt.target, nxt.control}
        )
        if fuse and g.kind == "SWAP":
            g, ops = nxt, (nxt.control, nxt.target)
        steps = LOWERING[g.kind](g.params)
        if fuse:
            steps = _then_swap(steps)
        i += 2 if fuse else 1
        for kind, w, angle in steps:
            if kind == "Rz":
                if angle:
                    parities.rotate(ops[w], angle, out)
            elif kind == "phase":
                terms.append(angle)
            elif kind == "CX":
                c, t = ops[w], ops[1 - w]
                par[t] ^= par[c]
                out.append(Gate("CX", t, control=c))
            else:
                q = ops[w]
                par[q] = par[q] ^ 1 if kind == "X" else parities.fresh(out)
                out.append(Gate(kind, q))
    parities.place_all(out)
    out = [g for g in out if g is not None]
    kept = _commute_schedule(out, circ.n)
    terms.append(math.pi * (parities.wraps % 2))
    phase = math.fmod(math.fsum(terms), TWO_PI)
    return NativeCircuit(circ.n, kept, phase, final_layout=circ.final_layout)


# -- end-to-end pipeline and metrics --------------------------------------------

@dataclass
class NativeMetrics:
    depth: int
    counts: dict[str, int]
    model_depth: int | None
    depth_deviation: float | None
    model_cx: int | None
    cx_deviation: float | None
    cx_cancellable: int


def synth_native(cfg, arch: str = "fc") -> NativeCircuit:
    """Build, optionally route to a line, and lower to the native set."""
    if arch not in ARCHES:
        raise ValueError(f"unknown arch {arch!r}; expected one of {ARCHES}")
    circ = build(cfg)
    slots = schedule_slots(circ)
    if arch == "lnn":
        circ = route_lnn(circ)
    nc = lower_to_ngs(circ)
    nc.method = cfg.method
    nc.arch = arch
    nc.abstract_slots = slots
    # A build holds no SWAP, so each SWAP is an inserted swap.
    nc.swaps_inserted = sum(g.kind == "SWAP" for g in circ.gates)
    return nc


def native_metrics(nc: NativeCircuit) -> NativeMetrics:
    """Depth/count summary plus comparison against the closed-form models."""
    counts = nc.counts()
    depth = nc.depth()
    md = model_depth(nc.method, nc.n, nc.arch) if nc.method else None
    mc = model_cx(nc.method, nc.n, nc.arch) if nc.method else None
    return NativeMetrics(
        depth=depth,
        counts=counts,
        model_depth=md,
        depth_deviation=None if md is None else (depth - md) / md,
        model_cx=mc,
        cx_deviation=None if mc is None else (counts["CX"] - mc) / mc,
        cx_cancellable=len(nc.gates) - len(cancel_cx_pairs(nc).gates),
    )


# -- closed-form models for the native circuits ----------------------------------
#
# ``model_cx``, ``model_sx`` and ``model_swaps`` are derived: the abstract
# counts of ``expected_counts`` times the per-kind costs of ``LOWERING``, and
# on a line the swaps of the stage-walk network (see ``_walk``) with the CX
# each costs.  The built circuits (generic payload) meet them exactly on every
# width.  ``model_depth`` is reference data: fully-connected depth for the two
# MCU methods plus an additive line overhead, with no stated provenance; its
# mcu-zyz slope of 32 is that of list scheduling with only neighbouring Rz
# merged (32n-49); phase folding and the commutation-aware scheduler pack it
# to 21n-25 for even n and 21n-24 for odd n (n = 5..40), and mcu-mod to a
# slope of about 34.5.  The metrics report deviations against all of them.

def model_depth(method: str, n: int, arch: str = "fc") -> int | None:
    if method == "mcu-mod":
        d = 34 * n - 56
        if arch == "lnn":
            d += 24 * n - 64
        return d
    if method == "mcu-zyz":
        d = 32 * n - 44
        if arch == "lnn":
            d += 24 * n - 52
        return d
    return None


def _lowered_count(method: str, n: int, native: str) -> int:
    """Native gates of one kind in the fully-connected circuit: the pinned
    abstract counts times the per-kind cost of the lowering table.  Exact for
    CX and SX, which neither phase folding nor the scheduler removes."""
    return sum(c * _cost(kind, native) for kind, c in expected_counts(method, n).items())


def model_swaps(method: str, n: int) -> int:
    """SWAPs the stage walk inserts (n >= 3).  Each half of a block on k
    wirelines has stages k..3, and stage t passes its t-1 lower wirelines:
    k(k-1)/2 - 1 swaps a half.  The +1 block spans n wirelines; the -1 block
    n for mcu-zyz and n-1 for the others."""
    minus = n if method == "mcu-zyz" else n - 1
    return sum(k * (k - 1) - 2 for k in (n, minus))


def model_cx(method: str, n: int, arch: str = "fc") -> int:
    m = _lowered_count(method, n, "CX")
    if arch == "lnn":
        # Every controlled gate passes its control, and lowers with that SWAP,
        # except the two of stage 2 (one per block); the other swaps are bare.
        # A build holds no SWAP, so its two-qubit gates are the controlled ones.
        counts = expected_counts(method, n)
        fused = sum(c for kind, c in counts.items() if kind in TWO_QUBIT) - 2
        bare = model_swaps(method, n) - fused
        fused_cx = sum(step[0] == "CX" for step in _then_swap(LOWERING["CP"]((1.0,))))
        m += fused * (fused_cx - _cost("CP", "CX")) + bare * _cost("SWAP", "CX")
    return m


def model_sx(method: str, n: int) -> int:
    return _lowered_count(method, n, "SX")
