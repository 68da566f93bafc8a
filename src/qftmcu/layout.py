"""Nearest-neighbour routing and lowering to the native gate set.

The native set is {CX, Rz, SX, X} (identity is never emitted).  Lowering
tracks the global phase exactly, so a lowered circuit times e^(i phase)
reproduces the abstract unitary to machine precision.  Routing for a linear
nearest-neighbour architecture walks each QFT stage's target across its
lower wirelines, so every block returns to the identity layout: the parity
walk steps it past each one with CX then SWAP over wirelines kept in
difference form and writes each controlled phase as P gates on its phase
terms, and the swap walk (for CRx stages) passes each one with a SWAP
after its gate.  Unannotated gates are routed greedily and the final
logical-to-physical layout is recorded on the routed circuit
(``Circuit.final_layout``) instead of undone.  The routed circuit holds
logical gates, P gates, CX and SWAPs; lowering fuses a controlled gate
(a CX included) with a SWAP of its pair beside it.
"""

from __future__ import annotations

import cmath
import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .circuit import TWO_QUBIT, Circuit, Gate, normalize_angle, schedule_slots, swap
from .gate_algebra import abc_split, su2_axis
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
        self.out.append(Gate(g.kind, self.l2p[g.target], c, g.params, g.block, g.role, g.root_m))

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
    """Route a QFT half by the swap walk: each stage's target walks across
    its lower wirelines.

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


def _run_end(gates: list[Gate], i: int, role: str, block: str | None) -> int:
    """The end of the run of gates from i on with this role and block."""
    while i < len(gates) and gates[i].role == role and gates[i].block == block:
        i += 1
    return i


def _stages(gates: list[Gate]) -> list[tuple[int, Gate | None, list[Gate]]] | None:
    """A QFT half in walk order as stages (target, head, controlled gates),
    or None when it is not one the parity walk takes.

    A stage is a run of gates on one target t: an optional H, then CP gates
    from wirelines below t, or a run of CU2 gates (a root ladder) from them.
    The targets must run k, k-1, ..., s down from the top with s >= 2, so
    wireline 1 never takes a head (see :func:`_parity_walk`).
    """
    stages: list[tuple[int, Gate | None, list[Gate]]] = []
    for g in gates:
        if stages and g.target == stages[-1][0] and g.kind in ("CP", "CU2"):
            ctrl = stages[-1][2]
            if g.control > g.target or (ctrl and ctrl[0].kind != g.kind) or (
                g.kind == "CU2" and stages[-1][1] is not None
            ):
                return None
            ctrl.append(g)
        elif g.kind in ("H", "CP", "CU2") and (not stages or g.target == stages[-1][0] - 1):
            if g.kind == "H":
                stages.append((g.target, g, []))
            elif g.control < g.target:
                stages.append((g.target, None, [g]))
            else:
                return None
        else:
            return None
    if not stages or stages[-1][0] < 2:
        return None
    return stages


def _terms(g: Gate, frame: tuple | None) -> tuple[float, float, float] | None:
    """The phase polynomial of a diagonal controlled gate g, as angles on
    its control x, on its target y and on their parity x + y (mod 2):
    xy = (x + y - (x + y mod 2)) / 2, so CP(a) is P(a/2), P(a/2) and
    P(-a/2) on them.  A root is C-Lambda in the eigenframe W = Rz(phi)
    Ry(theta) of its ladder, ``frame`` = (phi, theta) (see ``_cu2_steps``):
    with W-dagger V W = diag(e^(i l0), e^(i l1)), P(l0) on the control times
    CP(l1 - l0).  None when W does not diagonalize V."""
    if g.kind == "CP":
        a = g.params[0] / 2
        return a, a, -a
    _, lam = _in_frame(frame, _u2_matrix(*g.params))
    if max(abs(lam[1]), abs(lam[2])) > _DIAGONAL:
        return None
    l0 = cmath.phase(lam[0])
    a = (cmath.phase(lam[3]) - l0) / 2
    return l0 + a, a, -a


def _walk_half(
    stages: list, k: int, frame: tuple | None, after: bool
) -> tuple[list[Gate], list[int]] | None:
    """The parity walk of one QFT half on wirelines 1..k from the identity,
    in walk order, and the parity each wireline ends on (bit w is the value
    wireline w started on, bit k + t the value stage t's head left).

    The wirelines below the stage target are kept in difference form: the
    first control pure and each further one XORed with the control above
    it (k - 2 CX before the first stage).  The target T steps past each
    control C with CX(C -> T), SWAP(T, C): T holds y + (the control it
    passed last) and C holds x_c + (that same control), so after the step
    C holds y + x_c, where the CP's parity term goes, and T the control in
    difference form.  Lowering fuses the CX with the SWAP, so a step costs
    2 CX where CP then SWAP costs 3.  Each CP's linear terms go on its
    control at the start and on its target right after the head, when both
    are pure.  The target passes every wireline below it, with or without a
    gate from it, so every half on k wirelines with the same stages walks
    one network.

    Stage t leaves the wirelines below it in difference form with the
    control above them, t - 1, on top; one CX from t - 1 takes it out of
    them before its head.  That CX commutes with the last CX of the step
    below the top, so that step is written as its two CX with this one
    between them: it goes first when both are ready, and the next stage
    starts a layer sooner.  Stage 2 passes nothing: its gates from
    wireline 1 act in place, as in the swap walk.  ``after`` says the walk
    is a mirror, read backwards: a root ladder's frame W then follows its
    roots.
    """
    out: list[Gate] = []
    emit = out.append
    walked = []
    for t, head, ctrl in stages:
        terms = [(_terms(g, frame), g) for g in ctrl] if t > 2 else []
        if any(x is None for x, _ in terms):
            return None
        walked.append((t, head, ctrl, terms))
        for (on_c, _, _), g in terms:
            emit(Gate("P", g.control, None, (on_c,), g.block, g.role, g.root_m))
    par = [0] + [1 << w for w in range(1, k + 1)]
    for c in range(1, k - 1):
        emit(Gate("CX", c, c + 1))
        par[c] ^= par[c + 1]
    step = [(Gate("CX", p, p - 1), Gate("SWAP", p - 1, p)) for p in range(k + 1)[1:]]
    iso = Gate("CX", k - 1, k)
    last = stages[-1][0]
    for t, head, ctrl, terms in walked:
        if ctrl and ctrl[0].kind == "CU2":
            par[k] = 1 << (k + t)
            if t > 2:
                phi, theta = frame  # W after the roots, W-dagger before them
                w = (0.0, phi, theta, 0.0) if after else (0.0, 0.0, -theta, -phi)
                head = Gate("U2", k, None, w, ctrl[0].block, ctrl[0].role)
        if head is not None:
            emit(Gate(head.kind, k, None, head.params, head.block, head.role, head.root_m))
            par[k] = 1 << (k + t)
        if t == 2:
            for g in ctrl:
                emit(Gate(g.kind, k, k - 1, g.params, g.block, g.role, g.root_m))
            continue
        passing: list[list] = [[] for _ in range(t)]
        for (_, on_t, on_xy), g in terms:
            emit(Gate("P", k, None, (on_t,), g.block, g.role, g.root_m))
            passing[g.control].append((on_xy, g))
        for pos in range(k, k - t + 1, -1):
            cx_, swap_ = step[pos - 1]
            par[pos - 1], par[pos] = par[pos] ^ par[pos - 1], par[pos - 1]
            if pos == k - 1 and t > last:
                emit(Gate("CX", k - 2, k - 1))
                emit(iso)
                emit(cx_)
                par[k - 1] ^= par[k]
            else:
                emit(cx_)
                emit(swap_)
            for angle, g in passing[pos - 1 - k + t]:
                emit(Gate("P", pos - 1, None, (angle,), g.block, g.role, g.root_m))
    return out, par


def _parity_walk(line: _Line, gates: list[Gate], i: int) -> int | None:
    """Route the block whose qft half starts at gates[i] by the parity walk,
    or return None (emitting nothing) when it is not one the walk takes.

    The block is a qft half, the ``column`` gates after it and an iqft half
    of the same block label; CX gates at the seam of the halves (a
    CX(1, 2)) belong to neither.  Both halves are walked over the block's
    wirelines 1..k by :func:`_walk_half` from the identity, the iqft half as
    the mirror of its reversed gate list, so it runs backwards into the
    identity.  Between them the wirelines hold parities of the values the
    logical wirelines hold there.  A CX between the halves only renames
    those values, and costs nothing.  An X goes before the block when the
    qft half has no gate on its wireline, after it when the iqft half has
    none (so mcx-qft keeps one X per block), and otherwise on every
    wireline whose parity holds its value; an X before the block that meets
    the same X ending the routed gates so far (mcx-qft's -1 block after its
    +1 block) cancels with it.  Neighbour SWAPs then take the
    row from where the qft half ends to where the mirror starts (one SWAP
    after a CX(1, 2), none otherwise); a block whose seam is no permutation
    is not taken.  The whole block acts on wirelines 1..k, which must sit
    at home.
    """
    block = gates[i].block
    j = _run_end(gates, i, "qft", block)
    m = j
    while m < len(gates) and gates[m].block == block and gates[m].role == "column":
        m += 1
    end = _run_end(gates, m, "iqft", block)
    qft, iqft = gates[i:j], gates[m:end]
    lo = len(qft)
    while lo and qft[lo - 1].kind == "CX":
        lo -= 1
    hi = 0
    while hi < len(iqft) and iqft[hi].kind == "CX":
        hi += 1
    seam = qft[lo:] + gates[j:m] + iqft[:hi]
    fwd, back = _stages(qft[:lo]), _stages(iqft[hi:][::-1])
    if fwd is None or back is None or [s[0] for s in fwd] != [s[0] for s in back]:
        return None
    k = fwd[0][0]
    if any(line.l2p[w] != w for w in range(1, k + 1)):
        return None
    roots = [g for g in qft + iqft if g.kind == "CU2"]
    frame = _eigenframe(*roots[0].params[1:]) if roots else None
    walked = _walk_half(fwd, k, frame, after=False)
    mirrored = _walk_half(back, k, frame, after=True)
    if walked is None or mirrored is None:
        return None
    (out, par), (mirror, want) = walked, mirrored
    headed = {t for t, head, ctrl in fwd if head is not None or ctrl[0].kind == "CU2"}

    def value(w: int) -> int:
        return 1 << (k + w if w in headed else w)

    def touched(stages: list) -> set[int]:
        return {t for t, _, _ in stages} | {g.control for _, _, ctrl in stages for g in ctrl}

    renames = any(g.kind == "CX" for g in seam)
    before: list[Gate] = []
    flips: list[Gate] = []
    after: list[Gate] = []
    for g in seam:
        if any(w > k for w in g.wires()) or g.kind not in ("CX", "X"):
            return None
        if g.kind == "CX":
            src, dst = value(g.control), value(g.target)
            for w in range(1, k + 1):
                if par[w] & dst:
                    par[w] ^= src
        elif not renames and g.target not in touched(fwd):
            before.append(g)
        elif not renames and g.target not in touched(back):
            after.append(g)
        else:
            held = value(g.target)
            flips += [Gate("X", w, None, (), g.block, g.role) for w in range(1, k + 1) if par[w] & held]
    if sorted(par) != sorted(want):
        return None
    swaps: list[Gate] = []
    for w in range(k, 0, -1):
        q = par.index(want[w])
        for r in range(q, w):
            swaps.append(swap(r, r + 1))
            par[r], par[r + 1] = par[r + 1], par[r]
    for g in before:
        # With the two X gone, the chains out of and into difference form
        # on either side of them cancel too (see ``model_cx``).
        if line.out and line.out[-1].kind == "X" and line.out[-1].target == g.target:
            line.out.pop()
        else:
            line.out.append(g)
    line.out += out
    line.out += flips
    line.out += swaps
    line.out += reversed(mirror)
    line.out += after
    return end


def route_lnn(circ: Circuit) -> Circuit:
    """Make every two-qubit gate act on adjacent wirelines.

    A block of the builders' QFT halves (role ``qft`` and ``iqft``) whose
    stages are all H, CP and root ladders is routed by the parity walk
    (:func:`_parity_walk`): each CP and root above stage 2 becomes its phase
    terms as P gates (with its annotations) between CX and SWAP gates, and
    a ladder's roots share one frame.  Other halves (CRx stages, a half
    without its partner, and every half of an ``optimize=False`` build,
    whose halves end on an H on wireline 1 and whose column P gates sit
    between the halves) are routed by the swap walk (:func:`_walk`): a
    ``qft`` half walks forward from the current layout; an ``iqft`` half is
    the mirror of its reversed gate list walked from the identity, entered,
    if needed, through neighbour swaps to the layout its mirror starts
    from.  So both walks end every block at the identity layout.  Any other
    gate is routed greedily: its control steps toward its target one SWAP
    at a time.  The permutation is carried forward rather than undone: the
    routed circuit's ``final_layout`` says where each logical wireline ended
    up, so it equals (layout permutation) o (original).  Each inserted swap
    is one SWAP gate.  The work is O(gates + swaps).
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
        if g.role == "qft":
            end = _parity_walk(line, gates, i)
            if end is not None:
                i = end
                continue
        j = _run_end(gates, i, g.role, g.block)
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
    the closed-form depth and count models.  ``dropped_rz`` counts the
    folded Rz sums that lowering left out as rounding noise (nonzero, within
    1e-12 of a full turn), and ``dropped_rz_sum`` adds up their |angle|.
    """

    global_phase: float = 0.0
    method: str | None = None
    arch: str = "fc"
    abstract_slots: int | None = None
    swaps_inserted: int = 0
    dropped_rz: int = 0
    dropped_rz_sum: float = 0.0

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
# to the global phase, so the template times e^(i phase) equals the gate.  A
# ("frame", _T, frame) step emits nothing: it tells ``lower_to_ngs`` which
# eigenbasis a CU2 left on its target (see ``_cu2_steps``).
# This table is the only place that knows a gate's native cost.

_T, _C = 0, 1
_PI = math.pi

# Reading a template off a 2x2 unitary, an entry below _SNAP in magnitude is
# taken as 0 and a ZYZ angle within _SNAP of pi/2 as pi/2; rounding leaves
# about 1e-15 where the exact value is 0 or pi/2.
_SNAP = 1e-13
# A frame diagonalizes a payload when the off-diagonal it leaves is below this.
_DIAGONAL = 1e-14


def _u2_steps(d: float, a: float, t: float, b: float) -> tuple:
    """e^(id) Rz(a) Ry(t) Rz(b) as Rz(b), SX, Rz(pi+t), SX, Rz(pi+a), phase d + pi/2."""
    return (
        ("Rz", _T, b), ("phase", None, d + _PI / 2), ("SX", _T, None),
        ("Rz", _T, _PI + t), ("SX", _T, None), ("Rz", _T, _PI + a),
    )


def _u2_matrix(d: float, a: float, t: float, b: float) -> tuple:
    """e^(id) Rz(a) Ry(t) Rz(b) as a row-major 4-tuple, as ``u2_mat`` in
    gate_algebra; the lowering's 2x2 algebra stays in plain complex numbers,
    where numpy's per-call cost would outweigh the arithmetic."""
    c, s = math.cos(t / 2), math.sin(t / 2)
    e = cmath.exp(1j * d)
    p, q = cmath.exp(-0.5j * (a + b)), cmath.exp(-0.5j * (a - b))
    return (e * c * p, -e * s * q, e * s * q.conjugate(), e * c * p.conjugate())


def _matmul(m: tuple, k: tuple) -> tuple:
    a, b, c, d = m
    e, f, g, h = k
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _dagger(m: tuple) -> tuple:
    a, b, c, d = m
    return (a.conjugate(), c.conjugate(), b.conjugate(), d.conjugate())


def _matrix_steps(m: tuple) -> tuple:
    """The cheapest native template of the 2x2 unitary ``m``: one Rz when m is
    diagonal, X then Rz when antidiagonal, Rz SX Rz when its ZYZ angle t is
    pi/2, else the two-SX form of ``_u2_steps``; with its phase."""
    m00, m01, m10, m11 = m
    d = cmath.phase(m00 * m11 - m01 * m10) / 2
    turn = cmath.exp(-1j * d)
    v00, v10, v11 = m00 * turn, m10 * turn, m11 * turn
    if abs(v10) < _SNAP:
        return (("phase", None, d), ("Rz", _T, 2 * cmath.phase(v11)))
    if abs(v00) < _SNAP:
        # e^(id) Rz(a - b) Ry(pi) = e^(i(d + pi/2)) Rz(a - b - pi) X
        return (("phase", None, d + _PI / 2), ("X", _T, None), ("Rz", _T, 2 * cmath.phase(v10) - _PI))
    t = 2 * math.atan2(abs(v10), abs(v00))
    a = cmath.phase(v11) + cmath.phase(v10)
    b = cmath.phase(v11) - cmath.phase(v10)
    if abs(t - _PI / 2) < _SNAP:
        # Ry(pi/2) = Rz(pi/2) Rx(pi/2) Rz(-pi/2), and SX = e^(i pi/4) Rx(pi/2)
        return (
            ("Rz", _T, b - _PI / 2), ("phase", None, d - _PI / 4),
            ("SX", _T, None), ("Rz", _T, a + _PI / 2),
        )
    return _u2_steps(d, a, t, b)


def _eigenframe(a: float, t: float, b: float) -> tuple:
    """W = Rz(phi) Ry(theta), as (phi, theta), with W-dagger Rz(a) Ry(t) Rz(b) W
    diagonal: W turns the z axis onto the payload's rotation axis.

    The axis is read off the angles (``su2_axis``), not off the matrix, so
    a rotation near the identity (a deep root) keeps it.  Of the axis and
    its opposite, the one with z >= 0 is taken, so theta lies in [0, pi/2]
    and a diagonal payload gets W = I.
    """
    _, x, y, z = su2_axis(a, t, b)
    if x == 0.0 and y == 0.0:
        return (0.0, 0.0)
    if z < 0:
        x, y, z = -x, -y, -z
    return (math.atan2(y, x), math.atan2(math.hypot(x, y), z))


def _in_frame(frame: tuple, v: tuple) -> tuple[tuple, tuple]:
    """W = Rz(phi) Ry(theta) of ``frame`` = (phi, theta), and W-dagger v W."""
    w = _u2_matrix(0.0, frame[0], frame[1], 0.0)
    return w, _matmul(_dagger(w), _matmul(v, w))


def _cu2_steps(q: tuple, frame: tuple | None = None) -> tuple:
    """Controlled V, V = e^(id) Rz(a) Ry(t) Rz(b), in V's eigenbasis W: W-dagger
    on the target, C-Lambda with Lambda = W-dagger V W = diag(e^(i l0),
    e^(i l1)), then W.  C-Lambda is P(l0) on the control, an Rz and a phase,
    times CP(l1 - l0) (see ``_cp_steps``): 2 CX.

    Every root of one payload has the payload's eigenbasis, so the W of one
    root and the W-dagger of the next multiply to the identity on the target,
    and ``lower_to_ngs`` merges them away.  ``frame`` is the W the last CU2
    left on this target; it is kept when it diagonalizes V, since a root near
    the identity has its ZYZ a + b only to about 1e-16 absolute, so the axis
    read off its own angles drifts from the payload's.  Otherwise W is V's
    ``_eigenframe``.
    """
    v = _u2_matrix(*q)
    w, lam = _in_frame(frame, v) if frame is not None else (None, None)
    if lam is None or max(abs(lam[1]), abs(lam[2])) > _DIAGONAL:
        frame = _eigenframe(*q[1:])
        w, lam = _in_frame(frame, v)
    l0 = cmath.phase(lam[0])
    return (
        _matrix_steps(_dagger(w))
        + (("phase", None, l0 / 2), ("Rz", _C, l0))
        + _cp_steps(cmath.phase(lam[3]) - l0)
        + _matrix_steps(w)
        + (("frame", _T, frame),)
    )


def _cp_steps(g: float) -> tuple:
    """CP(g) as CRz(g) times P(g/2) on the control, the P an Rz(g/2) and a
    phase g/4."""
    return (
        ("phase", None, g / 4), ("Rz", _T, g / 2), ("Rz", _C, g / 2),
        ("CX", _C, None), ("Rz", _T, -g / 2), ("CX", _C, None),
    )


def _crx_steps(g: float) -> tuple:
    """Controlled Rx(g) = Rz(-pi/2) Ry(g) Rz(pi/2) as C, CX, B, CX, A (Barenco
    et al., PRA 52:3457, 1995; see abc_split), with a Z pushed out of B.

    B's two-SX form ends on an Rz(pi): B = Rz(pi) B' with B' = (d, a - pi,
    t, b).  That Rz(pi) crosses the second CX as CX Rz_T(pi) = e^(i pi/2)
    Rz_C(pi) Rz_T(pi) CX (Nam, Ross, Su, Childs & Maslov, npj Quantum Inf.
    4:23, 2018), and A Rz(pi) = Rz(a + pi) Ry(-t) Rz(b).  So the target
    keeps only the Rz of B' and A's middle angle, and A now ends on
    Rz(-pi/2) (mod 2 pi), which cancels the next CRx's C = Rz(pi/2) on the
    same parity; the Rz(pi) lands on the control's parity."""
    par_a, par_b, par_c = abc_split(-_PI / 2, g, _PI / 2)
    d, a, t, b = par_b
    b_rest = (d, a - _PI, t, b)
    d, a, t, b = par_a
    a_after = (d, a + _PI, -t, b)
    return (
        (("Rz", _T, par_c[3]), ("CX", _C, None))
        + _u2_steps(*b_rest)
        + (("CX", _C, None), ("phase", None, _PI / 2), ("Rz", _C, _PI))
        + _u2_steps(*a_after)
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
    "CRx": lambda q: _crx_steps(q[0]),
    "CU2": _cu2_steps,
    "SWAP": lambda q: _SWAP_STEPS,
}


def _then_swap(steps: tuple) -> tuple:
    """A controlled gate's template followed by a SWAP of its pair, as
    ``lower_to_ngs`` emits the two when they are neighbours.  The
    single-qubit steps after the template's last CX cross the SWAP to the
    other operand.  That CX, from operand w, cancels the first CX of the
    SWAP written as CX(w ->), CX(-> w), CX(w ->): a CP then a SWAP is 3 CX,
    not 2 + 3."""
    k = len(steps) - 1
    while steps[k][0] != "CX":
        k -= 1
    w = steps[k][1]
    tail = tuple((kind, q if q is None else 1 - q, angle) for kind, q, angle in steps[k + 1 :])
    return steps[:k] + (("CX", 1 - w, None), ("CX", w, None)) + tail


def _cost(kind: str, native: str) -> int:
    """How many ``native`` gates (CX, SX or X) the rule for ``kind`` emits
    for a gate lowered alone; a merged run can take SX and X away, and only
    a CX pair with nothing left between them takes CX away.  Rz is left
    out: phase folding keeps one Rz per parity and drops zero sums."""
    return sum(step[0] == native for step in LOWERING[kind]((1.0,) * 4))


class _Parities:
    """Phase folding with least-depth placement, one pass over a native list.

    A parity is an int whose bit 0 is a constant and whose bit i > 0 is the
    path variable with id i.  Wireline w starts on variable w.  A CX XORs its
    control's parity into its target's, an X flips the constant, and an SX
    puts a fresh variable on its wireline (``fresh``).  An Rz(a) on a parity
    with constant 1 is an Rz(-a) on the parity without it, so ``rot`` keys a
    parity by its variables (``p >> 1``) and keeps [angle sum in that frame,
    rank, position, wireline, constant, pair] of the slot chosen for its one
    Rz.

    A wireline holds one parity from one X-basis gate on it (CX target, SX,
    X) to the next: an interval, in which an Rz of that parity commutes with
    every gate on the wireline.  Every interval of a parity is a slot for
    its Rz, whether or not an Rz step sat there, so where the steps were
    does not matter, only their sum.  ``fold`` times the Rz-free gates
    list-ASAP and ranks each interval as it closes: 2 when the wireline
    idles for two layers or more in it, 1 when it idles less, and 0 when it
    lies between the two CX of a pair that would cancel with nothing
    between them (``_cancelling``; ``pair`` is the innermost such pair),
    since an Rz there keeps the pair.  Each parity takes the latest interval
    of its highest rank, and its Rz goes in the slot ``fold`` leaves right
    before the gate that closes it (in ``out``).  One idle layer in list
    order is often one the commutation-aware scheduler fills, so it does not
    rank 2.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.par = [0] + [1 << w for w in range(1, n + 1)]
        self.rot: dict[int, list] = {}
        self.free: list[int] = []
        self.top = n + 1  # ids below top have been handed out
        self.limit = 2 * n
        self.wraps = 0  # full turns folded out of the sums, mod 2
        self.dropped = 0  # nonzero sums within 1e-12 of a full turn, left out
        self.dropped_sum = 0.0  # their summed |angle|
        self.out: list[Gate | None] = []  # gates, a slot before each that closes an interval
        self.kept: list[int] = []  # pairs an Rz was placed between

    def fresh(self) -> int:
        """The bit of an unused variable id.

        Ids stay small, so parities stay small ints: once no id is free and
        the ids handed out reach ``limit``, the ids no wireline holds any more
        are freed, and the Rz of every parity that mentions one is placed,
        since every interval of that parity has closed.  ``limit`` is then
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
                    entry = rot.pop(key)
                    if entry[0]:
                        self.place(entry)
                self.free = [v for v in range(self.top - 1, 0, -1) if dead >> (v - 1) & 1]
            live = (held >> 1).bit_count()
            self.limit = live + max(live, self.n)
        if self.free:
            return 1 << self.free.pop()
        self.top += 1
        return 1 << (self.top - 1)

    def fold(self, gates: list, pairs: bytearray) -> list[Gate]:
        """Fold the Rz steps of ``gates`` (CX, SX and X gates, and (wireline,
        angle) steps) into one Rz per parity, choose its slot, and return the
        gates with the Rz placed.  ``pairs`` marks the two CX of each pair
        that cancels once nothing sits between them (``_cancelling``); an
        interval inside such a pair on its wireline ranks 0.  A pair an Rz
        is placed between stays, and so do the pairs around it; the others
        are dropped."""
        par, rot, fresh = self.par, self.rot, self.fresh
        n = self.n
        out = self.out
        avail = [0] * (n + 1)  # list-ASAP: when each wireline is next free
        opened = [0] * (n + 1)  # when the wireline's interval opened
        busy = [0] * (n + 1)  # gates on the wireline since (CX controls)
        # A pair is named by the place of its first CX in ``out``.
        inside: list[list[int]] = [[] for _ in range(n + 1)]  # pairs open around here
        around: dict[int, list[int]] = {}  # pair -> the pairs open around it
        second: dict[int, int] = {}  # pair -> the place of its second CX

        def close(w: int, end: int) -> None:
            # The interval's slot is the next place in ``out``.
            p = par[w]
            open_pairs = inside[w]
            if open_pairs:
                rank, inner = 0, open_pairs[-1]
            else:
                rank, inner = 2 if end - opened[w] > busy[w] + 1 else 1, -1
            entry = rot.get(p >> 1)
            if entry is None:
                rot[p >> 1] = [0.0, rank, len(out), w, p & 1, inner]
            elif rank >= entry[1]:
                entry[1:] = rank, len(out), w, p & 1, inner
            out.append(None)

        for g, mark in zip(gates, pairs):
            if g.__class__ is tuple:
                w, angle = g
                p = par[w]
                if p & 1:
                    angle = -angle
                entry = rot.get(p >> 1)
                if entry is None:
                    rot[p >> 1] = [angle, -1, -1, w, 0, -1]
                else:
                    entry[0] += angle
                continue
            t, c = g.target, g.control
            start = avail[t]
            if c is not None and avail[c] > start:
                start = avail[c]
            close(t, start)
            out.append(g)
            avail[t] = opened[t] = start + 1
            busy[t] = 0
            if c is None:
                par[t] = par[t] ^ 1 if g.kind == "X" else fresh()
                continue
            avail[c] = start + 1
            busy[c] += 1
            par[t] ^= par[c]
            if mark == 1:
                if inside[t] or inside[c]:
                    around[len(out) - 1] = [inside[w][-1] for w in (t, c) if inside[w]]
                inside[t].append(len(out) - 1)
                inside[c].append(len(out) - 1)
            elif mark:
                inside[c].pop()
                second[inside[t].pop()] = len(out) - 1
        end = max(avail)
        for w in range(1, n + 1):
            close(w, end)
        for entry in rot.values():
            if entry[0]:
                self.place(entry)
        rot.clear()
        kept = self.kept
        while kept:
            j = kept.pop()
            if second.pop(j, None) is not None:
                kept += around.get(j, ())
        for j, k in second.items():
            out[j] = out[k] = None
        return [g for g in out if g is not None]

    def place(self, entry: list) -> None:
        """Write a parity's one Rz in its slot; a sum that vanishes leaves
        nothing, and its full turns go to ``wraps``.  A sum within 1e-12 of
        a full turn but not on it is rounding noise of the folded terms; it
        is left out too, and counted in ``dropped`` and ``dropped_sum``."""
        angle, rank, slot, w, neg, inner = entry
        a = normalize_angle(angle)
        if a != angle:
            self.wraps += round((angle - a) / TWO_PI)
        if abs(a) > 1e-12:
            self.out[slot] = Gate("Rz", w, None, (-a if neg else a,))
            if rank == 0:
                self.kept.append(inner)
        elif a:
            self.dropped += 1
            self.dropped_sum += abs(a)


def _cancelling(gates: list, n: int) -> bytearray:
    """Mark the CX pairs that cancel, cascading: 1 on the first CX of a pair,
    2 on the second.  Two equal CX cancel when every gate between them on
    their wirelines cancels too.  Each wireline stacks its gates that are
    left; a CX whose two wirelines have the same gate on top, the same CX,
    pops it.  Steps that are tuples (Rz still to be placed) are skipped."""
    stacks: list[list[int]] = [[] for _ in range(n + 1)]
    pairs = bytearray(len(gates))
    for i, g in enumerate(gates):
        if g.__class__ is tuple:
            continue
        on_t = stacks[g.target]
        if g.control is None:
            on_t.append(i)
            continue
        on_c = stacks[g.control]
        if on_t and on_c and on_t[-1] == on_c[-1] and gates[on_t[-1]].target == g.target:
            pairs[on_t.pop()] = 1
            on_c.pop()
            pairs[i] = 2
        else:
            on_t.append(i)
            on_c.append(i)
    return pairs


#: kinds whose single-qubit steps may merge with those of a neighbour
_MERGING = frozenset({"H", "U2", "CU2"})

_SX_MATRIX = (0.5 + 0.5j, 0.5 - 0.5j)


class _Run:
    """The single-qubit steps a wireline took since its last CX, held back
    while they may still merge.  Each gate's steps form a segment, with a
    sub-list of ``out`` reserved where they would have gone (its index goes
    to ``reserved``), and ``sources`` counts the H, U2 and CU2 gates among
    them that hold an SX or X."""

    __slots__ = ("out", "reserved", "segments", "gate", "counted", "sources")

    def __init__(self, out: list, reserved: list[int]) -> None:
        self.out, self.reserved = out, reserved
        self.segments: list[tuple[list, list]] = []
        self.gate = self.counted = -1
        self.sources = 0

    def add(self, gate: int, kind: str, angle: float | None, source: bool) -> None:
        """Hold step (kind, angle) of gate number ``gate``."""
        if gate != self.gate:
            self.gate = gate
            sub: list = []
            self.reserved.append(len(self.out))
            self.out.append(sub)
            self.segments.append((sub, []))
        self.segments[-1][1].append((kind, angle))
        if source and kind != "Rz" and self.counted != gate:
            self.counted = gate
            self.sources += 1

    def matrix(self) -> tuple:
        """The product of the held steps, a row-major 2x2 4-tuple."""
        a, b, c, d = 1.0 + 0j, 0j, 0j, 1.0 + 0j
        p, q = _SX_MATRIX
        for _, steps in self.segments:
            for kind, angle in steps:
                if kind == "Rz":
                    e = cmath.exp(-0.5j * angle)
                    f = e.conjugate()
                    a, b, c, d = a * e, b * e, c * f, d * f
                elif kind == "SX":
                    a, b, c, d = p * a + q * c, p * b + q * d, q * a + p * c, q * b + p * d
                else:
                    a, b, c, d = c, d, a, b
        return a, b, c, d


def _commute_schedule(gates: list[Gate], n: int) -> list[Gate]:
    """Reorder native gates into earliest-start order, honouring commutation.

    List scheduling charges each gate to the latest busy time of its
    wirelines in *list* order, so a gate stuck behind a commuting neighbour
    can idle a wireline for no physical reason.  This pass builds the
    commutation DAG and greedily emits whichever ready gate can start
    earliest, breaking ties by original position.  Only commuting exchanges
    are performed, so the overall unitary is untouched.

    Rz and a CX control are Z-diagonal on their wireline; X, SX and a CX
    target are X-diagonal (SX = exp(-i pi X / 4) up to phase), and two
    native gates commute when they agree in basis on every wireline they
    share.  So the gates on a wireline fall into runs, maximal stretches of
    one basis, and a gate must follow every gate of the run before its own
    there; gates of one run commute no matter how far apart they sit.  The
    DAG is kept run by run: each wireline lists the gates on it in order
    (``members``) and where each run starts (``bounds``), a gate's in-degree
    counts the runs it waits on (one per wireline but on the first run),
    and once a run has no member left to emit, the gates of the run after
    it each lose one.  That is the DAG with an edge from every gate of a
    run to every gate of the next, in O(1) per gate.

    Ready gates on one wire tuple share a start time, and they become ready in
    index order: whatever holds a gate back on one of its wirelines also
    holds back every later gate on the same wirelines, directly or through
    the runs between them.  So each wire tuple queues its ready gates
    first-in first-out, and one heap holds a ``start << shift | index`` key
    for the head of every non-empty queue.  Starts only grow (``avail`` is
    monotone), so a key's start is a lower bound: a popped key whose start
    moved on is pushed back with the new one, and a popped key whose start
    still holds is the least ``(start, index)`` over all ready gates -- the
    gate a scan of the whole ready list would emit.  Each emission costs
    O(log m) heap work instead of an O(|ready|) scan.
    """
    m = len(gates)
    shift = m.bit_length()
    mask = (1 << shift) - 1
    indeg = [0] * m
    run_t = [0] * m  # the run of each gate on its target, and on its control
    run_c = [0] * m
    members: list[list[int]] = [[] for _ in range(n + 1)]
    bounds: list[list[int]] = [[] for _ in range(n + 1)]
    z_basis: list[bool | None] = [None] * (n + 1)  # the basis of the current run
    queue_of: list = [None] * m  # the queue of each gate's wire tuple
    queues: dict[tuple[int | None, int], deque[int]] = {}
    heap: list[int] = []
    for i, g in enumerate(gates):
        t, c = g.target, g.control
        queue = queues.get((c, t))
        if queue is None:
            queue = queues[c, t] = deque()
        queue_of[i] = queue
        deg = 0
        if c is not None:
            on = members[c]
            if z_basis[c] is not True:
                z_basis[c] = True
                bounds[c].append(len(on))
            run_c[i] = k = len(bounds[c]) - 1
            on.append(i)
            if k:
                deg = 1
            z = False
        else:
            z = g.kind == "Rz"
        on = members[t]
        if z_basis[t] is not z:
            z_basis[t] = z
            bounds[t].append(len(on))
        run_t[i] = k = len(bounds[t]) - 1
        on.append(i)
        if k:
            deg += 1
        if deg:
            indeg[i] = deg
        else:
            queue.append(i)  # ready at time 0
            if len(queue) == 1:
                heap.append(i)  # ascending keys: a heap already
    left: list[list[int]] = []  # per wireline, the gates of each run not yet emitted
    for on, bnd in zip(members, bounds):
        bnd += (len(on), len(on))  # so run k + 1 is on[bnd[k + 1]:bnd[k + 2]], maybe empty
        left.append([hi - lo for lo, hi in zip(bnd, bnd[1:])])
    avail = [0] * (n + 1)
    push, pop = heapq.heappush, heapq.heappop
    order: list[Gate] = []

    def release(w: int, k: int) -> None:
        """Run k on wireline w is done: the gates of run k + 1 wait on one run less."""
        bnd = bounds[w]
        for i in members[w][bnd[k + 1] : bnd[k + 2]]:
            indeg[i] -= 1
            if indeg[i]:
                continue
            queue = queue_of[i]
            queue.append(i)
            if len(queue) == 1:
                g = gates[i]
                t, c = g.target, g.control
                now = avail[t]
                if c is not None and avail[c] > now:
                    now = avail[c]
                push(heap, now << shift | i)

    while heap:
        key = pop(heap)
        best = key & mask
        start = key >> shift
        g = gates[best]
        t, c = g.target, g.control
        now = avail[t]
        if c is not None and avail[c] > now:
            now = avail[c]
        if now != start:
            push(heap, now << shift | best)
            continue
        queue = queue_of[best]
        queue.popleft()
        order.append(g)
        start += 1
        avail[t] = start
        if c is not None:
            avail[c] = start
        if queue:
            push(heap, start << shift | queue[0])
        k = run_t[best]
        runs = left[t]
        runs[k] -= 1
        if not runs[k]:
            release(t, k)
        if c is not None:
            k = run_c[best]
            runs = left[c]
            runs[k] -= 1
            if not runs[k]:
                release(c, k)
    return order


def lower_to_ngs(circ: Circuit) -> NativeCircuit:
    """Lower every gate to {CX, Rz, SX, X} by its rule in ``LOWERING``,
    tracking the global phase exactly.

    A controlled gate and a SWAP of its pair next to it lower as one
    template, ``_then_swap`` of the gate's, one CX more than the gate alone.
    SWAP then G(c, t) is G(t, c) then SWAP; a SWAP between two gates of its
    pair goes with the one before it.  A CU2 is handed the eigenbasis the
    last CU2 on its target left there (see ``_cu2_steps``).

    A wireline's single-qubit steps between two CX (a run) are multiplied
    into one 2x2 and lowered by ``_matrix_steps`` when their SX and X come
    from two or more H, U2 or CU2 gates (Nam, Ross, Su, Childs & Maslov, npj
    Quantum Inf. 4:23, 2018): the frames between two roots of one payload
    then vanish.  Such a run is held back (``_Run``) until its wireline's
    next CX; a run that does not merge is lowered step by step into the
    places reserved for it, so the output is the same as if it had never
    been held.  The merged form goes where the run's last gate was.

    Rz gates are phase-folded: each wireline holds a parity of path variables
    (see ``_Parities``), an Rz on a parity adds its phase term to the path
    sum's phase, and the terms on one parity add up, wherever they sit (Amy,
    Maslov & Mosca, IEEE TCAD 33:1476, 2014; Nam et al.).  So every parity
    keeps one Rz, the sum of its angles, in an interval of a wireline
    holding it that list order leaves idle, if it has one, and never
    between two equal CX that would otherwise cancel (see ``_Parities``).  Then every CX pair with nothing left
    between them on their wirelines cancels, cascading (``_cancelling``):
    on the line, where the walk's chains out of and into difference form
    meet between two blocks, that is 2(k - 2) CX for a seam of width k.
    This is exact for every circuit.  A sum that vanishes is dropped, and
    so is one within 1e-12 of it (counted in ``dropped_rz``), and
    full turns fold into the phase (Rz(2 pi) = -1) as an integer parity;
    the template phases are summed with ``math.fsum``, so the phase is
    correctly rounded.  The commutation-aware scheduler then reorders the
    gates.  A routed circuit's ``final_layout`` carries over.
    """
    out: list = []
    reserved: list[int] = []
    terms: list[float] = []
    runs: list[_Run | None] = [None] * (circ.n + 1)
    frames: dict[int, tuple] = {}

    def hold(q: int, kind: str, angle: float | None) -> None:
        run = runs[q]
        if run is None:
            run = runs[q] = _Run(out, reserved)
        run.add(gate, kind, angle, source)

    def emit(q: int, kind: str, angle: float | None, sub: list) -> None:
        if kind != "Rz":
            sub.append(Gate(kind, q))
        elif angle:
            sub.append((q, angle))

    def flush(q: int) -> None:
        run = runs[q]
        runs[q] = None
        if run.sources < 2:
            for sub, steps in run.segments:
                for kind, angle in steps:
                    emit(q, kind, angle, sub)
            return
        sub = run.segments[-1][0]
        for kind, _, angle in _matrix_steps(run.matrix()):
            if kind == "phase":
                terms.append(angle)
            else:
                emit(q, kind, angle, sub)

    gates = circ.gates
    i = 0
    while i < len(gates):
        g = gates[i]
        gate = i
        nxt = gates[i + 1] if i + 1 < len(gates) else g
        ops = (g.target, g.control)
        fuse = (g.kind == "SWAP") != (nxt.kind == "SWAP") and (
            (g.target, g.control) in ((nxt.target, nxt.control), (nxt.control, nxt.target))
        )
        if fuse and g.kind == "SWAP":
            g, ops = nxt, (nxt.control, nxt.target)
        if g.kind == "CU2":
            steps = _cu2_steps(g.params, frames.get(ops[_T]))
        else:
            steps = LOWERING[g.kind](g.params)
        if fuse:
            steps = _then_swap(steps)
        i += 2 if fuse else 1
        source = g.kind in _MERGING
        # Only a source opens a run, so a gate that is none and finds no run
        # open on its wirelines lowers with no run bookkeeping.
        watch = source or runs[ops[0]] is not None or (
            ops[1] is not None and runs[ops[1]] is not None
        )
        for kind, w, angle in steps:
            if kind == "CX":
                c, t = ops[w], ops[1 - w]
                if watch:
                    if runs[c] is not None:
                        flush(c)
                    if runs[t] is not None:
                        flush(t)
                out.append(Gate("CX", t, c))
            elif kind == "phase":
                terms.append(angle)
            elif kind == "frame":
                frames[ops[w]] = angle
            else:
                q = ops[w]
                if watch and (source or runs[q] is not None):
                    hold(q, kind, angle)
                elif kind != "Rz":
                    out.append(Gate(kind, q))
                elif angle:
                    out.append((q, angle))
    for q in range(1, circ.n + 1):
        if runs[q] is not None:
            flush(q)
    flat: list = []
    start = 0
    for k in reserved:
        flat += out[start:k]
        flat += out[k]
        start = k + 1
    flat += out[start:]
    parities = _Parities(circ.n)
    lowered = parities.fold(flat, _cancelling(flat, circ.n))
    kept = _commute_schedule(lowered, circ.n)
    terms.append(math.pi * (parities.wraps % 2))
    phase = math.fmod(math.fsum(terms), TWO_PI)
    return NativeCircuit(
        circ.n, kept, phase, final_layout=circ.final_layout,
        dropped_rz=parities.dropped, dropped_rz_sum=parities.dropped_sum,
    )


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
    dropped_rz: int
    dropped_rz_sum: float


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
        dropped_rz=nc.dropped_rz,
        dropped_rz_sum=nc.dropped_rz_sum,
    )


# -- closed-form models for the native circuits ----------------------------------
#
# ``model_cx`` and ``model_swaps`` are derived: the abstract counts of
# ``expected_counts`` times the per-kind costs of ``LOWERING``, and on a line
# the network of the parity walk (see ``_walk_half``), or for ldd of the
# swap walk (see ``_walk``), with the CX each of its gates costs, less the
# chains that cancel where two walked blocks meet.
# ``model_sx`` also takes away the SX of the runs that merge.  The built
# circuits (generic payload) meet them exactly on every width.
# ``model_depth`` is reference data: fully-connected depth for the two MCU
# methods plus an additive line overhead, with no stated provenance; its
# mcu-zyz slope of 32 is that of list scheduling with only neighbouring Rz
# merged (32n-49).  Phase folding with each Rz in its least-depth interval,
# merged runs and the commutation-aware scheduler pack mcu-zyz to 20n-33
# for even n and 20n-34 for odd n (n = 5..40), and mcu-mod, its roots
# lowered in the payload's eigenbasis, to 20n-45 for even n and 20n-46 for
# odd n (n = 5..40); on the line, to 26n-46 and 26n-59 (n = 6..32).  The
# metrics report deviations against all of them.

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
    """Native gates of one kind in the fully-connected circuit if every gate
    lowered alone: the pinned abstract counts times the per-kind cost of the
    lowering table.  Exact for CX on a generic payload: no merge, phase
    folding or scheduling removes one, and no CX pair cancels, since every
    CP and root keeps an Rz on a parity held only between its two CX.
    Merged runs take SX away (see ``model_sx``)."""
    return sum(c * _cost(kind, native) for kind, c in expected_counts(method, n).items())


def _walked_blocks(method: str, n: int) -> list[tuple[int, int, int]]:
    """Each block the parity walk routes: its width k, its last QFT stage s
    and the SWAPs between its halves (one after a CX(1, 2), see
    ``_parity_walk``).  The +1 block spans n wirelines, the -1 block n for
    mcu-zyz and n-1 for the others."""
    minus = n if method == "mcu-zyz" else n - 1
    if method == "mcx-qft":
        return [(k, 2, 0) for k in (n, minus)]
    return [(k, 3, 1) for k in (n, minus)]


def model_swaps(method: str, n: int) -> int:
    """SWAPs the router inserts (n >= 4).

    ldd takes the swap walk: each half of a block on k wirelines has stages
    k..3, and stage t passes its t-1 lower wirelines: k(k-1)/2 - 1 swaps a
    half.  The other methods take the parity walk: stage t >= 3 steps past
    its t-1 lower wirelines, and stage 2 passes nothing, so a half steps
    k(k-1)/2 - 1 times; each step is a CX and a SWAP, but for the step that
    holds the next stage's CX (one per stage but the last: k - s), which is
    three CX.  The SWAPs between the halves come on top.
    """
    if method == "ldd":
        return sum(k * (k - 1) - 2 for k in (n, n - 1))
    return sum(
        2 * (k * (k - 1) // 2 - 1 - (k - last)) + seam for k, last, seam in _walked_blocks(method, n)
    )


def model_cx(method: str, n: int, arch: str = "fc") -> int:
    if arch == "fc":
        return _lowered_count(method, n, "CX")
    if method == "ldd":
        # Every controlled gate passes its control, and lowers with that SWAP,
        # except the two of stage 2 (one per block); the other swaps are bare.
        # A build holds no SWAP, so its two-qubit gates are the controlled ones.
        counts = expected_counts(method, n)
        fused = sum(c for kind, c in counts.items() if kind in TWO_QUBIT) - 2
        bare = model_swaps(method, n) - fused
        fused_cx = sum(step[0] == "CX" for step in _then_swap(LOWERING["CP"]((1.0,))))
        return (
            _lowered_count(method, n, "CX")
            + fused * (fused_cx - _cost("CP", "CX"))
            + bare * _cost("SWAP", "CX")
        )
    # The parity walk: per half, k - 2 CX into difference form and one CX
    # per stage but the first; every step lowers to 2 CX; stage 2 keeps its
    # one CP from wireline 1 (in one half of a block); the seam SWAPs.
    step = sum(s[0] == "CX" for s in _then_swap(LOWERING["CX"](())))
    blocks = _walked_blocks(method, n)
    m = 0
    for k, last, seam in blocks:
        steps = k * (k - 1) // 2 - 1
        m += 2 * (steps * step + (k - 2 + k - last) * _cost("CX", "CX"))
        m += seam * _cost("SWAP", "CX") + (last == 2) * _cost("CP", "CX")
    # Where the blocks meet, the first block's mirror ends on its chain out
    # of difference form, CX(c + 1 -> c) for c = 1..k - 2 top-down, and the
    # next block's first half starts on its chain into it, bottom-up.  Back
    # to back, the chains cancel pairwise once lowering moves the one Rz
    # between them (see ``_Parities``): the narrower block's k - 2 pairs.
    # mcx-qft's X on wireline 1 between the blocks cancels first (see
    # ``_parity_walk``).
    return m - 2 * (min(k for k, _, _ in blocks) - 2) * _cost("CX", "CX")


def model_sx(method: str, n: int) -> int:
    """SX in the fully-connected mcu-mod or mcu-zyz circuit (n >= 4).

    Runs merge only on wireline n: an H elsewhere meets no other H, U2 or
    CU2 before a CX, so it keeps its one SX.  On wireline n, mcu-mod's 2n-3
    roots follow each other with nothing else between them, so the ladder
    keeps only its first W-dagger and its last W, two SX each: 4n - 8 in
    all.  mcu-zyz's U2 gates C, B and A meet the four H of wireline n as
    C H, H B H and H A.  C = Rz((b-a)/2) is diagonal, so C H is Rz SX Rz
    (one SX); the other two runs are generic (two SX each): 4n - 7 in all.
    """
    h = expected_counts(method, n)["H"] * _cost("H", "SX")
    if method == "mcu-mod":
        return h + 2 * 2
    if method == "mcu-zyz":
        return h - 4 * _cost("H", "SX") + 1 + 2 + 2
    raise ValueError(f"no SX model for {method!r}")
