"""Circuit intermediate representation.

Gates act on 1-based wirelines; wireline 1 is the least-significant qubit of
the register |a_n ... a_2 a_1>.  A circuit is a flat, time-ordered gate list.
Scheduling into abstract time slots is deterministic list-order ASAP: every
gate takes the earliest slot at or after the availability of each wireline it
touches, with availability updated in list order (gates are never reordered).

Named blocks ("+1", "-1") are separated by a barrier, mirroring how
the synthesis blocks are drawn: the first gate of a new named block starts
after the makespan of everything before it.  Unnamed gates (e.g. the ZYZ
A/B/C gates) never trigger barriers and simply pack into whichever group the
ASAP rule puts them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

TWO_QUBIT = frozenset({"CX", "CP", "CRx", "CU2", "SWAP"})

GATE_KINDS = frozenset({"H", "X", "SX", "Rz", "P", "U2", *TWO_QUBIT})

#: block labels of the increment and decrement halves (see qftmcu.synthesis)
BLOCK_PLUS = "+1"
BLOCK_MINUS = "-1"

#: kinds whose params list is (angle,) and whose inverse negates it
_ANGLE_KINDS = frozenset({"Rz", "P", "CP", "CRx"})


class _GateFields(NamedTuple):
    kind: str
    target: int
    control: int | None = None
    params: tuple[float, ...] = ()
    block: str | None = None
    role: str | None = None
    root_m: int | None = None


class Gate(_GateFields):
    """One gate, an immutable tuple record.  ``control`` is None for
    single-qubit kinds; SWAP stores its two operands as target+control.
    U2/CU2 carry ZYZ params (delta, alpha, theta, beta) meaning
    e^{i delta} Rz(alpha) Ry(theta) Rz(beta).

    block/role/root_m are scheduling and rewrite annotations; they are not
    part of the serialized format.

    Every way to make one, ``Gate(...)``, ``_make`` and ``_replace``, runs
    the checks of ``__new__``.  A gate compares and hashes as the tuple of
    its fields.  Code that keeps plain tuples beside gates in one list tells
    them apart by ``g.__class__ is tuple``, since a gate is a tuple too.
    Since a gate cannot change, one record may stand for many equal gates:
    ``lower_to_ngs`` emits a shared record for every equal CX, SX and X.
    Code that tells equal gates apart by identity copies them first
    (``g._replace()``).
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        target: int,
        control: int | None = None,
        params: tuple[float, ...] = (),
        block: str | None = None,
        role: str | None = None,
        root_m: int | None = None,
    ) -> Gate:
        if kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        if (kind in TWO_QUBIT) != (control is not None):
            raise ValueError(f"{kind} control operand mismatch")
        if control is not None and control == target:
            raise ValueError(f"{kind} control equals target")
        return tuple.__new__(cls, (kind, target, control, params, block, role, root_m))

    @classmethod
    def _make(cls, iterable) -> Gate:
        # ``_replace`` builds its result through ``_make``.
        return cls(*iterable)

    def wires(self) -> tuple[int, ...]:
        if self.control is None:
            return (self.target,)
        return (self.control, self.target)


@dataclass
class Circuit:
    """``final_layout`` is set on a routed circuit: ``final_layout[i-1]`` is
    the physical wireline holding logical wireline i at the end, so the
    circuit equals (layout permutation) o (the circuit it was routed from)."""

    n: int
    gates: list[Gate] = field(default_factory=list)
    final_layout: tuple[int, ...] | None = field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("circuit needs at least one wireline")
        n = self.n
        for g in self.gates:
            t, c = g.target, g.control
            if not 1 <= t <= n or (c is not None and not 1 <= c <= n):
                w = t if not 1 <= t <= n else c
                raise ValueError(f"gate {g.kind} touches wireline {w} outside 1..{n}")


def schedule_slots(circ: Circuit) -> int:
    """Assign abstract time slots; returns how many the circuit takes."""
    avail = [0] * (circ.n + 1)
    floor = makespan = 0
    block = None
    for g in circ.gates:
        if g.block is not None:
            if block is not None and g.block != block:
                floor = makespan
            block = g.block
        t, c = g.target, g.control
        slot = avail[t] if c is None or avail[t] > avail[c] else avail[c]
        slot = (slot if slot > floor else floor) + 1
        avail[t] = slot
        if c is not None:
            avail[c] = slot
        if slot > makespan:
            makespan = slot
    return makespan


def count_gates(circ: Circuit) -> dict[str, int]:
    """Per-kind gate counts (only kinds that occur)."""
    out: dict[str, int] = {}
    for g in circ.gates:
        out[g.kind] = out.get(g.kind, 0) + 1
    return out


def _invert_gate(g: Gate, role: str | None) -> Gate:
    """The inverse of g, with the role given."""
    if g.kind in _ANGLE_KINDS:
        params = tuple(-x for x in g.params)
    elif g.kind in ("U2", "CU2"):
        d, a, t, b = g.params
        params = (-d, -b, -t, -a)
    elif g.kind == "SX":
        raise ValueError("cannot invert SX: SX-dagger is not a gate kind")
    elif role == g.role:
        return g  # H, X, CX, SWAP are involutions
    else:
        params = g.params
    return Gate(g.kind, g.target, g.control, params, g.block, role, g.root_m)


def inverse(circ: Circuit) -> Circuit:
    """Reversed gate list with each gate inverted.  The qft/iqft role tags are
    swapped so block-structure-aware passes still recognize the halves.  A
    routed circuit is refused: its inverse would start in its final layout.
    So is one that holds an SX (a native circuit): SX-dagger is no gate kind."""
    if circ.final_layout is not None:
        raise ValueError("cannot invert a routed circuit (it has a final_layout)")
    flip = {"qft": "iqft", "iqft": "qft"}
    return Circuit(circ.n, [_invert_gate(g, flip.get(g.role, g.role)) for g in reversed(circ.gates)])


def to_json(circ: Circuit) -> str:
    payload = {
        "n": circ.n,
        "gates": [
            {
                "kind": g.kind,
                "params": list(g.params),
                "target": g.target,
                "control": g.control,
            }
            for g in circ.gates
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def from_json(text: str) -> Circuit:
    payload = json.loads(text)
    gates = [
        Gate(
            kind=spec["kind"],
            target=spec["target"],
            control=spec.get("control"),
            params=tuple(float(x) for x in spec.get("params", ())),
        )
        for spec in payload["gates"]
    ]
    return Circuit(int(payload["n"]), gates)


def normalize_angle(x: float) -> float:
    """Fold an angle into (-pi, pi]."""
    y = math.fmod(x, 2 * math.pi)
    if y > math.pi:
        y -= 2 * math.pi
    elif y <= -math.pi:
        y += 2 * math.pi
    return y


# -- gate factories ----------------------------------------------------------

def h(t: int, **kw) -> Gate:
    return Gate("H", t, **kw)


def x(t: int, **kw) -> Gate:
    return Gate("X", t, **kw)


def rz(angle: float, t: int, **kw) -> Gate:
    return Gate("Rz", t, params=(angle,), **kw)


def p(angle: float, t: int, **kw) -> Gate:
    return Gate("P", t, params=(angle,), **kw)


def u2(params: tuple[float, float, float, float], t: int, **kw) -> Gate:
    return Gate("U2", t, params=tuple(params), **kw)


def cx(c: int, t: int, **kw) -> Gate:
    return Gate("CX", t, control=c, **kw)


def cp(angle: float, c: int, t: int, **kw) -> Gate:
    return Gate("CP", t, control=c, params=(angle,), **kw)


def crx(angle: float, c: int, t: int, **kw) -> Gate:
    return Gate("CRx", t, control=c, params=(angle,), **kw)


def cu2(params: tuple[float, float, float, float], c: int, t: int, **kw) -> Gate:
    return Gate("CU2", t, control=c, params=tuple(params), **kw)


def swap(a: int, b: int, **kw) -> Gate:
    return Gate("SWAP", b, control=a, **kw)
