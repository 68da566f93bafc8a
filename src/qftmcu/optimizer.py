"""Rewrite passes over block-annotated circuits.

Each pass maps a Circuit to a new Circuit and never mutates its input.  The
structural passes key on the ``block`` / ``role`` annotations the builders
attach; a pass that cannot rewrite a circuit soundly raises ``ValueError``
with the reason rather than guess.  All rewrites here are exactly
unitary-preserving, global phase included.  A caller that wants counts reads
them off the input and output.  The module holds passes only: the
determinant-phase ladder is construction, and lives in :mod:`qftmcu.synthesis`.
"""

from __future__ import annotations

import math
from collections import defaultdict

from .circuit import (
    BLOCK_MINUS,
    BLOCK_PLUS,
    Circuit,
    cx,
    h,
    normalize_angle,
    x,
)
from .gate_algebra import u2_mat, zyz_decompose


def _block_lookup(gates: list, label: str) -> defaultdict:
    """(kind, control, target) -> indices, in circuit order, of the gates in
    block ``label``."""
    look: defaultdict = defaultdict(list)
    for i, g in enumerate(gates):
        if g.block == label:
            look[g.kind, g.control, g.target].append(i)
    return look


def _with_role(gates: list, idx: list[int], role: str) -> list[int]:
    return [i for i in idx if gates[i].role == role]


def _is_pi(angle: float) -> bool:
    return abs(abs(normalize_angle(angle)) - math.pi) < 1e-12


# -- phase-column merging -------------------------------------------------------

# column kind -> (controlled partner it merges into, combined partner params)
_COLUMN_MERGE = {
    "P": ("CP", lambda kept, col: (kept[0] + col[0],)),
    "U2": ("CU2", lambda kept, col: zyz_decompose(u2_mat(*kept) @ u2_mat(*col))),
}

# block -> (role of the side that absorbs the column, role of the side dropped)
_ABSORB_SIDE = {BLOCK_PLUS: ("qft", "iqft"), BLOCK_MINUS: ("iqft", "qft")}


def merge_phase_columns(circ: Circuit) -> Circuit:
    """Absorb each block's diagonal column into its QFT stage rotations.

    In a ``+1`` block the column phase on wireline j joins the stage-side
    controlled phase from wireline 1 (doubling its angle); the mirror-image
    controlled phase on the inverse side cancels against it and is deleted.
    A ``-1`` block is the exact inverse, so there the inverse-side rotation
    absorbs the column.  The wireline-1 column phase of +-pi is wrapped by
    its two Hadamards into a bare X.  A conditioned-root column (a U2 on the
    target wireline) merges into the controlled root from wireline 1 the same
    way, squaring it.

    Circuits without block annotations raise ``ValueError`` -- the rules
    above are only meaningful relative to the builder's block structure.
    """
    gates = list(circ.gates)
    if all(g.block is None for g in gates):
        raise ValueError("no block annotations present; nothing to merge against")

    drop: set[int] = set()
    repl: dict[int, object] = {}
    for label, (absorb, discard) in _ABSORB_SIDE.items():
        look = _block_lookup(gates, label)
        columns = [i for i, g in enumerate(gates) if g.block == label and g.role == "column"]
        for ci in columns:
            g = gates[ci]
            if g.kind == "P" and g.target == 1:
                if not _is_pi(g.params[0]):
                    continue
                hq = _with_role(gates, look["H", None, 1], "qft")
                hi = _with_role(gates, look["H", None, 1], "iqft")
                if len(hq) == 1 and len(hi) == 1:
                    repl[ci] = x(1, block=label, role="column")
                    drop |= {hq[0], hi[0]}
            elif g.kind in _COLUMN_MERGE:
                partner, combine = _COLUMN_MERGE[g.kind]
                keep = _with_role(gates, look[partner, 1, g.target], absorb)
                toss = _with_role(gates, look[partner, 1, g.target], discard)
                if len(keep) == 1 and len(toss) == 1:
                    kg = gates[keep[0]]
                    new_m = kg.root_m - 1 if kg.root_m is not None else None
                    repl[keep[0]] = kg._replace(
                        params=combine(kg.params, g.params), root_m=new_m
                    )
                    drop |= {ci, toss[0]}

    return Circuit(circ.n, [repl.get(i, g) for i, g in enumerate(gates) if i not in drop])


# -- finishing rewrites after the merge ------------------------------------------

def collapse_cx(circ: Circuit) -> Circuit:
    """Fold each block's H(2) . CP(1->2, +-pi) . H(2) sandwich into a CX.

    Only fires when the three gates are present exactly once in the block and
    nothing else touches wireline 2 between them, which is the shape the
    merge pass leaves behind.  Gates on other wirelines (the block's X(1))
    commute through the Hadamards and are left in place.
    """
    gates = list(circ.gates)
    for blk in (BLOCK_PLUS, BLOCK_MINUS):
        look = _block_lookup(gates, blk)
        h_qft = _with_role(gates, look["H", None, 2], "qft")
        h_iqft = _with_role(gates, look["H", None, 2], "iqft")
        cz = [i for i in look["CP", 1, 2] if _is_pi(gates[i].params[0])]
        if len(h_qft) != 1 or len(h_iqft) != 1 or len(cz) != 1:
            continue
        lo, mid, hi = h_qft[0], cz[0], h_iqft[0]
        if not lo < mid < hi:
            continue
        touched = [g for g in gates[lo + 1 : mid] + gates[mid + 1 : hi] if 2 in g.wires()]
        if touched:
            continue
        gates[mid] = cx(1, 2, block=blk, role=gates[mid].role)
        del gates[hi]
        del gates[lo]
    return Circuit(circ.n, gates)


def cancel_x_pair(circ: Circuit) -> Circuit:
    """Drop the two uncontrolled X(1) gates if nothing between them uses wireline 1.

    The +1 block ends wireline 1 with a bit flip and the -1 block starts with
    the opposite one; after merging, no gate in between acts on that wireline,
    so the pair is an identity.
    """
    gates = list(circ.gates)
    ix = [i for i, g in enumerate(gates) if g.kind == "X" and g.target == 1]
    if len(ix) == 2:
        lo, hi = ix
        if not any(1 in g.wires() for g in gates[lo + 1 : hi]):
            del gates[hi]
            del gates[lo]
    return Circuit(circ.n, gates)


# -- LDD back to the QFT picture ------------------------------------------------

def ldd_to_qft(circ: Circuit) -> Circuit:
    """Invert the linear-depth rewrite: CRx back to CP/CX, Hadamards restored.

    Each controlled Rx of angle +-pi from wireline 1 to 2 is the collapsed
    CX; every other CRx becomes a controlled phase of the same angle.  The
    basis-change Hadamard pair is reinserted per block around the gates
    targeting each stage wireline.  Raises ``ValueError`` on anything that
    does not look like a linear-depth circuit: Hadamards present, no CRx
    gates, no block annotations, or truncated stages.

    Each CRx -> CP step drops a phase on the control wireline, and those
    phases cancel only over complete stages, where a stage wireline takes a
    CRx from every wireline below it in each block.  An AQFT-truncated
    circuit lacks some, and converting it is not exact in general.
    """
    stage_controls: defaultdict = defaultdict(set)
    for g in circ.gates:
        if g.kind == "CRx":
            stage_controls[g.block, g.target].add(g.control)
    has_h = any(g.kind == "H" for g in circ.gates)
    has_crx = bool(stage_controls)
    annotated = any(g.block is not None for g in circ.gates)
    truncated = any(cs != set(range(1, t)) for (_, t), cs in stage_controls.items())
    if has_h or not has_crx or not annotated or truncated:
        why = (
            "contains Hadamards" if has_h
            else "no CRx gates" if not has_crx
            else "no block annotations" if not annotated
            else "truncated stages"
        )
        raise ValueError(f"not a linear-depth circuit: {why}")

    converted = []
    for g in circ.gates:
        if g.kind == "CRx":
            if g.control == 1 and g.target == 2 and _is_pi(g.params[0]):
                converted.append(cx(1, 2, block=g.block, role=g.role))
            else:
                converted.append(
                    # CRz would be the literal basis change; the original QFT
                    # stages carry controlled phases, so go straight there.
                    g._replace(kind="CP")
                )
        else:
            converted.append(g)

    # Reinsert the Hadamard pair per (block, stage wireline): one before the
    # first controlled phase targeting that wireline inside the block, one
    # after the last.
    spans: dict[tuple[str, int], tuple[int, int]] = {}
    for i, g in enumerate(converted):
        if g.kind == "CP" and g.block is not None:
            key = (g.block, g.target)
            lo, hi = spans.get(key, (i, i))
            spans[key] = (min(lo, i), max(hi, i))
    before: dict[int, list] = defaultdict(list)
    after: dict[int, list] = defaultdict(list)
    for (blk, j), (lo, hi) in spans.items():
        before[lo].append(h(j, block=blk, role="qft"))
        after[hi].append(h(j, block=blk, role="iqft"))
    rebuilt = []
    for i, g in enumerate(converted):
        rebuilt.extend(before.get(i, ()))
        rebuilt.append(g)
        rebuilt.extend(after.get(i, ()))
    return Circuit(circ.n, rebuilt)


# -- adjacent CX cancellation ----------------------------------------------------

def cancel_cx_pairs(circ: Circuit) -> Circuit:
    """Delete CX pairs on identical wires with nothing in between on either wire.

    Deliberately conservative: the next gate touching either wire must be the
    matching CX itself, so commuting a blocker out of the way is never
    attempted.  Runs to a fixpoint (a cancellation can make a new pair
    adjacent).  Useful after nearest-neighbour routing, where ping-pong
    SWAP chains leave many such pairs; the routed circuit's
    ``final_layout`` carries over.

    The fixpoint is that of a scan repeated until nothing changes: walk the
    gates in order and cancel each live CX with the next gate on its wires
    when that is the same CX.  Live gates sit in per-wire doubly linked
    lists, so finding the next gate and deleting a pair cost O(1).  A scan
    deletes only the gate it stands on and the one after it, so the only
    gates whose next gate changes are behind the scan; a gate that found no
    partner keeps finding none until its next gate changes.  So each scan
    after the first visits, in order, only the gates whose next gate the
    last scan changed: O(m) in all, plus sorting those gates.
    """
    gates = circ.gates
    is_cx = [g.kind == "CX" for g in gates]
    # The live gates on each wire, doubly linked: node 2i is gate i on its
    # target wire, node 2i + 1 gate i on its control wire; -1 ends a list.
    after = [-1] * (2 * len(gates))
    before = after[:]
    on: list[list[int]] = [[] for _ in range(circ.n + 1)]  # each wire's nodes
    for i, g in enumerate(gates):
        on[g.target].append(2 * i)
        if g.control is not None:
            on[g.control].append(2 * i + 1)
    for nodes in on:
        for a, b in zip(nodes, nodes[1:]):
            after[a] = b
            before[b] = a

    dead = bytearray(len(gates))
    scan = range(len(gates))
    while scan:
        moved: set[int] = set()
        for i in scan:
            # Cancel CX i with the next gate on its wires if that is the
            # same CX: the next node on its target wire is a target node,
            # and the next on its control wire is that gate's control node.
            if dead[i] or not is_cx[i]:
                continue
            node = after[2 * i]
            if node < 0 or node & 1 or after[2 * i + 1] != node + 1 or not is_cx[node >> 1]:
                continue
            dead[i] = dead[node >> 1] = 1
            for v in (2 * i, 2 * i + 1, node, node + 1):
                prev, nxt = before[v], after[v]
                if prev >= 0:
                    after[prev] = nxt
                    moved.add(prev >> 1)
                if nxt >= 0:
                    before[nxt] = prev
        scan = sorted(moved)
    kept = [g for g, gone in zip(gates, dead) if not gone]
    return Circuit(circ.n, kept, final_layout=circ.final_layout)


PASSES = {"merge": merge_phase_columns, "ldd-to-qft": ldd_to_qft}
