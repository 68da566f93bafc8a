"""Builders for multi-controlled single-qubit gates via QFT increments.

The construction realizes a controlled bit-flip on the top wireline by
incrementing the full register (a carry ripples into wireline n exactly when
all lower bits are 1) and then decrementing the n-1 control bits to restore
them.  A general unitary replaces the carry flip by conditioned roots of the
target gate woven into the increment's phase stages.

Wireline 1 is the least significant register bit; the target of the MCU is
wireline n.  Gates carry two kinds of annotation used by the optimizer:

* ``block`` -- ``"+1"`` for the increment half, ``"-1"`` for the decrement;
* ``role``  -- ``"qft"``, ``"column"``, ``"iqft"`` or ``"ladder"`` marking a
  gate's place inside its block.

Each method's builder is private and returns its plain construction,
mcu-zyz's determinant-phase ladder included, as a :class:`~qftmcu.circuit.Circuit`.
:func:`build`, the only entry point, then runs the method's rewrites from
:mod:`qftmcu.optimizer` (when ``optimize=True``) and the AQFT cutoff, in that
order and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    BLOCK_MINUS,
    BLOCK_PLUS,
    Circuit,
    cp,
    cu2,
    crx,
    h,
    inverse,
    p,
    u2,
)
from .gate_algebra import abc_split, root_params, u2_mat, zyz_decompose
from .linalg import is_unitary
from .optimizer import cancel_x_pair, collapse_cx, merge_phase_columns

METHODS = ("mcx-qft", "mcu-mod", "mcu-zyz", "ldd")


@dataclass
class SynthConfig:
    """Everything needed to synthesize one MCU circuit.

    ``u`` is the 2x2 target unitary (ignored by ``mcx-qft``, which always
    builds a multi-controlled X).  ``aqft_cutoff`` truncates controlled
    rotations past the given root index after synthesis.  Each method has one
    place for the determinant phase of ``u``: mcu-mod (and ldd, its rewrite)
    folds it into the conditioned roots, mcu-zyz brackets the +1 block with a
    phase ladder.
    """

    method: str
    n: int
    u: np.ndarray | None = None
    aqft_cutoff: int | None = None
    optimize: bool = True

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        min_n = 3 if self.method == "ldd" else 2
        if not isinstance(self.n, int) or self.n < min_n:
            raise ValueError(f"method {self.method!r} needs an integer width n >= {min_n}")
        if self.method == "mcx-qft":
            self.u = None
        else:
            if self.u is None:
                raise ValueError(f"method {self.method!r} requires a target unitary u")
            u = np.asarray(self.u, dtype=complex)
            if u.shape != (2, 2) or not is_unitary(u):
                raise ValueError("u must be a 2x2 unitary matrix")
            self.u = u
        if self.aqft_cutoff is not None and not (1 <= self.aqft_cutoff <= self.n):
            raise ValueError(f"aqft_cutoff must lie in [1, {self.n}]")


# -- QFT and register increments ----------------------------------------------

def build_qft(k: int, *, block: str | None = None) -> Circuit:
    """Text-book QFT on wirelines 1..k (without the final bit reversal).

    Stages run from wireline k down to 1: a Hadamard on the stage wireline
    followed by controlled phases from each lower wireline.  The controlled
    phase from wireline i onto j has angle pi / 2**(j-i), i.e. root index
    j - i + 1.
    """
    if k < 1:
        raise ValueError("QFT width must be at least 1")
    gates = []
    for j in range(k, 0, -1):
        gates.append(h(j, block=block, role="qft"))
        for i in range(j - 1, 0, -1):
            gates.append(
                cp(math.pi / 2 ** (j - i), i, j, block=block, role="qft", root_m=j - i + 1)
            )
    return Circuit(k, gates)


def _phase_column(k: int, block: str | None) -> list:
    """The diagonal +1 column in the Fourier basis: P(pi/2**(j-1)) on wireline j."""
    return [
        p(math.pi / 2 ** (j - 1), j, block=block, role="column", root_m=j)
        for j in range(k, 0, -1)
    ]


def build_increment(k: int, *, block: str = BLOCK_PLUS) -> Circuit:
    """|a> -> |a+1 mod 2**k> as QFT, phase column, inverse QFT."""
    head = build_qft(k, block=block)
    gates = list(head.gates) + _phase_column(k, block) + list(inverse(head).gates)
    return Circuit(k, gates)


def build_decrement(k: int, *, block: str = BLOCK_MINUS) -> Circuit:
    """|a> -> |a-1 mod 2**k>; exact inverse of the increment, same block label.

    The inverse of QFT, column, inverse QFT is QFT, inverted column, inverse
    QFT: built that way, so the leading QFT is not inverted twice."""
    head = build_qft(k, block=block)
    column = inverse(Circuit(k, _phase_column(k, block)))
    return Circuit(k, list(head.gates) + list(column.gates) + list(inverse(head).gates))


# -- explicit determinant-phase ladder ------------------------------------------

def insert_phase_ladder(circ: Circuit, delta: float) -> Circuit:
    """Bracket the +1 block with the phase ladder realizing a conditioned e^(i delta).

    Both register blocks flip wireline k exactly when wirelines k-1..1 are all
    1.  Bracketing the +1 block with P(+-delta/2**(n-k)) on each control
    wireline turns those flips into a telescoping sequence of conditioned
    phases whose survivor is e^(i delta) precisely on the all-ones control
    state; each level's unconditioned remainder is eaten by the level below,
    and the last one by a single unpaired P on wireline 1 (whose bracket
    partner would collapse anyway, the two blocks flipping that wireline
    unconditionally).  A zero delta adds nothing.  Returns a plain Circuit;
    the ladder is a fixed decoration, not a searched rewrite.
    """
    if delta == 0.0:
        return circ
    n = circ.n
    span = [i for i, g in enumerate(circ.gates) if g.block == BLOCK_PLUS]
    if not span:
        raise ValueError(f"circuit has no {BLOCK_PLUS} block to bracket")
    tag = {"block": BLOCK_PLUS, "role": "ladder"}
    lead = [p(delta / 2 ** (n - 2), 1, **tag)]
    lead += [p(delta / 2 ** (n - k), k, **tag) for k in range(n - 1, 1, -1)]
    trail = [p(-delta / 2 ** (n - k), k, **tag) for k in range(n - 1, 1, -1)]
    gates = circ.gates
    first, last = span[0], span[-1] + 1
    return Circuit(n, gates[:first] + lead + gates[first:last] + trail + gates[last:])


# -- the four constructions ----------------------------------------------------

def _build_mcx_qft(cfg: SynthConfig) -> Circuit:
    """Multi-controlled X: increment the full register, decrement the controls.

    Its only rewrite is the merge, which folds the phase columns into the
    stage rotations (and the wireline-1 phase into a bare X); the block
    structure itself is left alone, so the optimized circuit stays visibly
    two QFT sandwiches.
    """
    n = cfg.n
    gates = list(build_increment(n).gates) + list(build_decrement(n - 1).gates)
    return Circuit(n, gates)


def _build_mcu_mod(cfg: SynthConfig) -> Circuit:
    """MCU via a modified increment that carries conditioned roots of u.

    The stage of the QFT acting on the target wireline is replaced by a
    ladder of controlled roots CU(i -> n) carrying u^(1/2**(n-i)); the phase
    column applies u itself on the target.  Undoing the ladder after the
    inverse QFT leaves exactly u applied when all controls are 1.  The
    decrement half is a plain register decrement on the controls.

    The determinant phase of u rides inside the conditioned roots: the root
    of index m is the principal 2**(m-1)-th root of u, phase and all, so the
    result is exact with no phase ladder.  The roots are taken in closed
    form, so all of them are diagonal in u's eigenframe.
    """
    n = cfg.n
    q = zyz_decompose(cfg.u)
    if n == 2:
        return Circuit(2, [cu2(q, 1, 2, block=BLOCK_PLUS, role="qft", root_m=1)])

    params = {m: root_params(q, m) for m in range(2, n + 1)}

    head = [
        cu2(params[n - i + 1], i, n, block=BLOCK_PLUS, role="qft", root_m=n - i + 1)
        for i in range(n - 1, 0, -1)
    ]
    head += list(build_qft(n - 1, block=BLOCK_PLUS).gates)
    column = [u2(params[n], n, block=BLOCK_PLUS, role="column", root_m=n)]
    column += _phase_column(n - 1, BLOCK_PLUS)
    tail = list(inverse(Circuit(n, head)).gates)

    minus = list(build_decrement(n - 1).gates)
    return Circuit(n, head + column + tail + minus)


def _build_mcu_zyz(cfg: SynthConfig) -> Circuit:
    """MCU from the ZYZ conjecture form  u = e^(i d) A X B X C  with ABC = I.

    Both register blocks span the full width n, so the target wireline is
    flipped (conditioned on the controls) by the increment itself and flipped
    back by the decrement; A, B, C are uncontrolled single-qubit gates slotted
    between the blocks.  The determinant phase d goes into the phase ladder
    that brackets the +1 block (none when d is zero).
    """
    n = cfg.n
    d, a, t, b = zyz_decompose(cfg.u)
    a_par, b_par, c_par = abc_split(a, t, b)

    gates = []
    if not _is_identity_u2(c_par):
        gates.append(u2(c_par, n))
    gates += list(build_increment(n).gates)
    if not _is_identity_u2(b_par):
        gates.append(u2(b_par, n))
    gates += list(build_decrement(n).gates)
    if not _is_identity_u2(a_par):
        gates.append(u2(a_par, n))
    return insert_phase_ladder(Circuit(n, gates), d)


def _build_ldd(cfg: SynthConfig) -> Circuit:
    """Linear-depth-decomposition form: the modified-increment MCU rewritten
    into controlled-Rx gates with every Hadamard eliminated.

    Each controlled phase becomes a controlled Rx of the same angle (the
    basis-change Hadamards on its target wireline pair up and annihilate, and
    the local phase corrections of the CP -> CRz step cancel between the two
    register blocks).  The two CX gates become CRx(+-pi); their leftover
    +-i phases are conditioned on the same wireline-1 value and cancel.

    Always rewrites the optimized modified-increment circuit, so the
    ``optimize`` flag has no effect here; :func:`build` applies the AQFT
    cutoff to the result.
    """
    merged = build(SynthConfig("mcu-mod", cfg.n, cfg.u))
    out = []
    for g in merged.gates:
        if g.kind == "H":
            continue
        if g.kind == "CP":
            out.append(
                crx(g.params[0], g.control, g.target, block=g.block, role=g.role, root_m=g.root_m)
            )
        elif g.kind == "CX":
            ang = math.pi if g.block == BLOCK_PLUS else -math.pi
            out.append(crx(ang, g.control, g.target, block=g.block, role=g.role, root_m=1))
        else:
            out.append(g)
    return Circuit(cfg.n, out)


_BUILDERS = {
    "mcx-qft": _build_mcx_qft,
    "mcu-mod": _build_mcu_mod,
    "mcu-zyz": _build_mcu_zyz,
    "ldd": _build_ldd,
}


#: the rewrites ``optimize=True`` runs on each method's construction, in order
_REWRITES = {
    "mcx-qft": (merge_phase_columns,),
    "mcu-mod": (merge_phase_columns, collapse_cx, cancel_x_pair),
    "mcu-zyz": (merge_phase_columns, collapse_cx, cancel_x_pair),
    "ldd": (),
}


def build(cfg: SynthConfig) -> Circuit:
    """The construction of ``cfg.method``, then (``optimize``) its rewrites,
    then (``aqft_cutoff``) the AQFT truncation."""
    circ = _BUILDERS[cfg.method](cfg)
    if cfg.optimize:
        for rewrite in _REWRITES[cfg.method]:
            circ = rewrite(circ)
    if cfg.aqft_cutoff is not None:
        circ = apply_aqft(circ, cfg.aqft_cutoff)
    return circ


def _is_identity_u2(par: tuple[float, float, float, float]) -> bool:
    return bool(np.allclose(u2_mat(*par), np.eye(2), atol=1e-12))


# -- approximate-QFT truncation ------------------------------------------------

def default_aqft_cutoff(n: int) -> int:
    """ceil(log2 n), a width-dependent default cutoff.

    It does not bound the truncation error: at n=8 (cutoff 3) the truncated
    circuit deviates from the exact MCU by 0.44-0.51 in its largest entry,
    depending on the method.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return max(1, (n - 1).bit_length())


#: the controlled rotations an AQFT cutoff truncates
CONTROLLED_ROTATIONS = frozenset({"CP", "CRx", "CU2"})


def apply_aqft(circ: Circuit, m_max: int) -> Circuit:
    """Drop controlled rotations whose root index exceeds ``m_max``.

    Applies to CP, CRx and CU2 gates, by their ``root_m`` annotation, which
    every builder and pass sets; a gate without one is kept.  On a routed
    circuit it also drops the P gates of a QFT half (role ``qft`` or
    ``iqft``) by the same annotation: the router writes each CP and root
    there as P gates on its phase terms, each with the gate's ``root_m``.
    Column and ladder P gates stay.  A routed circuit's ``final_layout``
    carries over.
    """
    if not 1 <= m_max <= circ.n:
        raise ValueError(f"m_max must lie in [1, {circ.n}]")
    return Circuit(circ.n, [
        g for g in circ.gates
        if not (
            (g.kind in CONTROLLED_ROTATIONS or (g.kind == "P" and g.role in ("qft", "iqft")))
            and g.root_m is not None
            and g.root_m > m_max
        )
    ], final_layout=circ.final_layout)


# -- closed-form size expectations ---------------------------------------------
#
# The per-kind counts of the optimized (merged) circuits, which the test suite
# pins the builders against; the native models of qftmcu.layout derive from them.

def expected_counts(method: str, n: int) -> dict[str, int]:
    """Per-kind gate counts of the optimized circuits.

    The zyz entries for P and U2 assume a generic target (nonzero determinant
    phase and all three ZYZ factors nontrivial).
    """
    if method == "mcx-qft":
        return {"H": 4 * n - 6, "CP": (n - 1) ** 2 + (n - 2) ** 2, "X": 2}
    if method == "mcu-mod":
        if n == 2:
            return {"CU2": 1}  # the one root, u itself
        return {"H": 4 * (n - 3), "CP": 2 * (n - 1) * (n - 3), "CU2": 2 * n - 3, "CX": 2}
    if method == "mcu-zyz":
        return {
            "H": 4 * (n - 2),
            "CP": 2 * n * (n - 2),
            "CX": 2,
            "P": 2 * n - 3,
            "U2": 3,
        }
    if method == "ldd":
        return {"CRx": 2 * (n - 1) * (n - 3) + 2, "CU2": 2 * n - 3, "H": 0}
    raise ValueError(f"unknown method {method!r}")

