"""Property tests for ``route_lnn`` on random circuits and annotated builds.

Unannotated circuits take the greedy branch, annotated builds the parity
walk (the swap walk for ldd and for halves it does not take), and random
QFT-like blocks the parity walk, but for those whose X between the halves
sits on a wireline both halves touch, which take the swap walk.  Either
way every two-qubit gate of the routed circuit acts on neighbouring
wirelines, and the routed unitary is exactly the layout permutation after
the original one.  The examples are derandomized, so every run checks the
same draws.  ``unannotated_circuits``, ``annotated_builds`` and
``SETTINGS`` are shared with the pass, lowering and JSON properties in
``test_pass_properties.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qftmcu.circuit import Circuit, Gate, cp, cu2, cx, h, swap, x
from qftmcu.gate_algebra import I2, Z, p_mat, root, u2_mat, zyz_decompose
from qftmcu.layout import layout_permutation, lower_to_ngs, route_lnn
from qftmcu.synthesis import METHODS, SynthConfig, build
from qftmcu.verifier import circuit_unitary

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# 0, +-pi and +-2 pi exercise the lowering's full-turn wraps and zero drops.
ANGLES = st.one_of(
    st.sampled_from([0.0, np.pi, -np.pi, np.pi / 2, 2 * np.pi, -2 * np.pi]),
    st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False),
)
ONE_QUBIT = ("H", "X", "SX", "Rz", "P", "U2")
TWO_QUBIT = ("CX", "CP", "CRx", "CU2", "SWAP")
ARITY = {"U2": 4, "CU2": 4, "Rz": 1, "P": 1, "CP": 1, "CRx": 1}


@st.composite
def gates(draw, n):
    kind = draw(st.sampled_from(ONE_QUBIT + TWO_QUBIT if n > 1 else ONE_QUBIT))
    wires = draw(st.permutations(range(1, n + 1)))
    arity = ARITY.get(kind, 0)
    params = tuple(draw(ANGLES) for _ in range(arity))
    control = wires[1] if kind in TWO_QUBIT else None
    return Gate(kind, wires[0], control=control, params=params)


@st.composite
def runs(draw, n):
    """A gate, and for a two-qubit one maybe a SWAP of its pair before or
    after it, as lowering fuses them."""
    g = draw(gates(n))
    if g.control is None:
        return [g]
    s = swap(g.control, g.target)
    return draw(st.sampled_from([[g], [g, s], [s, g]]))


@st.composite
def unannotated_circuits(draw):
    n = draw(st.integers(1, 5))
    return Circuit(n, [g for run in draw(st.lists(runs(n), max_size=30)) for g in run])


def _payload(draw) -> np.ndarray:
    """A generic U(2), or one of the degenerate payloads: I, -I, Z, P(pi),
    theta = pi, delta = pi."""
    d, a, t, b = (draw(ANGLES) for _ in range(4))
    return draw(
        st.sampled_from(
            [u2_mat(d, a, t, b), I2, -I2, Z, p_mat(np.pi), u2_mat(d, a, np.pi, b), u2_mat(np.pi, a, t, b)]
        )
    )


@st.composite
def annotated_builds(draw):
    method = draw(st.sampled_from(METHODS))
    n = draw(st.integers(3 if method == "ldd" else 2, 7))
    cutoff = draw(st.one_of(st.none(), st.integers(1, n)))
    cfg = SynthConfig(
        method,
        n,
        None if method == "mcx-qft" else _payload(draw),
        aqft_cutoff=cutoff,
        optimize=draw(st.booleans()),
    )
    return build(cfg)


def _check_routed(circ: Circuit):
    routed = route_lnn(circ)
    for g in routed.gates:
        assert g.control is None or abs(g.control - g.target) == 1, g
    want = layout_permutation(routed.final_layout) @ circuit_unitary(circ)
    assert np.abs(circuit_unitary(routed) - want).max() < 1e-10
    return routed


@SETTINGS
@given(unannotated_circuits())
def test_greedy_branch_is_adjacent_and_exact(circ):
    routed = _check_routed(circ)
    # A controlled gate beside a SWAP of its pair lowers exactly too.
    nc = lower_to_ngs(routed)
    got = circuit_unitary(nc) * np.exp(1j * nc.global_phase)
    assert np.abs(got - circuit_unitary(routed)).max() < 1e-10


@SETTINGS
@given(annotated_builds())
def test_stage_walk_is_adjacent_exact_and_ends_at_identity(circ):
    assert any(g.role in ("qft", "iqft") for g in circ.gates)
    assert _check_routed(circ).final_layout == tuple(range(1, circ.n + 1))


@st.composite
def qft_blocks(draw):
    """One block on 3-7 wirelines shaped like the builders': a qft half with
    stages k..s, each an H and CP gates from the wirelines below its target
    (the top one maybe a ladder of roots of one payload instead), a seam
    (nothing, a CX(1, 2) or an X on wireline 1) and an iqft half with the
    same stages in reverse.  Each half drops CPs and roots at random and
    draws its own angles."""
    k = draw(st.integers(3, 7))
    seam = draw(st.sampled_from(("none", "cx", "x")))
    last = 3 if seam == "cx" else draw(st.sampled_from((2, 3)))
    payload = _payload(draw) if draw(st.booleans()) else None
    tag = {"block": "+1"}

    def half(role):
        stages = []
        for t in range(k, last - 1, -1):
            controls = [c for c in range(t - 1, 0, -1) if draw(st.booleans())]
            if t == k and payload is not None:
                controls = controls or [t - 1]  # a ladder with no root is no stage
                roots = [root(payload, draw(st.integers(1, 6))) for _ in controls]
                if role == "iqft":
                    roots = [r.conj().T for r in roots]
                stage = [cu2(zyz_decompose(r), c, t, role=role, **tag) for c, r in zip(controls, roots)]
            else:
                stage = [h(t, role=role, **tag)]
                stage += [cp(draw(ANGLES), c, t, role=role, root_m=t - c + 1, **tag) for c in controls]
            stages.append(stage)
        if role == "qft":
            return [g for stage in stages for g in stage]
        return [g for stage in reversed(stages) for g in reversed(stage)]

    middle = {"none": [], "cx": [cx(1, 2, role="qft", **tag)], "x": [x(1, role="column", **tag)]}
    return Circuit(k, half("qft") + middle[seam] + half("iqft"))


@SETTINGS
@given(qft_blocks())
def test_parity_walk_is_adjacent_exact_and_ends_at_identity(circ):
    routed = route_lnn(circ)
    # The parity walk took the block: only stage 2's CPs are left as they
    # are.  A block whose seam X is on wireline 1 while both halves touch
    # it has no parity walk; the swap walk keeps every CP and root.
    touched = [{g.control for g in circ.gates if g.role == r} for r in ("qft", "iqft")]
    walked = not any(g.kind == "X" for g in circ.gates) or not all(1 in t for t in touched)
    kept = sum(g.kind in ("CP", "CU2") and (g.target == 2 or not walked) for g in circ.gates)
    assert sum(g.kind in ("CP", "CU2") for g in routed.gates) == kept
    nc = lower_to_ngs(routed)
    assert all(g.control is None or abs(g.control - g.target) == 1 for g in nc.gates)
    assert nc.final_layout == tuple(range(1, circ.n + 1))
    got = circuit_unitary(nc) * np.exp(1j * nc.global_phase)
    assert np.abs(got - circuit_unitary(circ)).max() < 1e-12
