"""Brute-force verification oracles.

The multi-controlled-U oracle is the 2^n x 2^n identity except for the 2x2
block coupling the two basis states whose control bits (wirelines 1..n-1)
are all ones: indices 2^(n-1)-1 (target 0) and 2^n-1 (target 1).

Both simulators view an array as one axis per qubit (plus trailing batch
axes) and update it in place, gate by gate: each gate touches only the two
target slices of its control=1 half, scaling them for a diagonal payload,
exchanging them for X, mixing them for any other 2x2; a SWAP only relabels
two axes.  circuit_unitary runs
the identity's 2^n columns through at once (capped at 12 qubits);
apply_statevector runs one statevector, or a stack of them, up to 22 qubits.

Verification is two-tier with one comparison: the unitary tier pushes the
identity's columns through, the statevector tier (wide circuits) stacks of
seeded probe states, and each output stack is compared with the oracle's
action, the phase read once, from the first column's overlap with the
oracle's.  A circuit is checked as it ships: a routed circuit's final
layout undone as an axis permutation, a NativeCircuit's global phase folded
in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .gate_algebra import gate_unitary_1q
from .layout import NativeCircuit

UNITARY_WIDTH_CAP = 12
STATEVECTOR_WIDTH_CAP = 22
# The statevector tier stacks its probes, at most this many amplitudes per
# pass: one pass up to n=18, and never more memory than one statevector at
# the width cap.
_PROBE_STACK_AMPLITUDES = 1 << STATEVECTOR_WIDTH_CAP


def mcu_oracle(u: np.ndarray, n: int) -> np.ndarray:
    """(n-1)-controlled u on target wireline n, as a dense matrix."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > UNITARY_WIDTH_CAP:
        raise ValueError(f"oracle width {n} exceeds cap {UNITARY_WIDTH_CAP}")
    return oracle_apply(u, n, np.eye(1 << n, dtype=complex))


def _apply_gate(tensor: np.ndarray, g, n: int) -> np.ndarray:
    """Apply one gate, in place, to an array whose first n axes are qubit
    axes (qubit k lives on axis n-k); any trailing axes are batch dimensions.
    Returns the array for the next gate: SWAP returns an axes-swapped view of
    the same buffer, so later gates write through it."""
    if g.kind == "SWAP":
        return np.swapaxes(tensor, n - g.control, n - g.target)
    (m00, m01), (m10, m11) = gate_unitary_1q(g.kind, g.params)
    # The trailing Ellipsis keeps a fully indexed tensor a (0-d) view.
    key = [slice(None)] * n + [Ellipsis]
    if g.control is not None:
        key[n - g.control] = 1
    key[n - g.target] = 0
    s0 = tensor[tuple(key)]
    key[n - g.target] = 1
    s1 = tensor[tuple(key)]
    if m01 == 0 and m10 == 0:  # diagonal; a factor of exactly 1 is skipped
        if m00 != 1:
            s0 *= m00
        if m11 != 1:
            s1 *= m11
    elif m00 == 0 and m11 == 0 and m01 == 1 and m10 == 1:  # X: exchange
        t0 = s0.copy()
        s0[...] = s1
        s1[...] = t0
    else:
        t1 = m01 * s1
        s1 *= m11
        s1 += m10 * s0
        s0 *= m00
        s0 += t1
    return tensor


def circuit_unitary(circ: Circuit) -> np.ndarray:
    """Full unitary of the circuit (time order = left-to-right gate list,
    so the result is G_last @ ... @ G_first)."""
    n = circ.n
    if n > UNITARY_WIDTH_CAP:
        raise ValueError(
            f"circuit width {n} exceeds unitary cap {UNITARY_WIDTH_CAP}; "
            "use apply_statevector for wide circuits"
        )
    dim = 1 << n
    tensor = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    for g in circ.gates:
        tensor = _apply_gate(tensor, g, n)
    return tensor.reshape(dim, dim)


def apply_statevector(circ: Circuit, psi: np.ndarray) -> np.ndarray:
    """Apply the circuit to a statevector of length 2^n (n <= 22), or to each
    column of a (2^n, k) stack of them.  The input is not modified."""
    n = circ.n
    if n > STATEVECTOR_WIDTH_CAP:
        raise ValueError(f"width {n} exceeds statevector cap {STATEVECTOR_WIDTH_CAP}")
    psi = np.array(psi, dtype=complex)
    if psi.ndim not in (1, 2) or psi.shape[0] != 1 << n:
        raise ValueError(f"statevector must have length {1 << n} (or be a stack of columns)")
    tensor = psi.reshape((2,) * n + psi.shape[1:])
    for g in circ.gates:
        tensor = _apply_gate(tensor, g, n)
    return tensor.reshape(psi.shape)


def oracle_apply(u: np.ndarray, n: int, psi: np.ndarray) -> np.ndarray:
    """mcu_oracle(u, n) @ psi without materializing the matrix (psi may be a
    (2^n,) vector or a (2^n, k) stack)."""
    u = np.asarray(u, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    out = psi.copy()
    i0 = (1 << (n - 1)) - 1
    i1 = (1 << n) - 1
    a0, a1 = psi[i0], psi[i1]
    out[i0] = u[0, 0] * a0 + u[0, 1] * a1
    out[i1] = u[1, 0] * a0 + u[1, 1] * a1
    return out


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    max_deviation: float
    global_phase: float
    tier: str


def _outputs(circ: Circuit, u: np.ndarray):
    """(circuit output, oracle output) pairs of (2^n, k) arrays: one for the
    identity's columns on the unitary tier, one per probe stack above it."""
    n = circ.n
    if n <= UNITARY_WIDTH_CAP:
        yield circuit_unitary(circ), mcu_oracle(u, n)
        return
    # Twelve seeded probes: both all-controls-on basis states, |0>, eight
    # random basis states and one dense random state.
    rng = np.random.default_rng(0)
    dim = 1 << n
    basis = [(1 << (n - 1)) - 1, dim - 1, 0]
    basis += [int(v) for v in rng.integers(0, dim, size=8)]
    dense = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    dense /= np.linalg.norm(dense)
    columns = basis + [None]  # None: the dense probe
    per_pass = max(1, _PROBE_STACK_AMPLITUDES >> n)
    for j in range(0, len(columns), per_pass):
        block = columns[j : j + per_pass]
        states = np.zeros((dim, len(block)), dtype=complex)
        for c, idx in enumerate(block):
            if idx is None:
                states[:, c] = dense
            else:
                states[idx, c] = 1.0
        yield apply_statevector(circ, states), oracle_apply(u, n, states)


def verify_mcu(circ: Circuit, u: np.ndarray, tol: float = 1e-9) -> VerifyResult:
    """Check a circuit against the (n-1)-controlled-u oracle.

    ``circ`` is checked as it ships: with its ``final_layout`` undone (a
    circuit route_lnn returns, or one lowered from it), and a NativeCircuit
    as synth_native or lower_to_ngs returns it times e^(i global_phase).
    Tier 1 (n <= 12) compares the full unitary, tier 2 twelve seeded probe
    states.  The reported phase satisfies
    ``circuit = e^(i global_phase) * oracle``, so an exactly tracked native
    phase reads 0.
    """
    phase = circ.global_phase if isinstance(circ, NativeCircuit) else 0.0
    n = circ.n
    # Output rows run over physical wirelines: logical wireline i sits on
    # physical layout[i-1], and qubit q on axis n-q of the row index.
    layout = circ.final_layout or range(1, n + 1)
    axes = [n - layout[n - 1 - a] for a in range(n)] + [n]
    rel = None
    max_dev = 0.0
    for got, want in _outputs(circ, u):
        got = got.reshape((2,) * n + got.shape[1:]).transpose(axes).reshape(got.shape)
        if rel is None:
            # The phase of the first column's overlap: the phase that brings
            # it closest to the oracle's, never one read off a noise entry.
            rel = float(np.angle(np.vdot(want[:, 0], got[:, 0])))
        want *= np.exp(1j * rel)
        got -= want
        max_dev = max(max_dev, float(np.max(np.abs(got))))
    tier = "unitary" if n <= UNITARY_WIDTH_CAP else "statevector"
    return VerifyResult(max_dev <= tol, max_dev, math.remainder(rel + phase, 2 * math.pi), tier)
