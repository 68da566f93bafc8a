"""Brute-force verification oracles.

The multi-controlled-U oracle is the 2^n x 2^n identity except for the 2x2
block coupling the two basis states whose control bits (wirelines 1..n-1)
are all ones: indices 2^(n-1)-1 (target 0) and 2^n-1 (target 1).

Both simulators view an array as one axis per qubit plus a trailing column
axis, and push its columns through in place: each gate touches only the two
target slices of its control=1 half, scaling them for a diagonal payload,
exchanging them for X, mixing them for any other 2x2; a SWAP only relabels
two axes.  The columns are independent, so a large push splits them into one
block per usable CPU, each its own array, and runs the blocks in parallel
threads, with the gates resolved once for all of them; a block's columns come
out bit for bit as in one block.  circuit_unitary pushes the identity's 2^n
columns (capped at 12 qubits); apply_statevector one statevector, or a stack
of them, up to 22 qubits.

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
import os
import threading
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
# Every block of a split push holds at least 2^_BLOCK_AMPLITUDES_LOG2
# amplitudes (2^n times its column count), so a push of fewer than twice that
# runs on the calling thread as one block: smaller ufunc calls are too short
# to cover the interpreter lock's hand-offs between threads.  This is the
# smallest power of two at which two blocks beat one on 2 x86 CPUs, pushing
# built mcu-mod, mcu-zyz and ldd circuits: 1.5x slower with blocks of 2^13
# amplitudes, even near 2^14.6, 1.4x faster with blocks of 2^15 (an n=8
# unitary).  Splits into more than two blocks are unmeasured.
_BLOCK_AMPLITUDES_LOG2 = 15


def mcu_oracle(u: np.ndarray, n: int) -> np.ndarray:
    """(n-1)-controlled u on target wireline n, as a dense matrix."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > UNITARY_WIDTH_CAP:
        raise ValueError(f"oracle width {n} exceeds cap {UNITARY_WIDTH_CAP}")
    return oracle_apply(u, n, np.eye(1 << n, dtype=complex))


def _workers() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Operation codes of a resolved gate (see _resolve).
_SWAP, _SCALE, _EXCHANGE, _MIX = range(4)


def _resolve(gates, n: int) -> list[tuple]:
    """The gates as the operations _apply runs, resolved once per circuit and
    shared by every block.  Qubit k lives on axis n-k; a key indexes the
    target's 0 or 1 slice of the control=1 half, and c is 1 for a controlled
    gate and 0 otherwise, which picks the scratch of its slice's size.

    (_SWAP, axis, axis) relabels two axes; a diagonal payload is one
    (_SCALE, key, factor) per factor that is not exactly 1; X is
    (_EXCHANGE, key0, key1, c); any other 2x2 is
    (_MIX, key0, key1, c, m00, m01, m10, m11)."""
    ops = []
    for g in gates:
        if g.kind == "SWAP":
            ops.append((_SWAP, n - g.control, n - g.target))
            continue
        (m00, m01), (m10, m11) = gate_unitary_1q(g.kind, g.params)
        key = [slice(None)] * n
        if g.control is not None:
            key[n - g.control] = 1
        key[n - g.target] = 0
        key0 = tuple(key)
        key[n - g.target] = 1
        key1 = tuple(key)
        c = int(g.control is not None)
        if m01 == 0 and m10 == 0:
            ops += [(_SCALE, k, f) for k, f in ((key0, m00), (key1, m11)) if f != 1]
        elif m00 == 0 and m11 == 0 and m01 == 1 and m10 == 1:
            ops.append((_EXCHANGE, key0, key1, c))
        else:
            ops.append((_MIX, key0, key1, c, m00, m01, m10, m11))
    return ops


def _scratch(ops: list[tuple], n: int, k: int) -> tuple:
    """One block's scratch: per c (0 uncontrolled, 1 controlled), the two
    slice-shaped arrays _apply writes temporaries to, or None where no
    operation needs them.  Both sizes are views of one buffer, sized for the
    largest pair of slices the circuit needs."""
    used = {op[3] for op in ops if op[0] >= _EXCHANGE}
    if not used:
        return None, None
    buf = np.empty(2 * (1 << (n - 1 - min(used))) * k, dtype=complex)

    def pair(c):
        size, shape = (1 << (n - 1 - c)) * k, (2,) * (n - 1 - c) + (k,)
        return buf[:size].reshape(shape), buf[size : 2 * size].reshape(shape)

    return tuple(pair(c) if c in used else None for c in (0, 1))


def _apply(ops: list[tuple], tensor: np.ndarray, scratch: tuple) -> np.ndarray:
    """Run the operations, in place, on one (2,)*n + (k,) block, writing every
    temporary into scratch.  Returns the block's final view: a SWAP makes an
    axes-swapped view of the same buffer, so later gates write through it.
    The arithmetic is the same, operation for operation, for any block."""
    for op in ops:
        code = op[0]
        if code == _SWAP:
            tensor = tensor.swapaxes(op[1], op[2])
        elif code == _SCALE:
            s = tensor[op[1]]
            s *= op[2]
        else:
            s0, s1 = tensor[op[1]], tensor[op[2]]
            t0, t1 = scratch[op[3]]
            if code == _EXCHANGE:
                np.copyto(t0, s0)
                np.copyto(s0, s1)
                np.copyto(s1, t0)
            else:
                m00, m01, m10, m11 = op[4:]
                np.multiply(m01, s1, out=t0)
                s1 *= m11
                np.multiply(m10, s0, out=t1)
                s1 += t1
                s0 *= m00
                s0 += t0
    return tensor


def _run(ops, tensor, scratch, results: list, i: int) -> None:
    """Block i's thread body: its final view, or the exception it raised, goes
    to results[i] for the calling thread to collect."""
    try:
        results[i] = _apply(ops, tensor, scratch)
    except BaseException as exc:  # re-raised by the calling thread
        results[i] = exc


def _push(circ: Circuit, k: int, columns) -> np.ndarray:
    """The circuit applied to k columns of 2^n amplitudes, as a (2^n, k) array;
    ``columns(a, b)`` returns columns a..b-1 as a new C-contiguous array.

    The columns are independent, so they split into one block per usable CPU,
    and the blocks run in parallel threads (numpy releases the GIL inside its
    ufunc loops); the calling thread runs the first.  There are fewer blocks
    where CPUs would leave a block under 2^_BLOCK_AMPLITUDES_LOG2 amplitudes,
    and a smaller push is one block, run by the calling thread alone.  Every
    buffer is allocated here, before any thread starts; the output after the
    scratch is freed.  A column comes out bit for bit as in one block unless
    a slice has a single amplitude (n <= 2 and one-column blocks, far under
    a block's least size): numpy rounds an in-place product on a
    one-element array differently."""
    n = circ.n
    dim = 1 << n
    ops = _resolve(circ.gates, n)
    blocks = max(1, min(_workers(), k, dim * k >> _BLOCK_AMPLITUDES_LOG2))
    cuts = [k * i // blocks for i in range(blocks + 1)]
    spans = list(zip(cuts, cuts[1:]))
    tensors = [columns(a, b).reshape((2,) * n + (b - a,)) for a, b in spans]
    scratch = [_scratch(ops, n, b - a) for a, b in spans]
    results: list = [None] * blocks
    threads = [
        threading.Thread(target=_run, args=(ops, tensors[i], scratch[i], results, i))
        for i in range(1, blocks)
    ]
    for t in threads:
        t.start()
    _run(ops, tensors[0], scratch[0], results, 0)
    for t in threads:
        t.join()
    del scratch
    for r in results:
        if isinstance(r, BaseException):
            raise r
    if blocks == 1:
        return results[0].reshape(dim, k)
    out = np.empty((dim, k), dtype=complex)
    stacked = out.reshape((2,) * n + (k,))
    for (a, b), r in zip(spans, results):
        stacked[..., a:b] = r
    return out


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
    return _push(circ, dim, lambda a, b: np.eye(dim, b - a, -a, dtype=complex))


def apply_statevector(circ: Circuit, psi: np.ndarray) -> np.ndarray:
    """Apply the circuit to a statevector of length 2^n (n <= 22), or to each
    column of a (2^n, k) stack of them.  The input is not modified."""
    n = circ.n
    if n > STATEVECTOR_WIDTH_CAP:
        raise ValueError(f"width {n} exceeds statevector cap {STATEVECTOR_WIDTH_CAP}")
    psi = np.asarray(psi)
    if psi.ndim not in (1, 2) or psi.shape[0] != 1 << n:
        raise ValueError(f"statevector must have length {1 << n} (or be a stack of columns)")
    cols = psi if psi.ndim == 2 else psi[:, None]
    out = _push(circ, cols.shape[1], lambda a, b: np.array(cols[:, a:b], dtype=complex, order="C"))
    return out.reshape(psi.shape)


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
