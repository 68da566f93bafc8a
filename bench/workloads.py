"""The benchmark's workloads: cell lists, how a cell runs, and the checks.

A cell is one user request, method x n x arch.  ``run_cell`` calls the
public API the way a user would (``synth_native`` + ``native_metrics``, or
``build`` + ``verify_mcu``).  The traced passes run the same ``run_cell``
with the functions in ``LAYER_FUNCTIONS`` wrapped in spans (see tracer.py),
so their outputs must equal the untraced ones.

This module imports qftmcu; the entry script puts the checkout's ``src`` on
``sys.path`` and pins the BLAS thread count before importing it.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from qftmcu.circuit import count_gates, normalize_angle
from qftmcu.gate_algebra import random_unitary, zyz_decompose
from qftmcu.layout import NATIVE_KINDS, layout_permutation, native_metrics, synth_native
from qftmcu.linalg import equal_up_to_global_phase
from qftmcu.synthesis import SynthConfig, build, expected_counts
from qftmcu.verifier import UNITARY_WIDTH_CAP, circuit_unitary, mcu_oracle, verify_mcu

TOL = 1e-9
MCU_METHODS = ("mcu-mod", "mcu-zyz", "ldd")

# (kind, method, n, arch).  kind "compile" runs synth_native + native_metrics;
# "verify" builds the abstract circuit and runs verify_mcu on it (unitary tier
# for n <= 12, statevector tier above); "native" compiles at n=8 and checks
# the native unitary against the oracle.  Widths are scaled down from the
# shapes they stand for (FC n up to 56, LNN up to 32, unitary tier n=10,
# statevector n=16) so that one pass takes a few seconds and a run holds
# several passes; the layer that dominates each workload stays the same.
WORKLOADS: dict[str, list[tuple[str, str, int, str]]] = {
    "fc-wide": [
        ("compile", m, n, "fc")
        for n in (16, 28, 40)
        for m in ("mcu-mod", "mcu-zyz", "ldd", "mcx-qft")
    ],
    "lnn-route": [("compile", m, n, "lnn") for n in (12, 20, 28) for m in MCU_METHODS],
    "verify-mix": [("verify", m, n, "fc") for n in (8, 9, 13, 14) for m in MCU_METHODS]
    + [("native", m, 8, arch) for arch in ("fc", "lnn") for m in MCU_METHODS],
}


# The public functions the traced passes put in spans, per qftmcu module.
# Each is wrapped wherever the program looks it up, so a call from inside
# another layer (``build`` inside ``synth_native``, ``schedule_slots`` inside
# ``cancel_cx_pairs``) gets its own nested span.
LAYER_FUNCTIONS = {
    "gate_algebra": ("random_unitary", "zyz_decompose", "root", "u2_mat"),
    "linalg": ("is_unitary", "equal_up_to_global_phase"),
    "synthesis": ("build",),
    "circuit": ("schedule_slots",),
    "layout": (
        "synth_native", "native_metrics", "route_lnn", "lower_to_ngs",
        "model_depth", "model_cx", "layout_permutation",
    ),
    "optimizer": ("cancel_cx_pairs",),
    "verifier": ("verify_mcu", "circuit_unitary", "apply_statevector", "oracle_apply", "mcu_oracle"),
    "cli": ("main",),
}


def traced_functions() -> tuple[list, list]:
    """The functions of ``LAYER_FUNCTIONS``, and the modules that look them up:
    every loaded qftmcu module and this one."""
    functions = [
        getattr(importlib.import_module(f"qftmcu.{mod}"), name)
        for mod, names in LAYER_FUNCTIONS.items()
        for name in names
    ]
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qftmcu"]
    return functions, modules + [sys.modules[__name__]]


@dataclass(frozen=True, eq=False)
class Cell:
    kind: str
    method: str
    n: int
    arch: str
    u: np.ndarray | None

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.method}:n{self.n}:{self.arch}"


@dataclass
class Outcome:
    """What one execution of a cell produced.  Times are wall seconds."""

    compile_s: float = 0.0
    verify_s: float = 0.0
    probe_s: float = 0.0  # mean of the probes right before and after (untraced only)
    tier: str | None = None
    digest: str = ""
    native_gates: int = 0
    depth: int = 0
    cx: int = 0
    swaps: int = 0
    depth_deviation: float | None = None
    cx_cancellable: int = 0
    verified: bool | None = None
    max_deviation: float = 0.0
    native_kinds: set = field(default_factory=set)
    adjacent: bool = True
    abstract_gates: int = 0
    routed_gates: int = 0

    def output(self) -> tuple:
        """Everything the cell produced; a rerun, traced or not, must repeat it."""
        return (
            self.digest, self.verified, self.tier, self.max_deviation, self.native_gates,
            self.depth, self.cx, self.swaps, self.cx_cancellable, self.depth_deviation,
        )


# Roughly the probe's time on an unloaded 2.0 GHz Xeon vCPU.  It only sets
# the scale of the normalized timings: they read as seconds at that speed.
PROBE_NOMINAL_S = 0.012


def probe() -> float:
    """Wall seconds of a fixed amount of interpreter and numpy work.

    On the shared 2-vCPU VM the bounds were set on, wall time runs at
    1x-1.8x speed in phases lasting seconds to minutes.  The probe runs
    between cells and does not touch qftmcu, so ``cell seconds *
    PROBE_NOMINAL_S / probe`` divides the phase out while keeping any
    change in the program.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    t = np.ones((2,) * 15, dtype=complex)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    for ax in range(t.ndim):
        t = np.moveaxis(np.tensordot(flip, t, axes=([1], [ax])), 0, ax)
    return time.perf_counter() - t0


def _is_generic(u: np.ndarray) -> bool:
    """``expected_counts`` holds for a generic payload only: nonzero
    determinant phase, theta away from 0 and pi, and nontrivial A/B/C."""
    d, a, t, b = zyz_decompose(u)
    return (
        abs(d) > 1e-3
        and abs(t) > 1e-3
        and abs(t - np.pi) > 1e-3
        and abs(a) > 1e-3
        and abs(b) > 1e-3
        and abs(normalize_angle(b - a)) > 2e-3
    )


def make_cells(workload: str, seed: int) -> list[Cell]:
    """The workload's cells, with targets drawn from ``default_rng(seed)``.

    Draws are taken in cell order; non-generic draws are skipped, because
    the count check assumes a generic payload.
    """
    rng = np.random.default_rng(seed)
    cells = []
    for kind, method, n, arch in WORKLOADS[workload]:
        u = None
        if method != "mcx-qft":
            while True:
                u = random_unitary(rng)
                if _is_generic(u):
                    break
        cells.append(Cell(kind, method, n, arch, u))
    return cells


def gate_digest(gates, global_phase: float | None = None) -> str:
    """SHA-256 of a gate list: kind, wires, params rounded to 1e-9, phase."""
    h = hashlib.sha256()
    for g in gates:
        params = ",".join(f"{round(p, 9) + 0.0:.9f}" for p in g.params)
        h.update(f"{g.kind}|{g.target}|{g.control}|{params};".encode())
    if global_phase is not None:
        h.update(f"phase={round(global_phase, 9) + 0.0:.9f}".encode())
    return h.hexdigest()


def _native_outcome(out: Outcome, nc, depth: int, cx: int, cancellable: int) -> None:
    out.digest = gate_digest(nc.gates, nc.global_phase)
    out.native_gates = len(nc.gates)
    out.depth = depth
    out.cx = cx
    out.swaps = nc.swaps_inserted
    out.cx_cancellable = cancellable
    out.native_kinds = {g.kind for g in nc.gates}
    if nc.arch == "lnn":
        out.adjacent = all(g.control is None or abs(g.control - g.target) == 1 for g in nc.gates)


def _unpermuted(nc, unitary: np.ndarray) -> np.ndarray:
    """Undo the final LNN layout so the native unitary compares to the oracle."""
    if nc.final_layout is None:
        return unitary
    return layout_permutation(nc.final_layout).T @ unitary


def run_cell(cell: Cell) -> Outcome:
    """Run one cell through the public API, as a user would."""
    out = Outcome()
    t0 = time.perf_counter()
    cfg = SynthConfig(cell.method, cell.n, u=cell.u)
    if cell.kind == "verify":
        circ = build(cfg)
        t1 = time.perf_counter()
        res = verify_mcu(circ, cell.u, tol=TOL)
        out.compile_s, out.verify_s = t1 - t0, time.perf_counter() - t1
        out.digest = gate_digest(circ.gates)
        out.tier, out.verified, out.max_deviation = res.tier, res.ok, res.max_deviation
        return out
    nc = synth_native(cfg, arch=cell.arch)
    nm = native_metrics(nc)
    t1 = time.perf_counter()
    out.compile_s = t1 - t0
    if cell.kind == "native":
        got = _unpermuted(nc, circuit_unitary(nc.as_circuit()))
        ok, _, dev = equal_up_to_global_phase(got, mcu_oracle(cell.u, cell.n), TOL)
        out.verify_s = time.perf_counter() - t1
        out.tier, out.verified, out.max_deviation = "unitary", ok, dev
    _native_outcome(out, nc, nm.depth, nm.counts["CX"], nm.cx_cancellable)
    out.depth_deviation = nm.depth_deviation
    return out


def check_cell(cell: Cell, out: Outcome) -> list[str]:
    """Problems with one cell's output; empty when it passes.

    Compile cells get structural checks: native kinds within {CX, Rz, SX, X},
    two-qubit gates on adjacent wires for LNN, and the abstract circuit's
    per-kind counts equal to ``expected_counts``.  Verify and native cells
    must match the oracle at ``TOL``.  Fills in the outcome's abstract and
    routed gate counts (routing adds one SWAP per inserted swap).
    """
    problems = []
    abstract = build(SynthConfig(cell.method, cell.n, u=cell.u))
    out.abstract_gates = len(abstract.gates)
    out.routed_gates = out.abstract_gates + out.swaps
    want = {k: v for k, v in expected_counts(cell.method, cell.n).items() if v}
    got = count_gates(abstract)
    if got != want:
        problems.append(f"abstract counts {got} != expected {want}")
    if cell.kind == "verify":
        tier = "unitary" if cell.n <= UNITARY_WIDTH_CAP else "statevector"
        if out.tier != tier:
            problems.append(f"verified on the {out.tier} tier, expected {tier}")
        if out.digest != gate_digest(abstract.gates):
            problems.append("verified circuit differs from the build")
    else:
        if not out.native_kinds <= set(NATIVE_KINDS):
            problems.append(f"non-native kinds {sorted(out.native_kinds - set(NATIVE_KINDS))}")
        if not out.adjacent:
            problems.append("two-qubit gate on non-adjacent wires after LNN routing")
        if (cell.arch == "lnn") != (out.swaps > 0):
            problems.append(f"{out.swaps} swaps on arch {cell.arch}")
    if cell.kind != "compile" and not (out.verified and out.max_deviation <= TOL):
        problems.append(f"oracle mismatch, max deviation {out.max_deviation:.3e}")
    return problems
