"""
Lowering to the native gate set, with and without neighbour constraints
=======================================================================

synth_native runs the whole pipeline: build, optimize, (optionally)
route for a linear chain, then lower every abstract gate to
{CX, Rz, SX, X} by its rule in `LOWERING` and schedule the result.  The
returned object keeps enough provenance to verify the hardware-level
circuit against the same brute-force oracle the abstract one was checked
against.
"""

import numpy as np

from qftmcu.gate_algebra import random_unitary
from qftmcu.layout import layout_permutation, synth_native
from qftmcu.linalg import equal_up_to_global_phase
from qftmcu.synthesis import SynthConfig
from qftmcu.verifier import circuit_unitary, mcu_oracle

n = 5
u = random_unitary(np.random.default_rng(11))
cfg = SynthConfig("mcu-mod", n, u=u)

for arch in ("fc", "lnn"):
    nc = synth_native(cfg, arch=arch)
    counts = ", ".join(f"{k}:{v}" for k, v in sorted(nc.counts().items()) if v)

    got = circuit_unitary(nc.as_circuit()) * np.exp(1j * nc.global_phase)
    if nc.final_layout is not None:
        # routing may leave the logical qubits permuted; undo it for the check
        got = layout_permutation(nc.final_layout).T @ got

    ok, _, dev = equal_up_to_global_phase(got, mcu_oracle(u, n), 1e-9)
    swaps = nc.swaps_inserted if nc.swaps_inserted is not None else 0
    print(f"{arch}:  depth {nc.depth():3d}   [{counts}]")
    print(f"     swaps inserted: {swaps}   verified vs oracle: {ok} ({dev:.2e})\n")

# On the chain every CP between distant wirelines pays for SWAPs, so both
# depth and CX grow; the router reports exactly where the cost went.
fc = synth_native(cfg, arch="fc")
lnn = synth_native(cfg, arch="lnn")
print(f"LNN overhead at n={n}: "
      f"+{lnn.depth() - fc.depth()} depth, "
      f"+{lnn.counts()['CX'] - fc.counts()['CX']} CX "
      f"({lnn.swaps_inserted} swaps, 3 CX each)")
