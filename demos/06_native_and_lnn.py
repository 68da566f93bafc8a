"""
Lowering to the native gate set, with and without neighbour constraints
=======================================================================

synth_native runs the whole pipeline: build, optimize, (optionally)
route for a linear chain, then lower every abstract gate to
{CX, Rz, SX, X} by its rule in `LOWERING` and schedule the result.  The
returned circuit carries its exact global phase and, after routing, where
each logical qubit ended up, so verify_mcu checks it as it ships against
the same brute-force oracle the abstract one was checked against.
"""

import numpy as np

from qftmcu.gate_algebra import random_unitary
from qftmcu.layout import synth_native
from qftmcu.synthesis import SynthConfig
from qftmcu.verifier import verify_mcu

n = 5
u = random_unitary(np.random.default_rng(11))
cfg = SynthConfig("mcu-mod", n, u=u)

for arch in ("fc", "lnn"):
    nc = synth_native(cfg, arch=arch)
    counts = ", ".join(f"{k}:{v}" for k, v in sorted(nc.counts().items()) if v)

    # The tracked phase is folded in and the final layout undone, so the
    # residual phase reads 0 when the lowering tracked it exactly.
    res = verify_mcu(nc, u)
    print(f"{arch}:  depth {nc.depth():3d}   [{counts}]")
    print(f"     swaps inserted: {nc.swaps_inserted}   verified vs oracle: {res.ok} "
          f"({res.max_deviation:.2e}, residual phase {res.global_phase:+.1e})\n")

# On the chain every CP between distant wirelines pays for SWAPs, so both
# depth and CX grow; the router reports exactly where the cost went.
fc = synth_native(cfg, arch="fc")
lnn = synth_native(cfg, arch="lnn")
print(f"LNN overhead at n={n}: "
      f"+{lnn.depth() - fc.depth()} depth, "
      f"+{lnn.counts()['CX'] - fc.counts()['CX']} CX "
      f"({lnn.swaps_inserted} swaps, 3 CX each)")
