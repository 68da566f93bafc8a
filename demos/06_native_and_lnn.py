"""
Lowering to the native gate set, with and without neighbour constraints
=======================================================================

synth_native runs the whole pipeline: build, optimize, (optionally) route
for a linear chain (QFT stages by the parity walk), then lower
every abstract gate to {CX, Rz, SX, X} by its rule in `LOWERING` and
schedule the result.  The returned circuit carries its exact global phase
and, after routing, where each logical qubit ended up, so verify_mcu checks
it as it ships against the same brute-force oracle the abstract one was
checked against.
"""

import numpy as np

from qftmcu.gate_algebra import random_unitary
from qftmcu.layout import route_lnn, synth_native
from qftmcu.synthesis import SynthConfig, build
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

# On the chain each QFT stage's target steps past every lower wireline
# with a CX and a SWAP of the same pair, which lowering merges into 2 CX,
# and each controlled phase becomes P gates on the parities the steps
# leave.  So a controlled phase costs the line no CX: the overhead is the
# CX that keep the wirelines below the target in difference form and one
# bare SWAP per block, linear in n.  Every block ends where it started, so
# the final layout is the identity.
fc = synth_native(cfg, arch="fc")
lnn = synth_native(cfg, arch="lnn")
routed = route_lnn(build(cfg))
paired = sum(
    (a.kind == "SWAP") != (b.kind == "SWAP") and {a.target, a.control} == {b.target, b.control}
    for a, b in zip(routed.gates, routed.gates[1:])
)
print(f"LNN overhead at n={n}: "
      f"+{lnn.depth() - fc.depth()} depth, "
      f"+{lnn.counts()['CX'] - fc.counts()['CX']} CX "
      f"({lnn.swaps_inserted} swaps: {paired} beside their controlled gate, 1 CX each; "
      f"{lnn.swaps_inserted - paired} bare, 3 CX each)")
print(f"final layout: {routed.final_layout}")
