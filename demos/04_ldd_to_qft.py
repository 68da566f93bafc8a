"""
Rewriting the linear-depth form back into the QFT picture
=========================================================

The ldd builder takes the optimized mcu-mod circuit and rewrites it into
controlled-Rx gates with every Hadamard eliminated.  The ldd-to-qft pass
undoes that: each CRx becomes a controlled phase again (the CRx(+-pi) pair
from wireline 1 to 2 becomes a CX) and each stage gets its Hadamard pair
back.  The unitary is unchanged, and the result is exactly the direct
mcu-mod build.

The rewrite adds abstract gates, the Hadamards (13 -> 17 at n=4,
113 -> 137 at n=9).  What shrinks is the native total, by 1.81x to 2.17x
(87 -> 48, 852 -> 393): lowering sends each CRx through the A X B X C
template, 2 CX and 4 SX, where a controlled phase costs 2 CX and no SX.
"""

import numpy as np

from qftmcu.gate_algebra import random_unitary
from qftmcu.layout import lower_to_ngs
from qftmcu.linalg import equal_up_to_global_phase
from qftmcu.optimizer import ldd_to_qft
from qftmcu.synthesis import SynthConfig, build
from qftmcu.verifier import circuit_unitary

u = random_unitary(np.random.default_rng(3))

print("n   ldd gates  rewritten  native before/after  ratio")
for n in range(4, 10):
    ldd = build(SynthConfig("ldd", n, u=u))
    slim = ldd_to_qft(ldd)
    nb = sum(lower_to_ngs(ldd).counts().values())
    na = sum(lower_to_ngs(slim).counts().values())
    print(f"{n}   {len(ldd.gates):6d}     {len(slim.gates):6d}     "
          f"{nb:5d} / {na:5d}      {nb/na:.2f}x")

# the rewrite lands exactly on what the direct builder would have made
n = 6
slim = ldd_to_qft(build(SynthConfig("ldd", n, u=u)))
direct = build(SynthConfig("mcu-mod", n, u=u))


def gate_tuples(circ):
    return [(g.kind, g.target, g.control, g.params) for g in circ.gates]


print("\nrewrite == direct mcu-mod build:", gate_tuples(slim) == gate_tuples(direct))

ok, phase, dev = equal_up_to_global_phase(
    circuit_unitary(slim),
    circuit_unitary(build(SynthConfig("ldd", n, u=u))),
    1e-9,
)
print(f"unitary preserved: {ok} (deviation {dev:.2e})")

# and it refuses inputs that are not in the linear-depth form
try:
    ldd_to_qft(build(SynthConfig("mcx-qft", n)))
except ValueError as exc:
    print(f"\non an mcx-qft circuit it refuses: {exc}")
