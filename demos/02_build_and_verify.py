"""
Building multi-controlled gates and checking them against brute force
=====================================================================

Four synthesis routes produce the same n-qubit multi-controlled unitary:

  mcx-qft   controls a +1/-1 pair around a ladder (payload fixed to X)
  mcu-mod   same frame, but the payload rides in as controlled roots
  mcu-zyz   Euler-angle variant that absorbs the payload into rotations
  ldd       mcu-mod rewritten into controlled-Rx gates, Hadamard-free

The verifier multiplies the whole circuit out (or applies it to probe
statevectors when that would not fit) and compares against an oracle
matrix assembled directly from the definition.
"""

import numpy as np

from qftmcu.circuit import count_gates, schedule_slots
from qftmcu.gate_algebra import random_unitary
from qftmcu.synthesis import METHODS, SynthConfig, build
from qftmcu.verifier import mcu_oracle, verify_mcu

n = 5
rng = np.random.default_rng(7)
u = random_unitary(rng)

print(f"target: {n}-qubit multi-controlled U, payload drawn at random\n")

for method in METHODS:
    payload = None if method == "mcx-qft" else u
    circ = build(SynthConfig(method, n, u=payload))
    slots = schedule_slots(circ)

    oracle_payload = np.array([[0, 1], [1, 0]], dtype=complex) if payload is None else u
    res = verify_mcu(circ, oracle_payload)

    counts = ", ".join(f"{k}:{v}" for k, v in sorted(count_gates(circ).items()))
    print(f"{method:8s}  {len(circ.gates):3d} gates in {slots:2d} slots   [{counts}]")
    print(f"          verified: {res.ok}  (max deviation {res.max_deviation:.2e},"
          f" tier {res.tier}, global phase {res.global_phase:+.4f})")

# The oracle itself is nothing clever -- identity everywhere except the
# all-controls-on block:
oracle = mcu_oracle(u, 3)
print("\noracle for n=3 (top-left 6x6 is identity):")
print(np.round(oracle, 3))
