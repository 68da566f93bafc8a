"""
What the optimizer passes actually do
=====================================

Every pass maps circuit -> (circuit, report) and never guesses: if the
input does not have the structure the rewrite needs, it refuses and says
so in the report instead of producing something subtly wrong.
"""

from qftmcu.circuit import count_gates, schedule_slots
from qftmcu.optimizer import PASSES, cp_to_crz, merge_phase_columns
from qftmcu.synthesis import SynthConfig, build

print("registered passes:", ", ".join(sorted(PASSES)))

# --- merge: the center of the circuit is (inverse QFT)(QFT) = nothing ---

n = 5
raw = build(SynthConfig("mcx-qft", n, optimize=False))
merged, report = merge_phase_columns(raw)

print(f"\nmerge on the unoptimized mcx build (n={n}):")
print(f"  gates {report.gates_before} -> {report.gates_after},"
      f" slots {schedule_slots(raw)} -> {schedule_slots(merged)}")
print(f"  refused: {report.refused}   detail: {report.detail or '(none)'}")

# Running it again finds nothing left to do -- passes are idempotent.
again, report2 = merge_phase_columns(merged)
print(f"  second application changes nothing: {again.gates == merged.gates}")

# --- cp-to-crz: swap controlled-phase for controlled-Rz plus local P's ---
#
# CRz is cheaper on hardware but differs from CP by a phase on the
# control wire.  The pass tracks those corrections; most cancel against
# neighbours, and whatever survives is left as explicit P gates that ride
# in existing slots (they never add depth).

converted, _ = cp_to_crz(merged)
print(f"\ncp-to-crz on the merged circuit:")
print(f"  before: {count_gates(merged)}")
print(f"  after:  {count_gates(converted)}")
riders = [g for g in converted.gates if g.kind == "P" and g.ride]
print(f"  surviving phase corrections: {len(riders)} (all slot-riders)")
print(f"  slots unchanged: {schedule_slots(converted) == schedule_slots(merged)}")

# On the mcu-mod build the ladders are symmetric and every correction
# cancels -- nothing survives at all.
import numpy as np

mod = build(SynthConfig("mcu-mod", 5, u=np.diag([1, 1j]).astype(complex)))
mod_conv, _ = cp_to_crz(mod)
leftover = [g for g in mod_conv.gates if g.kind == "P"]
print(f"\nsame pass on mcu-mod: {len(leftover)} corrections survive")
