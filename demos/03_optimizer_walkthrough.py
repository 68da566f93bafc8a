"""
What the optimizer passes actually do
=====================================

Every pass maps circuit -> circuit and never guesses: if the input does
not have the structure the rewrite needs, it raises ValueError with the
reason instead of producing something subtly wrong.  What a pass did is
read off its input and output.
"""

from qftmcu.circuit import schedule_slots
from qftmcu.optimizer import PASSES, merge_phase_columns
from qftmcu.synthesis import SynthConfig, build

print("registered passes:", ", ".join(sorted(PASSES)))

# --- merge: the center of the circuit is (inverse QFT)(QFT) = nothing ---

n = 5
raw = build(SynthConfig("mcx-qft", n, optimize=False))
merged = merge_phase_columns(raw)

print(f"\nmerge on the unoptimized mcx build (n={n}):")
print(f"  gates {len(raw.gates)} -> {len(merged.gates)},"
      f" slots {schedule_slots(raw)} -> {schedule_slots(merged)}")

# Running it again finds nothing left to do -- passes are idempotent.
again = merge_phase_columns(merged)
print(f"  second application changes nothing: {again.gates == merged.gates}")
