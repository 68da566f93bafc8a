"""
What the optimizer passes actually do
=====================================

Every pass maps circuit -> (circuit, report) and never guesses: if the
input does not have the structure the rewrite needs, it refuses and says
so in the report instead of producing something subtly wrong.
"""

from qftmcu.circuit import schedule_slots
from qftmcu.optimizer import PASSES, merge_phase_columns
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
