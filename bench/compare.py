"""Compare two sets of benchmark result files, metric by metric.

    python3 bench/compare.py BASE NEW

BASE and NEW are each a result file written by bench/run.py or a directory
of them.  Runs are grouped by workload and by trace mode.  For every metric
BENCHMARK.json names, the table gives each side's median and quartiles over
its runs and, for end-to-end metrics, a verdict against the metric's bound.
The per-tier verification times in the result files' ``summary`` get a
verdict too, against the bound of ``pass_norm_s``: a verifier change that
helps one tier and costs the other cancels out in ``pass_norm_s``.

* ``better``     every NEW run beats every BASE run;
* ``unresolved`` the quartile spread of either side is wider than the bound;
* ``regressed``  NEW's median is worse than BASE's by more than the bound;
* ``ok``         otherwise.

Exit status 1 when any metric regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# summary entry -> the end-to-end metric whose direction and bound it takes
SUMMARY_GATES = {
    "verify_unitary_norm_s": "pass_norm_s",
    "verify_statevector_norm_s": "pass_norm_s",
}


def load_runs(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for f in files:
        record = json.loads(f.read_text())
        if isinstance(record, dict) and "result" in record:
            runs.append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    if bm == 0:
        return "n/a"
    if max(sign * v for v in new) < min(sign * v for v in base):
        return "better"
    spread = max((b3 - b1) / abs(bm), (n3 - n1) / abs(nm) if nm else 0.0)
    if spread > bound:
        return "unresolved"
    if sign * (nm - bm) / abs(bm) > bound:
        return "regressed"
    return "ok"


def compare(base_runs: list[dict], new_runs: list[dict], spec: dict) -> tuple[list[str], bool]:
    lines = []
    regressed = False
    groups = sorted({(r["workload"], r["trace"]) for r in base_runs + new_runs})
    by_name = {m["name"]: m for m in spec["end_to_end"]}
    for workload, trace in groups:
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        if not trace:
            metrics = metrics + [
                {**by_name[gate], "name": name, "summary": True}
                for name, gate in SUMMARY_GATES.items()
            ]

        def values(runs, name):
            vals = []
            for r in runs:
                if (r["workload"], r["trace"]) != (workload, trace):
                    continue
                if name in r["result"]["metrics"]:
                    vals.append(r["result"]["metrics"][name]["value"])
                elif r.get("summary", {}).get(name):
                    vals.append(r["summary"][name])
            return vals

        lines.append(f"== {workload} (trace {trace})")
        lines.append(f"{'metric':40} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34}  verdict")
        for m in metrics:
            base, new = values(base_runs, m["name"]), values(new_runs, m["name"])
            if not base or not new:
                if not m.get("summary"):
                    lines.append(f"{m['name']:40} {'missing on one side':>34}")
                continue
            cells = []
            for vals in (base, new):
                q1, med, q3 = quartiles(vals)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(vals)}")
            v = verdict(base, new, m["better"], m["bound"]) if "bound" in m else "-"
            regressed |= v == "regressed"
            lines.append(f"{m['name'] + ' (' + m['unit'] + ')':40} {cells[0]:>34} {cells[1]:>34}  {v}")
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, regressed = compare(load_runs(Path(argv[0])), load_runs(Path(argv[1])), spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
