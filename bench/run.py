"""qftmcu benchmark: run one workload for one seed and report its metrics.

    python3 bench/run.py --workload fc-wide --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports qftmcu from its ``src``.  The
run repeats passes over the workload's cells until ``--seconds`` is used up
and reports, per cell, the median over passes.  With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` the passes alternate untraced and traced, and it carries
the per-layer metrics instead.  The full record (per-cell rows, witness
digests, machine) goes to ``bench/out/<workload>-seed<n>-trace<t>.json``;
a traced run also writes its spans next to it.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
BLAS_THREADS = 1
SETUP_REPEATS = 9
SWEEP_ARGS = ["sweep", "--methods", "mcu-mod,mcu-zyz,ldd", "--n", "4..12", "--seed", "0"]
SWEEP_ROWS = 27  # 9 widths x 3 methods, below one header line
LAYERS = ("synthesis", "optimizer", "layout", "circuit", "verifier", "linalg", "gate_algebra", "cli")

# Set-up as a user pays it: a fresh interpreter imports qftmcu, then builds,
# lowers and verifies one small circuit.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from qftmcu.gate_algebra import random_unitary
from qftmcu.layout import native_metrics, synth_native
from qftmcu.synthesis import SynthConfig, build
from qftmcu.verifier import verify_mcu
u = random_unitary(np.random.default_rng(int(sys.argv[2])))
cfg = SynthConfig("mcu-mod", 4, u=u)
native_metrics(synth_native(cfg, arch="lnn"))
sys.exit(0 if verify_mcu(build(cfg), u).ok else 3)
"""


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure_setup(seed: int) -> float:
    """Median wall time of SETUP_REPEATS fresh set-ups, in seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    return statistics.median(times)


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def growth(points: dict[tuple, list[tuple[float, float]]]) -> float:
    """Median over (method, arch) groups of the log-log slope of seconds
    against native gates across n; 1.0 is linear.

    0.0 when no group has two distinct sizes to fit.
    """
    import numpy as np

    slopes = []
    for pts in points.values():
        pts = [(x, y) for x, y in pts if x > 0 and y > 0]
        if len({x for x, _ in pts}) >= 2:
            xs, ys = zip(*pts)
            slopes.append(float(np.polyfit(np.log(xs), np.log(ys), 1)[0]))
    return median(slopes)


class Run:
    """One benchmark run: the passes, their checks, and the metrics."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        import workloads

        self.wl = workloads
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.tracer = None
        if trace:
            from tracer import Tracer

            self.tracer = Tracer(*workloads.traced_functions())
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, list[str]] = {}
        self.plain: dict[str, list] = {}
        self.traced: dict[str, list] = {}
        self.passes = 0

    def _traced(self, cell: tuple):
        return self.tracer.active(cell) if self.tracer else nullcontext()

    def _execute(self, cell, store: dict, traced_pass: int | None):
        self.attempted += 1
        try:
            if traced_pass is None:
                out = self.wl.run_cell(cell)
            else:
                with self.tracer.active((traced_pass, cell.label)):
                    out = self.wl.run_cell(cell)
        except Exception:
            self.failed += 1
            self.errors.setdefault(cell.label, []).append(traceback.format_exc())
            return None
        store.setdefault(cell.label, []).append(out)
        return out

    def measure(self) -> None:
        with self._traced(("run", "draw")):
            self.cells = self.wl.make_cells(self.workload, self.seed)
        deadline = time.perf_counter() + self.seconds
        while True:
            t0 = time.perf_counter()
            before = self.wl.probe()
            for cell in self.cells:
                out = self._execute(cell, self.plain, None)
                after = self.wl.probe()
                if out is not None:
                    out.probe_s = (before + after) / 2
                before = after
            if self.tracer:
                for cell in self.cells:
                    self._execute(cell, self.traced, self.passes)
            self.passes += 1
            now = time.perf_counter()
            if now + (now - t0) > deadline:
                break
        self.sweep_sha256 = self._sweep()
        self._check()

    def _sweep(self) -> str:
        """SHA-256 of the in-process ``qftmcu sweep`` CSV (output witness)."""
        from qftmcu import cli

        self.attempted += 1
        buf = io.StringIO()
        try:
            with self._traced(("run", "sweep")), redirect_stdout(buf):
                rc = cli.main(SWEEP_ARGS)
        except Exception:
            rc = traceback.format_exc()
        text = buf.getvalue()
        if rc != 0 or len(text.splitlines()) != SWEEP_ROWS + 1:
            self.failed += 1
            self.errors.setdefault("sweep", []).append(f"exit {rc}, {len(text.splitlines())} lines")
        return hashlib.sha256(text.encode()).hexdigest()

    def _check(self) -> None:
        """Check each cell's first output; every later output, traced or not,
        must repeat it.  A cell that fails counts all its executions."""
        for cell in self.cells:
            outs = self.plain.get(cell.label, []) + self.traced.get(cell.label, [])
            if not outs:
                continue
            first = outs[0]
            problems = self.wl.check_cell(cell, first)
            for other in outs[1:]:
                if other.output() != first.output():
                    problems.append("output differs between passes or from the traced run")
                    break
            if problems:
                self.failed += len(outs)
                self.errors.setdefault(cell.label, []).extend(problems)

    # -- metrics ----------------------------------------------------------------

    def first(self, cell):
        """The cell's first output, untraced if there is one."""
        outs = self.plain.get(cell.label) or self.traced.get(cell.label) or []
        return outs[0] if outs else None

    def _med(self, cell, attr: str) -> float:
        return median([getattr(o, attr) for o in self.plain.get(cell.label, [])])

    def pass_s(self) -> float:
        """One pass over the cells: the sum of each cell's median seconds."""
        return sum(self._med(c, "compile_s") + self._med(c, "verify_s") for c in self.cells)

    def _norm(self, cell, seconds) -> float:
        """Median over a cell's untraced executions of ``seconds(outcome)``,
        each scaled by the probes around it."""
        scale = self.wl.PROBE_NOMINAL_S
        return median([seconds(o) * scale / o.probe_s for o in self.plain.get(cell.label, [])])

    def pass_norm_s(self) -> float:
        """``pass_s`` with each execution scaled by the probes around it."""
        return sum(self._norm(c, lambda o: o.compile_s + o.verify_s) for c in self.cells)

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        natives = [o for o in map(self.first, self.cells) if o and o.native_gates]
        return {
            "setup_s": setup_s,
            "pass_norm_s": self.pass_norm_s(),
            "native_depth_sum": sum(o.depth for o in natives),
            "native_cx_sum": sum(o.cx for o in natives),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def summary(self) -> dict[str, float]:
        """Workload-specific totals kept in the result file only."""

        def verify_sum(kind: str, tier: str, norm: bool = False) -> float:
            return sum(
                self._norm(c, lambda o: o.verify_s) if norm else self._med(c, "verify_s")
                for c in self.cells
                if c.kind == kind and (self.first(c) and self.first(c).tier == tier)
            )

        outs = [o for o in map(self.first, self.cells) if o]
        return {
            "passes": self.passes,
            "pass_totals_s": [
                sum(o.compile_s + o.verify_s for o in outs_) for outs_ in zip(*self.plain.values())
            ],
            "pass_s": self.pass_s(),
            "probe_s": median([o.probe_s for os_ in self.plain.values() for o in os_]),
            "compile_s": sum(self._med(c, "compile_s") for c in self.cells),
            "verify_unitary_s": verify_sum("verify", "unitary"),
            "verify_statevector_s": verify_sum("verify", "statevector"),
            "verify_unitary_norm_s": verify_sum("verify", "unitary", norm=True),
            "verify_statevector_norm_s": verify_sum("verify", "statevector", norm=True),
            "verify_native_s": verify_sum("native", "unitary"),
            "swaps_sum": sum(o.swaps for o in outs),
            "native_gates_sum": sum(o.native_gates for o in outs),
        }

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics from the traced passes.

        Seconds are span self time, the median over traced passes; the
        once-per-run target draws and sweep are added to their layers' self
        time.  Sizes come from each cell's first output.
        """
        from tracer import by_layer

        selfs = self.tracer.self_times()
        roots = self.tracer.root_times()
        calls = self.tracer.calls()
        per_pass = [{} for _ in range(self.passes)]
        run_level: dict[str, float] = {}
        for (p, _), names in selfs.items():
            into = run_level if p == "run" else per_pass[p]
            for name, secs in names.items():
                into[name] = into.get(name, 0.0) + secs

        def span_s(name: str) -> float:
            return median([m.get(name, 0.0) for m in per_pass])

        def cell_s(cell, name: str) -> float:
            return median([selfs[(p, cell.label)].get(name, 0.0) for p in range(self.passes)])

        metrics = {
            f"{layer}.self_s": median([by_layer(m).get(layer, 0.0) for m in per_pass])
            + by_layer(run_level).get(layer, 0.0)
            for layer in LAYERS
        }
        firsts = [(c, self.first(c)) for c in self.cells if self.first(c)]
        outs = [o for _, o in firsts]
        lower_pts: dict[tuple, list] = {}
        cancel_pts: dict[tuple, list] = {}
        unitary_applies = statevector_applies = 0
        for c, o in firsts:
            if o.native_gates:
                lower_pts.setdefault((c.method, c.arch), []).append(
                    (o.native_gates, cell_s(c, "layout.lower_to_ngs"))
                )
                cancel_pts.setdefault((c.method, c.arch), []).append(
                    (o.native_gates, cell_s(c, "optimizer.cancel_cx_pairs"))
                )
            applied = o.native_gates if c.kind == "native" else o.abstract_gates
            unitary_applies += applied * calls[((0, c.label), "verifier.circuit_unitary")]
            statevector_applies += applied * calls[((0, c.label), "verifier.apply_statevector")]
        cx = sum(o.cx for o in outs)
        traced_outs = [o for os_ in self.traced.values() for o in os_]
        traced_s = sum(o.compile_s + o.verify_s for o in traced_outs)
        traced_pass = sum(
            median([o.compile_s + o.verify_s for o in self.traced.get(c.label, [])])
            for c in self.cells
        )
        in_cells = sum(t for (p, _), t in roots.items() if p != "run")
        metrics.update({
            "synthesis.build_s": span_s("synthesis.build"),
            "synthesis.abstract_gates": sum(o.abstract_gates for o in outs),
            "layout.route_lnn_s": span_s("layout.route_lnn"),
            "layout.swaps_inserted": sum(o.swaps for o in outs),
            "layout.routed_gates": sum(o.routed_gates for o in outs if o.native_gates),
            "layout.lower_to_ngs_s": span_s("layout.lower_to_ngs"),
            "layout.native_gates": sum(o.native_gates for o in outs),
            "layout.lower_to_ngs_growth": growth(lower_pts),
            "circuit.schedule_slots_s": span_s("circuit.schedule_slots"),
            "optimizer.cancel_cx_pairs_s": span_s("optimizer.cancel_cx_pairs"),
            "optimizer.cx_cancellable": sum(o.cx_cancellable for o in outs) / cx if cx else 0.0,
            "optimizer.cancel_cx_pairs_growth": growth(cancel_pts),
            "verifier.circuit_unitary_s": span_s("verifier.circuit_unitary"),
            "verifier.unitary_gate_applies": unitary_applies,
            "verifier.apply_statevector_s": span_s("verifier.apply_statevector"),
            "verifier.statevector_gate_applies": statevector_applies,
            "verifier.max_deviation": max((o.max_deviation for o in traced_outs), default=0.0),
            "linalg.equal_up_to_global_phase_s": span_s("linalg.equal_up_to_global_phase"),
            "trace.overhead_s": traced_pass - self.pass_s(),
            "trace.layer_share": in_cells / traced_s if traced_s else 0.0,
        })
        return metrics

    def rows(self) -> list[dict]:
        """One row per cell: sizes, quality, and median seconds (per layer
        when traced)."""
        selfs = self.tracer.self_times() if self.tracer else {}
        out = []
        for c in self.cells:
            o = self.first(c)
            row = {"kind": c.kind, "method": c.method, "n": c.n, "arch": c.arch}
            if o is not None:
                row.update({
                    "abstract_gates": o.abstract_gates,
                    "routed_gates": o.routed_gates,
                    "native_gates": o.native_gates,
                    "depth": o.depth,
                    "cx": o.cx,
                    "swaps": o.swaps,
                    "model_depth_deviation": o.depth_deviation,
                    "cx_cancellable": o.cx_cancellable,
                    "tier": o.tier,
                    "max_deviation": o.max_deviation,
                    "compile_s": self._med(c, "compile_s"),
                    "verify_s": self._med(c, "verify_s"),
                    "compile_s_each": [x.compile_s for x in self.plain.get(c.label, [])],
                    "verify_s_each": [x.verify_s for x in self.plain.get(c.label, [])],
                    "digest": o.digest,
                })
            if self.tracer:
                names = sorted({n for (p, lbl), d in selfs.items() if lbl == c.label for n in d})
                row["layer_s"] = {
                    n: median([selfs[(p, c.label)].get(n, 0.0) for p in range(self.passes)])
                    for n in names
                }
            row["errors"] = self.errors.get(c.label, [])
            out.append(row)
        return out


def select(spec_metrics: list[dict], values: dict[str, float]) -> dict:
    """The metrics BENCHMARK.json names, in its order, with its units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qftmcu" / "__init__.py").is_file():
        print(f"run.py: no qftmcu sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"run.py: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    # The BLAS pool is sized when numpy is first imported, so pin it first.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import qftmcu

    if Path(qftmcu.__file__).resolve().parent != SRC / "qftmcu":
        print(f"run.py: imported qftmcu from {qftmcu.__file__}, not {SRC}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup(args.seed)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.measure()
    if args.trace:
        metrics = select(spec["per_layer"], run.per_layer())
    else:
        metrics = select(spec["end_to_end"], run.end_to_end(setup_s))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        raise RuntimeError(f"non-finite metric in {metrics}")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "summary": run.summary(),
        "witness": {
            "sweep_csv_sha256": run.sweep_sha256,
            "cells": {c.label: (run.first(c).digest if run.first(c) else None) for c in run.cells},
        },
        "errors": run.errors,
        "cells": run.rows(),
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if run.tracer:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(run.tracer.to_json()) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
