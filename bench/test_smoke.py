"""Fast self-test of the benchmark on a tiny grid.

    python -m pytest bench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the traced passes span every layer and leave the program as they found it,
that the output checks catch a circuit with one gate dropped, and that the
benchmark refuses to run without the program's sources.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import qftmcu.synthesis  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "fc-wide": [("compile", "mcu-mod", 5, "fc"), ("compile", "mcx-qft", 6, "fc")],
    "lnn-route": [("compile", "ldd", 5, "lnn"), ("compile", "ldd", 6, "lnn")],
    "verify-mix": [
        ("verify", "mcu-zyz", 5, "fc"),
        ("verify", "mcu-mod", 13, "fc"),
        ("native", "mcu-mod", 5, "lnn"),
    ],
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def tiny_grid(monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)


def measure(workload: str, trace: bool) -> run.Run:
    r = run.Run(workload, seed=3, seconds=0, trace=trace)
    r.measure()
    return r


def test_spec_workloads_match_the_grid():
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY)


@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_is_emitted_with_its_unit(workload):
    plain = measure(workload, trace=False)
    assert plain.failed == 0, plain.errors
    e2e = run.select(SPEC["end_to_end"], plain.end_to_end(setup_s=0.5))
    traced = measure(workload, trace=True)
    assert traced.failed == 0, traced.errors
    layers = run.select(SPEC["per_layer"], traced.per_layer())
    for spec_metrics, got in ((SPEC["end_to_end"], e2e), (SPEC["per_layer"], layers)):
        assert list(got) == [m["name"] for m in spec_metrics]
        for m in spec_metrics:
            assert got[m["name"]]["unit"] == m["unit"]
            assert math.isfinite(got[m["name"]]["value"])
    assert all(v["value"] > 0 for v in e2e.values()), e2e


def test_traced_passes_span_every_layer_and_restore_the_program():
    functions, modules = workloads.traced_functions()
    ids = {id(fn) for fn in functions}

    def bindings():
        return {(m.__name__, k): v for m in modules for k, v in vars(m).items() if id(v) in ids}

    bound = bindings()
    r = measure("verify-mix", trace=True)
    assert r.failed == 0, r.errors
    assert {name.split(".")[0] for name, *_ in r.tracer.spans} == set(run.LAYERS)
    assert bindings() == bound
    layers = r.per_layer()
    assert 0.9 < layers["trace.layer_share"] <= 1.0
    assert layers["verifier.unitary_gate_applies"] > 0
    assert layers["verifier.statevector_gate_applies"] > 0


def _drop_one(gates):
    gates = list(gates)
    del gates[len(gates) // 2]
    return gates


@pytest.mark.parametrize("workload", list(TINY))
def test_a_dropped_abstract_gate_fails_every_cell(workload, monkeypatch):
    real_build = qftmcu.synthesis.build

    def dropping_build(cfg):
        circ = real_build(cfg)
        return qftmcu.circuit.Circuit(circ.n, _drop_one(circ.gates))

    monkeypatch.setattr(qftmcu.synthesis, "build", dropping_build)
    monkeypatch.setattr(workloads, "build", dropping_build)
    r = measure(workload, trace=False)
    assert set(r.errors) == {c.label for c in r.cells}
    assert r.failed == r.attempted - 1  # all but the sweep witness


def test_a_dropped_native_gate_fails_the_oracle_check(monkeypatch):
    real = workloads.synth_native

    def dropping_synth_native(cfg, arch="fc"):
        nc = real(cfg, arch=arch)
        return replace(nc, gates=_drop_one(nc.gates))

    monkeypatch.setattr(workloads, "synth_native", dropping_synth_native)
    r = measure("verify-mix", trace=False)
    native = [c.label for c in r.cells if c.kind == "native"]
    assert native and set(r.errors) == set(native)
    assert r.failed == len(native) * r.passes


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fc-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
