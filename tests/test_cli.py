"""Command-line front end: artifacts, determinism, exit codes."""

import csv
import json

import numpy as np
import pytest

from qftmcu.circuit import from_json
from qftmcu.cli import CSV_COLUMNS, main
from qftmcu.layout import model_depth
from qftmcu.linalg import equal_up_to_global_phase
from qftmcu.verifier import circuit_unitary, mcu_oracle


def run(*argv):
    return main(list(argv))


# -- synth -------------------------------------------------------------------

def test_synth_writes_circuit_json(tmp_path):
    out = tmp_path / "c.json"
    code = run("synth", "--method", "mcu-mod", "--n", "5", "--u", "X", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "qftmcu-circuit"
    assert doc["method"] == "mcu-mod"
    assert doc["n"] == 5
    assert doc["abstract_slots"] == 22
    circ = from_json(json.dumps(doc["circuit"]))
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    ok, _, _ = equal_up_to_global_phase(circuit_unitary(circ), mcu_oracle(X, 5), 1e-9)
    assert ok


def test_synth_stdout_default(capsys):
    assert run("synth", "--method", "mcx-qft", "--n", "4") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["u"] is None
    assert doc["counts"]["CP"] == 13


def test_synth_angles_payload(tmp_path):
    out = tmp_path / "c.json"
    code = run(
        "synth", "--method", "mcu-zyz", "--n", "4",
        "--angles", "0.3,0.4,1.1,-0.2", "--out", str(out),
    )
    assert code == 0
    from qftmcu.gate_algebra import u2_mat

    doc = json.loads(out.read_text())
    want = u2_mat(0.3, 0.4, 1.1, -0.2)
    got = np.array([[complex(re, im) for re, im in row] for row in doc["u"]])
    assert np.abs(got - want).max() < 1e-12


def test_synth_seed_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("synth", "--method", "mcu-mod", "--n", "4", "--seed", "9", "--out", str(a))
    run("synth", "--method", "mcu-mod", "--n", "4", "--seed", "9", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# -- verify -------------------------------------------------------------------

def test_synth_then_verify_pass(tmp_path):
    out = tmp_path / "v.json"
    code = run("verify", "--method", "mcu-zyz", "--n", "5", "--u", "X", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["max_deviation"] <= 1e-9
    assert doc["tier"] == "unitary"


def test_verify_truncated_circuit_fails(tmp_path):
    out = tmp_path / "v.json"
    code = run(
        "verify", "--method", "mcu-mod", "--n", "5", "--seed", "3",
        "--aqft", "1", "--out", str(out),
    )
    assert code == 3
    assert json.loads(out.read_text())["pass"] is False


# -- optimize -----------------------------------------------------------------

def test_optimize_reports_merge_delta(tmp_path):
    out = tmp_path / "o.json"
    code = run(
        "optimize", "--method", "mcx-qft", "--n", "5",
        "--optimize", "merge", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passes"] == [{
        "pass": "merge", "gates_before": 59, "gates_after": 41,
        "slots_before": 34, "slots_after": 26,
    }]


def test_optimize_truncates_after_its_passes(tmp_path):
    flags = ("--method", "mcx-qft", "--n", "7", "--aqft", "3")
    opt, syn = tmp_path / "o.json", tmp_path / "s.json"
    assert run("optimize", *flags, "--optimize", "merge", "--out", str(opt)) == 0
    assert run("synth", *flags, "--out", str(syn)) == 0
    got, want = json.loads(opt.read_text()), json.loads(syn.read_text())
    assert got["counts"] == want["counts"] == {"CP": 38, "H": 22, "X": 2}
    assert got["circuit"] == want["circuit"]


def test_optimize_rejects_unknown_pass():
    # cp-to-crz and cancel-cx are the names of deleted passes.
    for name in ("fuse", "cp-to-crz", "cancel-cx"):
        assert run("optimize", "--method", "mcx-qft", "--n", "4", "--optimize", name) == 2


def test_optimize_exits_two_when_a_pass_refuses(capsys):
    argv = ("optimize", "--method", "mcx-qft", "--n", "5", "--optimize", "ldd-to-qft")
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qftmcu: not a linear-depth circuit: contains Hadamards\n"


# -- metrics and sweep ------------------------------------------------------------

def test_metrics_csv_schema(tmp_path):
    out = tmp_path / "m.csv"
    code = run(
        "metrics", "--method", "mcu-mod", "--n", "5", "--u", "X", "--out", str(out),
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == list(CSV_COLUMNS)
    row = dict(zip(rows[0], rows[1]))
    assert row["n"] == "5"
    assert row["method"] == "mcu-mod"
    assert row["arch"] == "fc"
    assert row["paper_depth_formula"] == str(model_depth("mcu-mod", 5))
    assert float(row["deviation"]) == pytest.approx(
        (int(row["native_depth"]) - 114) / 114, abs=1e-4
    )


def test_metrics_json_is_one_row_object(capsys):
    flags = ("metrics", "--method", "mcu-mod", "--n", "5", "--u", "X", "--arch", "lnn")
    assert run(*flags, "--format", "json") == 0
    row = json.loads(capsys.readouterr().out)
    # The JSON row adds the Rz sums lowering left out to the CSV columns.
    assert list(row) == sorted((*CSV_COLUMNS, "dropped_rz", "dropped_rz_sum"))
    # With payload X one parity sums to 6.1e-17, and lowering leaves it out.
    assert row["dropped_rz"] == 1 and 0 < row["dropped_rz_sum"] < 1e-16
    assert run(*flags) == 0
    (want,) = csv.DictReader(capsys.readouterr().out.splitlines())
    assert {k: str(row[k]) for k in CSV_COLUMNS} == want
    assert row["swap_inserted"] > 0


def test_sweep_json_rows_equal_the_csv_rows(capsys):
    argv = ("sweep", "--n", "4..5", "--seed", "3", "--arch", "lnn")
    assert run(*argv, "--format", "json") == 0
    rows = json.loads(capsys.readouterr().out)
    assert run(*argv) == 0
    want = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [{k: str(r[k]) for k in CSV_COLUMNS} for r in rows] == want
    assert len(rows) == 2 * 3


def test_sweep_fixed_payload_is_shared_by_every_width(capsys):
    # --u fixes the payload of every row, so each row equals metrics with
    # the same --u.
    assert run("sweep", "--n", "4..5", "--methods", "mcu-zyz", "--u", "X") == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    for row in rows:
        assert run("metrics", "--method", "mcu-zyz", "--n", row["n"], "--u", "X") == 0
        (want,) = csv.DictReader(capsys.readouterr().out.splitlines())
        assert row == want
    assert [r["n"] for r in rows] == ["4", "5"]


def test_sweep_deterministic_and_ordered(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ("sweep", "--n", "4..9", "--seed", "7")
    assert run(*argv, "--out", str(a)) == 0
    assert run(*argv, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()

    rows = list(csv.DictReader(a.read_text().splitlines()))
    methods = {r["method"] for r in rows}
    assert methods == {"mcu-mod", "mcu-zyz", "ldd"}
    # ldd needs n >= 3, so every n in 4..9 carries all three methods.
    assert len(rows) == 6 * 3
    by_n = {}
    for r in rows:
        by_n.setdefault(int(r["n"]), {})[r["method"]] = int(r["native_depth"])
    for n, depth in by_n.items():
        if n >= 6:
            assert depth["mcu-zyz"] < depth["ldd"], f"n={n}"


def test_sweep_single_point(tmp_path):
    out = tmp_path / "s.csv"
    assert run("sweep", "--n", "6", "--methods", "mcu-zyz", "--seed", "1",
               "--out", str(out)) == 0
    (row,) = list(csv.DictReader(out.read_text().splitlines()))
    assert row["method"] == "mcu-zyz"
    assert row["aqft_cutoff"] == ""


# -- usage errors ------------------------------------------------------------------

def test_usage_errors_exit_two():
    assert run("synth", "--method", "ldd", "--n", "2", "--u", "X") == 2
    assert run("synth", "--method", "mcu-mod", "--n", "4") == 2
    assert run("synth", "--method", "mcx-qft", "--n", "4", "--u", "X") == 2
    assert run("synth", "--method", "mcu-mod", "--n", "4", "--u", "Q") == 2
    assert run("synth", "--method", "mcu-mod", "--n", "4", "--angles", "1,2") == 2
    assert run("synth", "--method", "mcu-mod", "--n", "4", "--u", "X",
               "--seed", "1") == 2
    assert run("sweep", "--methods", "mcu-mod") == 2
    assert run("sweep", "--n", "9..4") == 2
    assert run("sweep", "--n", "4..6", "--methods", "qaoa") == 2


def test_argparse_rejects_unknown_method():
    with pytest.raises(SystemExit) as exc:
        run("synth", "--method", "toffoli", "--n", "4")
    assert exc.value.code == 2
