"""Frozen outputs: what the program emits, held to recorded digests.

Each cell lowers one build to the native set, hashes its gate list, counts
and depth, and keeps its global phase and, in plain text beside them, its
native gate count, CX count and depth; two more digests cover the ``qftmcu
sweep`` CSV.  A refactor that claims to change no output passes only if every
digest still matches and every phase agrees to 1e-9 (mod 2 pi).  Angles are
rounded to 1e-9 before hashing, which keeps the digests stable under last-bit
float differences.  The phase is compared, not hashed: it is a sum of
thousands of terms, and a phase near a multiple of 1e-9 can land on either
side of a rounding boundary.  The plain-text counts are not compared (the
digest covers them); they make a regenerated fixture's diff readable.

A change that moves an output on purpose regenerates the file and says which
cells moved and why:

    PYTHONPATH=src python tests/test_frozen_outputs.py --write

The rewrite keeps an entry byte-for-byte when its digest is equal and its
phase agrees to 1e-12, drops the cells that left the grid, and prints the
entries it added or changed, with the old and new counts of each.  Its last
lines tally the changed entries per method and target (a sweep on its own):
how many moved, and in how many the CX count rose or fell, the depth rose or
fell, or the native gate count rose.
"""

import csv
import hashlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from qftmcu.cli import main
from qftmcu.layout import ARCHES, synth_native
from qftmcu.synthesis import METHODS, SynthConfig

FIXTURE = Path(__file__).with_name("frozen_outputs.json")
MCU_METHODS = ("mcu-mod", "mcu-zyz", "ldd")
WIDE_FC = (24, 32, 40)
WIDE_LNN = (16, 20)
PAYLOADS = {
    "I": np.eye(2, dtype=complex),
    "-I": -np.eye(2, dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
}
SWEEPS = {
    "sweep fc --n 3..14": ["sweep", "--n", "3..14"],
    "sweep lnn --n 4..10": ["sweep", "--arch", "lnn", "--n", "4..10"],
}


def _r(v: float) -> float:
    return round(v, 9) + 0.0  # + 0.0 turns -0.0 into 0.0


def _record(nc) -> list:
    """[SHA-256 of the gate list, counts and depth; the global phase; the
    native gates, CX and depth as text]."""
    gates = [(g.kind, g.target, g.control, tuple(_r(v) for v in g.params)) for g in nc.gates]
    counts, depth = nc.counts(), nc.depth()
    record = (gates, sorted(counts.items()), depth)
    text = f"{len(nc.gates)} gates, {counts['CX']} CX, depth {depth}"
    return [hashlib.sha256(repr(record).encode()).hexdigest(), nc.global_phase, text]


def _cells():
    """(name, SynthConfig, arch) for every frozen cell."""
    from tests.conftest import generic_u

    u = generic_u(0)
    for method in METHODS:
        payload = None if method == "mcx-qft" else u
        for n in range(3, 15):
            for arch in ARCHES:
                yield f"{method}/n={n}/{arch}", SynthConfig(method, n, payload), arch
        # Wide cells, where the scheduler's ready set and the routed CX
        # streams are large.
        for n in WIDE_FC:
            yield f"{method}/n={n}/fc", SynthConfig(method, n, payload), "fc"
        if method in MCU_METHODS:
            for n in WIDE_LNN:
                yield f"{method}/n={n}/lnn", SynthConfig(method, n, payload), "lnn"
    for method in MCU_METHODS:
        for name, payload in PAYLOADS.items():
            yield f"{method}/n=5/fc/u={name}", SynthConfig(method, 5, payload), "fc"


def _sweep_record(argv: list[str], tmp: Path) -> list:
    """[SHA-256 of the CSV; no phase; its native gates, CX and depth summed
    over its rows, as text]."""
    out = tmp / "sweep.csv"
    assert main(argv + ["--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    gates, cx, depth = (
        sum(int(r[k]) for r in rows for k in keys)
        for keys in (("cx", "rz", "sx", "x"), ("cx",), ("native_depth",))
    )
    text = f"{gates} gates, {cx} CX, depth {depth} over {len(rows)} rows"
    return [hashlib.sha256(out.read_bytes()).hexdigest(), None, text]


def _current(tmp: Path) -> dict[str, list]:
    got = {name: _record(synth_native(cfg, arch)) for name, cfg, arch in _cells()}
    got.update({name: _sweep_record(argv, tmp) for name, argv in SWEEPS.items()})
    return got


def _same(got: list, want: list, tol: float = 1e-9) -> bool:
    if got[0] != want[0]:
        return False
    return want[1] is None or abs(math.remainder(got[1] - want[1], 2 * math.pi)) < tol


def test_outputs_match_frozen_digests(tmp_path):
    want = json.loads(FIXTURE.read_text())
    got = _current(tmp_path)
    assert got.keys() == want.keys(), "cell grid changed; regenerate the fixture"
    moved = [name for name in want if not _same(got[name], want[name])]
    assert not moved, f"{len(moved)} of {len(want)} cells moved: {moved}"


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_frozen_outputs.py --write")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    with tempfile.TemporaryDirectory() as tmp:
        digests = _current(Path(tmp))
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    moved = {n for n in digests if n not in old or not _same(digests[n], old[n], 1e-12)}
    entries = {name: digests[name] if name in moved else old[name] for name in digests}
    lines = [f"  {json.dumps(name)}: {json.dumps(entries[name])}" for name in sorted(entries)]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    dropped = sorted(old.keys() - digests.keys())
    print(f"wrote {len(entries)} digests to {FIXTURE}: "
          f"{len(moved)} added or changed, {len(dropped)} dropped")
    for name in sorted(moved):
        was = old[name][2] if name in old else "new"
        print(f"  changed {name}: {was} -> {digests[name][2]}")
    for name in dropped:
        print(f"  dropped {name}")
    # (gates, CX, depth) of each changed entry that was there before, by
    # method and target ("ldd/lnn"; a sweep by its own name)
    pairs: dict[str, list] = {}
    for name in sorted(moved & old.keys()):
        group = "/".join(name.split("/")[0:3:2])
        pairs.setdefault(group, []).append(
            [[int(v) for v in re.findall(r"\d+", rec[2])[:3]] for rec in (old[name], digests[name])]
        )
    for group, rows in pairs.items():
        print(f"tally {group}: {len(rows)} moved, "
              f"{sum(b[1] > a[1] for a, b in rows)} CX rose, "
              f"{sum(b[1] < a[1] for a, b in rows)} CX fell, "
              f"{sum(b[2] > a[2] for a, b in rows)} depth rose, "
              f"{sum(b[2] < a[2] for a, b in rows)} depth fell, "
              f"{sum(b[0] > a[0] for a, b in rows)} gates rose")
