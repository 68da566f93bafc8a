"""Architecture mapping and native-gate-set lowering.

The lowering rules are pinned gate-by-gate against exact unitaries; the
commutation-aware scheduler is held to sameness of the full circuit unitary,
which is the property the whole pipeline stands on, and to the gate order of
the ready-list scan it replaced.
"""

import numpy as np
import pytest

from qftmcu import layout
from qftmcu.circuit import (
    Circuit,
    count_gates,
    cp,
    crx,
    crz,
    cu2,
    cx,
    h,
    p,
    rx,
    ry,
    rz,
    swap,
    sx,
    sxdg,
    u2,
    x,
)
from qftmcu.layout import (
    ARCHES,
    NATIVE_KINDS,
    NativeCircuit,
    _commute_schedule,
    layout_permutation,
    lower_to_ngs,
    model_cx,
    model_depth,
    model_swaps,
    model_sx,
    native_metrics,
    route_lnn,
    synth_native,
)
from qftmcu.linalg import equal_up_to_global_phase
from qftmcu.synthesis import METHODS, SynthConfig, build, expected_counts
from qftmcu.verifier import circuit_unitary, verify_mcu
from tests.conftest import generic_u


def _native_matches_source(circ, tol=1e-12):
    nc = lower_to_ngs(circ)
    assert set(g.kind for g in nc.gates) <= set(NATIVE_KINDS)
    got = circuit_unitary(nc.as_circuit()) * np.exp(1j * nc.global_phase)
    want = circuit_unitary(circ)
    assert np.abs(got - want).max() < tol, f"lowering drifted by {np.abs(got-want).max()}"
    return nc


# -- routing ---------------------------------------------------------------------

def test_route_passthrough_when_adjacent():
    circ = Circuit(3, [cx(1, 2), cx(3, 2), h(1)])
    routed, report = route_lnn(circ)
    assert report.swaps_inserted == 0
    assert routed.gates == circ.gates


def test_route_makes_everything_adjacent(u_gen):
    for method in ("mcu-mod", "mcu-zyz", "ldd"):
        circ = build(SynthConfig(method, 6, u=u_gen))
        routed, _ = route_lnn(circ)
        for g in routed.gates:
            if g.control is not None:
                assert abs(g.control - g.target) == 1


def test_route_carried_permutation_relation():
    # The routed circuit equals (final-layout permutation) o (original).
    circ = Circuit(4, [cx(1, 4)])
    routed, report = route_lnn(circ)
    assert report.swaps_inserted == 2
    assert report.final_layout != (1, 2, 3, 4)
    perm = layout_permutation(report.final_layout)
    u_routed = circuit_unitary(routed)
    u_orig = circuit_unitary(circ)
    assert np.abs(u_routed - perm @ u_orig).max() < 1e-12


@pytest.mark.parametrize("method", ["mcu-mod", "mcu-zyz", "ldd"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_route_preserves_logical_unitary(method, n, u_gen):
    circ = build(SynthConfig(method, n, u=u_gen))
    routed, report = route_lnn(circ)
    perm = layout_permutation(report.final_layout)
    u_logical = perm.T @ circuit_unitary(routed)
    ok, _, dev = equal_up_to_global_phase(u_logical, circuit_unitary(circ), 1e-10)
    assert ok, f"{method} n={n} dev={dev}"


def test_route_swap_counts_are_reported_not_forced(u_gen):
    # Our greedy carried-permutation router happens to match the closed-form
    # 2n^2-6n+6 at n=5 (both 26) and exceeds it for larger n; the count is
    # reporting data, so the n=5 coincidence is frozen and the deviation at
    # n=6 is asserted to stay visible rather than silently "fixed".
    _, rep5 = route_lnn(build(SynthConfig("mcu-mod", 5, u=u_gen)))
    assert rep5.swaps_inserted == 26 == model_swaps("mcu-mod", 5)
    _, rep6 = route_lnn(build(SynthConfig("mcu-mod", 6, u=u_gen)))
    assert rep6.swaps_inserted != model_swaps("mcu-mod", 6)


def test_layout_permutation_identity():
    assert np.array_equal(layout_permutation((1, 2, 3)), np.eye(8))


# -- lowering: per-kind exactness ---------------------------------------------------

def test_lower_h_rule():
    nc = _native_matches_source(Circuit(1, [h(1)]))
    assert [g.kind for g in nc.gates] == ["Rz", "SX", "Rz"]
    assert all(g.params == (np.pi / 2,) for g in nc.gates if g.kind == "Rz")
    assert abs(nc.global_phase - np.pi / 4) < 1e-12


def test_lower_cp_rule():
    nc = _native_matches_source(Circuit(2, [cp(np.pi / 2, 1, 2)]))
    assert len(nc.gates) == 5
    assert nc.depth() == 4


def test_lower_swap_rule():
    nc = _native_matches_source(Circuit(2, [swap(1, 2)]))
    assert [g.kind for g in nc.gates] == ["CX", "CX", "CX"]


def test_lower_cu2_stays_within_budget(u_gen):
    from qftmcu.gate_algebra import zyz_decompose

    nc = _native_matches_source(Circuit(2, [cu2(zyz_decompose(u_gen), 1, 2)]))
    assert len(nc.gates) <= 14


@pytest.mark.parametrize(
    "gate",
    [
        x(1), sx(1), sxdg(1), rz(0.7, 1), ry(-1.1, 1), rx(0.6, 1), p(2.2, 1),
        u2((0.3, 0.5, 1.0, -0.7), 1),
        cx(1, 2), cp(-0.9, 2, 1), crz(1.3, 1, 2), crx(0.8, 1, 2),
        swap(2, 1),
    ],
    ids=lambda g: f"{g.kind}@{g.target}",
)
def test_lower_single_gate_exact(gate):
    width = 2 if gate.wires() != (1,) else 1
    _native_matches_source(Circuit(width, [gate]))


def test_lower_drops_zero_rotations():
    nc = lower_to_ngs(Circuit(1, [rz(0.0, 1)]))
    assert nc.gates == []


def test_lower_merges_adjacent_rz():
    nc = lower_to_ngs(Circuit(1, [rz(0.3, 1), rz(0.4, 1)]))
    assert len(nc.gates) == 1
    assert nc.gates[0].params == (pytest.approx(0.7),)


def test_lower_cancelling_rz_vanishes():
    nc = lower_to_ngs(Circuit(1, [rz(0.3, 1), rz(-0.3, 1)]))
    assert nc.gates == []


# -- the commutation-aware scheduler ------------------------------------------------

def _random_abstract(rng, n=4, length=60):
    gates = []
    for _ in range(length):
        kind = rng.integers(0, 6)
        wires = rng.permutation(np.arange(1, n + 1))[:2]
        t, c = int(wires[0]), int(wires[1])
        angle = float(rng.uniform(-np.pi, np.pi))
        gates.append(
            [h(t), x(t), rz(angle, t), cx(c, t), cp(angle, c, t), swap(c, t)][kind]
        )
    return Circuit(n, gates)


def test_scheduler_only_reorders_commuting_gates():
    # Randomized soundness battery: the lowered unitary must track the source
    # exactly no matter how the greedy scheduler interleaves the gates.
    rng = np.random.default_rng(77)
    for _ in range(25):
        circ = _random_abstract(rng)
        _native_matches_source(circ, tol=1e-11)


def test_scheduler_is_deterministic(u_gen):
    circ = build(SynthConfig("mcu-mod", 6, u=u_gen))
    a = lower_to_ngs(circ)
    b = lower_to_ngs(circ)
    assert a.gates == b.gates
    assert a.global_phase == b.global_phase


def _reference_schedule(gates, n):
    """The O(m * |ready|) scan ``_commute_schedule`` replaced, kept as its
    reference: same commutation DAG, and each step emits the ready gate with
    the least (start, index), found by scanning the whole ready list."""
    m = len(gates)
    succs = [[] for _ in range(m)]
    indeg = [0] * m
    run = {}
    for i, g in enumerate(gates):
        for w in g.wires():
            basis = "z" if g.kind == "Rz" or (g.kind == "CX" and w == g.control) else "x"
            st = run.get(w)
            if st is None:
                run[w] = (basis, [i], [])
            elif st[0] == basis:
                for q in st[2]:
                    succs[q].append(i)
                    indeg[i] += 1
                st[1].append(i)
            else:
                for q in st[1]:
                    succs[q].append(i)
                    indeg[i] += 1
                run[w] = (basis, [i], st[1])
    ready = [i for i in range(m) if indeg[i] == 0]
    avail = [0] * (n + 1)
    order = []
    while ready:
        start, best = min((max(avail[w] for w in gates[i].wires()), i) for i in ready)
        ready.remove(best)
        order.append(best)
        for w in gates[best].wires():
            avail[w] = start + 1
        for s in succs[best]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    return [gates[i] for i in order]


def _assert_schedules_like_reference(gates, n):
    got = _commute_schedule(gates, n)
    assert [id(g) for g in got] == [id(g) for g in _reference_schedule(gates, n)]


def test_scheduler_matches_reference_on_random_native_lists():
    # Few wires and a small pool of CX pairs: many gates tie on their start
    # and several ready gates share one wire tuple (Rz runs on a wire, CX
    # with a common control or a common target).
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(3, 7))
        pool = [tuple(int(w) for w in rng.permutation(np.arange(1, n + 1))[:2]) for _ in range(3)]
        gates = []
        for _ in range(int(rng.integers(1, 80))):
            t = int(rng.integers(1, n + 1))
            kind = rng.choice(["CX", "CX", "Rz", "Rz", "SX", "X"])
            if kind == "CX":
                gates.append(cx(*pool[int(rng.integers(len(pool)))]))
            elif kind == "Rz":
                gates.append(rz(float(rng.uniform(-np.pi, np.pi)), t))
            else:
                gates.append(sx(t) if kind == "SX" else x(t))
        _assert_schedules_like_reference(gates, n)


@pytest.mark.parametrize("arch", ARCHES)
@pytest.mark.parametrize("method", METHODS)
def test_scheduler_matches_reference_on_lowered_builds(method, arch, u_gen, monkeypatch):
    # Every list lower_to_ngs hands the scheduler, n = 5..12.
    checked = []

    def checking(gates, n):
        _assert_schedules_like_reference(gates, n)
        checked.append(n)
        return _commute_schedule(gates, n)

    monkeypatch.setattr(layout, "_commute_schedule", checking)
    u = None if method == "mcx-qft" else u_gen
    for n in range(5, 13):
        synth_native(SynthConfig(method, n, u), arch)
    assert checked == list(range(5, 13))


# -- end-to-end pipeline -----------------------------------------------------------

@pytest.mark.parametrize("method", ["mcx-qft", "mcu-mod", "mcu-zyz", "ldd"])
@pytest.mark.parametrize("arch", ["fc", "lnn"])
def test_pipeline_matches_oracle(method, arch, u_gen):
    n = 5
    u = np.array([[0, 1], [1, 0]], dtype=complex) if method == "mcx-qft" else u_gen
    cfg = SynthConfig(method, n, u=None if method == "mcx-qft" else u_gen)
    res = verify_mcu(synth_native(cfg, arch=arch), u)
    assert res.ok, f"{method}/{arch} dev={res.max_deviation}"
    assert abs(res.global_phase) < 1e-9


def test_pipeline_rejects_unknown_arch(u_gen):
    with pytest.raises(ValueError):
        synth_native(SynthConfig("mcu-mod", 4, u=u_gen), arch="ring")


def test_pipeline_stamps_provenance(u_gen):
    nc = synth_native(SynthConfig("mcu-mod", 5, u=u_gen), arch="lnn")
    assert (nc.method, nc.n, nc.arch) == ("mcu-mod", 5, "lnn")
    assert nc.abstract_slots == 22
    assert nc.swaps_inserted == 26


# -- metrics and the closed-form models ----------------------------------------------

def test_model_values_at_n5():
    assert model_depth("mcu-mod", 5) == 114
    assert model_cx("mcu-mod", 5) == 48
    assert model_depth("mcu-zyz", 5) == 116
    assert model_cx("mcu-zyz", 5) == 62
    assert model_sx("mcu-mod", 5) == 12 * 3
    assert model_swaps("mcu-zyz", 5) == 32


def test_model_lnn_additive_terms():
    n = 5
    assert model_depth("mcu-mod", n, "lnn") == model_depth("mcu-mod", n) + 24 * n - 64
    assert model_depth("mcu-zyz", n, "lnn") == model_depth("mcu-zyz", n) + 24 * n - 52
    # each routing SWAP lowers to three CX
    assert model_cx("mcu-mod", n, "lnn") == model_cx("mcu-mod", n) + 3 * model_swaps("mcu-mod", n)
    assert model_cx("mcu-zyz", n, "lnn") == model_cx("mcu-zyz", n) + 3 * model_swaps("mcu-zyz", n)
    assert model_depth("ldd", n) is None


def test_model_cx_lnn_matches_built_circuit(u_gen):
    # At n=5 the greedy router inserts exactly model_swaps (26) SWAPs.
    nc = synth_native(SynthConfig("mcu-mod", 5, u=u_gen), arch="lnn")
    assert nc.swaps_inserted == model_swaps("mcu-mod", 5)
    assert nc.counts()["CX"] == model_cx("mcu-mod", 5, "lnn") == 126


def test_model_cx_follows_pinned_counts():
    # Lowering spends 2 CX per CP and CU2 and 1 per CX and never removes one,
    # so the FC CX model is tied to the abstract counts AC3 pins exactly.
    for method in ("mcu-mod", "mcu-zyz"):
        for n in range(4, 21):
            c = expected_counts(method, n)
            want = 2 * c["CP"] + 2 * c.get("CU2", 0) + c["CX"]
            assert model_cx(method, n) == want, f"{method} n={n}"


def test_model_sx_matches_built_circuits(u_gen):
    # SX comes only from the lowering templates and is never merged away.
    for n in range(4, 21):
        assert model_sx("mcu-mod", n) == 12 * (n - 2)
        assert model_sx("mcu-zyz", n) == 4 * n - 2
        for method in ("mcu-mod", "mcu-zyz"):
            nc = synth_native(SynthConfig(method, n, u=u_gen))
            assert nc.counts()["SX"] == model_sx(method, n), f"{method} n={n}"


def test_metrics_fields(u_gen):
    nc = synth_native(SynthConfig("mcu-mod", 5, u=u_gen))
    m = native_metrics(nc)
    assert nc.method == "mcu-mod" and nc.n == 5 and nc.arch == "fc"
    assert m.depth == nc.depth()
    assert m.counts == nc.counts()
    assert m.model_depth == 114
    assert m.depth_deviation == pytest.approx((m.depth - 114) / 114)
    assert m.model_cx == 48
    assert m.cx_deviation == pytest.approx((m.counts["CX"] - 48) / 48)
    assert m.cx_deviation == 0
    assert m.cx_cancellable >= 0


def test_metrics_empty_circuit():
    m = native_metrics(NativeCircuit(3, []))
    assert m.depth == 0
    assert m.counts == {"CX": 0, "Rz": 0, "SX": 0, "X": 0}
    assert m.model_depth is None and m.depth_deviation is None


def test_native_depth_slope_brackets(u_gen):
    # Linear growth, with mcu-mod's slope inside the [30, 38] bracket around
    # the closed-form coefficient 34.  The commutation-aware scheduler packs
    # mcu-zyz tighter than the model's 32 (measured slope 26), so for zyz the
    # assertions freeze that below-bracket behavior: linear, at most 36, and
    # strictly under the 28 floor so any regression back toward the model is
    # surfaced for review rather than silently absorbed.
    ns = np.arange(5, 15)
    slopes = {}
    for method in ("mcu-mod", "mcu-zyz"):
        depths = np.array(
            [synth_native(SynthConfig(method, int(n), u=u_gen)).depth() for n in ns]
        )
        slope, intercept = np.polyfit(ns, depths, 1)
        fit = slope * ns + intercept
        ss_res = float(np.sum((depths - fit) ** 2))
        ss_tot = float(np.sum((depths - depths.mean()) ** 2))
        assert 1 - ss_res / ss_tot >= 0.99
        slopes[method] = slope
    assert 30 <= slopes["mcu-mod"] <= 38, f"mod slope={slopes['mcu-mod']:.2f}"
    assert slopes["mcu-zyz"] <= 36
    assert slopes["mcu-zyz"] < 28, f"zyz slope={slopes['mcu-zyz']:.2f}"
