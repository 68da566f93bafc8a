"""Acceptance gate: the ten criteria the toolkit is judged against.

Each test prints one `AC<k>: PASS/FAIL` line (visible in the -rA summary)
with the measured numbers next to the pinned tolerance, then asserts.  The
criteria that compare against closed-form depth/count models log every row
before any assertion fires, so a red row is always accompanied by its data.
"""

import time

import numpy as np

from qftmcu.circuit import count_gates, schedule_slots
from qftmcu.gate_algebra import (
    abc_split,
    random_unitary,
    root,
    u2_mat,
    zyz_decompose,
)
from qftmcu.layout import (
    lower_to_ngs,
    model_cx,
    model_depth,
    route_lnn,
    synth_native,
)
from qftmcu.linalg import equal_up_to_global_phase
from qftmcu.optimizer import (
    cancel_cx_pairs,
    cancel_x_pair,
    collapse_cx,
    ldd_to_qft,
    merge_phase_columns,
)
from qftmcu.synthesis import (
    METHODS,
    SynthConfig,
    apply_aqft,
    build,
    default_aqft_cutoff,
    expected_counts,
)
from qftmcu.verifier import circuit_unitary, mcu_oracle, verify_mcu
from tests.conftest import generic_u
from tests.oracles import identity_battery, structural_equal

X = np.array([[0, 1], [1, 0]], dtype=complex)
U_GEN = generic_u(0)


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'} — {detail}")


def _r_squared(ns, ys):
    ns = np.asarray(ns, dtype=float)
    ys = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(ns, ys, 1)
    fit = slope * ns + intercept
    ss_res = float(np.sum((ys - fit) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    return 1 - ss_res / ss_tot, slope


# -- AC1: oracle equivalence over methods x arch x n x draws -------------------------


def test_ac1_oracle_equivalence():
    """Every method/arch/width build matches the brute-force oracle at 1e-9.

    The grid's size is pinned: 1158 builds checked unrouted and routed, plus
    120 native pipelines.  Its wall time is printed, not asserted: it tracks
    the machine's load more than the program.
    """
    t0 = time.perf_counter()
    tol = 1e-9
    failures = []
    worst = 0.0
    checks = 0

    def compare(circ, u, tag):
        nonlocal worst, checks
        got = circuit_unitary(circ)
        ok, _, dev = equal_up_to_global_phase(got, mcu_oracle(u, circ.n), tol)
        checks += 1
        worst = max(worst, dev)
        if not ok:
            failures.append((tag + "/fc", dev))
        res = verify_mcu(route_lnn(circ), u, tol)
        checks += 1
        worst = max(worst, res.max_deviation)
        if not res.ok:
            failures.append((tag + "/lnn", res.max_deviation))

    for n in range(2, 10):
        for mi, method in enumerate(METHODS):
            if method == "ldd" and n < 3:
                continue
            if method == "mcx-qft":
                # The payload is pinned to X; one build covers the cell.
                compare(build(SynthConfig(method, n)), X, f"mcx/n{n}")
                continue
            rng = np.random.default_rng(1000 * n + mi)
            for draw in range(50):
                u = random_unitary(rng)
                circ = build(SynthConfig(method, n, u=u))
                compare(circ, u, f"{method}/n{n}/d{draw}")

    # Thin native-pipeline grid: same oracle, after routing *and* lowering.
    for n in range(3, 8):
        for mi, method in enumerate(METHODS):
            rng = np.random.default_rng(5000 * n + mi)
            for _ in range(3):
                u = X if method == "mcx-qft" else random_unitary(rng)
                cfg = SynthConfig(method, n, u=None if method == "mcx-qft" else u)
                for arch in ("fc", "lnn"):
                    res = verify_mcu(synth_native(cfg, arch=arch), u, tol)
                    checks += 1
                    worst = max(worst, res.max_deviation)
                    # The tracked phase must be exact: its residual reads 0.
                    if not res.ok or abs(res.global_phase) >= tol:
                        failures.append(
                            (f"native/{method}/{arch}/n{n}", res.max_deviation, res.global_phase)
                        )

    elapsed = time.perf_counter() - t0
    ok = not failures and checks == 2436
    _verdict(
        "AC1",
        ok,
        f"{checks} oracle comparisons (grid of 2436), worst deviation {worst:.2e} "
        f"(tol 1e-9), {elapsed:.1f}s",
    )
    assert not failures, failures[:10]
    assert checks == 2436


# -- AC2: abstract slot formulas, exact ------------------------------------------


def test_ac2_slot_formulas():
    bad = []
    for n in range(4, 21):
        mod = schedule_slots(build(SynthConfig("mcu-mod", n, u=U_GEN)))
        if mod != 8 * n - 18:
            bad.append(("mcu-mod", n, mod, 8 * n - 18))
        zyz = schedule_slots(build(SynthConfig("mcu-zyz", n, u=U_GEN)))
        if zyz != 8 * n - 9:
            bad.append(("mcu-zyz", n, zyz, 8 * n - 9))
        unopt = schedule_slots(build(SynthConfig("mcx-qft", n, optimize=False)))
        opt = schedule_slots(build(SynthConfig("mcx-qft", n)))
        if unopt - opt != 8:
            bad.append(("mcx-qft delta", n, unopt - opt, 8))
    _verdict(
        "AC2",
        not bad,
        "mcu-mod slots = 8n-18, mcu-zyz slots = 8n-9 (8n-12 + 3 for A/B/C), "
        "merge delta = 8, all exact for n in [4..20]" if not bad else f"{bad}",
    )
    assert not bad


# -- AC3: gate-count formulas, exact ---------------------------------------------


def test_ac3_count_formulas():
    bad = []
    for n in range(4, 21):
        for method in ("mcu-mod", "mcu-zyz"):
            got = count_gates(build(SynthConfig(method, n, u=U_GEN)))
            if got != expected_counts(method, n):
                bad.append((method, n, got))
        mu = default_aqft_cutoff(n)
        if 2 <= mu <= n - 2:
            got = count_gates(build(SynthConfig("mcu-mod", n, u=U_GEN, aqft_cutoff=mu)))
            if got["CP"] != 2 * (mu - 1) * (2 * n - 3 - mu) or got["CU2"] != 2 * (mu - 1):
                bad.append(("mcu-mod aqft", n, mu, got))
    _verdict(
        "AC3",
        not bad,
        "mcu-mod {4(n-3) H, 2(n-1)(n-3) CP, 2n-3 CU2, 2 CX}, "
        "mcu-zyz {4(n-2) H, 2n(n-2) CP, 2 CX}, AQFT counts at ceil(log2 n), "
        "exact for n in [4..20]" if not bad else f"{bad}",
    )
    assert not bad


# -- AC4: native CX exact, native depth under the model's +10% ceiling -------------


def test_ac4_native_metrics_within_tolerance():
    """Native CX equals the derived model exactly; depth stays under a ceiling.

    ``model_cx`` follows from the pinned abstract counts and the lowering
    rules, so every CX row must match it to the gate.  ``model_depth`` is
    reference data the lowering and scheduler beat (mcu-zyz by about 35%,
    mcu-mod by 39-50%), so depth is held one-sided at
    ``depth <= 1.10 * model_depth``, with wide depth rows at n = 24, 32,
    40.  Every row is logged with its signed deviation before any
    assertion fires.
    """
    out_of_band = []
    rows = 0
    print("AC4 rows (FC native; cx exact, depth <= model +10%):")
    for method in ("mcu-mod", "mcu-zyz"):
        for n in (*range(5, 15), 24, 32, 40):
            nc = synth_native(SynthConfig(method, n, u=U_GEN))
            depth, cxc = nc.depth(), nc.counts()["CX"]
            md, mc = model_depth(method, n), model_cx(method, n)
            checks = [("depth", depth, md, depth <= 1.10 * md)]
            if n < 15:
                checks.append(("cx", cxc, mc, cxc == mc))
            for name, got, want, ok in checks:
                rows += 1
                dev = (got - want) / want
                print(
                    f"  {method:8s} n={n:2d} {name:5s} measured {got:4d} "
                    f"model {want:4d} deviation {dev:+.1%} {'in ' if ok else 'OUT'}"
                )
                if not ok:
                    out_of_band.append((method, n, name, got, want, round(dev, 3)))
    _verdict(
        "AC4",
        not out_of_band,
        f"{len(out_of_band)} of {rows} rows out of band (every row logged above; "
        "cx must equal 2 CP + 2 CU2 + CX of the pinned counts, depth must not "
        "exceed 1.10x the depth model)",
    )
    assert not out_of_band, "rows out of band: " + "; ".join(str(r) for r in out_of_band)


# -- AC5: identity battery ----------------------------------------------------------


def test_ac5_identity_battery():
    results = identity_battery()
    worst = max(dev for _, dev in results)
    ok = worst <= 1e-12 and len(results) >= 7
    _verdict(
        "AC5",
        ok,
        f"{len(results)} matrix identities x 100 draws, worst deviation "
        f"{worst:.2e} (tol 1e-12)",
    )
    assert ok, results


# -- AC6: ZYZ/ABC reconstruction and roots -------------------------------------------


def test_ac6_decompositions_and_roots():
    rng = np.random.default_rng(424242)
    worst_zyz = worst_abc = worst_root = 0.0
    for _ in range(1000):
        u = random_unitary(rng)
        d, a, t, b = zyz_decompose(u)
        worst_zyz = max(worst_zyz, np.abs(u2_mat(d, a, t, b) - u).max())
        A, B, C = (u2_mat(*par) for par in abc_split(a, t, b))
        worst_abc = max(
            worst_abc,
            np.abs(A @ B @ C - np.eye(2)).max(),
            np.abs(np.exp(1j * d) * A @ X @ B @ X @ C - u).max(),
        )
        for m in (2, 3, 5):
            r = root(u, m)
            worst_root = max(
                worst_root,
                np.abs(np.linalg.matrix_power(r, 1 << (m - 1)) - u).max(),
            )
    ok = worst_zyz <= 1e-12 and worst_abc <= 1e-12 and worst_root <= 1e-11
    _verdict(
        "AC6",
        ok,
        f"1000 draws: ZYZ {worst_zyz:.2e}, ABC {worst_abc:.2e} (tol 1e-12); "
        f"roots m in {{2,3,5}} {worst_root:.2e} (tol 1e-11)",
    )
    assert ok


# -- AC7: LDD simplification ---------------------------------------------------------


def test_ac7_ldd_simplification():
    structural_bad = []
    for n in range(3, 13):
        ldd = build(SynthConfig("ldd", n, u=U_GEN))
        if not structural_equal(ldd_to_qft(ldd), build(SynthConfig("mcu-mod", n, u=U_GEN))):
            structural_bad.append(n)

    ratios = {}
    for n in range(5, 13):
        ldd = build(SynthConfig("ldd", n, u=U_GEN))
        back = ldd_to_qft(ldd)
        before = sum(lower_to_ngs(ldd).counts().values())
        after = sum(lower_to_ngs(back).counts().values())
        ratios[n] = before / after

    unitary_bad = []
    for n in range(3, 9):
        ldd = build(SynthConfig("ldd", n, u=U_GEN))
        back = ldd_to_qft(ldd)
        ok, _, dev = equal_up_to_global_phase(
            circuit_unitary(back), circuit_unitary(ldd), 1e-9
        )
        if not ok:
            unitary_bad.append((n, dev))

    ok = not structural_bad and not unitary_bad and all(r >= 1.5 for r in ratios.values())
    _verdict(
        "AC7",
        ok,
        "ldd_to_qft == the mcu-mod build structurally for n in [3..12]; native "
        f"total ratios n=5..12: {', '.join(f'{ratios[n]:.2f}' for n in sorted(ratios))} "
        "(floor 1.5); unitary preserved to 1e-9 for n <= 8",
    )
    assert not structural_bad, structural_bad
    assert not unitary_bad, unitary_bad
    assert all(r >= 1.5 for r in ratios.values()), ratios


# -- AC8: AQFT error monotonicity ---------------------------------------------------


def test_ac8_aqft_monotonicity():
    details = []
    ok = True
    for n in (6, 8):
        full = build(SynthConfig("mcu-mod", n, u=U_GEN))
        u_full = circuit_unitary(full)
        devs = []
        for m in range(2, n + 1):
            u_trunc = circuit_unitary(apply_aqft(full, m))
            devs.append(float(np.abs(u_trunc - u_full).max()))
        monotone = all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
        ok = ok and monotone and devs[-1] <= 1e-10
        details.append(f"n={n}: {devs[0]:.2e} -> {devs[-1]:.1e} ({'monotone' if monotone else 'NOT monotone'})")
    _verdict("AC8", ok, "; ".join(details) + "; final cutoff exact to 1e-10")
    assert ok, details


# -- AC9: depth-vs-n sweep shape ----------------------------------------------------


def test_ac9_sweep_shape():
    t0 = time.perf_counter()
    ns = list(range(4, 15))
    depths = {}
    for method in ("mcu-mod", "mcu-zyz", "ldd"):
        depths[method] = [
            synth_native(SynthConfig(method, n, u=U_GEN)).depth() for n in ns
        ]
    fits = {m: _r_squared(ns, d) for m, d in depths.items()}
    # Both generalizations stay below ldd; which of the two is shallower
    # depends on how the roots lower, so their order is reported, not pinned.
    order_bad = [
        n
        for i, n in enumerate(ns)
        if n >= 7
        and not max(depths["mcu-zyz"][i], depths["mcu-mod"][i]) < depths["ldd"][i]
    ]
    elapsed = time.perf_counter() - t0
    ok = all(r2 >= 0.99 for r2, _ in fits.values()) and not order_bad and elapsed < 60
    _verdict(
        "AC9",
        ok,
        "linear fits R^2 "
        + ", ".join(f"{m} {r2:.4f} (slope {s:.1f})" for m, (r2, s) in fits.items())
        + "; ordering max(zyz, mod) < ldd holds for n >= 7 (zyz/mod depth "
        + ", ".join(
            f"n={n} {depths['mcu-zyz'][i]}/{depths['mcu-mod'][i]}"
            for i, n in enumerate(ns) if n >= 7
        )
        + f"); {elapsed:.1f}s (budget 60s)",
    )
    assert ok, (fits, order_bad, elapsed)


# -- AC10: optimizer pass soundness and idempotence ------------------------------------


def test_ac10_pass_soundness():
    tol = 1e-9
    bad = []

    def check(name, before, pass_fn):
        after = pass_fn(before)
        u0 = circuit_unitary(before)
        u1 = circuit_unitary(after)
        dev = float(np.abs(u1 - u0).max())
        if dev > tol:
            bad.append((name, "soundness", dev))
        try:
            again = pass_fn(after).gates
        except ValueError:  # ldd-to-qft refuses its own output, leaving it as it is
            again = after.gates
        if again != after.gates:
            bad.append((name, "idempotence", None))

    for n in range(3, 9):
        check(f"merge/n{n}", build(SynthConfig("mcx-qft", n, optimize=False)),
              merge_phase_columns)
        check(f"ldd-to-qft/n{n}", build(SynthConfig("ldd", n, u=U_GEN)), ldd_to_qft)
    for n in range(4, 7):
        native = lower_to_ngs(build(SynthConfig("mcu-mod", n, u=U_GEN)))
        check(f"cancel-cx/n{n}", native, cancel_cx_pairs)
    for method in ("mcu-mod", "mcu-zyz"):
        for n in range(3, 9):
            unopt = build(SynthConfig(method, n, u=U_GEN, optimize=False))
            merged = merge_phase_columns(unopt)
            check(f"collapse-cx/{method}/n{n}", merged, collapse_cx)
            collapsed = collapse_cx(merged)
            check(f"cancel-x-pair/{method}/n{n}", collapsed, cancel_x_pair)

    _verdict(
        "AC10",
        not bad,
        "merge, ldd-to-qft, cancel-cx-pairs, collapse-cx and cancel-x-pair "
        "all keep the unitary at 1e-9 and are idempotent (n <= 8)"
        if not bad else f"{bad}",
    )
    assert not bad, bad
