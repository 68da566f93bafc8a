"""Command-line front end: synthesize, optimize, verify, measure, sweep.

Every run is reproducible: the same flags (including --seed) produce
byte-identical output files.  Subcommands:

  synth       build a circuit and write it as JSON
  optimize    build unoptimized, apply a pass list, report what each pass did,
              then apply the AQFT cutoff
  verify      build and check against the brute-force oracle (JSON verdict)
  metrics     one CSV/JSON row of native-gate statistics for a single build
  sweep       metrics rows over a range of n x method list (depth-vs-n CSV)

Exit status: 0 on success, 2 on a usage or configuration error, 3 when
verify finds a mismatch.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .circuit import count_gates, schedule_slots, to_json
from .gate_algebra import NAMED_GATES, random_unitary, u2_mat
from .layout import ARCHES, native_metrics, synth_native
from .optimizer import PASSES
from .synthesis import METHODS, SynthConfig, apply_aqft, build
from .verifier import verify_mcu

CSV_COLUMNS = (
    "n", "method", "arch", "aqft_cutoff", "abstract_slots", "native_depth",
    "cx", "rz", "sx", "x", "swap_inserted", "paper_depth_formula", "deviation",
)

DEFAULT_SWEEP_METHODS = "mcu-mod,mcu-zyz,ldd"


class UsageError(Exception):
    pass


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise UsageError(f"expected a range A..B, got {text!r}")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise UsageError(f"expected integers in range {text!r}") from None
    if a > b:
        raise UsageError(f"empty range {text!r}")
    return a, b


def _resolve_u(args: argparse.Namespace, method: str) -> np.ndarray | None:
    """Turn the mutually exclusive --u/--angles/--seed flags into a matrix."""
    given = [f for f in ("u", "angles", "seed") if getattr(args, f, None) is not None]
    if method == "mcx-qft":
        if given:
            raise UsageError("mcx-qft synthesizes a controlled-X; it takes no --u/--angles/--seed")
        return None
    if len(given) > 1:
        raise UsageError(f"--{given[0]} and --{given[1]} are mutually exclusive")
    if not given:
        raise UsageError(f"{method} needs a target gate: pass --u NAME, --angles d,a,t,b, or --seed S")
    if args.u is not None:
        name = args.u.upper()
        if name not in NAMED_GATES:
            raise UsageError(f"unknown gate name {args.u!r}; choose from {sorted(NAMED_GATES)}")
        return NAMED_GATES[name]
    if args.angles is not None:
        parts = args.angles.split(",")
        if len(parts) != 4:
            raise UsageError("--angles takes four comma-separated values: d,a,t,b")
        try:
            d, a, t, b = (float(p) for p in parts)
        except ValueError:
            raise UsageError(f"non-numeric angle in {args.angles!r}") from None
        return u2_mat(d, a, t, b)
    return random_unitary(np.random.default_rng(args.seed))


def _config(args: argparse.Namespace, n: int, u: np.ndarray | None) -> SynthConfig:
    return SynthConfig(
        method=args.method,
        n=n,
        u=u,
        aqft_cutoff=getattr(args, "aqft", None),
        optimize=getattr(args, "unoptimized", False) is False,
    )


def _emit(text: str, out_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _circuit_payload(circ, args, u) -> dict:
    slots = schedule_slots(circ)
    return {
        "format": "qftmcu-circuit",
        "method": args.method,
        "n": circ.n,
        "u": None if u is None else [[[float(v.real), float(v.imag)] for v in row] for row in u],
        "aqft_cutoff": getattr(args, "aqft", None),
        "abstract_slots": slots,
        "counts": count_gates(circ),
        "circuit": json.loads(to_json(circ)),
    }


def cmd_synth(args: argparse.Namespace) -> int:
    u = _resolve_u(args, args.method)
    circ = build(_config(args, args.n, u))
    _emit(_dump_json(_circuit_payload(circ, args, u)), args.out)
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    u = _resolve_u(args, args.method)
    names = [p.strip() for p in (args.optimize or "merge").split(",") if p.strip()]
    for name in names:
        if name not in PASSES:
            raise UsageError(f"unknown pass {name!r}; choose from {sorted(PASSES)}")
    cfg = SynthConfig(method=args.method, n=args.n, u=u,
                      aqft_cutoff=args.aqft, optimize=False)
    circ = build(replace(cfg, aqft_cutoff=None))
    reports = []
    slots = schedule_slots(circ)
    for name in names:
        out = PASSES[name](circ)
        after = schedule_slots(out)
        reports.append({
            "pass": name, "gates_before": len(circ.gates), "gates_after": len(out.gates),
            "slots_before": slots, "slots_after": after,
        })
        circ, slots = out, after
    if cfg.aqft_cutoff is not None:
        circ = apply_aqft(circ, cfg.aqft_cutoff)
    payload = _circuit_payload(circ, args, u)
    payload["passes"] = reports
    _emit(_dump_json(payload), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    u = _resolve_u(args, args.method)
    circ = build(_config(args, args.n, u))
    oracle_u = NAMED_GATES["X"] if u is None else u
    res = verify_mcu(circ, oracle_u)
    verdict = {
        "pass": bool(res.ok),
        "max_deviation": float(res.max_deviation),
        "global_phase": float(res.global_phase),
        "tier": res.tier,
    }
    _emit(_dump_json(verdict), args.out)
    return 0 if res.ok else 3


def _metrics_row(method: str, n: int, arch: str, aqft, u) -> dict:
    cfg = SynthConfig(method=method, n=n, u=u, aqft_cutoff=aqft)
    nc = synth_native(cfg, arch=arch)
    nm = native_metrics(nc)
    return {
        "n": n,
        "method": method,
        "arch": arch,
        "aqft_cutoff": "" if aqft is None else aqft,
        "abstract_slots": nc.abstract_slots,
        "native_depth": nm.depth,
        "cx": nm.counts.get("CX", 0),
        "rz": nm.counts.get("Rz", 0),
        "sx": nm.counts.get("SX", 0),
        "x": nm.counts.get("X", 0),
        "swap_inserted": nc.swaps_inserted,
        "paper_depth_formula": "" if nm.model_depth is None else nm.model_depth,
        "deviation": "" if nm.depth_deviation is None else f"{nm.depth_deviation:.4f}",
        # JSON only: the Rz sums lowering left out as rounding noise.
        "dropped_rz": nm.dropped_rz,
        "dropped_rz_sum": nm.dropped_rz_sum,
    }


def _rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines)


def cmd_metrics(args: argparse.Namespace) -> int:
    u = _resolve_u(args, args.method)
    row = _metrics_row(args.method, args.n, args.arch, args.aqft, u)
    if args.format == "json":
        _emit(_dump_json(row), args.out)
    else:
        _emit(_rows_to_csv([row]), args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.n is None:
        raise UsageError("sweep needs --n A..B")
    lo, hi = _parse_range(args.n) if ".." in args.n else (int(args.n), int(args.n))
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}; choose from {METHODS}")
    fixed_u = None
    if args.u is not None or args.angles is not None:
        fixed_u = _resolve_u(args, "mcu-mod")
    rng = np.random.default_rng(0 if args.seed is None else args.seed)
    rows = []
    for n in range(lo, hi + 1):
        u_n = fixed_u if fixed_u is not None else random_unitary(rng)
        for method in methods:
            if method == "ldd" and n < 3:
                continue
            if n < 2:
                continue
            u = None if method == "mcx-qft" else u_n
            rows.append(_metrics_row(method, n, args.arch, args.aqft, u))
    rows.sort(key=lambda r: (r["n"], r["method"]))
    if args.format == "json":
        _emit(_dump_json(rows), args.out)
    else:
        _emit(_rows_to_csv(rows), args.out)
    return 0


def _add_u_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--u", help="named target gate: X, Z, H, S, or T")
    p.add_argument("--angles", help="explicit target gate e^(id) Rz(a) Ry(t) Rz(b), as d,a,t,b")
    p.add_argument("--seed", type=int, help="draw the target gate from a seeded random protocol")


def _add_common(p: argparse.ArgumentParser, *, needs_method: bool = True) -> None:
    if needs_method:
        p.add_argument("--method", required=True, choices=METHODS)
        p.add_argument("--n", type=int, required=True, help="total wirelines (controls + target)")
    p.add_argument("--aqft", type=int, default=None, metavar="M",
                   help="approximate-QFT cutoff: drop conditional phases with root index > M")
    p.add_argument("--out", default=None, metavar="PATH", help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qftmcu", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="build a circuit, write circuit JSON")
    _add_common(p)
    _add_u_flags(p)
    p.add_argument("--unoptimized", action="store_true",
                   help="skip the builder's merge/finishing rewrites")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("optimize", help="build unoptimized, apply passes, report")
    _add_common(p)
    _add_u_flags(p)
    p.add_argument("--optimize", metavar="PASS[,PASS...]", default="merge",
                   help=f"pass list, from {sorted(PASSES)}")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("verify", help="check a build against the oracle")
    _add_common(p)
    _add_u_flags(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("metrics", help="native-gate statistics for one build")
    _add_common(p)
    _add_u_flags(p)
    p.add_argument("--arch", choices=ARCHES, default="fc")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("sweep", help="metrics over a range of n x methods")
    p.add_argument("--n", help="range A..B (a single integer sweeps one point)")
    p.add_argument("--methods", default=DEFAULT_SWEEP_METHODS,
                   help=f"comma-separated method list (default {DEFAULT_SWEEP_METHODS})")
    _add_common(p, needs_method=False)
    _add_u_flags(p)
    p.add_argument("--arch", choices=ARCHES, default="fc")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(fn=cmd_sweep)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ValueError) as exc:
        print(f"qftmcu: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
