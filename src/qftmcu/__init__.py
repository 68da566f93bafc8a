"""QFT-based synthesis of multi-controlled single-qubit gates.

Build multi-controlled unitaries from QFT-conjugated increment/decrement
blocks, optimize the conditional-phase structure, lower to the native set
{CX, Rz, SX, X} on fully-connected or line-shaped couplings, and verify
everything against brute-force oracles.
"""
from .circuit import (
    Circuit,
    Gate,
    count_gates,
    from_json,
    inverse,
    normalize_angle,
    schedule_slots,
    to_json,
)
from .gate_algebra import (
    random_unitary,
    root,
    rx_mat,
    ry_mat,
    rz_mat,
    u2_mat,
    zyz_decompose,
)
from .layout import (
    ARCHES,
    NativeCircuit,
    NativeMetrics,
    layout_permutation,
    lower_to_ngs,
    native_metrics,
    route_lnn,
    synth_native,
)
from .linalg import equal_up_to_global_phase, is_unitary
from .optimizer import (
    PASSES,
    cancel_cx_pairs,
    ldd_to_qft,
    merge_phase_columns,
)
from .synthesis import (
    METHODS,
    SynthConfig,
    apply_aqft,
    build,
    build_decrement,
    build_increment,
    build_qft,
    default_aqft_cutoff,
    expected_counts,
    insert_phase_ladder,
)
from .verifier import (
    VerifyResult,
    apply_statevector,
    circuit_unitary,
    mcu_oracle,
    oracle_apply,
    verify_mcu,
)

__version__ = "0.1.0"
