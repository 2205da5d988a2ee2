"""Reference values digitised from the paper's tables and figures.

Every paper-regeneration benchmark prints its measurements side by side
with these (``benchmarks/README.md`` says how to run them). Table values
are exact (copied from the text); figure values are approximate reads of
the plotted curves and are marked as such.
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# Table 1 — SMI resource consumption (§5.2)
# ----------------------------------------------------------------------
TABLE1 = {
    "1 QSFP": {
        "interconnect": {"luts": 144, "ffs": 4872, "m20ks": 0},
        "comm_kernels": {"luts": 6186, "ffs": 7189, "m20ks": 10},
        "pct": {"luts": 0.3, "ffs": 0.7, "m20ks": 0.0},
    },
    "4 QSFPs": {
        "interconnect": {"luts": 1152, "ffs": 39264, "m20ks": 0},
        "comm_kernels": {"luts": 30960, "ffs": 31072, "m20ks": 40},
        "pct": {"luts": 1.7, "ffs": 1.9, "m20ks": 0.3},
    },
}

# ----------------------------------------------------------------------
# Table 2 — collective support kernel resources (§5.2)
# ----------------------------------------------------------------------
TABLE2 = {
    "Broadcast": {"luts": 2560, "ffs": 3593, "m20ks": 0, "dsps": 0,
                  "pct_luts": 0.1, "pct_ffs": 0.1},
    "Reduce (FP32 SUM)": {"luts": 10268, "ffs": 14648, "m20ks": 0, "dsps": 6,
                          "pct_luts": 0.6, "pct_ffs": 0.4},
}

# ----------------------------------------------------------------------
# Table 3 — ping-pong latency in microseconds (§5.3.2)
# ----------------------------------------------------------------------
TABLE3_LATENCY_US = {
    "MPI+OpenCL": 36.61,
    "SMI-1": 0.801,
    "SMI-4": 2.896,
    "SMI-7": 5.103,
}

# ----------------------------------------------------------------------
# Table 4 — average injection rate in cycles (§5.3.3)
# ----------------------------------------------------------------------
TABLE4_INJECTION_CYCLES = {1: 5.0, 4: 2.5, 8: 1.8, 16: 1.69}

# ----------------------------------------------------------------------
# Fig. 9 — bandwidth (Gbit/s) vs message size (§5.3.1). Approximate curve
# reads; the paper states SMI reaches 91% of the 35 Gbit/s payload peak
# and that the host path achieves about one third of SMI's bandwidth.
# ----------------------------------------------------------------------
FIG9_QSFP_PEAK_GBITS = 40.0
FIG9_PAYLOAD_PEAK_GBITS = 35.0
FIG9_SMI_PLATEAU_GBITS = 0.91 * 35.0      # ~31.9
FIG9_MPI_PLATEAU_GBITS = 12.0             # ~1/3 of SMI (approximate read)
FIG9_SIZES_BYTES = [2**k for k in range(10, 29)]  # 1 KiB .. 256 MiB

# ----------------------------------------------------------------------
# Figs. 10-11 — collective times (usec) vs element count (approximate
# curve reads at three anchor sizes; FP32 elements).
# ----------------------------------------------------------------------
FIG10_BCAST_ANCHORS_US = {
    # elements: (SMI torus 8 ranks, MPI+OpenCL 8 ranks)
    64: (30.0, 1600.0),
    16_384: (180.0, 1800.0),
    1_048_576: (9_000.0, 10_000.0),
}
FIG11_REDUCE_ANCHORS_US = {
    64: (40.0, 1600.0),
    16_384: (1_000.0, 1_900.0),
    1_048_576: (40_000.0, 12_000.0),  # MPI wins at large sizes (§5.3.4)
}

# ----------------------------------------------------------------------
# Fig. 13 — GESUMMV (§5.4.1): distributed-over-single speedup ~2x; the
# annotated SMI (distributed) execution times in milliseconds.
# ----------------------------------------------------------------------
FIG13_SQUARE_TIMES_MS = {2048: 0.7, 4096: 2.8, 8192: 10.8, 16384: 51.1}
FIG13_RECT_2048xM_TIMES_MS = {4096: 1.4, 8192: 2.8, 16384: 5.5}
FIG13_RECT_Nx2048_TIMES_MS = {4096: 1.4, 8192: 2.8, 16384: 5.5}
FIG13_EXPECTED_SPEEDUP = 2.0

# ----------------------------------------------------------------------
# Fig. 15 — stencil strong scaling (4096^2, 32 iterations).
# ----------------------------------------------------------------------
FIG15_STRONG_SCALING = {
    "1 bank/1 FPGA": {"speedup": 1.0, "time_ms": 254.0},
    "4 banks/1 FPGA": {"speedup": 3.5, "time_ms": 72.0},
    "1 bank/4 FPGAs": {"speedup": 3.5, "time_ms": 72.0},
    "4 banks/4 FPGAs": {"speedup": 12.3, "time_ms": 20.0},
    "4 banks/8 FPGAs": {"speedup": 23.1, "time_ms": 11.0},
}

# ----------------------------------------------------------------------
# Fig. 16 — stencil weak scaling (ns per grid point, 32 iterations,
# 4 banks). Approximate curve reads; at large grids 8 ranks approach a
# 2x advantage over 4 ranks.
# ----------------------------------------------------------------------
FIG16_GRID_SIZES = [1024, 2048, 4096, 8192, 16384]
FIG16_NS_PER_POINT_4RANKS = {1024: 1.9, 2048: 1.4, 4096: 1.2,
                             8192: 1.15, 16384: 1.1}
FIG16_NS_PER_POINT_8RANKS = {1024: 1.1, 2048: 0.8, 4096: 0.65,
                             8192: 0.6, 16384: 0.55}
