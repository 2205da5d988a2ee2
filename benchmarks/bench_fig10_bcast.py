"""Fig. 10 — broadcast time vs message size (FP32).

Five series: SMI on the torus with 8 and 4 ranks, SMI on the linear bus
with 8 and 4 ranks, and MPI+OpenCL with 8 ranks. Expected shape:

* SMI beats the host path at *every* size (§5.3.4);
* 8-rank and 4-rank SMI curves stay close (the pipelined relay chain makes
  time weakly dependent on rank count);
* topology (torus vs bus) matters little for SMI broadcast.
"""

import pytest

from repro.core.config import NOCTUA
from repro.harness import (
    collective_sweep,
    format_table,
    host_collective_sweep,
    paperdata,
)
from repro.network.topology import noctua_bus, noctua_torus

DEFAULT_SIZES = [1, 8, 64, 512, 4096, 16384, 65536, 262144, 1048576]
FULL_SIZES = [2**k for k in range(0, 21)]


def sweep_sizes(full: bool = False) -> list[int]:
    return FULL_SIZES if full else DEFAULT_SIZES


def build_fig10_series(config=NOCTUA, full=False,
                       trace_out=None) -> dict[str, list]:
    sizes = sweep_sizes(full)

    def smi(topology, ranks):
        return collective_sweep("bcast", sizes, topology, ranks, config,
                                trace_out=trace_out)

    return {
        "SMI Torus - 8 Ranks": smi(noctua_torus(), 8),
        "SMI Torus - 4 Ranks": smi(noctua_torus(), 4),
        "SMI Bus - 8 Ranks": smi(noctua_bus(), 8),
        "SMI Bus - 4 Ranks": smi(noctua_bus(), 4),
        "MPI+OpenCL - 8 Ranks": host_collective_sweep("bcast", sizes, 8),
    }


def test_fig10_report(benchmark, capsys):
    series = benchmark.pedantic(build_fig10_series, rounds=1, iterations=1)
    sizes = sweep_sizes()
    rows = [
        [n] + [f"{series[k][i].value:,.1f} ({series[k][i].source})"
               for k in series]
        for i, n in enumerate(sizes)
    ]
    with capsys.disabled():
        print()
        print(format_table(["elems"] + list(series), rows,
                           title="Fig. 10: Bcast time [usec] vs size"))
        anchors = paperdata.FIG10_BCAST_ANCHORS_US
        print(f"paper anchors (torus-8 vs MPI) [us]: {anchors}")

    smi8 = [p.value for p in series["SMI Torus - 8 Ranks"]]
    smi4 = [p.value for p in series["SMI Torus - 4 Ranks"]]
    bus8 = [p.value for p in series["SMI Bus - 8 Ranks"]]
    mpi = [p.value for p in series["MPI+OpenCL - 8 Ranks"]]
    # SMI achieves lower time than the host path for all sizes (§5.3.4).
    for s, m in zip(smi8, mpi):
        assert s < m, "SMI bcast must win at every plotted size"
    # Chain pipeline: 8 ranks within ~2.5x of 4 ranks everywhere.
    for a, b in zip(smi8, smi4):
        assert a < 2.5 * b
    # Topology robustness: bus within 2x of torus.
    for a, b in zip(bus8, smi8):
        assert a < 2 * b
    # Monotone growth with size.
    assert smi8 == sorted(smi8)


def test_bench_fig10_point(benchmark):
    from repro.harness import runners

    us = benchmark.pedantic(
        lambda: runners.measure_bcast_sim_us(2048, noctua_torus(), 8),
        rounds=1, iterations=1,
    )
    assert us > 0
