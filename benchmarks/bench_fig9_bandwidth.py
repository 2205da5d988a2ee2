"""Fig. 9 — bandwidth vs message size: SMI at 1/4/7 hops vs MPI+OpenCL.

Regenerates all four series of the figure plus the two peak-bandwidth
reference lines. Every SMI point runs on the cycle simulator, to the
paper's 256 MiB (the report test sweeps the full range: ~5 s and ~325 MiB
peak RSS on the default plane).

Expected shape (verified):
* SMI saturates above 90% of the 35 Gbit/s payload peak;
* network distance does not change the achieved bandwidth (§5.3.1);
* the host path plateaus at roughly one third of SMI's bandwidth.
"""

import pytest

from repro.core.config import NOCTUA
from repro.harness import (
    Comparison,
    bandwidth_sweep,
    format_table,
    host_bandwidth_sweep,
    paperdata,
)
from repro.hostexec import NOCTUA_HOST, PCIE_PEAK_BPS

#: Sweep sizes: 1 KiB .. 4 MiB by default; ``full=True`` (``smi-bench fig9
#: --full``) adds the paper's tail to 256 MiB, also simulated. Off the
#: default plane (``--no-macro-cruise``, the sharded backends) the cost of a
#: stream grows with its length, so the tail takes far longer there.
DEFAULT_SIZES = [2**k for k in range(10, 23)]
FULL_SIZES = paperdata.FIG9_SIZES_BYTES


def sweep_sizes(full: bool = False) -> list[int]:
    return FULL_SIZES if full else DEFAULT_SIZES


def build_fig9_series(config=NOCTUA, full=False,
                      trace_out=None) -> dict[str, list]:
    sizes = sweep_sizes(full)

    def smi(hops):
        return bandwidth_sweep(sizes, hops, config, trace_out=trace_out)

    return {
        "SMI - 1 hop": smi(1),
        "SMI - 4 hops": smi(4),
        "SMI - 7 hops": smi(7),
        "MPI+OpenCL": host_bandwidth_sweep(sizes),
    }


def test_fig9_report(benchmark, capsys):
    series = benchmark.pedantic(build_fig9_series, kwargs={"full": True},
                                rounds=1, iterations=1)
    sizes = sweep_sizes(full=True)
    rows = []
    for i, size in enumerate(sizes):
        rows.append(
            [size]
            + [f"{series[k][i].value:.2f} ({series[k][i].source})"
               for k in series]
        )
    with capsys.disabled():
        print()
        print(format_table(
            ["bytes"] + list(series), rows,
            title="Fig. 9: bandwidth [Gbit/s] vs message size",
        ))
        print(f"QSFP peak: {paperdata.FIG9_QSFP_PEAK_GBITS} Gbit/s | "
              f"payload peak: {paperdata.FIG9_PAYLOAD_PEAK_GBITS} Gbit/s | "
              f"PCIe peak: {PCIE_PEAK_BPS/1e9:.0f} Gbit/s")
        cmp = Comparison("Fig. 9 anchors", unit="Gbit/s")
        cmp.add("SMI plateau", paperdata.FIG9_SMI_PLATEAU_GBITS,
                round(series["SMI - 1 hop"][-1].value, 2))
        cmp.add("MPI plateau", paperdata.FIG9_MPI_PLATEAU_GBITS,
                round(series["MPI+OpenCL"][-1].value, 2))
        cmp.print()

    # --- shape assertions -------------------------------------------------
    smi1 = [p.value for p in series["SMI - 1 hop"]]
    smi7 = [p.value for p in series["SMI - 7 hops"]]
    mpi = [p.value for p in series["MPI+OpenCL"]]
    assert all(p.source == "sim" for k in series if k.startswith("SMI")
               for p in series[k])
    # SMI saturates near (within 10% of) the payload peak.
    assert smi1[-1] > 0.9 * paperdata.FIG9_PAYLOAD_PEAK_GBITS
    assert smi1[-1] <= paperdata.FIG9_PAYLOAD_PEAK_GBITS + 1e-6
    # Hop-count invariance at large sizes.
    assert smi7[-1] == pytest.approx(smi1[-1], rel=0.02)
    # Host path is about one third of SMI (who-wins + factor).
    assert 2.0 < smi1[-1] / mpi[-1] < 4.0
    # SMI wins at every size (Fig. 9: curves never cross).
    for s, m in zip(smi1, mpi):
        assert s > m


def test_bench_fig9_single_point(benchmark):
    """pytest-benchmark hook: wall-clock cost of one 64 KiB sim point."""
    from repro.harness import measure_stream_sim

    cycles = benchmark.pedantic(
        lambda: measure_stream_sim(16384, 1), rounds=1, iterations=1
    )
    assert cycles > 0


def test_fig9_mpi_latency_dominated_at_small_sizes(benchmark):
    mpi = benchmark.pedantic(lambda: host_bandwidth_sweep([1024])[0].value, rounds=1, iterations=1)
    assert mpi < 1.0  # 1 KiB over a ~37 us path is far below 1 Gbit/s
