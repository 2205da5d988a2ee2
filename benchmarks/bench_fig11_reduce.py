"""Fig. 11 — reduce time vs message size (FP32 SUM).

Expected shape (§5.3.4): "For small to medium-sized messages, SMI's Reduce
outperforms going over the host using OpenCL and MPI, but loses its benefit
at high message sizes" — the credit-based root is latency-sensitive and the
linear (non-tree) scheme congests the root rank.
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


def build_fig11_series(config=NOCTUA, full=False,
                       trace_out=None) -> dict[str, list]:
    sizes = sweep_sizes(full)

    def smi(topology, ranks):
        return collective_sweep("reduce", sizes, topology, ranks, config,
                                trace_out=trace_out)

    return {
        "SMI Torus - 8 Ranks": smi(noctua_torus(), 8),
        "SMI Torus - 4 Ranks": smi(noctua_torus(), 4),
        "SMI Bus - 8 Ranks": smi(noctua_bus(), 8),
        "SMI Bus - 4 Ranks": smi(noctua_bus(), 4),
        "MPI+OpenCL - 8 Ranks": host_collective_sweep("reduce", sizes, 8),
    }


def test_fig11_report(benchmark, capsys):
    series = benchmark.pedantic(build_fig11_series, rounds=1, iterations=1)
    sizes = sweep_sizes()
    rows = [
        [n] + [f"{series[k][i].value:,.1f} ({series[k][i].source})"
               for k in series]
        for i, n in enumerate(sizes)
    ]
    with capsys.disabled():
        print()
        print(format_table(["elems"] + list(series), rows,
                           title="Fig. 11: Reduce time [usec] vs size"))
        anchors = paperdata.FIG11_REDUCE_ANCHORS_US
        print(f"paper anchors (torus-8 vs MPI) [us]: {anchors}")

    smi8 = {n: p.value for n, p in zip(sizes, series["SMI Torus - 8 Ranks"])}
    mpi = {n: p.value for n, p in zip(sizes, series["MPI+OpenCL - 8 Ranks"])}
    # Small/medium messages: SMI wins.
    for n in (1, 64, 4096):
        assert smi8[n] < mpi[n]
    # Large messages: MPI+OpenCL wins (the crossover of Fig. 11).
    assert mpi[1048576] < smi8[1048576]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP open item 'Paper fidelity': perfmodel.collectives."
    "reduce_cycles was recalibrated in PR 8 against runs of at most a few "
    "hundred elements (stall_per_tile uses the mean distance between "
    "consecutive ranks: 1.14 on the torus, 1.0 on the bus), which inverts "
    "the order at 1 M elements (bus 71 993 us < torus 77 864 us). Remove "
    "this mark with the model repair — strict, so a repair that forgets "
    "to turns the paper-regen job red."))
def test_fig11_bus_slower_than_torus_at_1m():
    """Latency sensitivity (§5.3.4): the larger-diameter bus is slower
    than the torus once credit round-trips matter. A model row at this
    size (``sim_limit_elements=0`` says so explicitly)."""
    n = 1048576
    (torus,), (bus,) = (
        collective_sweep("reduce", [n], topology, 8, sim_limit_elements=0)
        for topology in (noctua_torus(), noctua_bus()))
    assert bus.value > torus.value


def test_crossover_position(benchmark):
    """The SMI/MPI crossover lands in the paper's 10^4-10^6 element band."""
    sizes = [2**k for k in range(10, 21)]
    smi = benchmark.pedantic(
        lambda: collective_sweep("reduce", sizes, noctua_torus(), 8,
                                 sim_limit_elements=0),
        rounds=1, iterations=1)
    mpi = host_collective_sweep("reduce", sizes, 8)
    crossed = [n for n, s, m in zip(sizes, smi, mpi) if s.value > m.value]
    assert crossed, "expected a crossover within the sweep"
    assert 10_000 < crossed[0] <= 1_048_576


def test_bench_fig11_point(benchmark):
    from repro.harness import runners

    us = benchmark.pedantic(
        lambda: runners.measure_reduce_sim_us(1024, noctua_torus(), 8),
        rounds=1, iterations=1,
    )
    assert us > 0
