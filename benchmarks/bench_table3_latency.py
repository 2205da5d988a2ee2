"""Table 3 — ping-pong message latency: SMI at 1/4/7 hops vs MPI+OpenCL."""

import pytest

from repro.core.config import NOCTUA
from repro.harness import Comparison, measure_pingpong_us, paperdata
from repro.hostexec import NOCTUA_HOST


def build_table3_report(config=NOCTUA, trace_out=None) -> Comparison:
    cmp = Comparison("Table 3: one-way latency", unit="us")
    cmp.add("MPI+OpenCL", paperdata.TABLE3_LATENCY_US["MPI+OpenCL"],
            round(NOCTUA_HOST.p2p_latency_us(), 2), "host model")
    for hops in (1, 4, 7):
        cmp.add(f"SMI-{hops}", paperdata.TABLE3_LATENCY_US[f"SMI-{hops}"],
                round(measure_pingpong_us(hops, config, trace_out=trace_out),
                      3), "cycle sim")
    return cmp


def test_table3_report(benchmark, capsys):
    cmp = benchmark.pedantic(build_table3_report, rounds=1, iterations=1)
    with capsys.disabled():
        cmp.print()
    for label, paper, measured, _ in cmp.rows:
        assert measured == pytest.approx(paper, rel=0.05), label
    # Structural claims: latency grows linearly with hops; SMI is ~45x
    # below the host path at 1 hop.
    smi = {h: measure_pingpong_us(h) for h in (1, 4, 7)}
    per_hop_14 = (smi[4] - smi[1]) / 3
    per_hop_47 = (smi[7] - smi[4]) / 3
    assert per_hop_14 == pytest.approx(per_hop_47, rel=0.1)
    assert NOCTUA_HOST.p2p_latency_us() / smi[1] > 30


def test_bench_table3(benchmark):
    us = benchmark.pedantic(lambda: measure_pingpong_us(1), rounds=1, iterations=1)
    assert us < 1.0
