"""Ablation: the polling parameter R (§4.3).

"Higher values of R increase the bandwidth for applications with a sparse
communication pattern, but increases the per-connection latency for
applications where many incoming connections are active simultaneously."

Both halves of that trade-off are measured on the cycle simulator:
single-stream throughput rises with R, while the worst-case inter-service
gap seen by one of several concurrently active endpoints grows with R.
The shared CKS's inter-accept gaps come from the flight recorder's
``grant`` events (one per accepted packet) on its input FIFOs.
"""

import math

import numpy as np
import pytest

from repro import NOCTUA, SMI_FLOAT, SMIProgram, noctua_torus
from repro.codegen.metadata import OpDecl
from repro.harness import format_table, measure_stream_sim

R_VALUES = (1, 2, 4, 8, 16)


def single_stream_bandwidth_gbps(R: int, n: int = 14_000) -> float:
    cfg = NOCTUA.with_(read_burst=R)
    cycles = measure_stream_sim(n, 1, SMI_FLOAT, cfg, topology=noctua_torus())
    return n * 4 * 8 / cfg.cycles_to_seconds(cycles) / 1e9


def contended_worst_gap_cycles(R: int, packets_each: int = 120):
    """Four saturated endpoints share ONE CKS (a bus endpoint rank has a
    single wired interface): measure the worst per-connection service gap
    seen at the receivers, plus the sorted gaps between the shared CKS's
    accepts, taken from the ``grant`` events of a traced run on the
    per-flit plane (same cycles as every other plane). High R serves
    long bursts per endpoint, so the other connections wait longer —
    the dense-pattern cost of §4.3."""
    from repro import bus

    cfg = NOCTUA.with_(read_burst=R, burst_mode=False, trace=True)
    prog = SMIProgram(bus(2), config=cfg)
    n = packets_each * SMI_FLOAT.elements_per_packet
    worst_gaps: dict[int, int] = {}

    def sender(smi):
        def stream(port):
            ch = smi.open_send_channel(n, SMI_FLOAT, 1, port)
            data = np.zeros(n, dtype=np.float32)
            yield from ch.push_vec(data, width=8)

        for port in range(1, 4):
            smi.engine.spawn(stream(port), f"tx{port}")
        yield from stream(0)

    def receiver(smi):
        done = []

        def drain(port):
            ch = smi.open_recv_channel(n, SMI_FLOAT, 0, port)
            last = None
            worst = 0
            for _ in range(n):
                yield from ch.pop()
                if last is not None:
                    worst = max(worst, smi.cycle - last)
                last = smi.cycle
            worst_gaps[port] = worst
            done.append(port)

        for port in range(1, 4):
            smi.engine.spawn(drain(port), f"rx{port}")
        yield from drain(0)
        while len(done) < 4:
            yield smi.wait(64)

    prog.add_kernel(sender, rank=0,
                    ops=[OpDecl("send", p, SMI_FLOAT) for p in range(4)])
    prog.add_kernel(receiver, rank=1,
                    ops=[OpDecl("recv", p, SMI_FLOAT) for p in range(4)])
    res = prog.run(max_cycles=100_000_000)
    assert res.completed, res.reason
    rec = res.engine.trace
    assert rec.dropped == 0, "the ring lost grants: gaps would be partial"
    cks = next(iter(res.transport.rank(0).cks.values()))
    tracks = {f.name for f in cks.arbiter.inputs}
    accepts = [ev[0] for ev in rec.events()
               if ev[2] == "grant" and ev[3] in tracks]
    assert len(accepts) == cks.arbiter.packets_accepted > 1
    gaps = sorted(b - a for a, b in zip(accepts, accepts[1:]))
    return max(worst_gaps.values()), gaps


def percentile(sorted_gaps, q):
    """Smallest gap with at least ``q`` of all gaps at or below it."""
    return sorted_gaps[max(math.ceil(q * len(sorted_gaps)) - 1, 0)]


def build_ablation_rows():
    rows = []
    for R in R_VALUES:
        worst, gaps = contended_worst_gap_cycles(R)
        rows.append([
            f"R={R}",
            round(single_stream_bandwidth_gbps(R), 2),
            worst,
            round(sum(gaps) / len(gaps), 2),
            percentile(gaps, 0.50),
            percentile(gaps, 0.99),
            gaps[-1],
        ])
    return rows


def test_polling_ablation_report(benchmark, capsys):
    rows = benchmark.pedantic(build_ablation_rows, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table(
            ["R", "1-stream BW [Gbit/s]", "4-stream worst gap [cycles]",
             "CKS mean accept gap", "CKS p50 gap", "CKS p99 gap",
             "CKS max accept gap"],
            rows, title="Ablation: polling parameter R (§4.3)"
        ))
    bw = {row[0]: row[1] for row in rows}
    gap = {row[0]: row[2] for row in rows}
    # Sparse pattern: bandwidth grows monotonically with R...
    assert bw["R=1"] < bw["R=4"] <= bw["R=8"] + 0.5
    # R=1 throttles a single stream to ~(R+4)/R = 5 cycles/packet.
    assert bw["R=1"] == pytest.approx(35.0 * 2 / 5, rel=0.1)
    # ...but dense patterns pay more per-connection latency at high R.
    assert gap["R=16"] > gap["R=1"]


def test_bench_polling_single_point(benchmark):
    bw = benchmark.pedantic(
        lambda: single_stream_bandwidth_gbps(8, n=7_000),
        rounds=1, iterations=1,
    )
    assert bw > 20.0
