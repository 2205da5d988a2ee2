"""Table 4 — average injection rate (cycles per packet) vs the polling
parameter R (§5.3.3).

Setup per the paper: 4 CKS/CKR pairs (torus wiring), one application
endpoint streaming continuously; the CKS polls 5 inputs (the application,
the paired CKR, and the 3 sibling CKS modules).

Known fidelity limit (this bench prints the comparison; see
``benchmarks/README.md`` for how to run it): at R >= 8 the measured gap
saturates at our fixed 2-cycle link slot instead of the paper's 1.8/1.69 —
their kernel-to-link clock ratio is higher than the modelled 2x. R = 1 and
R = 4 reproduce the paper's 5.0 and 2.5 within 0.5 %.
"""

import pytest

from repro.core.config import NOCTUA
from repro.harness import Comparison, measure_injection_cycles, paperdata


def build_table4_report(config=NOCTUA, trace_out=None) -> Comparison:
    cmp = Comparison("Table 4: injection rate", unit="cycles/packet")
    for R, paper in paperdata.TABLE4_INJECTION_CYCLES.items():
        gap = measure_injection_cycles(R, config=config, trace_out=trace_out)
        cmp.add(f"R={R}", paper, round(gap, 2), "cycle sim")
    return cmp


def test_table4_report(benchmark, capsys):
    cmp = benchmark.pedantic(build_table4_report, rounds=1, iterations=1)
    with capsys.disabled():
        cmp.print()
    measured = {int(label.split("=")[1]): m for label, _p, m, _ in cmp.rows}
    # Exact anchors at low R.
    assert measured[1] == pytest.approx(5.0, rel=0.03)
    assert measured[4] == pytest.approx(2.5, rel=0.05)
    # Monotone non-increasing in R, with diminishing returns (shape).
    gaps = [measured[R] for R in (1, 4, 8, 16)]
    assert all(a >= b - 1e-9 for a, b in zip(gaps, gaps[1:]))
    assert gaps[0] - gaps[1] > gaps[1] - gaps[2] > gaps[2] - gaps[3] - 1e-9
    # Saturation stays within 30% of the paper at high R.
    assert measured[8] == pytest.approx(
        paperdata.TABLE4_INJECTION_CYCLES[8], rel=0.3
    )
    assert measured[16] == pytest.approx(
        paperdata.TABLE4_INJECTION_CYCLES[16], rel=0.3
    )


def test_bench_table4(benchmark):
    gap = benchmark.pedantic(
        lambda: measure_injection_cycles(8, packets=200), rounds=1, iterations=1
    )
    assert gap > 1.0
