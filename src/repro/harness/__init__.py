"""Benchmark harness: paper data, runners, and report formatting."""

from . import paperdata
from .reporting import (Comparison, dispatch_summary, fabric_summary,
                        format_table, planner_summary)
from .runners import (
    SweepPoint,
    bandwidth_sweep,
    collective_sweep,
    host_bandwidth_sweep,
    host_collective_sweep,
    measure_injection_cycles,
    measure_pingpong_us,
    measure_stream_sim,
)
