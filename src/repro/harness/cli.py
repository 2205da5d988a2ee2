"""Experiment CLI: regenerate any paper table/figure from the command line.

Usage::

    smi-bench table1|table2|table3|table4|fig9|fig10|fig11|fig13|fig15|fig16
    smi-bench all            # everything (slowest)
    smi-bench fig9 --full    # the paper's full range, to 256 MiB
    smi-bench fig9 --preset noctua-deep       # deep-buffer regime
    smi-bench fig10 --backend sharded --shards 2   # sharded simulation

``--preset`` selects a named hardware preset (``noctua`` /
``noctua-deep`` / ``noctua-xdeep``, see
:func:`repro.core.config.hardware_preset`), and ``--backend`` the
simulation backend (``sequential`` / ``sharded`` / ``process``, see
:mod:`repro.shard`) with ``--shards`` fabric partitions — so any
experiment runs under any buffer regime and execution backend without
code edits; ``--no-macro-cruise`` switches the per-stream analytical
fast-forward (see docs/ARCHITECTURE.md, "Macro-cruise fast-forward";
on by default) off for the chosen preset. ``--trace out.json`` turns on the
cycle-domain flight recorder (see docs/ARCHITECTURE.md,
"Observability & tracing") and writes every simulated point's merged
timeline to the given file — ``.json`` is Chrome/Perfetto trace-event
format, ``.jsonl`` the compact line form. :func:`main` folds the flags
into one :class:`~repro.core.config.HardwareConfig` and passes it (with
``full`` and the trace path) to :func:`run_experiment`, which hands it
to the ``benchmarks/bench_*.py`` builders; nothing travels through the
environment.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from functools import partial

from ..core.config import HW_PRESETS, NOCTUA, HardwareConfig
from .paperdata import FIG16_GRID_SIZES
from .reporting import Comparison, format_table


def _print_series(series: dict, size_label: str, title: str) -> None:
    first = next(iter(series.values()))
    rows = [
        [point.size] + [f"{series[k][i].value:,.2f} ({series[k][i].source})"
                        for k in series]
        for i, point in enumerate(first)
    ]
    print(format_table([size_label] + list(series), rows, title=title))


def _print_fig16(series: dict) -> None:
    rows = [
        [f"{s}x{s}", round(series["4 Ranks"][s], 3),
         round(series["8 Ranks"][s], 3)]
        for s in FIG16_GRID_SIZES
    ]
    print(format_table(["grid", "4 ranks [ns/pt]", "8 ranks [ns/pt]"],
                       rows, title="Fig. 16: stencil weak scaling"))


#: experiment -> (``benchmarks/`` module, builder, printer of what the
#: builder returns, the run parameters the builder takes). Model-only
#: experiments take none; the simulated ones take the platform
#: ``config`` and ``trace_out``, and the size sweeps also ``full``.
_SIM = ("config", "trace_out")
_SWEEP = ("config", "full", "trace_out")
_EXPERIMENTS = {
    "table1": ("bench_table1_resources", "build_table1_report",
               Comparison.print, ()),
    "table2": ("bench_table2_collective_resources", "build_table2_report",
               Comparison.print, ()),
    "table3": ("bench_table3_latency", "build_table3_report",
               Comparison.print, _SIM),
    "table4": ("bench_table4_injection", "build_table4_report",
               Comparison.print, _SIM),
    "fig9": ("bench_fig9_bandwidth", "build_fig9_series",
             partial(_print_series, size_label="bytes",
                     title="Fig. 9: bandwidth [Gbit/s]"), _SWEEP),
    "fig10": ("bench_fig10_bcast", "build_fig10_series",
              partial(_print_series, size_label="elems",
                      title="Fig. 10: Bcast time [usec]"), _SWEEP),
    "fig11": ("bench_fig11_reduce", "build_fig11_series",
              partial(_print_series, size_label="elems",
                      title="Fig. 11: Reduce time [usec]"), _SWEEP),
    "fig13": ("bench_fig13_gesummv", "build_fig13_report",
              Comparison.print, ()),
    "fig15": ("bench_fig15_stencil_strong", "build_fig15_report",
              Comparison.print, ()),
    "fig16": ("bench_fig16_stencil_weak", "build_fig16_series",
              _print_fig16, ()),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def run_experiment(name: str, config: HardwareConfig = NOCTUA,
                   full: bool = False, trace_out: str | None = None) -> None:
    """Regenerate one experiment on ``config`` and print its table."""
    module, builder, printer, takes = _EXPERIMENTS[name]
    # Imported here so each invocation only pays for what it runs.
    build = getattr(importlib.import_module(module), builder)
    params = {"config": config, "full": full, "trace_out": trace_out}
    printer(build(**{key: params[key] for key in takes}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="smi-bench",
        description="Regenerate the SMI paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS + ("all",))
    parser.add_argument("--full", action="store_true",
                        help="extend sweeps to paper-scale sizes "
                             "(fig9 simulates its 256 MiB tail; fig10/11 "
                             "points above 2^13 elements are model-backed)")
    parser.add_argument("--preset", default="noctua",
                        choices=tuple(sorted(HW_PRESETS)),
                        help="hardware preset the simulated points run on "
                             "(default: noctua)")
    parser.add_argument("--backend", default=None,
                        choices=("sequential", "sharded", "process"),
                        help="simulation backend for the simulated points "
                             "(default: sequential)")
    parser.add_argument("--shards", type=int, default=None,
                        help="fabric partitions for the sharded backends "
                             "(default: 2; requires --backend)")
    parser.add_argument("--no-macro-cruise", dest="macro_cruise",
                        action="store_false",
                        help="run the simulated points on the burst plane "
                             "without the per-stream analytical "
                             "fast-forward (on by default)")
    parser.add_argument("--trace", default=None, metavar="OUT",
                        help="record a cycle-domain trace of the simulated "
                             "points and write the merged timeline to OUT "
                             "(.json = Chrome/Perfetto trace-event format, "
                             ".jsonl = compact lines)")
    args = parser.parse_args(argv)
    if args.shards is not None and args.backend not in ("sharded",
                                                        "process"):
        parser.error("--shards requires --backend sharded|process")
    config = HW_PRESETS[args.preset].with_(
        macro_cruise=args.macro_cruise, trace=bool(args.trace))
    if args.backend:
        config = config.with_(
            backend=args.backend,
            shards=1 if args.backend == "sequential" else args.shards or 2)
    # The benchmark modules live in benchmarks/, importable from the repo
    # root; fall back gracefully when invoked from elsewhere.
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    bench_dir = os.path.join(here, "benchmarks")
    if os.path.isdir(bench_dir) and bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    for name in names:
        run_experiment(name, config, full=args.full, trace_out=args.trace)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
