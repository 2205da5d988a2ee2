"""Perf smoke runner: track simulator wall-clock and cycles over time.

Runs the bandwidth (Fig. 9), broadcast (Fig. 10) and reduce (Fig. 11)
kernels at small, CI-friendly sizes, in both data-plane modes
(``burst_mode`` on / off), and writes ``BENCH_smoke.json`` next to this
script:

* per point: simulated ``cycles`` (must be identical across modes — the
  burst fast path is required to be cycle-exact) and best-of-N
  wall-clock seconds per mode;
* per point: the burst/per-flit speedup plus the burst planner's
  counters (window hit rate, mean committed window length, cascade
  co-plans, pattern-replication hit rate and mean train length), so
  the supply-schedule plane's effectiveness is tracked in the perf trajectory alongside raw speed;
* bandwidth points run on two buffer presets — the paper's shallow
  NOCTUA depths and the deep-buffer NOCTUA_DEEP regime, where the
  per-event information quantum spans multiple pattern rounds (trains
  exceed one round);
* three small-program points (Table 3's 4-hop ping-pong, a 64-element
  bcast on the 8-rank torus, the 256² × 8 stencil), default plane vs
  per-flit on whole build-and-run programs, each repeated until the
  per-flit arm is large enough for the parity gate to judge;
* a macro-cruise sweep: the same p2p stream run on the burst plane
  without the fast-forward (``macro_cruise=False``: planned windows and
  validated trains only) and under the default configuration (``macro_cruise`` on — the whole-program
  analytical fast-forward that bulk applies proven rounds without
  dispatching events), with cycle-exactness enforced, the wall-clock
  speedup recorded, and the fraction of simulated cycles covered by
  fast-forward windows attached per point — on the deep-buffer preset
  (the headline points) and, record-only, at the paper's shallow NOCTUA
  depths, where the fast-forward arms through hyperperiod detection and
  the zero-slack silence proof;
* a tracing-overhead point: the canonical deep 1-hop stream run with
  the flight recorder off and on (``HardwareConfig.trace``), with
  cycle-exactness enforced and the wall-clock ratio recorded
  (``trace_overhead_off``, record-only); the traced arm also writes
  ``BENCH_trace_sample.json``, a Perfetto-loadable sample trace CI
  uploads as an artifact;
* a sharded-backend sweep over two workloads — the legacy 8-rank
  deep-buffer multi-stream fabric (each rank sends fully, then
  receives: its staggered drain serialises the shards) and a 16-rank
  *uniform-load stream* (concurrent send and recv kernels per rank, so
  every shard of any cut works at steady state for the whole run) —
  each run sequentially and on the sharded backend
  (``--backend``, default ``process``) at each ``--shards`` count
  (default 2 and 4), with cycle-exactness enforced, the honest
  sharded-vs-sequential wall-clock ratio recorded, and the per-shard
  wall-clock phase breakdown (compute / serialize / IPC wait) attached
  to every point;
* headline: per-hop-count speedups at the largest stream size, their
  replication rates for both buffer regimes, the deep-vs-shallow
  4-hop ratio, the collective planner hit rates, the
  sharded-vs-sequential ratios per shard count (from the uniform-load
  halo workload), the macro-cruise speedups and fast-forward coverage
  at the largest macro stream, and the analytical perfmodel's relative
  residual against the simulated cycle counts for the p2p/bcast/reduce
  kernels.

Every field is documented in ``benchmarks/README.md``.

Usage::

    PYTHONPATH=src python benchmarks/run_smoke.py [--quick]
        [--fail-below-parity [THRESHOLD]]
        [--backend sharded|process] [--shards 2,4]

``--fail-below-parity`` exits non-zero if any burst point's speedup —
stream, collective or small-program alike — drops below THRESHOLD x
per-flit (default 0.85 — parity with an allowance for timer noise on
shared CI runners). Sharded points are
*record-only*: their wall-clock ratio depends on host core count and
load (a single-core or loaded CI box cannot show parallel speedup), so
the trend is tracked in the JSON instead of gated. Cycle divergence
always fails, regardless of flags.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.apps import stencil
from repro.core.config import NOCTUA, NOCTUA_DEEP
from repro.core.datatypes import SMI_FLOAT
from repro.codegen.metadata import OpDecl
from repro.core.program import SMIProgram
from repro.harness.runners import (
    measure_bcast_sim_us,
    measure_pingpong_us,
    measure_reduce_sim_us,
    measure_stream_sim,
)
from repro.network.topology import noctua_bus, noctua_torus, torus2d
from repro.perfmodel import bcast_cycles, p2p_stream, reduce_cycles

#: Element counts for the bandwidth stream (Fig. 9 x-axis, in elements).
STREAM_SIZES = (1 << 10, 1 << 13, 1 << 15, 1 << 17)
QUICK_STREAM_SIZES = (1 << 10, 1 << 13)
#: Hop counts measured (Fig. 9 plots 1/4/7-hop series; 7 adds no new
#: scaling information over 4 for the smoke run).
STREAM_HOPS = (1, 4)

#: Element counts for the collective sweeps (Figs. 10-11 x-axis).
COLL_SIZES = (1 << 6, 1 << 9, 1 << 12)
QUICK_COLL_SIZES = (1 << 6, 1 << 9)
COLL_RANKS = 4

#: Buffer presets the bandwidth points sweep: the paper's shallow NOCTUA
#: depths and the deep-buffer regime where replication trains exceed one
#: round. Collective points stay on the shallow preset (their support
#: kernels are per-element, whatever the buffer depth) to keep the CI
#: run short.
BUFFER_PRESETS = (("noctua", NOCTUA), ("deep", NOCTUA_DEEP))

#: Element counts for the macro-cruise sweep. Sizes sit at and above the
#: cycle-sim/model threshold so the fast-forward covers a long steady
#: state. The deep-buffer preset carries the headline (trains run many
#: rounds there, so the no-macro arm is the strong baseline); the shallow
#: preset is the paper's own configuration, recorded next to it.
MACRO_STREAM_SIZES = (1 << 16, 1 << 17)
QUICK_MACRO_STREAM_SIZES = (1 << 16,)
MACRO_STREAM_HOPS = (1, 4)

#: Per-stream element counts for the sharded-backend sweep (an 8-rank
#: deep-buffer fabric with one neighbour stream per rank pair).
SHARD_STREAM_ELEMENTS = 1 << 15
QUICK_SHARD_STREAM_ELEMENTS = 1 << 13
#: Shard counts swept by default (overridable with --shards).
SHARD_COUNTS = (2, 4)
#: Ranks in the uniform-load stream workload: 16 ranks give every shard
#: of a 2- or 4-way cut the same steady-state work, unlike the 8-rank
#: multistream whose staggered drain serialises the shards.
UNIFORM_STREAM_RANKS = 16

#: One run of a small program (Table 3's ping-pong, a 64-element bcast,
#: a 256^2 x 8 stencil) is a few milliseconds: each timed sample repeats
#: it until the per-flit arm reaches this, so the parity gate's 25 ms
#: size filter keeps the point.
SMALL_MIN_WALL_S = 0.04

#: Element count for the tracing-overhead point (the canonical deep
#: 1-hop stream, run with the flight recorder off and on).
TRACE_STREAM_ELEMENTS = 1 << 15
QUICK_TRACE_STREAM_ELEMENTS = 1 << 13


def _best_of(fn, repeats: int):
    value = None
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return value, best


def _finish_point(point):
    point["cycle_exact"] = point["cycles_burst"] == point["cycles_flit"]
    point["speedup"] = round(
        point["wall_s_flit"] / max(point["wall_s_burst"], 1e-9), 2
    )
    return point


def run_stream_points(sizes, repeats):
    points = []
    for buffers, preset in BUFFER_PRESETS:
        for hops in STREAM_HOPS:
            for n in sizes:
                point = {"kind": "bandwidth", "elements": int(n),
                         "bytes": int(n) * SMI_FLOAT.size, "hops": hops,
                         "buffers": buffers, "backend": "sequential",
                         "shards": 1}
                for mode in (False, True):
                    cfg = preset.with_(burst_mode=mode)
                    stats: dict = {}
                    cycles, wall = _best_of(
                        lambda: measure_stream_sim(n, hops, SMI_FLOAT, cfg,
                                                   planner_stats=stats),
                        repeats,
                    )
                    key = "burst" if mode else "flit"
                    point[f"cycles_{key}"] = int(cycles)
                    point[f"wall_s_{key}"] = round(wall, 4)
                    if mode:
                        point["planner"] = stats
                points.append(_finish_point(point))
    return points


def run_collective_points(sizes, repeats):
    points = []
    topology = noctua_bus()
    for kind, measure in (("bcast", measure_bcast_sim_us),
                          ("reduce", measure_reduce_sim_us)):
        for n in sizes:
            point = {"kind": kind, "elements": int(n), "ranks": COLL_RANKS,
                     "backend": "sequential", "shards": 1}
            for mode in (False, True):
                cfg = NOCTUA.with_(burst_mode=mode)
                stats: dict = {}
                us, wall = _best_of(
                    lambda: measure(n, topology, COLL_RANKS, cfg,
                                    planner_stats=stats),
                    repeats,
                )
                key = "burst" if mode else "flit"
                point[f"cycles_{key}"] = int(round(us / cfg.cycles_to_us(1)))
                point[f"wall_s_{key}"] = round(wall, 4)
                if mode:
                    point["planner"] = stats
            points.append(_finish_point(point))
    return points


def _small_programs():
    """``(name, elements, run(config) -> simulated cycles)`` for the
    programs Tables 3-4 and the applications are made of, where the
    default plane must not lose to the specification."""
    grid = np.arange(256 * 256, dtype=np.float32).reshape(256, 256) % 17

    def cycles(us, cfg):
        return int(round(us / cfg.cycles_to_us(1)))

    return (
        ("pingpong_4hop", 1,
         lambda cfg: cycles(2 * measure_pingpong_us(4, cfg), cfg)),
        ("bcast_64", 64,
         lambda cfg: cycles(measure_bcast_sim_us(64, noctua_torus(), 8, cfg),
                            cfg)),
        ("stencil_256x8", grid.size * 8,
         lambda cfg: cycles(stencil.run_distributed_sim(
             grid, 8, (2, 2), topology=torus2d(2, 2), config=cfg)[1], cfg)),
    )


def run_small_points(repeats):
    """Default plane vs per-flit on whole small programs (build
    included — set-up is a large share of such a run). Samples are
    40 ms, so even ``--quick`` affords the best of nine, the arms
    alternating sample by sample, that the ratio of two millisecond-sized
    runs needs on a drifting host."""
    repeats = max(repeats, 9)
    arms = (("flit", NOCTUA.with_(burst_mode=False)), ("burst", NOCTUA))
    points = []
    for name, elements, run in _small_programs():
        _, once = _best_of(lambda: run(arms[0][1]), 2)
        runs = max(1, int(SMALL_MIN_WALL_S / once) + 1)
        point = {"kind": "small_program", "program": name,
                 "elements": elements, "runs": runs,
                 "backend": "sequential", "shards": 1}
        best = dict.fromkeys(("flit", "burst"), float("inf"))
        for _ in range(repeats):
            for key, cfg in arms:
                t0 = time.perf_counter()
                for _ in range(runs):
                    point[f"cycles_{key}"] = run(cfg)
                best[key] = min(best[key], time.perf_counter() - t0)
        for key, wall in best.items():
            point[f"wall_s_{key}"] = round(wall, 4)
        points.append(_finish_point(point))
    return points


def run_macro_points(sizes, repeats, hops_list=MACRO_STREAM_HOPS,
                     presets=BUFFER_PRESETS[::-1]):
    """Macro-cruise on vs off on the p2p stream, per preset.

    The no-macro arm is the burst plane without the fast-forward
    (``macro_cruise=False``: window planning and validated pattern
    replication); the macro arm is the default configuration, with
    the whole-program analytical fast-forward on. The fast plane must
    stay cycle-exact; ``ff_coverage`` records the fraction of simulated
    time it bulk-applied without dispatch. Deep points come first (the
    headline reads them); the ``noctua`` points are record-only.
    """
    points = []
    for label, preset in presets:
        nomacro_cfg = preset.with_(macro_cruise=False)
        for hops in hops_list:
            for n in sizes:
                point = {"kind": "macro_stream", "elements": int(n),
                         "bytes": int(n) * SMI_FLOAT.size, "hops": hops,
                         "buffers": label, "backend": "sequential",
                         "shards": 1}
                cycles_nomacro, wall_nomacro = _best_of(
                    lambda: measure_stream_sim(n, hops, SMI_FLOAT,
                                               nomacro_cfg),
                    repeats,
                )
                stats: dict = {}
                cycles_macro, wall_macro = _best_of(
                    lambda: measure_stream_sim(n, hops, SMI_FLOAT, preset,
                                               planner_stats=stats),
                    repeats,
                )
                point["cycles_nomacro"] = int(cycles_nomacro)
                point["cycles_macro"] = int(cycles_macro)
                point["cycle_exact"] = cycles_nomacro == cycles_macro
                point["wall_s_nomacro"] = round(wall_nomacro, 4)
                point["wall_s_macro"] = round(wall_macro, 4)
                point["speedup"] = round(
                    wall_nomacro / max(wall_macro, 1e-9), 2)
                point["planner"] = stats
                point["ff_coverage"] = round(
                    stats["ff_cycles"] / max(int(cycles_macro), 1), 4)
                point["macro_chain_len"] = stats.get(
                    "mean_ff_chain_len", 0.0)
                points.append(point)
    return points


def run_trace_points(n, repeats, sample_out=None):
    """Flight-recorder cost on the canonical deep 1-hop stream.

    Runs the same stream with tracing off and on.
    ``trace_overhead_off`` is ``wall_s_off / wall_s_on`` — how much
    faster the untraced run is (record-only: the zero-overhead-off
    *cycle* contract is what the equivalence suites gate; this tracks
    the wall-clock cost of turning the recorder on). Cycle counts must
    be identical either way. When ``sample_out`` is given, the traced
    arm also writes its merged Perfetto trace there (the CI artifact).
    """
    off_cfg = NOCTUA_DEEP
    on_cfg = NOCTUA_DEEP.with_(trace=True)
    cycles_off, wall_off = _best_of(
        lambda: measure_stream_sim(n, 1, SMI_FLOAT, off_cfg), repeats)
    cycles_on, wall_on = _best_of(
        lambda: measure_stream_sim(
            n, 1, SMI_FLOAT, on_cfg,
            trace_out=None if sample_out is None else str(sample_out)),
        repeats)
    return [{
        "kind": "trace_stream", "elements": int(n), "hops": 1,
        "buffers": "deep", "backend": "sequential", "shards": 1,
        "cycles_off": int(cycles_off), "cycles_on": int(cycles_on),
        "cycle_exact": cycles_off == cycles_on,
        "wall_s_off": round(wall_off, 4),
        "wall_s_on": round(wall_on, 4),
        "trace_overhead_off": round(wall_off / max(wall_on, 1e-9), 4),
    }]


def _collect_run_stats(res, planner_stats, timing, ends):
    """Fill the out-params shared by the shard-sweep workloads."""
    from repro.simulation.stats import collect_planner_stats

    if planner_stats is not None:
        stats = collect_planner_stats(res.transport)
        planner_stats.update(
            windows=stats.windows, takes=stats.takes,
            hit_rate=round(stats.hit_rate, 4),
            mean_window=round(stats.mean_window, 2),
            coplans=stats.coplans, replications=stats.replications,
            replicated_rounds=stats.replicated_rounds,
            mean_train_rounds=round(stats.mean_train_rounds, 2),
        )
    if timing is not None:
        # Keep the last repeat's breakdown (the timed runs overwrite).
        timing[:] = list(getattr(res.transport, "shard_timing", []))
    return max(ends)


def measure_multistream_cycles(n, config, planner_stats=None,
                               num_ranks=8, timing=None):
    """One neighbour stream per rank pair over a ``num_ranks``-rank bus.

    Every rank both sends and receives (rank 0 sends only, the last
    rank receives only) — but within one kernel, in sequence: each rank
    finishes its send before it starts draining its receive, so the
    pipeline drains in a stagger that leaves earlier shards idle while
    later ones finish. Kept as the adversarial (serialising) workload
    of the sharded-backend sweep; ``measure_uniform_stream_cycles`` is
    the uniform-load counterpart. Returns the global end cycle (max
    per-rank finish). Results flow through ``smi.store`` so the
    workload runs identically under the process backend.
    """
    import numpy as np

    from repro.network.topology import bus

    topology = noctua_bus() if num_ranks == 8 else bus(num_ranks)
    prog = SMIProgram(topology, config=config)
    data = np.zeros(n, dtype=np.float32)

    def kernel(smi):
        if smi.rank < num_ranks - 1:
            snd = smi.open_send_channel(n, SMI_FLOAT, smi.rank + 1, 0)
            yield from snd.push_vec(data, width=8)
        if smi.rank > 0:
            rcv = smi.open_recv_channel(n, SMI_FLOAT, smi.rank - 1, 0)
            yield from rcv.pop_vec(n, width=8)
        smi.store("end", smi.cycle)

    for rank in range(num_ranks):
        ops = []
        if rank < num_ranks - 1:
            ops.append(OpDecl("send", 0, SMI_FLOAT, peer=rank + 1))
        if rank > 0:
            ops.append(OpDecl("recv", 0, SMI_FLOAT, peer=rank - 1))
        prog.add_kernel(kernel, rank=rank, ops=ops, name="stream")
    res = prog.run(max_cycles=500_000_000)
    assert res.completed, res.reason
    return _collect_run_stats(
        res, planner_stats, timing,
        [res.store(r, "end") for r in range(num_ranks)],
    )


def measure_uniform_stream_cycles(n, config, planner_stats=None,
                                  num_ranks=UNIFORM_STREAM_RANKS, timing=None):
    """Steady-state neighbour streams on a ``num_ranks``-rank bus.

    Each rank runs *concurrent* kernels — a sender streaming to
    ``rank + 1`` and, independently, a receiver draining from
    ``rank - 1`` — so once the pipeline fills, every rank (and hence
    every shard of a contiguous cut) is sending and receiving for the
    whole run: the uniform-load scaling workload the sharded headline
    ratio is taken from. (Running both directions at once instead
    deadlocks legitimately at depth — opposing streams share each
    rank's CKS chain on a bus, closing a §3.3 credit cycle — so
    uniformity comes from kernel concurrency, not counter-traffic.)
    Returns the global end cycle (max per-kernel finish).
    """
    import numpy as np

    from repro.network.topology import bus

    prog = SMIProgram(bus(num_ranks), config=config)
    data = np.zeros(n, dtype=np.float32)

    def sender(smi):
        snd = smi.open_send_channel(n, SMI_FLOAT, smi.rank + 1, 0)
        yield from snd.push_vec(data, width=8)
        smi.store("end_tx", smi.cycle)

    def receiver(smi):
        rcv = smi.open_recv_channel(n, SMI_FLOAT, smi.rank - 1, 0)
        yield from rcv.pop_vec(n, width=8)
        smi.store("end_rx", smi.cycle)

    for rank in range(num_ranks):
        if rank < num_ranks - 1:
            prog.add_kernel(sender, rank=rank, name="stream_tx",
                            ops=[OpDecl("send", 0, SMI_FLOAT, peer=rank + 1)])
        if rank > 0:
            prog.add_kernel(receiver, rank=rank, name="stream_rx",
                            ops=[OpDecl("recv", 0, SMI_FLOAT, peer=rank - 1)])
    res = prog.run(max_cycles=500_000_000)
    assert res.completed, res.reason
    ends = [res.store(r, "end_tx") for r in range(num_ranks - 1)]
    ends += [res.store(r, "end_rx") for r in range(1, num_ranks)]
    return _collect_run_stats(res, planner_stats, timing, ends)


#: The shard sweep's workloads: (name, measure fn, ranks).
SHARD_WORKLOADS = (
    ("multistream", measure_multistream_cycles, 8),
    ("uniform_stream", measure_uniform_stream_cycles, UNIFORM_STREAM_RANKS),
)


def run_shard_points(n, repeats, backend="process", shard_counts=SHARD_COUNTS):
    """Sharded-vs-sequential sweep over both deep-buffer workloads."""
    points = []
    base = NOCTUA_DEEP
    for workload, measure, ranks in SHARD_WORKLOADS:
        cycles_seq, wall_seq = _best_of(
            lambda: measure(n, base), repeats)
        for shards in shard_counts:
            cfg = base.with_(backend=backend, shards=shards)
            stats: dict = {}
            timing: list = []
            cycles_shard, wall_shard = _best_of(
                lambda: measure(n, cfg, planner_stats=stats, timing=timing),
                repeats,
            )
            points.append({
                "kind": "shard_stream",
                "workload": workload,
                "elements": int(n),
                "ranks": ranks,
                "buffers": "deep",
                "backend": backend,
                "shards": shards,
                "cycles_seq": int(cycles_seq),
                "cycles_shard": int(cycles_shard),
                "cycle_exact": cycles_seq == cycles_shard,
                "wall_s_seq": round(wall_seq, 4),
                "wall_s_shard": round(wall_shard, 4),
                "speedup": round(wall_seq / max(wall_shard, 1e-9), 2),
                "planner": stats,
                "timing": timing,
            })
    return points


def build_headline(points):
    largest_n = max(p["elements"] for p in points if p["kind"] == "bandwidth")
    headline = {
        "largest_stream_bytes": largest_n * SMI_FLOAT.size,
        "all_cycle_exact": all(p["cycle_exact"] for p in points),
    }
    for p in points:
        if p["kind"] != "bandwidth" or p["elements"] != largest_n:
            continue
        if p["buffers"] == "noctua":
            headline[f"speedup_at_largest_{p['hops']}hop"] = p["speedup"]
            headline[f"planner_hit_rate_{p['hops']}hop"] = \
                p["planner"]["hit_rate"]
            headline[f"planner_mean_window_{p['hops']}hop"] = \
                p["planner"]["mean_window"]
            headline[f"replication_hit_rate_{p['hops']}hop"] = \
                p["planner"]["replication_hit_rate"]
            headline[f"mean_train_rounds_{p['hops']}hop"] = \
                p["planner"]["mean_train_rounds"]
        else:
            headline[f"deep_speedup_at_largest_{p['hops']}hop"] = \
                p["speedup"]
            headline[f"deep_mean_train_rounds_{p['hops']}hop"] = \
                p["planner"]["mean_train_rounds"]
    shallow = headline.get("speedup_at_largest_4hop")
    deep = headline.get("deep_speedup_at_largest_4hop")
    if shallow and deep:
        # The deep-buffer regime's payoff: quanta spanning multiple
        # pattern rounds make the burst plane relatively faster.
        headline["deep_vs_shallow_4hop"] = round(deep / shallow, 2)
    for kind in ("bcast", "reduce"):
        coll = [p for p in points if p["kind"] == kind]
        if coll:
            biggest = max(coll, key=lambda p: p["elements"])
            headline[f"{kind}_planner_windows"] = \
                biggest["planner"]["windows"]
            headline[f"{kind}_planner_hit_rate"] = \
                biggest["planner"]["hit_rate"]
    shard = [p for p in points if p["kind"] == "shard_stream"]
    if shard:
        # Honest sharded-vs-sequential wall ratios: >1 means the forked
        # workers beat the boundary-exchange overhead; <1 is reported
        # as-is (a single-core or loaded box cannot show parallel
        # speedup at all). The headline ratio comes from the
        # uniform-load halo workload — the multistream workload's
        # staggered drain serialises the shards by construction and
        # stays visible in its own points.
        headline["shard_backend"] = shard[0]["backend"]
        uniform = [p for p in shard if p["workload"] == "uniform_stream"]
        for p in uniform or shard:
            headline[f"shard_vs_seq_{p['shards']}shards"] = p["speedup"]
    macro = [p for p in points if p["kind"] == "macro_stream"]
    if macro:
        largest_m = max(p["elements"] for p in macro)
        for p in macro:
            if p["elements"] != largest_m:
                continue
            # Deep points keep the established names; the shallow
            # (paper-depth) points are recorded beside them.
            tag = f"{p['hops']}hop" if p["buffers"] == "deep" \
                else f"{p['hops']}hop_{p['buffers']}"
            headline[f"macro_speedup_{tag}"] = p["speedup"]
            headline[f"macro_ff_coverage_{tag}"] = p["ff_coverage"]
            headline[f"macro_chain_len_{tag}"] = p["macro_chain_len"]
    for p in points:
        if p["kind"] == "trace_stream":
            headline["trace_overhead_off"] = p["trace_overhead_off"]
    headline.update(_perfmodel_residuals(points))
    return headline


def _perfmodel_residuals(points):
    """Analytical-model vs simulated cycles at the largest sim points.

    ``(model - sim) / sim`` for the kernels the perfmodel extends beyond
    ``SIM_ELEMENT_LIMIT``: the shallow-preset p2p stream and the
    bcast/reduce collectives. Tracked so formula drift between the model
    (``src/repro/perfmodel/``) and the simulator shows up in the perf
    trajectory; ``tests/test_perfmodel_checked.py`` bounds it.
    """
    out = {}
    hops = noctua_bus().hop_matrix()
    chain_hops = (sum(hops[r][r + 1] for r in range(COLL_RANKS - 1))
                  / (COLL_RANKS - 1))
    bw = [p for p in points
          if p["kind"] == "bandwidth" and p["buffers"] == "noctua"]
    if bw:
        p = max(bw, key=lambda q: (q["elements"], q["hops"]))
        model = p2p_stream(p["elements"], SMI_FLOAT, p["hops"], NOCTUA,
                           app_width=8).cycles
        out["perfmodel_residual_p2p"] = round(
            (model - p["cycles_burst"]) / p["cycles_burst"], 4)
    for kind, model_fn in (("bcast", bcast_cycles),
                           ("reduce", reduce_cycles)):
        coll = [p for p in points if p["kind"] == kind]
        if coll:
            p = max(coll, key=lambda q: q["elements"])
            model = model_fn(p["elements"], SMI_FLOAT, COLL_RANKS,
                             chain_hops, NOCTUA)
            out[f"perfmodel_residual_{kind}"] = round(
                (model - p["cycles_burst"]) / p["cycles_burst"], 4)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller sizes, one repeat (CI smoke)")
    parser.add_argument("--fail-below-parity", nargs="?", type=float,
                        const=0.85, default=None, metavar="THRESHOLD",
                        help="exit non-zero if any burst point's speedup "
                             "falls below THRESHOLD (default 0.85)")
    parser.add_argument("--out", default=None,
                        help="output path (default: BENCH_smoke.json "
                             "next to this script)")
    parser.add_argument("--backend", default="process",
                        choices=("sharded", "process"),
                        help="sharded backend measured by the shard sweep "
                             "(default: process — forked workers)")
    parser.add_argument("--shards", default=",".join(map(str, SHARD_COUNTS)),
                        help="comma-separated shard counts for the shard "
                             "sweep (default: 2,4; empty string skips it)")
    args = parser.parse_args(argv)

    repeats = 2 if args.quick else 3
    stream_sizes = QUICK_STREAM_SIZES if args.quick else STREAM_SIZES
    coll_sizes = QUICK_COLL_SIZES if args.quick else COLL_SIZES
    macro_sizes = (QUICK_MACRO_STREAM_SIZES if args.quick
                   else MACRO_STREAM_SIZES)
    shard_n = (QUICK_SHARD_STREAM_ELEMENTS if args.quick
               else SHARD_STREAM_ELEMENTS)
    shard_counts = tuple(int(s) for s in args.shards.split(",") if s)

    backend = args.backend
    if backend == "process":
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            print("note: fork unavailable; shard sweep falls back to the "
                  "in-process sharded backend", file=sys.stderr)
            backend = "sharded"

    trace_n = (QUICK_TRACE_STREAM_ELEMENTS if args.quick
               else TRACE_STREAM_ELEMENTS)
    sample_out = Path(__file__).resolve().parent / "BENCH_trace_sample.json"

    points = run_stream_points(stream_sizes, repeats)
    points += run_collective_points(coll_sizes, repeats)
    points += run_small_points(repeats)
    points += run_macro_points(macro_sizes, repeats)
    points += run_trace_points(trace_n, repeats, sample_out=sample_out)
    if shard_counts:
        points += run_shard_points(shard_n, repeats, backend=backend,
                                   shard_counts=shard_counts)
    report = {
        "benchmark": "smoke",
        "quick": bool(args.quick),
        "points": points,
        "headline": build_headline(points),
    }
    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parent / "BENCH_smoke.json"
    )
    out.write_text(json.dumps(report, indent=2) + "\n")

    from repro.harness.reporting import shard_timing_summary

    for p in points:
        if p["kind"] == "shard_stream":
            print(f"{p['kind']:9s} {p['backend']:>7s}x{p['shards']} "
                  f"{p['workload'][:12]:12s} n={p['elements']:7d}  "
                  f"cycles={p['cycles_shard']:9d} exact={p['cycle_exact']}  "
                  f"seq={p['wall_s_seq']:.3f}s "
                  f"shard={p['wall_s_shard']:.3f}s "
                  f"speedup={p['speedup']:.2f}x")
            if p["timing"]:
                print(shard_timing_summary(p["timing"]))
            continue
        if p["kind"] == "trace_stream":
            print(f"{p['kind']:9s} hops={p['hops']} deep   "
                  f"n={p['elements']:7d}  "
                  f"cycles={p['cycles_on']:9d} exact={p['cycle_exact']}  "
                  f"off={p['wall_s_off']:.3f}s on={p['wall_s_on']:.3f}s "
                  f"ratio={p['trace_overhead_off']:.2f}")
            continue
        if p["kind"] == "macro_stream":
            planner = p["planner"]
            print(f"{p['kind']:9s} hops={p['hops']} {p['buffers'][:4]:6s} "
                  f"n={p['elements']:7d}  "
                  f"cycles={p['cycles_macro']:9d} exact={p['cycle_exact']}  "
                  f"nomacro={p['wall_s_nomacro']:.3f}s "
                  f"macro={p['wall_s_macro']:.3f}s "
                  f"speedup={p['speedup']:.2f}x  "
                  f"ffwin={planner['ff_windows']} "
                  f"ffrounds={planner['ff_bulk_rounds']} "
                  f"ffcov={p['ff_coverage']:.2f} "
                  f"chain={p['macro_chain_len']:.1f}")
            continue
        if p["kind"] == "small_program":
            print(f"{p['kind'][:9]:9s} {p['program']:12s} x{p['runs']:<6d}  "
                  f"cycles={p['cycles_burst']:9d} exact={p['cycle_exact']}  "
                  f"flit={p['wall_s_flit']:.3f}s "
                  f"burst={p['wall_s_burst']:.3f}s "
                  f"speedup={p['speedup']:.2f}x")
            continue
        tag = (f"hops={p['hops']} {p['buffers'][:4]}"
               if p["kind"] == "bandwidth" else f"ranks={p['ranks']}")
        planner = p["planner"]
        print(f"{p['kind']:9s} {tag:12s} n={p['elements']:7d}  "
              f"cycles={p['cycles_burst']:9d} exact={p['cycle_exact']}  "
              f"flit={p['wall_s_flit']:.3f}s burst={p['wall_s_burst']:.3f}s "
              f"speedup={p['speedup']:.2f}x  "
              f"hit={planner['hit_rate']:.2f} "
              f"meanwin={planner['mean_window']:.1f} "
              f"coplans={planner['coplans']} "
              f"trains={planner['replications']} "
              f"meantrain={planner['mean_train_rounds']:.1f}")
    print(f"headline: {report['headline']}")
    print(f"wrote {out}")
    if not report["headline"]["all_cycle_exact"]:
        for p in points:
            if p["cycle_exact"]:
                continue
            if p["kind"] == "shard_stream":
                print(f"ERROR: sharded backend ({p['backend']} x"
                      f"{p['shards']}) diverged from the sequential "
                      f"reference ({p['cycles_shard']} vs "
                      f"{p['cycles_seq']} cycles)", file=sys.stderr)
            elif p["kind"] == "macro_stream":
                print(f"ERROR: macro-cruise diverged from the no-macro "
                      f"reference (n={p['elements']} hops={p['hops']}: "
                      f"{p['cycles_macro']} vs {p['cycles_nomacro']} "
                      "cycles)", file=sys.stderr)
            elif p["kind"] == "trace_stream":
                print(f"ERROR: tracing changed the simulated cycle count "
                      f"(n={p['elements']}: {p['cycles_on']} traced vs "
                      f"{p['cycles_off']} untraced)", file=sys.stderr)
            else:
                print(f"ERROR: burst mode diverged from the per-flit "
                      f"reference ({p['kind']} n={p['elements']}: "
                      f"{p['cycles_burst']} vs {p['cycles_flit']} "
                      "cycles)", file=sys.stderr)
        return 1
    if args.fail_below_parity is not None:
        # Points whose per-flit wall time is a few milliseconds measure
        # mostly interpreter warm-up and timer jitter on shared CI
        # runners; the parity gate only judges points large enough for
        # the ratio to be meaningful (the small-program points repeat
        # their program until they are). Sharded points are
        # record-only: their sequential-vs-parallel wall ratio is a
        # property of the host (core count, load) as much as of the
        # code — a single-core or noisy CI box legitimately measures
        # < 1x — so the trend lives in BENCH_smoke.json's
        # shard_vs_seq_* headline instead of a pass/fail threshold.
        # Cycle divergence on sharded points still fails
        # unconditionally above.
        # Macro points are record-only like shard points: their speedup
        # is nomacro-vs-macro (tracked via the macro_speedup_* headline),
        # not the burst-vs-flit parity this gate judges.
        gated = [p for p in points
                 if p["kind"] not in ("shard_stream", "macro_stream",
                                      "trace_stream")
                 and p["wall_s_flit"] >= 0.025]
        slow = [p for p in gated
                if p["speedup"] < args.fail_below_parity]
        if slow:
            for p in slow:
                print(f"ERROR: {p.get('program', p['kind'])} "
                      f"n={p['elements']} regressed to "
                      f"{p['speedup']:.2f}x (< {args.fail_below_parity}x "
                      "per-flit parity)", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
