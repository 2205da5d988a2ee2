#!/usr/bin/env python3
"""The repo benchmark: six SMI workloads, calibration-normalised host
cost, per-layer attribution. See ``README.md`` beside this file.

Driver form (one workload, one pass; the last stdout line is one JSON
object with ``correct`` / ``attempted`` / ``failed`` / ``metrics``)::

    python3 benchmarks/profile/run_profile.py --workload stream_flit \
        --seed 0 --seconds 10 --trace 0        # end-to-end metrics
    ... --trace 1                              # per-layer metrics

Whole-benchmark form (every workload, both passes, each workload in its
own child process; writes ``BENCH_profile.json`` + ``spans.json``)::

    python3 benchmarks/profile/run_profile.py [--seed S] [--seconds T |
        --rounds N] [--out FILE]
    python3 benchmarks/profile/run_profile.py --compare A.json B.json

Load model: closed loop, one client, programs back to back, no threads;
only ``shard_uniform`` forks (2 workers). Every pass runs one process
down, leading a process group of its own, and the command returns only
once that whole group has ended (:func:`contained`). An *operation* is one
``SMIProgram.run`` of one generated program. Nothing under ``src/`` is
touched: every number comes from timing calls into public functions,
public counters on the returned ``ProgramResult``, and sampling the
interpreter stack. Every full run of every pass is verified against the
sequential per-flit plane; the verification cannot be switched off.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
# The driver sets no PYTHONPATH; a checkout without src/ fails right here.
sys.path[:0] = [str(REPO / "src"), str(HERE)]

from calib import (CALIB_CHECKSUM, CALIB_NOMINAL_S,  # noqa: E402
                   calibrate)
from layers import (EVENT_METRICS, LAYERS, SPAN_NAMES,  # noqa: E402
                    EmitCounts, Sampler, Spans)
from workloads import (WORKLOADS, Workload, first_difference,  # noqa: E402
                       make_workload, signature)

from repro.simulation.stats import (PlannerStats,  # noqa: E402
                                    collect_planner_stats)

#: Fewest timed rounds of a pass, whatever ``--seconds`` says.
MIN_ROUNDS = 3
#: Fewest build-only runs per program behind ``setup_s``, and how many
#: follow each timed round.
SETUP_REPS = 25
BUILDS_PER_ROUND = 5
#: Build-only repetitions per program in the traced set-up closure.
TRACED_SETUP_REPS = 5
#: Samples a workload should pool before its shares are trusted.
MIN_SAMPLES = 1000
#: How long a finished pass's stragglers are given to end by themselves.
GROUP_GRACE_S = 10.0


def load_spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Clocks
# ----------------------------------------------------------------------
def _cpu_now() -> float:
    """CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def clocked(fn):
    """``(wall_s, cpu_s, fn())`` with a collection first, GC left on."""
    gc.collect()
    wall0, cpu0 = time.perf_counter(), _cpu_now()
    out = fn()
    return time.perf_counter() - wall0, _cpu_now() - cpu0, out


def clocked_calib() -> tuple[float, float]:
    wall, cpu, checksum = clocked(calibrate)
    if checksum != CALIB_CHECKSUM:
        raise RuntimeError("calib.py was edited: checksum "
                           f"{checksum} != {CALIB_CHECKSUM}")
    return wall, cpu


def peak_rss_mib() -> float:
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def summary(values) -> dict:
    """Median, quartiles and count of a list of readings."""
    values = list(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


# ----------------------------------------------------------------------
# Running and verifying operations
# ----------------------------------------------------------------------
def distinct(ops) -> list:
    """``(op, multiplicity)`` for a program list that repeats itself."""
    counts = Counter(map(id, ops))
    return [(op, counts[key])
            for key, op in {id(op): op for op in ops}.items()]


def reference_config(config):
    """The specification plane: sequential per-flit, same buffers."""
    return config.with_(burst_mode=False, macro_cruise=False,
                        backend="sequential", shards=1, trace=False)


class Ledger:
    """Every full operation of every pass, kept for the closing
    verification against the per-flit reference of the same tree."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.entries: list[tuple] = []   # (op, signature | None, error)

    def run(self, op, config) -> dict | None:
        """One operation: its signature is recorded, and what the result
        says of itself (:func:`facts`) returned; the result itself is
        dropped so that only one program is ever alive. A raising run is
        recorded, not propagated."""
        try:
            res, outputs = op.run(config)
        except Exception as exc:  # the benchmark must outlive a bad run
            self.entries.append(
                (op, None, f"raised {type(exc).__name__}: {exc}"))
            return None
        self.entries.append((op, signature(res, outputs), None))
        return facts(res)

    def round(self, config) -> list:
        return [self.run(op, config) for op in self.workload.ops]

    def verify(self) -> dict:
        """Run the reference pass and judge every recorded operation.

        An operation *fails* if it raised, did not complete, or differs
        from the reference in end cycle, any store or output (bit for
        bit) or any per-FIFO push/pop count. The reference itself is
        checked against NumPy ground truth. Nothing is pinned across
        commits: the reference is recomputed from the same tree.
        """
        config = reference_config(self.workload.config)
        start = time.perf_counter()
        reference, truth_errors, anchors = {}, [], []
        for op, _ in distinct(self.workload.ops):
            res, outputs = op.run(config)
            error = (op.truth(res, outputs) if res.completed
                     else f"reference run ended with {res.reason}")
            if error:
                truth_errors.append(f"{op.name}: {error}")
            reference[id(op)] = signature(res, outputs)
            anchors += op.anchors(res, config)
        failures = []
        for op, sig, error in self.entries:
            if error is None and sig["reason"] != "completed":
                error = f"ended with {sig['reason']}"
            if error is None:
                error = first_difference(sig, reference[id(op)])
            if error:
                failures.append(f"{op.name}: {error}")
        return {"attempted": len(self.entries), "failures": failures,
                "truth_errors": truth_errors, "anchors": anchors,
                "reference_wall_s": time.perf_counter() - start}


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def in_process(config):
    """``config`` with the process backend swapped for the in-process
    sharded one (same partition, same epochs, no workers)."""
    if config.backend == "process":
        return config.with_(backend="sharded")
    return config


def build_only(op, config) -> float:
    """Wall seconds of one build-only run: ``run(max_cycles=0)`` of a
    fresh program (routes, plan, transport, kernel spawn; no simulation).
    The process backend is built in-process: forking and reaping its two
    workers is two thirds of its 30 ms and swings ± 20 % with the
    hypervisor's state, independently of the interpreter's speed."""
    config = in_process(config)
    start = time.perf_counter()
    res, _ = op.run(config, 0)
    wall = time.perf_counter() - start
    if res.reason != "max_cycles" or res.cycles != 0:
        raise RuntimeError(f"{op.name}: build-only run simulated "
                           f"({res.reason} at cycle {res.cycles})")
    return wall


def timed_pass(ledger: Ledger, seconds: float, rounds: int | None,
               builds_per_round: int = 0) -> dict:
    """Tracing off: rounds of ``calib, workload, calib`` (neighbouring
    rounds share the calibration run between them), each followed —
    outside every timed region — by ``builds_per_round`` build-only runs
    per program, so that ``setup_s`` samples the host over the whole
    pass the way the rounds do. Returns the rows, the build-only walls
    and the last round's public counters."""
    workload = ledger.workload
    config = workload.config
    rows, last = [], []
    builds = {op.name: [] for op in workload.ops}
    clocked_calib()       # the loop's own first call runs ~1.5x slow
    before = clocked_calib()
    deadline = time.perf_counter() + seconds
    while (len(rows) < rounds if rounds else
           len(rows) < MIN_ROUNDS or time.perf_counter() < deadline):
        wall, cpu, last = clocked(lambda: ledger.round(config))
        after = clocked_calib()
        calib_wall = (before[0] + after[0]) / 2
        calib_cpu = (before[1] + after[1]) / 2
        rows.append({"wall_s": wall, "cpu_s": cpu, "calib_s": calib_wall,
                     "wall_norm": wall / calib_wall,
                     "cpu_norm": cpu / calib_cpu,
                     "shard_timing": [timing for fact in last if fact
                                      for timing in fact["shard_timing"]]})
        before = after
        for op, _ in distinct(workload.ops):
            builds[op.name] += [build_only(op, config)
                                for _ in range(builds_per_round)]
    last = [fact for fact in last if fact is not None]
    return {"rows": rows, "builds": builds,
            "counters": public_counters(last)}


def setup_summary(workload: Workload, timed: dict) -> dict:
    """``setup_s``: Σ over a round's programs of the median build-only
    wall (each program topped up to ``SETUP_REPS`` runs), quoted at the
    reference host speed — scaled by ``CALIB_NOMINAL_S`` over the pass's
    median calibration wall. Raw seconds follow the box's slow phases
    (± 35 % for minutes at a time); the scaled ones do not."""
    scale = CALIB_NOMINAL_S / statistics.median(
        row["calib_s"] for row in timed["rows"])
    total = {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": SETUP_REPS}
    raw_per_op = {}
    for op, count in distinct(workload.ops):
        walls = timed["builds"][op.name]
        while len(walls) < SETUP_REPS:
            walls.append(build_only(op, workload.config))
        raw_per_op[op.name] = stats = summary(walls)
        total["n"] = max(total["n"], stats["n"])
        for key in ("median", "q1", "q3"):
            total[key] += count * stats[key] * scale
    return {"total": total, "raw_per_op": raw_per_op, "scale": scale}


def facts(res) -> dict:
    """The public counters of one ``ProgramResult``."""
    fifos = res.engine.fifo_stats()
    return {
        "planner": collect_planner_stats(res.transport),
        "fifos": len(fifos),
        "pushes": sum(st["pushes"] for st in fifos.values()),
        "cycles": res.cycles,
        # The process backend's engines live in its workers.
        "processes": len(getattr(res.engine, "processes", ())),
        "shard_timing": list(getattr(res.transport, "shard_timing", ())),
    }


def public_counters(round_facts) -> dict:
    """One round's :func:`facts`, summed into the counter metrics."""
    planner = PlannerStats()
    for fact in round_facts:
        planner = planner.merge(fact["planner"])
    cycles = sum(fact["cycles"] for fact in round_facts)
    return {
        "planner.attempts": planner.attempts,
        "planner.windows": planner.windows,
        "planner.hit_rate": planner.hit_rate,
        "planner.mean_window": planner.mean_window,
        "planner.coplans": planner.coplans,
        "planner.takes": planner.takes,
        "planner.replication_hit_rate": planner.replication_hit_rate,
        "planner.mean_train_rounds": planner.mean_train_rounds,
        "planner.cruise_rounds": planner.cruise_rounds,
        "planner.cruise_hit_rate": planner.cruise_hit_rate,
        "planner.ff_coverage": planner.ff_cycles / cycles if cycles else 0.0,
        "planner.mean_ff_chain_len": planner.mean_ff_chain_len,
        "fifo.items_pushed": sum(fact["pushes"] for fact in round_facts),
        "fifo.count": sum(fact["fifos"] for fact in round_facts),
        "engine.sim_cycles": cycles,
        "engine.processes": sum(fact["processes"] for fact in round_facts),
    }


def traced_pass(ledger: Ledger, seconds: float) -> dict:
    """Sampler + boundary spans on; then the traced build-only closure.

    At least ``MIN_ROUNDS`` rounds are pooled, more until the sampler
    holds ``MIN_SAMPLES`` or ``seconds`` run out. On the process backend
    the sampler sees only the coordinator, so each round also runs the
    same programs on the in-process ``backend="sharded"`` — sampled, but
    kept out of the span totals.
    """
    workload = ledger.workload
    config = workload.config
    sampled_too = (in_process(config) if config.backend == "process"
                   else None)
    sampler, spans = Sampler(), Spans()
    full_ops, build_ops = set(), set()
    rounds, wall = 0, 0.0
    deadline = time.perf_counter() + seconds
    with spans:
        while rounds < MIN_ROUNDS or (sampler.samples < MIN_SAMPLES
                                      and time.perf_counter() < deadline):
            gc.collect()
            with sampler:
                start = time.perf_counter()
                for op in workload.ops:
                    with spans.operation(op.name) as op_id:
                        full_ops.add(op_id)
                        ledger.run(op, config)
                wall += time.perf_counter() - start
                if sampled_too is not None:
                    for op in workload.ops:
                        with spans.operation(op.name + "@sharded"):
                            ledger.run(op, sampled_too)
            rounds += 1
        for op in workload.ops * TRACED_SETUP_REPS:
            with spans.operation("build:" + op.name) as op_id:
                build_ops.add(op_id)
                op.run(config, 0)
    def per(divisor, totals):
        return {kind: {k: v / divisor for k, v in values.items()}
                for kind, values in totals.items()}

    return {"sampler": sampler, "rounds": rounds, "wall_s": wall / rounds,
            "spans": spans.records,
            "full": per(rounds, spans.totals(full_ops)),
            "build": per(TRACED_SETUP_REPS, spans.totals(build_ops))}


def counts_pass(ledger: Ledger) -> dict:
    """One round with ``config.trace`` on and every emit counted. The
    process backend's workers emit out of reach, so its counts come
    from the in-process sharded backend, whose epochs are deterministic."""
    config = in_process(ledger.workload.config).with_(trace=True)
    with EmitCounts() as counts:
        wall, _, _ = clocked(lambda: ledger.round(config))
    return {"counts": counts.metrics(), "wall_s": wall}


def shard_metrics(ledger: Ledger, timed: dict) -> dict:
    """Worker phases (median over the timed rounds) against the median
    of three runs of the same programs on the sequential backend; zeros
    off the process backend."""
    names = ("compute_s", "serialize_s", "ipc_wait_s", "ipc_wait_max_s",
             "inner_rounds", "outer_rounds", "compute_inflation",
             "speedup_vs_seq")
    out = dict.fromkeys(("shard." + name for name in names), 0.0)
    config = ledger.workload.config
    rounds = [row["shard_timing"] for row in timed["rows"]
              if row["shard_timing"]]
    if config.backend != "process" or not rounds:
        return out

    def over_rounds(combine, key):
        return statistics.median(
            combine(worker[key] or 0 for worker in workers)
            for workers in rounds)

    for key in ("compute_s", "serialize_s", "ipc_wait_s"):
        out["shard." + key] = over_rounds(sum, key)
    out["shard.ipc_wait_max_s"] = over_rounds(max, "ipc_wait_s")
    for key in ("inner_rounds", "outer_rounds"):
        out["shard." + key] = over_rounds(max, key)
    sequential = config.with_(backend="sequential", shards=1)
    runs = [clocked(lambda: ledger.round(sequential)) for _ in range(3)]
    out["shard.compute_inflation"] = out["shard.compute_s"] / \
        statistics.median(cpu for _, cpu, _ in runs)
    out["shard.speedup_vs_seq"] = (
        statistics.median(wall for wall, _, _ in runs)
        / statistics.median(row["wall_s"] for row in timed["rows"]))
    return out


def paper_error(anchors) -> float | None:
    """Mean |sim - paper| / paper over a workload's anchors, in %."""
    if not anchors:
        return None
    return 100.0 * statistics.fmean(
        abs(sim - paper) / paper for _, sim, paper in anchors)


# ----------------------------------------------------------------------
# One workload, one pass
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 rounds: int | None = None,
                 spans_out: Path | None = None) -> dict:
    """Everything one driver invocation measures, with the details the
    whole-benchmark form keeps (quartiles, rows, resolutions)."""
    workload = make_workload(name, seed)
    ledger = Ledger(workload)
    ledger.round(workload.config)                 # warm-up, discarded
    detail: dict = {"workload": name, "seed": seed,
                    "inputs": {op.name: [op.elements, op.inputs]
                               for op in workload.ops}}
    if not trace:
        timed = timed_pass(ledger, seconds, rounds, BUILDS_PER_ROUND)
        rss = peak_rss_mib()          # before the reference pass adds its own
        setup = setup_summary(workload, timed)
        metrics = {
            "wall_norm": summary(r["wall_norm"] for r in timed["rows"]),
            "cpu_norm": summary(r["cpu_norm"] for r in timed["rows"]),
            "setup_s": setup["total"],
            "peak_rss_mb": summary([rss]),
        }
        detail["setup_raw_per_op"] = setup["raw_per_op"]
        detail["setup_scale"] = setup["scale"]
    else:
        timed = timed_pass(ledger, seconds / 3, rounds)
        traced = traced_pass(ledger, 0.8 * seconds)
        counted = counts_pass(ledger)
        metrics = per_layer_metrics(ledger, timed, traced, counted)
        detail["sampler"] = sampler_report(traced["sampler"])
        detail["setup_closure"] = traced["build"]
        if spans_out is not None:
            spans_out.write_text(json.dumps(traced["spans"]))
    verdict = ledger.verify()
    detail["rows"] = timed["rows"]
    detail["anchors"] = verdict["anchors"]
    detail["failures"] = verdict["failures"] + verdict["truth_errors"]
    detail["op_fail_share"] = len(verdict["failures"]) / verdict["attempted"]
    detail["paper_err_pct"] = paper_error(verdict["anchors"])
    if trace:
        metrics["host.reference_wall_s"] = verdict["reference_wall_s"]
        # -1: no paper anchor at a simulable size (JSON has no null here).
        metrics["harness.paper_err_pct"] = (
            -1.0 if detail["paper_err_pct"] is None
            else detail["paper_err_pct"])
    return {
        "correct": not detail["failures"],
        "attempted": verdict["attempted"],
        "failed": len(verdict["failures"]),
        "metrics": metrics,
        "detail": detail,
    }


def per_layer_metrics(ledger, timed, traced, counted) -> dict:
    rows = timed["rows"]
    wall = statistics.median(r["wall_s"] for r in rows)
    counts = counted["counts"]
    sampler = traced["sampler"]
    metrics = {name: value / traced["rounds"]
               for name, value in sampler.seconds().items()}
    full = traced["full"]["inclusive"]
    for span in SPAN_NAMES:
        metrics[span + "_s"] = full[span]
    metrics["harness.collect_s"] = traced["full"]["self"]["harness.collect"]
    metrics.update(counts)
    metrics.update(timed["counters"])
    dispatches = counts["engine.dispatches"] or float("inf")
    metrics["engine.ns_per_dispatch"] = 1e9 * full["engine.run"] / dispatches
    metrics["planner.takes_per_dispatch"] = (
        metrics["planner.takes"] / dispatches)
    metrics.update(shard_metrics(ledger, timed))
    build = traced["build"]
    metrics["setup.traced_build_s"] = build["inclusive"]["op"]
    metrics["setup.unattributed_s"] = build["self"]["harness.collect"]
    metrics["sampler.samples"] = sampler.samples
    metrics["sampler.rate_hz"] = (
        sampler.samples / sampler.cpu_s if sampler.cpu_s else 0.0)
    elements = sum(op.elements for op in ledger.workload.ops)
    metrics.update({
        "host.wall_s": wall,
        "host.cpu_s": statistics.median(r["cpu_s"] for r in rows),
        "host.calib_s": statistics.median(r["calib_s"] for r in rows),
        "host.sim_cycles_per_s": metrics["engine.sim_cycles"] / wall,
        "host.elements_per_s": elements / wall,
        "host.trace_overhead": traced["wall_s"] / wall,
        "host.counts_overhead": counted["wall_s"] / wall,
    })
    return metrics


def sampler_report(sampler: Sampler) -> dict:
    """Share and ± one-standard-error resolution beside every layer."""
    return {
        "samples": sampler.samples, "cpu_s": sampler.cpu_s,
        "enough": sampler.samples >= MIN_SAMPLES,
        "layers": {layer: {
            "share": sampler.share(layer),
            "resolution": sampler.share_resolution(layer),
        } for layer in LAYERS},
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _value(reading) -> float:
    return reading["median"] if isinstance(reading, dict) else reading


def print_report(result: dict, units: dict) -> None:
    detail = result["detail"]
    print(f"== {detail['workload']} (seed {detail['seed']}) ==")
    sampler = detail.get("sampler")
    for name, reading in result["metrics"].items():
        line = f"{name} = {_value(reading):.6g} {units[name]}"
        if isinstance(reading, dict) and reading["n"] > 1:
            line += (f"  (q1 {reading['q1']:.6g}, q3 {reading['q3']:.6g}, "
                     f"n={reading['n']})")
        layer = name[:-len(".self_s")] if name.endswith(".self_s") else None
        if sampler and layer in sampler["layers"]:
            info = sampler["layers"][layer]
            line += (f"  (share {info['share']:.3f} "
                     f"± {info['resolution']:.3f})")
        print(line)
    print(f"op_fail_share = {detail['op_fail_share']:.6g} fraction "
          f"({result['failed']} of {result['attempted']} operations)")
    err = detail["paper_err_pct"]
    print("paper_err_pct = " + (
        f"{err:.4g} %" if err is not None
        else "null (no paper anchor at a simulable size)"))
    if sampler:
        print(f"sampler: {sampler['samples']} samples over "
              f"{sampler['cpu_s']:.2f} CPU s")
        if not sampler["enough"]:
            print(f"WARNING: pooled fewer than {MIN_SAMPLES} samples; "
                  "the shares above are coarse")
        closure = detail["setup_closure"]
        print("set-up closure (traced build-only, self s per round of "
              f"programs): total {closure['inclusive']['op']:.6f} = "
              + " + ".join(f"{name} {value:.6f}"
                           for name, value in closure["self"].items()))
    for failure in detail["failures"]:
        print("FAILED " + failure)


def driver_line(result: dict, units: dict) -> str:
    """The one JSON object the driver reads off the last stdout line."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": _value(reading), "unit": units[name]}
                    for name, reading in result["metrics"].items()},
    })


def units_for(spec: dict, trace: bool, metrics: dict) -> dict:
    """Units by metric name; the metric set must be the declared one."""
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    if set(declared) != set(metrics):
        raise RuntimeError(
            "metric set differs from BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(metrics))}, undeclared "
            f"{sorted(set(metrics) - set(declared))}")
    return declared


# ----------------------------------------------------------------------
# Whole benchmark and comparison
# ----------------------------------------------------------------------
def contained(arguments, **popen_args) -> subprocess.CompletedProcess:
    """Run this script with ``arguments`` in a process group of its own,
    and return only when *every* process of that group has ended.

    The process backend leaves more behind than its two joined workers:
    ``multiprocessing``'s shared memory starts a resource-tracker process
    that outlives the interpreter that started it by a moment. Each
    workload pass therefore runs as the leader of a fresh group; whatever
    is still in the group once the leader is gone is waited for, and
    killed after ``GROUP_GRACE_S`` — on every path out, an exception or a
    ``SIGTERM`` to this process included."""
    command = [sys.executable, str(Path(__file__).resolve()),
               *arguments, "--in-group"]
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(command, start_new_session=True, **popen_args)
    try:
        stdout, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        end_group(proc.pid)
        signal.signal(signal.SIGTERM, previous)
    return subprocess.CompletedProcess(command, proc.returncode, stdout)


def end_group(pgid: int) -> None:
    """Wait until process group ``pgid`` is empty, killing what is left
    of it once the grace period is over (and giving up a grace period
    later: only unreaped zombies can still be counted then)."""
    start = time.monotonic()
    while (waited := time.monotonic() - start) < 2 * GROUP_GRACE_S:
        try:
            os.killpg(pgid, signal.SIGKILL if waited > GROUP_GRACE_S else 0)
        except ProcessLookupError:
            return
        time.sleep(0.005)


def run_all(args, spec: dict) -> int:
    """Every workload, both passes, each in its own child process."""
    scratch = HERE / "scratch"
    scratch.mkdir(exist_ok=True)
    report = {"seed": args.seed, "seconds": args.seconds,
              "rounds": args.rounds, "workloads": {}}
    spans, ok = {}, True
    for name in WORKLOADS:
        entry = report["workloads"][name] = {}
        for trace in (0, 1):
            detail_file = scratch / f"{name}.{trace}.json"
            spans_file = scratch / f"{name}.spans.json"
            arguments = ["--workload", name, "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(trace),
                         "--detail", str(detail_file),
                         "--spans", str(spans_file)]
            if args.rounds:
                arguments += ["--rounds", str(args.rounds)]
            done = contained(arguments, stdout=subprocess.PIPE, text=True)
            # The child's last line is the driver's JSON; keep the report.
            print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
            if done.returncode:
                print(f"{name} --trace {trace} exited {done.returncode}")
                return done.returncode
            result = json.loads(detail_file.read_text())
            ok = ok and result["correct"]
            entry["per_layer" if trace else "end_to_end"] = result["metrics"]
            entry["trace" if trace else "timed"] = result["detail"]
        entry["end_to_end"]["op_fail_share"] = max(
            entry[k]["op_fail_share"] for k in ("timed", "trace"))
        entry["end_to_end"]["paper_err_pct"] = entry["timed"]["paper_err_pct"]
        spans[name] = json.loads(spans_file.read_text())
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    (HERE / "spans.json").write_text(json.dumps(spans))
    print(f"wrote {args.out} and {HERE / 'spans.json'}")
    return 0 if ok else 1


#: Per-layer metrics that must repeat exactly between runs of one commit
#: (``engine.sim_cycles`` beside every counts-pass count).
EXACT_COUNTS = ("engine.sim_cycles", "trace.events_emitted",
                *EVENT_METRICS.values())


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """A/B two ``BENCH_profile.json`` files against the declared bounds.

    A pair is a VIOLATION when B's median is worse than A's by more than
    the bound, *unresolved* when either side's median is itself blurred
    by more than the bound (interquartile range / sqrt(n) of its rounds),
    and ok otherwise. ``op_fail_share`` may not rise; at equal inputs
    ``paper_err_pct``, ``engine.sim_cycles`` and every counts-pass count
    must repeat exactly."""
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    same_inputs = all(a[n]["timed"]["inputs"] == b[n]["timed"]["inputs"]
                      for n in a)
    bad = 0
    print(f"{'workload':18} {'metric':14} {'A':>11} {'B':>11} "
          f"{'B vs A':>8} {'bound':>6}  verdict")
    for name in a:
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            ra, rb = a[name]["end_to_end"][key], b[name]["end_to_end"][key]
            worse = (rb["median"] - ra["median"]) / ra["median"]
            if metric["better"] == "higher":
                worse = -worse
            # How well each side knows its own median: IQR / sqrt(n).
            blur = max((r["q3"] - r["q1"]) / r["n"] ** 0.5
                       for r in (ra, rb)) / ra["median"]
            verdict = ("VIOLATION" if worse > bound else
                       "unresolved (medians blurred > bound)"
                       if blur > bound else "ok")
            bad += verdict == "VIOLATION"
            print(f"{name:18} {key:14} {ra['median']:11.5g} "
                  f"{rb['median']:11.5g} {worse:+8.1%} {bound:6.0%}  "
                  f"{verdict}")
        for key in ("op_fail_share", "paper_err_pct"):
            va, vb = a[name]["end_to_end"][key], b[name]["end_to_end"][key]
            rose = key == "op_fail_share" and vb > va
            moved = key == "paper_err_pct" and same_inputs and va != vb
            bad += rose or moved
            print(f"{name:18} {key:14} {va!s:>11.11} {vb!s:>11.11} "
                  f"{'':8} {'0':>6}  "
                  f"{'VIOLATION' if rose or moved else 'ok'}")
        if same_inputs:
            for key in EXACT_COUNTS:
                va, vb = a[name]["per_layer"][key], b[name]["per_layer"][key]
                if va != vb:
                    bad += 1
                    print(f"{name:18} {key}: {va} != {vb}  VIOLATION "
                          "(must repeat exactly)")
    if not same_inputs:
        print("inputs differ (another seed): exact counts not compared")
    print("compare: " + (f"{bad} violation(s)" if bad else "within bounds"))
    return 1 if bad else 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="timed rounds (default: as many as fit "
                             "--seconds, at least %d)" % MIN_ROUNDS)
    parser.add_argument("--out", default=str(HERE / "BENCH_profile.json"))
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--spans", default=str(HERE / "spans.json"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--in-group", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)
    if args.workload is None:
        return run_all(args, spec)
    if not args.in_group:
        # The pass itself runs one level down, so that nothing it starts
        # is still running when this process exits.
        return contained(sys.argv[1:] if argv is None else argv).returncode
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.rounds, Path(args.spans))
    units = units_for(spec, bool(args.trace), result["metrics"])
    print_report(result, units)
    if args.detail:
        Path(args.detail).write_text(json.dumps(result))
    print(driver_line(result, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
