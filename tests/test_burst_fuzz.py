"""Randomized cycle-equivalence fuzzing across the burst planes.

Each seeded case draws a topology span (1-6 hops on the Noctua bus), FIFO
depths (shallow through deep-buffer regimes), a polling parameter, a
workload (p2p / credited p2p / bcast / reduce / scatter / mixed
stencil+collective), and a random fabric cut, then runs it under the
four selectable data planes (and the default one a second time with
its engagement gate held open):

* ``flit`` — the per-flit reference interpretation (``burst_mode=False``);
* ``burst`` — the burst plane without the fast-forward
  (``macro_cruise=False``: window planning and validated pattern
  replication);
* ``default`` — the default configuration: the burst plane plus the
  whole-program analytical fast-forward, steady-state spans committed
  as closed-form Δ-shift extrapolations with no per-packet replay;
* ``engaged`` — the default plane with ``planner.LANE_LIVE_MIN`` patched
  to 0, so every vector burst engages the planner: the generator's
  streams are mostly shorter than the gate, and lanes, trains and the
  fast-forward must keep being fuzzed on them (the gate only decides
  *when* planning is tried, never what a plan may do);
* ``sharded`` — the default plane on the sharded backend
  (:mod:`repro.shard`), partitioned by the case's randomly drawn cut (a
  random contiguous split into 2-4 shards, occasionally scrambled by
  per-rank overrides), synchronised in conservative epochs.

p2p cases additionally draw *mid-run externalities*: random (position,
wait) injections on either side of the stream that break the periodic
steady state partway through. These fuzz the fast-forward's abort
paths — a jump proven before the injection must re-arm and re-prove
after it, and a jump whose guard battery sees the perturbed backlog
must refuse (fall back to the ordinary burst plane) rather than extrapolate
through it.

Every plane must produce identical simulated cycles per rank and
identical per-FIFO push/pop counts and exact occupancy peaks — the same
bar ``tests/test_burst_equivalence.py`` pins on hand-picked workloads,
here swept over a randomized parameter space. ~20 seeded cases run in
tier-1; the slow-marked extended sweep honours ``--fuzz-iters`` for the
nightly CI job.
"""

import multiprocessing
import os
import random
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from repro import NOCTUA, SMI_FLOAT, SMI_INT, SMIProgram, noctua_bus
from repro.codegen.metadata import OpDecl
from repro.core.ops import SMI_ADD
from repro.transport import planner as planner_mod

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

#: The data planes whose cycle trajectories must coincide. The
#: ``sharded`` plane additionally sets ``backend``/``shards`` from the
#: case's drawn cut inside ``_assert_planes_agree``; ``engaged`` runs
#: under :func:`_gate_open`.
PLANES = {
    "flit": dict(burst_mode=False),
    "burst": dict(macro_cruise=False),
    "default": dict(),
    "engaged": dict(),
    "sharded": dict(),
}


@contextmanager
def _gate_open():
    """Every vector burst engages the planner, whatever its length."""
    gate = planner_mod.LANE_LIVE_MIN
    planner_mod.LANE_LIVE_MIN = 0
    try:
        yield
    finally:
        planner_mod.LANE_LIVE_MIN = gate

#: Ambient flight recorder (``REPRO_TRACE=1``, CI's slow job):
#: tracing folds into every plane's base config, and the sweep's
#: cross-plane cycle/count identity then *is* the zero-overhead
#: contract — a recorder that changed any simulated outcome would
#: diverge a plane and fail the run.
AMBIENT_TRACE = os.environ.get("REPRO_TRACE", "") == "1"


def _gen_cut(rng: random.Random, num_ranks: int = 8) -> list[list[int]]:
    """A random contiguous split of the bus ranks into 2-4 shards.

    One case in four scrambles a rank across the cut (moves it to
    another shard), exercising non-contiguous partitions where a single
    flow crosses the boundary several times.
    """
    k = rng.randint(2, 4)
    splits = sorted(rng.sample(range(1, num_ranks), k - 1))
    edges = [0] + splits + [num_ranks]
    shards = [list(range(edges[i], edges[i + 1])) for i in range(k)]
    if rng.random() < 0.25:
        src = rng.randrange(k)
        dst = rng.randrange(k)
        if src != dst and len(shards[src]) > 1:
            shards[dst].append(shards[src].pop())
    return shards


def _gen_case(rng: random.Random) -> dict:
    """Draw one workload + platform configuration."""
    case = {
        "kind": rng.choice(
            ["p2p", "p2p", "credited", "bcast", "reduce", "scatter",
             "mixed"]
        ),
        "inter_ck_fifo_depth": rng.choice([2, 4, 8, 32]),
        "endpoint_fifo_depth": rng.choice([2, 8, 32]),
        "read_burst": rng.choice([1, 4, 8]),
        "cut": _gen_cut(rng),
    }
    if case["kind"] == "p2p":
        case["hops"] = rng.randint(1, 6)
        case["n"] = rng.choice([40, 136, 512, 2048])
        case["width"] = rng.choice([4, 8])
        case["declare_peer"] = rng.random() < 0.5
        case["stall"] = rng.choice([0, 0, 97])
        # Mid-run externalities: (fraction, wait, on_receiver) triples.
        # Each one breaks the stream's periodic steady state partway
        # through, forcing a macro-cruise fast-forward either to abort
        # its guard battery or to cap its jump short of the injection.
        case["inject"] = [
            (rng.random() * 0.8 + 0.1, rng.choice([13, 61, 140]),
             rng.random() < 0.5)
            for _ in range(rng.randint(0, 2))
        ]
    elif case["kind"] == "credited":
        case["hops"] = rng.randint(1, 4)
        case["n"] = rng.choice([48, 120])
        case["window"] = rng.choice([2, 4])
        case["stall"] = rng.choice([0, 150])
    elif case["kind"] in ("bcast", "reduce"):
        case["ranks"] = rng.randint(2, 4)
        case["n"] = rng.choice([16, 48])
    elif case["kind"] == "scatter":
        case["ranks"] = rng.randint(2, 4)
        case["n"] = rng.choice([12, 32])
    else:  # mixed stencil halo + bcast
        case["ranks"] = 3
        case["n_halo"] = rng.choice([40, 96])
        case["n_bcast"] = rng.choice([16, 32])
    return case


def _run_case(case: dict, config, partition=None,
              stats_out: dict | None = None) -> tuple[dict, dict]:
    """Run one case; returns (per-rank end cycles + outputs, fifo stats).

    When ``stats_out`` is given, the merged :class:`PlannerStats` of the
    run land under its ``"planner"`` key (arming assertions on the
    deterministic deep cases).
    """
    kind = case["kind"]
    prog = SMIProgram(noctua_bus(), config=config, partition=partition)
    if kind == "p2p":
        hops, n, width = case["hops"], case["n"], case["width"]
        data = np.arange(n, dtype=np.float32)
        stall = case["stall"]
        peer = dict(peer=hops) if case["declare_peer"] else {}
        rpeer = dict(peer=0) if case["declare_peer"] else {}

        # Cut points (width-aligned, interior) with their wait cycles;
        # the legacy midpoint stall folds in as one more injection.
        snd_plan = [(n // 2, stall)] if stall else []
        rcv_plan = []
        for frac, wait, on_rcv in case.get("inject", ()):
            pos = (int(frac * n) // width) * width
            if 0 < pos < n:
                (rcv_plan if on_rcv else snd_plan).append((pos, wait))
        snd_plan.sort()
        rcv_plan.sort()

        def snd(smi):
            ch = smi.open_send_channel(n, SMI_FLOAT, hops, 0)
            prev = 0
            for pos, wait in snd_plan:
                if pos > prev:
                    yield from ch.push_vec(data[prev:pos], width=width)
                    prev = pos
                yield smi.wait(wait)
            yield from ch.push_vec(data[prev:], width=width)

        def rcv(smi):
            ch = smi.open_recv_channel(n, SMI_FLOAT, 0, 0)
            out = []
            prev = 0
            for pos, wait in rcv_plan:
                if pos > prev:
                    seg = yield from ch.pop_vec(pos - prev, width=width)
                    out.extend(float(v) for v in seg)
                    prev = pos
                yield smi.wait(wait)
            seg = yield from ch.pop_vec(n - prev, width=width)
            out.extend(float(v) for v in seg)
            smi.store("out", out)
            smi.store("end", smi.cycle)

        prog.add_kernel(snd, rank=0,
                        ops=[OpDecl("send", 0, SMI_FLOAT, **peer)])
        prog.add_kernel(rcv, rank=hops,
                        ops=[OpDecl("recv", 0, SMI_FLOAT, **rpeer)])
        watch = [hops]
    elif kind == "credited":
        hops, n, window = case["hops"], case["n"], case["window"]
        stall = case["stall"]
        ops = [OpDecl("send", 0, SMI_INT), OpDecl("recv", 0, SMI_INT)]

        def sender(smi):
            ch = smi.open_credited_send_channel(n, SMI_INT, hops, 0,
                                                window_packets=window)
            for i in range(n):
                yield from smi.push(ch, i)

        def receiver(smi):
            ch = smi.open_credited_recv_channel(n, SMI_INT, 0, 0,
                                                window_packets=window)
            if stall:
                yield smi.wait(stall)
            out = []
            for _ in range(n):
                out.append(int((yield from smi.pop(ch))))
            smi.store("out", out)
            smi.store("end", smi.cycle)

        prog.add_kernel(sender, rank=0, ops=ops)
        prog.add_kernel(receiver, rank=hops, ops=ops)
        watch = [hops]
    elif kind in ("bcast", "reduce"):
        n, num_ranks = case["n"], case["ranks"]
        op = (OpDecl("reduce", 0, SMI_FLOAT, reduce_op=SMI_ADD)
              if kind == "reduce" else OpDecl("bcast", 0, SMI_FLOAT))

        def kernel(smi):
            comm = smi.comm_world.sub(list(range(num_ranks)))
            if not comm.contains(smi.rank):
                return
                yield  # pragma: no cover
            out = []
            if kind == "bcast":
                chan = smi.open_bcast_channel(n, SMI_FLOAT, 0, 0, comm)
                for i in range(n):
                    v = yield from chan.bcast(
                        float(i) if smi.rank == 0 else None)
                    out.append(float(v))
            else:
                chan = smi.open_reduce_channel(n, SMI_FLOAT, SMI_ADD,
                                               0, 0, comm)
                for i in range(n):
                    v = yield from chan.reduce(float(smi.rank + i))
                    if smi.rank == 0:
                        out.append(float(v))
            smi.store("out", out)
            smi.store("end", smi.cycle)

        prog.add_kernel(kernel, ranks="all", ops=[op])
        watch = list(range(num_ranks))
    elif kind == "scatter":
        count, num_ranks = case["n"], case["ranks"]

        def kernel(smi):
            comm = smi.comm_world.sub(list(range(num_ranks)))
            if not comm.contains(smi.rank):
                return
                yield  # pragma: no cover
            chan = smi.open_scatter_channel(count, SMI_FLOAT, 0, 0, comm)
            if smi.rank == 0:
                vals = [float(i) for i in range(count * num_ranks)]
                mine = yield from chan.stream_root(vals)
            else:
                mine = []
                for _ in range(count):
                    mine.append(float((yield from chan.pop())))
            smi.store("out", [float(v) for v in mine])
            smi.store("end", smi.cycle)

        prog.add_kernel(kernel, ranks="all",
                        ops=[OpDecl("scatter", 0, SMI_FLOAT)])
        watch = list(range(num_ranks))
    else:  # mixed: p2p halo ring + broadcast sharing the fabric
        n_halo, n_bcast = case["n_halo"], case["n_bcast"]
        num_ranks = case["ranks"]

        def kernel(smi):
            comm = smi.comm_world.sub(list(range(num_ranks)))
            if not comm.contains(smi.rank):
                return
                yield  # pragma: no cover
            right = (smi.rank + 1) % num_ranks
            left = (smi.rank - 1) % num_ranks
            data = np.full(n_halo, float(smi.rank), dtype=np.float32)

            def exchange():
                snd = smi.open_send_channel(n_halo, SMI_FLOAT, right, 1)
                yield from snd.push_vec(data, width=8)
                rcv = smi.open_recv_channel(n_halo, SMI_FLOAT, left, 1)
                halo = yield from rcv.pop_vec(n_halo, width=8)
                smi.store("halo", [float(v) for v in halo])

            smi.engine.spawn(exchange(), f"halo{smi.rank}")
            chan = smi.open_bcast_channel(n_bcast, SMI_FLOAT, 0, 0, comm)
            got = []
            for i in range(n_bcast):
                v = yield from chan.bcast(
                    float(i) if smi.rank == 0 else None)
                got.append(float(v))
            smi.store("out", got)
            smi.store("end", smi.cycle)

        prog.add_kernel(
            kernel, ranks=list(range(num_ranks)),
            ops=[OpDecl("bcast", 0, SMI_FLOAT),
                 OpDecl("send", 1, SMI_FLOAT),
                 OpDecl("recv", 1, SMI_FLOAT)])
        watch = list(range(num_ranks))

    res = prog.run(max_cycles=50_000_000)
    assert res.completed, res.reason
    if stats_out is not None:
        from repro.simulation.stats import collect_planner_stats
        stats_out["planner"] = collect_planner_stats(res.transport)
    marks = {}
    for rank in watch:
        marks[(rank, "end")] = res.store(rank, "end")
        out = res.store(rank, "out") if kind != "mixed" else (
            res.store(rank, "out"), res.store(rank, "halo"))
        marks[(rank, "out")] = out
    return marks, res.engine.fifo_stats()


def _assert_planes_agree(case: dict) -> None:
    base = NOCTUA.with_(
        inter_ck_fifo_depth=case["inter_ck_fifo_depth"],
        endpoint_fifo_depth=case["endpoint_fifo_depth"],
        read_burst=case["read_burst"],
        trace=AMBIENT_TRACE,
    )
    ref = None
    for plane, overrides in PLANES.items():
        partition = None
        if plane == "sharded":
            partition = case["cut"]
            overrides = dict(overrides, backend="sharded",
                             shards=len(partition))
        with _gate_open() if plane == "engaged" else nullcontext():
            marks, counts = _run_case(case, base.with_(**overrides),
                                      partition)
        if ref is None:
            ref = (plane, marks, counts)
        else:
            assert marks == ref[1], (
                f"{plane} diverged from {ref[0]} on {case}"
            )
            assert counts == ref[2], (
                f"{plane} FIFO stats diverged from {ref[0]} on {case}"
            )


@pytest.mark.parametrize("seed", range(20))
def test_fuzz_cycle_equivalence_seeded(seed):
    """Tier-1: 20 fixed seeds across the generator's parameter space."""
    _assert_planes_agree(_gen_case(random.Random(seed)))


@pytest.mark.parametrize("seed", [1025, 1060])
def test_fuzz_blocked_pop_vec_finished_by_lane(seed):
    """Tier-1 anchors from the extended sweep: a receiver segment that
    ends mid-packet, then waits. A macro train that consumes the rest of
    a blocked ``pop_vec``'s segment must wake the kernel at the lane's
    frontier — left to the next arrival it returned 2 cycles late."""
    _assert_planes_agree(_gen_case(random.Random(seed)))


#: Deterministic deep-buffer multi-hop anchors for the 4-way plane: at
#: 32-deep FIFOs and 8k-element streams the macro plane's relay-chain
#: fast-forward demonstrably arms on 2- and 4-hop chains (the random
#: sweep's short streams rarely reach the fingerprint depth), and the
#: injected variant breaks the steady state mid-run so the armed guard
#: battery must refuse and fall back. ``arms`` pins whether the jump
#: must land (cycle-equality across all four planes is required either
#: way).
DEEP_MACRO_CASES = [
    dict(kind="p2p", hops=2, n=8192, width=8, declare_peer=True,
         stall=0, inject=[], inter_ck_fifo_depth=32,
         endpoint_fifo_depth=32, read_burst=8,
         cut=[[0, 1, 2, 3], [4, 5, 6, 7]], arms=True),
    dict(kind="p2p", hops=4, n=8192, width=8, declare_peer=True,
         stall=0, inject=[], inter_ck_fifo_depth=32,
         endpoint_fifo_depth=32, read_burst=8,
         cut=[[0, 1], [2, 3, 4], [5, 6, 7]], arms=True),
    dict(kind="p2p", hops=4, n=8192, width=8, declare_peer=True,
         stall=0, inject=[(0.5, 61, False), (0.7, 13, True)],
         inter_ck_fifo_depth=32, endpoint_fifo_depth=32, read_burst=8,
         cut=[[0, 1, 2], [3, 4, 5], [6, 7]], arms=False),
]


@pytest.mark.parametrize("idx", range(len(DEEP_MACRO_CASES)))
def test_deep_multihop_macro_planes_agree(idx):
    """Tier-1: the 4-way plane on deep multi-hop streams where the
    relay-chain fast-forward actually fires."""
    case = DEEP_MACRO_CASES[idx]
    _assert_planes_agree(case)
    if case["arms"]:
        base = NOCTUA.with_(
            inter_ck_fifo_depth=case["inter_ck_fifo_depth"],
            endpoint_fifo_depth=case["endpoint_fifo_depth"],
            read_burst=case["read_burst"],
        )
        stats_out: dict = {}
        _run_case(case, base, stats_out=stats_out)
        st = stats_out["planner"]
        assert st.ff_jumps > 0, "deep case stopped arming"
        assert st.ff_jumps >= 1
        assert st.mean_ff_chain_len >= 3


#: The same anchors at the paper's own depths (``NOCTUA``: 8-deep
#: endpoint and inter-CK FIFOs), where the fast-forward could not arm
#: before the hyperperiod detector and the zero-slack silence proof:
#: 2^15-element streams with a mid-run externality, so the jump must
#: land at least once on either side of a broken steady state.
SHALLOW_MACRO_CASES = [
    dict(kind="p2p", hops=1, n=1 << 15, width=8, declare_peer=True,
         stall=0, inject=[(0.5, 61, False)], inter_ck_fifo_depth=8,
         endpoint_fifo_depth=8, read_burst=8,
         cut=[[0], [1, 2, 3, 4, 5, 6, 7]]),
    dict(kind="p2p", hops=4, n=1 << 15, width=8, declare_peer=True,
         stall=0, inject=[(0.6, 140, True)], inter_ck_fifo_depth=8,
         endpoint_fifo_depth=8, read_burst=8,
         cut=[[0, 1, 2, 3, 4], [5, 6, 7]]),
]


@pytest.mark.parametrize("idx", range(len(SHALLOW_MACRO_CASES)))
def test_shallow_macro_planes_agree(idx):
    """Tier-1: the 4-way plane at 8/8 depths, where the default plane
    must fast-forward (and still agree with per-flit to the cycle)."""
    case = SHALLOW_MACRO_CASES[idx]
    _assert_planes_agree(case)
    stats_out: dict = {}
    _run_case(case, NOCTUA, stats_out=stats_out)
    st = stats_out["planner"]
    assert st.ff_jumps >= 1, "shallow case stopped arming"
    assert st.mean_ff_chain_len == (2 if case["hops"] == 1 else 11)


@pytest.mark.slow
def test_fuzz_cycle_equivalence_extended(request):
    """Nightly: ``--fuzz-iters`` additional cases from a shifted space."""
    iters = request.config.getoption("--fuzz-iters")
    for seed in range(1000, 1000 + iters):
        _assert_planes_agree(_gen_case(random.Random(seed)))


def _assert_process_plane_agrees(case: dict) -> None:
    """The forked-worker plane vs the in-process reference on one case."""
    base = NOCTUA.with_(
        inter_ck_fifo_depth=case["inter_ck_fifo_depth"],
        endpoint_fifo_depth=case["endpoint_fifo_depth"],
        read_burst=case["read_burst"],
        trace=AMBIENT_TRACE,
    )
    partition = case["cut"]
    ref_marks, ref_counts = _run_case(case, base)
    marks, counts = _run_case(
        case,
        base.with_(backend="process", shards=len(partition)),
        partition,
    )
    assert marks == ref_marks, f"process diverged on {case}"
    assert counts == ref_counts, f"process FIFO stats diverged on {case}"


@pytest.mark.slow
@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
def test_fuzz_process_equivalence(request):
    """Nightly: forked workers over random cuts.

    Fork + IPC makes each case ~10x the in-process cost, so this sweeps
    a handful of seeds from its own region of seed space (tier-1 pins
    the deterministic process cases in ``test_shard.py``).
    """
    iters = min(5, request.config.getoption("--fuzz-iters"))
    for seed in range(2000, 2000 + iters):
        _assert_process_plane_agrees(_gen_case(random.Random(seed)))
