"""Integration tests: collective operations end to end (§3.2, §4.4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    NOCTUA,
    SMI_ADD,
    SMI_FLOAT,
    SMI_INT,
    SMI_MAX,
    SMI_MIN,
    ChannelError,
    SMIProgram,
    bus,
    noctua_torus,
    torus2d,
)
from repro.codegen.metadata import OpDecl


def run_bcast(topology, n, root, dtype=SMI_FLOAT, comm_indices=None,
              config=NOCTUA, port=0, scheme="linear"):
    """Run a broadcast; return {rank: received list} and the result."""
    prog = SMIProgram(topology, config=config)
    world = list(range(topology.num_ranks))
    members = comm_indices if comm_indices is not None else world

    def kernel(smi):
        comm = smi.comm_world.sub(members) if comm_indices is not None else None
        if comm is not None and not comm.contains(smi.rank):
            return
            yield  # pragma: no cover - makes this a generator
        chan = smi.open_bcast_channel(n, dtype, port, root, comm)
        out = []
        my_comm_rank = smi.comm_rank(comm or smi.comm_world)
        for i in range(n):
            v = yield from chan.bcast(
                dtype.np_dtype.type(root * 100 + i) if my_comm_rank == root
                else None
            )
            out.append(v)
        smi.store("bcast", out)

    prog.add_kernel(kernel, ranks="all",
                    ops=[OpDecl("bcast", port, dtype, scheme=scheme)])
    res = prog.run(max_cycles=5_000_000)
    assert res.completed, res.reason
    actual_members = [members[i] for i in range(len(members))] if comm_indices else world
    return res, {r: res.stores.get((r, "bcast")) for r in actual_members}


@pytest.mark.parametrize("burst", [True, False], ids=["default", "flit"])
@pytest.mark.parametrize("scheme", ["linear", "tree"])
@pytest.mark.parametrize("ranks,members", [(1, None), (2, [1])],
                         ids=["bus1", "bus2-sub"])
def test_one_rank_bcast_drains_the_root_s_pushes(ranks, members, scheme,
                                                 burst):
    """A one-rank communicator has no successor or child: the root's
    support kernel drains the app's pushes, one element per cycle."""
    res, outs = run_bcast(bus(ranks), 20, root=0, comm_indices=members,
                          config=NOCTUA.with_(burst_mode=burst),
                          scheme=scheme)
    assert res.cycles == 20
    (out,) = outs.values()
    np.testing.assert_allclose(out, [float(i) for i in range(20)])


def test_bcast_from_rank0_torus():
    res, outs = run_bcast(noctua_torus(), 25, root=0)
    expect = [float(i) for i in range(25)]
    for r in range(8):
        np.testing.assert_allclose(outs[r], expect)


def test_bcast_from_nonzero_root():
    res, outs = run_bcast(torus2d(2, 2), 10, root=3)
    expect = [float(300 + i) for i in range(10)]
    for r in range(4):
        np.testing.assert_allclose(outs[r], expect)


def test_bcast_on_bus_topology():
    res, outs = run_bcast(bus(4), 16, root=1)
    expect = [float(100 + i) for i in range(16)]
    for r in range(4):
        np.testing.assert_allclose(outs[r], expect)


def test_bcast_int_datatype():
    res, outs = run_bcast(bus(3), 9, root=0, dtype=SMI_INT)
    for r in range(3):
        assert [int(v) for v in outs[r]] == list(range(9))


def test_bcast_subcommunicator():
    # Only ranks {0, 2, 3} participate; rank 1 stays silent.
    res, outs = run_bcast(torus2d(2, 2), 8, root=0, comm_indices=[0, 2, 3])
    expect = [float(i) for i in range(8)]
    for r in (0, 2, 3):
        np.testing.assert_allclose(outs[r], expect)
    assert (1, "bcast") not in res.stores


def run_reduce(topology, n, root, op, dtype=SMI_FLOAT, config=NOCTUA,
               contributions=None, port=0, scheme="linear"):
    prog = SMIProgram(topology, config=config)
    P = topology.num_ranks

    def kernel(smi):
        chan = smi.open_reduce_channel(n, dtype, op, port, root)
        out = []
        for i in range(n):
            if contributions is not None:
                value = contributions[smi.rank][i]
            else:
                value = dtype.np_dtype.type(smi.rank * 10 + i)
            v = yield from chan.reduce(value)
            if smi.rank == root:
                out.append(v)
        if smi.rank == root:
            smi.store("reduce", out)

    prog.add_kernel(
        kernel, ranks="all",
        ops=[OpDecl("reduce", port, dtype, reduce_op=op, scheme=scheme)],
    )
    res = prog.run(max_cycles=5_000_000)
    assert res.completed, res.reason
    return res, res.store(root, "reduce")


def test_reduce_sum_torus():
    res, out = run_reduce(noctua_torus(), 20, root=0, op=SMI_ADD)
    expect = [sum(r * 10 + i for r in range(8)) for i in range(20)]
    np.testing.assert_allclose(out, expect)


def test_reduce_nonzero_root():
    res, out = run_reduce(torus2d(2, 2), 12, root=2, op=SMI_ADD)
    expect = [sum(r * 10 + i for r in range(4)) for i in range(12)]
    np.testing.assert_allclose(out, expect)


def test_reduce_max_min():
    rng = np.random.default_rng(3)
    n, P = 15, 4
    contribs = {r: rng.normal(size=n).astype(np.float32) for r in range(P)}
    _, out_max = run_reduce(torus2d(2, 2), n, 0, SMI_MAX, contributions=contribs)
    _, out_min = run_reduce(torus2d(2, 2), n, 0, SMI_MIN, contributions=contribs)
    stacked = np.stack([contribs[r] for r in range(P)])
    np.testing.assert_allclose(out_max, stacked.max(axis=0), rtol=1e-6)
    np.testing.assert_allclose(out_min, stacked.min(axis=0), rtol=1e-6)


def test_reduce_crossing_credit_tiles():
    # Message longer than the credit buffer C: multiple credit round trips.
    cfg = NOCTUA.with_(reduce_credits=8)
    res, out = run_reduce(bus(3), 30, root=0, op=SMI_ADD, config=cfg)
    expect = [sum(r * 10 + i for r in range(3)) for i in range(30)]
    np.testing.assert_allclose(out, expect)


def test_reduce_int_overflow_free_sum():
    res, out = run_reduce(bus(2), 10, root=0, op=SMI_ADD, dtype=SMI_INT)
    expect = [sum(r * 10 + i for r in range(2)) for i in range(10)]
    assert [int(v) for v in out] == expect


def run_scatter(topology, n, root, dtype=SMI_INT, port=0, config=NOCTUA):
    prog = SMIProgram(topology, config=config)
    P = topology.num_ranks

    def kernel(smi):
        chan = smi.open_scatter_channel(n, dtype, port, root)
        if smi.rank == root:
            for k in range(P * n):
                yield from chan.push(k)
        out = []
        for _ in range(n):
            v = yield from chan.pop()
            out.append(int(v))
        smi.store("scatter", out)

    prog.add_kernel(kernel, ranks="all", ops=[OpDecl("scatter", port, dtype)])
    res = prog.run(max_cycles=5_000_000)
    assert res.completed, res.reason
    return res, {r: res.store(r, "scatter") for r in range(P)}


def test_scatter_segments_in_comm_order():
    res, outs = run_scatter(noctua_torus(), 12, root=0)
    for r in range(8):
        assert outs[r] == list(range(r * 12, (r + 1) * 12))


def test_scatter_nonzero_root():
    res, outs = run_scatter(torus2d(2, 2), 9, root=3)
    for r in range(4):
        assert outs[r] == list(range(r * 9, (r + 1) * 9))


def run_gather(topology, n, root, dtype=SMI_INT, port=0, config=NOCTUA):
    prog = SMIProgram(topology, config=config)
    P = topology.num_ranks

    def kernel(smi):
        chan = smi.open_gather_channel(n, dtype, port, root)
        for i in range(n):
            yield from chan.push(smi.rank * 1000 + i)
        if smi.rank == root:
            out = []
            for _ in range(P * n):
                v = yield from chan.pop()
                out.append(int(v))
            smi.store("gather", out)

    prog.add_kernel(kernel, ranks="all", ops=[OpDecl("gather", port, dtype)])
    res = prog.run(max_cycles=5_000_000)
    assert res.completed, res.reason
    return res, res.store(root, "gather")


def test_gather_sorted_by_comm_rank():
    # The root receives data pre-sorted despite arbitrary readiness order:
    # the GRANT protocol enforces it (§3.3).
    res, out = run_gather(noctua_torus(), 7, root=0)
    expect = [r * 1000 + i for r in range(8) for i in range(7)]
    assert out == expect


def test_gather_nonzero_root():
    res, out = run_gather(torus2d(2, 2), 5, root=1)
    expect = [r * 1000 + i for r in range(4) for i in range(5)]
    assert out == expect


def test_two_collectives_in_sequence_same_port():
    """Two bcasts back-to-back on one port must not mix (§3.3)."""
    prog = SMIProgram(bus(3))
    n = 10

    def kernel(smi):
        for round_ in range(2):
            chan = smi.open_bcast_channel(n, SMI_INT, 0, 0)
            out = []
            for i in range(n):
                v = yield from chan.bcast(
                    round_ * 100 + i if smi.rank == 0 else None
                )
                out.append(int(v))
            smi.store(f"round{round_}", out)

    prog.add_kernel(kernel, ranks="all", ops=[OpDecl("bcast", 0, SMI_INT)])
    res = prog.run(max_cycles=5_000_000)
    assert res.completed
    for r in range(3):
        assert res.store(r, "round0") == list(range(10))
        assert res.store(r, "round1") == [100 + i for i in range(10)]


def test_parallel_collectives_distinct_ports():
    """Multiple collectives execute concurrently on separate ports (§3.2).

    Each collective is driven by its own application kernel — "as
    participating in collective operations is parallel with the number of
    distinct ports, multiple collectives can perform their rendezvous and
    communication concurrently" (§3.3). (Interleaving two collectives in a
    single sequential loop would instead create a cyclic dependency through
    packetisation and deadlock — by design, see §3.3's correctness rule.)
    """
    prog = SMIProgram(torus2d(2, 2))
    n = 12

    def bcast_app(smi):
        b = smi.open_bcast_channel(n, SMI_INT, 0, 0)
        out = []
        for i in range(n):
            v = yield from b.bcast(i if smi.rank == 0 else None)
            out.append(int(v))
        smi.store("b", out)

    def reduce_app(smi):
        r = smi.open_reduce_channel(n, SMI_FLOAT, SMI_ADD, 1, 0)
        out = []
        for _ in range(n):
            s = yield from r.reduce(float(smi.rank))
            if smi.rank == 0:
                out.append(float(s))
        if smi.rank == 0:
            smi.store("r", out)

    prog.add_kernel(bcast_app, ranks="all", ops=[OpDecl("bcast", 0, SMI_INT)])
    prog.add_kernel(reduce_app, ranks="all",
                    ops=[OpDecl("reduce", 1, SMI_FLOAT, reduce_op=SMI_ADD)])
    res = prog.run(max_cycles=5_000_000)
    assert res.completed
    for rank in range(4):
        assert res.store(rank, "b") == list(range(n))
    np.testing.assert_allclose(res.store(0, "r"), [6.0] * n)  # 0+1+2+3


def test_interleaved_collectives_single_loop_deadlocks():
    """The §3.3 correctness rule: a single sequential loop that alternates a
    bcast push with a blocking reduce creates a cyclic dependency (the
    bcast element sits in a partial packet while the loop blocks on the
    reduce) — the simulator must detect and report the deadlock."""
    import pytest as _pytest

    from repro import DeadlockError

    prog = SMIProgram(torus2d(2, 2))
    n = 12

    def kernel(smi):
        b = smi.open_bcast_channel(n, SMI_INT, 0, 0)
        r = smi.open_reduce_channel(n, SMI_FLOAT, SMI_ADD, 1, 0)
        for i in range(n):
            yield from b.bcast(i if smi.rank == 0 else None)
            yield from r.reduce(float(smi.rank))

    prog.add_kernel(kernel, ranks="all", ops=[
        OpDecl("bcast", 0, SMI_INT),
        OpDecl("reduce", 1, SMI_FLOAT, reduce_op=SMI_ADD),
    ])
    with _pytest.raises(DeadlockError):
        prog.run(max_cycles=5_000_000)


def test_bcast_wrong_kind_port_rejected():
    prog = SMIProgram(bus(2))

    def kernel(smi):
        smi.open_bcast_channel(4, SMI_INT, 0, 0)  # port 0 hosts a reduce
        yield None

    prog.add_kernel(kernel, ranks="all", ops=[
        OpDecl("reduce", 0, SMI_INT, reduce_op=SMI_ADD)
    ])
    with pytest.raises(ChannelError, match="support kernel"):
        prog.run(max_cycles=10_000)


def test_root_must_supply_value():
    prog = SMIProgram(bus(2))

    def kernel(smi):
        chan = smi.open_bcast_channel(4, SMI_INT, 0, 0)
        yield from chan.bcast(None if smi.rank == 0 else None)

    prog.add_kernel(kernel, ranks="all", ops=[OpDecl("bcast", 0, SMI_INT)])
    with pytest.raises(ChannelError, match="root must provide"):
        prog.run(max_cycles=10_000)


@settings(deadline=None, max_examples=10)
@given(
    n=st.integers(min_value=1, max_value=40),
    root=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_reduce_matches_numpy(n, root, seed):
    """Property: streaming Reduce == numpy sum for random data/root/size."""
    rng = np.random.default_rng(seed)
    contribs = {r: rng.integers(-100, 100, size=n).astype(np.float32)
                for r in range(4)}
    _, out = run_reduce(torus2d(2, 2), n, root, SMI_ADD, contributions=contribs)
    expect = np.sum([contribs[r] for r in range(4)], axis=0)
    np.testing.assert_allclose(out, expect)


@settings(deadline=None, max_examples=10)
@given(
    n=st.integers(min_value=1, max_value=30),
    root=st.integers(min_value=0, max_value=7),
)
def test_property_bcast_identical_everywhere(n, root):
    """Property: all ranks see exactly the root's stream, any root/size."""
    _, outs = run_bcast(noctua_torus(), n, root=root)
    expect = [float(root * 100 + i) for i in range(n)]
    for r in range(8):
        np.testing.assert_allclose(outs[r], expect)


def test_scatter_stream_root_large_message():
    """stream_root interleaves feed and drain so the root's own segment can
    exceed the support-kernel buffers without deadlock."""
    top = torus2d(2, 2)
    prog = SMIProgram(top)
    n = 200  # far beyond the default app FIFO depth (56 elements)

    def kernel(smi):
        chan = smi.open_scatter_channel(n, SMI_INT, 0, 0)
        if smi.rank == 0:
            mine = yield from chan.stream_root(list(range(4 * n)))
        else:
            mine = []
            for _ in range(n):
                v = yield from chan.pop()
                mine.append(v)
        smi.store("seg", [int(v) for v in mine])

    prog.add_kernel(kernel, ranks="all", ops=[OpDecl("scatter", 0, SMI_INT)])
    res = prog.run(max_cycles=10_000_000)
    assert res.completed
    for r in range(4):
        assert res.store(r, "seg") == list(range(r * n, (r + 1) * n))


def test_gather_collect_root_large_message():
    top = torus2d(2, 2)
    prog = SMIProgram(top)
    n = 150

    def kernel(smi):
        chan = smi.open_gather_channel(n, SMI_INT, 0, 1)
        values = [smi.rank * 10_000 + i for i in range(n)]
        if smi.rank == 1:
            out = yield from chan.collect_root(values)
            smi.store("all", [int(v) for v in out])
        else:
            for v in values:
                yield from chan.push(v)

    prog.add_kernel(kernel, ranks="all", ops=[OpDecl("gather", 0, SMI_INT)])
    res = prog.run(max_cycles=10_000_000)
    assert res.completed
    expect = [r * 10_000 + i for r in range(4) for i in range(n)]
    assert res.store(1, "all") == expect


def test_stream_root_validations():
    top = torus2d(2, 2)
    prog = SMIProgram(top)

    def kernel(smi):
        chan = smi.open_scatter_channel(4, SMI_INT, 0, 0)
        if smi.rank == 0:
            yield from chan.stream_root([1, 2, 3])  # wrong length
        else:
            for _ in range(4):
                yield from chan.pop()

    prog.add_kernel(kernel, ranks="all", ops=[OpDecl("scatter", 0, SMI_INT)])
    with pytest.raises(ChannelError, match="count"):
        prog.run(max_cycles=100_000)


def test_collect_root_only_for_root():
    top = torus2d(2, 2)
    prog = SMIProgram(top)

    def kernel(smi):
        chan = smi.open_gather_channel(2, SMI_INT, 0, 0)
        if smi.rank == 1:  # not the root
            yield from chan.collect_root([1, 2])
        else:
            yield None

    prog.add_kernel(kernel, ranks="all", ops=[OpDecl("gather", 0, SMI_INT)])
    with pytest.raises(ChannelError, match="root"):
        prog.run(max_cycles=100_000)


@pytest.mark.parametrize("kind,scheme", [
    ("bcast", "linear"), ("reduce", "linear"), ("scatter", "linear"),
    ("gather", "linear"), ("bcast", "tree"), ("reduce", "tree"),
])
def test_support_kernels_have_one_interpretation(kind, scheme):
    """``burst_mode`` selects the CK planner and the p2p vector lanes,
    nothing else: support kernels and collective channels run the same
    per-element code on every plane. Executed as a check: the traced
    ``(cycle, kind)`` event sequence of every collective ``app_in`` /
    ``app_out`` (both ends per-element) is identical with the flag on
    and off, and so is the support kernel's side of its endpoints — its
    stages into ``send_ep`` and its takes from ``recv_ep`` (the CK's
    side of those may be one planned bulk commit)."""
    n, root = 20, 1

    def run(config):
        if kind == "bcast":
            return run_bcast(bus(4), n, root, config=config, scheme=scheme)
        if kind == "reduce":
            return run_reduce(bus(4), n, root, SMI_ADD, config=config,
                              scheme=scheme)
        if kind == "scatter":
            return run_scatter(bus(4), n, root, config=config)
        return run_gather(bus(4), n, root, config=config)

    def kernel_side_events(config):
        res = run(config.with_(trace=True))[0]
        rec = res.engine.trace
        assert rec.dropped == 0, "ring too small for this run"
        by_fifo: dict = {}
        for cycle, _seq, ev, track, _name, _dur, _args in rec.events():
            if ev in ("stage", "take"):
                by_fifo.setdefault(track, []).append((cycle, ev))
        out = {}
        for rt in res.transport.ranks.values():
            for sk in rt.support_kernels.values():
                for role, keep in (("app_in", ("stage", "take")),
                                   ("app_out", ("stage", "take")),
                                   ("send_ep", ("stage",)),
                                   ("recv_ep", ("take",))):
                    name = getattr(sk, role).name
                    out[role, name] = [e for e in by_fifo.get(name, ())
                                       if e[1] in keep]
        return out

    ref = kernel_side_events(NOCTUA.with_(burst_mode=False))
    fast = kernel_side_events(NOCTUA)
    for role in ("app_in", "app_out", "send_ep", "recv_ep"):
        assert any(evs for (r, _name), evs in ref.items() if r == role), role
    assert fast == ref


# ----------------------------------------------------------------------
# The reduce root's combine-at-once + countdown against the per-element
# loop it replaced (goldens measured on the commit before)
# ----------------------------------------------------------------------
def _reduce_signature(credits, op, dtype, scheme):
    """End cycle, the root's output bits and every FIFO's push / pop /
    peak counters of one 100-element reduce on 4 ranks. Packets carry 7
    elements, so a tile of ``credits`` = 1 is all 1-element packets, 7
    exactly one full packet, 16 ends on a 2-element tail and 64 on a
    1-element one (as does the message's last, 36-element tile)."""
    import hashlib

    n, ranks = 100, 4
    rng = np.random.default_rng(24)
    if dtype is SMI_INT:
        contribs = rng.integers(-1000, 1000, size=(ranks, n)).astype(np.int32)
    else:
        contribs = rng.standard_normal((ranks, n)).astype(np.float32)
    res, out = run_reduce(
        torus2d(2, 2), n, root=1, op=op, dtype=dtype, scheme=scheme,
        config=NOCTUA.with_(reduce_credits=credits),
        contributions={r: contribs[r] for r in range(ranks)})
    want = op.reduce_many(list(contribs))
    if dtype is SMI_INT:
        assert [int(v) for v in out] == want.tolist()
    else:
        np.testing.assert_allclose(out, want, rtol=1e-5, atol=1e-6)
    bits = np.asarray(out, dtype=dtype.np_dtype).tobytes()
    fifos = sorted((name, s["pushes"], s["pops"], s["max_occupancy"])
                   for name, s in res.engine.fifo_stats().items())
    return [res.cycles, hashlib.sha1(bits).hexdigest()[:12],
            hashlib.sha1(repr(fifos).encode()).hexdigest()[:12]]


#: ``[end cycle, sha1(output bits)[:12], sha1(FIFO counters)[:12]]``,
#: measured on the commit before the change (per-element combine loop).
REDUCE_GOLDENS = {
    "linear/SMI_ADD/SMI_FLOAT/C1": [97516, "a1b0e3c4a5c1", "5dbd80d9be77"],
    "linear/SMI_ADD/SMI_FLOAT/C7": [14712, "b6f3d94b7c55", "3dfee46b98cb"],
    "linear/SMI_ADD/SMI_FLOAT/C16": [6874, "39b4a3dbcaf0", "cae2a49efb9b"],
    "linear/SMI_ADD/SMI_FLOAT/C64": [1986, "eeae0da45d98", "7723e6fd00b9"],
    "linear/SMI_ADD/SMI_INT/C1": [97516, "f95744c77711", "5dbd80d9be77"],
    "linear/SMI_ADD/SMI_INT/C7": [14712, "f95744c77711", "3dfee46b98cb"],
    "linear/SMI_ADD/SMI_INT/C16": [6874, "f95744c77711", "cae2a49efb9b"],
    "linear/SMI_ADD/SMI_INT/C64": [1986, "f95744c77711", "7723e6fd00b9"],
    "linear/SMI_MAX/SMI_FLOAT/C1": [97516, "dea19f13cf75", "5dbd80d9be77"],
    "linear/SMI_MAX/SMI_FLOAT/C7": [14712, "dea19f13cf75", "3dfee46b98cb"],
    "linear/SMI_MAX/SMI_FLOAT/C16": [6874, "dea19f13cf75", "cae2a49efb9b"],
    "linear/SMI_MAX/SMI_FLOAT/C64": [1986, "dea19f13cf75", "7723e6fd00b9"],
    "linear/SMI_MAX/SMI_INT/C1": [97516, "176bf9441cf6", "5dbd80d9be77"],
    "linear/SMI_MAX/SMI_INT/C7": [14712, "176bf9441cf6", "3dfee46b98cb"],
    "linear/SMI_MAX/SMI_INT/C16": [6874, "176bf9441cf6", "cae2a49efb9b"],
    "linear/SMI_MAX/SMI_INT/C64": [1986, "176bf9441cf6", "7723e6fd00b9"],
    "tree/SMI_ADD/SMI_FLOAT/C1": [148957, "96da8065865b", "ace0dbc50b11"],
    "tree/SMI_ADD/SMI_FLOAT/C7": [22477, "df2a130d86fa", "781e1d34c391"],
    "tree/SMI_ADD/SMI_FLOAT/C16": [10364, "85d279d3a5ac", "2aaa052ccbc6"],
    "tree/SMI_ADD/SMI_FLOAT/C64": [2792, "cb9d85b61973", "88aaae455bc2"],
    "tree/SMI_ADD/SMI_INT/C1": [148957, "f95744c77711", "ace0dbc50b11"],
    "tree/SMI_ADD/SMI_INT/C7": [22477, "f95744c77711", "781e1d34c391"],
    "tree/SMI_ADD/SMI_INT/C16": [10364, "f95744c77711", "2aaa052ccbc6"],
    "tree/SMI_ADD/SMI_INT/C64": [2792, "f95744c77711", "88aaae455bc2"],
    "tree/SMI_MAX/SMI_FLOAT/C1": [148957, "dea19f13cf75", "ace0dbc50b11"],
    "tree/SMI_MAX/SMI_FLOAT/C7": [22477, "dea19f13cf75", "781e1d34c391"],
    "tree/SMI_MAX/SMI_FLOAT/C16": [10364, "dea19f13cf75", "2aaa052ccbc6"],
    "tree/SMI_MAX/SMI_FLOAT/C64": [2792, "dea19f13cf75", "88aaae455bc2"],
    "tree/SMI_MAX/SMI_INT/C1": [148957, "176bf9441cf6", "ace0dbc50b11"],
    "tree/SMI_MAX/SMI_INT/C7": [22477, "176bf9441cf6", "781e1d34c391"],
    "tree/SMI_MAX/SMI_INT/C16": [10364, "176bf9441cf6", "2aaa052ccbc6"],
    "tree/SMI_MAX/SMI_INT/C64": [2792, "176bf9441cf6", "88aaae455bc2"],
}


@pytest.mark.parametrize("scheme", ["linear", "tree"])
@pytest.mark.parametrize("dtype", [SMI_FLOAT, SMI_INT], ids=lambda d: d.name)
@pytest.mark.parametrize("op", [SMI_ADD, SMI_MAX], ids=lambda o: o.name)
@pytest.mark.parametrize("credits", [1, 7, 16, 64])
def test_reduce_root_matches_the_per_element_loop(credits, op, dtype, scheme):
    """Combining a packet with one array op and counting its element
    cycles down changes no cycle, no output bit and no FIFO counter
    against combining element by element, one generator resume each."""
    key = f"{scheme}/{op.name}/{dtype.name}/C{credits}"
    assert _reduce_signature(credits, op, dtype, scheme) == \
        REDUCE_GOLDENS[key]
