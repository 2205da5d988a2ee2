"""Macro-cruise fast-forward: tier-2 exactness and fold-watermark stats.

The whole-program analytical fast-forward (``HardwareConfig.macro_cruise``,
on by default) commits long steady-state spans as closed-form Δ-shift
extrapolations, jumping the engine clock in bulk. The contracts pinned
here:

* **tier-2 A/B exactness** — on the deep-buffer preset at a size where
  the fast-forward demonstrably fires (``ff_jumps > 0``), the
  macro plane must match the per-flit specification and the burst
  plane bit-for-bit: same
  end cycle, same payload, same per-FIFO push/pop counts and occupancy
  peaks. (The randomized sweep lives in ``test_burst_fuzz.py``; this is
  the deterministic anchor.)

* **fold-watermark soundness** — time-filtered stats queries
  (``Fifo.counts_at`` / ``max_occupancy_at``) interact with the
  occupancy-log fold, whose boundary a bulk clock jump can land far
  past any externally observed cycle. With the engine's
  ``stats_fold_limit`` watermark raised (as the sharded backend does),
  queries at the watermark stay exact even when the fold boundary falls
  inside a fast-forwarded span; without it, queries below an
  already-folded prefix must fail loudly instead of returning lumped
  counts.

* **arming at the paper's depths** — on ``NOCTUA`` (8-deep FIFOs) the
  default configuration lands jumps on the 1-hop stream and over the
  whole 11-session 4-hop chain: the hyperperiod detector
  (``_FFHistory.ff_detect``) is pinned on synthetic fingerprints, and a
  program that cannot arm keeps probing — one report per train, no
  give-up, a refusal retiring only its own train — on the
  specification's trajectory.

* **a jump is a time shift** — one jump per stream whatever its length,
  landed as one ``Fifo.shift`` per chain FIFO: nothing per packet is
  left behind (pinned by count and shown independent of the message
  size), no re-detection follows it, a run cut inside the span and the
  opt-in accept histograms stay exact.
"""

import numpy as np
import pytest

from repro import NOCTUA, SMI_FLOAT, SMIProgram, noctua_bus, noctua_torus
from repro.codegen.metadata import OpDecl
from repro.core.config import hardware_preset
from repro.core.errors import SimulationError
from repro.simulation.stats import collect_planner_stats
from repro.transport import planner_ff, planner_train, planner_window

DEEP = hardware_preset("noctua-deep")
#: The fast-forward is on by default; ``macro_cruise=False`` is the
#: burst plane without it (the comparison plane of every A/B here).
BURST = DEEP.with_(macro_cruise=False)
N = 65536


def _run_stream(config, n=N, width=8, fold_watermark=None, hops=1,
                topology=noctua_bus, pop_width=None):
    """Deep-preset p2p stream over ``hops``; returns (result, stats)."""
    prog = SMIProgram(topology(), config=config)
    data = np.arange(n, dtype=np.float32) % 1024

    def snd(smi):
        if fold_watermark is not None:
            smi.engine.stats_fold_limit = fold_watermark
        ch = smi.open_send_channel(n, SMI_FLOAT, hops, 0)
        yield from ch.push_vec(data, width=width)

    def rcv(smi):
        ch = smi.open_recv_channel(n, SMI_FLOAT, 0, 0)
        out = yield from ch.pop_vec(n, width=pop_width or width)
        smi.store("sum", float(np.sum(out)))
        smi.store("ok", bool(np.array_equal(out, data)))
        smi.store("end", smi.cycle)

    prog.add_kernel(snd, rank=0,
                    ops=[OpDecl("send", 0, SMI_FLOAT, peer=hops)])
    prog.add_kernel(rcv, rank=hops,
                    ops=[OpDecl("recv", 0, SMI_FLOAT, peer=0)])
    res = prog.run(max_cycles=200_000_000)
    assert res.completed, res.reason
    assert res.store(hops, "ok"), "payload mismatch"
    return res, collect_planner_stats(res.transport)


def test_macro_cruise_exact_vs_burst_and_cruise_deep_preset():
    planes = {
        "flit": DEEP.with_(burst_mode=False),
        "burst": BURST,
        "macro": DEEP,
    }
    runs = {name: _run_stream(cfg) for name, cfg in planes.items()}

    macro_stats = runs["macro"][1]
    assert macro_stats.ff_jumps > 0, "fast-forward never fired"
    assert macro_stats.ff_cycles > 0

    ref, _ = runs["flit"]
    ref_fifos = ref.engine.fifo_stats()
    for name in ("burst", "macro"):
        res, _ = runs[name]
        assert res.store(1, "end") == ref.store(1, "end"), name
        assert res.cycles == ref.cycles, name
        assert res.store(1, "sum") == ref.store(1, "sum"), name
        fifos = res.engine.fifo_stats()
        for fname, rstats in ref_fifos.items():
            fstats = fifos[fname]
            for key in ("pushes", "pops", "max_occupancy"):
                assert fstats[key] == rstats[key], (name, fname, key)


def test_macro_cruise_arms_on_four_hop_relay_chain():
    """The generalized resolver must arm on a deep multi-hop stream.

    A 4-hop deep stream resolves as one relay chain of 11 pattern
    sessions (each transit rank contributes its CKR plus two CKS
    sessions); the analytic jump must land (``ff_jumps``), span the
    whole chain (``mean_ff_chain_len``), commit bulk rounds, and stay
    bit-for-bit exact against the per-flit and burst planes.
    """
    hops, n = 4, 32768
    planes = {
        "flit": DEEP.with_(burst_mode=False),
        "burst": BURST,
        "macro": DEEP,
    }
    runs = {name: _run_stream(cfg, n=n, hops=hops)
            for name, cfg in planes.items()}

    stats = runs["macro"][1]
    assert stats.ff_jumps >= 1, "fast-forward never fired at 4 hops"
    assert stats.mean_ff_chain_len >= 3, \
        "jump did not span a multi-session relay chain"

    ref, _ = runs["flit"]
    ref_fifos = ref.engine.fifo_stats()
    for name in ("burst", "macro"):
        res, _ = runs[name]
        assert res.store(hops, "end") == ref.store(hops, "end"), name
        assert res.cycles == ref.cycles, name
        assert res.store(hops, "sum") == ref.store(hops, "sum"), name
        fifos = res.engine.fifo_stats()
        for fname, rstats in ref_fifos.items():
            fstats = fifos[fname]
            for key in ("pushes", "pops", "max_occupancy"):
                assert fstats[key] == rstats[key], (name, fname, key)


def _run_disjoint_pair(config, n):
    """Two independent p2p streams (0->1 and 2->3) in one program."""
    prog = SMIProgram(noctua_bus(), config=config)
    data_a = np.arange(n, dtype=np.float32) % 1024
    data_b = (np.arange(n, dtype=np.float32) * 3) % 997

    def make_snd(data, peer):
        def snd(smi):
            ch = smi.open_send_channel(n, SMI_FLOAT, peer, 0)
            yield from ch.push_vec(data, width=8)
        return snd

    def make_rcv(data, peer):
        def rcv(smi):
            ch = smi.open_recv_channel(n, SMI_FLOAT, peer, 0)
            out = yield from ch.pop_vec(n, width=8)
            smi.store("ok", bool(np.array_equal(out, data)))
            smi.store("end", smi.cycle)
        return rcv

    prog.add_kernel(make_snd(data_a, 1), rank=0,
                    ops=[OpDecl("send", 0, SMI_FLOAT, peer=1)])
    prog.add_kernel(make_rcv(data_a, 0), rank=1,
                    ops=[OpDecl("recv", 0, SMI_FLOAT, peer=0)])
    prog.add_kernel(make_snd(data_b, 3), rank=2,
                    ops=[OpDecl("send", 0, SMI_FLOAT, peer=3)])
    prog.add_kernel(make_rcv(data_b, 2), rank=3,
                    ops=[OpDecl("recv", 0, SMI_FLOAT, peer=2)])
    res = prog.run(max_cycles=200_000_000)
    assert res.completed, res.reason
    for rank in (1, 3):
        assert res.store(rank, "ok"), f"payload mismatch on rank {rank}"
    return res, collect_planner_stats(res.transport)


def test_macro_cruise_concurrent_disjoint_streams():
    """Two structurally disjoint streams both fast-forward.

    The resolver claims every session and lane into exactly one chain
    per send lane; with two independent streams on disjoint ranks both
    chains arm (one jump each) and the run stays cycle-exact against
    the per-flit and burst planes.
    """
    n = 32768
    ref, _ = _run_disjoint_pair(DEEP.with_(burst_mode=False), n)
    burst, _ = _run_disjoint_pair(BURST, n)
    macro, stats = _run_disjoint_pair(DEEP, n)

    assert stats.ff_jumps >= 2, "both disjoint chains should jump"
    for rank in (1, 3):
        assert macro.store(rank, "end") == ref.store(rank, "end")
        assert burst.store(rank, "end") == ref.store(rank, "end")
    assert macro.cycles == burst.cycles == ref.cycles
    ref_fifos = ref.engine.fifo_stats()
    fifos = macro.engine.fifo_stats()
    for fname, rstats in ref_fifos.items():
        fstats = fifos[fname]
        for key in ("pushes", "pops", "max_occupancy"):
            assert fstats[key] == rstats[key], (fname, key)


def _run_two_port(config, n):
    """Two concurrent flows on one physical path (rank 0 -> rank 1),
    each one long vector burst from its own kernel.

    Both channels share every relay session between the ranks, so the
    sessions poll two inputs and demux into two targets — fixed
    pattern shapes the relay-chain resolver refuses on both walks.
    """
    prog = SMIProgram(noctua_bus(), config=config)
    data = {0: np.arange(n, dtype=np.float32) % 1024,
            1: (np.arange(n, dtype=np.float32) * 5) % 811}

    def flow(port):
        def snd(smi):
            ch = smi.open_send_channel(n, SMI_FLOAT, 1, port)
            yield from ch.push_vec(data[port], width=8)

        def rcv(smi):
            ch = smi.open_recv_channel(n, SMI_FLOAT, 0, port)
            out = yield from ch.pop_vec(n, width=8)
            smi.store(f"ok{port}", bool(np.array_equal(out, data[port])))
            smi.store(f"end{port}", smi.cycle)

        prog.add_kernel(snd, rank=0, name=f"snd{port}",
                        ops=[OpDecl("send", port, SMI_FLOAT, peer=1)])
        prog.add_kernel(rcv, rank=1, name=f"rcv{port}",
                        ops=[OpDecl("recv", port, SMI_FLOAT, peer=0)])

    flow(0)
    flow(1)
    res = prog.run(max_cycles=200_000_000)
    assert res.completed, res.reason
    assert res.store(1, "ok0") and res.store(1, "ok1"), "payload mismatch"
    return res, collect_planner_stats(res.transport)


def test_macro_no_arm_program_pays_zero_ff_overhead():
    """The shared-path two-port shape never resolves (its relay
    patterns poll two inputs and stage into two targets): no
    fast-forward window is ever counted, and the trajectory is
    identical to the burst plane — the macro flag costs nothing here.
    """
    n = 16384
    burst, _ = _run_two_port(BURST, n)
    macro, stats = _run_two_port(DEEP, n)

    assert stats.ff_cycles == 0, "no-arm program counted an ff window"
    assert stats.ff_jumps == 0
    for key in ("end0", "end1"):
        assert macro.store(1, key) == burst.store(1, key)
    assert macro.cycles == burst.cycles


def test_shape_refusal_is_reported_by_its_own_train():
    """A refusal no later sweep can heal retires the train that met
    it, not the planner: the two-port program's shape refusal is one
    train's miss — counted in ``ff_misses`` and traced as an ``abort``
    with guard ``unresolved`` — and the run ends where the burst plane
    does."""
    macro, stats = _run_two_port(DEEP.with_(trace=True), 16384)

    assert macro.cycles == 9611
    assert stats.ff_jumps == 0 and stats.ff_misses >= 1
    reasons = [ev[6].get("reason") for ev in macro.engine.trace.events()
               if ev[2] == "abort" and ev[6]["guard"] == "unresolved"]
    assert "pattern shape (multi-input/target session)" in reasons


def test_counts_at_exact_across_fast_forwarded_fold_boundary():
    """A fold boundary landing inside a fast-forwarded span must not
    corrupt time-filtered stats when the watermark is honoured.

    Both planes pin ``stats_fold_limit`` to a mid-stream cycle (well
    inside the macro plane's steady state, so the surrounding span is
    committed by bulk extrapolation); ``counts_at``/``max_occupancy_at``
    at that watermark must then agree exactly between the per-flit
    interpretation and the fast-forwarded run.
    """
    watermark = 10_000
    flit, _ = _run_stream(DEEP.with_(burst_mode=False),
                          fold_watermark=watermark)
    macro, stats = _run_stream(DEEP, fold_watermark=watermark)
    assert stats.ff_jumps > 0, "fast-forward never fired"
    assert watermark < macro.cycles

    ref = {f.name: f for f in flit.engine.fifos}
    checked = 0
    for f in macro.engine.fifos:
        r = ref[f.name]
        assert f.counts_at(watermark) == r.counts_at(watermark), f.name
        assert (f.max_occupancy_at(watermark)
                == r.max_occupancy_at(watermark)), f.name
        # End-of-run queries must stay answerable too (the watermark
        # clamps folds below the global end).
        assert f.counts_at(macro.cycles) == r.counts_at(flit.cycles), f.name
        checked += 1
    assert checked > 0


def test_time_filtered_query_below_folded_prefix_raises():
    """Without a watermark, a bulk clock jump folds the occupancy log
    far ahead; queries below the folded prefix must fail loudly."""
    macro, stats = _run_stream(DEEP)
    assert stats.ff_jumps > 0
    folded = [f for f in macro.engine.fifos if f._occ_folded_through > 2]
    assert folded, "no fifo folded its occupancy log during the bulk run"
    f = max(folded, key=lambda f: f._occ_folded_through)
    with pytest.raises(SimulationError, match="folded through"):
        f.counts_at(f._occ_folded_through - 2)
    with pytest.raises(SimulationError, match="folded through"):
        f.max_occupancy_at(f._occ_folded_through - 2)


# ----------------------------------------------------------------------
# Arming at the paper's own buffer depths (NOCTUA: 8-deep FIFOs)
# ----------------------------------------------------------------------
def _assert_same_trajectory(res, ref, hops):
    assert res.store(hops, "end") == ref.store(hops, "end")
    assert res.cycles == ref.cycles
    ref_fifos = ref.engine.fifo_stats()
    fifos = res.engine.fifo_stats()
    for fname, rstats in ref_fifos.items():
        for key in ("pushes", "pops", "max_occupancy"):
            assert fifos[fname][key] == rstats[key], (fname, key)


def test_arms_at_noctua_depths():
    """``HardwareConfig()`` untouched: the 1-hop stream fast-forwards
    >= 90 % of its cycles and the 4-hop stream jumps over its whole
    11-session relay chain — both cycle-equal to the burst plane
    without the fast-forward."""
    res, stats = _run_stream(NOCTUA, n=1 << 18, hops=1)
    ref, _ = _run_stream(NOCTUA.with_(macro_cruise=False), n=1 << 18,
                         hops=1)
    assert stats.ff_jumps >= 1
    assert stats.mean_ff_chain_len == 2
    assert stats.ff_cycles / res.cycles >= 0.9
    _assert_same_trajectory(res, ref, 1)

    res, stats = _run_stream(NOCTUA, n=1 << 16, hops=4)
    ref, _ = _run_stream(NOCTUA.with_(macro_cruise=False), n=1 << 16,
                         hops=4)
    assert stats.ff_jumps >= 1
    assert stats.mean_ff_chain_len == 11
    assert stats.ff_cycles / res.cycles >= 0.5
    _assert_same_trajectory(res, ref, 4)


def _ping_pong_fingerprints(steps_a, steps_b, sweeps):
    """Fingerprints of two frontiers that advance ``(packets, cycles)``
    per sweep, the one behind in simulated time going next — a relay
    pair at equal rates and unequal round sizes."""
    (pa, ca), (pb, cb) = steps_a, steps_b
    na = nb = ta = tb = 0
    for _ in range(sweeps):
        if ta <= tb:
            na += pa
            ta += ca
        else:
            nb += pb
            tb += cb
        yield ((na, nb), (ta, tb), (na, nb))


def test_ff_detect_finds_the_hyperperiod():
    """(16 packets, 32 cycles) against (22, 44): equal rates, and the
    first sweep boundaries that bound a period are lcm(16, 22) = 176
    packets = 19 sweeps apart — found as soon as two periods are in the
    history, at no lock-step candidate before."""
    hist = planner_ff._FFHistory()
    found = [hist.ff_detect(cp) for cp in
             _ping_pong_fingerprints((16, 32), (22, 44), 2 * 19 + 1)]
    assert found[:-1] == [None] * (2 * 19)
    dT, dn, lens_a, lens_b, lens_c = found[-1]
    assert dT == 352 and dn == (176, 176)
    assert [b - a for a, b in zip(lens_a, lens_b)] == [176, 176]
    assert [c - b for b, c in zip(lens_b, lens_c)] == [176, 176]


def test_ff_detect_refuses_unequal_rates():
    """(16, 32) against (22, 45): the frontiers never re-align within
    the detector's history, so no period is ever offered — and the
    history and its skew index stay bounded while it looks."""
    hist = planner_ff._FFHistory()
    for cp in _ping_pong_fingerprints((16, 32), (22, 45), 1000):
        assert hist.ff_detect(cp) is None
    assert len(hist.cps) == planner_ff.FF_KEEP
    assert sum(map(len, hist.by_skew.values())) == planner_ff.FF_KEEP


def _detections(monkeypatch):
    """Record every ``ff_detect`` call as ``[sweeps fingerprinted, period
    found]`` and, per landed jump, how many calls preceded it."""
    calls, jumps = [], []
    detect = planner_ff._FFHistory.ff_detect
    apply = planner_ff._FastForward.ff_apply

    def ff_detect(hist, cp):
        found = detect(hist, cp)
        calls.append([hist.n, found is not None])
        return found

    def ff_apply(ff, *args):
        landed = apply(ff, *args)
        if landed:
            jumps.append(len(calls))
        return landed

    monkeypatch.setattr(planner_ff._FFHistory, "ff_detect", ff_detect)
    monkeypatch.setattr(planner_ff._FastForward, "ff_apply", ff_apply)
    return calls, jumps


@pytest.mark.parametrize("n, hops, sessions", [(1 << 16, 1, 2),
                                               (1 << 17, 4, 11)])
def test_a_stream_jumps_on_the_link_round(monkeypatch, n, hops, sessions):
    """At ``NOCTUA`` depths every relay session of a link-bound stream
    moves the link's round, 16 packets per 32 cycles — the destination
    CKR's windows included, which the receive endpoint's 22 slots used
    to cut into 22-packet / 44-cycle rounds (a 352-cycle hyperperiod
    found after 49 sweeps on the 1-hop stream). The one jump names its
    period in its ``ff`` trace event and lands within 10 fingerprinted
    sweeps of the chain resolving."""
    calls, jumps = _detections(monkeypatch)
    res, stats = _run_stream(NOCTUA.with_(trace=True), n=n, hops=hops)
    ff = [ev[6] for ev in res.engine.trace.events() if ev[2] == "ff"]
    assert stats.ff_jumps == 1 and len(jumps) == 1
    (jump,) = ff
    assert jump["period"] == 32 and jump["ppp"] == 16
    assert jump["hops"] == sessions
    assert jump["periods"] * jump["period"] >= 0.8 * res.cycles
    sweeps, found = calls[jumps[0] - 1]
    assert found and sweeps - 1 <= 10, calls


def test_a_jump_cut_by_its_message_end_stops_the_fingerprinting(
        monkeypatch):
    """A jump whose span the message end bounded leaves less than two
    periods behind it, so no later train of the stream can jump: its
    send lane is spent at the jump and the tail trains take no
    fingerprint (the 2^18-float 1-hop stream took 23 for nothing)."""
    calls, jumps = _detections(monkeypatch)
    res, stats = _run_stream(NOCTUA, n=1 << 18, hops=1)
    assert stats.ff_jumps == 1
    assert len(calls) == jumps[0], "ff_detect called after the jump"
    assert stats.replications > 2, "no tail trains"


def _uniform_bus_jumps(config, ranks, n=1 << 14):
    """Jumps of a ``ranks``-bus where every rank streams ``n`` floats to
    its right neighbour while receiving from its left."""
    from repro import bus

    prog = SMIProgram(bus(ranks), config=config)
    data = np.arange(n, dtype=np.float32)

    def sender(smi):
        ch = smi.open_send_channel(n, SMI_FLOAT, smi.rank + 1, 0)
        yield from ch.push_vec(data, width=8)

    def receiver(smi):
        ch = smi.open_recv_channel(n, SMI_FLOAT, smi.rank - 1, 0)
        out = yield from ch.pop_vec(n, width=8)
        smi.store("ok", bool(np.array_equal(out, data)))

    for rank in range(ranks - 1):
        prog.add_kernel(sender, rank=rank, name="tx",
                        ops=[OpDecl("send", 0, SMI_FLOAT, peer=rank + 1)])
        prog.add_kernel(receiver, rank=rank + 1, name="rx",
                        ops=[OpDecl("recv", 0, SMI_FLOAT, peer=rank)])
    res = prog.run(max_cycles=50_000_000)
    assert res.completed, res.reason
    assert all(res.store(rank, "ok") for rank in range(1, ranks))
    return collect_planner_stats(res.transport).ff_jumps


def test_the_last_stream_of_a_uniform_bus_jumps():
    """Every stream of a uniform bus jumps, on ``NOCTUA`` and on
    ``NOCTUA_DEEP``. The last one used to miss on the deep preset: the
    destination CKR's windows were cut at the receive endpoint's 46
    slots, so its rounds took 92 cycles against the sender's 64 and the
    common period (1 472 cycles) was beyond the detector. Its windows
    now run until the link starves them, as the sender's do."""
    assert _uniform_bus_jumps(NOCTUA, 3) == 2
    assert _uniform_bus_jumps(DEEP, 3) == 2


def test_unarmable_program_keeps_probing_at_equal_cycles():
    """A program the resolver can only refuse transiently keeps its
    fast-forward armed: nothing gives up on measured futility.

    With the silence proof vetoed (a state only the seam can reach), a
    sender-bound shallow 4-hop chain (width 2: one packet every 3.5
    cycles) is back in the circular regime: short trains, the resolver
    refusing on a consumer that never joins. The planner
    never flips its plane mid-run; every train that probed
    reports its silent outcome once — not once per sweep — and the run
    stays on the specification's trajectory, like the burst plane
    without the fast-forward.
    """
    n, hops = 1 << 15, 4
    sweeps_per_train = []  # ff_try calls of each probing train
    last_train = [None]
    original = planner_ff._FastForward.ff_try

    def ff_try(self, train):
        if last_train[0] is not train:
            last_train[0] = train
            sweeps_per_train.append(0)
        sweeps_per_train[-1] += 1
        return original(self, train)

    flit, _ = _run_stream(NOCTUA.with_(burst_mode=False), n=n, width=2,
                          hops=hops)
    plain, _ = _run_stream(NOCTUA.with_(macro_cruise=False), n=n, width=2,
                           hops=hops)
    planner_ff._ff_guard_probe = lambda guard, _hop: guard == "silence"
    planner_ff._FastForward.ff_try = ff_try
    try:
        res, stats = _run_stream(NOCTUA, n=n, width=2, hops=hops)
    finally:
        planner_ff._FastForward.ff_try = original
        planner_ff._ff_guard_probe = None

    assert stats.ff_jumps == 0
    assert res.transport.planner.macro
    assert stats.ff_misses == len(sweeps_per_train) > 0
    assert sum(sweeps_per_train) > stats.ff_misses
    assert stats.ff_miss_reason.startswith("unresolved")
    _assert_same_trajectory(plain, flit, hops)
    _assert_same_trajectory(res, flit, hops)


def test_two_flows_sharing_a_link_never_disarm():
    """Two 65 536-float flows sharing rank 0 -> 1 at ``NOCTUA``: the
    resolver refuses every train transiently ("app lanes not joined"),
    which used to end in a measured-futility give-up that made the
    default plane the slowest of the three. Nothing gives up now; the
    three planes agree on cycles, stores and per-FIFO counts."""
    n, flows = 1 << 16, 2
    data = [np.arange(n, dtype=np.float32) + 7 * port
            for port in range(flows)]

    def run(config):
        prog = SMIProgram(noctua_bus(), config=config)

        def snd(port):
            def kernel(smi):
                ch = smi.open_send_channel(n, SMI_FLOAT, 1, port)
                yield from ch.push_vec(data[port], width=8)
            return kernel

        def rcv(port):
            def kernel(smi):
                ch = smi.open_recv_channel(n, SMI_FLOAT, 0, port)
                smi.store(f"data{port}",
                          (yield from ch.pop_vec(n, width=8)))
                smi.store(f"end{port}", smi.cycle)
            return kernel

        for port in range(flows):
            prog.add_kernel(snd(port), rank=0, name=f"tx{port}",
                            ops=[OpDecl("send", port, SMI_FLOAT, peer=1)])
            prog.add_kernel(rcv(port), rank=1, name=f"rx{port}",
                            ops=[OpDecl("recv", port, SMI_FLOAT, peer=0)])
        res = prog.run(max_cycles=50_000_000)
        assert res.completed, res.reason
        return res

    ref = run(NOCTUA.with_(burst_mode=False))
    ref_fifos = ref.engine.fifo_stats()
    for config in (NOCTUA.with_(macro_cruise=False), NOCTUA):
        res = run(config)
        assert res.cycles == ref.cycles
        assert res.stores.keys() == ref.stores.keys()
        for key, want in ref.stores.items():
            np.testing.assert_array_equal(res.stores[key], want, str(key))
        fifos = res.engine.fifo_stats()
        for fname, rstats in ref_fifos.items():
            for key in ("pushes", "pops", "max_occupancy"):
                assert fifos[fname][key] == rstats[key], (fname, key)
    assert res.transport.planner.macro


def _fifo_entries(engine):
    """Every per-item entry the FIFOs hold: rows, pending releases, log
    entries and the recorded period of the last time shift."""
    total = 0
    for f in engine.fifos:
        total += (len(f._staged) + len(f._ready)
                  + len(f._reserved) + len(f._occ_stages)
                  + len(f._occ_takes))
        if f._occ_span is not None:
            total += len(f._occ_span[3]) + len(f._occ_span[4])
    return total


def test_jump_is_one_shift_per_stream():
    """A jump lands as one time shift per chain FIFO: one jump per
    stream whatever its length, and nothing per packet left behind.

    By count, like ``tests/test_fifo.py`` did for tuples: at the end of
    the jump train of a 1-hop stream, the memory blocks attributable to
    ``transport/planner*.py`` (boxed cycles included) number a small
    multiple of one period of the tracked lattices, and the per-item
    entries held by *all* FIFOs (rows, reserved, logs, the recorded
    period) are the same few hundred for 2^17 floats and for 2^20 —
    materialised, the longer span alone would be ~150 k packets in
    every log. The traced peak follows: net of the one O(message)
    allocation a run makes (``pop_vec``'s output array), the 8x longer
    stream peaks within 1.25x of the short one.
    """
    import tracemalloc

    planner_files = tracemalloc.Filter(True, "*/transport/planner*.py")

    def traced(n):
        data = np.arange(n, dtype=np.float32) % 1024
        got, blocks, entries = [], [], []

        def at_train_end(train):
            order = train.order
            if sum(sess.rounds for sess in order) > 1000:  # the jump
                snap = tracemalloc.take_snapshot().filter_traces(
                    [planner_files])
                blocks.append(sum(st.count for st in
                                  snap.statistics("filename")))
                entries.append(
                    _fifo_entries(order[0].arb.inputs[0].engine))

        prog = SMIProgram(noctua_bus(), config=NOCTUA)

        def snd(smi):
            ch = smi.open_send_channel(n, SMI_FLOAT, 1, 0)
            yield from ch.push_vec(data, width=8)

        def rcv(smi):
            ch = smi.open_recv_channel(n, SMI_FLOAT, 0, 0)
            got.append((yield from ch.pop_vec(n, width=8)))

        prog.add_kernel(snd, rank=0,
                        ops=[OpDecl("send", 0, SMI_FLOAT, peer=1)])
        prog.add_kernel(rcv, rank=1,
                        ops=[OpDecl("recv", 0, SMI_FLOAT, peer=0)])
        planner_train._train_debug = at_train_end
        tracemalloc.start()
        try:
            res = prog.run(max_cycles=200_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            planner_train._train_debug = None
        assert res.completed and np.array_equal(got[0], data)
        assert collect_planner_stats(res.transport).ff_jumps == 1
        assert len(blocks) == 1, "one jump train per stream"
        return peak - got[0].nbytes, blocks[0], entries[0]

    small, small_blocks, small_entries = traced(1 << 17)
    large, large_blocks, large_entries = traced(1 << 20)
    # 176 packets (the 1-hop hyperperiod before the CKR moved the link's
    # 16-packet round) x tracked lists: the jump train now peaks at ~1.5 k
    # blocks and ~400 FIFO entries.
    period = 176 * 17
    assert max(small_blocks, large_blocks) <= 4 * period
    assert small_entries == large_entries <= 2048
    assert large <= 1.25 * small, (small, large)
    assert large < 4 << 20


def test_four_hop_stream_lands_one_jump_after_one_arming():
    """No re-detection: a 4-hop 2^17-float ``NOCTUA`` stream validates
    its arming prefix and its tail round by round and nothing between —
    one jump over all 11 relay sessions (four capped jumps and 4 074
    ``validate_round`` calls when a jump materialised its packets, 2 018
    while the destination CKR's rounds set a 352-cycle period)."""
    import sys

    calls = [0]

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code.co_name == "validate_round":
            calls[0] += 1

    sys.setprofile(profiler)
    try:
        res, stats = _run_stream(NOCTUA, n=1 << 17, hops=4)
    finally:
        sys.setprofile(None)
    assert stats.ff_jumps == 1 and stats.ff_chain_hops == 11
    assert calls[0] <= 605, calls
    ref, _ = _run_stream(NOCTUA.with_(macro_cruise=False), n=1 << 17, hops=4)
    _assert_same_trajectory(res, ref, 4)


def test_chain_closure_rewalks_only_when_stale(monkeypatch):
    """``ff_close_chain`` re-walks a train's neighbourhood only after
    supply was published for a CK outside the train; a walk forced at
    every sweep must change nothing. On the 4-hop ``NOCTUA`` stream
    every train joins the same sessions in the same order, and the run
    ends on the same cycle with the same planner counters and per-FIFO
    counts — so the staleness hook misses no join (without it, the
    joined-session lists differ)."""
    def run():
        joined = []

        def at_train_end(train):
            joined.append([sess.ck.proc.name for sess in train.order])

        monkeypatch.setattr(planner_train, "_train_debug", at_train_end)
        res, stats = _run_stream(NOCTUA, n=1 << 15, hops=4)
        return res, stats, joined

    res, stats, joined = run()
    close = planner_train.ff_close_chain

    def every_sweep(train):
        train.closure_stale = True
        return close(train)

    monkeypatch.setattr(planner_train, "ff_close_chain", every_sweep)
    ref, ref_stats, ref_joined = run()
    assert stats.ff_jumps == 1
    assert joined == ref_joined
    assert stats == ref_stats
    assert res.cycles == ref.cycles
    assert res.engine.fifo_stats() == ref.engine.fifo_stats()


@pytest.mark.parametrize(
    "config, hops, topology",
    [(NOCTUA, 4, noctua_bus), (DEEP, 1, noctua_bus),
     (NOCTUA.with_(read_burst=16), 1, noctua_torus)],
    ids=["noctua-4hop", "deep-1hop", "r16-torus"])
def test_train_ledgers_keep_the_per_fifo_order(config, hops, topology,
                                               monkeypatch):
    """A validated round publishes one run per FIFO it touched; what each
    ledger then holds must be what the round validated, in FIFO order.
    At every train end: each hooked consumer's virtual supply ends with
    exactly its stager cursor's validated stages (packets, and cycles +
    the FIFO's latency), and each FIFO's virtual releases are exactly its
    taking session's take cycles."""
    landed = {}  # id(cursor) -> (packets, cycles) of its last commit
    commit = planner_window._TargetCursor.commit

    def spy(cur):
        landed[id(cur)] = (list(cur.stage_pkts), list(cur.stage_cycles))
        commit(cur)

    checked = []

    def at_train_end(train):
        tails = 0
        for stager in train.order:
            for cur in stager.stage_cursors.values():
                hooked = train.feeds.get(id(cur.fifo))
                if hooked is None:
                    continue
                consumer, j = hooked
                pkts, cycles = landed.pop(id(cur))
                k = len(cycles)
                assert consumer.snap_ready[j][-k:] == \
                    [s + cur.fifo.latency for s in cycles], cur.fifo.name
                assert list(map(id, consumer.snap_items[j][-k:])) == \
                    list(map(id, pkts)), cur.fifo.name
                tails += 1
        for fid, rels in train.v_rels.items():
            hooked = train.feeds.get(fid)
            if hooked is not None:
                taker, j = hooked
                assert rels == taker.take_cycles[j]
        checked.append(tails)

    monkeypatch.setattr(planner_window._TargetCursor, "commit", spy)
    monkeypatch.setattr(planner_train, "_train_debug", at_train_end)
    _res, stats = _run_stream(config, n=1 << 14, hops=hops,
                              topology=topology)
    assert stats.ff_jumps >= 1
    assert sum(checked) > 0, checked


# ----------------------------------------------------------------------
# Rounds longer than an interior FIFO (ROADMAP item 6)
# ----------------------------------------------------------------------
R16 = NOCTUA.with_(read_burst=16)


@pytest.mark.parametrize("n", [2800, 28000])
def test_a_round_longer_than_its_hand_off_jumps(monkeypatch, n):
    """Read burst 16 on the torus, 1 hop (``small_msgs``' ``injection_R16``
    program): a 34-cycle round moves 16 packets through the 8-deep
    ``cks0 -> cks1`` and ``ckr3 -> ckr0`` hand-offs, so neither session
    of a hand-off can validate its round before the other's (every train
    ended at round 0). Their rounds validate as one joint round, the
    trains replicate and the stream jumps, on the specification's
    cycles and per-FIFO counts."""
    joint = []
    validate = planner_train._Train.validate_coupled

    def spy(train, *args):
        ok = validate(train, *args)
        joint.append(ok)
        return ok

    monkeypatch.setattr(planner_train._Train, "validate_coupled", spy)
    res, stats = _run_stream(R16, n=n, topology=noctua_torus)
    monkeypatch.undo()
    ref, _ = _run_stream(R16.with_(burst_mode=False), n=n,
                         topology=noctua_torus)
    assert any(joint), "no joint round validated"
    assert stats.replicated_rounds > 0
    assert stats.ff_jumps >= 1
    _assert_same_trajectory(res, ref, 1)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 6: a push_vec or pop_vec width that does not divide the "
    "7-float packet (3) never jumps; a push width 3 replicates no round"))
@pytest.mark.parametrize("config, hops, widths", [
    (NOCTUA, 1, (3, 8)), (NOCTUA, 1, (8, 3)), (DEEP, 1, (3, 8)),
    (NOCTUA, 4, (3, 8))], ids=["noctua-1hop-3/8", "noctua-1hop-8/3",
                               "deep-1hop-3/8", "noctua-4hop-3/8"])
def test_a_width_three_stream_jumps(config, hops, widths):
    """The 4-hop 3/8 stream costs ~270 ms against ~20 ms at 8/8."""
    push, pop = widths
    _res, stats = _run_stream(config, n=1 << 14, width=push, pop_width=pop,
                              hops=hops)
    assert stats.ff_jumps >= 1


@pytest.mark.parametrize("preset", [NOCTUA, DEEP], ids=["noctua", "deep"])
@pytest.mark.parametrize("hops", [1, 4])
@pytest.mark.parametrize("widths", [(5, 7), (7, 5), (6, 6)],
                         ids=["5/7", "7/5", "6/6"])
def test_a_stream_straddling_the_packet_jumps(preset, hops, widths):
    """Vector widths that straddle the 7-float packet: the lanes' steady
    state repeats only over several sweeps, so these jumps are what
    ``_FFHistory``'s hyperperiod search (``FF_MAX_P``) is for — capped
    at two sweeps, none of them lands and the 4-hop ``NOCTUA`` 5/7
    stream runs ~4x slower. Each jumps on the specification's
    trajectory."""
    push, pop = widths
    res, stats = _run_stream(preset, n=1 << 14, width=push, pop_width=pop,
                             hops=hops)
    ref, _ = _run_stream(preset.with_(burst_mode=False), n=1 << 14,
                         width=push, pop_width=pop, hops=hops)
    assert stats.ff_jumps >= 1
    _assert_same_trajectory(res, ref, hops)


def test_max_cycles_inside_a_shifted_span():
    """A run cut inside a shifted span: the cut lands on the cycle, the
    raw counters hold the committed future events (as after any early
    bulk commit), ``max_occupancy`` is the peak of every period of the
    span, and time-filtered queries at the cut answer exactly — from the
    recorded period — on every FIFO of the chain."""
    n, cut = 1 << 17, 20_000

    def build(config):
        prog = SMIProgram(noctua_bus(), config=config)
        data = np.arange(n, dtype=np.float32) % 1024

        def snd(smi):
            ch = smi.open_send_channel(n, SMI_FLOAT, 1, 0)
            yield from ch.push_vec(data, width=8)

        def rcv(smi):
            ch = smi.open_recv_channel(n, SMI_FLOAT, 0, 0)
            yield from ch.pop_vec(n, width=8)

        prog.add_kernel(snd, rank=0,
                        ops=[OpDecl("send", 0, SMI_FLOAT, peer=1)])
        prog.add_kernel(rcv, rank=1,
                        ops=[OpDecl("recv", 0, SMI_FLOAT, peer=0)])
        return prog

    full = build(NOCTUA).run(max_cycles=200_000_000)
    assert full.completed and cut < full.cycles
    flit = build(NOCTUA.with_(burst_mode=False)).run(max_cycles=cut)
    res = build(NOCTUA).run(max_cycles=cut)
    assert res.reason == flit.reason == "max_cycles"
    assert res.cycles == flit.cycles == cut
    assert collect_planner_stats(res.transport).ff_jumps == 1

    ref = {f.name: f for f in flit.engine.fifos}
    shifted = [f for f in res.engine.fifos if f._occ_span is not None]
    assert len(shifted) == 3, "send endpoint, link, recv endpoint"
    for f in shifted:
        floor, period, periods = f._occ_span[:3]
        assert floor < cut < floor + period * periods, "cut inside the span"
        r = ref[f.name]
        assert f.counts_at(cut) == r.counts_at(cut) == (r.pushes, r.pops)
        assert f.max_occupancy_at(cut) == r.max_occupancy
        assert f.max_occupancy == r.max_occupancy
        # Committed future events are in the raw counters already.
        assert f.pushes > r.pushes and f.pops > r.pops
        with pytest.raises(SimulationError, match="folded through"):
            f.counts_at(floor - 2)
