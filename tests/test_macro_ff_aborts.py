"""Deterministic abort-path coverage for the macro-cruise guard battery.

The analytic jump (``ff_apply`` in :mod:`repro.transport.planner_ff`) only
commits after a battery of guards proves the extrapolation sound along
the whole relay chain: per-hop element conservation, release/readiness
lattice checks, the closed-form message-end / horizon bounds (min over the
chain), per-hop slot-release caps, and the shiftability of every chain
FIFO (a jump lands as one time shift per FIFO). The randomized fuzz sweep
(``tests/test_burst_fuzz.py``) perturbs these paths stochastically;
this module drives each guard *deterministically* through the
``planner_ff._ff_guard_probe`` test seam — a probe that forces a chosen
guard at a chosen hop to report failure — and pins the contract that a
refused jump falls back to per-packet replication with bit-identical
cycles and FIFO trajectories.

The vetoed run must also never count a jump (``ff_jumps == 0``): a
guard refusal aborts the whole analytic commit, not just a bound.

One guard site refuses at resolution instead: ``outside`` (a chain hop
observing a FIFO that a train session outside the chain stages into)
retires the chain's walk before any fingerprint is taken.

Three refusals have deterministic causes of their own, driven here
without the probe: a chain FIFO the shift cannot carry exactly (guard
``shift``, with the FIFO's reason), an observed FIFO with an outside
stager (an ``unresolved`` miss naming the walk's send endpoint), and a
message that ends within three periods of the first provable one (guard
``budget``) — final for the message, so it is reported once and the
chain is not probed again.
"""

import numpy as np
import pytest

from repro import SMI_FLOAT, SMIProgram, noctua_bus
from repro.codegen.metadata import OpDecl
from repro.core.config import hardware_preset
from repro.simulation.stats import collect_planner_stats
from repro.transport import planner_ff

DEEP = hardware_preset("noctua-deep").with_(macro_cruise=False)
MACRO = DEEP.with_(macro_cruise=True)
N = 16384
HOPS = 4
#: A 4-hop chain resolves as 11 relay sessions (hop indices 0..10):
#: each transit rank contributes CKR -> CKS -> CKS.
LAST_HOP = 10


def _run(config, n=N, hops=HOPS, probe=None, width=8):
    """One deep p2p stream with the guard probe installed for the run."""
    prog = SMIProgram(noctua_bus(), config=config)
    data = np.arange(n, dtype=np.float32) % 1024

    def snd(smi):
        ch = smi.open_send_channel(n, SMI_FLOAT, hops, 0)
        yield from ch.push_vec(data, width=width)

    def rcv(smi):
        ch = smi.open_recv_channel(n, SMI_FLOAT, 0, 0)
        out = yield from ch.pop_vec(n, width=width)
        smi.store("ok", bool(np.array_equal(out, data)))
        smi.store("end", smi.cycle)

    prog.add_kernel(snd, rank=0,
                    ops=[OpDecl("send", 0, SMI_FLOAT, peer=hops)])
    prog.add_kernel(rcv, rank=hops,
                    ops=[OpDecl("recv", 0, SMI_FLOAT, peer=0)])
    assert planner_ff._ff_guard_probe is None
    planner_ff._ff_guard_probe = probe
    try:
        res = prog.run(max_cycles=200_000_000)
    finally:
        planner_ff._ff_guard_probe = None
    assert res.completed, res.reason
    assert res.store(hops, "ok"), "payload mismatch"
    return res, collect_planner_stats(res.transport)


def _assert_same_fifo_stats(res, ref):
    """Same per-FIFO push/pop counts and occupancy peaks as ``ref``."""
    fifos = res.engine.fifo_stats()
    for fname, rstats in ref.engine.fifo_stats().items():
        for key in ("pushes", "pops", "max_occupancy"):
            assert fifos[fname][key] == rstats[key], (fname, key)


def _veto(guard, hop):
    """A probe failing ``guard`` at ``hop`` (any hop when ``None``),
    plus the list of (guard, hop) sites it actually fired at."""
    fired = []

    def probe(g, h):
        if g == guard and (hop is None or h == hop):
            fired.append((g, h))
            return True
        return False

    return probe, fired


@pytest.fixture(scope="module")
def reference():
    """No-macro trajectory plus the un-vetoed macro precondition."""
    ref, _ = _run(DEEP)
    macro, stats = _run(MACRO)
    assert stats.ff_jumps >= 1, "precondition: jump must land un-vetoed"
    assert macro.cycles == ref.cycles
    return ref


@pytest.mark.parametrize("guard,hop", [
    ("conservation", 1),    # element-conservation miss, interior hop
    ("slots", 5),           # frozen release before a mid-chain cursor
    ("horizon", LAST_HOP),  # observation-horizon cap on the last hop
    ("rel-lattice", -1),    # off-lattice sender release (chain-wide)
    ("recv-lattice", -1),   # off-lattice recv-lane readiness
    ("budget", -1),         # the message-end bound's seam
    ("standing", 0),        # frozen standing backlog on the first hop
    ("shift", 7),           # a mid-chain FIFO that cannot take the shift
    ("no-period", -1),      # the detector never offers a period
    ("outside", 3),         # an outside session stages into an observed FIFO
])
def test_guard_veto_falls_back_bit_identical(reference, guard, hop):
    probe, fired = _veto(guard, hop)
    vetoed, stats = _run(MACRO, probe=probe)

    assert fired, f"guard site {guard!r}@{hop} was never consulted"
    assert all(g == guard for g, _h in fired)
    if hop != -1:
        assert any(h == hop for _g, h in fired)
    assert stats.ff_jumps == 0, "vetoed guard must abort the jump"

    # Bit-identical per-packet fallback: same end cycle, same per-FIFO
    # push/pop counts and occupancy peaks as the no-macro plane.
    assert vetoed.store(HOPS, "end") == reference.store(HOPS, "end")
    assert vetoed.cycles == reference.cycles
    _assert_same_fifo_stats(vetoed, reference)


def test_silence_proof_veto_falls_back_bit_identical():
    """The zero-slack silence proof is a guard site like the others.

    At the paper's 8-deep FIFOs a sender-bound 4-hop chain (two floats
    per cycle: one packet every 3.5 cycles against the link's 2) only
    sustains multi-round trains — and so only resolves and jumps —
    because a relay's unreadable-observation may lean on its producer
    *session's* round frontier. Vetoed, every such observation falls
    back to the engine-level horizon: the chain is back to one-round
    trains, no jump lands, and the trajectory is bit-identical to the
    burst plane. (A link-bound stream no longer needs the proof: its
    windows run to the link's round at both ends.)
    """
    from repro import NOCTUA

    plain = NOCTUA.with_(macro_cruise=False)
    ref, _ = _run(plain, width=2)
    armed, stats = _run(NOCTUA, width=2)
    assert stats.ff_jumps >= 1, "precondition: jump must land un-vetoed"
    assert stats.mean_ff_chain_len == LAST_HOP + 1
    assert armed.cycles == ref.cycles

    probe, fired = _veto("silence", None)
    vetoed, stats = _run(NOCTUA, probe=probe, width=2)
    assert fired, "silence-proof site was never consulted"
    assert stats.ff_jumps == 0
    assert stats.mean_train_rounds < 2, "trains grew without the proof"
    assert vetoed.store(HOPS, "end") == ref.store(HOPS, "end")
    assert vetoed.cycles == ref.cycles
    _assert_same_fifo_stats(vetoed, ref)


def test_probe_observes_every_hop_of_the_chain():
    """A passive probe (never vetoes) sees per-hop guards consulted at
    every chain position, pinning the chain length the battery walks."""
    seen = []

    def probe(g, h):
        seen.append((g, h))
        return False

    _res, stats = _run(MACRO, probe=probe)
    assert stats.ff_jumps >= 1
    cons_hops = {h for g, h in seen if g == "conservation"}
    assert cons_hops == set(range(LAST_HOP + 1)), \
        "conservation guard must walk every hop of the 4-hop chain"
    assert {h for g, h in seen if g == "horizon"} == cons_hops
    assert {h for g, h in seen if g == "outside"} == cons_hops
    # One shift per chain FIFO: the send endpoint, then each hop's target.
    assert {h for g, h in seen if g == "shift"} == set(range(LAST_HOP + 2))
    assert {g for g, _h in seen} >= {
        "conservation", "rel-lattice", "budget", "horizon",
        "standing", "recv-lattice", "slots", "shift", "no-period",
        "outside",
    }


def _abort_events(res):
    return [ev[6] for ev in res.engine.trace.events() if ev[2] == "abort"]


def test_unshiftable_fifo_refuses_the_jump_by_name(monkeypatch):
    """A chain FIFO that cannot be time-shifted exactly — here the
    receive endpoint claims a boundary log, which records every item —
    refuses the jump before anything is mutated: guard ``shift`` at
    that FIFO's chain position with the FIFO's own reason, and the run
    stays on per-packet replication, bit-identical."""
    from repro.simulation.fifo import Fifo

    original = Fifo.shift_refusal

    def refusal(self):
        if self.name.endswith("recv_ep0"):
            return "boundary log records every item"
        return original(self)

    ref, _ = _run(DEEP, hops=1)
    monkeypatch.setattr(Fifo, "shift_refusal", refusal)
    res, stats = _run(MACRO.with_(trace=True), hops=1)
    assert stats.ff_jumps == 0
    shift = [a for a in _abort_events(res) if a["guard"] == "shift"]
    assert shift and all(
        a["hop"] == 2 and a["reason"] == "boundary log records every item"
        for a in shift)
    assert res.cycles == ref.cycles
    _assert_same_fifo_stats(res, ref)


def test_outside_stager_refuses_the_chain_by_name(monkeypatch):
    """The one rule a chain owes the train sessions outside it: no hop
    may observe a FIFO one of them stages into (its stages would outrun
    every horizon the proof reads once the jump leaves its frontier
    behind). Here every FIFO a session only polls is registered as
    staged into by an outside session before the walks: each train's
    one chain is refused for good — an ``unresolved`` miss naming the
    walk's send endpoint — and the run stays bit-identical."""
    original = planner_ff.ff_resolve

    def resolve(train):
        for sess in train.order:
            inputs = sess.arb.inputs
            taken = {j for j, _n in sess.pattern.takes_per_input}
            for j in sess.pattern.inputs_used:
                if j not in taken:
                    train.stager.setdefault(id(inputs[j]), None)
        return original(train)

    ref, _ = _run(DEEP, hops=1)
    monkeypatch.setattr(planner_ff, "ff_resolve", resolve)
    res, stats = _run(MACRO.with_(trace=True), hops=1)
    assert stats.ff_jumps == 0
    refusals = {(a.get("chain"), a["reason"]) for a in _abort_events(res)
                if a["guard"] == "unresolved"}
    assert ("rank0.send_ep0",
            "outside session stages into an observed FIFO") in refusals
    assert res.cycles == ref.cycles
    _assert_same_fifo_stats(res, ref)


def test_message_end_refusal_is_final(monkeypatch):
    """The threshold tax, closed: a 4-hop 2 304-float ``NOCTUA`` stream
    proves its first period with fewer than three left. The O(1)
    message-end bound refuses before the O(lattice) proof, once — one
    ``abort`` (guard ``budget``, with the reason) — and the chain is not
    probed again for the rest of the message (16 futile proofs before).
    (At 2^13 floats the chain now proves its 32-cycle period early
    enough to jump.)"""
    from repro import NOCTUA

    applied = []
    original = planner_ff._FastForward.ff_apply

    def ff_apply(self, *args):
        applied.append(original(self, *args))
        return applied[-1]

    monkeypatch.setattr(planner_ff._FastForward, "ff_apply", ff_apply)
    ref, _ = _run(NOCTUA.with_(macro_cruise=False), n=2304)
    res, stats = _run(NOCTUA.with_(trace=True), n=2304)
    assert applied == [False]
    assert stats.ff_jumps == 0
    named = [a for a in _abort_events(res)
             if a["guard"] not in ("unresolved", "no-period")]
    assert named == [{"guard": "budget", "hop": -1,
                      "reason": "message ends within three periods"}]
    assert res.cycles == ref.cycles
