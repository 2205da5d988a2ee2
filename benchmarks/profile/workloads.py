"""The six fixed workloads of the profile benchmark.

A *workload* is a list of *operations*; an operation is one
``SMIProgram.run`` of one freshly built program. Inputs come from the
seed only: payloads are seeded ``float32`` normals and every element
count is ``base + rng.integers(0, base // 64)`` rounded down to a
multiple of 8, so two seeds differ by < 1.6 % in size and completely in
content. The programs receive only the generated arrays and sizes.

Workload names are fixed — later issues cite them. Why each exists is in
``WORKLOADS`` (and in ``BENCHMARK.json``, which must agree).
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import (NOCTUA, NOCTUA_DEEP, NOCTUA_MEMORY, SMI_ADD, SMI_FLOAT,
                   SMI_INT, HardwareConfig, OpDecl, ProgramResult, SMIProgram,
                   bus, noctua_bus, noctua_torus, torus2d)
from repro.apps import gesummv, stencil
from repro.harness import paperdata
from repro.perfmodel import p2p_stream

#: Simulated-cycle ceiling for every full run (none comes near it).
MAX_CYCLES = 500_000_000

#: One paper anchor reading: (label, simulated value, paper value).
Anchor = tuple[str, float, float]


@dataclass
class Op:
    """One operation: build a fresh program, run it, say what is right.

    ``run(config, max_cycles)`` returns the ``ProgramResult`` plus any
    output the program hands back outside ``smi.store`` (the apps return
    theirs); ``truth(result, outputs)`` checks them against NumPy and
    returns an error string or ``None``; ``anchors(result, config)``
    lists this operation's paper anchors. ``elements`` is the payload
    moved, ``inputs`` a digest of everything the seed generated for it.
    """

    name: str
    run: Callable[[HardwareConfig, int | None], tuple[ProgramResult, dict]]
    truth: Callable[[ProgramResult, dict], str | None]
    elements: int
    inputs: str     # digest of the generated inputs (provenance)
    anchors: Callable[[ProgramResult, HardwareConfig], list[Anchor]]


@dataclass
class Workload:
    name: str
    config: HardwareConfig
    ops: list[Op]


# ----------------------------------------------------------------------
# Signatures: what a timed operation must share with its reference
# ----------------------------------------------------------------------
def inputs_digest(*values) -> str:
    """One digest over the bytes of ``values`` (arrays or scalars)."""
    h = hashlib.blake2b(digest_size=16)
    for value in values:
        h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def _digest(value):
    if isinstance(value, np.ndarray):
        return str(value.dtype), value.shape, inputs_digest(value)
    return value


def signature(res: ProgramResult, outputs: dict) -> dict:
    """End cycle, every store and output bit-for-bit, per-FIFO counts."""
    sig = {"reason": res.reason, "cycles": res.cycles}
    for (rank, key), value in res.stores.items():
        sig[f"store:{rank}:{key}"] = _digest(value)
    for key, value in outputs.items():
        sig[f"out:{key}"] = _digest(value)
    for name, st in res.engine.fifo_stats().items():
        sig[f"fifo:{name}"] = (st["pushes"], st["pops"])
    return sig


def first_difference(sig: dict, ref: dict) -> str | None:
    """Name of the first entry on which two signatures disagree."""
    for key in ref:
        if key not in sig:
            return f"{key} missing"
        if sig[key] != ref[key]:
            return f"{key}: {sig[key]!r} != reference {ref[key]!r}"
    extra = sorted(set(sig) - set(ref))
    return f"{extra[0]} unexpected" if extra else None


# ----------------------------------------------------------------------
# Program builders
# ----------------------------------------------------------------------
def _no_anchors(_res, _cfg) -> list[Anchor]:
    return []


def _built(name, build, truth, elements, inputs, tweak=None,
           anchors=None) -> Op:
    """An operation over a program this file builds itself."""
    def run(cfg, max_cycles=None):
        if tweak:
            cfg = cfg.with_(**tweak)
        limit = MAX_CYCLES if max_cycles is None else max_cycles
        return build(cfg).run(max_cycles=limit), {}

    return Op(name, run, truth, elements, inputs, anchors or _no_anchors)


def _bits_equal(got, want) -> bool:
    got = np.asarray(got)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def stream_op(name, topology, hops, data, tweak=None, anchors=None) -> Op:
    """Point-to-point stream (Fig. 9): ``push_vec``/``pop_vec`` width 8."""
    n = len(data)

    def build(cfg):
        prog = SMIProgram(topology(), config=cfg)

        def snd(smi):
            ch = smi.open_send_channel(n, SMI_FLOAT, hops, 0)
            yield from ch.push_vec(data, width=8)

        def rcv(smi):
            ch = smi.open_recv_channel(n, SMI_FLOAT, 0, 0)
            smi.store("data", (yield from ch.pop_vec(n, width=8)))
            smi.store("end", smi.cycle)

        prog.add_kernel(snd, rank=0,
                        ops=[OpDecl("send", 0, SMI_FLOAT, peer=hops)])
        prog.add_kernel(rcv, rank=hops,
                        ops=[OpDecl("recv", 0, SMI_FLOAT, peer=0)])
        return prog

    def truth(res, _out):
        if not _bits_equal(res.store(hops, "data"), data):
            return "received payload differs from the sent one"
        return None

    return _built(name, build, truth, n, inputs_digest(data), tweak, anchors)


def _fig9_anchor(n, hops):
    def anchors(res, cfg):
        secs = cfg.cycles_to_seconds(res.store(hops, "end"))
        gbits = n * SMI_FLOAT.size * 8 / secs / 1e9
        return [(f"fig9_plateau_{hops}hop_gbit_s", gbits,
                 paperdata.FIG9_SMI_PLATEAU_GBITS)]
    return anchors


def _table4_anchor(n, read_burst):
    def anchors(res, cfg):
        cfg = cfg.with_(read_burst=read_burst)
        packets = SMI_FLOAT.packets_for(n)
        startup = p2p_stream(1, SMI_FLOAT, 1, cfg).cycles
        return [(f"table4_R{read_burst}_cycles",
                 (res.store(1, "end") - startup) / packets,
                 paperdata.TABLE4_INJECTION_CYCLES[read_burst])]
    return anchors


def pingpong_op(hops, value) -> Op:
    """1-element ping-pong over ``hops`` hops (Table 3)."""
    def build(cfg):
        prog = SMIProgram(noctua_bus(), config=cfg)

        def origin(smi):
            s = smi.open_send_channel(1, SMI_INT, hops, 0)
            r = smi.open_recv_channel(1, SMI_INT, hops, 1)
            start = smi.cycle
            yield from smi.push(s, value)
            smi.store("echo", int((yield from smi.pop(r))))
            smi.store("rtt", smi.cycle - start)

        def reflector(smi):
            r = smi.open_recv_channel(1, SMI_INT, 0, 0)
            s = smi.open_send_channel(1, SMI_INT, 0, 1)
            yield from smi.push(s, (yield from smi.pop(r)))

        prog.add_kernel(origin, rank=0,
                        ops=[OpDecl("send", 0, SMI_INT, peer=hops),
                             OpDecl("recv", 1, SMI_INT, peer=hops)])
        prog.add_kernel(reflector, rank=hops,
                        ops=[OpDecl("recv", 0, SMI_INT, peer=0),
                             OpDecl("send", 1, SMI_INT, peer=0)])
        return prog

    def truth(res, _out):
        if res.store(0, "echo") != value:
            return f"echo {res.store(0, 'echo')} != {value}"
        return None

    def anchors(res, cfg):
        return [(f"table3_smi{hops}_us",
                 cfg.cycles_to_us(res.store(0, "rtt")) / 2,
                 paperdata.TABLE3_LATENCY_US[f"SMI-{hops}"])]

    return _built(f"pingpong_{hops}hop", build, truth, 1,
                  inputs_digest(value), anchors=anchors)


def _coll_anchor(kind, n, ranks):
    table = (paperdata.FIG10_BCAST_ANCHORS_US if kind == "bcast"
             else paperdata.FIG11_REDUCE_ANCHORS_US)
    if n not in table:
        return None

    def anchors(res, cfg):
        end = max(res.store(r, "end") for r in range(ranks))
        return [(f"{kind}_{n}_us", cfg.cycles_to_us(end), table[n][0])]
    return anchors


def bcast_op(data, ranks=8) -> Op:
    """Per-element ``bcast`` from root 0 on the 8-rank torus (Fig. 10)."""
    n = len(data)
    values = data.tolist()

    def build(cfg):
        prog = SMIProgram(noctua_torus(), config=cfg)

        def kernel(smi):
            chan = smi.open_bcast_channel(n, SMI_FLOAT, 0, 0)
            out = np.empty(n, dtype=np.float32)
            root = smi.rank == 0
            for i in range(n):
                out[i] = yield from chan.bcast(values[i] if root else None)
            smi.store("data", out)
            smi.store("end", smi.cycle)

        prog.add_kernel(kernel, ranks="all",
                        ops=[OpDecl("bcast", 0, SMI_FLOAT)])
        return prog

    def truth(res, _out):
        for rank in range(ranks):
            if not _bits_equal(res.store(rank, "data"), data):
                return f"rank {rank} did not receive the root's values"
        return None

    return _built(f"bcast_{n}", build, truth, n, inputs_digest(data),
                  anchors=_coll_anchor("bcast", n, ranks))


def reduce_op(contrib) -> Op:
    """Per-element ``reduce`` (``SMI_ADD``) to root 0 (Fig. 11)."""
    ranks, n = contrib.shape
    values = contrib.tolist()

    def build(cfg):
        prog = SMIProgram(noctua_torus(), config=cfg)

        def kernel(smi):
            chan = smi.open_reduce_channel(n, SMI_FLOAT, SMI_ADD, 0, 0)
            mine = values[smi.rank]
            out = np.empty(n, dtype=np.float32)
            for i in range(n):
                got = yield from chan.reduce(mine[i])
                if got is not None:
                    out[i] = got
            if smi.rank == 0:
                smi.store("data", out)
            smi.store("end", smi.cycle)

        prog.add_kernel(kernel, ranks="all",
                        ops=[OpDecl("reduce", 0, SMI_FLOAT,
                                    reduce_op=SMI_ADD)])
        return prog

    want = contrib.astype(np.float64).sum(axis=0)

    def truth(res, _out):
        if not np.allclose(res.store(0, "data"), want, rtol=1e-4, atol=1e-5):
            return "reduced values differ from the NumPy sum"
        return None

    return _built(f"reduce_{n}", build, truth, n * ranks,
                  inputs_digest(contrib),
                  anchors=_coll_anchor("reduce", n, ranks))


def uniform_stream_op(data, ranks=16) -> Op:
    """16-rank uniform stream: concurrent sender + receiver per rank."""
    n = data.shape[1]

    def build(cfg):
        prog = SMIProgram(bus(ranks), config=cfg)

        def sender(smi):
            snd = smi.open_send_channel(n, SMI_FLOAT, smi.rank + 1, 0)
            yield from snd.push_vec(data[smi.rank], width=8)
            smi.store("end_tx", smi.cycle)

        def receiver(smi):
            rcv = smi.open_recv_channel(n, SMI_FLOAT, smi.rank - 1, 0)
            smi.store("data", (yield from rcv.pop_vec(n, width=8)))
            smi.store("end_rx", smi.cycle)

        for rank in range(ranks):
            if rank < ranks - 1:
                prog.add_kernel(
                    sender, rank=rank, name="stream_tx",
                    ops=[OpDecl("send", 0, SMI_FLOAT, peer=rank + 1)])
            if rank > 0:
                prog.add_kernel(
                    receiver, rank=rank, name="stream_rx",
                    ops=[OpDecl("recv", 0, SMI_FLOAT, peer=rank - 1)])
        return prog

    def truth(res, _out):
        for rank in range(1, ranks):
            if not _bits_equal(res.store(rank, "data"), data[rank - 1]):
                return f"rank {rank} received a different payload"
        return None

    return _built(f"uniform_stream_{ranks}", build, truth, n * (ranks - 1),
                  inputs_digest(data))


@contextmanager
def _captured_run(limit):
    """The apps build and run their program internally: capture the
    ``ProgramResult`` (and impose a cycle ``limit``) from outside."""
    got: list = []
    original = SMIProgram.run

    def run(self, max_cycles=None):
        res = original(self, max_cycles if limit is None else limit)
        got.append(res)
        return res

    SMIProgram.run = run
    try:
        yield got
    finally:
        SMIProgram.run = original


def _app_op(name, call, truth, elements, inputs) -> Op:
    def run(cfg, max_cycles=None):
        outputs = {}
        with _captured_run(max_cycles) as got:
            try:
                outputs["out"] = np.asarray(call(cfg)[0])
            except AssertionError:
                # A build-only run trips the app's own "completed" assert.
                if max_cycles is None:
                    raise
        return got[0], outputs

    return Op(name, run, truth, elements, inputs, _no_anchors)


def gesummv_op(alpha, beta, A, B, x) -> Op:
    want = gesummv.reference(alpha, beta, A, B, x)

    def truth(_res, out):
        if not np.allclose(out["out"], want, rtol=1e-4, atol=1e-4):
            return "y differs from gesummv.reference"
        return None

    return _app_op(
        f"gesummv_{len(x)}",
        lambda cfg: gesummv.run_distributed_sim(
            alpha, beta, A, B, x, memory=NOCTUA_MEMORY, config=cfg),
        truth, A.size + B.size, inputs_digest(alpha, beta, A, B, x))


def stencil_op(grid, steps) -> Op:
    want = stencil.jacobi_reference(grid, steps)

    def truth(_res, out):
        if not np.allclose(out["out"].astype(np.float64), want, atol=1e-4):
            return "grid differs from stencil.jacobi_reference"
        return None

    return _app_op(
        f"stencil_{grid.shape[0]}x{steps}",
        lambda cfg: stencil.run_distributed_sim(
            grid, steps, (2, 2), topology=torus2d(2, 2), config=cfg),
        truth, grid.size * steps, inputs_digest(grid))


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
#: name -> why it exists (``BENCHMARK.json`` repeats these lines).
WORKLOADS = {
    "stream_shallow":
        "Fig. 9 stream on the default burst plane: window planning and "
        "replication do most of the work, collectives/apps/shard none.",
    "stream_flit":
        "The per-flit specification: engine, per-item FIFO, arbiter, CK and "
        "link do everything; the planner is bypassed (its no-change case).",
    "stream_deep_macro":
        "Deep buffers + macro-cruise: fast-forward tiers and bulk FIFO log "
        "application; the memory-heavy case peak_rss_mb is there for.",
    "collectives":
        "Figs. 10-11 bcast/reduce on the 8-rank torus: per-element channel "
        "calls, support kernels, engine park/wake; planner hit rate < 0.2.",
    "small_msgs":
        "Tables 3-4 and the apps: many tiny fresh programs, so routing / "
        "codegen / builder set-up is a large share; where setup_s shows.",
    "shard_uniform":
        "16-rank uniform stream on the 2-worker process backend: the only "
        "workload where shard/ runs; carries the work-inflation question.",
}

#: ``small_msgs`` repeats its program list this many times per round.
SMALL_MSGS_REPEATS = 4


def _size(rng, base: int) -> int:
    return (base + int(rng.integers(0, max(base // 64, 1)))) // 8 * 8


def _normals(rng, *shape):
    return rng.standard_normal(shape).astype(np.float32)


def _stream_pair(rng, sizes, anchored=False):
    ops = []
    for hops, base in sizes:
        n = _size(rng, base)
        ops.append(stream_op(
            f"stream_{hops}hop", noctua_bus, hops, _normals(rng, n),
            anchors=_fig9_anchor(n, hops) if anchored else None))
    return ops


def _small_msgs(rng):
    ops = [pingpong_op(hops, int(rng.integers(1, 1 << 20)))
           for hops in (1, 4, 7)]
    for read_burst in (1, 4, 8, 16):
        n = _size(rng, 400 * SMI_FLOAT.elements_per_packet)
        ops.append(stream_op(
            f"injection_R{read_burst}", noctua_torus, 1, _normals(rng, n),
            tweak={"read_burst": read_burst},
            anchors=_table4_anchor(n, read_burst)))
    ops.append(bcast_op(_normals(rng, _size(rng, 64))))
    ops.append(reduce_op(_normals(rng, 8, _size(rng, 64))))
    n = _size(rng, 512)
    ops.append(gesummv_op(float(rng.normal()), float(rng.normal()),
                          _normals(rng, n, n), _normals(rng, n, n),
                          _normals(rng, n)))
    ops.append(stencil_op(_normals(rng, 256, 256), 8))
    return ops * SMALL_MSGS_REPEATS


def make_workload(name: str, seed: int) -> Workload:
    """Generate one workload's inputs from ``seed`` and bind its programs."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: "
                         + ", ".join(WORKLOADS))
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    if name == "stream_shallow":
        return Workload(name, NOCTUA, _stream_pair(
            rng, ((1, 1 << 18), (4, 1 << 17)), anchored=True))
    if name == "stream_flit":
        return Workload(name, NOCTUA.with_(burst_mode=False), _stream_pair(
            rng, ((4, 1 << 16), (1, 1 << 16))))
    if name == "stream_deep_macro":
        return Workload(name, NOCTUA_DEEP.with_(macro_cruise=True),
                        _stream_pair(rng, ((1, 1 << 19), (4, 1 << 17))))
    if name == "collectives":
        return Workload(name, NOCTUA, [
            bcast_op(_normals(rng, _size(rng, 8192))),
            reduce_op(_normals(rng, 8, _size(rng, 4096)))])
    if name == "small_msgs":
        return Workload(name, NOCTUA, _small_msgs(rng))
    return Workload(
        name, NOCTUA_DEEP.with_(backend="process", shards=2),
        [uniform_stream_op(_normals(rng, 15, _size(rng, 1 << 14)))])
