"""Per-layer attribution taken from outside the simulator.

Three instruments, none of which edits ``src/``:

* :class:`Sampler` — an ``ITIMER_PROF`` stack sampler that buckets the
  innermost ``repro/`` frame of every sample by file (:data:`BUCKETS`);
* :class:`Spans` — wrappers installed at the call-site bindings of the
  layer boundaries (:data:`SPAN_SITES`) and removed afterwards;
* :class:`EmitCounts` — a counting wrapper on ``TraceRecorder.emit``,
  exact where the flight recorder's ring would drop events.

Layers are the repo's module names. The analytical packages
(``perfmodel/``, ``hostexec/``, ``resources/``) are off the simulated
path and fall under ``other``.
"""

from __future__ import annotations

import fnmatch
import signal
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import repro
import repro.core.program
import repro.shard.backend
from repro.core.program import SMIProgram
from repro.simulation.engine import Engine
from repro.trace.recorder import TraceRecorder

REPRO_ROOT = Path(repro.__file__).resolve().parent

#: (glob over the path below ``repro/``, layer). Every file must match
#: exactly one glob (``check_profile.py`` enforces it), so a new module
#: fails the check instead of silently landing in ``other``.
BUCKETS = (
    ("simulation/engine.py", "engine"),
    ("simulation/conditions.py", "engine"),
    ("simulation/fifo.py", "fifo"),
    ("simulation/stats.py", "stats"),
    ("simulation/memory.py", "memory"),
    ("transport/arbiter.py", "arbiter"),
    ("transport/ck.py", "ck"),
    ("transport/builder.py", "builder"),
    ("transport/planner*", "planner"),
    ("transport/collectives.py", "collectives"),
    ("transport/tree_collectives.py", "collectives"),
    ("core/coll_channels.py", "collectives"),
    ("core/ops.py", "collectives"),
    ("network/link.py", "link"),
    ("network/fabric.py", "link"),
    ("network/routing.py", "routing"),
    ("network/topology.py", "routing"),
    ("codegen/*", "codegen"),
    ("core/channel.py", "channel"),
    ("core/credited.py", "channel"),
    ("transport/packing.py", "channel"),
    ("network/packet.py", "channel"),
    ("core/datatypes.py", "channel"),
    ("apps/*", "apps"),
    ("shard/*", "shard"),
    # Not a simulated-path layer of its own: program orchestration,
    # configuration, the harness, tracing and the analytical packages.
    ("__init__.py", "other"),
    ("core/__init__.py", "other"),
    ("network/__init__.py", "other"),
    ("simulation/__init__.py", "other"),
    ("transport/__init__.py", "other"),
    ("core/program.py", "other"),
    ("core/context.py", "other"),
    ("core/comm.py", "other"),
    ("core/config.py", "other"),
    ("core/errors.py", "other"),
    ("harness/*", "other"),
    ("trace/*", "other"),
    ("perfmodel/*", "other"),
    ("hostexec/*", "other"),
    ("resources/*", "other"),
)

LAYERS = tuple(dict.fromkeys(layer for _, layer in BUCKETS))

#: Planner samples are split by the innermost of these entry frames.
PLANNER_PHASES = ("plan", "replicate", "ff")


def layers_matching(relpath: str) -> list[str]:
    """Layers whose glob matches ``relpath`` (exactly one, by contract)."""
    return [layer for glob, layer in BUCKETS
            if fnmatch.fnmatchcase(relpath, glob)]


def _planner_phase(func: str) -> str | None:
    if func == "plan_window":
        return "plan"
    if func == "replicate_train":
        return "replicate"
    if func.startswith(("ff_", "_ff_")):
        return "ff"
    return None


class Sampler:
    """CPU-time stack sampler (``signal.setitimer(ITIMER_PROF)``).

    The handler runs between bytecodes of the main thread, finds the
    innermost frame whose file lives under ``repro/`` (time inside NumPy
    or the stdlib is charged to the simulator code that called it) and
    charges that file's layer with the CPU time since the previous
    sample; a sample with no ``repro`` frame is ``other``. Weighting by
    elapsed CPU time instead of counting ticks matters because ticks
    that fall inside one long C call (a bulk NumPy copy) coalesce into a
    single delivery. The kernel tick caps the rate near 250 Hz. Forked
    shard workers do not inherit the timer, so only the coordinator is
    sampled.
    """

    INTERVAL_S = 0.004

    def __init__(self) -> None:
        self.layers: Counter = Counter()     # layer -> CPU seconds
        self.planner: Counter = Counter()    # planner phase -> CPU seconds
        self.samples = 0
        self.cpu_s = 0.0
        self._files: dict[str, str | None] = {}
        self._root = str(REPRO_ROOT) + "/"

    def _layer_of(self, filename: str) -> str | None:
        """The file's layer; ``None`` for a file outside ``repro/``."""
        try:
            return self._files[filename]
        except KeyError:
            layer = None
            if filename.startswith(self._root):
                match = layers_matching(filename[len(self._root):])
                layer = match[0] if match else "other"
            self._files[filename] = layer
            return layer

    def _on_tick(self, _signum, frame) -> None:
        now = time.process_time()
        spent, self._last = now - self._last, now
        self.samples += 1
        while frame is not None:
            layer = self._layer_of(frame.f_code.co_filename)
            if layer is not None:
                break
            frame = frame.f_back
        else:
            self.layers["other"] += spent
            return
        self.layers[layer] += spent
        if layer == "planner":
            planner_file = frame.f_code.co_filename
            while frame is not None:
                code = frame.f_code
                phase = (_planner_phase(code.co_name)
                         if code.co_filename == planner_file else None)
                if phase is not None:
                    self.planner[phase] += spent
                    return
                frame = frame.f_back

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        self._start = self._last = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        end = time.process_time()
        # The stretch after the last tick belongs to no sample.
        self.layers["other"] += end - self._last
        self.cpu_s += end - self._start
        signal.signal(signal.SIGPROF, self._previous)

    def seconds(self) -> dict[str, float]:
        """Sampled CPU seconds per layer (and planner phase). The layer
        values sum to ``cpu_s``: every sampled stretch of CPU time lands
        in exactly one layer."""
        out = {f"{layer}.self_s": self.layers[layer] for layer in LAYERS}
        for phase in PLANNER_PHASES:
            out[f"planner.{phase}_s"] = self.planner[phase]
        return out

    def share(self, layer: str) -> float:
        return self.layers[layer] / self.cpu_s if self.cpu_s else 0.0

    def share_resolution(self, layer: str) -> float:
        """One binomial standard error of ``layer``'s share."""
        if not self.samples:
            return 0.0
        p = min(self.share(layer), 1.0)
        return (p * (1.0 - p) / self.samples) ** 0.5


#: (owner, attribute, span name): the call-site bindings wrapped during
#: the traced pass. The sharded backends bind their own copies of the
#: routing and builder entry points.
SPAN_SITES = (
    (repro.core.program, "compute_routes", "routing.compute_routes"),
    (repro.shard.backend, "compute_routes", "routing.compute_routes"),
    (SMIProgram, "build_plan", "codegen.build_plan"),
    (repro.core.program, "build_transport", "builder.build_transport"),
    (repro.shard.backend, "build_transport", "builder.build_transport"),
    (Engine, "run", "engine.run"),
    (repro.shard.backend, "run_sharded", "shard.run_sharded"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPAN_SITES))


class Spans:
    """Boundary spans: name, start, end, parent and operation id.

    Kept in memory (``records``) and written out by the caller when the
    benchmark ends. ``operation(...)`` opens the root span of one
    operation; its self time — the part no wrapped boundary covers:
    program construction, kernel spawn, result collection — is what
    ``harness.collect_s`` reports.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list = []

    def _open(self, name: str) -> dict:
        record = {"id": len(self.records), "name": name, "op": self._op,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.records.append(record)
        self._stack.append(record["id"])
        return record

    def _close(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        def spanned(*args, **kwargs):
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)
        return spanned

    def __enter__(self) -> "Spans":
        for owner, attr, name in SPAN_SITES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def operation(self, label: str):
        """The root span of one operation; returns its operation id."""
        self._op += 1
        record = self._open(f"op:{label}")
        try:
            yield self._op
        finally:
            self._close(record)

    def totals(self, ops: set[int]) -> dict[str, dict[str, float]]:
        """Seconds per span name over the operations in ``ops``:
        ``inclusive`` durations and ``self`` times (duration minus direct
        children). Root spans go under ``op`` (inclusive) and
        ``harness.collect`` (self), so the self times sum to ``op``."""
        names = SPAN_NAMES + ("harness.collect",)
        inclusive = dict.fromkeys(SPAN_NAMES + ("op",), 0.0)
        own = dict.fromkeys(names, 0.0)
        for rec in self.records:
            if rec["op"] not in ops:
                continue
            dur = rec["end"] - rec["start"]
            if rec["parent"] is None:
                inclusive["op"] += dur
                own["harness.collect"] += dur
            else:
                inclusive[rec["name"]] += dur
                own[rec["name"]] += dur
                parent = self.records[rec["parent"]]
                own["harness.collect" if parent["parent"] is None
                    else parent["name"]] -= dur
        return {"inclusive": inclusive, "self": own}


#: trace event kind -> per-layer count metric.
EVENT_METRICS = {
    "dispatch": "engine.dispatches",
    "park": "engine.parks",
    "wake": "engine.wakes",
    "stage": "fifo.stage_events",
    "take": "fifo.take_events",
    "grant": "arbiter.grants",
    "xfer": "link.xfer_events",
    "span": "planner.spans",
    "ff": "planner.ff_jumps",
    "abort": "planner.ff_aborts",
    "disarm": "planner.ff_disarms",
    "epoch": "shard.epochs",
}


class EmitCounts:
    """Exact per-kind event counts: a wrapper on ``TraceRecorder.emit``
    (the ring buffer itself overwrites its oldest events)."""

    def __init__(self) -> None:
        self.kinds: Counter = Counter()

    def __enter__(self) -> "EmitCounts":
        self._original = original = TraceRecorder.emit
        kinds = self.kinds

        def emit(recorder, cycle, kind, *rest, **kwargs):
            kinds[kind] += 1
            return original(recorder, cycle, kind, *rest, **kwargs)

        TraceRecorder.emit = emit
        return self

    def __exit__(self, *exc) -> None:
        TraceRecorder.emit = self._original

    def metrics(self) -> dict[str, int]:
        out = {metric: self.kinds[kind]
               for kind, metric in EVENT_METRICS.items()}
        out["trace.events_emitted"] = sum(self.kinds.values())
        return out
