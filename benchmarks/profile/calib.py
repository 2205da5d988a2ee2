"""Frozen host-speed calibration loop.

Host time on a shared box drifts by 10-30 % between back-to-back sets of
runs (CPU frequency, neighbours, cache state), and CPU seconds drift
with wall seconds. Every timed round of the profile benchmark is
therefore divided by an adjacent run of this loop, so ``wall_norm`` /
``cpu_norm`` read "how many calibration loops one round costs".

The loop imitates what the simulator's hot path is made of — generator
resumption, a heap of (cycle, seq, item) tuples, deques, small-int
arithmetic and attribute access — so it speeds up and slows down with
the interpreter the way the simulator does. It imports nothing from
``repro`` and **must never change**: editing it rescales every
normalised number ever recorded (``CALIB_CHECKSUM`` pins the work done).
"""

from __future__ import annotations

import heapq
from collections import deque

#: Iterations of the outer loop; ~0.15 s on the box the baseline was
#: recorded on.
CALIB_ITEMS = 80_000

#: The loop's wall seconds on that box in its usual state: ``setup_s`` is
#: quoted at this host speed (see ``run_profile.setup_summary``).
CALIB_NOMINAL_S = 0.150

#: Value :func:`calibrate` must return (guards against accidental edits).
CALIB_CHECKSUM = 41_432_304


class _Slot:
    __slots__ = ("pushes", "pops", "queue")

    def __init__(self) -> None:
        self.pushes = 0
        self.pops = 0
        self.queue: deque = deque()


def _producer(slot: _Slot, n: int):
    for i in range(n):
        slot.queue.append((i * 7) & 0xFF)
        slot.pushes += 1
        yield i + 3


def calibrate(items: int = CALIB_ITEMS) -> int:
    """Run the fixed loop once; returns its checksum."""
    slots = [_Slot() for _ in range(4)]
    gens = [_producer(slot, items) for slot in slots]
    heap: list = [(0, k, k) for k in range(len(gens))]
    heapq.heapify(heap)
    seq = len(gens)
    total = 0
    while heap:
        cycle, _, k = heapq.heappop(heap)
        try:
            delay = next(gens[k])
        except StopIteration:
            continue
        slot = slots[k]
        if len(slot.queue) > 8:
            while slot.queue:
                total += slot.queue.popleft()
                slot.pops += 1
        seq += 1
        heapq.heappush(heap, (cycle + (delay & 3) + 1, seq, k))
    for slot in slots:
        total += slot.pushes + slot.pops + len(slot.queue)
    return total
