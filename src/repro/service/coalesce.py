"""The coalescing request queue: single submits -> ``solve_many`` waves.

The engine's amortisation — sharded dispatch, content-addressed caching,
scoreboard routing — only pays when work arrives in batches, but
interactive clients submit one problem at a time.  This queue is the
adapter between the two: concurrent submissions accumulate, and the
dispatcher collects them into **waves** under a two-trigger policy:

* **window** — the first pending submission opens a window of up to
  ``window_s`` seconds; companions arriving inside it ride the same wave
  (bounded added latency, tunable to the deployment's traffic);
* **size** — the moment ``max_wave`` submissions are pending the wave
  dispatches immediately, window notwithstanding (a burst never waits).

The window hold is **adaptive** — the group-commit trade-off between
batching and latency.  :meth:`CoalescingQueue.put` records the gap
between each enqueued submission and the one before it, and a wave holds
the full window only while the median of the last :data:`GAP_HISTORY`
gaps is at most ``window_s`` (or there is no gap yet): then a companion
is expected inside it.  When recent traffic is sparser than that, the
hold is zero and a lone submission dispatches as soon as it is
collected, instead of waiting out a window no companion arrives in.  On
the open-loop 5 req/s ``service-steady`` workload (gaps of 200 ms, the
default 50 ms window) this took the median ``service.queue_wait`` from
51.1 ms to 0.42 ms on a shared 2-core VM.  Each wave's decision is kept
in :attr:`CoalescingQueue.last_held` for the service's metrics and
traces.

Submissions land in **priority lanes** (one FIFO per priority class, see
:data:`~repro.service.admission.DEFAULT_LANE_WEIGHTS`), and a wave drains
the lanes in *weighted round-robin* order: per drain cycle, up to
``weight`` items per lane, highest lane first.  A flood in one lane can
slow the others — every lane still drains — but never starve them: an
interactive submission is always within one cycle of dispatching.  Drain
order is a pure function of lane contents, so wave composition (and with
it the engine's determinism contract) stays reproducible.

Backpressure is explicit: past ``max_depth`` undispatched items,
:meth:`CoalescingQueue.put` raises :class:`QueueFull` (HTTP 429 at the
edge) instead of buffering without bound — the admission policy normally
sheds *before* this point, so the queue's own guard is the backstop.
Closing the queue rejects new work but lets the dispatcher drain every
accepted item — the graceful-shutdown contract: accepted jobs always
finish.

Single-loop discipline: every method is called from the service's event
loop (submissions via the HTTP handlers, collection via the dispatcher
task), so the queue needs no lock — only the ``asyncio.Event`` that wakes
the dispatcher.
"""

from __future__ import annotations

import asyncio
import statistics
from collections import deque
from typing import Any

from repro.exceptions import ReproError
from repro.service.admission import DEFAULT_LANE_WEIGHTS


#: Enqueue gaps the adaptive hold estimates the next gap from (their median).
GAP_HISTORY = 4


class QueueFull(ReproError):
    """Raised by :meth:`CoalescingQueue.put` past ``max_depth`` (HTTP 429)."""


class QueueClosed(ReproError):
    """Raised by :meth:`CoalescingQueue.put` after close (HTTP 503)."""


class CoalescingQueue:
    """Accumulate concurrent submissions; release them in weighted waves."""

    def __init__(
        self,
        window_s: float = 0.05,
        max_wave: int = 64,
        max_depth: int = 1024,
        lane_weights: "dict[str, int] | None" = None,
    ):
        if window_s < 0:
            raise ReproError("window_s must be >= 0")
        if max_wave < 1:
            raise ReproError("max_wave must be >= 1")
        if max_depth < 1:
            raise ReproError("max_depth must be >= 1")
        weights = dict(DEFAULT_LANE_WEIGHTS if lane_weights is None else lane_weights)
        if not weights:
            raise ReproError("lane_weights needs at least one lane")
        for lane, weight in weights.items():
            if isinstance(weight, bool) or not isinstance(weight, int) or weight < 1:
                raise ReproError(f"lane {lane!r} weight must be an integer >= 1")
        self.window_s = window_s
        self.max_wave = max_wave
        self.max_depth = max_depth
        self.lane_weights = weights
        self._lanes: "dict[str, deque[tuple[float, Any]]]" = {
            lane: deque() for lane in weights
        }
        self._default_lane = next(iter(weights))
        self._arrived = asyncio.Event()
        self._closed = False
        self._last_put: "float | None" = None
        self._gaps: "deque[float]" = deque(maxlen=GAP_HISTORY)
        #: Whether the last collected wave held its window for companions.
        self.last_held = False

    @property
    def depth(self) -> int:
        """Undispatched submissions across lanes (the depth gauge feed)."""
        return sum(len(items) for items in self._lanes.values())

    def lane_depths(self) -> "dict[str, int]":
        """Per-lane undispatched counts (metrics / readiness)."""
        return {lane: len(items) for lane, items in self._lanes.items()}

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, item: Any, lane: "str | None" = None) -> None:
        """Enqueue one submission (synchronous: admission is loop-side)."""
        if self._closed:
            raise QueueClosed("service is draining; not accepting new work")
        if self.depth >= self.max_depth:
            raise QueueFull(
                f"queue depth limit reached ({self.max_depth} undispatched requests)"
            )
        target = self._default_lane if lane is None else lane
        if target not in self._lanes:
            raise ReproError(
                f"unknown lane {target!r} (known: {sorted(self._lanes)})"
            )
        now = asyncio.get_running_loop().time()
        if self._last_put is not None:
            self._gaps.append(now - self._last_put)
        self._last_put = now
        self._lanes[target].append((now, item))
        self._arrived.set()

    def close(self) -> None:
        """Reject future submissions; pending items remain collectable."""
        self._closed = True
        self._arrived.set()  # wake a dispatcher blocked on arrival

    def _first_arrival(self) -> "float | None":
        heads = [items[0][0] for items in self._lanes.values() if items]
        return min(heads) if heads else None

    def _hold(self) -> float:
        """The window to hold: all of it unless recent gaps outlast it."""
        if self._gaps and statistics.median(self._gaps) > self.window_s:
            return 0.0
        return self.window_s

    async def collect_wave(self) -> "list[Any]":
        """Block until a wave is due; return its items (``[]`` = shut down).

        The window anchors on the *arrival time of the wave's earliest
        item* (across lanes), not on when the dispatcher got around to
        asking — a slow previous wave must not extend the next wave's
        collection past what the latency budget promised.  It is held
        only while recent enqueue gaps say a companion is likely inside
        it (see the module docstring); :attr:`last_held` records the
        decision.  After
        :meth:`close`, pending items are released immediately (in
        ``max_wave``-sized waves) and the empty list is returned once
        drained, which is the dispatcher's signal to exit.
        """
        loop = asyncio.get_running_loop()
        while not self.depth:
            if self._closed:
                return []
            self._arrived.clear()
            # Re-check before awaiting: a put() between the while-check and
            # clear() would otherwise be slept through.
            if self.depth or self._closed:
                continue
            await self._arrived.wait()

        hold = self._hold()
        self.last_held = hold > 0 and not self._closed
        deadline = self._first_arrival() + hold
        while self.depth < self.max_wave and not self._closed:
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            self._arrived.clear()
            if self.depth >= self.max_wave or self._closed:
                continue
            try:
                await asyncio.wait_for(self._arrived.wait(), timeout=remaining)
            except asyncio.TimeoutError:  # distinct from builtin on 3.10
                break

        return self._drain()

    def _drain(self) -> "list[Any]":
        """Pop up to ``max_wave`` items in weighted round-robin lane order.

        Deterministic in the lane contents: repeat the drain cycle
        (``weight`` slots per lane, declaration order) until the wave is
        full or the queue is empty; an empty lane's slots pass to the
        next lane rather than stalling the cycle.
        """
        wave: "list[Any]" = []
        lanes = list(self._lanes.items())
        while len(wave) < self.max_wave and self.depth:
            for lane, items in lanes:
                take = min(
                    self.lane_weights[lane], self.max_wave - len(wave), len(items)
                )
                for _ in range(take):
                    wave.append(items.popleft()[1])
                if len(wave) >= self.max_wave:
                    break
        return wave
