"""CoalescingQueue unit behaviour: triggers, backpressure, drain protocol.

Every timing-sensitive claim is pinned by the *size* trigger (a wave
dispatches the moment ``max_wave`` items are pending) or by generous
windows, never by racing the scheduler against a short real-time window.
"""

import asyncio

import pytest

from repro.exceptions import ReproError
from repro.service.coalesce import GAP_HISTORY, CoalescingQueue, QueueClosed, QueueFull


def run(coro):
    return asyncio.run(coro)


def test_size_trigger_dispatches_full_wave_immediately():
    async def scenario():
        queue = CoalescingQueue(window_s=30.0, max_wave=4)
        for item in range(4):
            queue.put(item)
        # The window is half a minute; only the size trigger can fire now.
        wave = await asyncio.wait_for(queue.collect_wave(), timeout=5.0)
        return wave

    assert run(scenario()) == [0, 1, 2, 3]


def test_window_trigger_collects_late_companions():
    async def scenario():
        queue = CoalescingQueue(window_s=0.5, max_wave=64)
        collector = asyncio.create_task(queue.collect_wave())
        queue.put("first")
        await asyncio.sleep(0.02)  # well inside the window
        queue.put("second")
        return await asyncio.wait_for(collector, timeout=5.0)

    assert run(scenario()) == ["first", "second"]


def test_zero_window_still_coalesces_already_pending_items():
    async def scenario():
        queue = CoalescingQueue(window_s=0.0, max_wave=64)
        for item in ("a", "b", "c"):
            queue.put(item)
        return await queue.collect_wave()

    assert run(scenario()) == ["a", "b", "c"]


def test_oversized_backlog_splits_into_max_wave_chunks():
    async def scenario():
        queue = CoalescingQueue(window_s=0.0, max_wave=3)
        for item in range(7):
            queue.put(item)
        waves = [await queue.collect_wave() for _ in range(3)]
        return waves

    assert run(scenario()) == [[0, 1, 2], [3, 4, 5], [6]]


def test_backpressure_raises_queue_full():
    async def scenario():
        queue = CoalescingQueue(window_s=1.0, max_wave=64, max_depth=2)
        queue.put(1)
        queue.put(2)
        with pytest.raises(QueueFull):
            queue.put(3)
        assert queue.depth == 2

    run(scenario())


def test_close_rejects_new_work_but_drains_pending():
    async def scenario():
        queue = CoalescingQueue(window_s=30.0, max_wave=64)
        queue.put("accepted")
        queue.close()
        with pytest.raises(QueueClosed):
            queue.put("rejected")
        # Pending items are released without waiting out the window...
        wave = await asyncio.wait_for(queue.collect_wave(), timeout=5.0)
        assert wave == ["accepted"]
        # ...and the empty wave is the dispatcher's exit signal.
        assert await queue.collect_wave() == []

    run(scenario())


def test_close_wakes_a_blocked_collector():
    async def scenario():
        queue = CoalescingQueue(window_s=0.05, max_wave=64)
        collector = asyncio.create_task(queue.collect_wave())
        await asyncio.sleep(0.05)  # collector is parked on arrival
        queue.close()
        return await asyncio.wait_for(collector, timeout=5.0)

    assert run(scenario()) == []


def test_constructor_validation():
    with pytest.raises(ReproError):
        CoalescingQueue(window_s=-0.1)
    with pytest.raises(ReproError):
        CoalescingQueue(max_wave=0)
    with pytest.raises(ReproError):
        CoalescingQueue(max_depth=0)


# -- priority lanes ----------------------------------------------------------


def test_weighted_drain_order_over_mixed_lanes():
    """Per drain cycle: 4 interactive, 2 batch, 1 best_effort (defaults)."""

    async def scenario():
        queue = CoalescingQueue(window_s=0.0, max_wave=7)
        for item in range(6):
            queue.put(f"i{item}", lane="interactive")
        for item in range(4):
            queue.put(f"b{item}", lane="batch")
        for item in range(3):
            queue.put(f"e{item}", lane="best_effort")
        return [await queue.collect_wave() for _ in range(2)]

    first, second = run(scenario())
    assert first == ["i0", "i1", "i2", "i3", "b0", "b1", "e0"]
    # Cycle 2: the 2 remaining interactive, 2 batch, 1 best_effort, then
    # cycle 3 passes empty lanes through and drains the best_effort tail.
    assert second == ["i4", "i5", "b2", "b3", "e1", "e2"]


def test_empty_lane_slots_pass_to_the_next_lane():
    async def scenario():
        queue = CoalescingQueue(window_s=0.0, max_wave=4)
        for item in range(6):
            queue.put(item, lane="best_effort")
        return await queue.collect_wave()

    # No interactive/batch traffic: best_effort still fills the wave
    # (one item per cycle, cycles repeat until the wave is full).
    assert run(scenario()) == [0, 1, 2, 3]


def test_default_lane_preserves_positional_fifo():
    async def scenario():
        queue = CoalescingQueue(window_s=0.0, max_wave=8)
        for item in range(3):
            queue.put(item)  # legacy positional callers -> first lane
        assert queue.lane_depths() == {
            "interactive": 3, "batch": 0, "best_effort": 0,
        }
        return await queue.collect_wave()

    assert run(scenario()) == [0, 1, 2]


def test_unknown_lane_is_an_error_and_enqueues_nothing():
    async def scenario():
        queue = CoalescingQueue(window_s=0.0, max_wave=8)
        with pytest.raises(ReproError):
            queue.put("x", lane="urgent")
        assert queue.depth == 0

    run(scenario())


def test_lane_weight_validation():
    with pytest.raises(ReproError):
        CoalescingQueue(lane_weights={})
    with pytest.raises(ReproError):
        CoalescingQueue(lane_weights={"interactive": 0})
    with pytest.raises(ReproError):
        CoalescingQueue(lane_weights={"interactive": 1.5})


def test_window_anchors_on_earliest_item_across_lanes():
    async def scenario():
        queue = CoalescingQueue(window_s=0.4, max_wave=64)
        queue.put("slow", lane="best_effort")
        await asyncio.sleep(0.05)
        collector = asyncio.create_task(queue.collect_wave())
        await asyncio.sleep(0.02)
        queue.put("late", lane="interactive")
        wave = await asyncio.wait_for(collector, timeout=5.0)
        # Interactive drains first even though best_effort arrived first.
        assert wave == ["late", "slow"]

    run(scenario())


# -- adaptive hold -----------------------------------------------------------
#
# The hold decision is read from ``last_held``, never from wall clock.  The
# window is short and every sleep is at least ten times it, so a gap the
# scenario means as "long" always is.

WINDOW = 0.01
QUIET = 10 * WINDOW


async def _trickle(queue, items):
    """One collected wave per item, with a quiet spell before each arrival."""
    waves, held = [], []
    for item in items:
        await asyncio.sleep(QUIET)
        collector = asyncio.create_task(queue.collect_wave())
        queue.put(item)
        waves.append(await asyncio.wait_for(collector, timeout=5.0))
        held.append(queue.last_held)
    return waves, held


def test_trickle_of_long_gaps_releases_lone_items_without_holding():
    async def scenario():
        queue = CoalescingQueue(window_s=WINDOW, max_wave=64)
        return await _trickle(queue, range(5))

    waves, held = run(scenario())
    assert waves == [[0], [1], [2], [3], [4]]
    # No gap yet: the first wave holds; every later gap outlasts the window.
    assert held == [True, False, False, False, False]


def test_synchronous_burst_after_a_trickle_is_one_wave():
    async def scenario():
        queue = CoalescingQueue(window_s=WINDOW, max_wave=64)
        _, held = await _trickle(queue, range(4))
        assert held[-1] is False
        await asyncio.sleep(QUIET)
        collector = asyncio.create_task(queue.collect_wave())
        for item in range(8):
            queue.put(f"b{item}")
        wave = await asyncio.wait_for(collector, timeout=5.0)
        return wave, queue.last_held

    wave, held = run(scenario())
    assert wave == [f"b{item}" for item in range(8)]
    assert held is True


def test_quiet_spell_after_a_burst_stops_holding_within_the_history():
    async def scenario():
        queue = CoalescingQueue(window_s=WINDOW, max_wave=64)
        for item in range(8):
            queue.put(f"b{item}")
        burst = await queue.collect_wave()
        assert queue.last_held is True
        waves, held = await _trickle(queue, range(GAP_HISTORY))
        return burst, waves, held

    burst, waves, held = run(scenario())
    assert len(burst) == 8
    assert waves == [[item] for item in range(GAP_HISTORY)]
    # Once the long gaps are the median, the hold is skipped and stays so.
    assert held[-1] is False
    assert held == sorted(held, reverse=True)


def test_rejected_puts_leave_the_gap_history_untouched():
    async def scenario():
        queue = CoalescingQueue(window_s=WINDOW, max_wave=64, max_depth=1)
        await _trickle(queue, range(GAP_HISTORY + 1))
        await asyncio.sleep(QUIET)
        queue.put("pending")
        history = (list(queue._gaps), queue._last_put)
        # Back-to-back rejected puts: counted, their ~0 gaps would make
        # the median short enough to hold the window.
        for _ in range(GAP_HISTORY + 1):
            with pytest.raises(QueueFull):
                queue.put("over")
            with pytest.raises(ReproError):
                queue.put("lost", lane="urgent")
        assert (list(queue._gaps), queue._last_put) == history
        wave = await queue.collect_wave()
        assert (wave, queue.last_held) == (["pending"], False)
        queue.close()
        with pytest.raises(QueueClosed):
            queue.put("late")
        assert (list(queue._gaps), queue._last_put) == history

    run(scenario())
