"""A stable priority queue of scheduled events.

Events firing at the same cycle run in scheduling order (FIFO within a
timestamp).  Stability matters: the EM-X model leans on deterministic
ordering — e.g. the hardware FIFO thread queue and the network's
non-overtaking rule — so ties must never be broken arbitrarily.

Two implementations share one contract:

:class:`EventQueue`
    The production queue: a **two-tier calendar queue**.  A ring of
    near-future cycle buckets (one plain ``list`` per cycle in a sliding
    window) absorbs the hot path: a push is a single ``list.append`` and
    a pop an index bump.  Events outside the window (or scheduled behind
    the drain cursor by a paused caller) spill to a binary-heap far tier
    that the pop path consults by ``(time, seq)``.  When the ring holds
    no live entry and the far tier does, the ring is **re-anchored**:
    the cursor jumps to the far head's time and every far entry inside
    the new window moves into its bucket (Brown's calendar queue jumps
    an empty year to the earliest event the same way).  A jump past the
    window — a long local compute burst — therefore costs one heap
    round trip for the events already scheduled beyond it, and later
    pushes land in the ring again.  On the paper-shape sweeps only such
    burst-end sends reach the far tier, and no cycle takes the
    engine's generic pop path.

:class:`ReferenceEventQueue`
    The original heapq implementation, kept as the obviously-correct
    oracle: property tests assert both queues produce identical pop
    order on random push/cancel workloads, and the engine benchmark
    measures the calendar queue's speedup against it on real workloads.

**Determinism argument.**  Entries carry a globally monotonic ``seq``
assigned at push.  Within a near bucket, entries are appended in push
order, so same-cycle events drain in ``seq`` order; the far heap orders
by ``(time, seq)``; and when both tiers hold events, the pop path picks
the smaller ``(time, seq)`` pair.  Every pop therefore returns the
globally minimal live ``(time, seq)`` — exactly the order the reference
heapq produces — independent of bucket-window size or spill pattern.
Re-anchoring keeps this intact: it only runs on an empty ring, moves
entries in heap-pop ``(time, seq)`` order (so each bucket stays in
``seq`` order), and every later push carries a larger ``seq``.

**Cancellation** is a *tombstone slot*: the handle returned by
:meth:`EventQueue.push` is the (opaque) mutable entry itself, and
cancelling stores ``None`` in its callable slot.  Firing tombstones the
entry the same way, so a cancel that races a same-cycle pop is a strict
no-op and ``len(queue)`` — a simple live counter — can never drift.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, NamedTuple

from ..errors import SimulationError

__all__ = ["ScheduledEvent", "EventQueue", "ReferenceEventQueue"]

# Entry layout (mutable list so the fn slot can be tombstoned in place):
_TIME, _SEQ, _FN, _ARGS = 0, 1, 2, 3


class ScheduledEvent(NamedTuple):
    """One popped event: fire ``fn(*args)`` at cycle ``time``.

    ``seq`` is a monotonically increasing tie-breaker assigned by the
    queue; callers never set it.
    """

    time: int
    seq: int
    fn: Callable[..., None]
    args: tuple[Any, ...]


class EventQueue:
    """Two-tier calendar queue with stable same-time ordering.

    ``window`` (a power of two) is the width of the near-future bucket
    ring; pushes with ``base <= time < base + window`` go to a bucket,
    the rest to the far heap.  ``base`` is the drain cursor: every event
    before it has already left the near tier.
    """

    __slots__ = ("_near", "_window", "_mask", "_base", "_far", "_seq", "_live", "_near_n")

    def __init__(self, window: int = 8192) -> None:
        if window < 1 or window & (window - 1):
            raise SimulationError(f"bucket window must be a power of two, got {window}")
        self._near: list[list] = [[] for _ in range(window)]
        self._window = window
        self._mask = window - 1
        self._base = 0  # all near-tier events with time < base are gone
        self._far: list[list] = []  # heap of entries, ordered by (time, seq)
        self._seq = 0
        self._live = 0  # live (pushed, not fired, not cancelled) events
        self._near_n = 0  # physical entries in the ring, tombstones included

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(self, time: int, fn: Callable[..., None], *args: Any) -> Any:
        """Schedule ``fn(*args)`` at ``time``; returns an opaque handle.

        The handle is only meaningful to :meth:`cancel`.
        """
        if time < 0:
            raise SimulationError(f"cannot schedule event at negative time {time}")
        entry = [time, self._seq, fn, args]
        self._seq += 1
        if 0 <= time - self._base < self._window:
            self._near[time & self._mask].append(entry)
            self._near_n += 1
        else:
            heapq.heappush(self._far, entry)
        self._live += 1
        return entry

    def cancel(self, handle: Any) -> None:
        """Cancel a previously pushed event.

        Cancellation tombstones the entry in place: the fired/cancelled
        state lives in one slot, so cancelling an already-fired (or
        already-cancelled, or unknown) handle is a silent no-op and the
        live count cannot drift even when a cancel races a same-cycle
        pop.  The tombstoned entry is physically dropped when the drain
        cursor reaches it.
        """
        if type(handle) is list and len(handle) == 4 and handle[_FN] is not None:
            handle[_FN] = None
            handle[_ARGS] = ()  # free references early
            self._live -= 1

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def _far_head(self) -> list | None:
        """The earliest live far-tier entry (drops tombstones), or None."""
        far = self._far
        while far and far[0][_FN] is None:
            heapq.heappop(far)
        return far[0] if far else None

    def _near_head(self) -> tuple[int, list] | None:
        """(time, bucket) of the earliest live near event, or ``None``.

        Scans forward from ``base`` without moving it, physically
        dropping tombstoned prefixes so repeated scans shrink.  The
        bucket's first entry is guaranteed live on return.  An empty
        ring is first re-anchored on the far head (see
        :meth:`_reanchor`), so ``None`` means the whole queue is empty.
        """
        while self._near_n or self._reanchor():
            near, mask = self._near, self._mask
            for t in range(self._base, self._base + self._window):
                bucket = near[t & mask]
                if not bucket:
                    continue
                while bucket and bucket[0][_FN] is None:
                    del bucket[0]
                    self._near_n -= 1
                if bucket:
                    return t, bucket
                if self._near_n == 0:
                    break  # only tombstones were left: re-anchor
        return None

    def _reanchor(self) -> bool:
        """Jump the (empty) ring to the far head; False if none is live.

        Sets ``base`` to the far head's time and moves every live far
        entry inside the new window into its bucket.  Heap pops come
        out in ``(time, seq)`` order and the ring is empty, so each
        bucket is left in ``seq`` order, and every later push carries a
        larger ``seq`` — the ring invariant holds.
        """
        head = self._far_head()
        if head is None:
            return False
        far, near, mask = self._far, self._near, self._mask
        base = self._base = head[_TIME]
        end = base + self._window
        moved = 0
        while far and far[0][_TIME] < end:
            entry = heapq.heappop(far)
            if entry[_FN] is not None:
                near[entry[_TIME] & mask].append(entry)
                moved += 1
        self._near_n = moved
        return True

    def pop(self) -> ScheduledEvent:
        """Remove and return the earliest live event (min ``(time, seq)``)."""
        nb = self._near_head()
        if nb is None:
            raise SimulationError("pop() on an empty event queue")
        fh = self._far_head()
        if fh is None or (nb[0], nb[1][0][_SEQ]) < (fh[_TIME], fh[_SEQ]):
            t, bucket = nb
            entry = bucket[0]
            del bucket[0]
            self._near_n -= 1
            self._base = t  # later same-cycle pushes still land in this bucket
        else:
            entry = heapq.heappop(self._far)
        entry[_FN], fn = None, entry[_FN]  # tombstone: late cancels are no-ops
        self._live -= 1
        return ScheduledEvent(entry[_TIME], entry[_SEQ], fn, entry[_ARGS])

    def peek_time(self) -> int | None:
        """Time of the earliest live event, or ``None`` if empty."""
        nb = self._near_head()
        if nb is None:
            return None
        fh = self._far_head()
        if fh is not None and fh[_TIME] < nb[0]:
            return fh[_TIME]
        return nb[0]

    # ------------------------------------------------------------------
    # Batch interface (the engine's hot path; see Engine.run)
    # ------------------------------------------------------------------
    def next_cycle(self) -> tuple[int, list | None] | None:
        """Earliest live cycle and its near bucket, for batch draining.

        Returns ``(time, bucket)`` where *bucket* is the near-ring list
        for ``time`` — or ``None`` when the far tier holds a live event
        at or before ``time``, in which case the cycle's events must be
        interleaved by ``seq`` with single :meth:`pop` calls (see
        :meth:`far_intrudes` for the standalone predicate).
        """
        nb = self._near_head()
        if nb is None:
            return None
        fh = self._far_head()
        if fh is None:
            return nb
        t = nb[0]
        if fh[_TIME] <= t:
            # The cycle lives (at least partly) in the far tier; the
            # caller must take the pop path.
            return min(fh[_TIME], t), None
        return nb

    def far_intrudes(self, time: int) -> bool:
        """True if the far tier holds a live event at or before ``time``."""
        fh = self._far_head()
        return fh is not None and fh[_TIME] <= time

    def finish_cycle(self, time: int, fired: int, consumed: int) -> None:
        """Account a fully drained near bucket and advance the cursor."""
        self._near_n -= consumed
        self._live -= fired
        self._base = time + 1


class ReferenceEventQueue:
    """The original binary-heap queue: the correctness oracle.

    Same contract as :class:`EventQueue` (opaque cancel handles, lazily
    dropped cancellations, live-only ``len``), implemented with one
    ``heapq`` plus pending/cancelled sets.  Kept for differential tests
    and as the benchmark's fixed reference point.
    """

    __slots__ = ("_heap", "_seq", "_pending", "_cancelled")

    def __init__(self) -> None:
        self._heap: list[ScheduledEvent] = []
        self._seq = 0
        self._pending: set[int] = set()
        self._cancelled: set[int] = set()

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)

    def push(self, time: int, fn: Callable[..., None], *args: Any) -> Any:
        """Schedule ``fn(*args)`` at ``time``; returns an opaque handle."""
        if time < 0:
            raise SimulationError(f"cannot schedule event at negative time {time}")
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, ScheduledEvent(time, seq, fn, args))
        self._pending.add(seq)
        return seq

    def cancel(self, handle: Any) -> None:
        """Cancel a pushed event; unknown/fired handles are no-ops."""
        if handle in self._pending:
            self._pending.discard(handle)
            self._cancelled.add(handle)

    def pop(self) -> ScheduledEvent:
        """Remove and return the earliest live event."""
        while self._heap:
            ev = heapq.heappop(self._heap)
            if ev.seq in self._cancelled:
                self._cancelled.discard(ev.seq)
                continue
            self._pending.discard(ev.seq)
            return ev
        raise SimulationError("pop() on an empty event queue")

    def peek_time(self) -> int | None:
        """Time of the earliest live event, or ``None`` if empty."""
        while self._heap:
            ev = self._heap[0]
            if ev.seq in self._cancelled:
                heapq.heappop(self._heap)
                self._cancelled.discard(ev.seq)
                continue
            return ev.time
        return None
