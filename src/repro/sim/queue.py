"""A stable priority queue of scheduled events.

Events firing at the same cycle run in scheduling order (FIFO within a
timestamp).  Stability matters: the EM-X model leans on deterministic
ordering — e.g. the hardware FIFO thread queue and the network's
non-overtaking rule — so ties must never be broken arbitrarily.

Two implementations share one contract:

:class:`EventQueue`
    The production queue: a **two-tier calendar queue**.  A ring of
    near-future cycle buckets (one plain ``list`` per cycle in a sliding
    window starting at the cursor ``base``) absorbs the hot path: a push
    is a single ``list.append`` and a drained cycle a list walk.  Events
    at or beyond ``base + window`` spill to a binary-heap far tier.
    **Far-tier invariant:** every far entry lies at or beyond
    ``base + window``.  Whoever advances the cursor keeps it by first
    moving the far entries that the new window covers into their
    buckets (:meth:`EventQueue._migrate`); when the ring holds no live
    entry, the ring is **re-anchored** instead: the cursor jumps to the
    far head's time and every far entry inside the new window moves
    into its bucket (Brown's calendar queue jumps an empty year to the
    earliest event the same way).  A jump past the window — a long
    local compute burst — therefore costs one heap round trip for the
    events already scheduled beyond it, and later pushes land in the
    ring again.  Because the engine only accepts events at or after
    ``now`` and keeps ``base <= now``, every event of the cycle it
    fires sits in one bucket: the engine never splits a cycle across
    the two tiers, and drains the ring inline (see
    :meth:`repro.sim.engine.Engine.run`).  Only a direct :meth:`push`
    below the cursor reaches the far tier out of order, so the
    standalone :meth:`pop`/:meth:`peek_time` path still compares the
    two heads.

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
Moving far entries into the ring keeps this intact: they move in
heap-pop ``(time, seq)`` order into buckets the cursor has just
vacated (or into an empty ring), entries pushed while their time lay
beyond the window can only be older than the ring entries of the same
cycle, and every later push carries a larger ``seq``.

**Cancellation** is a *tombstone slot*: the handle returned by
:meth:`EventQueue.push` is the (opaque) mutable entry itself, and
cancelling stores ``None`` in its callable slot.  Firing tombstones the
entry the same way, so a cancel that races a same-cycle pop is a strict
no-op.  The queue keeps no live counter: ``len`` and ``bool`` scan both
tiers for untombstoned entries, which is cheap off the hot path and
cannot drift.  Neither moves the cursor.
"""

from __future__ import annotations

import heapq
from itertools import chain
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


def strip_tombstones(bucket: list) -> bool:
    """Drop ``bucket``'s leading tombstones; True if a live entry remains."""
    k = 0
    for entry in bucket:
        if entry[_FN] is not None:
            break
        k += 1
    del bucket[:k]
    return bool(bucket)


class EventQueue:
    """Two-tier calendar queue with stable same-time ordering.

    ``window`` (a power of two) is the width of the near-future bucket
    ring; pushes with ``base <= time < base + window`` go to a bucket,
    the rest to the far heap.  ``base`` is the drain cursor: every event
    before it has already left the near tier, and every far entry at or
    after it lies at or beyond ``base + window``.
    """

    __slots__ = ("_near", "_window", "_mask", "_base", "_far", "_seq")

    def __init__(self, window: int = 8192) -> None:
        if window < 1 or window & (window - 1):
            raise SimulationError(f"bucket window must be a power of two, got {window}")
        self._near: list[list] = [[] for _ in range(window)]
        self._window = window
        self._mask = window - 1
        self._base = 0  # all near-tier events with time < base are gone
        self._far: list[list] = []  # heap of entries, ordered by (time, seq)
        self._seq = 0

    def _entries(self):
        return chain(chain.from_iterable(self._near), self._far)

    def __len__(self) -> int:
        """Live (pushed, not fired, not cancelled) events; scans both tiers."""
        return sum(entry[_FN] is not None for entry in self._entries())

    def __bool__(self) -> bool:
        return any(entry[_FN] is not None for entry in self._entries())

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
        else:
            heapq.heappush(self._far, entry)
        return entry

    def cancel(self, handle: Any) -> None:
        """Cancel a previously pushed event.

        Cancellation tombstones the entry in place: the fired/cancelled
        state lives in one slot, so cancelling an already-fired (or
        already-cancelled, or unknown) handle is a silent no-op even when
        a cancel races a same-cycle pop.  The tombstoned entry is
        physically dropped when the drain cursor reaches it.
        """
        if type(handle) is list and len(handle) == 4 and handle[_FN] is not None:
            handle[_FN] = None
            handle[_ARGS] = ()  # free references early

    # ------------------------------------------------------------------
    # Cursor moves (shared with the engine's inline drain loop)
    # ------------------------------------------------------------------
    def _far_head(self) -> list | None:
        """The earliest live far-tier entry (drops tombstones), or None."""
        far = self._far
        while far and far[0][_FN] is None:
            heapq.heappop(far)
        return far[0] if far else None

    def _migrate(self, end: int) -> None:
        """Move every live far entry before ``end`` into its bucket.

        Called as the cursor advances to ``end - window``, before any
        push at the new cursor, so the far-tier invariant holds again.
        The buckets that receive them belong to cycles the cursor has
        just passed, so they are empty, and heap pops come out in
        ``(time, seq)`` order: each bucket stays in ``seq`` order.
        """
        far, near, mask = self._far, self._near, self._mask
        while far and far[0][_TIME] < end:
            entry = heapq.heappop(far)
            if entry[_FN] is not None:
                near[entry[_TIME] & mask].append(entry)

    def _reanchor(self) -> bool:
        """Jump the (empty) ring to the far head; False if none is live.

        Sets ``base`` to the far head's time and moves every live far
        entry inside the new window into its bucket.
        """
        head = self._far_head()
        if head is None:
            return False
        self._base = head[_TIME]
        self._migrate(head[_TIME] + self._window)
        return True

    # ------------------------------------------------------------------
    # Standalone draining (the engine fires from the ring directly)
    # ------------------------------------------------------------------
    def _near_head(self) -> tuple[int, list] | None:
        """(time, bucket) of the earliest live near event, or ``None``.

        Scans forward from ``base`` without moving it, physically
        dropping tombstoned prefixes so repeated scans shrink.  The
        bucket's first entry is guaranteed live on return.
        """
        near, mask = self._near, self._mask
        for t in range(self._base, self._base + self._window):
            bucket = near[t & mask]
            if bucket and strip_tombstones(bucket):
                return t, bucket
        return None

    def pop(self) -> ScheduledEvent:
        """Remove and return the earliest live event (min ``(time, seq)``)."""
        nb = self._near_head()
        if nb is None and self._reanchor():
            nb = self._near_head()
        fh = self._far_head()
        if nb is None and fh is None:
            raise SimulationError("pop() on an empty event queue")
        if fh is None or (nb is not None and (nb[0], nb[1][0][_SEQ]) < (fh[_TIME], fh[_SEQ])):
            t, bucket = nb
            entry = bucket[0]
            del bucket[0]
            if t != self._base:
                self._base = t  # later same-cycle pushes still land in this bucket
                self._migrate(t + self._window)
        else:
            # Only a push below the cursor can win against the ring.
            entry = heapq.heappop(self._far)
        entry[_FN], fn = None, entry[_FN]  # tombstone: late cancels are no-ops
        return ScheduledEvent(entry[_TIME], entry[_SEQ], fn, entry[_ARGS])

    def peek_time(self) -> int | None:
        """Time of the earliest live event, or ``None`` if empty.

        Does not re-anchor: a peek never moves the cursor.
        """
        nb = self._near_head()
        fh = self._far_head()
        if fh is None:
            return None if nb is None else nb[0]
        if nb is None or fh[_TIME] < nb[0]:
            return fh[_TIME]
        return nb[0]


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
