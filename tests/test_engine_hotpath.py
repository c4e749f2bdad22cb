"""The calendar-queue hot path: differential, determinism, tombstones.

The inline-drain engine must be observably identical to the reference
heapq engine: same pop order on arbitrary push/cancel workloads, same
simulation results event for event, and the same cancel semantics under
fire/cancel races.  These tests pin all three.
"""

import heapq
import itertools
import pathlib
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.apps.bitonic import run_bitonic
from repro.errors import SimulationError
from repro.machine import machine as machine_mod
from repro.obs import EventBus, RingRecorder, write_perfetto
from repro.sim import engine as engine_mod
from repro.sim.engine import Engine
from repro.sim.queue import EventQueue, ReferenceEventQueue

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


def _noop(*_args):
    pass


# ----------------------------------------------------------------------
# Differential: calendar queue vs reference heapq
# ----------------------------------------------------------------------
@given(st.data())
@settings(max_examples=150, deadline=None)
def test_calendar_matches_reference_on_random_workload(data):
    """Identical pop order on interleaved random push/cancel/pop.

    A deliberately tiny window (16 cycles against times up to 200)
    forces constant far-tier spills and below-base pushes, so the
    two-tier plumbing — not just the happy bucket path — is compared.
    """
    cal = EventQueue(window=16)
    ref = ReferenceEventQueue()
    handles: list[tuple] = []
    for i in range(data.draw(st.integers(10, 120))):
        op = data.draw(st.sampled_from(("push", "push", "push", "cancel", "pop")))
        if op == "push":
            t = data.draw(st.integers(0, 200))
            handles.append((cal.push(t, _noop, i), ref.push(t, _noop, i)))
        elif op == "cancel" and handles:
            ch, rh = handles[data.draw(st.integers(0, len(handles) - 1))]
            cal.cancel(ch)
            ref.cancel(rh)
        elif op == "pop" and ref:
            a, b = cal.pop(), ref.pop()
            assert (a.time, a.seq, a.args) == (b.time, b.seq, b.args)
        assert len(cal) == len(ref)
        assert cal.peek_time() == ref.peek_time()
    while ref:
        a, b = cal.pop(), ref.pop()
        assert (a.time, a.seq, a.args) == (b.time, b.seq, b.args)
    assert not cal


def _on_reference_engine(fn):
    """Run ``fn`` with machines built on the reference heapq engine."""
    orig = machine_mod.Engine
    machine_mod.Engine = lambda max_cycles: Engine(
        max_cycles, queue=ReferenceEventQueue()
    )
    try:
        return fn()
    finally:
        machine_mod.Engine = orig


def test_full_simulation_identical_on_reference_queue():
    """An end-to-end run is bit-identical across the two engines."""
    fast = run_bitonic(n_pes=4, n=64, h=4, seed=0).report
    slow = _on_reference_engine(lambda: run_bitonic(n_pes=4, n=64, h=4, seed=0)).report
    assert fast.runtime_cycles == slow.runtime_cycles
    assert fast.events_fired == slow.events_fired
    assert fast.network.packets == slow.network.packets
    assert fast.network.total_latency == slow.network.total_latency
    assert fast.breakdown == slow.breakdown
    assert [c.total_switches for c in fast.counters] == [
        c.total_switches for c in slow.counters
    ]


def _firing_sequence(queue, starts, script, horizons):
    """Run a self-rescheduling, self-cancelling workload on ``queue``.

    Each event records ``(now, tag)`` and consults its ``script`` entry for
    two follow-up delays and whether to cancel an earlier handle.  The
    run is cut at each horizon in turn (a paused caller), and more
    events are pushed from outside between the pauses.
    """
    eng = Engine(queue=queue)
    fired: list[tuple[int, int]] = []
    handles: list = []
    tags = itertools.count()
    budget = [200]

    def push(delay):
        handles.append(eng.schedule(delay, handler, next(tags)))

    def handler(tag):
        fired.append((eng.now, tag))
        d1, d2, cancel = script[tag % len(script)]
        if budget[0] > 0:
            budget[0] -= 2
            push(d1)
            push(d2)
        if cancel:
            eng.cancel(handles[(tag * 7) % len(handles)])

    for d in starts:
        push(d)
    for until in horizons:
        eng.run(until=eng.now + until)
        push(until % 101)
    eng.run()
    return fired, eng.now, eng.events_fired


@given(
    starts=st.lists(st.integers(0, 100), min_size=1, max_size=6),
    script=st.lists(
        st.tuples(st.integers(0, 100), st.integers(0, 100), st.booleans()),
        min_size=1,
        max_size=30,
    ),
    horizons=st.lists(st.integers(0, 150), max_size=4),
)
@settings(max_examples=150, deadline=None)
# A paused run whose ring is empty and whose far head lies past the
# horizon: the cursor must stay at or before ``now``.
@example(starts=[16], script=[(0, 0, False)], horizons=[0])
def test_engine_batched_drain_matches_reference(starts, script, horizons):
    """The inline-drain engine fires exactly the reference engine's sequence.

    Delays up to 100 against a 16-cycle window make most pushes jump
    past the near ring, so the run drives the engine's own ring scan,
    far-to-ring migration, re-anchoring and pauses — not just
    ``pop``/``peek_time`` as the queue-level differential does.
    """
    fast = _firing_sequence(EventQueue(window=16), starts, script, horizons)
    slow = _firing_sequence(ReferenceEventQueue(), starts, script, horizons)
    assert fast == slow


def test_ring_reanchors_after_a_jump_past_the_window():
    """Once the ring drains, the cursor jumps to the far head, so later
    near-future pushes land in the ring instead of the heap."""
    q = EventQueue(window=16)
    q.push(0, _noop)
    q.push(100, _noop)
    assert [q.pop().time, q.pop().time] == [0, 100]
    q.push(101, _noop)
    q.push(110, _noop)
    assert q._far == []
    assert [q.pop().time, q.pop().time] == [101, 110]


def test_long_burst_run_stays_on_the_batched_path(monkeypatch):
    """Sort opens with a compute burst longer than the window; after it
    the cursor must follow the drain, so almost every push lands in the
    ring.  A drain that leaves the cursor behind sends nearly all of the
    run's ~450k pushes to the far heap."""
    far_pushes = []

    def counting(heap, entry):
        far_pushes.append(entry[0])
        heapq.heappush(heap, entry)

    monkeypatch.setattr(engine_mod, "heapq", SimpleNamespace(heappush=counting))
    report = repro.run("sort", n=4096, n_pes=16, h=1, seed=0)
    assert report.events_fired > 400_000
    assert len(far_pushes) <= 64


def test_raising_handler_resumes_the_rest_of_its_cycle():
    """A handler raising mid-bucket leaves its cycle half fired; the next
    run fires the rest exactly once, in order, and counts each event once."""
    eng = Engine()
    fired = []

    def boom():
        fired.append("boom")
        eng.schedule(0, fired.append, "late")
        raise RuntimeError("boom")

    eng.schedule(3, fired.append, "a")
    gone = eng.schedule(3, fired.append, "cancelled")
    eng.schedule(3, boom)
    eng.schedule(3, fired.append, "b")
    eng.schedule(4, fired.append, "c")
    eng.cancel(gone)
    with pytest.raises(RuntimeError):
        eng.run()
    assert fired == ["a", "boom"]
    assert (eng.now, eng.events_fired, len(eng.queue)) == (3, 2, 3)
    eng.run()
    assert fired == ["a", "boom", "b", "late", "c"]
    assert (eng.now, eng.events_fired, len(eng.queue)) == (4, 5, 0)


def test_len_bool_and_peek_do_not_move_the_cursor():
    """``len``/``bool`` scan the queue and ``peek_time`` only looks: none
    may re-anchor it.  A paused engine relies on ``base <= now``; a
    cursor moved past ``now`` would send later near pushes to the far
    tier below the cursor."""
    q = EventQueue(window=16)
    q.push(0, _noop)
    q.pop()
    q.push(100, _noop)  # far tier; the ring is empty
    assert q._base == 0
    assert q and len(q) == 1
    assert q.peek_time() == 100
    assert q._base == 0


def test_generic_engine_path_still_works():
    eng = Engine(queue=ReferenceEventQueue())
    out = []
    eng.schedule(3, out.append, 1)
    eng.schedule_at(5, out.append, 2)
    eng.run()
    assert out == [1, 2]
    assert eng.now == 5


# ----------------------------------------------------------------------
# Cancel semantics (tombstone slots)
# ----------------------------------------------------------------------
def test_len_never_counts_tombstones():
    q = EventQueue()
    h1 = q.push(1, _noop)
    h2 = q.push(2, _noop)
    assert len(q) == 2
    q.cancel(h1)
    assert len(q) == 1
    q.cancel(h1)  # double cancel: no drift
    assert len(q) == 1
    assert q.pop().time == 2
    assert len(q) == 0
    q.cancel(h2)  # cancel after fire: strict no-op
    assert len(q) == 0 and not q


def test_engine_cancel_after_fire_is_noop():
    eng = Engine()
    fired = []
    handle = eng.schedule(1, fired.append, "x")
    eng.run()
    assert fired == ["x"]
    eng.cancel(handle)
    eng.cancel(handle)
    assert len(eng.queue) == 0
    assert eng.events_fired == 1


def test_same_cycle_cancel_races_the_drain():
    """An event cancelling a later same-cycle event must win the race."""
    eng = Engine()
    fired = []
    h2 = None
    eng.schedule(5, lambda: eng.cancel(h2))
    h2 = eng.schedule(5, fired.append, "second")
    eng.run()
    assert fired == []
    assert eng.events_fired == 1
    assert len(eng.queue) == 0


def test_fast_schedule_keeps_validation():
    eng = Engine()
    seen = []
    eng.schedule_at(2, seen.append, "a")
    eng.run()
    assert seen == ["a"] and eng.now == 2
    with pytest.raises(SimulationError):
        eng.schedule_at(1, _noop)  # in the past
    with pytest.raises(SimulationError):
        eng.schedule(-1, _noop)


# ----------------------------------------------------------------------
# Golden trace: the inline drain may not move a single event
# ----------------------------------------------------------------------
def test_perfetto_golden_byte_identical(tmp_path):
    bus = EventBus()
    rec = RingRecorder(bus)
    run_bitonic(n_pes=2, n=16, h=2, seed=0, obs=bus)
    path = write_perfetto(tmp_path / "out.perfetto.json", rec.events, n_pes=2)
    golden = GOLDEN_DIR / "sort_p2_n16_h2.perfetto.json"
    assert path.read_bytes() == golden.read_bytes()
