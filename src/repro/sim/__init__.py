"""Discrete-event simulation kernel.

A small, dependency-free event engine: a stable priority queue of
``(time, sequence, callback)`` entries and a run loop.  All of the EM-X
model (network deliveries, processor wake-ups, DMA completions) is
expressed as callbacks scheduled on one :class:`~repro.sim.engine.Engine`.

The production queue is a two-tier calendar queue (see
:mod:`repro.sim.queue`); :class:`ReferenceEventQueue` keeps the original
heapq implementation as a differential-testing oracle and benchmark
reference.

**One reference engine.**  This sequential engine is the only way a
simulation runs.  A second execution path has to earn its code twice:
a measured wall-clock win on the bench host, and metrics identical to
this engine's.  The sharded engine and hybrid fast-forward fidelity
failed that test and were removed.  On sort with P=16, n/P=64, h=2
the sharded engine gave 23,238 cycles and a Fig-6 communication time
of 63.2 µs against the reference's 24,135 cycles and 106.4 µs (41%
low: it simulated a different machine), and hybrid fidelity matched
the metrics but took 1.86 s of wall time against 0.86 s.
"""

from .clock import Clock, cycles_to_seconds, seconds_to_cycles
from .engine import Engine
from .queue import EventQueue, ReferenceEventQueue, ScheduledEvent

__all__ = [
    "Clock",
    "Engine",
    "EventQueue",
    "ReferenceEventQueue",
    "ScheduledEvent",
    "cycles_to_seconds",
    "seconds_to_cycles",
]
