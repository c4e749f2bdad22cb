"""How fast the host is while the workload runs, to rescale host times.

The shared 2-core host this benchmark was defined on changes speed by
±25% over minutes (neighbouring tenants), which no amount of repetition
inside one run averages out.  So while a timed piece of work runs, a
:class:`Sampler` interrupts it every 50 ms of CPU time and times a small
fixed reference workload (:func:`probe`), costing about 10% more host
time.  The pass's time is then reported at reference host speed::

    rescaled = (measured - time spent probing) * REFERENCE_S / mean(probe times)

The probe is a small pure-Python discrete-event loop — a heap of timed
events, generator "threads", objects contending for ports — the same kind
of interpreter work the simulator does, so host slowdowns hit both alike.
Sampling inside the work, rather than between pieces of it, matters: on
that host it cut the run-to-run spread of rescaled times from 0.05-0.15
to 0.03-0.04 (raw times: 0.15-0.30).  The probe never changes with the
program under test: editing it changes every rescaled number and is a
benchmark change of its own.
"""

from __future__ import annotations

import heapq
import signal
import time

__all__ = [
    "REFERENCE_S", "REFERENCE_START_S", "START_CODE", "Sampler", "probe", "rescale",
]

#: Probe time that defines "reference speed": rescaled seconds equal host
#: seconds when the probe takes this long.  About the probe's median on the
#: 2-core host the benchmark was defined on; a fixed constant thereafter.
REFERENCE_S = 0.0025

#: The reference for start-up times, which the probe tracks poorly (start-up
#: moves about a third as much as the probe does with host speed): a fresh
#: interpreter that only imports numpy, timed just before and after each
#: start-up sample.  It shares the interpreter, numpy and the disk with the
#: program's start-up, and none of the program's code.
START_CODE = "import numpy"
#: Reference start-up time: about that interpreter's median on the same host.
REFERENCE_START_S = 0.16

#: Events per probe: about 2.5 ms, 32 per simulated PE.
_EVENTS = 2_048
_PES = 64
_INTERVAL_S = 0.05


class _Port:
    __slots__ = ("free_at", "count")

    def __init__(self) -> None:
        self.free_at = 0
        self.count = 0


def _thread(pe: int, n: int, n_ports: int, log: dict):
    acc = pe
    for _ in range(n):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        yield acc % n_ports, 1 + (acc & 3)
        log[pe] = log.get(pe, 0) + 1


def probe() -> float:
    """Run the reference event loop once; returns its wall seconds."""
    started = time.perf_counter()
    ports = [_Port() for _ in range(_PES)]
    log: dict[int, int] = {}
    threads = [_thread(pe, _EVENTS // _PES, _PES, log) for pe in range(_PES)]
    queue = [(0, pe, pe) for pe in range(_PES)]
    heapq.heapify(queue)
    seq = _PES
    while queue:
        now, _, pe = heapq.heappop(queue)
        try:
            target, cost = next(threads[pe])
        except StopIteration:
            continue
        port = ports[target]
        start = now if now > port.free_at else port.free_at
        port.free_at = start + cost
        port.count += 1
        heapq.heappush(queue, (start + cost, seq, pe))
        seq += 1
    return time.perf_counter() - started


class Sampler:
    """Probe the host every 50 ms of this process's CPU time while entered.

    Uses ``ITIMER_PROF``/``SIGPROF``, so a process that is only waiting
    (the parent of a busy pool) is not sampled and takes no CPU from the
    workers.  Re-enterable; samples and the time spent probing accumulate.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Wall seconds spent inside the probe, to subtract from the work.
        self.cost_s = 0.0

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        # The first run re-warms the caches the interrupted work evicted, so
        # the sample measures the host, not the work's memory footprint.
        probe()
        self.samples.append(probe())
        self.cost_s += time.perf_counter() - started

    def __enter__(self) -> "Sampler":
        self._saved = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, _INTERVAL_S, _INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._saved)
        return False


def rescale(seconds: float, samples: list[float]) -> float:
    """``seconds`` measured while the probe took ``samples``, at reference speed."""
    return seconds * REFERENCE_S * len(samples) / sum(samples)
