"""Traced-run instrumentation: spans at layer boundaries and per-layer self time.

Everything here is installed from the benchmark's side, by wrapping the
public calls into each layer; the simulator itself carries no tracing
code.  Two instruments:

* **Spans** (:class:`Tracer`) — wall-clock intervals around the calls that
  cross a layer boundary (``EMX.__init__``, ``EMX.run``,
  ``runner.run_specs``, ``ResultCache.get`` ...), with their parent span.
  Spans are kept in memory; pool workers ship theirs back on the record
  they return.
* **Self time by layer** (:func:`layer_self_times`) — a deterministic
  ``cProfile`` of the traced region, folded onto the ``repro`` package
  that owns each function.  Code outside ``repro`` (builtins, the standard
  library, numpy) is charged to the ``repro`` function that called it,
  following the call graph; what no ``repro`` frame called is ``other``.
  The per-layer times therefore sum to the profiled wall time.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import os
import pstats
import time
from collections import defaultdict
from dataclasses import dataclass

__all__ = [
    "LAYERS",
    "Span",
    "Tracer",
    "active",
    "activate",
    "boundary_patches",
    "layer_of",
    "layer_self_times",
    "patched",
    "spanned",
]

#: The layers self time is reported for: the ``src/repro`` packages, the
#: processor package split by unit.  Time in a ``repro`` module outside
#: these lands in ``misc``; time no ``repro`` code called lands in ``other``.
LAYERS = (
    "sim", "network", "processor.exu", "processor.ibu", "processor.obu",
    "processor.emcy", "core", "memory", "packet", "apps", "emc", "compile",
    "machine", "metrics", "obs", "runner", "experiments", "misc", "wait", "other",
)

#: Builtins that block the calling thread (locks, polling, sleeping,
#: reaping).  Their time is ``wait``, whichever layer called them: it is
#: time the process spent waiting for work elsewhere, such as the runner
#: waiting for pool workers, not work of the calling layer.
_BLOCKING = ("acquire' of '_thread.", "'poll' of 'select.", "select.select",
             "time.sleep", "posix.waitpid")
#: Pseudo-filename of the guest code the EM-C codegen tier generates; that
#: code is the compile layer's output and is charged to it.
_GENERATED = "<emc-codegen:"


@dataclass(frozen=True)
class Span:
    """One traced call: ``name`` from ``start`` to ``end`` (perf_counter s)."""

    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same tracer, or -1

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            s = self.spans[index]
            self.spans[index] = Span(s.name, s.start, time.perf_counter(), s.parent)

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """``{name: (count, total_s, self_s)}``; self excludes child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.seconds
        out: dict[str, list] = {}
        for i, s in enumerate(self.spans):
            row = out.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.seconds
            row[2] += s.seconds - child[i]
        return {name: tuple(row) for name, row in out.items()}

    def extend(self, spans: list[Span]) -> None:
        """Adopt spans recorded by another process (parents re-based)."""
        base = len(self.spans)
        self.spans.extend(
            Span(s.name, s.start, s.end, s.parent + base if s.parent >= 0 else -1)
            for s in spans
        )


_active: Tracer | None = None


def active() -> Tracer | None:
    """The tracer spans are recorded into, or ``None`` when tracing is off."""
    return _active


@contextlib.contextmanager
def activate(tracer: Tracer | None):
    global _active
    saved, _active = _active, tracer
    try:
        yield tracer
    finally:
        _active = saved


def spanned(name: str, fn):
    """``fn`` wrapped so each call is a span of the active tracer."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _active
        if tracer is None:
            return fn(*args, **kwargs)
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def patched(*targets):
    """Temporarily replace attributes: each target is ``(owner, attr, new)``."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, new in targets:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def _spanned_csv_module():
    """A stand-in for the ``csv`` module whose writers span each write."""

    class _Writer:
        def __init__(self, fh, *args, **kwargs):
            self._inner = csv.writer(fh, *args, **kwargs)
            self.writerow = spanned("csv.write", self._inner.writerow)
            self.writerows = spanned("csv.write", self._inner.writerows)

    class _Module:
        writer = _Writer

    return _Module


def boundary_patches():
    """The ``(owner, attr, wrapper)`` triples that put spans on layer calls.

    ``repro.run``, ``export_all`` and ``report_to_dict`` are called by the
    benchmark itself, which spans them at the call site, as it does
    ``execute_job`` inside pool workers; everything below is reached from
    inside ``repro`` and is wrapped where its callers look it up.
    """
    from repro.experiments import export
    from repro.machine import machine
    from repro.runner import cache, sweep

    return [
        (machine.EMX, "__init__", spanned("EMX.__init__", machine.EMX.__init__)),
        (machine.EMX, "run", spanned("EMX.run", machine.EMX.run)),
        (sweep, "run_specs", spanned("runner.run_specs", sweep.run_specs)),
        (sweep, "run_jobs", spanned("runner.pool.run_jobs", sweep.run_jobs)),
        (cache.ResultCache, "get", spanned("ResultCache.get", cache.ResultCache.get)),
        (cache.ResultCache, "put", spanned("ResultCache.put", cache.ResultCache.put)),
        (export, "csv", _spanned_csv_module()),
    ]


# ----------------------------------------------------------------------
# Self time by layer
# ----------------------------------------------------------------------
def layer_of(filename: str, name: str, src_root: str) -> str | None:
    """The layer owning code in ``filename``; ``None`` outside ``repro``."""
    if filename == "~" and any(b in name for b in _BLOCKING):
        return "wait"
    if filename.startswith(_GENERATED):
        return "compile"
    if not filename.startswith(src_root):
        return None
    rel = filename[len(src_root):].lstrip(os.sep).split(os.sep)
    if len(rel) < 2 or rel[0] != "repro":
        return None
    package = rel[1]
    if package == "processor" and len(rel) > 2:
        unit = "processor." + rel[2].removesuffix(".py")
        return unit if unit in LAYERS else "misc"
    return package if package in LAYERS else "misc"


def layer_self_times(stats: pstats.Stats, src_root: str) -> dict[str, float]:
    """Fold a profile's self times onto :data:`LAYERS`.

    A function inside ``repro`` keeps its own self time.  A function
    outside it hands its self time to its callers, in proportion to the
    cumulative time each caller spent in it, until a ``repro`` caller is
    reached; self time with no ``repro`` caller (the benchmark's own code
    in the profiled region) is ``other``.  Blocking builtins are ``wait``.
    """
    table = stats.stats  # {func: (cc, nc, tt, ct, callers)}
    owner = {func: layer_of(func[0], func[2], src_root) for func in table}
    shares: dict[tuple, dict[str, float]] = {}

    def share_of(func, visiting: set) -> dict[str, float]:
        if func in shares:
            return shares[func]
        callers = {c: v for c, v in table[func][4].items() if c != func and c in table}
        if not callers or func in visiting:
            return {"other": 1.0}
        visiting.add(func)
        weights = {c: v[3] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: float(v[1]) for c, v in callers.items()}
            total = sum(weights.values()) or 1.0
        out: dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            frac = weight / total
            layer = owner[caller]
            if layer is not None:
                out[layer] += frac
            else:
                for sub, sub_frac in share_of(caller, visiting).items():
                    out[sub] += frac * sub_frac
        visiting.discard(func)
        shares[func] = dict(out)
        return shares[func]

    totals = {layer: 0.0 for layer in LAYERS}
    for func, (_, _, tt, _, _) in table.items():
        layer = owner[func]
        if layer is not None:
            totals[layer] += tt
        else:
            for sub, frac in share_of(func, set()).items():
                totals[sub] += tt * frac
    return totals
