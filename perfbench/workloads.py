"""The benchmark's workloads: one timed pass each, with its outputs.

A pass runs the workload once and returns a :class:`Pass`: the host time
it took, the host-speed samples taken meanwhile, one output digest per
operation, the operations that failed, and the exact counts the layers
report.  Checking the outputs happens in :mod:`checks`.

Operations are what ``fail_frac`` counts: one simulation job, one cache
read, or one CSV file.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import os
import pathlib
import pstats
import resource
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import hostprobe
import tracing

__all__ = ["COUNT_KEYS", "Export", "InProcess", "Pass", "WORKLOADS", "digest", "report_counts"]

COUNT_KEYS = (
    "sim.events",
    "network.packets",
    "network.hops",
    "network.latency_cyc",
    "processor.reads_serviced",
    "processor.switches.remote_read",
    "processor.switches.iter_sync",
    "processor.switches.thread_sync",
    "core.threads_started",
    "core.sync_stall_cycles",
    "compile.codegen_threads",
    "compile.bailouts",
    "runner.jobs_executed",
    "runner.disk_hits",
    "runner.memo_hits",
    "pe_cycles",
)


@dataclass
class Pass:
    """One run of a workload."""

    #: Host wall seconds of the timed work, as measured.
    wall_s: float = 0.0
    #: Host CPU seconds of this process and its reaped children, as measured.
    cpu_s: float = 0.0
    #: Operation id -> output digest.
    outputs: dict[str, str] = field(default_factory=dict)
    #: Operation id -> why it failed (raised, or failed a pass-level check).
    errors: dict[str, str] = field(default_factory=dict)
    #: Exact counts (``COUNT_KEYS``), summed over the pass's simulations.
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNT_KEYS, 0))
    #: Pool workers the timed work ran on (1 = this process only).
    workers: int = 1
    #: Untraced passes: host-speed probe samples taken during the work, and
    #: the seconds spent probing in this process and in the pool workers.
    samples: list[float] = field(default_factory=list)
    probe_s: float = 0.0
    worker_probe_s: float = 0.0
    #: Traced passes: spans, self seconds by layer, profiled seconds.
    tracer: tracing.Tracer | None = None
    layer_s: dict[str, float] | None = None
    profiled_s: float = 0.0
    #: Seconds of the warm (cache-served) export phase; 0 elsewhere.
    warm_wall_s: float = 0.0

    @property
    def work_s(self) -> float:
        """Host wall seconds of the work itself, the time spent probing out."""
        return self.wall_s - self.probe_s - self.worker_probe_s / self.workers

    @property
    def work_cpu_s(self) -> float:
        """Host CPU seconds of the work itself, the time spent probing out."""
        return self.cpu_s - self.probe_s - self.worker_probe_s

    def rescaled(self) -> tuple[float, float]:
        """(wall, cpu) seconds of the work at reference host speed (see
        :mod:`hostprobe`)."""
        samples = self.samples or [hostprobe.probe()]  # work too short to sample
        return (hostprobe.rescale(self.work_s, samples),
                hostprobe.rescale(self.work_cpu_s, samples))


def digest(payload) -> str:
    """Short content digest of a JSON-safe value or of raw bytes."""
    if not isinstance(payload, bytes):
        payload = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def report_counts(report) -> dict[str, int]:
    """The exact per-layer counts one :class:`MachineReport` carries."""
    from repro.metrics.counters import SwitchKind

    pes = report.counters
    cohort = report.cohort or {}
    counts = {
        "sim.events": report.events_fired,
        "network.packets": report.network.packets,
        "network.hops": report.network.total_hops,
        "network.latency_cyc": report.network.total_latency,
        "processor.reads_serviced": sum(c.reads_serviced for c in pes),
        "core.threads_started": sum(c.threads_started for c in pes),
        "core.sync_stall_cycles": sum(c.sync_stall_cycles for c in pes),
        "compile.codegen_threads": cohort.get("emc_codegen_threads", 0),
        "compile.bailouts": cohort.get("bailouts", 0),
        "pe_cycles": report.runtime_cycles * report.config.n_pes,
    }
    for kind in (SwitchKind.REMOTE_READ, SwitchKind.ITER_SYNC, SwitchKind.THREAD_SYNC):
        counts[f"processor.switches.{kind.value}"] = sum(c.switches[kind] for c in pes)
    return counts


def _add_counts(into: dict[str, int], more: dict[str, int]) -> None:
    for key, value in more.items():
        into[key] += value


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class _Timed:
    """Time one piece of a pass's work into it.

    Untraced, the host is sampled meanwhile; traced, the piece is profiled
    and its self time folded onto the layers.  Folding the profile happens
    after the timed interval.
    """

    def __init__(self, pass_: Pass, src_root: str):
        self.pass_, self.src_root = pass_, src_root
        self.elapsed = 0.0

    def __enter__(self):
        p = self.pass_
        if p.tracer is None:
            self.sampler = hostprobe.Sampler().__enter__()
        else:
            if p.layer_s is None:
                p.layer_s = dict.fromkeys(tracing.LAYERS, 0.0)
            self.profile = cProfile.Profile()
            self.profile.enable()
        self.wall0, self.cpu0 = time.perf_counter(), _cpu_seconds()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.wall0
        cpu = _cpu_seconds() - self.cpu0
        p = self.pass_
        if p.tracer is None:
            self.sampler.__exit__(*exc)
            p.samples += self.sampler.samples
            p.probe_s += self.sampler.cost_s
        else:
            self.profile.disable()
            p.profiled_s += self.elapsed
            layers = tracing.layer_self_times(pstats.Stats(self.profile), self.src_root)
            for layer, seconds in layers.items():
                p.layer_s[layer] += seconds
        p.wall_s += self.elapsed
        p.cpu_s += cpu
        return False


def _span(pass_: Pass, name: str):
    return pass_.tracer.span(name) if pass_.tracer is not None else nullcontext()


# ----------------------------------------------------------------------
# In-process workloads: repro.run over a thread sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InProcess:
    """A thread sweep of one app, run through ``repro.run`` in this process."""

    app: str
    n_pes: int
    npp: int
    threads: tuple[int, ...]
    compiled: bool = False

    def run_pass(self, seed: int, *, traced: bool, src_root: str) -> Pass:
        import repro
        from repro.metrics.serialize import report_to_dict

        plan = repro.ExecutionPlan(compiled=True) if self.compiled else None
        result = Pass(tracer=tracing.Tracer() if traced else None)
        patches = tracing.boundary_patches() if traced else []
        with tracing.patched(*patches), tracing.activate(result.tracer):
            for h in self.threads:
                op = f"job:{self.app}/P{self.n_pes}/n{self.npp}/h{h}"
                try:
                    with _Timed(result, src_root), _span(result, "repro.run"):
                        report = repro.run(
                            self.app, n=self.n_pes * self.npp, n_pes=self.n_pes,
                            h=h, seed=seed, plan=plan,
                        )
                except Exception as exc:  # an operation failed: count it, go on
                    result.errors[op] = f"{type(exc).__name__}: {exc}"
                    continue
                with _span(result, "report_to_dict"):
                    result.outputs[op] = digest(report_to_dict(report))
                _add_counts(result.counts, report_counts(report))
        return result


# ----------------------------------------------------------------------
# export-tiny: export_all through the runner, cold then warm
# ----------------------------------------------------------------------
def _job_label(spec) -> str:
    return f"{spec.app}/P{spec.n_pes}/n{spec.npp}/h{spec.h}"


def _with_seed(expand, seed: int):
    """``expand`` with every produced JobSpec carrying ``seed``."""

    def expand_seeded(*args, **kwargs):
        return [replace(spec, seed=seed) for spec in expand(*args, **kwargs)]

    return expand_seeded


def _digesting(run_record_from_report):
    """Wrap the worker's record packing to attach the report's digest.

    The wrapped function runs in the pool worker, where the
    :class:`MachineReport` still exists; the digest and counts ride back
    to the parent on the pickled record, as ``execute_job`` already does
    for its ``_exec`` cost side channel.  A record read back from the disk
    cache has no such attribute — which is how a re-execution is told
    apart from a cache read.
    """
    from repro.metrics.serialize import report_to_dict

    def wrapper(app, n_pes, npp, h, report, verified):
        record = run_record_from_report(app, n_pes, npp, h, report, verified)
        tracer = tracing.active()
        with tracer.span("report_to_dict") if tracer is not None else nullcontext():
            report_digest = digest(report_to_dict(report))
        object.__setattr__(
            record, "_perfbench", {"report": report_digest, "counts": report_counts(report)}
        )
        return record

    return wrapper


def _instrumented_jobs(execute_job, src_root: str, parent_pid: int, traced: bool):
    """Wrap ``execute_job`` so a pool worker samples the host during each
    job or, traced, spans and profiles it.  What the worker measured rides
    back on the record it returns."""
    in_parent = tracing.spanned("runner.worker.execute_job", execute_job)

    def wrapper(spec, **kwargs):
        if os.getpid() == parent_pid:  # serial path: the parent measures already
            return in_parent(spec, **kwargs)
        sys.setprofile(None)  # drop a profiler hook inherited across fork
        sub = Pass(tracer=tracing.Tracer() if traced else None)
        with tracing.activate(sub.tracer), _Timed(sub, src_root), \
                _span(sub, "runner.worker.execute_job"):
            record = execute_job(spec, **kwargs)
        if traced:
            record._perfbench["trace"] = {
                "spans": [(s.name, s.start, s.end, s.parent) for s in sub.tracer.spans],
                "layer_s": sub.layer_s,
                "profiled_s": sub.profiled_s,
            }
        else:
            record._perfbench["samples"] = (sub.samples, sub.probe_s)
        return record

    return wrapper


#: Pool workers of the export workload: the host's core count.
EXPORT_JOBS = 2


@dataclass(frozen=True)
class Export:
    """``export_all`` at ``REPRO_SCALE=tiny`` on ``EXPORT_JOBS`` pool
    workers: a cold pass into a fresh private cache, then a warm pass
    served entirely from that cache."""

    figures: tuple[str, ...] = ("fig6", "fig7", "fig8", "fig9")

    def specs(self, seed: int):
        """The distinct jobs the export runs (``REPRO_SCALE`` must be set)."""
        from repro.experiments.common import THREAD_SWEEP, default_scale
        from repro.runner.jobs import expand_figures

        return [
            replace(s, seed=seed)
            for s in expand_figures(default_scale(), THREAD_SWEEP, self.figures)
        ]

    def run_pass(self, seed: int, *, traced: bool, src_root: str, workdir: str) -> Pass:
        """One cold + warm export in a fresh private cache under ``workdir``."""
        from repro.experiments.export import export_all
        from repro.runner import sweep, worker
        from repro.runner import jobs as jobs_mod

        result = Pass(tracer=tracing.Tracer() if traced else None, workers=EXPORT_JOBS)
        private = tempfile.mkdtemp(prefix="export-", dir=workdir)
        cache_dir = os.path.join(private, "cache")
        patches = [
            (sweep, "expand_sweep", _with_seed(jobs_mod.expand_sweep, seed)),
            (sweep, "expand_figures", _with_seed(jobs_mod.expand_figures, seed)),
            (worker, "run_record_from_report", _digesting(worker.run_record_from_report)),
            (worker, "execute_job",
             _instrumented_jobs(worker.execute_job, src_root, os.getpid(), traced)),
        ]
        if traced:
            patches += tracing.boundary_patches()
        env_saved = {k: os.environ.get(k) for k in ("REPRO_CACHE_DIR", "REPRO_SCALE")}
        os.environ.update(REPRO_CACHE_DIR=cache_dir, REPRO_SCALE="tiny")
        try:
            specs = self.specs(seed)
            with sweep.using(jobs=EXPORT_JOBS, cache_dir=cache_dir, use_cache=True), \
                    tracing.patched(*patches), tracing.activate(result.tracer):
                for phase in ("cold", "warm"):
                    sweep.clear_memo()
                    sweep.reset_stats()
                    paths = []
                    timed = _Timed(result, src_root)
                    try:
                        with timed, _span(result, "export_all"):
                            paths = export_all(pathlib.Path(private, phase), figures=self.figures)
                    except Exception as exc:  # the whole phase failed
                        result.errors[f"export:{phase}"] = f"{type(exc).__name__}: {exc}"
                    if phase == "warm":
                        result.warm_wall_s = timed.elapsed
                    stats = sweep.stats()
                    with tracing.activate(None):
                        self._collect(result, phase, specs, stats, paths)
        finally:
            sweep.clear_memo()
            sweep.reset_stats()
            for key, value in env_saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
            shutil.rmtree(private, ignore_errors=True)
        return result

    def _collect(self, result: Pass, phase: str, specs, stats, paths) -> None:
        """Record one phase's outputs and check its cache hygiene.

        The cold pass must execute every job; the warm pass must read every
        job back from disk and execute none.  A job the warm pass ran again
        is a failed cache read, not a slowdown.
        """
        from repro.metrics.serialize import run_record_to_dict
        from repro.runner import sweep

        result.counts["runner.jobs_executed"] += stats.executed
        result.counts["runner.disk_hits"] += stats.disk_hits
        result.counts["runner.memo_hits"] += stats.memo_hits
        want = (len(specs), 0) if phase == "cold" else (0, len(specs))
        if (stats.executed, stats.disk_hits) != want:
            result.errors[f"{phase}:stats"] = (
                f"{phase} pass: {stats.describe()}; expected {want[0]} executed, "
                f"{want[1]} disk hits"
            )
        records = sweep.run_specs(specs) if f"export:{phase}" not in result.errors else {}
        for spec in specs:
            label = _job_label(spec)
            op = f"job:{label}" if phase == "cold" else f"read:{label}"
            record = records.get(spec)
            if record is None:
                result.errors[op] = "no record"
                continue
            extra = getattr(record, "_perfbench", None)
            record_digest = digest(run_record_to_dict(record))
            if phase == "cold":
                if extra is None:
                    result.errors[op] = "not executed in the cold pass"
                    continue
                result.outputs[op] = f"{extra['report']}-{record_digest}"
                _add_counts(result.counts, extra["counts"])
                _adopt_worker_measurements(result, extra)
            elif extra is not None:
                result.errors[op] = "re-executed in the warm pass: the cache lost it"
            elif not result.outputs.get(f"job:{label}", "").endswith("-" + record_digest):
                result.errors[op] = "cache read differs from the cold record"
            else:
                result.outputs[op] = record_digest
        for path in paths:
            op = f"csv:{phase}/{path.name}"
            result.outputs[op] = digest(path.read_bytes())
            if phase == "warm" and result.outputs.get(f"csv:cold/{path.name}") != result.outputs[op]:
                result.errors[op] = "differs from the cold CSV"


def _adopt_worker_measurements(result: Pass, extra: dict) -> None:
    """Fold what a pool worker measured during one job into the pass."""
    if "samples" in extra:
        samples, probe_s = extra["samples"]
        result.samples += samples
        result.worker_probe_s += probe_s
    if "trace" in extra:
        trace = extra["trace"]
        result.tracer.extend([tracing.Span(*s) for s in trace["spans"]])
        result.profiled_s += trace["profiled_s"]
        for layer, seconds in trace["layer_s"].items():
            result.layer_s[layer] += seconds


#: Workload name -> definition.  Shapes follow the paper's two workloads:
#: bitonic sort (low compute/communication, thread synchronisation) and FFT
#: (compute-heavy, no thread synchronisation).
WORKLOADS = {
    "sort-p16": InProcess("sort", 16, 64, (1, 2, 4, 8)),
    "fft-p64": InProcess("fft", 64, 16, (1, 2, 4)),
    "emc-sort-p16": InProcess("emc-sort", 16, 64, (1, 2, 4, 8), compiled=True),
    "export-tiny": Export(),
}
