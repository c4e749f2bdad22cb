"""The EM-X simulator benchmark: one workload per run, outputs checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sort-p16 --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with tracing off and prints every
end-to-end metric; ``--trace 1`` alternates untraced and traced passes and
prints every per-layer metric, including the tracing overhead.  Either way
each operation's output is checked against ``digests.json`` (see
:mod:`checks`), a human-readable table goes to stdout, and the last line
of stdout is one JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

``python3 perfbench/run.py --record-digests`` re-records the expected
digests for the recorded seeds; do that only for a change that is meant
to alter simulated results.

The program is imported from ``src/`` of the checkout the script sits in,
never from an installed copy; without it the script fails before any run.
All scratch files (the export workload's private result caches) live in
``.perfbench_work/`` of the checkout and are removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import hostprobe
import tracing
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_SAMPLES = 7
#: Fewest timed passes per run, whatever ``--seconds`` says.
MIN_PASSES = {"export-tiny": 3}
MIN_PASSES_DEFAULT = 5
SETUP_CODE = "import repro; repro.app_names()"

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "sim_cycles_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program to run, bad arguments)."""


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if not pathlib.Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")
    repro.app_names()  # load the app registry, as setup_s does
    return repro


def host_metadata(scale: str | None) -> dict:
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "REPRO_SCALE": scale or os.environ.get("REPRO_SCALE", "small"),
    }


def measure_setup() -> list[tuple[float, float]]:
    """Interpreter start through ``import repro`` and registry load:
    ``(measured, rescaled)`` seconds per sample, each rescaled by the
    reference start-ups timed just before and after it (see
    :data:`hostprobe.START_CODE`)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def start(code: str) -> float:
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
            capture_output=True, timeout=120,
        )
        return time.perf_counter() - started

    samples = []
    before = start(hostprobe.START_CODE)
    for _ in range(SETUP_SAMPLES):
        elapsed = start(SETUP_CODE)
        after = start(hostprobe.START_CODE)
        samples.append((elapsed, elapsed * hostprobe.REFERENCE_START_S * 2 / (before + after)))
        before = after
    return samples


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0  # Linux reports KiB


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(values: list[float]) -> tuple[float | None, float | None]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None, None
    k = n - 11
    return 100.0 * (k + 1) / n, sorted(values)[k]


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def make_runner(name: str, seed: int, workdir: str):
    workload = workloads.WORKLOADS[name]
    src_root = str(SRC)
    if isinstance(workload, workloads.Export):
        return lambda traced: workload.run_pass(
            seed, traced=traced, src_root=src_root, workdir=workdir
        )
    return lambda traced: workload.run_pass(seed, traced=traced, src_root=src_root)


def warm_up(name: str, run_pass) -> list[workloads.Pass]:
    """Finish lazy set-up before timing.  Each export pass is cold by
    design, so for it only the modules it imports are loaded."""
    if isinstance(workloads.WORKLOADS[name], workloads.Export):
        import concurrent.futures.process  # noqa: F401

        import repro.experiments.export  # noqa: F401
        import repro.runner  # noqa: F401

        return []
    return [run_pass(False)]


def measure(name: str, run_pass, seconds: float, traced: bool):
    """Run timed passes for about ``seconds``; returns (untraced, traced).

    Untraced runs time the workload with tracing off.  Traced runs
    alternate an untraced and a traced pass, so both see the same host.
    """
    minimum = 1 if traced else MIN_PASSES.get(name, MIN_PASSES_DEFAULT)
    plain: list[workloads.Pass] = []
    spanned: list[workloads.Pass] = []
    cycle_s: list[float] = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(False))
        if traced:
            spanned.append(run_pass(True))
        cycle_s.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        if len(plain) >= minimum and elapsed + statistics.median(cycle_s) > seconds:
            return plain, spanned


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(passes, setup) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """Samples of every end-to-end metric, host times rescaled to reference
    host speed (see :mod:`hostprobe`), and the same samples as measured."""
    wall, cpu = zip(*(p.rescaled() for p in passes))
    rescaled = {
        "wall_s": list(wall),
        "cpu_s": list(cpu),
        "sim_cycles_per_s": [p.counts["pe_cycles"] / w for p, w in zip(passes, wall)],
        "setup_s": [r for _, r in setup],
        "peak_rss_mb": [peak_rss_mb()],
    }
    measured = {
        "wall_s": [p.work_s for p in passes],
        "cpu_s": [p.work_cpu_s for p in passes],
        "sim_cycles_per_s": [p.counts["pe_cycles"] / p.work_s for p in passes],
        "setup_s": [m for m, _ in setup],
        "peak_rss_mb": rescaled["peak_rss_mb"],
    }
    return rescaled, measured


def per_layer(plain, traced) -> dict[str, tuple[float, str]]:
    """Every per-layer metric: exact counts plus medians over traced passes."""
    counts = traced[0].counts
    events, hops, packets = (
        counts["sim.events"], counts["network.hops"], counts["network.packets"]
    )
    untraced_wall = statistics.median(p.work_s for p in plain)

    def timed(p: workloads.Pass) -> dict[str, float]:
        t = p.tracer
        row = {f"{layer}.self_s": p.layer_s[layer] for layer in tracing.LAYERS}
        jobs = t.durations("runner.worker.execute_job")
        pool_wall = t.total("runner.pool.run_jobs")
        row.update({
            "machine.build_s": t.total("EMX.__init__"),
            "machine.run_s": t.total("EMX.run"),
            "metrics.serialize_s": t.total("report_to_dict"),
            "runner.cache.put_s": t.total("ResultCache.put"),
            "runner.cache.get_s": t.total("ResultCache.get"),
            "runner.pool.wall_s": pool_wall,
            "runner.pool.busy_frac": (
                sum(jobs) / (p.workers * pool_wall) if pool_wall else 0.0
            ),
            "runner.job_p50_s": statistics.median(jobs) if jobs else 0.0,
            "runner.job_tail_s": (tail(jobs)[1] or max(jobs)) if jobs else 0.0,
            "experiments.export_s": t.total("export_all"),
            "trace.accounted_frac": sum(p.layer_s.values()) / p.profiled_s,
        })
        return row

    rows = [timed(p) for p in traced]
    out: dict[str, tuple[float, str]] = {
        key: (statistics.median(r[key] for r in rows), "s") for key in rows[0]
    }
    for key in ("runner.pool.busy_frac", "trace.accounted_frac"):
        out[key] = (out[key][0], "ratio")
    for key in workloads.COUNT_KEYS:
        if key not in ("pe_cycles", "network.latency_cyc"):
            out[key] = (counts[key], "count")
    first = traced[0].tracer
    out["runner.cache.put_n"] = (first.count("ResultCache.put"), "count")
    out["runner.cache.get_n"] = (first.count("ResultCache.get"), "count")
    out["runner.warm_wall_s"] = (statistics.median(p.warm_wall_s for p in plain), "s")
    out["network.hops_per_packet"] = (hops / packets if packets else 0.0, "hops/packet")
    out["network.mean_latency_cyc"] = (
        counts["network.latency_cyc"] / packets if packets else 0.0, "cycles"
    )
    out["sim.events_per_s"] = (events / untraced_wall, "1/s")
    out["sim.ns_per_event"] = (out["sim.self_s"][0] / events * 1e9 if events else 0.0, "ns")
    out["network.ns_per_hop"] = (out["network.self_s"][0] / hops * 1e9 if hops else 0.0, "ns")
    traced_wall = statistics.median(p.wall_s for p in traced)
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return dict(sorted(out.items()))


def span_table(traced) -> list[str]:
    """Per-span-name count, total and self time of the first traced pass."""
    lines = ["spans (first traced pass): name  count  total_s  self_s"]
    for name, (count, total, own) in sorted(traced[0].tracer.summary().items()):
        lines.append(f"  {name:28s} {count:6d} {total:9.4f} {own:9.4f}")
    return lines


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run(args) -> dict:
    import_program()
    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    private = tempfile.mkdtemp(prefix="run-", dir=workdir)
    os.environ["TMPDIR"] = tempfile.tempdir = private
    try:
        scale = "tiny" if args.workload == "export-tiny" else None
        setup = measure_setup() if not args.trace else []
        run_pass = make_runner(args.workload, args.seed, private)
        warm = warm_up(args.workload, run_pass)
        plain, traced = measure(args.workload, run_pass, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(private, ignore_errors=True)

    every = warm + plain + traced
    expected = checks.expected_for(args.workload, args.seed)
    attempted, failed, reasons = checks.check_outputs(every, expected)
    mismatched = checks.count_mismatches(every)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(plain)} untraced + {len(traced)} traced (+{len(warm)} warm-up)")
    print("host " + json.dumps(host_metadata(scale), sort_keys=True))
    print("outputs checked against "
          + ("recorded digests" if expected is not None else "the run's first pass"))
    if args.trace:
        metrics = per_layer(plain, traced)
        print("per-layer metrics (times: median over traced passes)")
        for key, (value, unit) in metrics.items():
            print(f"  {key:34s} {value:16.6g} {unit}")
        print("\n".join(span_table(traced)))
    else:
        rescaled, measured = end_to_end(plain, setup)
        samples = [t for p in plain for t in p.samples]
        print(f"host speed: probe median {statistics.median(samples):.4g} s against "
              f"{hostprobe.REFERENCE_S} s reference ({len(samples)} samples)")
        print("end-to-end metrics at reference host speed (as measured, probing"
              " excluded, in brackets): median, tail percentile, samples")
        metrics = {}
        for key, values in rescaled.items():
            unit = END_TO_END_UNITS[key]
            median = statistics.median(values)
            pct, value = tail(values)
            tail_text = f"p{pct:.0f} {value:.6g}" if pct is not None else "tail n/a (<11 samples)"
            print(f"  {key:18s} {median:14.6g} {unit:4s} "
                  f"[{statistics.median(measured[key]):.6g}]  {tail_text}  n={len(values)}")
            metrics[key] = (median, unit)
    print(f"fail_frac {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} failed of {attempted} operations)")
    for line in (reasons + mismatched)[:20]:
        print("  FAIL " + line)
    return {
        "correct": failed == 0 and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def record_digests(names) -> None:
    """Record every operation's digest for each recorded seed."""
    import_program()
    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    recorded = json.loads(checks.DIGEST_FILE.read_text()) if checks.DIGEST_FILE.exists() else {}
    for name in names:
        for seed in checks.RECORDED_SEEDS:
            private = tempfile.mkdtemp(prefix="record-", dir=workdir)
            try:
                passes = [make_runner(name, seed, private)(False) for _ in range(2)]
            finally:
                shutil.rmtree(private, ignore_errors=True)
            _, failed, reasons = checks.check_outputs(passes, None)
            if failed or checks.count_mismatches(passes):
                raise BenchError(f"{name} seed {seed} is not reproducible: {reasons[:3]}")
            recorded.setdefault(name, {})[str(seed)] = dict(sorted(passes[0].outputs.items()))
            print(f"recorded {name} seed {seed}: {len(passes[0].outputs)} operations")
    checks.DIGEST_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record_digests:
            record_digests([args.workload] if args.workload else sorted(workloads.WORKLOADS))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
